//! `bdsmaj` — command-line synthesis tool.
//!
//! Reads combinational BLIF files, optimizes them with a chosen flow,
//! verifies each result against its input, and writes the optimized BLIF
//! plus an area/delay report on the CMOS 22 nm six-cell library.
//!
//! ```text
//! usage: bdsmaj [--flow bds-maj|bds-pga|abc|dc] [--reorder none|window|sift|sift-converge]
//!               [--jobs N] [--map] [-o OUT.blif] IN.blif
//!        bdsmaj ... [-o OUT_DIR] IN1.blif IN2.blif ...  # multi-file mode
//!        bdsmaj --bench NAME        # run a built-in paper benchmark instead
//! ```
//!
//! With more than one input file the tool switches to **multi-file mode**:
//! every file is synthesized as an independent task on the suite pool
//! (`--jobs N`, default `BENCH_JOBS` or all cores; each task owns its BDD
//! managers), per-file reports are printed in input order, and `-o` names
//! a *directory* that receives one optimized BLIF per input (stdout BLIF
//! dumping is single-file only). `--jobs` sizes only that pool: a single
//! file is always synthesized on one thread.

use bds_maj::prelude::*;
use bench::{pool, RowBudget};
use std::path::Path;
use std::process::ExitCode;

/// Exit code for runs that completed but under graceful degradation
/// (some cones carried through un-decomposed). 0 = ok, 1 = failure,
/// 2 = usage error.
const EXIT_DEGRADED: u8 = 3;

struct Args {
    flow: String,
    reorder: ReorderPolicy,
    jobs: usize,
    map: bool,
    output: Option<String>,
    inputs: Vec<String>,
    bench: Option<String>,
    budget: RowBudget,
}

const USAGE: &str = "usage: bdsmaj [--flow bds-maj|bds-pga|abc|dc] \
                     [--reorder none|window|sift|sift-converge] [--jobs N] [--map] \
                     [--node-limit N] [--step-limit N] [--timeout SECS] \
                     [-o OUT.blif] (IN.blif | --bench NAME)\n       \
                     bdsmaj ... [-o OUT_DIR] IN1.blif IN2.blif ...  # multi-file mode\n\
exit codes: 0 ok, 1 failed, 2 usage error, 3 completed degraded (cones over budget)";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        flow: "bds-maj".to_string(),
        reorder: ReorderPolicy::Window,
        jobs: 0,
        map: false,
        output: None,
        inputs: Vec::new(),
        bench: None,
        budget: RowBudget::default(),
    };
    let mut jobs: Option<usize> = None;
    let mut reorder_seen = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--flow" => args.flow = it.next().ok_or("--flow needs a value")?,
            "--reorder" => {
                if reorder_seen {
                    return Err("duplicate --reorder flag".to_string());
                }
                reorder_seen = true;
                let v = it.next().ok_or("--reorder needs a value")?;
                args.reorder = ReorderPolicy::from_flag(&v).ok_or(format!(
                    "--reorder {v}: use none, window, sift or sift-converge"
                ))?;
            }
            "--jobs" => {
                if jobs.is_some() {
                    return Err("duplicate --jobs flag".to_string());
                }
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = Some(bench::parse_jobs(&v)?);
            }
            "--node-limit" => {
                if args.budget.node_limit.is_some() {
                    return Err("duplicate --node-limit flag".to_string());
                }
                let v = it.next().ok_or("--node-limit needs a value")?;
                args.budget.node_limit = Some(bench::parse_limit("--node-limit", &v)? as usize);
            }
            "--step-limit" => {
                if args.budget.step_limit.is_some() {
                    return Err("duplicate --step-limit flag".to_string());
                }
                let v = it.next().ok_or("--step-limit needs a value")?;
                args.budget.step_limit = Some(bench::parse_limit("--step-limit", &v)?);
            }
            "--timeout" => {
                if args.budget.timeout.is_some() {
                    return Err("duplicate --timeout flag".to_string());
                }
                let v = it.next().ok_or("--timeout needs a value")?;
                args.budget.timeout = Some(bench::parse_timeout(&v)?);
            }
            "--map" => args.map = true,
            "-o" | "--output" => args.output = Some(it.next().ok_or("-o needs a value")?),
            "--bench" => args.bench = Some(it.next().ok_or("--bench needs a value")?),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other if !other.starts_with('-') => args.inputs.push(other.to_string()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    args.jobs = jobs.unwrap_or_else(pool::default_jobs);
    if args.inputs.is_empty() && args.bench.is_none() {
        return Err("missing input: pass IN.blif or --bench NAME".to_string());
    }
    if args.bench.is_some() && !args.inputs.is_empty() {
        return Err("--bench and input files are mutually exclusive".to_string());
    }
    Ok(args)
}

/// Outcome of one synthesis task: the report lines (printed in input
/// order) plus the optimized network for output writing.
struct FileResult {
    report: String,
    network: Network,
    /// Cones that fell back un-decomposed under the resource budget.
    degraded: bool,
}

/// Optimizes one network: flow, equivalence check, optional mapping.
/// Returns the per-file report text and the network to emit, or an error
/// message. Pure function of its inputs — safe to run on any pool worker
/// (each flow builds its own BDD managers).
fn synthesize(
    net: &Network,
    label: &str,
    args: &Args,
    lib: &Library,
) -> Result<FileResult, String> {
    use std::fmt::Write as _;
    // The budget's deadline starts counting at task start, so every file
    // in a batch gets its own clock.
    let engine = EngineOptions {
        reorder: args.reorder,
        limits: args.budget.limits_now(),
        ..EngineOptions::default()
    };
    let maj_options = BdsMajOptions {
        engine: engine.clone(),
        ..BdsMajOptions::default()
    };
    let mut report_text = String::new();
    let _ = writeln!(report_text, "input : {}", net.stats());
    let mut flow_report = None;
    let optimized = match args.flow.as_str() {
        "bds-maj" => {
            let r = bds_maj(net, &maj_options);
            let net = r.network().clone();
            flow_report = Some(r.result.report);
            net
        }
        "bds-pga" => {
            let r = bds_pga(net, &engine);
            flow_report = Some(r.report);
            r.network
        }
        "abc" => abc_flow(net),
        "dc" => dc_flow(net, lib).network,
        other => {
            return Err(format!(
                "unknown flow {other}; use bds-maj, bds-pga, abc or dc"
            ))
        }
    };
    let _ = writeln!(report_text, "output: {}", optimized.stats());
    let degraded = flow_report.as_ref().is_some_and(|r| r.is_degraded());
    if let Some(r) = &flow_report {
        if r.is_degraded() {
            let _ = writeln!(
                report_text,
                "status: degraded — {} of {} cones over budget (carried through un-decomposed)",
                r.degraded_count(),
                r.cones.len()
            );
        }
    }
    if let Err(mismatch) = equiv_sim(net, &optimized, 16, 0xC11) {
        return Err(format!(
            "INTERNAL ERROR: optimization changed the function of {label}: {mismatch}"
        ));
    }
    let _ = writeln!(
        report_text,
        "verify: equivalence confirmed on 1088 random vectors"
    );
    let network = if args.map {
        let mapped = map_network(&optimized);
        let r = report(&mapped, lib);
        let _ = writeln!(report_text, "mapped: {r}");
        mapped.network
    } else {
        optimized
    };
    Ok(FileResult {
        report: report_text,
        network,
        degraded,
    })
}

/// Single-input mode (one file or `--bench`): report to stderr, BLIF to
/// `-o PATH` or stdout. Byte-identical to the historical behavior.
fn run_single(net: &Network, args: &Args, lib: &Library) -> ExitCode {
    let result = match synthesize(net, "the input", args, lib) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", result.report);
    match &args.output {
        Some(path) => {
            if let Err(e) = logic::write_blif_file(&result.network, path) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote : {path}");
        }
        None => print!("{}", write_blif(&result.network)),
    }
    if result.degraded {
        return ExitCode::from(EXIT_DEGRADED);
    }
    ExitCode::SUCCESS
}

/// Output file name of one multi-file input: its basename.
fn output_name(input: &str) -> String {
    Path::new(input)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out.blif".to_string())
}

/// Multi-file mode: every input is an independent pool task; reports are
/// printed in input order once all tasks finish, and `-o DIR` receives
/// one `DIR/<basename>` per input (duplicate basenames are rejected up
/// front rather than silently overwriting each other).
fn run_multi(nets: Vec<(String, Network)>, args: &Args, lib: &Library) -> ExitCode {
    let out_dir = match &args.output {
        Some(dir) => {
            // Outputs are keyed by input basename; two inputs with the
            // same file name would silently clobber each other.
            let mut names = std::collections::HashSet::new();
            for (path, _) in &nets {
                let name = output_name(path);
                if !names.insert(name.clone()) {
                    eprintln!(
                        "output collision: two inputs would both write {dir}/{name}; \
                         rename one or use distinct output directories"
                    );
                    return ExitCode::FAILURE;
                }
            }
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create output directory {dir}: {e}");
                return ExitCode::FAILURE;
            }
            Some(Path::new(dir))
        }
        None => None,
    };
    // Per-task panic isolation: one pathological input yields one failed
    // row ("status: failed") instead of killing the whole batch.
    let results = pool::run_catching(args.jobs, nets.len(), |i| {
        let (path, net) = &nets[i];
        synthesize(net, path, args, lib)
    });
    let mut failures = 0usize;
    let mut degraded = 0usize;
    for ((path, _), result) in nets.iter().zip(results) {
        eprintln!("=== {path} ===");
        match result {
            Ok(Ok(r)) => {
                eprint!("{}", r.report);
                if r.degraded {
                    degraded += 1;
                }
                if let Some(dir) = out_dir {
                    let out = dir.join(output_name(path));
                    let out = out.to_string_lossy();
                    if let Err(e) = logic::write_blif_file(&r.network, out.as_ref()) {
                        eprintln!("cannot write {out}: {e}");
                        failures += 1;
                        continue;
                    }
                    eprintln!("wrote : {out}");
                }
            }
            Ok(Err(msg)) => {
                eprintln!("status: failed — {msg}");
                failures += 1;
            }
            Err(panic_msg) => {
                eprintln!("status: failed — task panicked: {panic_msg}");
                failures += 1;
            }
        }
    }
    if degraded > 0 {
        eprintln!(
            "{degraded} of {} files completed degraded (cones over budget)",
            nets.len()
        );
    }
    if failures > 0 {
        eprintln!("{failures} of {} files failed", nets.len());
        return ExitCode::FAILURE;
    }
    if degraded > 0 {
        return ExitCode::from(EXIT_DEGRADED);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let lib = Library::cmos22();

    if let Some(name) = &args.bench {
        let net = match bds_maj::circuits::suite::benchmark(name) {
            Some(n) => n,
            None => {
                eprintln!(
                    "unknown benchmark {name}; available: {}",
                    bds_maj::circuits::suite::PAPER_BENCHMARKS.join(", ")
                );
                return ExitCode::FAILURE;
            }
        };
        return run_single(&net, &args, &lib);
    }

    // Read every input up front (I/O stays on the main thread); synthesis
    // fans out over the pool in multi-file mode.
    let mut nets = Vec::new();
    for path in &args.inputs {
        match logic::read_blif_file(path) {
            Ok(n) => nets.push((path.clone(), n)),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if nets.len() == 1 {
        let (_, net) = &nets[0];
        run_single(net, &args, &lib)
    } else {
        run_multi(nets, &args, &lib)
    }
}
