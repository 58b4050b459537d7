//! Shared harness code for the table-reproducing binaries and the
//! kernels perf bin: runs every flow of the paper on the 17-benchmark
//! suite and aggregates the Table I / Table II rows.
//!
//! Suite runs fan out over the hand-rolled pool in [`pool`]: each
//! benchmark row is an independent task (every flow run already builds
//! its own `bdd::Manager`, which is deliberately not `Sync`), and
//! results are placed by task index, so row order and content (names, counts, verified flags) are identical to a
//! sequential run — only measured-runtime cells vary, as they do between
//! any two runs of the same binary. The worker count comes
//! from the binaries' shared `--jobs N` flag, the `BENCH_JOBS`
//! environment variable, or the machine's available parallelism, in that
//! order; `--jobs 1` is the exact sequential path. Parallelism stops at
//! the row: a single cone is always built by one thread.

use baselines::{abc_flow, dc_flow};
use bdd::ResourceLimits;
use bdsmaj::{bds_maj, bds_pga, BdsMajOptions};
use circuits::suite::{paper_suite, Benchmark, Group};
use decomp::EngineOptions;
use logic::{equiv_sim, GateCounts, Network};
use std::time::{Duration, Instant};
use techmap::{map_network, report, Library, MappedReport};

pub mod pool;

/// Outcome class of one benchmark row, printed in the tables and written
/// to `BENCH_kernels.json` so resource-degraded runs are visible instead
/// of silently shaping aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RowStatus {
    /// Every cone decomposed within budget (or no budget was set).
    #[default]
    Ok,
    /// The flow completed but some cones fell back un-decomposed.
    Degraded,
    /// The row did not produce a result (the task panicked or was cut
    /// off); its numbers are placeholders and must not enter aggregates.
    Limit,
}

impl RowStatus {
    /// The status as printed in table rows and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            RowStatus::Ok => "ok",
            RowStatus::Degraded => "degraded",
            RowStatus::Limit => "limit",
        }
    }
}

/// Per-row resource budget from the shared `--node-limit` /
/// `--step-limit` / `--timeout` flags. The timeout is a *duration* here;
/// it becomes an absolute deadline when the row starts
/// ([`RowBudget::limits_now`]), so every benchmark gets its own clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowBudget {
    /// Live-node ceiling per manager (`--node-limit`).
    pub node_limit: Option<usize>,
    /// Recursion-step ceiling per cone (`--step-limit`).
    pub step_limit: Option<u64>,
    /// Wall-clock allowance per benchmark row (`--timeout`, seconds).
    pub timeout: Option<Duration>,
}

impl RowBudget {
    /// True when any limit is set.
    pub fn is_limited(&self) -> bool {
        self.node_limit.is_some() || self.step_limit.is_some() || self.timeout.is_some()
    }

    /// Resolves the budget into [`ResourceLimits`] whose deadline starts
    /// counting now. Call once per row, at row start.
    pub fn limits_now(&self) -> ResourceLimits {
        ResourceLimits {
            max_live_nodes: self.node_limit,
            max_steps: self.step_limit,
            deadline: self.timeout.map(|t| Instant::now() + t),
        }
    }

    /// Engine options for one row: `engine` with this budget installed
    /// (deadline anchored at the call).
    pub fn apply(&self, engine: &EngineOptions) -> EngineOptions {
        EngineOptions {
            limits: self.limits_now(),
            ..engine.clone()
        }
    }
}

/// The table binaries' shared command-line knobs.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    /// Engine options: the defaults, with per-cone reordering off under
    /// `--reorder none` (`reorder_window: 0`).
    pub engine: EngineOptions,
    /// Worker count for the suite pool (`--jobs`, default:
    /// [`pool::default_jobs`]).
    pub jobs: usize,
    /// Per-row resource budget (`--node-limit`, `--step-limit`,
    /// `--timeout`; default: unlimited).
    pub budget: RowBudget,
}

/// Usage text for the shared suite flags, printed on any parse error.
pub const SUITE_USAGE: &str = "supported options:
  --reorder {none,window}       per-cone reordering policy (default: window)
  --jobs N                      suite worker threads (default: BENCH_JOBS or all cores; 1 = sequential)
  --node-limit N                live-BDD-node ceiling per benchmark (graceful per-cone degradation)
  --step-limit N                kernel recursion-step ceiling per cone
  --timeout SECS                wall-clock allowance per benchmark row (fractions allowed)";

/// Parses a `--reorder` value into the engine's `reorder_window`: `none`
/// turns per-cone reordering off (`0`), `window` keeps the default
/// window.
pub fn parse_reorder(v: &str) -> Result<usize, String> {
    match v {
        "none" => Ok(0),
        "window" => Ok(EngineOptions::default().reorder_window),
        _ => Err(format!("--reorder {v}: use none or window")),
    }
}

/// The reordering name printed in the table headers: `Window`, or `None`
/// when `engine` reorders no cone.
pub fn reorder_label(engine: &EngineOptions) -> &'static str {
    if engine.reorder_window < 2 {
        "None"
    } else {
        "Window"
    }
}

/// Parses a `--jobs` value: a positive worker count.
pub fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs {v}: need a positive worker count")),
    }
}

/// Parses a positive integer limit value for `flag`.
pub fn parse_limit(flag: &str, v: &str) -> Result<u64, String> {
    match v.trim().parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} {v}: need a positive integer")),
    }
}

/// Parses a `--timeout` value: positive seconds, fractions allowed.
pub fn parse_timeout(v: &str) -> Result<Duration, String> {
    match v.trim().parse::<f64>() {
        Ok(secs) if secs > 0.0 && secs.is_finite() => Ok(Duration::from_secs_f64(secs)),
        _ => Err(format!("--timeout {v}: need a positive number of seconds")),
    }
}

/// Parses the table binaries' shared flags (`--reorder`, `--jobs`) from
/// an argv slice (without the program name). Rejects duplicate flags and
/// unknown arguments.
pub fn parse_suite_args(args: &[String]) -> Result<SuiteArgs, String> {
    let mut reorder_window: Option<usize> = None;
    let mut jobs: Option<usize> = None;
    let mut node_limit: Option<usize> = None;
    let mut step_limit: Option<u64> = None;
    let mut timeout: Option<Duration> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--node-limit" => {
                if node_limit.is_some() {
                    return Err("duplicate --node-limit flag".to_string());
                }
                let v = args
                    .get(i + 1)
                    .ok_or("--node-limit requires a node count")?;
                node_limit = Some(parse_limit("--node-limit", v)? as usize);
                i += 2;
                continue;
            }
            "--step-limit" => {
                if step_limit.is_some() {
                    return Err("duplicate --step-limit flag".to_string());
                }
                let v = args
                    .get(i + 1)
                    .ok_or("--step-limit requires a step count")?;
                step_limit = Some(parse_limit("--step-limit", v)?);
                i += 2;
                continue;
            }
            "--timeout" => {
                if timeout.is_some() {
                    return Err("duplicate --timeout flag".to_string());
                }
                let v = args.get(i + 1).ok_or("--timeout requires seconds")?;
                timeout = Some(parse_timeout(v)?);
                i += 2;
                continue;
            }
            _ => {}
        }
        match args[i].as_str() {
            "--reorder" => {
                if reorder_window.is_some() {
                    return Err("duplicate --reorder flag".to_string());
                }
                let v = args
                    .get(i + 1)
                    .ok_or("--reorder requires one of: none, window")?;
                reorder_window = Some(parse_reorder(v)?);
                i += 2;
            }
            "--jobs" => {
                if jobs.is_some() {
                    return Err("duplicate --jobs flag".to_string());
                }
                let v = args.get(i + 1).ok_or("--jobs requires a worker count")?;
                jobs = Some(parse_jobs(v)?);
                i += 2;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let defaults = EngineOptions::default();
    Ok(SuiteArgs {
        engine: EngineOptions {
            reorder_window: reorder_window.unwrap_or(defaults.reorder_window),
            ..defaults
        },
        jobs: jobs.unwrap_or_else(pool::default_jobs),
        budget: RowBudget {
            node_limit,
            step_limit,
            timeout,
        },
    })
}

/// Shared argv parsing for the table binaries: accepts exactly the
/// `--reorder {none,window}`, `--jobs N` and budget flags and exits with a
/// usage message on anything else (including a repeated flag).
pub fn suite_args() -> SuiteArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_suite_args(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}\n{SUITE_USAGE}");
        std::process::exit(2);
    })
}

/// Section header of a suite group, as printed between table rows.
pub fn group_header(group: Group) -> &'static str {
    match group {
        Group::Mcnc => "--- MCNC Benchmarks ---",
        Group::Hdl => "--- HDL Benchmarks ---",
    }
}

/// The table binaries' shared row-printing loop: prints each row via
/// `print_row`, inserting a [`group_header`] line whenever `group`
/// changes between consecutive rows (including before the first row).
/// Section breaks are derived from the rows themselves, so a reordered or
/// filtered suite prints correct headers instead of relying on
/// MCNC-before-HDL row order.
pub fn print_rows_grouped<R>(
    rows: &[R],
    group: impl Fn(&R) -> Group,
    mut print_row: impl FnMut(&R),
) {
    let mut current: Option<Group> = None;
    for row in rows {
        let g = group(row);
        if current != Some(g) {
            println!("{}", group_header(g));
            current = Some(g);
        }
        print_row(row);
    }
}

/// One row of Table I: decomposition node counts for both engines.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Benchmark name (paper spelling).
    pub name: &'static str,
    /// MCNC or HDL section.
    pub group: Group,
    /// BDS-MAJ node counts.
    pub maj: GateCounts,
    /// BDS-MAJ decomposition runtime.
    pub maj_runtime: Duration,
    /// BDS-PGA node counts.
    pub pga: GateCounts,
    /// BDS-PGA decomposition runtime.
    pub pga_runtime: Duration,
    /// Whether both decomposed networks passed equivalence checking.
    pub verified: bool,
    /// Budget outcome: `Ok`, `Degraded` (some cones un-decomposed under
    /// the budget), or `Limit` (no result; placeholder numbers).
    pub status: RowStatus,
}

impl Table1Row {
    /// A placeholder row for a benchmark whose task did not finish
    /// (status [`RowStatus::Limit`]); its numbers must not enter
    /// aggregates.
    pub fn failed(bench: &Benchmark) -> Table1Row {
        Table1Row {
            name: bench.name,
            group: bench.group,
            maj: GateCounts::default(),
            maj_runtime: Duration::ZERO,
            pga: GateCounts::default(),
            pga_runtime: Duration::ZERO,
            verified: false,
            status: RowStatus::Limit,
        }
    }
}

/// Runs the Table I experiment (BDS-MAJ vs BDS-PGA decomposition) on the
/// full suite under `engine` with `budget` installed per row, on `jobs`
/// workers. Rows come back in suite order regardless of `jobs`;
/// `jobs == 1` is the exact sequential path. Each task is panic-isolated:
/// a benchmark that blows the budget comes back as a `Degraded` row; one
/// that dies entirely comes back as a `Limit` placeholder row instead of
/// killing the batch.
pub fn run_table1(engine: &EngineOptions, jobs: usize, budget: RowBudget) -> Vec<Table1Row> {
    let suite = paper_suite();
    pool::run_catching(jobs, suite.len(), |i| {
        table1_row(&suite[i], &budget.apply(engine))
    })
    .into_iter()
    .enumerate()
    .map(|(i, r)| {
        r.unwrap_or_else(|msg| {
            eprintln!("{}: task failed: {msg}", suite[i].name);
            Table1Row::failed(&suite[i])
        })
    })
    .collect()
}

/// Runs one benchmark of Table I under explicit engine options. Both
/// decomposed networks are oracle-checked against the input by random
/// simulation (`verified`), so reordering policies cannot silently change
/// a function.
pub fn table1_row(bench: &Benchmark, engine: &EngineOptions) -> Table1Row {
    let net = &bench.network;
    let maj_options = BdsMajOptions {
        engine: engine.clone(),
        ..BdsMajOptions::default()
    };
    let with = bds_maj(net, &maj_options);
    let without = bds_pga(net, engine);
    let verified = equiv_sim(net, with.network(), 4, 0xBD5).is_ok()
        && equiv_sim(net, &without.network, 4, 0xBD5).is_ok();
    let status = if with.report().is_degraded() || without.report.is_degraded() {
        RowStatus::Degraded
    } else {
        RowStatus::Ok
    };
    Table1Row {
        name: bench.name,
        group: bench.group,
        maj: with.network().gate_counts(),
        maj_runtime: with.result.runtime,
        pga: without.network.gate_counts(),
        pga_runtime: without.runtime,
        verified,
        status,
    }
}

/// One row of Table II: mapped area/gates/delay for the four flows.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Benchmark name (paper spelling).
    pub name: &'static str,
    /// MCNC or HDL section.
    pub group: Group,
    /// BDS-MAJ synthesis result.
    pub bds_maj: MappedReport,
    /// BDS-PGA synthesis result.
    pub bds_pga: MappedReport,
    /// ABC-like synthesis result.
    pub abc: MappedReport,
    /// DC-like synthesis result.
    pub dc: MappedReport,
    /// Whether all four mapped netlists passed equivalence checking.
    pub verified: bool,
    /// Budget outcome: `Ok`, `Degraded`, or `Limit` (placeholder row).
    pub status: RowStatus,
}

impl Table2Row {
    /// A placeholder row for a benchmark whose task did not finish.
    pub fn failed(bench: &Benchmark) -> Table2Row {
        Table2Row {
            name: bench.name,
            group: bench.group,
            bds_maj: MappedReport::default(),
            bds_pga: MappedReport::default(),
            abc: MappedReport::default(),
            dc: MappedReport::default(),
            verified: false,
            status: RowStatus::Limit,
        }
    }
}

/// Runs the Table II experiment (full synthesis with mapping) on the
/// suite under `engine` with `budget` installed per row, on `jobs`
/// workers, with the same row order and per-task panic isolation as
/// [`run_table1`].
pub fn run_table2(
    lib: &Library,
    engine: &EngineOptions,
    jobs: usize,
    budget: RowBudget,
) -> Vec<Table2Row> {
    let suite = paper_suite();
    pool::run_catching(jobs, suite.len(), |i| {
        table2_row(&suite[i], lib, &budget.apply(engine))
    })
    .into_iter()
    .enumerate()
    .map(|(i, r)| {
        r.unwrap_or_else(|msg| {
            eprintln!("{}: task failed: {msg}", suite[i].name);
            Table2Row::failed(&suite[i])
        })
    })
    .collect()
}

/// Runs one benchmark of Table II under explicit engine options.
pub fn table2_row(bench: &Benchmark, lib: &Library, engine: &EngineOptions) -> Table2Row {
    let net = &bench.network;
    let synth = |optimized: &Network| {
        let mapped = map_network(optimized);
        let ok = equiv_sim(net, &mapped.network, 4, 0xDA13).is_ok();
        (report(&mapped, lib), ok)
    };
    let maj_options = BdsMajOptions {
        engine: engine.clone(),
        ..BdsMajOptions::default()
    };
    let with = bds_maj(net, &maj_options);
    let without = bds_pga(net, engine);
    let status = if with.report().is_degraded() || without.report.is_degraded() {
        RowStatus::Degraded
    } else {
        RowStatus::Ok
    };
    let (r_maj, ok1) = synth(with.network());
    let (r_pga, ok2) = synth(&without.network);
    let (r_abc, ok3) = synth(&abc_flow(net));
    let (r_dc, ok4) = synth(&dc_flow(net, lib).network);
    Table2Row {
        name: bench.name,
        group: bench.group,
        bds_maj: r_maj,
        bds_pga: r_pga,
        abc: r_abc,
        dc: r_dc,
        verified: ok1 && ok2 && ok3 && ok4,
        status,
    }
}

/// Aggregate of [`saving_summary`]: the mean saving over the pairs that
/// define one, plus how many pairs were skipped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SavingSummary {
    /// Mean of `1 - ours/theirs` over the contributing pairs, in percent
    /// (`0.0` when no pair contributes).
    pub percent: f64,
    /// Pairs with a positive denominator that entered the mean.
    pub used: usize,
    /// Pairs excluded for a zero or negative denominator.
    pub skipped: usize,
}

/// Relative saving of `ours` versus `theirs` over paired samples (the
/// paper's "X % less area" style of aggregate). A pair only defines a
/// relative saving when `theirs > 0`; zero/negative denominators are
/// excluded from **both** the sum and the divisor. (The seed's version
/// filtered them from the sum but still divided by the full pair count,
/// silently biasing every reported aggregate toward zero.)
pub fn saving_summary(pairs: &[(f64, f64)]) -> SavingSummary {
    let mut sum = 0.0f64;
    let mut used = 0usize;
    for &(ours, theirs) in pairs {
        if theirs > 0.0 {
            sum += 1.0 - ours / theirs;
            used += 1;
        }
    }
    SavingSummary {
        percent: if used == 0 {
            0.0
        } else {
            100.0 * sum / used as f64
        },
        used,
        skipped: pairs.len() - used,
    }
}

/// Average relative saving of `ours` versus `theirs` over the pairs that
/// actually contribute (see [`saving_summary`]), in percent.
pub fn average_saving(pairs: &[(f64, f64)]) -> f64 {
    saving_summary(pairs).percent
}

/// Wall-clock of a closure, returning the result and elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_saving_basics() {
        assert_eq!(average_saving(&[]), 0.0);
        let s = average_saving(&[(50.0, 100.0), (75.0, 100.0)]);
        assert!((s - 37.5).abs() < 1e-9);
    }

    /// The regression the seed got wrong: a zero-denominator pair must
    /// not drag the mean down. The old implementation returned 25 %
    /// here (sum over 1 contributing pair, divided by 2).
    #[test]
    fn average_saving_skips_zero_denominators_from_the_count() {
        let s = average_saving(&[(50.0, 100.0), (123.0, 0.0)]);
        assert!((s - 50.0).abs() < 1e-9, "got {s}, want 50");
    }

    #[test]
    fn average_saving_skips_negative_denominators_from_the_count() {
        let s = average_saving(&[(50.0, 100.0), (1.0, -2.0), (25.0, 100.0)]);
        assert!((s - 62.5).abs() < 1e-9, "got {s}, want 62.5");
    }

    #[test]
    fn saving_summary_counts_used_and_skipped() {
        let s = saving_summary(&[(50.0, 100.0), (1.0, 0.0), (1.0, -3.0)]);
        assert_eq!((s.used, s.skipped), (1, 2));
        assert!((s.percent - 50.0).abs() < 1e-9);
        let empty = saving_summary(&[]);
        assert_eq!((empty.used, empty.skipped), (0, 0));
        assert_eq!(empty.percent, 0.0);
        let all_skipped = saving_summary(&[(1.0, 0.0), (2.0, -1.0)]);
        assert_eq!((all_skipped.used, all_skipped.skipped), (0, 2));
        assert_eq!(all_skipped.percent, 0.0);
    }

    #[test]
    fn suite_args_parse_and_reject_duplicates() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = parse_suite_args(&args(&["--reorder", "none", "--jobs", "3"])).unwrap();
        assert_eq!(a.engine.reorder_window, 0);
        assert_eq!(reorder_label(&a.engine), "None");
        assert_eq!(a.jobs, 3);
        let d = parse_suite_args(&args(&["--reorder", "none", "--reorder", "window"]));
        assert_eq!(d.unwrap_err(), "duplicate --reorder flag");
        for gone in ["sift", "sift-converge"] {
            assert_eq!(
                parse_suite_args(&args(&["--reorder", gone])).unwrap_err(),
                format!("--reorder {gone}: use none or window")
            );
        }
        let j = parse_suite_args(&args(&["--jobs", "2", "--jobs", "4"]));
        assert_eq!(j.unwrap_err(), "duplicate --jobs flag");
        assert!(parse_suite_args(&args(&["--jobs", "0"])).is_err());
        assert!(parse_suite_args(&args(&["--jobs"])).is_err());
        assert!(parse_suite_args(&args(&["--frobnicate"])).is_err());
        let defaults = parse_suite_args(&[]).unwrap();
        assert_eq!(
            defaults.engine.reorder_window,
            EngineOptions::default().reorder_window
        );
        assert_eq!(reorder_label(&defaults.engine), "Window");
        assert!(defaults.jobs >= 1);
        assert!(!defaults.budget.is_limited());
    }

    #[test]
    fn suite_args_parse_resource_budget_flags() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = parse_suite_args(&args(&[
            "--node-limit",
            "5000",
            "--step-limit",
            "200",
            "--timeout",
            "1.5",
        ]))
        .unwrap();
        assert_eq!(a.budget.node_limit, Some(5000));
        assert_eq!(a.budget.step_limit, Some(200));
        assert_eq!(a.budget.timeout, Some(Duration::from_millis(1500)));
        assert!(a.budget.is_limited());
        let limits = a.budget.limits_now();
        assert_eq!(limits.max_live_nodes, Some(5000));
        assert_eq!(limits.max_steps, Some(200));
        assert!(limits.deadline.is_some());
        // Rejections: duplicates, zero, junk, missing values.
        assert!(parse_suite_args(&args(&["--node-limit", "1", "--node-limit", "2"])).is_err());
        assert!(parse_suite_args(&args(&["--step-limit", "0"])).is_err());
        assert!(parse_suite_args(&args(&["--timeout", "-1"])).is_err());
        assert!(parse_suite_args(&args(&["--timeout", "soon"])).is_err());
        assert!(parse_suite_args(&args(&["--node-limit"])).is_err());
    }

    /// A starvation budget on one benchmark: the row must come back
    /// degraded (not hang, not panic) and still verify — degradation
    /// copies original cones, which cannot change the function.
    #[test]
    fn budgeted_table1_row_degrades_gracefully() {
        let suite = paper_suite();
        let alu2 = suite.iter().find(|b| b.name == "alu2").unwrap();
        let budget = RowBudget {
            step_limit: Some(2),
            ..RowBudget::default()
        };
        let row = table1_row(alu2, &budget.apply(&EngineOptions::default()));
        assert_eq!(row.status, RowStatus::Degraded);
        assert!(row.verified, "degraded rows must still be equivalent");
    }

    /// The retry path, on a budget that aborts cones mid-decomposition
    /// (after their partition build fit): collecting after each abort and
    /// retrying the cone once recovers every cone of bigkey, and the row
    /// equals the unbudgeted one.
    #[test]
    fn retry_recovers_budget_aborted_cones() {
        let suite = paper_suite();
        let bigkey = suite.iter().find(|b| b.name == "bigkey").unwrap();
        let budget = RowBudget {
            node_limit: Some(1000),
            step_limit: Some(300),
            timeout: None,
        };
        let engine = budget.apply(&EngineOptions::default());
        let row = table1_row(bigkey, &engine);
        assert_eq!(row.status, RowStatus::Ok);
        assert!(row.verified);
        let free = table1_row(bigkey, &EngineOptions::default());
        assert_eq!((row.maj, row.pga), (free.maj, free.pga));
        let options = BdsMajOptions {
            engine,
            ..BdsMajOptions::default()
        };
        let retried = bds_maj(&bigkey.network, &options).report().retried_count();
        assert!(retried > 0, "the budget must abort and retry some cone");
    }

    #[test]
    fn table1_row_on_small_benchmark() {
        let suite = paper_suite();
        let alu2 = suite.iter().find(|b| b.name == "alu2").unwrap();
        let row = table1_row(alu2, &EngineOptions::default());
        assert!(row.verified, "decompositions must be equivalent");
        assert!(row.maj.decomposition_total() > 0);
        assert!(row.pga.maj == 0, "BDS-PGA produces no MAJ nodes");
    }

    #[test]
    fn table2_row_on_small_benchmark() {
        let suite = paper_suite();
        let f51m = suite.iter().find(|b| b.name == "f51m").unwrap();
        let row = table2_row(f51m, &Library::cmos22(), &EngineOptions::default());
        assert!(row.verified, "all four flows must be equivalent");
        assert!(row.bds_maj.area > 0.0);
        assert!(row.abc.gate_count > 0);
    }

    /// Determinism across worker counts: the parallel suite run must
    /// produce exactly the rows of the sequential one — same names,
    /// groups, gate counts and verified flags, in the same order.
    #[test]
    fn table1_rows_identical_at_jobs_1_and_4() {
        let engine = EngineOptions::default();
        let seq = run_table1(&engine, 1, RowBudget::default());
        let par = run_table1(&engine, 4, RowBudget::default());
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.group, b.group);
            assert_eq!(a.maj, b.maj, "{}: BDS-MAJ counts differ", a.name);
            assert_eq!(a.pga, b.pga, "{}: BDS-PGA counts differ", a.name);
            assert_eq!(a.verified, b.verified, "{}: verified flag differs", a.name);
        }
    }
}
