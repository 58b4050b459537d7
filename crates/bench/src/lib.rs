//! Shared harness code for the table-reproducing binaries and the
//! kernels perf bin: runs every flow of the paper on the 17-benchmark
//! suite and aggregates the Table I / Table II rows.
//!
//! Suite runs fan out over the hand-rolled pool in [`pool`]: each
//! benchmark row is an independent task (every flow run already builds
//! its own `bdd::Manager`, which is deliberately not `Sync`), and
//! results are placed by task index, so row order and content (names,
//! counts, verified flags) are identical to a sequential run — only
//! measured-runtime cells vary, as they do between any two runs of the
//! same binary. The worker count comes from the shared `--jobs N` flag
//! (default: the machine's available parallelism); `--jobs 1` is the
//! exact sequential path. Parallelism stops at the row: a single cone is
//! always built by one thread.
//!
//! The table binaries and `bdsmaj` parse their shared flags through
//! [`parse_suite_args_with`] and run every task through [`pool::run`].

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

/// The exit code a table binary ends with, from its rows' `(status,
/// verified)` pairs: 1 when a row that produced a result failed its
/// equivalence check or a row failed, else 3 when a row degraded under
/// the resource budget, else 0. A NOTE on stderr counts the degraded
/// and failed rows, and a WARNING the unverified ones.
pub fn table_exit_code(rows: impl IntoIterator<Item = (RowStatus, bool)>) -> u8 {
    let (mut degraded, mut failed, mut unverified) = (0, 0, 0);
    for (status, verified) in rows {
        match status {
            RowStatus::Ok => {}
            RowStatus::Degraded => degraded += 1,
            RowStatus::Limit => failed += 1,
        }
        // Verification only applies to rows that produced a result.
        if status != RowStatus::Limit && !verified {
            unverified += 1;
        }
    }
    if degraded + failed > 0 {
        eprintln!("NOTE: {degraded} degraded and {failed} failed rows under the resource budget");
    }
    if unverified > 0 {
        eprintln!("WARNING: {unverified} rows failed equivalence checking");
    }
    if unverified + failed > 0 {
        1
    } else if degraded > 0 {
        3
    } else {
        0
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

/// The shared command-line knobs of the table binaries and `bdsmaj`.
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
  --jobs N                      suite worker threads (default: all cores; 1 = sequential)
  --node-limit N                live-BDD-node ceiling per benchmark (graceful per-cone degradation)
  --step-limit N                kernel recursion-step ceiling per cone
  --timeout SECS                wall-clock allowance per benchmark row (fractions allowed)
--reorder and the budget flags do not reach the DC flow (the Design Compiler
column of table2, bdsmaj --flow dc): it builds its BDS candidates under
default options with no budget.";

/// Parses a `--reorder` value into the engine's `reorder_window`: `none`
/// turns per-cone reordering off (`0`), `window` keeps the default
/// window.
fn parse_reorder(flag: &str, v: &str) -> Result<usize, String> {
    match v {
        "none" => Ok(0),
        "window" => Ok(EngineOptions::default().reorder_window),
        _ => Err(format!("{flag} {v}: use none or window")),
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

/// Parses a positive integer value of `flag` (`--jobs`, `--node-limit`,
/// `--step-limit`).
pub fn parse_count<T>(flag: &str, v: &str) -> Result<T, String>
where
    T: std::str::FromStr + From<u8> + PartialOrd,
{
    match v.trim().parse::<T>() {
        Ok(n) if n >= T::from(1) => Ok(n),
        _ => Err(format!("{flag} {v}: need a positive integer")),
    }
}

/// Parses a `--timeout` value: positive seconds, fractions allowed.
fn parse_timeout(flag: &str, v: &str) -> Result<Duration, String> {
    match v.trim().parse::<f64>() {
        Ok(secs) if secs > 0.0 && secs.is_finite() => Ok(Duration::from_secs_f64(secs)),
        _ => Err(format!("{flag} {v}: need a positive number of seconds")),
    }
}

/// Records the value of a flag that may appear once: `value` is the
/// argument after `flag`, checked by `parse(flag, value)` into `slot`. A
/// second occurrence of the flag or a missing value is an error.
pub fn parse_once<T>(
    slot: &mut Option<T>,
    flag: &str,
    value: Option<&String>,
    parse: impl FnOnce(&str, &str) -> Result<T, String>,
) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("duplicate {flag} flag"));
    }
    let v = value.ok_or_else(|| format!("{flag} requires a value"))?;
    *slot = Some(parse(flag, v)?);
    Ok(())
}

/// Parses the shared suite flags (`--reorder`, `--jobs`, `--node-limit`,
/// `--step-limit`, `--timeout`) from an argv slice (without the program
/// name) and hands every other argument to `other`, with the iterator
/// over the arguments after it for any value it takes. Each shared flag
/// may appear once.
pub fn parse_suite_args_with(
    args: &[String],
    mut other: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> Result<(), String>,
) -> Result<SuiteArgs, String> {
    let mut reorder_window = None;
    let mut jobs = None;
    let mut budget = RowBudget::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        match flag {
            "--reorder" => parse_once(&mut reorder_window, flag, it.next(), parse_reorder)?,
            "--jobs" => parse_once(&mut jobs, flag, it.next(), parse_count)?,
            "--node-limit" => parse_once(&mut budget.node_limit, flag, it.next(), parse_count)?,
            "--step-limit" => parse_once(&mut budget.step_limit, flag, it.next(), parse_count)?,
            "--timeout" => parse_once(&mut budget.timeout, flag, it.next(), parse_timeout)?,
            _ => other(flag, &mut it)?,
        }
    }
    let defaults = EngineOptions::default();
    Ok(SuiteArgs {
        engine: EngineOptions {
            reorder_window: reorder_window.unwrap_or(defaults.reorder_window),
            ..defaults
        },
        jobs: jobs.unwrap_or_else(pool::default_jobs),
        budget,
    })
}

/// Parses the table binaries' command line: the shared suite flags and
/// nothing else.
pub fn parse_suite_args(args: &[String]) -> Result<SuiteArgs, String> {
    parse_suite_args_with(args, |arg, _| Err(format!("unknown argument: {arg}")))
}

/// Shared argv parsing for the table binaries: exits with a usage
/// message on anything [`parse_suite_args`] rejects.
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
/// workers. Rows come back in suite order at any `jobs`; a row whose
/// task panics comes back as a `Limit` placeholder.
pub fn run_table1(engine: &EngineOptions, jobs: usize, budget: RowBudget) -> Vec<Table1Row> {
    run_rows(engine, jobs, budget, table1_row, Table1Row::failed)
}

/// The suite row loop behind [`run_table1`] and [`run_table2`]: runs
/// `row` on every suite benchmark under `engine` with `budget` installed
/// at row start, on `jobs` workers. Rows come back in suite order
/// regardless of `jobs`; `jobs == 1` is the exact sequential path. Each
/// task is panic-isolated: a benchmark that blows the budget comes back
/// as a `Degraded` row; one that dies entirely comes back as a `Limit`
/// placeholder row (`failed`) instead of killing the batch.
fn run_rows<R: Send>(
    engine: &EngineOptions,
    jobs: usize,
    budget: RowBudget,
    row: impl Fn(&Benchmark, &EngineOptions) -> R + Sync,
    failed: fn(&Benchmark) -> R,
) -> Vec<R> {
    let suite = paper_suite();
    pool::run(jobs, suite.len(), |i| row(&suite[i], &budget.apply(engine)))
        .into_iter()
        .zip(suite)
        .map(|(r, bench)| {
            r.unwrap_or_else(|msg| {
                eprintln!("{}: task failed: {msg}", bench.name);
                failed(bench)
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
/// workers, with the row order and failed rows of [`run_table1`].
pub fn run_table2(
    lib: &Library,
    engine: &EngineOptions,
    jobs: usize,
    budget: RowBudget,
) -> Vec<Table2Row> {
    run_rows(
        engine,
        jobs,
        budget,
        |bench, engine| table2_row(bench, lib, engine),
        Table2Row::failed,
    )
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

/// Average relative saving of `ours` versus `theirs` over paired samples
/// (the paper's "X % less area" style of aggregate), in percent. A pair
/// only defines a relative saving when `theirs > 0`; zero/negative
/// denominators are excluded from **both** the sum and the divisor, so
/// they cannot bias the mean toward zero. Returns `0.0` when no pair
/// contributes.
pub fn average_saving(pairs: &[(f64, f64)]) -> f64 {
    let mut sum = 0.0f64;
    let mut used = 0usize;
    for &(ours, theirs) in pairs {
        if theirs > 0.0 {
            sum += 1.0 - ours / theirs;
            used += 1;
        }
    }
    if used == 0 {
        0.0
    } else {
        100.0 * sum / used as f64
    }
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

    /// A failed or unverified row exits 1, else a degraded one exits 3; a
    /// failed row's verified flag counts for nothing.
    #[test]
    fn table_exit_codes() {
        use RowStatus::{Degraded, Limit, Ok};
        assert_eq!(table_exit_code([]), 0);
        assert_eq!(table_exit_code([(Ok, true), (Ok, true)]), 0);
        assert_eq!(table_exit_code([(Ok, true), (Degraded, true)]), 3);
        assert_eq!(table_exit_code([(Degraded, true), (Limit, false)]), 1);
        assert_eq!(table_exit_code([(Degraded, false)]), 1);
        assert_eq!(table_exit_code([(Ok, false), (Degraded, true)]), 1);
    }

    #[test]
    fn average_saving_basics() {
        assert_eq!(average_saving(&[]), 0.0);
        assert_eq!(average_saving(&[(1.0, 0.0), (2.0, -1.0)]), 0.0);
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
    /// (after their rebuild fit): retrying an aborted cone once with a
    /// fresh step count recovers every cone of dalu, and the row equals
    /// the unbudgeted one. The aborts land on the row's BDS-PGA side.
    #[test]
    fn retry_recovers_budget_aborted_cones() {
        let suite = paper_suite();
        let dalu = suite.iter().find(|b| b.name == "dalu").unwrap();
        let budget = RowBudget {
            node_limit: Some(1000),
            step_limit: Some(300),
            timeout: None,
        };
        let engine = budget.apply(&EngineOptions::default());
        let row = table1_row(dalu, &engine);
        assert_eq!(row.status, RowStatus::Ok);
        assert!(row.verified);
        let free = table1_row(dalu, &EngineOptions::default());
        assert_eq!((row.maj, row.pga), (free.maj, free.pga));
        let options = BdsMajOptions {
            engine: engine.clone(),
            ..BdsMajOptions::default()
        };
        let retried = bds_maj(&dalu.network, &options).report().retried_count()
            + bds_pga(&dalu.network, &engine).report.retried_count();
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
