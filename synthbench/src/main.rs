//! `synthbench`: the end-to-end and per-layer benchmark of the BDS-MAJ
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path synthbench/Cargo.toml -- \
//!     --workload {table1,table2,large_cones,all} --seed N --seconds S --trace {0,1}
//! ```
//!
//! One sequential process per workload: a closed loop with one client, one
//! circuit at a time, no worker threads. Each run sets up (input
//! generation, library, one untimed warm-up pass), then runs whole passes
//! over the circuits, in an order permuted by the seed, until `--seconds`
//! of timed passes and at least 100 latency samples exist; two more set-ups
//! are spread through that time. A latency is the CPU time of one circuit
//! run, scaled by the time of a fixed reference task run right before it
//! (see `reference.rs`), so that load from other guests on a shared host,
//! which slows both alike, cancels out. Every output network is checked
//! against its input by random simulation seeded from `--seed`, and after
//! timing by an exact BDD check where that fits under a node cap. The last
//! line of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `synthbench/README.md`.

mod reference;
mod stats;
mod trace;

use baselines::{abc_flow, dc_flow};
use bdd::{CacheStats, Manager, Ref};
use bdsmaj::{bds_maj, bds_pga, BdsMajOptions, MajConfig, MajDecomposer};
use decomp::{decompose_network, DecomposeResult, EngineOptions, MajorityHook, NoMajority};
use logic::{equiv_exact, equiv_sim, partition, GateCounts, Network, PartitionConfig};
use stats::{cpu_time, geomean, median, peak_rss_mb, tail_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use techmap::{map_network, report, Library};
use trace::{self_times, Tracer, Unit};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest latency samples of a run (so that ten lie beyond the printed
/// p90).
const MIN_SAMPLES: usize = 100;
/// Simulation rounds of 64 vectors per output check, as the table binaries.
const SIM_ROUNDS: usize = 4;
/// Node cap of the exact (global BDD) second check.
const EXACT_NODE_CAP: usize = 1 << 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Table1,
    Table2,
    LargeCones,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Table1, Workload::Table2, Workload::LargeCones];

    fn name(self) -> &'static str {
        match self {
            Workload::Table1 => "table1",
            Workload::Table2 => "table2",
            Workload::LargeCones => "large_cones",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The circuits of the workload, by paper name.
    fn circuits(self) -> Vec<&'static str> {
        let all = circuits::suite::PAPER_BENCHMARKS;
        match self {
            Workload::Table1 | Workload::Table2 => all.to_vec(),
            // Collapsing through 2-fanout signals makes C6288, MAC,
            // Wallace and Rev (1/X) take 1.5 to 10 s each. Without them a
            // pass takes about 0.6 s, so a run holds many samples of each
            // circuit; 13 circuits, an odd count, put the median latency
            // inside one circuit's samples.
            Workload::LargeCones => all
                .into_iter()
                .filter(|n| {
                    !matches!(
                        *n,
                        "C6288" | "MAC 16 bit" | "Wallace 16 bit" | "Rev (1/X) 19 bit"
                    )
                })
                .collect(),
        }
    }

    fn engine(self) -> EngineOptions {
        match self {
            Workload::Table1 | Workload::Table2 => EngineOptions::default(),
            Workload::LargeCones => EngineOptions {
                partition: PartitionConfig {
                    max_support: 12,
                    fanout_limit: 2,
                },
                ..EngineOptions::default()
            },
        }
    }

    /// Whether the workload runs the BDS-PGA flow beside BDS-MAJ.
    fn runs_pga(self) -> bool {
        self != Workload::LargeCones
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: synthbench --workload {table1,table2,large_cones,all} [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => args.seed = value.parse().map_err(|_| format!("--seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0 && s.is_finite())
                    .ok_or_else(|| format!("--seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: use 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".to_string()),
        Some("all") => {}
        Some(w) => {
            args.workload = Some(Workload::parse(w).ok_or_else(|| format!("unknown workload {w}"))?)
        }
    }
    Ok(args)
}

/// SplitMix64 step: the benchmark's own seeded generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Circuit order of one pass: a seeded Fisher–Yates shuffle.
fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut state = seed ^ (pass as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The deterministic result of one circuit run; every run of a circuit must
/// reproduce the first one exactly.
#[derive(Clone, Debug, PartialEq)]
struct Quality {
    maj: GateCounts,
    pga: Option<GateCounts>,
    /// Mapped (area µm², cells, delay ns) of BDS-MAJ, BDS-PGA, ABC and DC.
    mapped: Vec<(f64, usize, f64)>,
}

/// Work counts of a traced circuit run. Deterministic, so two traced runs
/// of one circuit must agree on every field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    maj_calls: u64,
    maj_accepted: u64,
    cache_lookups: u64,
    cache_hits: u64,
    peak_nodes: usize,
    collections: u64,
    reclaimed: u64,
    mapped_cells: usize,
    supernodes: usize,
    cone_nodes_total: usize,
    cone_nodes_max: usize,
    partition_lookups: u64,
    partition_hits: u64,
    reorder_swaps: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.maj_calls += o.maj_calls;
        self.maj_accepted += o.maj_accepted;
        self.cache_lookups += o.cache_lookups;
        self.cache_hits += o.cache_hits;
        self.peak_nodes = self.peak_nodes.max(o.peak_nodes);
        self.collections += o.collections;
        self.reclaimed += o.reclaimed;
        self.mapped_cells += o.mapped_cells;
        self.supernodes += o.supernodes;
        self.cone_nodes_total += o.cone_nodes_total;
        self.cone_nodes_max = self.cone_nodes_max.max(o.cone_nodes_max);
        self.partition_lookups += o.partition_lookups;
        self.partition_hits += o.partition_hits;
        self.reorder_swaps += o.reorder_swaps;
    }
}

/// What one circuit run hands back.
struct RunOut {
    quality: Quality,
    /// The networks checked against the input (mapped ones on `table2`).
    outputs: Vec<Network>,
    counts: Counts,
}

/// The majority hook handed to `decompose_network` in traced runs. It wraps
/// the flow's own hook, times each `try_majority` as a `core.maj` span, and
/// reads the manager's counters after every call.
struct Probe<'a> {
    inner: &'a mut dyn MajorityHook,
    tracer: &'a mut Tracer,
    parent: Option<usize>,
    /// Record `core.maj` spans and call counts (BDS-MAJ, not BDS-PGA).
    is_maj: bool,
    calls: u64,
    accepted: u64,
    last: Option<CacheStats>,
}

impl MajorityHook for Probe<'_> {
    fn try_majority(&mut self, m: &mut Manager, f: Ref) -> Option<[Ref; 3]> {
        let r = if self.is_maj {
            let id = self.tracer.open("core.maj", self.parent);
            let r = self.inner.try_majority(m, f);
            self.tracer.close(id);
            self.calls += 1;
            self.accepted += u64::from(r.is_some());
            r
        } else {
            self.inner.try_majority(m, f)
        };
        self.last = Some(m.cache_stats());
        r
    }
}

/// Everything a circuit run reads.
struct Ctx {
    workload: Workload,
    names: Vec<&'static str>,
    nets: Vec<Network>,
    lib: Library,
    engine: EngineOptions,
    maj: MajConfig,
}

/// Runs BDS-MAJ (`maj` set) or BDS-PGA. Untraced, through the program's own
/// entry points; traced, through `decompose_network` with a [`Probe`],
/// which is exactly the body of `bdsmaj::bds_maj` / `bds_pga`.
fn decompose(
    ctx: &Ctx,
    net: &Network,
    maj: bool,
    tracer: &mut Tracer,
    parent: Option<usize>,
    counts: &mut Counts,
) -> DecomposeResult {
    let span = tracer.open("decomp.decompose_network", parent);
    if span.is_none() {
        return if maj {
            let options = BdsMajOptions {
                engine: ctx.engine.clone(),
                maj: ctx.maj,
            };
            bds_maj(net, &options).result
        } else {
            bds_pga(net, &ctx.engine)
        };
    }
    let mut maj_hook = MajDecomposer::new(ctx.maj);
    let mut no_hook = NoMajority;
    let inner: &mut dyn MajorityHook = if maj { &mut maj_hook } else { &mut no_hook };
    let mut probe = Probe {
        inner,
        tracer,
        parent: span,
        is_maj: maj,
        calls: 0,
        accepted: 0,
        last: None,
    };
    let result = decompose_network(net, &ctx.engine, &mut probe);
    let Probe {
        calls,
        accepted,
        last,
        ..
    } = probe;
    tracer.close(span);
    counts.maj_calls += calls;
    counts.maj_accepted += accepted;
    if let Some(s) = last {
        counts.cache_lookups += s.lookups;
        counts.cache_hits += s.hits;
        counts.peak_nodes = counts.peak_nodes.max(s.peak_nodes);
        counts.collections += s.collections;
        counts.reclaimed += s.reclaimed_total;
    }
    result
}

/// One circuit through the workload's whole flow, every output checked.
fn run_circuit(ctx: &Ctx, i: usize, vec_seed: u64, tracer: &mut Tracer) -> Result<RunOut, String> {
    let net = &ctx.nets[i];
    let root = tracer.open("circuit", None);
    let mut counts = Counts::default();
    let mut flows = vec![(
        "BDS-MAJ",
        decompose(ctx, net, true, tracer, root, &mut counts),
    )];
    if ctx.workload.runs_pga() {
        flows.push((
            "BDS-PGA",
            decompose(ctx, net, false, tracer, root, &mut counts),
        ));
    }
    for (flow, r) in &flows {
        if r.report.is_degraded() {
            return Err(format!(
                "{flow}: {} degraded cones",
                r.report.degraded_count()
            ));
        }
    }
    let quality_of = |k: usize| flows.get(k).map(|(_, r)| r.network.gate_counts());
    let mut quality = Quality {
        maj: quality_of(0).expect("BDS-MAJ runs on every workload"),
        pga: quality_of(1),
        mapped: Vec::new(),
    };
    let mut outputs: Vec<(&str, Network)> =
        flows.into_iter().map(|(f, r)| (f, r.network)).collect();
    if ctx.workload == Workload::Table2 {
        let abc = tracer.time("baselines.abc_flow", root, || abc_flow(net));
        let dc = tracer.time("baselines.dc_flow", root, || dc_flow(net, &ctx.lib).network);
        outputs.push(("ABC", abc));
        outputs.push(("DC", dc));
        for (_, out) in outputs.iter_mut() {
            let (mapped, rep) = tracer.time("techmap.map", root, || {
                let mapped = map_network(out);
                let rep = report(&mapped, &ctx.lib);
                (mapped, rep)
            });
            quality.mapped.push((rep.area, rep.gate_count, rep.delay));
            counts.mapped_cells += rep.gate_count;
            *out = mapped.network;
        }
    }
    for (flow, out) in &outputs {
        tracer
            .time("logic.equiv_sim", root, || {
                equiv_sim(net, out, SIM_ROUNDS, vec_seed)
            })
            .map_err(|m| format!("{flow}: {m}"))?;
    }
    tracer.close(root);
    Ok(RunOut {
        quality,
        outputs: outputs.into_iter().map(|(_, n)| n).collect(),
        counts,
    })
}

/// Replays the partition and the engine's per-cone window reordering into
/// a manager the benchmark owns, so that both layers are timed and counted
/// on their own. Traced passes only, outside the circuit's latency.
fn replay_partition(ctx: &Ctx, i: usize, tracer: &mut Tracer, counts: &mut Counts) {
    let net = &ctx.nets[i];
    let e = &ctx.engine;
    let mut m = Manager::with_capacity(
        (net.len() * 16).clamp(1 << 12, 1 << 20),
        bdd::DEFAULT_CACHE_BITS,
    );
    let part = tracer.time("logic.partition", None, || {
        partition(net, &mut m, e.partition)
    });
    let s = m.cache_stats();
    counts.partition_lookups += s.lookups;
    counts.partition_hits += s.hits;
    counts.supernodes += part.supernodes.len();
    counts.cone_nodes_total += part.total_bdd_size(&m);
    let live = part.supernodes.iter().filter(|sn| !sn.degraded);
    for sn in live.clone() {
        counts.cone_nodes_max = counts.cone_nodes_max.max(m.size(sn.function));
    }
    let swaps_before = m.cache_stats().sift_swaps;
    for sn in live {
        let size = m.size(sn.function);
        if sn.inputs.len() >= 3 && size >= e.reorder_min_size && size <= e.reorder_size_limit {
            tracer.time("bdd.window_reorder", None, || {
                bdd::window_reorder(&mut m, sn.function, e.reorder_window, 4)
            });
        }
    }
    counts.reorder_swaps += m.cache_stats().sift_swaps - swaps_before;
    part.release_roots(&mut m);
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// One circuit run that passed its checks.
#[derive(Clone, Copy)]
struct Sample {
    circuit: usize,
    /// CPU time of the run.
    cpu_ms: f64,
    /// CPU time of the reference task run right before it.
    ref_ms: f64,
}

impl Sample {
    /// The run's latency at the reference speed.
    fn ms(&self) -> f64 {
        reference::scaled_ms(self.cpu_ms, self.ref_ms)
    }
}

/// One timed (or warm-up) pass over every circuit.
#[derive(Default)]
struct PassLog {
    samples: Vec<Sample>,
    /// CPU time (ms) of every reference run of the pass.
    refs: Vec<f64>,
    /// Wall time of every circuit run of the pass, failed ones included.
    wall: Duration,
    counts: Vec<Option<Counts>>,
}

/// State kept across the passes of one run.
struct Run {
    seed: u64,
    /// First result of each circuit; later runs must reproduce it.
    reference: Vec<Option<Quality>>,
    /// First traced counts of each circuit.
    reference_counts: Vec<Option<Counts>>,
    /// Output networks of each circuit's latest passing run.
    last_outputs: Vec<Vec<Network>>,
    /// Reasons the run is not correct, beyond failed circuit runs.
    problems: Vec<String>,
    /// Circuit runs attempted and failed, over every pass.
    attempted: usize,
    failed: usize,
    speed: reference::Reference,
}

/// What the set-ups of a run measured.
#[derive(Default)]
struct SetupLog {
    /// CPU time of each set-up at the reference speed (that of its warm-up
    /// pass), reference runs left out.
    secs: Vec<f64>,
    /// Input-generation CPU time of each set-up.
    build_ms: Vec<f64>,
    /// Pass number of each set-up's warm-up pass.
    passes: Vec<usize>,
}

/// One set-up: input generation, library construction and an untimed
/// warm-up pass over the new inputs. Returns the inputs.
fn set_up(
    w: Workload,
    pass: usize,
    trace: bool,
    tracer: &mut Tracer,
    run: &mut Run,
    log: &mut SetupLog,
) -> Ctx {
    let t0 = cpu_time();
    let names = w.circuits();
    tracer.set_on(trace);
    let nets: Vec<Network> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            tracer.set_unit(Unit { circuit: i, pass });
            tracer
                .time("circuits.benchmark", None, || {
                    circuits::suite::benchmark(name)
                })
                .expect("workload circuits are paper benchmarks")
        })
        .collect();
    tracer.set_on(false);
    log.build_ms.push((cpu_time() - t0).as_secs_f64() * 1e3);
    let ctx = Ctx {
        workload: w,
        names,
        nets,
        lib: Library::cmos22(),
        engine: w.engine(),
        maj: MajConfig::default(),
    };
    let warm_up = run.pass(&ctx, tracer, pass, false);
    let cpu_ms = (cpu_time() - t0).as_secs_f64() * 1e3 - warm_up.refs.iter().sum::<f64>();
    let ref_ms = median(&warm_up.refs).unwrap_or(reference::NOMINAL_MS);
    log.secs.push(reference::scaled_ms(cpu_ms, ref_ms) / 1e3);
    log.passes.push(pass);
    ctx
}

impl Run {
    fn pass(&mut self, ctx: &Ctx, tracer: &mut Tracer, pass: usize, traced: bool) -> PassLog {
        let n = ctx.nets.len();
        let mut log = PassLog {
            counts: vec![None; n],
            ..PassLog::default()
        };
        for i in pass_order(n, self.seed, pass) {
            let mut vs = self.seed ^ ((pass as u64) << 32 | i as u64);
            let vec_seed = splitmix(&mut vs);
            tracer.set_on(traced);
            tracer.set_unit(Unit { circuit: i, pass });
            let mark = tracer.len();
            let ref_ms = self.speed.time().as_secs_f64() * 1e3;
            log.refs.push(ref_ms);
            let t0 = Instant::now();
            let c0 = cpu_time();
            let r = catch_unwind(AssertUnwindSafe(|| run_circuit(ctx, i, vec_seed, tracer)));
            let dc = cpu_time() - c0;
            log.wall += t0.elapsed();
            self.attempted += 1;
            let name = ctx.names[i];
            let r = r.unwrap_or_else(|p| Err(format!("panic: {}", panic_message(&*p))));
            let out = match r {
                Ok(out) => out,
                Err(msg) => {
                    println!("FAIL {name} (pass {pass}): {msg}");
                    tracer.truncate(mark);
                    self.failed += 1;
                    continue;
                }
            };
            match &self.reference[i] {
                None => self.reference[i] = Some(out.quality.clone()),
                Some(q) if *q != out.quality => self.problems.push(format!(
                    "{name}: pass {pass}{} gave {:?}, the first run gave {q:?}",
                    if traced { " (traced)" } else { "" },
                    out.quality
                )),
                Some(_) => {}
            }
            if traced {
                let mut c = out.counts;
                replay_partition(ctx, i, tracer, &mut c);
                match &self.reference_counts[i] {
                    None => self.reference_counts[i] = Some(c),
                    Some(r) if *r != c => self.problems.push(format!(
                        "{name}: traced counts differ between passes: {r:?} vs {c:?}"
                    )),
                    Some(_) => {}
                }
                log.counts[i] = Some(c);
            }
            self.last_outputs[i] = out.outputs;
            log.samples.push(Sample {
                circuit: i,
                cpu_ms: dc.as_secs_f64() * 1e3,
                ref_ms,
            });
        }
        tracer.set_on(false);
        log
    }
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (k, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if k == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<32} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn run_workload(w: Workload, args: &Args) -> ExitCode {
    let names = w.circuits();
    let n = names.len();
    println!(
        "synthbench: workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "closed loop, 1 client, 1 circuit at a time, no worker threads; {n} circuits; available_parallelism {}",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );

    // The first set-up feeds the timed passes. The others repeat it at even
    // steps through the timed time, so that their median does not hang on
    // one phase of a noisy machine.
    let mut tracer = Tracer::new(false);
    let mut run = Run {
        seed: args.seed,
        reference: vec![None; n],
        reference_counts: vec![None; n],
        last_outputs: vec![Vec::new(); n],
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
        speed: reference::Reference::new(),
    };
    let mut setups = SetupLog::default();
    let ctx = set_up(w, 0, args.trace, &mut tracer, &mut run, &mut setups);
    let mut pass = 1;

    // Timed passes. With tracing, untraced and traced passes alternate so
    // that both see the same machine state; the ratio of their throughput
    // is the tracing overhead.
    let mut timed = Duration::ZERO;
    let mut untraced: Vec<PassLog> = Vec::new();
    let mut traced: Vec<(usize, PassLog)> = Vec::new();
    loop {
        let trace_this = args.trace && (untraced.len() + traced.len()) % 2 == 1;
        let log = run.pass(&ctx, &mut tracer, pass, trace_this);
        timed += log.wall;
        if trace_this {
            traced.push((pass, log));
        } else {
            untraced.push(log);
        }
        pass += 1;
        let step = args.seconds / SETUP_REPS as f64;
        while setups.secs.len() < SETUP_REPS
            && timed.as_secs_f64() >= step * setups.secs.len() as f64
        {
            set_up(w, pass, args.trace, &mut tracer, &mut run, &mut setups);
            pass += 1;
        }
        let samples: usize = untraced.iter().map(|l| l.samples.len()).sum();
        let enough = if args.trace {
            traced.len() >= 2 && untraced.len() >= 2
        } else {
            samples >= MIN_SAMPLES
        };
        if enough && timed.as_secs_f64() >= args.seconds {
            break;
        }
        if run.failed == run.attempted {
            break; // nothing passes; more passes add nothing
        }
    }
    while setups.secs.len() < SETUP_REPS {
        set_up(w, pass, args.trace, &mut tracer, &mut run, &mut setups);
        pass += 1;
    }
    let rss = peak_rss_mb();

    // Exact second check of the latest outputs, where the global BDDs fit.
    let t_exact = Instant::now();
    let (mut proven, mut over_cap) = (0, 0);
    for (i, outs) in run.last_outputs.iter().enumerate() {
        for out in outs {
            match equiv_exact(&ctx.nets[i], out, EXACT_NODE_CAP) {
                Some(true) => proven += 1,
                Some(false) => run
                    .problems
                    .push(format!("{}: exact check found a mismatch", names[i])),
                None => over_cap += 1,
            }
        }
    }
    let exact_s = t_exact.elapsed().as_secs_f64();

    // Every timed latency at the reference speed, and each circuit's median.
    let samples: Vec<Sample> = untraced
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let of_circuit = |i: usize, f: fn(&Sample) -> f64| -> Vec<f64> {
        samples.iter().filter(|s| s.circuit == i).map(f).collect()
    };
    let medians: Vec<f64> = (0..n)
        .filter_map(|i| median(&of_circuit(i, Sample::ms)))
        .collect();
    println!("per circuit: median latency over the timed passes, gate counts");
    println!(
        "  {:<18} {:>10} {:>10} {:>4} {:>8} {:>8} {:>11} {:>9}",
        "circuit", "ms", "cpu ms", "n", "MAJ", "PGA", "area um2", "delay ns"
    );
    for i in 0..n {
        let q = run.reference[i].as_ref();
        let scaled = of_circuit(i, Sample::ms);
        println!(
            "  {:<18} {:>10.3} {:>10.3} {:>4} {:>8} {:>8} {:>11} {:>9}",
            names[i],
            median(&scaled).unwrap_or(f64::NAN),
            median(&of_circuit(i, |s| s.cpu_ms)).unwrap_or(f64::NAN),
            scaled.len(),
            q.map_or("-".into(), |q| q.maj.decomposition_total().to_string()),
            q.and_then(|q| q.pga)
                .map_or("-".into(), |g| g.decomposition_total().to_string()),
            q.and_then(|q| q.mapped.first())
                .map_or("-".into(), |m| format!("{:.2}", m.0)),
            q.and_then(|q| q.mapped.first())
                .map_or("-".into(), |m| format!("{:.3}", m.2)),
        );
    }

    let lat: Vec<f64> = samples.iter().map(Sample::ms).collect();
    let refs: Vec<f64> = untraced.iter().flat_map(|l| l.refs.iter().copied()).collect();
    let wall: f64 = untraced.iter().map(|l| l.wall.as_secs_f64()).sum();
    let quality: Vec<&Quality> = run.reference.iter().flatten().collect();
    let sum_of =
        |f: &dyn Fn(&Quality) -> Option<f64>| quality.iter().filter_map(|q| f(q)).sum::<f64>();
    let maj_gates = sum_of(&|q| Some(q.maj.decomposition_total() as f64));
    let (attempted, failed) = (run.attempted, run.failed);
    let fail_rate = failed as f64 / attempted.max(1) as f64;
    let correct = failed == 0 && run.problems.is_empty() && quality.len() == n;

    let mut e2e = vec![
        metric("setup_s", median(&setups.secs).unwrap_or(0.0), "s"),
        metric(
            "circuits_per_s",
            medians.len() as f64 / (medians.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        metric("latency_p50_ms", median(&lat).unwrap_or(0.0), "ms"),
        metric(
            "latency_p90_ms",
            tail_percentile(&lat, 0.9).unwrap_or(f64::NAN),
            "ms",
        ),
        metric("latency_geomean_ms", geomean(&medians).unwrap_or(0.0), "ms"),
        metric("peak_rss_mb", rss.unwrap_or(0.0), "MiB"),
        metric("maj_gates", maj_gates, "count"),
    ];
    e2e[0].note = format!("(median of {SETUP_REPS} set-ups)");
    e2e[2].note = format!("(n={})", lat.len());
    e2e[3].note = format!("(n={})", lat.len());
    let mut extra = vec![metric("fail_rate", fail_rate, "ratio")];
    extra[0].note = format!("({failed} of {attempted} circuit runs failed)");
    if w.runs_pga() {
        extra.push(metric(
            "pga_gates",
            sum_of(&|q| q.pga.map(|g| g.decomposition_total() as f64)),
            "count",
        ));
    }
    if w == Workload::Table2 {
        extra.push(metric(
            "mapped_area_um2",
            sum_of(&|q| q.mapped.first().map(|m| m.0)),
            "um2",
        ));
        let delays: Vec<f64> = quality
            .iter()
            .filter_map(|q| q.mapped.first().map(|m| m.2))
            .collect();
        extra.push(metric(
            "mapped_delay_ns",
            geomean(&delays).unwrap_or(0.0),
            "ns",
        ));
    }
    println!(
        "pass wall times (s): {}",
        untraced
            .iter()
            .map(|l| format!("{:.3}", l.wall.as_secs_f64()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "reference task: median {:.4} ms CPU over {} runs, nominal {} ms; the timings below are scaled to the nominal speed",
        median(&refs).unwrap_or(f64::NAN),
        refs.len(),
        reference::NOMINAL_MS
    );
    println!(
        "end-to-end ({} untraced timed passes, {:.2} s timed):",
        untraced.len(),
        wall
    );
    print_metrics(&e2e);
    print_metrics(&extra);
    println!(
        "exact check: {proven} outputs proven equal, {over_cap} over the {EXACT_NODE_CAP}-node cap ({exact_s:.2} s, untimed)"
    );
    for p in &run.problems {
        println!("PROBLEM {p}");
    }

    let result_metrics = if args.trace {
        layer_metrics(&tracer, &traced, &untraced, &setups, w)
    } else {
        e2e
    };
    println!("{}", json_line(correct, attempted, failed, &result_metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer metrics of the traced passes; also writes the spans out.
fn layer_metrics(
    tracer: &Tracer,
    traced: &[(usize, PassLog)],
    untraced: &[PassLog],
    setups: &SetupLog,
    w: Workload,
) -> Vec<Metric> {
    let spans = tracer.spans();
    let own = self_times(spans);
    // Self time per (layer, pass), and per layer over the whole run.
    let mut by_pass: BTreeMap<(&str, usize), u64> = BTreeMap::new();
    let mut by_layer: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&own) {
        *by_pass.entry((s.name, s.unit.pass)).or_default() += t;
        let e = by_layer.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    // Per layer: median over traced passes of the pass's summed self time.
    let layer_ms = |name: &str| -> f64 {
        let per_pass: Vec<f64> = traced
            .iter()
            .map(|(p, _)| ms(by_pass.get(&(name, *p)).copied().unwrap_or(0)))
            .collect();
        median(&per_pass).unwrap_or(0.0)
    };
    let mut c = Counts::default();
    if let Some((_, first)) = traced.first() {
        for x in first.counts.iter().flatten() {
            c.add(x);
        }
    }
    let cps = |logs: &mut dyn Iterator<Item = &PassLog>| {
        let (k, t) = logs.fold((0usize, 0f64), |(k, t), l| {
            (k + l.samples.len(), t + l.wall.as_secs_f64())
        });
        k as f64 / t
    };
    let traced_cps = cps(&mut traced.iter().map(|(_, l)| l));
    let untraced_cps = cps(&mut untraced.iter());
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut m = vec![
        metric(
            "circuits.build_ms",
            median(&setups.build_ms).unwrap_or(0.0),
            "ms",
        ),
        metric("logic.partition_ms", layer_ms("logic.partition"), "ms"),
        metric("logic.supernodes", c.supernodes as f64, "count"),
        metric("logic.cone_nodes_total", c.cone_nodes_total as f64, "count"),
        metric("logic.cone_nodes_max", c.cone_nodes_max as f64, "count"),
        metric(
            "logic.partition_cache_hit_rate",
            ratio(c.partition_hits, c.partition_lookups),
            "ratio",
        ),
        metric("bdd.reorder_ms", layer_ms("bdd.window_reorder"), "ms"),
        metric("bdd.reorder_swaps", c.reorder_swaps as f64, "count"),
        metric("bdd.cache_lookups", c.cache_lookups as f64, "count"),
        metric(
            "bdd.cache_hit_rate",
            ratio(c.cache_hits, c.cache_lookups),
            "ratio",
        ),
        metric("bdd.peak_nodes", c.peak_nodes as f64, "count"),
        metric("bdd.collections", c.collections as f64, "count"),
        metric("bdd.reclaimed", c.reclaimed as f64, "count"),
        metric("core.maj_ms", layer_ms("core.maj"), "ms"),
        metric("core.maj_calls", c.maj_calls as f64, "count"),
        metric(
            "core.maj_accept_rate",
            ratio(c.maj_accepted, c.maj_calls),
            "ratio",
        ),
        metric("decomp.self_ms", layer_ms("decomp.decompose_network"), "ms"),
        metric("logic.verify_ms", layer_ms("logic.equiv_sim"), "ms"),
        metric("techmap.cells", c.mapped_cells as f64, "count"),
        metric("trace.cps_ratio", traced_cps / untraced_cps, "ratio"),
    ];
    m[19].note = format!("(traced {traced_cps:.2} vs untraced {untraced_cps:.2} circuits/s)");
    let table2_only = [
        metric("techmap.map_ms", layer_ms("techmap.map"), "ms"),
        metric("baselines.abc_ms", layer_ms("baselines.abc_flow"), "ms"),
        metric("baselines.dc_ms", layer_ms("baselines.dc_flow"), "ms"),
    ];
    println!(
        "per layer ({} traced passes, {} spans; times are per pass, median over traced passes):",
        traced.len(),
        spans.len()
    );
    print_metrics(&m);
    if w == Workload::Table2 {
        print_metrics(&table2_only);
    }
    println!(
        "  note: bdd.* counters are read at each majority-hook call, so they miss the kernel work after a flow's last hook call"
    );
    println!(
        "  note: logic.partition_ms and bdd.reorder_ms time a replay of those layers outside the circuit latency"
    );
    // Written once the run ends: every layer's span count and self time,
    // the metrics above, and the spans of the set-up and of the first two
    // traced passes (later passes repeat them; the files stay small).
    let mut layers = String::from("{\"layers\": {");
    for (k, (name, (count, t))) in by_layer.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            layers,
            "{sep}\"{name}\": {{\"spans\": {count}, \"self_ms\": {}}}",
            ms(*t)
        );
    }
    layers.push_str("}, \"metrics\": {");
    for (k, x) in m.iter().chain(&table2_only).enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(layers, "{sep}\"{}\": {}", x.name, x.value);
    }
    layers.push_str("}}\n");
    let first_two: Vec<usize> = traced.iter().take(2).map(|(p, _)| *p).collect();
    let jsonl = trace::to_jsonl(spans, &own, |s| {
        setups.passes.contains(&s.unit.pass) || first_two.contains(&s.unit.pass)
    });
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let spans_file = dir.join(format!("{}.spans.jsonl", w.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&spans_file, jsonl))
        .and_then(|()| std::fs::write(dir.join(format!("{}.layers.json", w.name())), layers));
    match written {
        Ok(()) => println!("spans and per-layer totals written to {}", dir.display()),
        Err(e) => println!("could not write spans: {e}"),
    }
    m
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_workload(w, &args),
        None => {
            // One process per workload, so that each peak RSS is its own.
            let exe = std::env::current_exe().expect("path of the running benchmark");
            let mut ok = true;
            for w in Workload::ALL {
                let status = std::process::Command::new(&exe)
                    .args(["--workload", w.name()])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if args.trace { "1" } else { "0" }])
                    .status();
                ok &= status.is_ok_and(|s| s.success());
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
