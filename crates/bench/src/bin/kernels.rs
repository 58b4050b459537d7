//! Perf-baseline emitter: runs BDD-kernel op storms and the Table I suite,
//! then writes `BENCH_kernels.json` so the kernel's performance trajectory
//! is tracked from PR to PR.
//!
//! Usage: `cargo run --release -p bench --bin kernels [-- --subset N] [--out PATH] [--jobs N]`
//! `--subset N` restricts the suite portion to the first N benchmarks (CI
//! smoke runs use `--subset 3`). `--jobs N` sets the worker count for the
//! parallel leg of the suite sections (default: `BENCH_JOBS` or all
//! cores); the suite is always timed sequentially first, so the JSON
//! carries the sequential-vs-parallel wall-clock pair and the speedup is
//! tracked like every other perf number.

use bdd::{ConvergeConfig, GcConfig, Manager, Ref, SiftConfig};
use bench::{engine_options_for, parse_jobs, pool, timed, ReorderPolicy};
use circuits::suite::paper_suite;
use logic::{partition, PartitionConfig};
use std::fmt::Write as _;

/// An op storm: builds a dense function family, returning total operations.
fn ite_storm(m: &mut Manager, rounds: u32) -> u64 {
    let vars: Vec<bdd::Ref> = (0..14).map(|i| m.var(i)).collect();
    let mut ops = 0u64;
    let mut acc = m.one();
    for r in 0..rounds {
        for w in vars.windows(3) {
            let t = m.ite(w[0], w[1], w[2]);
            acc = m.ite(t, acc, w[(r as usize) % 3]);
            ops += 2;
        }
    }
    ops
}

fn and_storm(m: &mut Manager, rounds: u32) -> u64 {
    let vars: Vec<bdd::Ref> = (0..14).map(|i| m.var(i)).collect();
    let mut ops = 0u64;
    for r in 0..rounds {
        let mut acc = m.one();
        for (i, &v) in vars.iter().enumerate() {
            let operand = if (i + r as usize).is_multiple_of(2) {
                v
            } else {
                !v
            };
            acc = m.and(acc, operand);
            let alt = m.or(acc, v);
            acc = m.and(acc, alt);
            ops += 3;
        }
    }
    ops
}

fn xor_storm(m: &mut Manager, rounds: u32) -> u64 {
    let vars: Vec<bdd::Ref> = (0..14).map(|i| m.var(i)).collect();
    let mut ops = 0u64;
    let mut acc = m.zero();
    for r in 0..rounds {
        for (i, &v) in vars.iter().enumerate() {
            acc = m.xor(acc, if (i ^ r as usize) & 1 == 0 { v } else { !v });
            ops += 1;
        }
        let parity = m.xor_all(vars.iter().copied());
        acc = m.xor(acc, parity);
        ops += vars.len() as u64;
    }
    ops
}

struct StormResult {
    name: &'static str,
    ops: u64,
    micros: u128,
    hit_rate: f64,
    nodes: usize,
}

struct GcStormResult {
    ops: u64,
    micros: u128,
    lookups: u64,
    reclaimed: u64,
    collections: u64,
    peak_nodes: usize,
    final_nodes: usize,
    live_nodes: usize,
    garbage_estimate: usize,
    hit_rate: f64,
}

/// The reclamation storm: a protected 8-accumulator working set over 24
/// variables with heavy churn and threshold-triggered collections — the
/// memory pattern of a long decomposition flow. Without the collector the
/// arena would grow monotonically with `ops`; with it, `final_nodes` and
/// `peak_nodes` stay within a constant factor of `live_nodes`.
// bdslint: allow(protect-release) -- the vars/accs roots live for the
// whole storm and die with the manager at the end of this function
fn gc_storm(rounds: u32) -> GcStormResult {
    let mut m = Manager::new();
    m.set_gc_config(GcConfig {
        dead_fraction: 0.25,
        min_nodes: 1 << 12,
    });
    let vars: Vec<Ref> = (0..24)
        .map(|i| {
            let v = m.var(i);
            m.protect(v)
        })
        .collect();
    let mut accs: Vec<Ref> = vars.iter().take(8).map(|&v| m.protect(v)).collect();
    let mut ops = 0u64;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let ((), elapsed) = timed(|| {
        for _ in 0..rounds {
            for i in 0..accs.len() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let a = accs[i];
                let b = accs[(x as usize >> 8) % accs.len()];
                let v = vars[(x as usize >> 16) % vars.len()];
                let r = match x % 5 {
                    0 => m.and(a, v),
                    1 => m.or(a, v),
                    2 => m.xor(a, v),
                    3 => m.ite(v, a, b),
                    _ => m.ite(a, v, b),
                };
                ops += 1;
                let r = if m.size(r) > 500 { v } else { r };
                m.release(accs[i]);
                accs[i] = m.protect(r);
                m.maybe_collect();
            }
        }
    });
    let stats = m.cache_stats();
    GcStormResult {
        ops,
        micros: elapsed.as_micros(),
        lookups: stats.lookups,
        reclaimed: stats.reclaimed_total,
        collections: stats.collections,
        peak_nodes: stats.peak_nodes,
        final_nodes: m.num_nodes(),
        live_nodes: m.live_nodes(),
        garbage_estimate: stats.garbage_estimate,
        hit_rate: stats.hit_rate(),
    }
}

struct SiftStormResult {
    nodes_before: usize,
    nodes_after: usize,
    swaps: usize,
    vars_sifted: usize,
    groups: usize,
    micros: u128,
    /// The same storm sifted to a fixpoint instead of one pass.
    converge_nodes: usize,
    converge_swaps: usize,
    converge_passes: usize,
    converge_micros: u128,
}

/// The reordering storm: an order-hostile sum of pair-products
/// (`x0·x8 + x1·x9 + ... + x7·x15`), exponential under the interleaved
/// identity order and linear once sifting parks each pair adjacently.
/// Run twice from the same start order: one default sift pass (the
/// tracked wall-clock — the O(1) swap deltas show up here) and one
/// converging sift.
// bdslint: allow(protect-release) -- the storm function stays rooted
// across both sift passes and dies with its manager
fn sift_storm() -> SiftStormResult {
    let build = |m: &mut Manager| {
        let mut f = m.zero();
        for i in 0..8 {
            let a = m.var(i);
            let b = m.var(i + 8);
            let ab = m.and(a, b);
            f = m.or(f, ab);
        }
        m.protect(f)
    };
    let mut m = Manager::new();
    let f = build(&mut m);
    let nodes_before = m.size(f);
    let (report, elapsed) = timed(|| m.sift(&SiftConfig::default()));
    let nodes_after = m.size(f);
    let mut mc = Manager::new();
    let fc = build(&mut mc);
    let (creport, celapsed) = timed(|| mc.sift_to_fixpoint(&ConvergeConfig::default()));
    SiftStormResult {
        nodes_before,
        nodes_after,
        swaps: report.swaps,
        vars_sifted: report.vars_sifted,
        groups: report.groups,
        micros: elapsed.as_micros(),
        converge_nodes: mc.size(fc),
        converge_swaps: creport.swaps,
        converge_passes: creport.passes,
        converge_micros: celapsed.as_micros(),
    }
}

struct SiftBenchRow {
    name: &'static str,
    /// Summed supernode BDD sizes under the partition's static order.
    static_nodes: usize,
    /// The same sum after one global sift pass over the protected cones.
    sifted_nodes: usize,
    swaps: usize,
    /// Rooted (shared-DAG) size after the single pass — the quantity
    /// sifting actually minimizes; the cone *sum* above double-counts
    /// shared nodes and is not monotone under reordering.
    sifted_rooted: usize,
    /// Wall-clock of the single sift pass (the headline O(1)-delta
    /// number; compare against the committed baseline).
    sift_sec: f64,
    /// The cone sum after continuing the same manager to a fixpoint.
    converged_nodes: usize,
    /// Rooted size at the fixpoint. The fixpoint runs as a continuation
    /// of the single pass and every pass is monotone, so this is ≤
    /// `sifted_rooted` on every benchmark by construction.
    converged_rooted: usize,
    converge_swaps: usize,
    converge_passes: usize,
    converge_sec: f64,
    /// Whether the full Table I flow under `--reorder sift` passed the
    /// random-simulation oracle for both engines.
    verified: bool,
    /// The same oracle check under `--reorder sift-converge`.
    converge_verified: bool,
    sec: f64,
}

/// Per-benchmark static-vs-sift-vs-converged cone sizes plus
/// oracle-checked Table I runs under the sift and sift-converge policies.
/// Everything here is **timed and sequential** — `sift_sec`,
/// `converge_sec` and `flow_sec` are tracked perf baselines, and
/// wall-clock measured under multi-core contention would not be
/// comparable across PRs (the suite section above is where the pool's
/// speedup is measured).
fn sift_suite(take: usize) -> Vec<SiftBenchRow> {
    let suite = paper_suite();
    let engine = engine_options_for(ReorderPolicy::Sift);
    let engine_converge = engine_options_for(ReorderPolicy::SiftConverge);
    let cones = pool::run(1, take.min(suite.len()), |i| {
        let b = &suite[i];
        let mut m = Manager::with_capacity(
            (b.network.len() * 16).clamp(1 << 12, 1 << 20),
            bdd::DEFAULT_CACHE_BITS,
        );
        let part = partition(&b.network, &mut m, PartitionConfig::default());
        let static_nodes = part.total_bdd_size(&m);
        let (report, sift_t) = timed(|| m.sift(&SiftConfig::default()));
        let sifted_nodes = part.total_bdd_size(&m);
        // Continue the same manager to a fixpoint: the first converge
        // pass starts from the single-pass order and every pass is
        // monotone, so the converged rooted size can never lose to the
        // single pass.
        let (creport, converge_t) = timed(|| m.sift_to_fixpoint(&ConvergeConfig::default()));
        let converged_nodes = part.total_bdd_size(&m);
        part.release_roots(&mut m);
        (
            static_nodes,
            sifted_nodes,
            report.swaps,
            report.final_size,
            sift_t.as_secs_f64(),
            converged_nodes,
            creport.final_size,
            creport.swaps,
            creport.passes,
            converge_t.as_secs_f64(),
        )
    });
    cones
        .into_iter()
        .enumerate()
        .map(|(i, cone)| {
            let b = &suite[i];
            let (row, t) = timed(|| bench::table1_row_with(b, &engine));
            let converge_row = bench::table1_row_with(b, &engine_converge);
            SiftBenchRow {
                name: b.name,
                static_nodes: cone.0,
                sifted_nodes: cone.1,
                swaps: cone.2,
                sifted_rooted: cone.3,
                sift_sec: cone.4,
                converged_nodes: cone.5,
                converged_rooted: cone.6,
                converge_swaps: cone.7,
                converge_passes: cone.8,
                converge_sec: cone.9,
                verified: row.verified,
                converge_verified: converge_row.verified,
                sec: t.as_secs_f64(),
            }
        })
        .collect()
}

fn run_storm(name: &'static str, f: fn(&mut Manager, u32) -> u64, rounds: u32) -> StormResult {
    let mut m = Manager::new();
    let (ops, elapsed) = timed(|| f(&mut m, rounds));
    let stats = m.cache_stats();
    StormResult {
        name,
        ops,
        micros: elapsed.as_micros(),
        hit_rate: stats.hit_rate(),
        nodes: m.num_nodes(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut subset: Option<usize> = None;
    let mut out_path = String::from("BENCH_kernels.json");
    let mut jobs: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--subset" => {
                match args.get(i + 1).map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) => subset = Some(n),
                    _ => {
                        eprintln!("--subset requires a number of benchmarks");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--out" => {
                match args.get(i + 1) {
                    Some(path) => out_path = path.clone(),
                    None => {
                        eprintln!("--out requires a file path");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--jobs" => {
                if jobs.is_some() {
                    eprintln!("duplicate --jobs flag");
                    std::process::exit(2);
                }
                match args.get(i + 1).map(|v| parse_jobs(v)) {
                    Some(Ok(n)) => jobs = Some(n),
                    Some(Err(msg)) => {
                        eprintln!("{msg}");
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("--jobs requires a worker count");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!(
                    "unknown argument: {other} (supported: --subset N, --out PATH, --jobs N)"
                );
                std::process::exit(2);
            }
        }
    }
    let jobs = jobs.unwrap_or_else(pool::default_jobs);

    let storms = [
        run_storm("ite_storm", ite_storm, 600),
        run_storm("and_storm", and_storm, 600),
        run_storm("xor_storm", xor_storm, 600),
    ];
    for s in &storms {
        println!(
            "{:<10} {:>8} ops in {:>8} µs  ({:.1} Mops/s, cache hit {:.1}%, {} nodes)",
            s.name,
            s.ops,
            s.micros,
            s.ops as f64 / s.micros.max(1) as f64,
            100.0 * s.hit_rate,
            s.nodes
        );
    }

    let gc = gc_storm(3_125);
    println!(
        "gc_storm   {:>8} ops in {:>8} µs  ({:.1} Mops/s, cache hit {:.1}% of {} lookups, reclaimed {} in {} collections, arena {} peak {} live {} garbage-est {})",
        gc.ops,
        gc.micros,
        gc.ops as f64 / gc.micros.max(1) as f64,
        100.0 * gc.hit_rate,
        gc.lookups,
        gc.reclaimed,
        gc.collections,
        gc.final_nodes,
        gc.peak_nodes,
        gc.live_nodes,
        gc.garbage_estimate
    );

    let sift = sift_storm();
    println!(
        "sift_storm {:>4} -> {:>4} nodes in {:>8} µs  ({} adjacent swaps over {} vars, {} symmetric groups); converge {:>4} nodes in {:>8} µs ({} swaps, {} passes)",
        sift.nodes_before,
        sift.nodes_after,
        sift.micros,
        sift.swaps,
        sift.vars_sifted,
        sift.groups,
        sift.converge_nodes,
        sift.converge_micros,
        sift.converge_swaps,
        sift.converge_passes
    );

    // Suite portion: per-benchmark decomposition wall clock (Table I
    // flows), timed sequentially first (the continuity baseline), then
    // through the suite pool when more than one worker is asked
    // for — the sequential/parallel wall-clock pair is the tracked
    // speedup number.
    let suite = paper_suite();
    let take = subset.unwrap_or(suite.len()).min(suite.len());
    let row_of = |i: usize| {
        let (row, t) = timed(|| bench::table1_row(&suite[i]));
        (suite[i].name, t.as_secs_f64(), row)
    };
    let (rows, suite_seq_elapsed) = timed(|| pool::run(1, take, row_of));
    let (par_rows, suite_par_elapsed) = if jobs > 1 {
        let (r, t) = timed(|| pool::run(jobs, take, row_of));
        (r, t)
    } else {
        (Vec::new(), suite_seq_elapsed)
    };
    for (p, s) in par_rows.iter().zip(&rows) {
        assert_eq!(
            (p.0, p.2.maj, p.2.pga, p.2.verified),
            (s.0, s.2.maj, s.2.pga, s.2.verified),
            "parallel suite rows must match the sequential run"
        );
    }
    for (name, secs, row) in &rows {
        println!(
            "suite: {:<18} {:>9.3} s  maj_total={} pga_total={} verified={} status={}",
            name,
            secs,
            row.maj.decomposition_total(),
            row.pga.decomposition_total(),
            row.verified,
            row.status.as_str()
        );
    }
    let speedup = suite_seq_elapsed.as_secs_f64() / suite_par_elapsed.as_secs_f64().max(1e-9);
    println!(
        "suite wall-clock ({} of {} benchmarks): {:.3} s sequential",
        take,
        suite.len(),
        suite_seq_elapsed.as_secs_f64()
    );
    println!(
        "suite wall-clock ({} of {} benchmarks): {:.3} s at jobs={} (speedup {:.2}x)",
        take,
        suite.len(),
        suite_par_elapsed.as_secs_f64(),
        jobs,
        speedup
    );

    // Sift section: per-benchmark cone sizes under the static partition
    // order vs. after sifting, plus the oracle-checked Table I flow under
    // `--reorder sift`, fanned out over the pool.
    let sift_rows = sift_suite(take);
    let mut reduced = 0usize;
    let mut converge_no_worse = 0usize;
    for r in &sift_rows {
        if r.sifted_nodes < r.static_nodes {
            reduced += 1;
        }
        if r.converged_rooted <= r.sifted_rooted {
            converge_no_worse += 1;
        }
        println!(
            "sift:  {:<18} cones {:>5} -> {:>5} nodes / rooted {:>5} ({} swaps, {:.4} s) converged {:>5} / rooted {:>5} ({} swaps, {} passes, {:.4} s)  flow {:>7.3} s verified={}/{}",
            r.name,
            r.static_nodes,
            r.sifted_nodes,
            r.sifted_rooted,
            r.swaps,
            r.sift_sec,
            r.converged_nodes,
            r.converged_rooted,
            r.converge_swaps,
            r.converge_passes,
            r.converge_sec,
            r.sec,
            r.verified,
            r.converge_verified
        );
    }
    println!(
        "sift reduced cone node counts on {reduced} of {} benchmarks; converged rooted size <= single-pass on {converge_no_worse}",
        sift_rows.len()
    );

    // Hand-rolled JSON writer (the workspace is dependency-free offline).
    let mut json = String::new();
    json.push_str("{\n  \"storms\": [\n");
    for (i, s) in storms.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ops\": {}, \"micros\": {}, \"mops_per_sec\": {:.3}, \"cache_hit_rate\": {:.4}, \"nodes\": {}}}{}",
            s.name,
            s.ops,
            s.micros,
            s.ops as f64 / s.micros.max(1) as f64,
            s.hit_rate,
            s.nodes,
            if i + 1 < storms.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"gc_storm\": {{\"ops\": {}, \"micros\": {}, \"mops_per_sec\": {:.3}, \"cache_lookups\": {}, \"cache_hit_rate\": {:.4}, \"reclaimed\": {}, \"collections\": {}, \"peak_nodes\": {}, \"final_nodes\": {}, \"live_nodes\": {}, \"garbage_estimate\": {}}},",
        gc.ops,
        gc.micros,
        gc.ops as f64 / gc.micros.max(1) as f64,
        gc.lookups,
        gc.hit_rate,
        gc.reclaimed,
        gc.collections,
        gc.peak_nodes,
        gc.final_nodes,
        gc.live_nodes,
        gc.garbage_estimate
    );
    let _ = writeln!(
        json,
        "  \"sift_storm\": {{\"nodes_before\": {}, \"nodes_after\": {}, \"swaps\": {}, \"vars_sifted\": {}, \"groups\": {}, \"micros\": {}, \"converge_nodes\": {}, \"converge_swaps\": {}, \"converge_passes\": {}, \"converge_micros\": {}}},",
        sift.nodes_before,
        sift.nodes_after,
        sift.swaps,
        sift.vars_sifted,
        sift.groups,
        sift.micros,
        sift.converge_nodes,
        sift.converge_swaps,
        sift.converge_passes,
        sift.converge_micros
    );
    json.push_str("  \"sift_suite\": {\n");
    let _ = writeln!(json, "    \"reduced_benchmarks\": {reduced},");
    let _ = writeln!(
        json,
        "    \"converge_no_worse_than_single_pass\": {converge_no_worse},"
    );
    json.push_str("    \"rows\": [\n");
    for (i, r) in sift_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"name\": \"{}\", \"static_nodes\": {}, \"sifted_nodes\": {}, \"sifted_rooted\": {}, \"swaps\": {}, \"sift_sec\": {:.4}, \"converged_nodes\": {}, \"converged_rooted\": {}, \"converge_swaps\": {}, \"converge_passes\": {}, \"converge_sec\": {:.4}, \"flow_sec\": {:.4}, \"verified\": {}, \"converge_verified\": {}}}{}",
            r.name,
            r.static_nodes,
            r.sifted_nodes,
            r.sifted_rooted,
            r.swaps,
            r.sift_sec,
            r.converged_nodes,
            r.converged_rooted,
            r.converge_swaps,
            r.converge_passes,
            r.converge_sec,
            r.sec,
            r.verified,
            r.converge_verified,
            if i + 1 < sift_rows.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  },\n");
    json.push_str("  \"suite\": {\n");
    let _ = write!(
        json,
        "    \"benchmarks_run\": {},\n    \"benchmarks_total\": {},\n    \"wall_clock_sec\": {:.4},\n    \"wall_clock_par_sec\": {:.4},\n    \"jobs\": {},\n    \"cores\": {},\n    \"speedup\": {:.3},\n",
        take,
        suite.len(),
        suite_seq_elapsed.as_secs_f64(),
        suite_par_elapsed.as_secs_f64(),
        jobs,
        // Available parallelism of the machine that produced the file, so
        // a sub-1.0 speedup on a single-core container reads as expected
        // behaviour rather than a regression.
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        speedup
    );
    json.push_str("    \"rows\": [\n");
    for (i, (name, secs, row)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"name\": \"{}\", \"sec\": {:.4}, \"maj_total\": {}, \"pga_total\": {}, \"verified\": {}, \"status\": \"{}\"}}{}",
            name,
            secs,
            row.maj.decomposition_total(),
            row.pga.decomposition_total(),
            row.verified,
            row.status.as_str(),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_kernels.json");
    println!("wrote {out_path}");
}
