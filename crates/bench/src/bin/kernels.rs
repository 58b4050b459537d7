//! Perf-baseline emitter: runs BDD-kernel op storms and the Table I suite,
//! then writes `BENCH_kernels.json` so the kernel's performance trajectory
//! is tracked from PR to PR.
//!
//! Usage: `cargo run --release -p bench --bin kernels [-- --subset N] [--out PATH] [--jobs N]`
//! `--subset N` restricts the suite portion to the first N benchmarks (CI
//! smoke runs use `--subset 3`). `--jobs N` sets the worker count for the
//! parallel leg of the suite section (default: `BENCH_JOBS` or all
//! cores); the suite is always timed sequentially first, so the JSON
//! carries the sequential-vs-parallel wall-clock pair and the speedup is
//! tracked like every other perf number.

use bdd::{GcConfig, Manager, Ref};
use bench::{parse_jobs, pool, timed};
use circuits::suite::paper_suite;
use decomp::EngineOptions;
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
    free_nodes: usize,
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
        free_nodes: stats.free_nodes,
        hit_rate: stats.hit_rate(),
    }
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
        "gc_storm   {:>8} ops in {:>8} µs  ({:.1} Mops/s, cache hit {:.1}% of {} lookups, reclaimed {} in {} collections, arena {} peak {} live {} free {})",
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
        gc.free_nodes
    );

    // Suite portion: per-benchmark decomposition wall clock (Table I
    // flows), timed sequentially first (the continuity baseline), then
    // through the suite pool when more than one worker is asked
    // for — the sequential/parallel wall-clock pair is the tracked
    // speedup number.
    let suite = paper_suite();
    let take = subset.unwrap_or(suite.len()).min(suite.len());
    let engine = EngineOptions::default();
    let row_of = |i: usize| {
        let (row, t) = timed(|| bench::table1_row(&suite[i], &engine));
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
        "  \"gc_storm\": {{\"ops\": {}, \"micros\": {}, \"mops_per_sec\": {:.3}, \"cache_lookups\": {}, \"cache_hit_rate\": {:.4}, \"reclaimed\": {}, \"collections\": {}, \"peak_nodes\": {}, \"final_nodes\": {}, \"live_nodes\": {}, \"free_nodes\": {}}},",
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
        gc.free_nodes
    );
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
