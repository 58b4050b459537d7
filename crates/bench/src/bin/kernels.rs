//! Perf-baseline emitter: runs BDD-kernel op storms, the Table I suite and
//! the Table II rows, then writes `BENCH_kernels.json` so the performance
//! trajectory is tracked from PR to PR.
//!
//! Usage: `cargo run --release -p bench --bin kernels [-- --subset N] [--out PATH] [--jobs N]`
//! `--subset N` restricts the suite and Table II portions to the first N
//! benchmarks (CI smoke runs use `--subset 3`). `--jobs N` sets the
//! worker count for the parallel leg of the suite section (default: all
//! cores); the Table II rows always run sequentially, and the suite is
//! always timed sequentially first, so the JSON carries the
//! sequential-vs-parallel wall-clock pair and the speedup is tracked like
//! every other perf number. A suite row that panics fails the run: the
//! bin exits 1 and writes no JSON.

use bdd::Manager;
use bench::{parse_count, parse_once, pool, timed};
use circuits::suite::paper_suite;
use decomp::EngineOptions;
use std::fmt::Write as _;
use techmap::Library;

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

fn run_storm(name: &'static str, f: fn(&mut Manager, u32) -> u64, rounds: u32) -> StormResult {
    let mut m = Manager::new();
    let (ops, elapsed) = timed(|| f(&mut m, rounds));
    let stats = m.cache_stats();
    StormResult {
        name,
        ops,
        micros: elapsed.as_micros(),
        hit_rate: stats.hit_rate(),
        nodes: m.live_nodes(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut subset = None;
    let mut out_path = None;
    let mut jobs = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let parsed = match flag {
            "--subset" => parse_once(&mut subset, flag, it.next(), parse_count::<usize>),
            "--out" => parse_once(&mut out_path, flag, it.next(), |_, v| Ok(v.to_string())),
            "--jobs" => parse_once(&mut jobs, flag, it.next(), parse_count),
            other => Err(format!(
                "unknown argument: {other} (supported: --subset N, --out PATH, --jobs N)"
            )),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
    let out_path = out_path.unwrap_or_else(|| String::from("BENCH_kernels.json"));
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

    // Suite portion: per-benchmark decomposition wall clock (Table I
    // flows), timed sequentially first (the continuity baseline), then
    // through the suite pool when more than one worker is asked
    // for — the sequential/parallel wall-clock pair is the tracked
    // speedup number.
    let suite = paper_suite();
    let take = subset.unwrap_or(suite.len()).min(suite.len());
    let engine = EngineOptions::default();
    let suite_rows = |jobs: usize| {
        pool::run(jobs, take, |i| {
            let (row, t) = timed(|| bench::table1_row(&suite[i], &engine));
            (suite[i].name, t.as_secs_f64(), row)
        })
        .into_iter()
        .zip(suite)
        .map(|(r, b)| {
            r.unwrap_or_else(|msg| {
                eprintln!("{}: task failed: {msg}", b.name);
                std::process::exit(1);
            })
        })
        .collect::<Vec<_>>()
    };
    let (rows, suite_seq_elapsed) = timed(|| suite_rows(1));
    let (par_rows, suite_par_elapsed) = if jobs > 1 {
        timed(|| suite_rows(jobs))
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

    // Table II portion: per-row wall clock of the four flows, each mapped
    // on the 22 nm library and checked (`bench::table2_row`), run
    // sequentially over the same rows. Mapping and the baselines, not the
    // decomposition, take most of this time.
    let lib = Library::cmos22();
    let (table2, table2_elapsed) = timed(|| {
        suite[..take]
            .iter()
            .map(|b| timed(|| bench::table2_row(b, &lib, &engine)))
            .collect::<Vec<_>>()
    });
    for (row, t) in &table2 {
        println!(
            "table2: {:<18} {:>9.3} s  cells maj={} pga={} abc={} dc={} verified={}",
            row.name,
            t.as_secs_f64(),
            row.bds_maj.gate_count,
            row.bds_pga.gate_count,
            row.abc.gate_count,
            row.dc.gate_count,
            row.verified
        );
    }
    println!(
        "table2 wall-clock ({} of {} benchmarks): {:.3} s sequential",
        take,
        suite.len(),
        table2_elapsed.as_secs_f64()
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
    json.push_str("    ]\n  },\n");
    json.push_str("  \"table2\": {\n");
    let _ = write!(
        json,
        "    \"benchmarks_run\": {},\n    \"wall_clock_sec\": {:.4},\n",
        take,
        table2_elapsed.as_secs_f64()
    );
    json.push_str("    \"rows\": [\n");
    for (i, (row, t)) in table2.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"name\": \"{}\", \"sec\": {:.4}, \"bds_maj_cells\": {}, \"bds_pga_cells\": {}, \"abc_cells\": {}, \"dc_cells\": {}, \"verified\": {}}}{}",
            row.name,
            t.as_secs_f64(),
            row.bds_maj.gate_count,
            row.bds_pga.gate_count,
            row.abc.gate_count,
            row.dc.gate_count,
            row.verified,
            if i + 1 < table2.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write(&out_path, json).expect("write BENCH_kernels.json");
    println!("wrote {out_path}");
}
