//! Regenerates **Table I** of the paper: decomposition node counts
//! (AND / OR / XOR / XNOR / MAJ / total) and runtime, BDS-MAJ vs BDS-PGA,
//! over the 17-benchmark suite, followed by the paper's headline
//! aggregates (average node reduction, MAJ node share, runtime delta).
//!
//! `--jobs N` fans the 17 rows out over the suite pool, one manager per
//! row. Row order and content (names, node counts, verified flags) are
//! identical at every worker count; only the measured-runtime cells
//! vary, as they do between any two runs.

use bench::{average_saving, print_rows_grouped, reorder_label, run_table1, suite_args, RowStatus};

fn main() {
    let args = suite_args();
    let reorder = reorder_label(&args.engine);
    println!("TABLE I: Decomposition Results: BDS-MAJ vs. BDS-PGA ({reorder} reordering)");
    println!(
        "{:<18} | {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>8} | {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>8} | eq",
        "Benchmark", "AND", "OR", "XOR", "XNOR", "MAJ", "Total", "sec",
        "AND", "OR", "XOR", "XNOR", "MAJ", "Total", "sec"
    );
    println!("{:-<18}-+-{:-<44}-+-{:-<44}-+---", "", "", "");
    let rows = run_table1(&args.engine, args.jobs, args.budget);
    let mut node_pairs = Vec::new();
    let mut runtime_pairs = Vec::new();
    let mut maj_nodes = 0usize;
    let mut total_nodes = 0usize;
    let mut sums = [0usize; 14];
    print_rows_grouped(
        &rows,
        |row| row.group,
        |row| {
            let m = &row.maj;
            let p = &row.pga;
            println!(
            "{:<18} | {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>8.2} | {:>5} {:>5} {:>5} {:>5} {:>5} {:>6} {:>8.2} | {}",
            row.name,
            m.and, m.or, m.xor, m.xnor, m.maj, m.decomposition_total(),
            row.maj_runtime.as_secs_f64(),
            p.and, p.or, p.xor, p.xnor, p.maj, p.decomposition_total(),
            row.pga_runtime.as_secs_f64(),
            if row.verified { "ok" } else { "FAIL" },
        );
            if row.status != RowStatus::Ok {
                println!("{:<18} | status: {}", "", row.status.as_str());
            }
            // Aggregates only count fully decomposed rows: a degraded or
            // failed row's counts describe fallback logic, not the flow.
            if row.status != RowStatus::Ok {
                return;
            }
            node_pairs.push((
                m.decomposition_total() as f64,
                p.decomposition_total() as f64,
            ));
            runtime_pairs.push((row.maj_runtime.as_secs_f64(), row.pga_runtime.as_secs_f64()));
            maj_nodes += m.maj;
            total_nodes += m.decomposition_total();
            for (acc, v) in sums.iter_mut().zip([
                m.and,
                m.or,
                m.xor,
                m.xnor,
                m.maj,
                m.decomposition_total(),
                0,
                p.and,
                p.or,
                p.xor,
                p.xnor,
                p.maj,
                p.decomposition_total(),
                0,
            ]) {
                *acc += v;
            }
        },
    );
    let n = (runtime_pairs.len().max(1)) as f64;
    println!("{:-<18}-+-{:-<44}-+-{:-<44}-+---", "", "", "");
    println!(
        "{:<18} | {:>5.1} {:>5.1} {:>5.1} {:>5.1} {:>5.1} {:>6.1} {:>8.2} | {:>5.1} {:>5.1} {:>5.1} {:>5.1} {:>5.1} {:>6.1} {:>8.2} |",
        "Average",
        sums[0] as f64 / n, sums[1] as f64 / n, sums[2] as f64 / n,
        sums[3] as f64 / n, sums[4] as f64 / n, sums[5] as f64 / n,
        runtime_pairs.iter().map(|(a, _)| a).sum::<f64>() / n,
        sums[7] as f64 / n, sums[8] as f64 / n, sums[9] as f64 / n,
        sums[10] as f64 / n, sums[11] as f64 / n, sums[12] as f64 / n,
        runtime_pairs.iter().map(|(_, b)| b).sum::<f64>() / n,
    );
    println!();
    println!("Headline aggregates (paper values in brackets):");
    println!(
        "  average node count reduction vs BDS-PGA : {:5.1} %   [29.1 %]",
        average_saving(&node_pairs)
    );
    println!(
        "  MAJ share of BDS-MAJ node count         : {:5.1} %   [ 9.8 %]",
        100.0 * maj_nodes as f64 / total_nodes.max(1) as f64
    );
    let rt_delta = -average_saving(&runtime_pairs);
    println!(
        "  average runtime change vs BDS-PGA       : {:+5.1} %   [+4.6 %]",
        rt_delta
    );
    let degraded = rows
        .iter()
        .filter(|r| r.status == RowStatus::Degraded)
        .count();
    let failed = rows.iter().filter(|r| r.status == RowStatus::Limit).count();
    if degraded + failed > 0 {
        eprintln!("NOTE: {degraded} degraded and {failed} failed rows under the resource budget");
    }
    // Verification only applies to rows that produced a result.
    let unverified = rows
        .iter()
        .filter(|r| r.status != RowStatus::Limit && !r.verified)
        .count();
    if unverified > 0 {
        eprintln!("WARNING: {unverified} rows failed equivalence checking");
        std::process::exit(1);
    }
    if failed > 0 {
        std::process::exit(1);
    }
    if degraded > 0 {
        std::process::exit(3);
    }
}
