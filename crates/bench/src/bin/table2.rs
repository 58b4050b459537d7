//! Regenerates **Table II** of the paper: mapped area (µm²), gate count
//! and delay (ns) on the CMOS-22 nm six-cell library for the four flows —
//! BDS-MAJ, BDS-PGA, ABC-like and DC-like — plus the paper's headline
//! percentage aggregates.
//!
//! `--jobs N` fans the 17 rows out over the suite pool, one manager per
//! row. Row order and content (names, mapped area/gates/delay, verified
//! flags) are identical at every worker count.
//!
//! `--reorder` and the budget flags (`--node-limit`, `--step-limit`,
//! `--timeout`) reach the BDS-MAJ and BDS-PGA columns only. The DC column
//! comes from `baselines::dc_flow`, which builds its BDS candidates with
//! `EngineOptions::default()` and `BdsMajOptions::default()`, so it is
//! computed unbudgeted under default reordering whatever the row's
//! options: under `--timeout 0.000001`, C1355's BDS-MAJ column degrades
//! to 257 cells (236 unbudgeted) while its DC column keeps 236.

use bench::{
    average_saving, print_rows_grouped, reorder_label, run_table2, suite_args, table_exit_code,
    RowStatus,
};
use std::process::ExitCode;
use techmap::Library;

fn main() -> ExitCode {
    let args = suite_args();
    let lib = Library::cmos22();
    let reorder = reorder_label(&args.engine);
    println!("TABLE II: Logic Synthesis, CMOS 22nm Technology Node ({reorder} reordering)");
    println!(
        "{:<18} | {:>9} {:>6} {:>7} | {:>9} {:>6} {:>7} | {:>9} {:>6} {:>7} | {:>9} {:>6} {:>7} | eq",
        "Benchmark",
        "A.(um2)", "G.C.", "D.(ns)",
        "A.(um2)", "G.C.", "D.(ns)",
        "A.(um2)", "G.C.", "D.(ns)",
        "A.(um2)", "G.C.", "D.(ns)"
    );
    println!(
        "{:<18} | {:^25} | {:^25} | {:^25} | {:^25} |",
        "", "BDS-MAJ", "BDS-PGA", "ABC", "Design Compiler (sim.)"
    );
    let rows = run_table2(&lib, &args.engine, args.jobs, args.budget);
    let mut area_vs = [Vec::new(), Vec::new(), Vec::new()]; // pga, abc, dc
    let mut delay_vs = [Vec::new(), Vec::new(), Vec::new()];
    let mut avgs = [0.0f64; 12];
    print_rows_grouped(
        &rows,
        |row| row.group,
        |row| {
            println!(
            "{:<18} | {:>9.2} {:>6} {:>7.3} | {:>9.2} {:>6} {:>7.3} | {:>9.2} {:>6} {:>7.3} | {:>9.2} {:>6} {:>7.3} | {}",
            row.name,
            row.bds_maj.area, row.bds_maj.gate_count, row.bds_maj.delay,
            row.bds_pga.area, row.bds_pga.gate_count, row.bds_pga.delay,
            row.abc.area, row.abc.gate_count, row.abc.delay,
            row.dc.area, row.dc.gate_count, row.dc.delay,
            if row.verified { "ok" } else { "FAIL" },
        );
            if row.status != RowStatus::Ok {
                println!("{:<18} | status: {}", "", row.status.as_str());
            }
            // Aggregates only count fully decomposed rows.
            if row.status != RowStatus::Ok {
                return;
            }
            area_vs[0].push((row.bds_maj.area, row.bds_pga.area));
            area_vs[1].push((row.bds_maj.area, row.abc.area));
            area_vs[2].push((row.bds_maj.area, row.dc.area));
            delay_vs[0].push((row.bds_maj.delay, row.bds_pga.delay));
            delay_vs[1].push((row.bds_maj.delay, row.abc.delay));
            delay_vs[2].push((row.bds_maj.delay, row.dc.delay));
            for (acc, v) in avgs.iter_mut().zip([
                row.bds_maj.area,
                row.bds_maj.gate_count as f64,
                row.bds_maj.delay,
                row.bds_pga.area,
                row.bds_pga.gate_count as f64,
                row.bds_pga.delay,
                row.abc.area,
                row.abc.gate_count as f64,
                row.abc.delay,
                row.dc.area,
                row.dc.gate_count as f64,
                row.dc.delay,
            ]) {
                *acc += v;
            }
        },
    );
    let n = (area_vs[0].len().max(1)) as f64;
    println!(
        "{:<18} | {:>9.2} {:>6.0} {:>7.3} | {:>9.2} {:>6.0} {:>7.3} | {:>9.2} {:>6.0} {:>7.3} | {:>9.2} {:>6.0} {:>7.3} |",
        "Average",
        avgs[0] / n, avgs[1] / n, avgs[2] / n,
        avgs[3] / n, avgs[4] / n, avgs[5] / n,
        avgs[6] / n, avgs[7] / n, avgs[8] / n,
        avgs[9] / n, avgs[10] / n, avgs[11] / n,
    );
    println!();
    println!("Headline aggregates (paper values in brackets):");
    println!(
        "  area  saving vs BDS-PGA : {:5.1} %   [26.4 %]",
        average_saving(&area_vs[0])
    );
    println!(
        "  area  saving vs ABC     : {:5.1} %   [28.8 %]",
        average_saving(&area_vs[1])
    );
    println!(
        "  area  saving vs DC      : {:5.1} %   [ 6.0 %]",
        average_saving(&area_vs[2])
    );
    println!(
        "  delay saving vs BDS-PGA : {:5.1} %   [20.9 %]",
        average_saving(&delay_vs[0])
    );
    println!(
        "  delay saving vs ABC     : {:5.1} %   [12.8 %]",
        average_saving(&delay_vs[1])
    );
    println!(
        "  delay saving vs DC      : {:5.1} %   [ 7.8 %]",
        average_saving(&delay_vs[2])
    );
    ExitCode::from(table_exit_code(rows.iter().map(|r| (r.status, r.verified))))
}
