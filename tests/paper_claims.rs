//! Pins the paper's qualitative claims as executable assertions over the
//! full 17-benchmark suite, and Tables I and II row by row. These are the
//! invariants EXPERIMENTS.md reports; if a refactor breaks the
//! reproduction's shape, these tests fail before the table binaries do.

use bds_maj::circuits::suite::{paper_suite, Group};
use bds_maj::prelude::*;

/// Table I under the default flow options, row by row: the BDS-MAJ
/// `(MAJ nodes, decomposition total)` and the BDS-PGA decomposition
/// total. No decision depends on which arena slot a node lands in or on
/// what else the arena holds, so a kernel change that only moves
/// allocations cannot move a row; a changed row is an algorithmic
/// change.
const TABLE1_GOLDEN: [(&str, usize, usize, usize); 17] = [
    ("alu2", 3, 60, 72),
    ("C6288", 224, 960, 1856),
    ("C1355", 0, 178, 178),
    ("dalu", 14, 224, 280),
    ("apex6", 0, 550, 550),
    ("vda", 9, 1052, 1055),
    ("f51m", 13, 73, 125),
    ("misex3", 1, 1139, 1141),
    ("seq", 0, 3697, 3697),
    ("bigkey", 8, 1636, 1655),
    ("SQRT 32 bit", 120, 832, 1312),
    ("Wallace 16 bit", 219, 1070, 1946),
    ("CLA 64 bit", 0, 488, 488),
    ("Rev (1/X) 19 bit", 631, 2925, 5442),
    ("Div 18 bit", 289, 1278, 2435),
    ("MAC 16 bit", 250, 1171, 2171),
    ("4-Op ADD 16 bit", 46, 142, 326),
];

/// Table I claim: BDS-MAJ never produces more decomposition nodes than
/// BDS-PGA (same engine, strictly more decomposition options), and the
/// result is always functionally correct. Every row must also match
/// [`TABLE1_GOLDEN`] exactly.
#[test]
fn bds_maj_dominates_bds_pga_across_the_suite() {
    let mut total_maj = 0usize;
    let mut total_nodes = 0usize;
    let mut wins = 0usize;
    let suite = paper_suite();
    assert_eq!(suite.len(), TABLE1_GOLDEN.len());
    for (bench, &(name, maj, total, pga_total)) in suite.iter().zip(&TABLE1_GOLDEN) {
        assert_eq!(bench.name, name, "suite order changed");
        let with = bds_maj(&bench.network, &BdsMajOptions::default());
        let without = bds_pga(&bench.network, &EngineOptions::default());
        equiv_sim(&bench.network, with.network(), 4, 1)
            .unwrap_or_else(|e| panic!("bds-maj broke {}: {e}", bench.name));
        equiv_sim(&bench.network, &without.network, 4, 1)
            .unwrap_or_else(|e| panic!("bds-pga broke {}: {e}", bench.name));
        let n_with = with.network().gate_counts().decomposition_total();
        let n_without = without.network.gate_counts().decomposition_total();
        assert_eq!(
            (with.network().gate_counts().maj, n_with, n_without),
            (maj, total, pga_total),
            "{}: (BDS-MAJ maj, BDS-MAJ total, BDS-PGA total) moved",
            bench.name
        );
        assert!(
            n_with <= n_without,
            "{}: BDS-MAJ ({n_with}) larger than BDS-PGA ({n_without})",
            bench.name
        );
        if n_with < n_without {
            wins += 1;
        }
        total_maj += with.network().gate_counts().maj;
        total_nodes += n_with;
    }
    // Claim: majority decomposition helps on a substantial part of the
    // suite (the paper improves 15/17 rows; our stand-ins give ≥ 10).
    assert!(wins >= 10, "only {wins}/17 benchmarks improved");
    // Claim (§V-A.2): a small fraction of MAJ nodes restructures the
    // networks — the paper reports 9.8 %; accept a 5-20 % band.
    let share = 100.0 * total_maj as f64 / total_nodes as f64;
    assert!(
        (5.0..=20.0).contains(&share),
        "MAJ share {share:.1} % outside the plausible band"
    );
}

/// Table I claim: BDS-PGA produces no MAJ nodes at all (its engine has no
/// majority decomposition), matching the all-zero MAJ column.
#[test]
fn bds_pga_column_has_zero_majority_nodes() {
    for bench in paper_suite() {
        let without = bds_pga(&bench.network, &EngineOptions::default());
        assert_eq!(
            without.network.gate_counts().maj,
            0,
            "{} produced MAJ without the hook",
            bench.name
        );
    }
}

/// One mapped flow of a Table II row: (cells, area in 0.01 µm², delay in
/// 0.001 ns).
type Mapped = (usize, u64, u64);

/// Table II under the default flow options, as `table2 --jobs 1` prints
/// it, row by row: each flow [`Mapped`] on the 22 nm library, for
/// BDS-MAJ, BDS-PGA, ABC and DC in that order. A changed row is a change to a flow, the mapper or the
/// library's cells.
#[rustfmt::skip]
const TABLE2_GOLDEN: [(&str, [Mapped; 4]); 17] = [
    ("alu2", [(120, 1374, 229), (143, 1521, 305), (128, 1456, 196), (128, 1456, 196)]),
    ("C6288", [(1232, 28336, 1566), (3444, 43498, 2659), (4608, 51038, 2219), (2366, 33943, 2021)]),
    ("C1355", [(236, 5012, 246), (236, 5012, 246), (1440, 15418, 1206), (236, 5012, 246)]),
    ("dalu", [(409, 5132, 400), (542, 6045, 626), (526, 6058, 421), (486, 5681, 488)]),
    ("apex6", [(1112, 10803, 361), (1112, 10803, 361), (1204, 12551, 236), (1112, 10803, 361)]),
    ("vda", [(2012, 19793, 212), (2027, 19708, 258), (1748, 17784, 167), (1748, 17784, 167)]),
    ("f51m", [(97, 2119, 299), (216, 2938, 526), (333, 3718, 390), (161, 2476, 410)]),
    ("misex3", [(2159, 21030, 247), (2166, 21073, 248), (1985, 19935, 200), (1985, 19935, 200)]),
    ("seq", [(6951, 67639, 249), (6951, 67639, 249), (6473, 64435, 220), (6473, 64435, 220)]),
    ("bigkey", [(3140, 36612, 453), (3178, 36777, 453), (3384, 39234, 410), (3178, 36777, 453)]),
    ("SQRT 32 bit", [(1192, 22700, 6571), (2275, 30160, 11193), (6392, 69004, 6400), (1912, 29360, 8770)]),
    ("Wallace 16 bit", [(1403, 31122, 953), (3397, 44850, 1877), (4430, 49809, 1237), (2591, 39182, 1397)]),
    ("CLA 64 bit", [(849, 11167, 515), (849, 11167, 515), (1307, 14059, 359), (849, 11167, 515)]),
    ("Rev (1/X) 19 bit", [(4061, 83202, 24279), (9677, 121654, 47211), (19693, 218225, 26977), (7727, 116331, 32455)]),
    ("Div 18 bit", [(1672, 37631, 10492), (4276, 55575, 20983), (10517, 115148, 13438), (3406, 53670, 14597)]),
    ("MAC 16 bit", [(1508, 34446, 1012), (3786, 50128, 2011), (4954, 55672, 1312), (2863, 43608, 1484)]),
    ("4-Op ADD 16 bit", [(145, 4734, 542), (575, 7689, 1126), (795, 8905, 717), (391, 6312, 815)]),
];

/// `x` in units of `10^-digits`, rounded as the table prints it.
fn printed(x: f64, digits: usize) -> u64 {
    format!("{x:.digits$}")
        .replace('.', "")
        .parse()
        .expect("a printed non-negative number")
}

/// Table II, row by row: every row matches [`TABLE2_GOLDEN`], and the
/// four mapped netlists of every row pass the equivalence check.
#[test]
fn table2_rows_match_the_golden() {
    let lib = Library::cmos22();
    let suite = paper_suite();
    assert_eq!(suite.len(), TABLE2_GOLDEN.len());
    for (bench, &(name, want)) in suite.iter().zip(&TABLE2_GOLDEN) {
        assert_eq!(bench.name, name, "suite order changed");
        let row = bench::table2_row(bench, &lib, &EngineOptions::default());
        assert!(row.verified, "{name}: a mapped netlist failed the check");
        let got = [&row.bds_maj, &row.bds_pga, &row.abc, &row.dc]
            .map(|r| (r.gate_count, printed(r.area, 2), printed(r.delay, 3)));
        assert_eq!(
            got, want,
            "{name}: (cells, area, delay) of BDS-MAJ, BDS-PGA, ABC and DC moved"
        );
    }
}

/// Table II claim: on the HDL datapath section, BDS-MAJ beats all three
/// baselines on mapped area (the paper's headline use case).
#[test]
fn datapath_area_ordering_matches_paper() {
    let lib = Library::cmos22();
    for bench in paper_suite() {
        if bench.group != Group::Hdl {
            continue;
        }
        let net = &bench.network;
        let area = |optimized: &Network| report(&map_network(optimized), &lib).area;
        let a_maj = area(bds_maj(net, &BdsMajOptions::default()).network());
        let a_pga = area(&bds_pga(net, &EngineOptions::default()).network);
        let a_abc = area(&abc_flow(net));
        assert!(
            a_maj <= a_pga + 1e-9,
            "{}: BDS-MAJ {a_maj:.2} vs BDS-PGA {a_pga:.2}",
            bench.name
        );
        assert!(
            a_maj <= a_abc + 1e-9,
            "{}: BDS-MAJ {a_maj:.2} vs ABC {a_abc:.2}",
            bench.name
        );
    }
}

/// §V-B.3 claim: the whole optimization is fast — every benchmark
/// decomposes well under the paper's seconds-scale budget.
#[test]
fn decomposition_runtime_stays_interactive() {
    for bench in paper_suite() {
        let flow = bds_maj(&bench.network, &BdsMajOptions::default());
        assert!(
            flow.result.runtime.as_secs_f64() < 30.0,
            "{} took {:?}",
            bench.name,
            flow.result.runtime
        );
    }
}

/// Fig. 1 claim, end to end: the function `ab + bc + ac` has exactly one
/// non-trivial m-dominator and decomposes to a single MAJ cell.
#[test]
fn fig1_end_to_end() {
    let mut m = bdd::Manager::new();
    let a = m.var(0);
    let b = m.var(1);
    let c = m.var(2);
    let f = m.maj(a, b, c);
    let doms = find_m_dominators(&mut m, f, &MajConfig::default());
    assert_eq!(doms.len(), 1);
    let dot = m.to_dot(f, &doms);
    assert!(dot.contains("color=red"), "m-dominator must be highlighted");
}
