//! Pins the paper's qualitative claims as executable assertions over the
//! full 17-benchmark suite. These are the invariants EXPERIMENTS.md
//! reports; if a refactor breaks the reproduction's shape, these tests
//! fail before the table binaries do.

use bds_maj::circuits::suite::{paper_suite, Group};
use bds_maj::prelude::*;

/// Table I under the default flow options, row by row: the BDS-MAJ
/// `(MAJ nodes, decomposition total)` and the BDS-PGA decomposition
/// total. The counts depend on node allocation order (the m-dominator
/// search breaks ties by `NodeId`), so a kernel change that moves which
/// slot a node lands in shows up here as a changed row.
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
