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

/// `write_blif`'s text of one network: (length in bytes,
/// `BuildFxHasher::hash_one` digest).
type BlifPin = (usize, u64);

/// The BLIF text of every network behind a Table II row, pinned byte for
/// byte as (length, digest): per suite row, the BDS-MAJ, BDS-PGA, ABC and
/// DC networks under the default options, each followed by its
/// `map_network` netlist. Where [`TABLE2_GOLDEN`] pins cell counts, area
/// and delay, this pins every gate, fanin order, signal name and cover;
/// a changed pin is a change to a flow, the mapper or the writer.
#[rustfmt::skip]
const BLIF_GOLDEN: [(&str, [BlifPin; 8]); 17] = [
    ("alu2", [(2073, 0xc2c309374c17d0ac), (3085, 0x5a08598b3f359afa), (2319, 0x5667274dc1757642), (3586, 0xbd30fe02dd6f60b2), (5372, 0x44baf3a6c9c002b8), (3654, 0x2dab539bb983b63a), (5372, 0x44baf3a6c9c002b8), (3654, 0x2dab539bb983b63a)]),
    ("C6288", [(33496, 0x6e746b24ef94b90a), (41266, 0x109506efa57320ce), (62165, 0xff3ec9999ef8798d), (96279, 0xc4257537bd106410), (192688, 0x63956219a3065833), (141747, 0xb2375a36bcad30de), (50249, 0xa00280fa35ac4613), (67458, 0x8963d8bd1472dccc)]),
    ("C1355", [(6196, 0x7b0f860520118c9e), (7540, 0xfeb9ceec2bc93759), (6196, 0x7b0f860520118c9e), (7540, 0xfeb9ceec2bc93759), (51897, 0x3f7459b553132fc4), (42027, 0x95cb24b5978908d9), (6196, 0x7b0f860520118c9e), (7540, 0xfeb9ceec2bc93759)]),
    ("dalu", [(7339, 0x5849f0b9db9f99f9), (10896, 0x34efc66dca44d76c), (8805, 0xd1f1343d739810af), (13926, 0xcf270397276e5c4c), (23369, 0xb3b10470201d372e), (15411, 0x8b1bdc0945b5ab45), (8255, 0xb7718e783a75b62d), (12593, 0xccbe5c263202e41f)]),
    ("apex6", [(20674, 0x172b54b03614c74e), (31453, 0x4f88e07dd89128d2), (20674, 0x172b54b03614c74e), (31453, 0x4f88e07dd89128d2), (42896, 0x79341840d0948bd2), (36769, 0xfa08127338e645a0), (20674, 0x172b54b03614c74e), (31453, 0x4f88e07dd89128d2)]),
    ("vda", [(30707, 0xbb1c50860ed2befb), (53714, 0x5db9d28ae0ea3612), (30598, 0x71182371ffff2220), (53894, 0x681356ae710f76a9), (47232, 0x1779237a8fdcb4cd), (49192, 0x6a0d5e20a36eefc3), (47232, 0x1779237a8fdcb4cd), (49192, 0x6a0d5e20a36eefc3)]),
    ("f51m", [(2434, 0x3c4cd4822604e34e), (3005, 0x38334fd5a5e951dd), (3866, 0x339095a3dd80aad6), (5691, 0x3988694eaed3df87), (13298, 0xa5eb8fb060c959cf), (9512, 0xab546950a8bf0ef9), (3241, 0x5b2a706bed646496), (4342, 0x449f85aa8078f6ba)]),
    ("misex3", [(32168, 0x016b25cf1f3be476), (57349, 0x96d3ba0ff388533d), (32192, 0xef7c1dae580ad9e7), (57519, 0x7826d3d34ec87503), (46470, 0x4fff0925f144a464), (55071, 0xacdda5c44157def2), (46470, 0x4fff0925f144a464), (55071, 0xacdda5c44157def2)]),
    ("seq", [(107805, 0xf033b4fdc8f38565), (191017, 0xd608ab68c948bc4f), (107805, 0xf033b4fdc8f38565), (191017, 0xd608ab68c948bc4f), (155006, 0x3d59d76078b9d1f2), (184363, 0xe8f3f94bf7d410ec), (155006, 0x3d59d76078b9d1f2), (184363, 0xe8f3f94bf7d410ec)]),
    ("bigkey", [(56600, 0x2f7ba81f6be03dc9), (88261, 0xd38b4b4a2ffccea6), (57014, 0xd9213297cff5e2b3), (89122, 0x975c91d70e48436e), (171958, 0x330d372c9a94add0), (108286, 0x7458f1c6d23e1bb6), (57014, 0xd9213297cff5e2b3), (89122, 0x975c91d70e48436e)]),
    ("SQRT 32 bit", [(29654, 0xb3b17a0e83efca32), (35841, 0x9a63c12cc38cdaa3), (41884, 0xff1c63373fdb90cb), (62991, 0x053952e8d5fd2213), (251975, 0xf623694dfb873e42), (195073, 0x0ae72da6f29b7661), (38246, 0xa5b4b05fbaf912ce), (53770, 0x8379cdb9de7d3bdb)]),
    ("Wallace 16 bit", [(36877, 0x2dafc1eec0d99c27), (46420, 0x6d7553b44f21e458), (64760, 0xa7a3293c88404318), (96109, 0x8a5d92778ddfbe3a), (197750, 0x559aabab8585010f), (137539, 0xbd54be8295813e19), (53196, 0xd863b97fd4cec726), (74733, 0xa7c9af24b8f16094)]),
    ("CLA 64 bit", [(16185, 0x3672dba0f3c4588b), (24378, 0x68f803ca6dd0a05a), (16185, 0x3672dba0f3c4588b), (24378, 0x68f803ca6dd0a05a), (51335, 0xbbe04cba8a8ba045), (39539, 0xdd990daeb6090ab6), (16185, 0x3672dba0f3c4588b), (24378, 0x68f803ca6dd0a05a)]),
    ("Rev (1/X) 19 bit", [(110398, 0x0288bdd13f540a52), (132245, 0x16421b3ecc6a06cc), (176068, 0x26e6b7ece3dcc6ca), (271014, 0xbb4534b1f4920b32), (934061, 0x8d12035c58c5dedb), (635490, 0x72315cfc87571a76), (156534, 0x3f20d42b82e332e2), (221757, 0xf56e89c5db6b0f50)]),
    ("Div 18 bit", [(47833, 0xc6b96dfb61b92d5e), (54678, 0x05231b0ef396cf47), (77980, 0x6f49e5ff0d90c1d3), (119264, 0xd5f3c4b1f2686598), (462358, 0x7e44fd0980d3466f), (324242, 0x65117ef756583068), (69050, 0x70be5a8073c8159c), (97358, 0x51f9115fb1f7f3b3)]),
    ("MAC 16 bit", [(41192, 0x7f247b8e0f073a6b), (50820, 0x790f769aab94e660), (73007, 0x6220a684e123b34a), (107552, 0xe4d00a558dd4077e), (222359, 0xaca82eaec60ae882), (154222, 0xbf07d589f52f6104), (59804, 0x533591fdd1feecef), (83079, 0xe0e3afe222464b7e)]),
    ("4-Op ADD 16 bit", [(6368, 0x00690a03df0a612d), (6427, 0x310ec71868aaed86), (11752, 0xc03a5faa7da3020e), (16249, 0x7859f3b0eaf58f81), (35361, 0x0ae926884469cced), (24061, 0x59e1c68589f61b5e), (9521, 0x31b2339f4edfdffa), (11704, 0x6c4f78b82c58027a)]),
];

/// Every BLIF text of [`BLIF_GOLDEN`] is byte-identical to the pinned one.
#[test]
fn blif_texts_match_the_golden() {
    use std::hash::BuildHasher;
    let lib = Library::cmos22();
    let hasher = bds_maj::logic::BuildFxHasher::default();
    let suite = paper_suite();
    assert_eq!(suite.len(), BLIF_GOLDEN.len());
    for (bench, &(name, want)) in suite.iter().zip(&BLIF_GOLDEN) {
        assert_eq!(bench.name, name, "suite order changed");
        let net = &bench.network;
        let flows = [
            bds_maj(net, &BdsMajOptions::default()).network().clone(),
            bds_pga(net, &EngineOptions::default()).network,
            abc_flow(net),
            dc_flow(net, &lib).network,
        ];
        let mut got = Vec::with_capacity(want.len());
        for flow in &flows {
            for text in [write_blif(flow), write_blif(&map_network(flow).network)] {
                got.push((text.len(), hasher.hash_one(&text)));
            }
        }
        assert_eq!(
            got, want,
            "{name}: the BLIF of (BDS-MAJ, BDS-PGA, ABC, DC) x (unmapped, mapped) moved"
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
