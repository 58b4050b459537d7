//! The flow's output is a function of its input alone, and a resource
//! budget that fits does not change it: a cone whose decomposition aborts
//! is retried once with a fresh step count, resuming from the aborted
//! attempt's nodes and memo, so a budgeted run that degrades no cone must
//! reproduce the unbudgeted network.

use bds_maj::bdd::ResourceLimits;
use bds_maj::circuits::suite::paper_suite;
use bds_maj::prelude::*;

/// A per-cone budget: (live nodes, steps).
type Budget = (usize, Option<u64>);

/// Budgets that abort cones of the suite in both release and debug builds
/// and let the retry recover some of them.
const BUDGETS: [Budget; 2] = [(1000, Some(300)), (2000, None)];

/// Engine options under the budget of `nodes` live nodes and `steps`
/// kernel steps per cone.
fn budgeted(nodes: usize, steps: Option<u64>) -> EngineOptions {
    EngineOptions {
        limits: ResourceLimits {
            max_live_nodes: Some(nodes),
            max_steps: steps,
            deadline: None,
        },
        ..EngineOptions::default()
    }
}

/// Every Table I circuit, BDS-MAJ and BDS-PGA, under each of [`BUDGETS`]:
/// a run that degrades no cone must write the unbudgeted network, however
/// many of its cones aborted and were retried.
#[test]
fn budgeted_networks_that_fit_equal_the_unbudgeted_ones() {
    let mut retried = 0;
    for bench in paper_suite() {
        let net = &bench.network;
        let want_maj = write_blif(bds_maj(net, &BdsMajOptions::default()).network());
        let want_pga = write_blif(&bds_pga(net, &EngineOptions::default()).network);
        for (nodes, steps) in BUDGETS {
            let engine = budgeted(nodes, steps);
            let maj_options = BdsMajOptions {
                engine: engine.clone(),
                ..BdsMajOptions::default()
            };
            let maj = bds_maj(net, &maj_options);
            let pga = bds_pga(net, &engine);
            let runs = [
                ("BDS-MAJ", maj.report(), maj.network(), &want_maj),
                ("BDS-PGA", &pga.report, &pga.network, &want_pga),
            ];
            for (flow, report, got, want) in runs {
                retried += report.retried_count();
                assert!(
                    report.is_degraded() || write_blif(got) == *want,
                    "{} {flow} under ({nodes} nodes, {steps:?} steps): \
                     the budgeted run fit but moved the network",
                    bench.name
                );
            }
        }
    }
    assert!(retried > 0, "the budgets must exercise the retry path");
}

/// BDS-MAJ cones degraded under [`BUDGETS`], as a release build counts
/// them, for the circuits where node-building debug checks once moved the
/// count: those checks build in a fresh copy of the cone's manager, so
/// a debug build degrades exactly the cones a release build does.
const DEGRADED: [(&str, Budget, usize); 3] = [
    ("SQRT 32 bit", BUDGETS[0], 0),
    ("Rev (1/X) 19 bit", BUDGETS[0], 8),
    ("Rev (1/X) 19 bit", BUDGETS[1], 0),
];

#[test]
fn debug_and_release_builds_degrade_the_same_cones() {
    for (name, (nodes, steps), want) in DEGRADED {
        let net = bds_maj::circuits::suite::benchmark(name).expect("a suite circuit");
        let options = BdsMajOptions {
            engine: budgeted(nodes, steps),
            ..BdsMajOptions::default()
        };
        assert_eq!(
            bds_maj(&net, &options).report().degraded_count(),
            want,
            "{name} under ({nodes} nodes, {steps:?} steps): degraded cones"
        );
    }
}
