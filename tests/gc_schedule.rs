//! The flow's output is a function of its input alone: when the collector
//! runs must not move a gate. Each run below installs a collection
//! schedule through a majority hook that sets the manager's `GcConfig` on
//! its first call, and must reproduce the default-schedule network
//! exactly. A resource budget is one more schedule: it collects after
//! every aborted cone before the retry, so a budgeted run that degrades no
//! cone must reproduce the unbudgeted network too.

use bds_maj::bdd::{GcConfig, Manager, Ref, ResourceLimits};
use bds_maj::bdsmaj::MajDecomposer;
use bds_maj::circuits::suite::{benchmark, paper_suite};
use bds_maj::decomp::MajorityHook;
use bds_maj::prelude::*;

/// The two extreme schedules: no collection at all, and a sweep at every
/// quiescent point the engine offers.
const SCHEDULES: [(&str, GcConfig); 2] = [
    (
        "never collect",
        GcConfig {
            dead_fraction: 0.25,
            min_nodes: usize::MAX,
        },
    ),
    (
        "collect at every quiescent point",
        GcConfig {
            dead_fraction: 0.0,
            min_nodes: 0,
        },
    ),
];

/// The BDS-MAJ hook with a collection schedule installed on its first
/// call.
struct Scheduled {
    inner: MajDecomposer,
    schedule: Option<GcConfig>,
}

impl MajorityHook for Scheduled {
    fn try_majority(&mut self, m: &mut Manager, f: Ref) -> Option<[Ref; 3]> {
        if let Some(gc) = self.schedule.take() {
            m.set_gc_config(gc);
        }
        self.inner.try_majority(m, f)
    }
}

/// Runs BDS-MAJ on `net` under the default schedule and under each of
/// [`SCHEDULES`], and requires identical networks.
fn assert_schedule_invariant(name: &str, net: &Network, engine: &EngineOptions) {
    let options = BdsMajOptions {
        engine: engine.clone(),
        ..BdsMajOptions::default()
    };
    let default = bds_maj(net, &options);
    let want = default.network().gate_counts();
    for (label, gc) in SCHEDULES {
        let mut hook = Scheduled {
            inner: MajDecomposer::new(options.maj),
            schedule: Some(gc),
        };
        let got = decompose_network(net, engine, &mut hook).network;
        assert_eq!(
            got.gate_counts(),
            want,
            "{name}: gate counts moved under '{label}'"
        );
        assert_eq!(
            write_blif(&got),
            write_blif(default.network()),
            "{name}: network moved under '{label}'"
        );
    }
}

#[test]
fn table1_networks_do_not_depend_on_the_gc_schedule() {
    for bench in paper_suite() {
        assert_schedule_invariant(bench.name, &bench.network, &EngineOptions::default());
    }
}

/// Larger cones, collapsed through 2-fanout signals: more majority-hook
/// calls per cone, and more garbage between cones.
#[test]
fn large_cone_networks_do_not_depend_on_the_gc_schedule() {
    let engine = EngineOptions {
        partition: PartitionConfig {
            max_support: 12,
            fanout_limit: 2,
        },
        ..EngineOptions::default()
    };
    for name in ["bigkey", "SQRT 32 bit"] {
        let net = benchmark(name).expect("suite circuit");
        assert_schedule_invariant(name, &net, &engine);
    }
}

/// Budgets, as (live nodes, steps), that abort cones of the suite in
/// both release and debug builds and let the retry recover some of them.
const BUDGETS: [(usize, Option<u64>); 2] = [(1000, Some(300)), (2000, None)];

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
            let engine = EngineOptions {
                limits: ResourceLimits {
                    max_live_nodes: Some(nodes),
                    max_steps: steps,
                    deadline: None,
                },
                ..EngineOptions::default()
            };
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
