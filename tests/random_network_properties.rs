//! Property-based integration tests: randomly generated multi-level
//! networks are pushed through every optimization flow and the technology
//! mapper, and the results are checked for functional equivalence.
//!
//! This is the strongest correctness net in the repository: it exercises
//! partitioning, reordering, every dominator class, the majority hook,
//! MUX expansion, factoring-tree sharing, AIG conversion and mapping on
//! thousands of irregular circuits.

use bds_maj::bdd::ResourceLimits;
use bds_maj::prelude::*;
use proptest::prelude::*;

/// A recipe for one random gate.
#[derive(Clone, Debug)]
enum GateRecipe {
    And(usize, usize),
    Or(usize, usize),
    Xor(usize, usize),
    Xnor(usize, usize),
    Maj(usize, usize, usize),
    Mux(usize, usize, usize),
    Inv(usize),
}

fn arb_recipe() -> impl Strategy<Value = GateRecipe> {
    prop_oneof![
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateRecipe::And(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateRecipe::Or(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateRecipe::Xor(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateRecipe::Xnor(a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(a, b, c)| GateRecipe::Maj(a, b, c)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(a, b, c)| GateRecipe::Mux(a, b, c)),
        any::<usize>().prop_map(GateRecipe::Inv),
    ]
}

/// Materializes a recipe list into a well-formed network.
fn build_network(num_inputs: usize, recipes: &[GateRecipe]) -> Network {
    let mut net = Network::new("random");
    add_block(&mut net, "", num_inputs, recipes);
    net
}

/// Adds one block of `recipes` over `num_inputs` fresh inputs to `net`,
/// with input and output names starting with `prefix`.
fn add_block(net: &mut Network, prefix: &str, num_inputs: usize, recipes: &[GateRecipe]) {
    let mut pool: Vec<SignalId> = (0..num_inputs)
        .map(|i| net.add_input(format!("{prefix}i{i}")))
        .collect();
    for recipe in recipes {
        let pick = |idx: &usize| pool[idx % pool.len()];
        let s = match recipe {
            GateRecipe::And(a, b) => net.add_gate(GateKind::And, vec![pick(a), pick(b)]),
            GateRecipe::Or(a, b) => net.add_gate(GateKind::Or, vec![pick(a), pick(b)]),
            GateRecipe::Xor(a, b) => net.add_gate(GateKind::Xor, vec![pick(a), pick(b)]),
            GateRecipe::Xnor(a, b) => net.add_gate(GateKind::Xnor, vec![pick(a), pick(b)]),
            GateRecipe::Maj(a, b, c) => {
                net.add_gate(GateKind::Maj, vec![pick(a), pick(b), pick(c)])
            }
            GateRecipe::Mux(a, b, c) => {
                net.add_gate(GateKind::Mux, vec![pick(a), pick(b), pick(c)])
            }
            GateRecipe::Inv(a) => net.add_gate(GateKind::Inv, vec![pick(a)]),
        };
        pool.push(s);
    }
    // Outputs: the last few signals (deepest logic).
    let n = pool.len();
    for (o, &s) in pool[n.saturating_sub(4)..].iter().enumerate() {
        net.set_output(format!("{prefix}o{o}"), s);
    }
}

/// Equivalence by a global BDD where one fits under the cap, else by
/// random simulation.
fn equivalent(a: &Network, b: &Network) -> bool {
    equiv_exact(a, b, 1 << 16).unwrap_or_else(|| equiv_sim(a, b, 4, 0x711E).is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bds_maj_preserves_random_networks(
        recipes in proptest::collection::vec(arb_recipe(), 5..60),
        num_inputs in 3usize..10,
    ) {
        let net = build_network(num_inputs, &recipes);
        let out = bds_maj(&net, &BdsMajOptions::default());
        prop_assert!(equiv_sim(&net, out.network(), 4, 0xFEED).is_ok());
    }

    #[test]
    fn bds_pga_preserves_random_networks(
        recipes in proptest::collection::vec(arb_recipe(), 5..60),
        num_inputs in 3usize..10,
    ) {
        let net = build_network(num_inputs, &recipes);
        let out = bds_pga(&net, &EngineOptions::default());
        prop_assert!(equiv_sim(&net, &out.network, 4, 0xFEED).is_ok());
    }

    #[test]
    fn abc_flow_preserves_random_networks(
        recipes in proptest::collection::vec(arb_recipe(), 5..60),
        num_inputs in 3usize..10,
    ) {
        let net = build_network(num_inputs, &recipes);
        let out = abc_flow(&net);
        prop_assert!(equiv_sim(&net, &out, 4, 0xFEED).is_ok());
    }

    #[test]
    fn mapping_preserves_optimized_random_networks(
        recipes in proptest::collection::vec(arb_recipe(), 5..40),
        num_inputs in 3usize..8,
    ) {
        let net = build_network(num_inputs, &recipes);
        let out = bds_maj(&net, &BdsMajOptions::default());
        let mapped = map_network(out.network());
        prop_assert!(equiv_sim(&net, &mapped.network, 4, 0xFEED).is_ok());
        // Mapped netlists contain only library cells.
        for id in mapped.network.signals() {
            let kind = &mapped.network.node(id).kind;
            prop_assert!(matches!(
                kind,
                GateKind::Input | GateKind::Const(_) | GateKind::Inv | GateKind::Nand
                    | GateKind::Nor | GateKind::Xor | GateKind::Xnor | GateKind::Maj
            ));
        }
    }

    #[test]
    fn blif_roundtrip_preserves_random_networks(
        recipes in proptest::collection::vec(arb_recipe(), 5..40),
        num_inputs in 3usize..8,
    ) {
        let net = build_network(num_inputs, &recipes);
        let text = write_blif(&net);
        let reparsed = parse_blif(&text).expect("generated BLIF parses");
        prop_assert!(equiv_sim(&net, &reparsed, 4, 0xB11F).is_ok());
    }

    /// Identical blocks over disjoint inputs give identical supernode
    /// BDDs, which the engine replays wherever a block meets an order it
    /// already decomposed (debug builds decompose every replayed cone
    /// afresh too and compare). Not every tile replays: a slice whose
    /// reorder moves the order makes the next slice a miss.
    #[test]
    fn tiled_blocks_stay_equivalent_when_replayed(
        recipes in proptest::collection::vec(arb_recipe(), 5..40),
        num_inputs in 3usize..7,
        tiles in 2usize..5,
    ) {
        let mut net = Network::new("tiled");
        for t in 0..tiles {
            add_block(&mut net, &format!("t{t}_"), num_inputs, &recipes);
        }
        let small = ResourceLimits {
            max_steps: Some(200),
            ..ResourceLimits::default()
        };
        for limits in [ResourceLimits::default(), small] {
            let engine = EngineOptions { limits, ..EngineOptions::default() };
            let options = BdsMajOptions { engine: engine.clone(), ..BdsMajOptions::default() };
            let maj = bds_maj(&net, &options);
            prop_assert!(equivalent(&net, maj.network()), "BDS-MAJ changed the function");
            let pga = bds_pga(&net, &engine);
            prop_assert!(equivalent(&net, &pga.network), "BDS-PGA changed the function");
        }
    }

    #[test]
    fn exact_and_simulated_equivalence_agree(
        recipes in proptest::collection::vec(arb_recipe(), 5..25),
        num_inputs in 3usize..7,
    ) {
        let net = build_network(num_inputs, &recipes);
        let out = bds_maj(&net, &BdsMajOptions::default());
        let exact = equiv_exact(&net, out.network(), 1 << 22);
        prop_assert_eq!(exact, Some(true), "exact check must confirm");
    }
}
