//! Complete baseline synthesis flows, matching the comparison set of
//! Table II: the ABC-like AIG flow and the Design-Compiler-like
//! multi-strategy flow (a simulation of a commercial best-of-breed
//! optimizer — DC itself is proprietary).

use crate::balance::abc_flow;
use bdsmaj::{bds_maj, bds_pga, BdsMajOptions};
use decomp::EngineOptions;
use logic::{Fanins, GateKind, Network, STRASH_PAD};
use techmap::{map_network, report, Library};

/// Re-expresses every MAJ-3 gate as `ab + c·(a⊕b)` — the best a flow can
/// do when it understands XOR but does not infer majority cells, which is
/// the behaviour commercial tools showed in the paper's experiments.
pub fn expand_maj(net: &Network) -> Network {
    let mut out = Network::new(net.name().to_string());
    // old signal -> new signal; STRASH_PAD until mapped
    let mut map = vec![STRASH_PAD; net.len()];
    for &pi in net.inputs() {
        map[pi.index()] = out.add_input(net.signal_name(pi));
    }
    for id in net.signals() {
        if map[id.index()] != STRASH_PAD {
            continue;
        }
        let node = net.node(id);
        let fanins: Fanins = node.fanins.iter().map(|f| map[f.index()]).collect();
        let s = match node.kind {
            GateKind::Input => unreachable!(),
            GateKind::Maj => {
                let (a, b, c) = (fanins[0], fanins[1], fanins[2]);
                let ab = out.add_gate_simplified(GateKind::And, [a, b]);
                let x = out.add_gate_simplified(GateKind::Xor, [a, b]);
                let cx = out.add_gate_simplified(GateKind::And, [c, x]);
                out.add_gate_simplified(GateKind::Or, [ab, cx])
            }
            ref kind => out.add_gate_simplified(kind.clone(), fanins),
        };
        map[id.index()] = s;
    }
    for (name, s) in net.outputs() {
        out.set_output(name.clone(), map[s.index()]);
    }
    out.cleaned()
}

/// Result of the DC-like flow.
#[derive(Clone, Debug)]
pub struct DcResult {
    /// The chosen optimized network (before mapping).
    pub network: Network,
}

/// The Design-Compiler-like flow (`compile -area -effort high` stand-in):
/// runs several optimization strategies — AIG restructuring, BDD
/// decomposition, and an XOR-preserving (but majority-blind) variant of
/// the strongest decomposition — maps each, and keeps the smallest-area
/// result (the first of equals, in that order).
pub fn dc_flow(net: &Network, lib: &Library) -> DcResult {
    let candidates = [
        abc_flow(net),
        bds_pga(net, &EngineOptions::default()).network,
        expand_maj(bds_maj(net, &BdsMajOptions::default()).network()),
    ];
    let mut best: Option<(f64, Network)> = None;
    for candidate in candidates {
        let mapped = map_network(&candidate);
        let area = report(&mapped, lib).area;
        if best.as_ref().is_none_or(|(a, _)| area < *a) {
            best = Some((area, candidate));
        }
    }
    let (_, network) = best.expect("three candidates");
    DcResult { network }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{equiv_sim, SignalId};

    fn carry_network() -> Network {
        // 3-bit carry chain: majority-rich.
        let mut net = Network::new("carry");
        let mut carry: Option<SignalId> = None;
        let mut inputs = Vec::new();
        for i in 0..3 {
            let a = net.add_input(format!("a{i}"));
            let b = net.add_input(format!("b{i}"));
            inputs.push((a, b));
        }
        for &(a, b) in &inputs {
            carry = Some(match carry {
                None => net.add_gate(GateKind::And, vec![a, b]),
                Some(c) => net.add_gate(GateKind::Maj, vec![a, b, c]),
            });
        }
        net.set_output("cout", carry.unwrap());
        net
    }

    #[test]
    fn expand_maj_is_equivalent_and_maj_free() {
        let net = carry_network();
        let expanded = expand_maj(&net);
        assert_eq!(equiv_sim(&net, &expanded, 16, 3), Ok(()));
        assert_eq!(expanded.gate_counts().maj, 0);
        assert!(expanded.gate_counts().xor >= 1, "XOR form used");
    }

    #[test]
    fn dc_flow_preserves_function() {
        let net = carry_network();
        let result = dc_flow(&net, &Library::cmos22());
        assert_eq!(equiv_sim(&net, &result.network, 16, 5), Ok(()));
        assert_eq!(
            result.network.gate_counts().maj,
            0,
            "the DC stand-in never infers MAJ cells"
        );
    }

    #[test]
    fn dc_flow_is_at_least_as_good_as_abc() {
        let net = carry_network();
        let lib = Library::cmos22();
        let dc = dc_flow(&net, &lib);
        let dc_area = report(&map_network(&dc.network), &lib).area;
        let abc_area = report(&map_network(&abc_flow(&net)), &lib).area;
        assert!(
            dc_area <= abc_area + 1e-9,
            "best-of flow cannot lose to one of its candidates"
        );
    }
}
