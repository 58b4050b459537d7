//! The complete BDS-MAJ logic optimization system (§IV of the paper):
//! network partitioning → BDD decomposition with the majority hook →
//! factoring trees with sharing. Also provides the BDS-PGA baseline (the
//! same engine with the majority hook disabled).
//!
//! Both flows run in bounded BDD memory: after the partition, the engine
//! underneath holds one cone in the BDD arena at a time. It clears the
//! manager before each supernode (`bdd::Manager::clear`) and builds that
//! cone again under the current variable order, so memory tracks the
//! largest cone's working set, not the whole network.

use crate::maj::{MajConfig, MajDecomposer};
use decomp::{decompose_network, DecomposeResult, EngineOptions, NoMajority};
use logic::Network;

/// Options of the full BDS-MAJ flow.
#[derive(Clone, Debug, Default)]
pub struct BdsMajOptions {
    /// Partitioning and dominator-search bounds of the underlying engine.
    pub engine: EngineOptions,
    /// Majority decomposition tuning (paper defaults).
    pub maj: MajConfig,
}

/// Statistics reported by [`bds_maj`] beyond the decomposed network.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// Decomposition outcome (network + runtime).
    pub result: DecomposeResult,
    /// Majority hook calls that returned a MAJ split
    /// ([`MajDecomposer::accepted`]); cones the engine replays make none.
    pub maj_accepted: usize,
    /// Majority hook calls that declined ([`MajDecomposer::rejected`]).
    pub maj_rejected: usize,
}

impl FlowResult {
    /// Shorthand for the decomposed network.
    pub fn network(&self) -> &Network {
        &self.result.network
    }

    /// Per-cone budget outcomes of the run (all `Ok` when unbudgeted).
    pub fn report(&self) -> &decomp::FlowReport {
        &self.result.report
    }
}

/// Runs the BDS-MAJ decomposition flow on a network.
///
/// # Example
///
/// ```
/// use logic::{Network, GateKind, equiv_sim};
/// use bdsmaj::{bds_maj, BdsMajOptions};
///
/// let mut net = Network::new("maj");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let c = net.add_input("c");
/// let ab = net.add_gate(GateKind::And, vec![a, b]);
/// let bc = net.add_gate(GateKind::And, vec![b, c]);
/// let ac = net.add_gate(GateKind::And, vec![a, c]);
/// let o1 = net.add_gate(GateKind::Or, vec![ab, bc]);
/// let f = net.add_gate(GateKind::Or, vec![o1, ac]);
/// net.set_output("f", f);
///
/// let out = bds_maj(&net, &BdsMajOptions::default());
/// assert!(equiv_sim(&net, out.network(), 8, 1).is_ok());
/// assert_eq!(out.network().gate_counts().maj, 1); // a single MAJ-3 gate
/// ```
pub fn bds_maj(net: &Network, options: &BdsMajOptions) -> FlowResult {
    let mut hook = MajDecomposer::new(options.maj);
    let result = decompose_network(net, &options.engine, &mut hook);
    FlowResult {
        result,
        maj_accepted: hook.accepted,
        maj_rejected: hook.rejected,
    }
}

/// Runs the BDS-PGA baseline: the identical engine and options with the
/// majority hook disabled, which is exactly the comparison of Table I.
pub fn bds_pga(net: &Network, options: &EngineOptions) -> DecomposeResult {
    decompose_network(net, options, &mut NoMajority)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{equiv_exact, equiv_sim, GateKind, Network, SignalId};

    fn majority_rich_network() -> Network {
        // A 4-bit ripple-carry adder written in AND/OR/XOR form (no MAJ
        // gates in the input): the carry chain is majority logic in
        // disguise, the exact motivation of the paper.
        let mut net = Network::new("add4_aoi");
        let a: Vec<SignalId> = (0..4).map(|i| net.add_input(format!("a{i}"))).collect();
        let b: Vec<SignalId> = (0..4).map(|i| net.add_input(format!("b{i}"))).collect();
        let mut carry: Option<SignalId> = None;
        for i in 0..4 {
            match carry {
                None => {
                    let s = net.add_gate(GateKind::Xor, vec![a[i], b[i]]);
                    let c = net.add_gate(GateKind::And, vec![a[i], b[i]]);
                    net.set_output(format!("s{i}"), s);
                    carry = Some(c);
                }
                Some(cin) => {
                    let s = net.add_gate(GateKind::Xor, vec![a[i], b[i], cin]);
                    // carry = ab + bc + ac spelled out with AND/OR.
                    let ab = net.add_gate(GateKind::And, vec![a[i], b[i]]);
                    let bc = net.add_gate(GateKind::And, vec![b[i], cin]);
                    let ac = net.add_gate(GateKind::And, vec![a[i], cin]);
                    let t = net.add_gate(GateKind::Or, vec![ab, bc]);
                    let c = net.add_gate(GateKind::Or, vec![t, ac]);
                    net.set_output(format!("s{i}"), s);
                    carry = Some(c);
                }
            }
        }
        net.set_output("cout", carry.unwrap());
        net
    }

    #[test]
    fn bds_maj_preserves_function() {
        let net = majority_rich_network();
        let out = bds_maj(&net, &BdsMajOptions::default());
        assert_eq!(equiv_sim(&net, out.network(), 32, 9), Ok(()));
    }

    #[test]
    fn bds_maj_extracts_majority_gates() {
        let net = majority_rich_network();
        let out = bds_maj(&net, &BdsMajOptions::default());
        let counts = out.network().gate_counts();
        assert!(
            counts.maj >= 2,
            "the carry chain must surface MAJ gates, got {counts:?}"
        );
        // Distinct functions are decomposed once and shared afterwards, so
        // the accepted counter is a lower bound on emitted MAJ gates.
        assert!(out.maj_accepted >= 1);
    }

    #[test]
    fn bds_maj_beats_bds_pga_on_majority_logic() {
        let net = majority_rich_network();
        let with = bds_maj(&net, &BdsMajOptions::default());
        let without = bds_pga(&net, &EngineOptions::default());
        assert_eq!(equiv_sim(&net, &without.network, 32, 9), Ok(()));
        let n_with = with.network().gate_counts().decomposition_total();
        let n_without = without.network.gate_counts().decomposition_total();
        assert!(
            n_with <= n_without,
            "BDS-MAJ ({n_with}) must not be larger than BDS-PGA ({n_without})"
        );
    }

    /// A ripple-carry adder of identical full-adder slices, sum and carry
    /// in AND/OR/XOR form, carry-in a primary input.
    fn ripple_carry_adder(bits: usize) -> Network {
        let mut net = Network::new("rca");
        let mut carry = net.add_input("cin");
        for i in 0..bits {
            let a = net.add_input(format!("a{i}"));
            let b = net.add_input(format!("b{i}"));
            let s = net.add_gate(GateKind::Xor, vec![a, b, carry]);
            let ab = net.add_gate(GateKind::And, vec![a, b]);
            let bc = net.add_gate(GateKind::And, vec![b, carry]);
            let ac = net.add_gate(GateKind::And, vec![a, carry]);
            let t = net.add_gate(GateKind::Or, vec![ab, bc]);
            carry = net.add_gate(GateKind::Or, vec![t, ac]);
            net.set_output(format!("s{i}"), s);
        }
        net.set_output("cout", carry);
        net
    }

    /// Every slice of the adder has the sum and carry BDDs of the slice
    /// before, and both are symmetric in their three inputs, so no
    /// reorder moves the order: the first slice's two cones are
    /// decomposed, and the other seven slices' 14 cones are replayed.
    #[test]
    fn identical_adder_slices_are_replayed() {
        let net = ripple_carry_adder(8);
        let maj = bds_maj(&net, &BdsMajOptions::default());
        let pga = bds_pga(&net, &EngineOptions::default());
        for (flow, out, report) in [
            ("BDS-MAJ", maj.network(), maj.report()),
            ("BDS-PGA", &pga.network, &pga.report),
        ] {
            assert_eq!(equiv_exact(&net, out, 1 << 16), Some(true), "{flow}");
            assert_eq!(
                (report.cones.len(), report.replayed_count()),
                (16, 14),
                "{flow}: cones and replayed cones"
            );
        }
    }

    #[test]
    fn flows_agree_on_pure_control_logic() {
        // AND/OR logic offers no m-dominators: both flows should produce
        // equivalent, MAJ-free results.
        let mut net = Network::new("ctrl");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let t1 = net.add_gate(GateKind::And, vec![a, b]);
        let t2 = net.add_gate(GateKind::And, vec![c, d]);
        let t3 = net.add_gate(GateKind::Or, vec![t1, t2]);
        let t4 = net.add_gate(GateKind::And, vec![t3, a]);
        net.set_output("y", t4);
        let with = bds_maj(&net, &BdsMajOptions::default());
        assert_eq!(equiv_sim(&net, with.network(), 16, 2), Ok(()));
    }
}
