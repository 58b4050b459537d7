//! Combinational equivalence checking, used to validate every optimization
//! flow in the workspace.
//!
//! Two complementary checkers are provided: a fast 64-bit random-vector
//! simulator for circuits of any size, and an exact BDD-based check for
//! circuits whose global BDDs stay tractable.

use crate::collapse::apply_gate;
use crate::network::{GateKind, Network};
use bdd::{Manager, Ref};
use std::fmt;

/// A counterexample found by the simulation checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Name of the first differing output.
    pub output: String,
    /// Input assignment exhibiting the difference.
    pub assignment: Vec<bool>,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "output {} differs under {:?}",
            self.output, self.assignment
        )
    }
}

/// Tiny deterministic xorshift generator so the checker has no external
/// dependencies and failures are reproducible.
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator (zero is mapped to a fixed non-zero seed).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed },
        }
    }

    /// Next pseudo-random 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }
}

/// Checks `a` and `b` for equivalence on `rounds × 64` random input
/// vectors plus the all-zero and all-one vectors.
///
/// Both networks must have the same number of inputs and outputs (outputs
/// are compared positionally).
///
/// # Errors
///
/// Returns the first [`Mismatch`] found. A success only means no difference
/// was observed; use [`equiv_exact`] for a proof on small circuits.
///
/// # Panics
///
/// Panics if the interfaces differ in arity.
pub fn equiv_sim(a: &Network, b: &Network, rounds: usize, seed: u64) -> Result<(), Mismatch> {
    assert_eq!(a.inputs().len(), b.inputs().len(), "input arity differs");
    assert_eq!(a.outputs().len(), b.outputs().len(), "output arity differs");
    let n = a.inputs().len();
    let mut rng = XorShift64::new(seed);
    for round in 0..rounds + 1 {
        let patterns: Vec<u64> = if round == 0 {
            // Deterministic corner patterns: include all-zero / all-one rows.
            (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        0xFFFF_FFFF_0000_0000
                    } else {
                        0xFF00_FF00_FF00_FF00
                    }
                })
                .collect()
        } else {
            (0..n).map(|_| rng.next_u64()).collect()
        };
        let ra = a.simulate(&patterns);
        let rb = b.simulate(&patterns);
        for (idx, (va, vb)) in ra.iter().zip(&rb).enumerate() {
            if va != vb {
                let bit = (va ^ vb).trailing_zeros();
                let assignment = patterns.iter().map(|p| p >> bit & 1 == 1).collect();
                return Err(Mismatch {
                    output: a.outputs()[idx].0.clone(),
                    assignment,
                });
            }
        }
    }
    Ok(())
}

/// Builds the global BDD of every primary output over the primary inputs
/// (input `i` is variable `i`). Returns `None` if the network exceeds
/// `max_nodes` manager nodes during construction (blow-up guard).
pub fn output_bdds(net: &Network, manager: &mut Manager, max_nodes: usize) -> Option<Vec<Ref>> {
    // signal -> its BDD; nodes come in topological order, so every entry
    // is set before it is read
    let mut values = vec![Ref::ZERO; net.len()];
    for (i, &pi) in net.inputs().iter().enumerate() {
        values[pi.index()] = manager.var(i as u32);
    }
    for id in net.signals() {
        let node = net.node(id);
        if matches!(node.kind, GateKind::Input) {
            continue;
        }
        let kids: Vec<Ref> = node.fanins.iter().map(|f| values[f.index()]).collect();
        values[id.index()] = apply_gate(manager, &node.kind, &kids);
        if manager.live_nodes() > max_nodes {
            return None;
        }
    }
    Some(
        net.outputs()
            .iter()
            .map(|(_, s)| values[s.index()])
            .collect(),
    )
}

/// Exact equivalence via canonical global BDDs.
///
/// Returns `Some(true/false)` when both networks fit under `max_nodes`
/// manager nodes, `None` when the check would blow up.
pub fn equiv_exact(a: &Network, b: &Network, max_nodes: usize) -> Option<bool> {
    assert_eq!(a.inputs().len(), b.inputs().len(), "input arity differs");
    assert_eq!(a.outputs().len(), b.outputs().len(), "output arity differs");
    let mut manager = Manager::new();
    let fa = output_bdds(a, &mut manager, max_nodes)?;
    let fb = output_bdds(b, &mut manager, max_nodes)?;
    Some(fa == fb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::GateKind;

    fn xor_as_xor() -> Network {
        let mut n = Network::new("x1");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::Xor, vec![a, b]);
        n.set_output("y", y);
        n
    }

    fn xor_as_aoi() -> Network {
        let mut n = Network::new("x2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.add_gate(GateKind::Inv, vec![a]);
        let nb = n.add_gate(GateKind::Inv, vec![b]);
        let t1 = n.add_gate(GateKind::And, vec![a, nb]);
        let t2 = n.add_gate(GateKind::And, vec![na, b]);
        let y = n.add_gate(GateKind::Or, vec![t1, t2]);
        n.set_output("y", y);
        n
    }

    fn broken_xor() -> Network {
        let mut n = Network::new("x3");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::Or, vec![a, b]);
        n.set_output("y", y);
        n
    }

    #[test]
    fn sim_checker_accepts_equivalent() {
        assert_eq!(equiv_sim(&xor_as_xor(), &xor_as_aoi(), 8, 42), Ok(()));
    }

    #[test]
    fn sim_checker_finds_counterexample() {
        let err = equiv_sim(&xor_as_xor(), &broken_xor(), 8, 42).unwrap_err();
        assert_eq!(err.output, "y");
        // The counterexample must actually distinguish the circuits:
        // or(1,1)=1 but xor(1,1)=0.
        assert_eq!(err.assignment, vec![true, true]);
    }

    #[test]
    fn exact_checker_proves_equivalence() {
        assert_eq!(
            equiv_exact(&xor_as_xor(), &xor_as_aoi(), 1 << 20),
            Some(true)
        );
        assert_eq!(
            equiv_exact(&xor_as_xor(), &broken_xor(), 1 << 20),
            Some(false)
        );
    }

    #[test]
    fn exact_checker_guards_blowup() {
        // A ludicrously small node budget forces the guard to trip.
        let r = equiv_exact(&xor_as_aoi(), &xor_as_aoi(), 2);
        assert_eq!(r, None);
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0, "zero seed must be remapped");
    }
}
