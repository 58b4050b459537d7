//! Factoring-tree emission: turns decomposition results into [`Network`]
//! gates with *online logic sharing*.
//!
//! BDS stores decomposition results in factoring trees and detects sharing
//! during construction; BDD canonicity makes the detection a table lookup.
//! Here the same effect is obtained with two layers of memoization: a
//! per-supernode map from BDD [`Ref`]s to the operands (cut inputs or
//! recorded steps) implementing them, and a global structural-hash table
//! so identical gates are reused across factoring trees.
//!
//! A decomposition only records its emitter calls, as [`Step`]s over
//! cut-input positions. Every cone reaches the network through [`replay`]:
//! a cone that decomposed replays its own steps with its cut signals, and
//! a later supernode with the same BDD under the same order replays them
//! with its own.

use bdd::{BuildFxHasher, Manager, Ref};
use logic::{strash_key, GateKind, Network, SignalId};
use std::collections::HashMap;

/// Emits the gates of replayed [`Step`]s into a [`Network`]: two-input
/// AND, OR and XNOR (XOR only where an inverter is absorbed), MAJ-3,
/// inverters and constants, with local simplifications and structural
/// hashing (keys are the allocation-free arrays of [`logic::strash_key`]).
#[derive(Debug, Default)]
pub(crate) struct Emitter {
    strash: HashMap<(u8, [SignalId; 3]), SignalId, BuildFxHasher>,
    /// The constant of each value, once made.
    consts: [Option<SignalId>; 2],
    /// The signals of a [`replay`]'s steps, kept across replays.
    done: Vec<SignalId>,
}

/// The value of `s`, if it is a constant.
fn value_of(net: &Network, s: SignalId) -> Option<bool> {
    match net.node(s).kind {
        GateKind::Const(b) => Some(b),
        _ => None,
    }
}

impl Emitter {
    /// Reuses the gate `kind` over `fanins`, or adds it; callers sort the
    /// fanins.
    fn hashed(&mut self, net: &mut Network, kind: GateKind, fanins: &[SignalId]) -> SignalId {
        let key = strash_key(&kind, fanins);
        *self
            .strash
            .entry(key)
            .or_insert_with(|| net.add_gate(kind, fanins))
    }

    /// Two-input AND or OR: a constant fanin folds, and `x·x = x + x = x`.
    fn and_or(&mut self, net: &mut Network, kind: GateKind, a: SignalId, b: SignalId) -> SignalId {
        let identity = kind == GateKind::And;
        let (a, b) = (a.min(b), a.max(b));
        let (va, vb) = (value_of(net, a), value_of(net, b));
        if va == Some(!identity) || vb == Some(!identity) {
            return self.constant(net, !identity);
        }
        match (va, vb) {
            (Some(_), Some(_)) => self.constant(net, identity),
            (Some(_), None) => b,
            (None, Some(_)) => a,
            (None, None) if a == b => a,
            (None, None) => self.hashed(net, kind, &[a, b]),
        }
    }

    /// Two-input XNOR, or XOR when `xnor` is false: `x ⊙ x = 1`,
    /// `x ⊕ x = 0`, and an inverted fanin is absorbed into the polarity
    /// (`!a ⊙ b = a ⊕ b`). Constant fanins stay.
    fn parity(&mut self, net: &mut Network, xnor: bool, a: SignalId, b: SignalId) -> SignalId {
        let (a, b) = (a.min(b), a.max(b));
        if a == b {
            return self.constant(net, xnor);
        }
        let uninverted = |s: SignalId| match net.node(s).kind {
            GateKind::Inv => Some(net.node(s).fanins[0]),
            _ => None,
        };
        match (uninverted(a), uninverted(b)) {
            (None, None) => {
                let kind = if xnor { GateKind::Xnor } else { GateKind::Xor };
                self.hashed(net, kind, &[a, b])
            }
            (ua, ub) => {
                let xnor = xnor ^ ua.is_some() ^ ub.is_some();
                self.parity(net, xnor, ua.unwrap_or(a), ub.unwrap_or(b))
            }
        }
    }

    /// MAJ-3: `Maj(x, x, y) = x`.
    fn maj(&mut self, net: &mut Network, mut fanins: [SignalId; 3]) -> SignalId {
        fanins.sort();
        if fanins[0] == fanins[1] || fanins[1] == fanins[2] {
            return fanins[1];
        }
        self.hashed(net, GateKind::Maj, &fanins)
    }

    /// Returns (or creates) the constant driver for `value`.
    fn constant(&mut self, net: &mut Network, value: bool) -> SignalId {
        *self.consts[usize::from(value)].get_or_insert_with(|| net.add_const(value))
    }

    /// Inverter with double-negation elimination.
    fn invert(&mut self, net: &mut Network, s: SignalId) -> SignalId {
        if let GateKind::Inv = net.node(s).kind {
            return net.node(s).fanins[0];
        }
        if let GateKind::Const(b) = net.node(s).kind {
            return self.constant(net, !b);
        }
        self.hashed(net, GateKind::Inv, &[s])
    }
}

/// A signal of one cone's decomposition, named so that another cone can
/// replay it: a cut input by position, or the result of an earlier
/// [`Step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Operand {
    Input(u32),
    Step(u32),
}

/// One [`Emitter`] call of a cone's decomposition, over [`Operand`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    And(Operand, Operand),
    Or(Operand, Operand),
    Xnor(Operand, Operand),
    Maj(Operand, Operand, Operand),
    Invert(Operand),
    Const(bool),
}

/// The signal `op` names, given the cone's cut signals and the signals
/// of the steps made so far.
fn resolve(op: Operand, inputs: &[SignalId], done: &[SignalId]) -> SignalId {
    match op {
        Operand::Input(i) => inputs[i as usize],
        Operand::Step(i) => done[i as usize],
    }
}

impl Step {
    /// Makes this step's emitter call; `done` holds the signals of the
    /// steps before it.
    fn emit(
        self,
        emitter: &mut Emitter,
        net: &mut Network,
        inputs: &[SignalId],
        done: &[SignalId],
    ) -> SignalId {
        let sig = |op| resolve(op, inputs, done);
        match self {
            Step::And(a, b) => emitter.and_or(net, GateKind::And, sig(a), sig(b)),
            Step::Or(a, b) => emitter.and_or(net, GateKind::Or, sig(a), sig(b)),
            Step::Xnor(a, b) => emitter.parity(net, true, sig(a), sig(b)),
            Step::Maj(a, b, c) => emitter.maj(net, [sig(a), sig(b), sig(c)]),
            Step::Invert(a) => emitter.invert(net, sig(a)),
            Step::Const(value) => emitter.constant(net, value),
        }
    }
}

/// Makes the recorded `steps` through `emitter` for a cone whose cut
/// signals are `inputs`, and returns the signal `result` names. The
/// emitter sees the calls the recording cone made, with this cone's
/// signals in them.
pub(crate) fn replay(
    steps: &[Step],
    result: Operand,
    emitter: &mut Emitter,
    net: &mut Network,
    inputs: &[SignalId],
) -> SignalId {
    let mut done = std::mem::take(&mut emitter.done);
    done.clear();
    for &step in steps {
        let s = step.emit(emitter, net, inputs, &done);
        done.push(s);
    }
    let s = resolve(result, inputs, &done);
    emitter.done = done;
    s
}

/// Records the emitter calls that implement BDD functions of one
/// supernode, as [`Step`]s for [`replay`]; BDD variable `i` is the cut
/// input at position `i`. A map from (possibly complemented) references to
/// operands provides the canonicity-based sharing inside the factoring
/// tree.
#[derive(Debug, Default)]
pub(crate) struct FunctionEmitter {
    steps: Vec<Step>,
    memo: HashMap<Ref, Operand, BuildFxHasher>,
}

impl FunctionEmitter {
    /// Consumes the emitter, returning the steps it recorded.
    pub(crate) fn into_steps(self) -> Vec<Step> {
        self.steps
    }

    /// Records `step`; returns the operand naming its result.
    pub(crate) fn record(&mut self, step: Step) -> Operand {
        self.steps.push(step);
        Operand::Step(self.steps.len() as u32 - 1)
    }

    /// Records the operand implementing `f`.
    pub(crate) fn insert(&mut self, f: Ref, op: Operand) {
        self.memo.insert(f, op);
    }

    /// Records (or reuses) the literal / constant base cases; returns
    /// `None` for functions that need real decomposition.
    pub(crate) fn record_base(&mut self, m: &Manager, f: Ref) -> Option<Operand> {
        if let Some(&op) = self.memo.get(&f) {
            return Some(op);
        }
        let op = if f.is_const() {
            self.record(Step::Const(f.is_one()))
        } else {
            let node = m.node(f.node());
            if !(node.low.is_const() && node.high.is_const()) {
                return None;
            }
            // A single node over one variable: the literal v or !v.
            let base = Operand::Input(node.var.0);
            if is_positive_literal(m, f) {
                base
            } else {
                self.record(Step::Invert(base))
            }
        };
        self.insert(f, op);
        Some(op)
    }
}

/// For a single-node function, whether it is the positive literal.
fn is_positive_literal(m: &Manager, f: Ref) -> bool {
    // A size-1 BDD is var (low=0, high=1) possibly complemented.
    let node = m.node(f.node());
    debug_assert!(
        node.low.is_zero() && node.high.is_one(),
        "canonical single-variable node must be the positive literal"
    );
    !f.is_complemented()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strash_reuses_equal_gates() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut e = Emitter::default();
        let g1 = e.and_or(&mut net, GateKind::And, a, b);
        let g2 = e.and_or(&mut net, GateKind::And, b, a);
        assert_eq!(g1, g2, "commutative gates must hash equally");
        let g3 = e.and_or(&mut net, GateKind::Or, a, b);
        assert_ne!(g1, g3);
    }

    #[test]
    fn constants_are_shared_and_folded() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let mut e = Emitter::default();
        let one = e.constant(&mut net, true);
        let and = e.and_or(&mut net, GateKind::And, a, one);
        assert_eq!(and, a, "and with true folds away");
        let or = e.and_or(&mut net, GateKind::Or, a, one);
        assert_eq!(or, one, "or with true is true");
        assert_eq!(e.constant(&mut net, true), one);
    }

    #[test]
    fn invert_cancels() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let mut e = Emitter::default();
        let na = e.invert(&mut net, a);
        let nna = e.invert(&mut net, na);
        assert_eq!(nna, a);
    }

    #[test]
    fn function_emitter_handles_literals() {
        let mut m = Manager::new();
        let f = m.var(0);
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut e = Emitter::default();
        let mut fe = FunctionEmitter::default();
        let s = fe.record_base(&m, f).expect("literal");
        assert_eq!(s, Operand::Input(0));
        let ns = fe.record_base(&m, !f).expect("neg literal");
        // Memoized on second ask.
        assert_eq!(fe.record_base(&m, !f), Some(ns));
        // One call was recorded and nothing emitted yet.
        let steps = fe.into_steps();
        assert_eq!(steps, [Step::Invert(Operand::Input(0))]);
        assert_eq!(net.len(), 2);
        // Replayed over `a`, it inverts `a`; over `b`, it inverts `b`.
        let na = replay(&steps, ns, &mut e, &mut net, &[a]);
        assert!(matches!(net.node(na).kind, GateKind::Inv));
        assert_eq!(net.node(na).fanins, [a]);
        assert_eq!(replay(&steps, s, &mut e, &mut net, &[a]), a);
        let nb = replay(&steps, ns, &mut e, &mut net, &[b]);
        assert_eq!(net.node(nb).fanins, [b]);
    }

    /// An inverted fanin flips XNOR to XOR (`!a ⊙ b = a ⊕ b`), two flip
    /// it back, and equal fanins make a constant.
    #[test]
    fn parity_absorbs_inverters() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut e = Emitter::default();
        let (na, nb) = (e.invert(&mut net, a), e.invert(&mut net, b));
        let x = e.parity(&mut net, true, na, b);
        assert_eq!(net.node(x).kind, GateKind::Xor);
        assert_eq!(net.node(x).fanins, [a, b]);
        let xnor = e.parity(&mut net, true, a, b);
        assert_eq!(net.node(xnor).kind, GateKind::Xnor);
        assert_eq!(e.parity(&mut net, true, na, nb), xnor);
        let one = e.constant(&mut net, true);
        assert_eq!(e.parity(&mut net, true, na, na), one);
    }

    #[test]
    fn maj_duplicate_inputs_simplify() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut e = Emitter::default();
        let g = e.maj(&mut net, [a, a, b]);
        assert_eq!(g, a, "Maj(a,a,b) = a");
    }
}
