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
use logic::{strash_key, Fanins, GateKind, Network, SignalId};
use std::collections::HashMap;

/// Emits gates into a [`Network`] with structural hashing (keys are the
/// allocation-free fixed-arity arrays built by [`logic::strash_key`]).
#[derive(Debug, Default)]
pub struct Emitter {
    strash: HashMap<(u8, [SignalId; 3]), SignalId, BuildFxHasher>,
    consts: HashMap<bool, SignalId>,
    /// The signals of a [`replay`]'s steps, kept across replays.
    done: Vec<SignalId>,
}

fn kind_code(kind: &GateKind) -> u8 {
    match kind {
        GateKind::Inv => 1,
        GateKind::And => 2,
        GateKind::Or => 3,
        GateKind::Xor => 4,
        GateKind::Xnor => 5,
        GateKind::Maj => 6,
        GateKind::Mux => 7,
        _ => 0,
    }
}

impl Emitter {
    /// Creates an emitter with empty hash tables.
    pub fn new() -> Emitter {
        Emitter::default()
    }

    /// Adds (or reuses) a gate. Commutative gates normalize their fanin
    /// order so equal functions hash equally.
    pub fn gate(
        &mut self,
        net: &mut Network,
        kind: GateKind,
        fanins: impl Into<Fanins>,
    ) -> SignalId {
        let mut fanins = fanins.into();
        match kind {
            GateKind::And | GateKind::Or | GateKind::Xor | GateKind::Xnor | GateKind::Maj => {
                fanins.sort();
            }
            _ => {}
        }
        // Local constant/identity simplifications.
        if let Some(s) = self.simplify(net, &kind, &fanins) {
            return s;
        }
        let key = strash_key(kind_code(&kind), &fanins);
        if let Some(key) = key {
            if let Some(&s) = self.strash.get(&key) {
                return s;
            }
        }
        let s = net.add_gate(kind, fanins);
        if let Some(key) = key {
            self.strash.insert(key, s);
        }
        s
    }

    /// Returns (or creates) the constant driver for `value`.
    pub fn constant(&mut self, net: &mut Network, value: bool) -> SignalId {
        if let Some(&s) = self.consts.get(&value) {
            return s;
        }
        let s = net.add_const(value);
        self.consts.insert(value, s);
        s
    }

    /// Inverter with double-negation elimination.
    pub fn invert(&mut self, net: &mut Network, s: SignalId) -> SignalId {
        if let GateKind::Inv = net.node(s).kind {
            return net.node(s).fanins[0];
        }
        if let GateKind::Const(b) = net.node(s).kind {
            let v = !b;
            return self.constant(net, v);
        }
        self.gate(net, GateKind::Inv, [s])
    }

    fn simplify(
        &mut self,
        net: &mut Network,
        kind: &GateKind,
        fanins: &[SignalId],
    ) -> Option<SignalId> {
        let value_of = |net: &Network, s: SignalId| match net.node(s).kind {
            GateKind::Const(b) => Some(b),
            _ => None,
        };
        match kind {
            GateKind::And | GateKind::Or => {
                let identity = matches!(kind, GateKind::And);
                if fanins.iter().any(|&f| value_of(net, f) == Some(!identity)) {
                    return Some(self.constant(net, !identity));
                }
                let live: Fanins = fanins
                    .iter()
                    .copied()
                    .filter(|&f| value_of(net, f).is_none())
                    .collect();
                match live.len() {
                    0 => Some(self.constant(net, identity)),
                    1 => Some(live[0]),
                    2 if live[0] == live[1] => Some(live[0]),
                    _ if live.len() < fanins.len() => Some(self.gate(net, kind.clone(), live)),
                    _ => None,
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                if fanins.len() == 2 && fanins[0] == fanins[1] {
                    return Some(self.constant(net, matches!(kind, GateKind::Xnor)));
                }
                // Absorb input inverters into the gate polarity:
                // xnor(!a, b) = xor(a, b), xor(!a, b) = xnor(a, b).
                let mut odd = matches!(kind, GateKind::Xnor);
                let mut stripped = Fanins::new();
                let mut changed = false;
                for &f in fanins {
                    if let GateKind::Inv = net.node(f).kind {
                        stripped.push(net.node(f).fanins[0]);
                        odd = !odd;
                        changed = true;
                    } else {
                        stripped.push(f);
                    }
                }
                if changed {
                    let new_kind = if odd { GateKind::Xnor } else { GateKind::Xor };
                    return Some(self.gate(net, new_kind, stripped));
                }
                None
            }
            GateKind::Mux => {
                let (s, t, e) = (fanins[0], fanins[1], fanins[2]);
                match value_of(net, s) {
                    Some(true) => Some(t),
                    Some(false) => Some(e),
                    None if t == e => Some(t),
                    None => None,
                }
            }
            GateKind::Maj => {
                let (a, b, c) = (fanins[0], fanins[1], fanins[2]);
                if a == b {
                    return Some(a);
                }
                if b == c {
                    return Some(b);
                }
                if a == c {
                    return Some(a);
                }
                None
            }
            _ => None,
        }
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
            Step::And(a, b) => emitter.gate(net, GateKind::And, [sig(a), sig(b)]),
            Step::Or(a, b) => emitter.gate(net, GateKind::Or, [sig(a), sig(b)]),
            Step::Xnor(a, b) => emitter.gate(net, GateKind::Xnor, [sig(a), sig(b)]),
            Step::Maj(a, b, c) => emitter.gate(net, GateKind::Maj, [sig(a), sig(b), sig(c)]),
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
        let mut e = Emitter::new();
        let g1 = e.gate(&mut net, GateKind::And, vec![a, b]);
        let g2 = e.gate(&mut net, GateKind::And, vec![b, a]);
        assert_eq!(g1, g2, "commutative gates must hash equally");
        let g3 = e.gate(&mut net, GateKind::Or, vec![a, b]);
        assert_ne!(g1, g3);
    }

    #[test]
    fn constants_are_shared_and_folded() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let mut e = Emitter::new();
        let one = e.constant(&mut net, true);
        let and = e.gate(&mut net, GateKind::And, vec![a, one]);
        assert_eq!(and, a, "and with true folds away");
        let or = e.gate(&mut net, GateKind::Or, vec![a, one]);
        assert_eq!(or, one, "or with true is true");
        assert_eq!(e.constant(&mut net, true), one);
    }

    #[test]
    fn invert_cancels() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let mut e = Emitter::new();
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
        let mut e = Emitter::new();
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

    #[test]
    fn wide_gates_skip_strash_but_still_emit() {
        let mut net = Network::new("t");
        let ins: Vec<SignalId> = (0..5).map(|i| net.add_input(format!("i{i}"))).collect();
        let mut e = Emitter::new();
        let g1 = e.gate(&mut net, GateKind::And, ins.clone());
        let g2 = e.gate(&mut net, GateKind::And, ins.clone());
        // Wide gates fall outside the fixed-arity strash: emitted twice,
        // but both are valid AND gates over the same fanins.
        assert!(matches!(net.node(g1).kind, GateKind::And));
        assert!(matches!(net.node(g2).kind, GateKind::And));
        assert_eq!(net.node(g1).fanins.len(), 5);
    }

    #[test]
    fn maj_duplicate_inputs_simplify() {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut e = Emitter::new();
        let g = e.gate(&mut net, GateKind::Maj, vec![a, a, b]);
        assert_eq!(g, a, "Maj(a,a,b) = a");
    }
}
