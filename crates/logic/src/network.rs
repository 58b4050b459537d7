//! The multi-level Boolean logic network: the common circuit representation
//! shared by benchmark generators, decomposition engines, baselines and the
//! technology mapper.

use crate::truth::TruthTable;
use std::fmt;

/// Identifier of a signal (equivalently, of the node driving it).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SignalId(pub u32);

impl SignalId {
    /// Index as `usize` for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Pad value for unused [`strash_key`] slots, and the unmapped entry of
/// the dense old→new signal tables of network-to-network passes; never a
/// real signal index (signals are dense arena indices far below
/// `u32::MAX`).
pub const STRASH_PAD: SignalId = SignalId(u32::MAX);

/// Builds the fixed-arity structural-hash key shared by the gate emitters
/// (`decomp::Emitter`, the techmap covering pass): gates carry at most
/// three fanins, so keying on `(code, [SignalId; 3])` padded with
/// [`STRASH_PAD`] avoids allocating a `Vec` per lookup.
///
/// Returns `None` for gates outside structural hashing (code 0, or wider
/// than three fanins). Callers sort commutative fanins *before* calling —
/// this helper never reorders (MUX-like gates are order-sensitive).
pub fn strash_key(code: u8, fanins: &[SignalId]) -> Option<(u8, [SignalId; 3])> {
    if code == 0 || fanins.len() > 3 {
        return None;
    }
    let mut key = [STRASH_PAD; 3];
    key[..fanins.len()].copy_from_slice(fanins);
    Some((code, key))
}

/// The function computed by a node from its fanins.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GateKind {
    /// Primary input (no fanins).
    Input,
    /// Constant driver (no fanins).
    Const(bool),
    /// Buffer (1 fanin).
    Buf,
    /// Inverter (1 fanin).
    Inv,
    /// n-ary conjunction (≥ 1 fanins).
    And,
    /// n-ary disjunction (≥ 1 fanins).
    Or,
    /// n-ary negated conjunction.
    Nand,
    /// n-ary negated disjunction.
    Nor,
    /// n-ary parity (exclusive or).
    Xor,
    /// Complement of n-ary parity.
    Xnor,
    /// Three-input majority.
    Maj,
    /// Multiplexer: fanins are `[select, then, else]`.
    Mux,
    /// Arbitrary function of the fanins given by a truth table.
    Lut(TruthTable),
}

impl GateKind {
    /// Short lowercase tag used in reports and BLIF names.
    pub fn tag(&self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Const(_) => "const",
            GateKind::Buf => "buf",
            GateKind::Inv => "inv",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Maj => "maj",
            GateKind::Mux => "mux",
            GateKind::Lut(_) => "lut",
        }
    }
}

/// One node of a [`Network`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetNode {
    /// The function this node computes.
    pub kind: GateKind,
    /// Driving signals, in positional order (see [`GateKind`] for meaning).
    pub fanins: Vec<SignalId>,
    /// Optional user-facing name (BLIF identifier).
    pub name: Option<String>,
}

/// Per-gate-type node counts, the decomposition metric of Table I.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct GateCounts {
    pub and: usize,
    pub or: usize,
    pub xor: usize,
    pub xnor: usize,
    pub maj: usize,
    pub mux: usize,
    pub inv: usize,
    pub buf: usize,
    pub lut: usize,
    pub constant: usize,
    pub input: usize,
    pub nand: usize,
    pub nor: usize,
}

impl GateCounts {
    /// Total count of *logic* nodes, as reported in Table I of the paper:
    /// AND + OR + XOR + XNOR + MAJ (decomposition node types). Inverters are
    /// free on complemented edges and MUX nodes are expanded by the
    /// factoring stage, so the paper's totals cover these five types.
    pub fn decomposition_total(&self) -> usize {
        self.and + self.or + self.xor + self.xnor + self.maj
    }

    /// Total of all function-bearing nodes (everything except inputs,
    /// buffers and constants).
    pub fn logic_total(&self) -> usize {
        self.and
            + self.or
            + self.nand
            + self.nor
            + self.xor
            + self.xnor
            + self.maj
            + self.mux
            + self.inv
            + self.lut
    }
}

impl fmt::Display for GateCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AND {} OR {} XOR {} XNOR {} MAJ {} (total {})",
            self.and,
            self.or,
            self.xor,
            self.xnor,
            self.maj,
            self.decomposition_total()
        )
    }
}

/// A combinational multi-level logic network.
///
/// Nodes are stored in topological order by construction: a node's fanins
/// must already exist when the node is added. Primary outputs are named
/// references to signals.
///
/// # Example
///
/// ```
/// use logic::{Network, GateKind};
/// let mut net = Network::new("xor_gate");
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let x = net.add_gate(GateKind::Xor, vec![a, b]);
/// net.set_output("y", x);
/// assert_eq!(net.simulate(&[0b1100, 0b1010])[0] & 0xF, 0b0110);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    name: String,
    nodes: Vec<NetNode>,
    inputs: Vec<SignalId>,
    outputs: Vec<(String, SignalId)>,
}

impl Network {
    /// Creates an empty network with the given model name.
    pub fn new(name: impl Into<String>) -> Network {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input and returns its signal.
    pub fn add_input(&mut self, name: impl Into<String>) -> SignalId {
        let id = self.push(NetNode {
            kind: GateKind::Input,
            fanins: vec![],
            name: Some(name.into()),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a gate node over existing signals and returns its signal.
    ///
    /// # Panics
    ///
    /// Panics if a fanin does not exist yet (networks are built in
    /// topological order) or the fanin count does not fit the gate kind.
    pub fn add_gate(&mut self, kind: GateKind, fanins: Vec<SignalId>) -> SignalId {
        for f in &fanins {
            assert!(
                f.index() < self.nodes.len(),
                "fanin {f:?} does not exist yet"
            );
        }
        match &kind {
            GateKind::Input => panic!("use add_input for primary inputs"),
            GateKind::Const(_) => assert!(fanins.is_empty(), "constants take no fanins"),
            GateKind::Buf | GateKind::Inv => {
                assert_eq!(fanins.len(), 1, "{} takes one fanin", kind.tag())
            }
            GateKind::Maj => assert_eq!(fanins.len(), 3, "maj takes three fanins"),
            GateKind::Mux => assert_eq!(fanins.len(), 3, "mux takes [sel, then, else]"),
            GateKind::Lut(t) => {
                assert_eq!(t.num_inputs() as usize, fanins.len(), "LUT arity mismatch")
            }
            GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => {
                assert!(
                    !fanins.is_empty(),
                    "{} needs at least one fanin",
                    kind.tag()
                )
            }
        }
        self.push(NetNode {
            kind,
            fanins,
            name: None,
        })
    }

    /// Adds a constant driver.
    pub fn add_const(&mut self, value: bool) -> SignalId {
        self.add_gate(GateKind::Const(value), vec![])
    }

    fn push(&mut self, node: NetNode) -> SignalId {
        let id = SignalId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Declares `signal` as the primary output `name`.
    pub fn set_output(&mut self, name: impl Into<String>, signal: SignalId) {
        assert!(signal.index() < self.nodes.len(), "unknown signal");
        self.outputs.push((name.into(), signal));
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Primary outputs as (name, signal) pairs.
    pub fn outputs(&self) -> &[(String, SignalId)] {
        &self.outputs
    }

    /// Read access to a node.
    pub fn node(&self, id: SignalId) -> &NetNode {
        &self.nodes[id.index()]
    }

    /// All signals in topological order.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.nodes.len() as u32).map(SignalId)
    }

    /// Number of nodes of any kind.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Name of a signal: its declared name, or a positional fallback.
    pub fn signal_name(&self, id: SignalId) -> String {
        self.nodes[id.index()]
            .name
            .clone()
            .unwrap_or_else(|| format!("n{}", id.0))
    }

    /// Sets a display name on a node.
    pub fn set_signal_name(&mut self, id: SignalId, name: impl Into<String>) {
        self.nodes[id.index()].name = Some(name.into());
    }

    /// Number of fanouts per signal (outputs count as one fanout each).
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for f in &node.fanins {
                counts[f.index()] += 1;
            }
        }
        for (_, s) in &self.outputs {
            counts[s.index()] += 1;
        }
        counts
    }

    /// Bit-parallel simulation: `patterns[i]` carries 64 assignments of
    /// input `i` (one per bit). Returns one word per primary output.
    ///
    /// # Panics
    ///
    /// Panics if `patterns.len()` differs from the number of inputs.
    pub fn simulate(&self, patterns: &[u64]) -> Vec<u64> {
        assert_eq!(patterns.len(), self.inputs.len(), "pattern arity mismatch");
        let mut values = vec![0u64; self.nodes.len()];
        let mut next_input = 0usize;
        for (idx, node) in self.nodes.iter().enumerate() {
            let v = |s: SignalId| values[s.index()];
            values[idx] = match &node.kind {
                GateKind::Input => {
                    let p = patterns[next_input];
                    next_input += 1;
                    p
                }
                GateKind::Const(b) => {
                    if *b {
                        u64::MAX
                    } else {
                        0
                    }
                }
                GateKind::Buf => v(node.fanins[0]),
                GateKind::Inv => !v(node.fanins[0]),
                GateKind::And => node.fanins.iter().fold(u64::MAX, |acc, &f| acc & v(f)),
                GateKind::Or => node.fanins.iter().fold(0, |acc, &f| acc | v(f)),
                GateKind::Nand => !node.fanins.iter().fold(u64::MAX, |acc, &f| acc & v(f)),
                GateKind::Nor => !node.fanins.iter().fold(0, |acc, &f| acc | v(f)),
                GateKind::Xor => node.fanins.iter().fold(0, |acc, &f| acc ^ v(f)),
                GateKind::Xnor => !node.fanins.iter().fold(0, |acc, &f| acc ^ v(f)),
                GateKind::Maj => {
                    let (a, b, c) = (v(node.fanins[0]), v(node.fanins[1]), v(node.fanins[2]));
                    (a & b) | (b & c) | (a & c)
                }
                GateKind::Mux => {
                    let (s, t, e) = (v(node.fanins[0]), v(node.fanins[1]), v(node.fanins[2]));
                    (s & t) | (!s & e)
                }
                GateKind::Lut(table) => {
                    let mut out = 0u64;
                    for bit in 0..64 {
                        let mut row = 0usize;
                        for (i, &f) in node.fanins.iter().enumerate() {
                            if v(f) >> bit & 1 == 1 {
                                row |= 1 << i;
                            }
                        }
                        if table.value(row) {
                            out |= 1 << bit;
                        }
                    }
                    out
                }
            };
        }
        self.outputs
            .iter()
            .map(|(_, s)| values[s.index()])
            .collect()
    }

    /// Per-type node counts.
    pub fn gate_counts(&self) -> GateCounts {
        let mut c = GateCounts::default();
        for node in &self.nodes {
            match &node.kind {
                GateKind::Input => c.input += 1,
                GateKind::Const(_) => c.constant += 1,
                GateKind::Buf => c.buf += 1,
                GateKind::Inv => c.inv += 1,
                GateKind::And => c.and += 1,
                GateKind::Or => c.or += 1,
                GateKind::Nand => c.nand += 1,
                GateKind::Nor => c.nor += 1,
                GateKind::Xor => c.xor += 1,
                GateKind::Xnor => c.xnor += 1,
                GateKind::Maj => c.maj += 1,
                GateKind::Mux => c.mux += 1,
                GateKind::Lut(_) => c.lut += 1,
            }
        }
        c
    }

    /// Logic depth: the longest input-to-output path counting every
    /// non-buffer logic node as one level.
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.nodes.len()];
        let mut max = 0;
        for (idx, node) in self.nodes.iter().enumerate() {
            let in_level = node
                .fanins
                .iter()
                .map(|f| level[f.index()])
                .max()
                .unwrap_or(0);
            let own = match node.kind {
                GateKind::Input | GateKind::Const(_) | GateKind::Buf => 0,
                _ => 1,
            };
            level[idx] = in_level + own;
            max = max.max(level[idx]);
        }
        max
    }

    /// Returns a structurally cleaned copy: dead nodes removed, constants
    /// propagated, buffers bypassed, double inverters collapsed, and
    /// single-fanin AND/OR/XOR reduced to buffers (then removed).
    ///
    /// The pass is iterated, so simplifications that expose further dead
    /// logic (e.g. a collapsed inverter pair) are fully cleaned up. The
    /// iteration stops at the first of:
    /// - a no-op pass, whose output equals its input node for node (names
    ///   included), with the same inputs and outputs: the output is
    ///   returned, since another pass would return it unchanged;
    /// - a pass that does not shrink the network: its input is returned;
    /// - the ninth pass: its output is returned.
    pub fn cleaned(&self) -> Network {
        let mut current = self.cleaned_once();
        if current.same_as(self) {
            return current;
        }
        for _ in 0..8 {
            let next = current.cleaned_once();
            if next.len() >= current.len() {
                return current;
            }
            current = next;
        }
        current
    }

    /// Whether `self` and `other` hold the same nodes (names included),
    /// inputs and outputs.
    fn same_as(&self, other: &Network) -> bool {
        self.nodes == other.nodes && self.inputs == other.inputs && self.outputs == other.outputs
    }

    fn cleaned_once(&self) -> Network {
        let mut out = Network::new(self.name.clone());
        // old signal -> new signal; STRASH_PAD until mapped
        let mut map = vec![STRASH_PAD; self.nodes.len()];
        // Mark live nodes (reachable from outputs).
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<SignalId> = self.outputs.iter().map(|(_, s)| *s).collect();
        while let Some(s) = stack.pop() {
            if live[s.index()] {
                continue;
            }
            live[s.index()] = true;
            stack.extend(self.nodes[s.index()].fanins.iter().copied());
        }
        // Inputs are always preserved to keep the interface stable.
        for &pi in &self.inputs {
            let name = self.signal_name(pi);
            map[pi.index()] = out.add_input(name);
        }
        let mut const_cache = [None; 2];
        for (idx, node) in self.nodes.iter().enumerate() {
            if !live[idx] || map[idx] != STRASH_PAD {
                continue;
            }
            let fanins: Vec<SignalId> = node.fanins.iter().map(|f| map[f.index()]).collect();
            map[idx] = out.rewrite_gate(node.kind.clone(), fanins, &mut const_cache);
        }
        for (name, s) in &self.outputs {
            out.set_output(name.clone(), map[s.index()]);
        }
        out
    }

    /// Adds a gate applying local simplifications; used by [`Self::cleaned`]
    /// and by decomposition emitters. `const_cache[v]` holds the constant
    /// `v` once this pass has made it.
    fn rewrite_gate(
        &mut self,
        kind: GateKind,
        fanins: Vec<SignalId>,
        const_cache: &mut [Option<SignalId>; 2],
    ) -> SignalId {
        let mut get_const = |net: &mut Network, v: bool| {
            *const_cache[usize::from(v)].get_or_insert_with(|| net.add_const(v))
        };
        let value_of = |net: &Network, s: SignalId| match net.node(s).kind {
            GateKind::Const(b) => Some(b),
            _ => None,
        };
        match kind {
            GateKind::Buf => fanins[0],
            GateKind::Inv => {
                let f = fanins[0];
                match &self.node(f).kind {
                    GateKind::Const(b) => {
                        let b = !*b;
                        get_const(self, b)
                    }
                    GateKind::Inv => self.node(f).fanins[0],
                    _ => self.add_gate(GateKind::Inv, fanins),
                }
            }
            GateKind::And | GateKind::Or => {
                let identity = matches!(kind, GateKind::And);
                // Compacted in place: the first `kept` entries are the
                // distinct non-constant fanins seen so far.
                let mut reduced = fanins;
                let mut kept = 0;
                for i in 0..reduced.len() {
                    let f = reduced[i];
                    match value_of(self, f) {
                        Some(b) if b == identity => {}
                        Some(_) => return get_const(self, !identity),
                        None if reduced[..kept].contains(&f) => {}
                        None => {
                            reduced[kept] = f;
                            kept += 1;
                        }
                    }
                }
                reduced.truncate(kept);
                match reduced.len() {
                    0 => get_const(self, identity),
                    1 => reduced[0],
                    _ => self.add_gate(kind, reduced),
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut parity = matches!(kind, GateKind::Xnor);
                let mut reduced: Vec<SignalId> = Vec::new();
                for f in fanins {
                    match value_of(self, f) {
                        Some(b) => parity ^= b,
                        None => {
                            // x ⊕ x = 0: cancel pairs.
                            if let Some(pos) = reduced.iter().position(|&g| g == f) {
                                reduced.remove(pos);
                            } else {
                                reduced.push(f);
                            }
                        }
                    }
                }
                match (reduced.len(), parity) {
                    (0, p) => get_const(self, p),
                    (1, false) => reduced[0],
                    (1, true) => self.add_gate(GateKind::Inv, reduced),
                    (_, false) => self.add_gate(GateKind::Xor, reduced),
                    (_, true) => self.add_gate(GateKind::Xnor, reduced),
                }
            }
            GateKind::Mux => {
                let (s, t, e) = (fanins[0], fanins[1], fanins[2]);
                match value_of(self, s) {
                    Some(true) => t,
                    Some(false) => e,
                    None if t == e => t,
                    None => self.add_gate(GateKind::Mux, fanins),
                }
            }
            GateKind::Maj => {
                let (a, b, c) = (fanins[0], fanins[1], fanins[2]);
                let consts: Vec<Option<bool>> = fanins.iter().map(|&f| value_of(self, f)).collect();
                // Maj(1, b, c) = b + c; Maj(0, b, c) = b · c, and symmetric.
                if a == b || consts[0].is_some() && consts[0] == consts[1] {
                    return a;
                }
                if b == c || consts[1].is_some() && consts[1] == consts[2] {
                    return b;
                }
                if a == c || consts[0].is_some() && consts[0] == consts[2] {
                    return a;
                }
                for (i, cv) in consts.iter().enumerate() {
                    if let Some(v) = cv {
                        let (x, y) = match i {
                            0 => (b, c),
                            1 => (a, c),
                            _ => (a, b),
                        };
                        let k = if *v { GateKind::Or } else { GateKind::And };
                        return self.add_gate(k, vec![x, y]);
                    }
                }
                self.add_gate(GateKind::Maj, fanins)
            }
            GateKind::Lut(table) => match table.as_constant() {
                Some(v) => get_const(self, v),
                None => self.add_gate(GateKind::Lut(table), fanins),
            },
            GateKind::Const(v) => get_const(self, v),
            other => self.add_gate(other, fanins),
        }
    }

    /// Adds a gate with the same local simplifications as [`Self::cleaned`]
    /// applies (constant folding, unit reduction, duplicate removal).
    pub fn add_gate_simplified(&mut self, kind: GateKind, fanins: Vec<SignalId>) -> SignalId {
        self.rewrite_gate(kind, fanins, &mut [None; 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::XorShift64;

    fn full_adder() -> Network {
        let mut net = Network::new("fa");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let cin = net.add_input("cin");
        let s1 = net.add_gate(GateKind::Xor, vec![a, b, cin]);
        let carry = net.add_gate(GateKind::Maj, vec![a, b, cin]);
        net.set_output("sum", s1);
        net.set_output("cout", carry);
        net
    }

    #[test]
    fn full_adder_simulates_correctly() {
        let net = full_adder();
        // Exhaustive over 8 rows packed into one word.
        let a = 0b10101010;
        let b = 0b11001100;
        let c = 0b11110000;
        let out = net.simulate(&[a, b, c]);
        for row in 0..8u32 {
            let (x, y, z) = (a >> row & 1, b >> row & 1, c >> row & 1);
            let total = x + y + z;
            assert_eq!(out[0] >> row & 1, total & 1, "sum row {row}");
            assert_eq!(out[1] >> row & 1, (total >= 2) as u64, "carry row {row}");
        }
    }

    #[test]
    fn gate_counts_and_depth() {
        let net = full_adder();
        let c = net.gate_counts();
        assert_eq!(c.xor, 1);
        assert_eq!(c.maj, 1);
        assert_eq!(c.decomposition_total(), 2);
        assert_eq!(net.depth(), 1);
    }

    #[test]
    fn cleaned_removes_dead_logic() {
        let mut net = Network::new("dead");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let _dead = net.add_gate(GateKind::And, vec![a, b]);
        let live = net.add_gate(GateKind::Or, vec![a, b]);
        net.set_output("y", live);
        let cleaned = net.cleaned();
        assert_eq!(cleaned.gate_counts().and, 0);
        assert_eq!(cleaned.gate_counts().or, 1);
        assert_eq!(cleaned.inputs().len(), 2);
    }

    #[test]
    fn cleaned_propagates_constants() {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let one = net.add_const(true);
        let and = net.add_gate(GateKind::And, vec![a, one]);
        let inv = net.add_gate(GateKind::Inv, vec![and]);
        let inv2 = net.add_gate(GateKind::Inv, vec![inv]);
        net.set_output("y", inv2);
        let cleaned = net.cleaned();
        // and(a, 1) = a; inv(inv(a)) = a: y is just the input.
        assert_eq!(cleaned.gate_counts().logic_total(), 0);
        let out = cleaned.simulate(&[0b10]);
        assert_eq!(out[0] & 0b11, 0b10);
    }

    #[test]
    fn cleaned_cancels_xor_pairs() {
        let mut net = Network::new("x");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let x = net.add_gate(GateKind::Xor, vec![a, b, a]);
        net.set_output("y", x);
        let cleaned = net.cleaned();
        // a ⊕ b ⊕ a = b.
        assert_eq!(cleaned.gate_counts().logic_total(), 0);
        assert_eq!(cleaned.simulate(&[0, 0b1])[0] & 1, 1);
    }

    #[test]
    fn mux_and_maj_simplify() {
        let mut net = Network::new("m");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let one = net.add_const(true);
        let m = net.add_gate(GateKind::Maj, vec![a, b, one]);
        net.set_output("y", m);
        let cleaned = net.cleaned();
        // Maj(a, b, 1) = a + b.
        assert_eq!(cleaned.gate_counts().or, 1);
        assert_eq!(cleaned.gate_counts().maj, 0);
    }

    #[test]
    fn lut_simulation_matches_table() {
        let mut net = Network::new("l");
        let a = net.add_input("a");
        let b = net.add_input("b");
        // LUT computing a AND NOT b.
        let t = TruthTable::from_fn(2, |r| r & 1 == 1 && r & 2 == 0);
        let l = net.add_gate(GateKind::Lut(t), vec![a, b]);
        net.set_output("y", l);
        let out = net.simulate(&[0b1010, 0b1100]);
        assert_eq!(out[0] & 0xF, 0b0010);
    }

    /// The reference cleaning pass of the oracle test below: a `HashMap`
    /// signal table, and the fixpoint loop that stops only when a pass
    /// does not shrink the network (at most 9 passes).
    mod reference {
        use super::*;
        use std::collections::HashMap;

        pub fn cleaned(net: &Network) -> Network {
            let mut current = cleaned_once(net);
            for _ in 0..8 {
                let next = cleaned_once(&current);
                if next.len() >= current.len() {
                    return current;
                }
                current = next;
            }
            current
        }

        fn cleaned_once(net: &Network) -> Network {
            let mut out = Network::new(net.name.clone());
            let mut map: HashMap<SignalId, SignalId> = HashMap::new();
            let mut live = vec![false; net.nodes.len()];
            let mut stack: Vec<SignalId> = net.outputs.iter().map(|(_, s)| *s).collect();
            while let Some(s) = stack.pop() {
                if live[s.index()] {
                    continue;
                }
                live[s.index()] = true;
                stack.extend(net.nodes[s.index()].fanins.iter().copied());
            }
            for &pi in &net.inputs {
                let name = net.signal_name(pi);
                let new = out.add_input(name);
                map.insert(pi, new);
            }
            let mut const_cache: HashMap<bool, SignalId> = HashMap::new();
            for (idx, node) in net.nodes.iter().enumerate() {
                let id = SignalId(idx as u32);
                if !live[idx] || map.contains_key(&id) {
                    continue;
                }
                let fanins: Vec<SignalId> = node.fanins.iter().map(|f| map[f]).collect();
                let new = rewrite_gate(&mut out, node.kind.clone(), fanins, &mut const_cache);
                map.insert(id, new);
            }
            for (name, s) in &net.outputs {
                out.set_output(name.clone(), map[s]);
            }
            out
        }

        fn rewrite_gate(
            net: &mut Network,
            kind: GateKind,
            fanins: Vec<SignalId>,
            const_cache: &mut HashMap<bool, SignalId>,
        ) -> SignalId {
            let mut get_const = |net: &mut Network, v: bool| {
                *const_cache.entry(v).or_insert_with(|| net.add_const(v))
            };
            let value_of = |net: &Network, s: SignalId| match net.node(s).kind {
                GateKind::Const(b) => Some(b),
                _ => None,
            };
            match kind {
                GateKind::Buf => fanins[0],
                GateKind::Inv => {
                    let f = fanins[0];
                    match &net.node(f).kind {
                        GateKind::Const(b) => {
                            let b = !*b;
                            get_const(net, b)
                        }
                        GateKind::Inv => net.node(f).fanins[0],
                        _ => net.add_gate(GateKind::Inv, fanins),
                    }
                }
                GateKind::And | GateKind::Or => {
                    let identity = matches!(kind, GateKind::And);
                    let mut reduced = Vec::new();
                    for f in fanins {
                        match value_of(net, f) {
                            Some(b) if b == identity => {}
                            Some(_) => return get_const(net, !identity),
                            None => {
                                if !reduced.contains(&f) {
                                    reduced.push(f);
                                }
                            }
                        }
                    }
                    match reduced.len() {
                        0 => get_const(net, identity),
                        1 => reduced[0],
                        _ => net.add_gate(kind, reduced),
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    let mut parity = matches!(kind, GateKind::Xnor);
                    let mut reduced: Vec<SignalId> = Vec::new();
                    for f in fanins {
                        match value_of(net, f) {
                            Some(b) => parity ^= b,
                            None => {
                                if let Some(pos) = reduced.iter().position(|&g| g == f) {
                                    reduced.remove(pos);
                                } else {
                                    reduced.push(f);
                                }
                            }
                        }
                    }
                    match (reduced.len(), parity) {
                        (0, p) => get_const(net, p),
                        (1, false) => reduced[0],
                        (1, true) => net.add_gate(GateKind::Inv, reduced),
                        (_, false) => net.add_gate(GateKind::Xor, reduced),
                        (_, true) => net.add_gate(GateKind::Xnor, reduced),
                    }
                }
                GateKind::Mux => {
                    let (s, t, e) = (fanins[0], fanins[1], fanins[2]);
                    match value_of(net, s) {
                        Some(true) => t,
                        Some(false) => e,
                        None if t == e => t,
                        None => net.add_gate(GateKind::Mux, fanins),
                    }
                }
                GateKind::Maj => {
                    let (a, b, c) = (fanins[0], fanins[1], fanins[2]);
                    let consts: Vec<Option<bool>> =
                        fanins.iter().map(|&f| value_of(net, f)).collect();
                    if a == b || consts[0].is_some() && consts[0] == consts[1] {
                        return a;
                    }
                    if b == c || consts[1].is_some() && consts[1] == consts[2] {
                        return b;
                    }
                    if a == c || consts[0].is_some() && consts[0] == consts[2] {
                        return a;
                    }
                    for (i, cv) in consts.iter().enumerate() {
                        if let Some(v) = cv {
                            let (x, y) = match i {
                                0 => (b, c),
                                1 => (a, c),
                                _ => (a, b),
                            };
                            let k = if *v { GateKind::Or } else { GateKind::And };
                            return net.add_gate(k, vec![x, y]);
                        }
                    }
                    net.add_gate(GateKind::Maj, fanins)
                }
                GateKind::Lut(table) => match table.as_constant() {
                    Some(v) => get_const(net, v),
                    None => net.add_gate(GateKind::Lut(table), fanins),
                },
                GateKind::Const(v) => get_const(net, v),
                other => net.add_gate(other, fanins),
            }
        }
    }

    /// A random network over the cases the cleaning pass rewrites: dead
    /// gates and buffers, constants of both values feeding every gate
    /// kind, inverter pairs whose inner inverter has other fanouts,
    /// duplicated fanins, MAJ with equal or constant fanins, MUX with a
    /// constant select or equal branches, constant and non-constant LUTs,
    /// named gates, unnamed inputs (also declared between gates), and
    /// outputs driven by inputs and by constants.
    fn random_network(rng: &mut XorShift64) -> Network {
        fn below(rng: &mut XorShift64, n: usize) -> usize {
            (rng.next_u64() % n as u64) as usize
        }
        fn add_input(net: &mut Network, rng: &mut XorShift64) -> SignalId {
            if below(rng, 3) > 0 {
                return net.add_input(format!("i{}", net.inputs.len()));
            }
            let id = net.push(NetNode {
                kind: GateKind::Input,
                fanins: vec![],
                name: None,
            });
            net.inputs.push(id);
            id
        }
        let mut net = Network::new("random");
        let mut pool = vec![net.add_const(false), net.add_const(true)];
        for _ in 0..1 + below(rng, 3) {
            pool.push(add_input(&mut net, rng));
        }
        for g in 0..below(rng, 24) {
            let [a, b, c] = [0; 3].map(|_| pool[below(rng, pool.len())]);
            let s = match below(rng, 16) {
                0 => add_input(&mut net, rng),
                1 => net.add_const(below(rng, 2) == 1),
                2 => net.add_gate(GateKind::Buf, vec![a]),
                3 => net.add_gate(GateKind::Inv, vec![a]),
                4 => {
                    // The inner inverter stays in the pool: other fanouts.
                    let inner = net.add_gate(GateKind::Inv, vec![a]);
                    pool.push(inner);
                    net.add_gate(GateKind::Inv, vec![inner])
                }
                5 => net.add_gate(GateKind::And, vec![a, a]),
                6 => net.add_gate(GateKind::And, vec![a, b, c]),
                7 => net.add_gate(GateKind::Or, vec![a, b]),
                8 => net.add_gate(GateKind::Nand, vec![a, b]),
                9 => net.add_gate(GateKind::Nor, vec![a, b, c]),
                10 => net.add_gate(GateKind::Xor, vec![a, a, b]),
                11 => net.add_gate(GateKind::Xnor, vec![a, b, c]),
                12 => net.add_gate(GateKind::Maj, vec![a, b, c]),
                13 => net.add_gate(GateKind::Mux, vec![a, b, b]),
                14 => net.add_gate(GateKind::Mux, vec![a, b, c]),
                _ => {
                    let bits = rng.next_u64();
                    let table = match below(rng, 3) {
                        0 => TruthTable::constant(2, bits & 1 == 1),
                        _ => TruthTable::from_fn(2, |r| bits >> r & 1 == 1),
                    };
                    net.add_gate(GateKind::Lut(table), vec![a, b])
                }
            };
            if below(rng, 4) == 0 && !matches!(net.node(s).kind, GateKind::Input) {
                net.set_signal_name(s, format!("g{g}"));
            }
            pool.push(s);
        }
        // Outputs: the last signal, an input, a constant and random picks;
        // what no output reaches is dead.
        net.set_output("last", *pool.last().expect("the pool holds the constants"));
        net.set_output("pi", net.inputs[below(rng, net.inputs.len())]);
        net.set_output("k", pool[below(rng, 2)]);
        for o in 0..below(rng, 3) {
            net.set_output(format!("o{o}"), pool[below(rng, pool.len())]);
        }
        net
    }

    fn assert_same(got: &Network, want: &Network, case: &str) {
        assert_eq!(
            (&got.name, &got.nodes, &got.inputs, &got.outputs),
            (&want.name, &want.nodes, &want.inputs, &want.outputs),
            "{case}: cleaned() differs from the reference"
        );
    }

    /// `cleaned` returns exactly the reference's network, nodes with their
    /// names, inputs and outputs, on networks that need several passes and
    /// on networks that are already clean (where it stops after one).
    #[test]
    fn cleaned_matches_the_reference_exactly() {
        // Maj(a, b, 1) keeps the node count on the first pass (the constant
        // is still live there); its dead constant goes only on the second.
        let mut net = Network::new("maj1");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let one = net.add_const(true);
        let m = net.add_gate(GateKind::Maj, vec![a, b, one]);
        net.set_output("y", m);
        assert_eq!(reference::cleaned(&net).len(), 3);
        assert_same(&net.cleaned(), &reference::cleaned(&net), "Maj(a, b, 1)");

        let mut rng = XorShift64::new(0xC1EA);
        for case in 0..2000 {
            let net = random_network(&mut rng);
            let want = reference::cleaned(&net);
            assert_same(&net.cleaned(), &want, &format!("case {case}"));
            assert_same(
                &want.cleaned(),
                &reference::cleaned(&want),
                &format!("case {case}, cleaned again"),
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn fanins_must_exist() {
        let mut net = Network::new("bad");
        net.add_gate(GateKind::Inv, vec![SignalId(3)]);
    }

    #[test]
    fn simulate_checks_arity() {
        let net = full_adder();
        let r = std::panic::catch_unwind(|| net.simulate(&[0, 0]));
        assert!(r.is_err());
    }
}
