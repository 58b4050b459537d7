//! And-Inverter Graph with structural hashing — the substrate of the
//! ABC-like baseline flow.
//!
//! AIGs represent everything with two-input ANDs and complemented edges;
//! that AND/INV-centric view is exactly why an AIG optimizer is blind to
//! the XOR/MAJ structure of datapath circuits, which is the contrast the
//! paper's Table II demonstrates.

use logic::{BuildFxHasher, GateKind, Network, SignalId, TruthTable, STRASH_PAD};
use std::collections::HashMap;

/// A (possibly complemented) edge to an AIG node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AigRef(u32);

impl AigRef {
    /// The constant true edge.
    pub const ONE: AigRef = AigRef(0);
    /// The constant false edge.
    pub const ZERO: AigRef = AigRef(1);
    /// Never a real edge: the unmapped entry of the dense old→new tables
    /// of the passes into and between AIGs.
    pub(crate) const UNMAPPED: AigRef = AigRef(u32::MAX);

    fn new(node: u32, complemented: bool) -> AigRef {
        AigRef(node << 1 | complemented as u32)
    }

    /// Index of the node the edge points to.
    pub(crate) fn node(self) -> u32 {
        self.0 >> 1
    }

    fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// Whether this edge is one of the two constants.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }
}

impl AigRef {
    /// The same edge with the complement attribute cleared.
    pub fn regular_edge(self) -> AigRef {
        AigRef(self.0 & !1)
    }

    /// Whether the edge carries the complement attribute.
    pub fn is_complemented_edge(self) -> bool {
        self.is_complemented()
    }

    /// Applies a complement flag to this edge.
    pub fn apply_complement(self, c: bool) -> AigRef {
        AigRef(self.0 ^ c as u32)
    }
}

impl std::ops::Not for AigRef {
    type Output = AigRef;

    fn not(self) -> AigRef {
        AigRef(self.0 ^ 1)
    }
}

#[derive(Clone, Copy, Debug)]
enum AigNode {
    Const,
    Input,
    And(AigRef, AigRef),
}

/// A structurally hashed and-inverter graph.
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<AigNode>,
    strash: HashMap<(AigRef, AigRef), u32, BuildFxHasher>,
    inputs: Vec<(String, AigRef)>,
    outputs: Vec<(String, AigRef)>,
    levels: Vec<u32>,
    name: String,
}

impl Aig {
    /// Creates an empty AIG.
    pub fn new(name: impl Into<String>) -> Aig {
        Aig {
            nodes: vec![AigNode::Const],
            strash: HashMap::default(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            levels: vec![0],
            name: name.into(),
        }
    }

    /// Adds a primary input, named `i{k}` as the `k`-th input.
    pub fn add_input(&mut self) -> AigRef {
        let name = format!("i{}", self.inputs.len());
        self.add_named_input(name)
    }

    fn add_named_input(&mut self, name: String) -> AigRef {
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode::Input);
        self.levels.push(0);
        let r = AigRef::new(id, false);
        self.inputs.push((name, r));
        r
    }

    /// Declares an output.
    pub fn set_output(&mut self, name: impl Into<String>, r: AigRef) {
        self.outputs.push((name.into(), r));
    }

    /// Structurally hashed AND with constant/identity folding.
    pub fn and(&mut self, a: AigRef, b: AigRef) -> AigRef {
        if a == AigRef::ZERO || b == AigRef::ZERO || a == !b {
            return AigRef::ZERO;
        }
        if a == AigRef::ONE {
            return b;
        }
        if b == AigRef::ONE || a == b {
            return a;
        }
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&(x, y)) {
            return AigRef::new(id, false);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(x, y));
        let lvl = self.levels[x.node() as usize].max(self.levels[y.node() as usize]) + 1;
        self.levels.push(lvl);
        self.strash.insert((x, y), id);
        AigRef::new(id, false)
    }

    /// Disjunction via De Morgan.
    pub fn or(&mut self, a: AigRef, b: AigRef) -> AigRef {
        !self.and(!a, !b)
    }

    /// Exclusive or (three ANDs).
    pub fn xor(&mut self, a: AigRef, b: AigRef) -> AigRef {
        let t1 = self.and(a, !b);
        let t2 = self.and(!a, b);
        self.or(t1, t2)
    }

    /// Multiplexer `s ? t : e`.
    pub fn mux(&mut self, s: AigRef, t: AigRef, e: AigRef) -> AigRef {
        let a1 = self.and(s, t);
        let a2 = self.and(!s, e);
        self.or(a1, a2)
    }

    /// Three-input majority (AND/OR expansion — no MAJ primitive here).
    pub fn maj(&mut self, a: AigRef, b: AigRef, c: AigRef) -> AigRef {
        let ab = self.and(a, b);
        let bc = self.and(b, c);
        let ac = self.and(a, c);
        let t = self.or(ab, bc);
        self.or(t, ac)
    }

    /// Number of AND nodes reachable from the outputs.
    pub fn and_count(&self) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<u32> = self.outputs.iter().map(|(_, r)| r.node()).collect();
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if seen[id as usize] {
                continue;
            }
            seen[id as usize] = true;
            if let AigNode::And(a, b) = self.nodes[id as usize] {
                count += 1;
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        count
    }

    /// Structural level (AND depth) of an edge.
    pub fn level(&self, r: AigRef) -> u32 {
        self.levels[r.node() as usize]
    }

    /// Declared outputs.
    pub fn outputs(&self) -> &[(String, AigRef)] {
        &self.outputs
    }

    /// The AND children of a **regular** edge, or `None` for inputs and
    /// constants.
    pub fn and_children(&self, r: AigRef) -> Option<(AigRef, AigRef)> {
        match self.nodes[r.node() as usize] {
            AigNode::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// The start of a rebuild pass ([`Aig::balanced`], [`Aig::refactored`]):
    /// an AIG with this one's name and inputs and no AND node yet, and the
    /// old→new edge table indexed by this AIG's nodes, with the constant
    /// and the inputs mapped and every other node [`AigRef::UNMAPPED`].
    pub(crate) fn rebuild_start(&self) -> (Aig, Vec<AigRef>) {
        let mut out = Aig::new(self.name.clone());
        let mut map = vec![AigRef::UNMAPPED; self.nodes.len()];
        map[0] = AigRef::ONE;
        for (name, r) in &self.inputs {
            map[r.node() as usize] = out.add_named_input(name.clone());
        }
        (out, map)
    }

    /// Builds an AIG from a logic network (structural hashing happens on
    /// the way in, like ABC's `strash`). The inputs keep their names.
    pub fn from_network(net: &Network) -> Aig {
        let mut aig = Aig::new(net.name().to_string());
        // old signal -> AIG edge; UNMAPPED until mapped
        let mut map = vec![AigRef::UNMAPPED; net.len()];
        for &pi in net.inputs() {
            map[pi.index()] = aig.add_named_input(net.signal_name(pi));
        }
        // The mapped fanins of the current node, kept across nodes.
        let mut kids: Vec<AigRef> = Vec::new();
        for id in net.signals() {
            if map[id.index()] != AigRef::UNMAPPED {
                continue;
            }
            let node = net.node(id);
            kids.clear();
            kids.extend(node.fanins.iter().map(|f| map[f.index()]));
            let r = match &node.kind {
                GateKind::Input => unreachable!("inputs pre-mapped"),
                GateKind::Const(b) => {
                    if *b {
                        AigRef::ONE
                    } else {
                        AigRef::ZERO
                    }
                }
                GateKind::Inv => !kids[0],
                GateKind::And => kids
                    .iter()
                    .copied()
                    .fold(AigRef::ONE, |acc, k| aig.and(acc, k)),
                GateKind::Nand => !kids
                    .iter()
                    .copied()
                    .fold(AigRef::ONE, |acc, k| aig.and(acc, k)),
                GateKind::Or => kids
                    .iter()
                    .copied()
                    .fold(AigRef::ZERO, |acc, k| aig.or(acc, k)),
                GateKind::Nor => !kids
                    .iter()
                    .copied()
                    .fold(AigRef::ZERO, |acc, k| aig.or(acc, k)),
                GateKind::Xor => kids
                    .iter()
                    .copied()
                    .fold(AigRef::ZERO, |acc, k| aig.xor(acc, k)),
                GateKind::Xnor => !kids
                    .iter()
                    .copied()
                    .fold(AigRef::ZERO, |acc, k| aig.xor(acc, k)),
                GateKind::Maj => aig.maj(kids[0], kids[1], kids[2]),
                GateKind::Mux => aig.mux(kids[0], kids[1], kids[2]),
                GateKind::Lut(table) => aig.lut(table, &kids),
            };
            map[id.index()] = r;
        }
        for (name, s) in net.outputs() {
            aig.set_output(name.clone(), map[s.index()]);
        }
        aig
    }

    /// Shannon expansion of a LUT over AIG edges.
    fn lut(&mut self, table: &TruthTable, kids: &[AigRef]) -> AigRef {
        fn expand(
            aig: &mut Aig,
            table: &TruthTable,
            kids: &[AigRef],
            fixed: usize,
            row: usize,
        ) -> AigRef {
            if fixed == kids.len() {
                return if table.value(row) {
                    AigRef::ONE
                } else {
                    AigRef::ZERO
                };
            }
            let i = kids.len() - 1 - fixed;
            let hi = expand(aig, table, kids, fixed + 1, row | 1 << i);
            let lo = expand(aig, table, kids, fixed + 1, row);
            aig.mux(kids[i], hi, lo)
        }
        expand(self, table, kids, 0, 0)
    }

    /// Converts back to a [`Network`] of AND/INV gates, with this AIG's
    /// input names.
    pub fn to_network(&self) -> Network {
        let mut net = Network::new(self.name.clone());
        // AIG node -> signal; STRASH_PAD until mapped
        let mut map = vec![STRASH_PAD; self.nodes.len()];
        let mut inputs_added = 0usize;
        for (idx, node) in self.nodes.iter().enumerate() {
            match node {
                AigNode::Const => {}
                AigNode::Input => {
                    map[idx] = net.add_input(self.inputs[inputs_added].0.clone());
                    inputs_added += 1;
                }
                AigNode::And(a, b) => {
                    let sa = edge_signal(&mut net, &map, *a);
                    let sb = edge_signal(&mut net, &map, *b);
                    map[idx] = net.add_gate(GateKind::And, [sa, sb]);
                }
            }
        }
        for (name, r) in &self.outputs {
            let s = edge_signal(&mut net, &map, *r);
            net.set_output(name.clone(), s);
        }
        net.cleaned()
    }
}

fn edge_signal(net: &mut Network, map: &[SignalId], r: AigRef) -> SignalId {
    if r.is_const() {
        let zero = net.add_const(false);
        if r == AigRef::ZERO {
            return zero;
        }
        return net.add_gate_simplified(GateKind::Inv, [zero]);
    }
    let base = map[r.node() as usize];
    if r.is_complemented() {
        net.add_gate_simplified(GateKind::Inv, [base])
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::equiv_sim;

    fn sample() -> Network {
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.add_gate(GateKind::Xor, vec![a, b]);
        let m = net.add_gate(GateKind::Maj, vec![x, b, c]);
        let y = net.add_gate(GateKind::Or, vec![m, a]);
        net.set_output("y", y);
        net
    }

    #[test]
    fn roundtrip_is_equivalent() {
        let net = sample();
        let aig = Aig::from_network(&net);
        let back = aig.to_network();
        assert_eq!(equiv_sim(&net, &back, 16, 11), Ok(()));
    }

    #[test]
    fn strash_folds_identities() {
        let mut aig = Aig::new("t");
        let a = aig.add_input();
        let b = aig.add_input();
        assert_eq!(aig.and(a, AigRef::ZERO), AigRef::ZERO);
        assert_eq!(aig.and(a, AigRef::ONE), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), AigRef::ZERO);
        let ab1 = aig.and(a, b);
        let ab2 = aig.and(b, a);
        assert_eq!(ab1, ab2, "commutative strash");
    }

    #[test]
    fn xor_costs_three_ands() {
        let mut aig = Aig::new("t");
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.xor(a, b);
        aig.set_output("x", x);
        assert_eq!(aig.and_count(), 3, "XOR has no cheap AIG form");
    }

    #[test]
    fn levels_track_depth() {
        let mut aig = Aig::new("t");
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let abc = aig.and(ab, c);
        assert_eq!(aig.level(a), 0);
        assert_eq!(aig.level(ab), 1);
        assert_eq!(aig.level(abc), 2);
    }

    #[test]
    fn lut_expansion_matches() {
        let mut net = Network::new("l");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let t = TruthTable::from_fn(2, |r| r == 1 || r == 2);
        let l = net.add_gate(GateKind::Lut(t), vec![a, b]);
        net.set_output("y", l);
        let back = Aig::from_network(&net).to_network();
        assert_eq!(equiv_sim(&net, &back, 8, 2), Ok(()));
    }
}
