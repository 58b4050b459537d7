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

/// A signal no node has (signals are dense arena indices far below
/// `u32::MAX`): it fills the slots of a [`strash_key`] past the gate's
/// fanins, and marks the unmapped entries of the dense old→new signal
/// tables of network-to-network passes.
pub const STRASH_PAD: SignalId = SignalId(u32::MAX);

/// The structural-hash key of a gate, shared by the decomposition's
/// emitter and the techmap covering pass: a code that tells the gate
/// kinds apart, and the fanins padded with [`STRASH_PAD`] to three, so a
/// lookup allocates nothing. The fanins are kept in the order given, so
/// callers sort them first.
///
/// # Panics
///
/// Panics on more than three fanins, and on an input, constant, MUX or
/// LUT, which no strash table holds.
pub fn strash_key(kind: &GateKind, fanins: &[SignalId]) -> (u8, [SignalId; 3]) {
    let code = match kind {
        GateKind::Inv => 0,
        GateKind::And => 1,
        GateKind::Or => 2,
        GateKind::Nand => 3,
        GateKind::Nor => 4,
        GateKind::Xor => 5,
        GateKind::Xnor => 6,
        GateKind::Maj => 7,
        GateKind::Input | GateKind::Const(_) | GateKind::Mux | GateKind::Lut(_) => {
            panic!("strash_key: {} nodes are not hashed", kind.tag())
        }
    };
    let mut key = [STRASH_PAD; 3];
    key[..fanins.len()].copy_from_slice(fanins);
    (code, key)
}

/// The function computed by a node from its fanins.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GateKind {
    /// Primary input (no fanins).
    Input,
    /// Constant driver (no fanins).
    Const(bool),
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

/// How many fanins a [`Fanins`] holds inline.
const INLINE_FANINS: usize = 3;

/// The fanins of a [`NetNode`]: up to three inline, more on the heap.
///
/// Three fit inline because library cells and decomposition gates take
/// at most three fanins: the cells are INV, NAND2, NOR2, XOR2, XNOR2 and
/// MAJ3, and the decomposition emits two-input AND, OR and XNOR, MAJ-3
/// and INV. So building, copying or dropping nearly every node of a flow
/// allocates nothing. Wider gates (parsed covers, n-ary generator gates,
/// degraded cones) go to the heap.
///
/// Derefs to `[SignalId]`. Equality and `Debug` are those of the slice,
/// so the inline and the heap form of the same fanins are equal.
#[derive(Clone)]
pub struct Fanins(FaninsRepr);

#[derive(Clone)]
enum FaninsRepr {
    Inline {
        len: u8,
        items: [SignalId; INLINE_FANINS],
    },
    Heap(Vec<SignalId>),
}

impl Fanins {
    /// No fanins.
    pub const fn new() -> Fanins {
        Fanins(FaninsRepr::Inline {
            len: 0,
            items: [STRASH_PAD; INLINE_FANINS],
        })
    }

    /// Appends `s`, moving to the heap past three fanins.
    pub fn push(&mut self, s: SignalId) {
        match &mut self.0 {
            FaninsRepr::Inline { len, items } if usize::from(*len) < INLINE_FANINS => {
                items[usize::from(*len)] = s;
                *len += 1;
            }
            FaninsRepr::Inline { items, .. } => {
                let mut heap = Vec::with_capacity(2 * INLINE_FANINS);
                heap.extend_from_slice(&items[..]);
                heap.push(s);
                self.0 = FaninsRepr::Heap(heap);
            }
            FaninsRepr::Heap(heap) => heap.push(s),
        }
    }

    /// Keeps the first `n` fanins (all of them if there are fewer).
    pub fn truncate(&mut self, n: usize) {
        match &mut self.0 {
            FaninsRepr::Inline { len, .. } => {
                if n < usize::from(*len) {
                    *len = n as u8;
                }
            }
            FaninsRepr::Heap(heap) => heap.truncate(n),
        }
    }
}

impl Default for Fanins {
    fn default() -> Fanins {
        Fanins::new()
    }
}

impl std::ops::Deref for Fanins {
    type Target = [SignalId];

    fn deref(&self) -> &[SignalId] {
        match &self.0 {
            FaninsRepr::Inline { len, items } => &items[..usize::from(*len)],
            FaninsRepr::Heap(heap) => heap,
        }
    }
}

impl std::ops::DerefMut for Fanins {
    fn deref_mut(&mut self) -> &mut [SignalId] {
        match &mut self.0 {
            FaninsRepr::Inline { len, items } => &mut items[..usize::from(*len)],
            FaninsRepr::Heap(heap) => heap,
        }
    }
}

impl From<&[SignalId]> for Fanins {
    fn from(slice: &[SignalId]) -> Fanins {
        if slice.len() > INLINE_FANINS {
            return Fanins(FaninsRepr::Heap(slice.to_vec()));
        }
        let mut items = [STRASH_PAD; INLINE_FANINS];
        items[..slice.len()].copy_from_slice(slice);
        Fanins(FaninsRepr::Inline {
            len: slice.len() as u8,
            items,
        })
    }
}

impl<const N: usize> From<[SignalId; N]> for Fanins {
    fn from(array: [SignalId; N]) -> Fanins {
        Fanins::from(&array[..])
    }
}

impl From<Vec<SignalId>> for Fanins {
    fn from(vec: Vec<SignalId>) -> Fanins {
        if vec.len() > INLINE_FANINS {
            Fanins(FaninsRepr::Heap(vec))
        } else {
            Fanins::from(&vec[..])
        }
    }
}

impl FromIterator<SignalId> for Fanins {
    fn from_iter<I: IntoIterator<Item = SignalId>>(iter: I) -> Fanins {
        let iter = iter.into_iter();
        if iter.size_hint().0 > INLINE_FANINS {
            return Fanins(FaninsRepr::Heap(iter.collect()));
        }
        let mut fanins = Fanins::new();
        for s in iter {
            fanins.push(s);
        }
        fanins
    }
}

impl<'a> IntoIterator for &'a Fanins {
    type Item = &'a SignalId;
    type IntoIter = std::slice::Iter<'a, SignalId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Fanins {
    fn eq(&self, other: &Fanins) -> bool {
        **self == **other
    }
}

impl Eq for Fanins {}

impl PartialEq<[SignalId]> for Fanins {
    fn eq(&self, other: &[SignalId]) -> bool {
        **self == *other
    }
}

impl<const N: usize> PartialEq<[SignalId; N]> for Fanins {
    fn eq(&self, other: &[SignalId; N]) -> bool {
        **self == other[..]
    }
}

impl fmt::Debug for Fanins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One node of a [`Network`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetNode {
    /// The function this node computes.
    pub kind: GateKind,
    /// Driving signals, in positional order (see [`GateKind`] for meaning).
    pub fanins: Fanins,
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

    /// Total of all function-bearing nodes (everything except inputs and
    /// constants).
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
            fanins: Fanins::new(),
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
    pub fn add_gate(&mut self, kind: GateKind, fanins: impl Into<Fanins>) -> SignalId {
        let fanins = fanins.into();
        for f in &fanins {
            assert!(
                f.index() < self.nodes.len(),
                "fanin {f:?} does not exist yet"
            );
        }
        match &kind {
            GateKind::Input => panic!("use add_input for primary inputs"),
            GateKind::Const(_) => assert!(fanins.is_empty(), "constants take no fanins"),
            GateKind::Inv => assert_eq!(fanins.len(), 1, "inv takes one fanin"),
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
        self.add_gate(GateKind::Const(value), Fanins::new())
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

    /// Logic depth: the longest input-to-output path counting every logic
    /// node as one level.
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
                GateKind::Input | GateKind::Const(_) => 0,
                _ => 1,
            };
            level[idx] = in_level + own;
            max = max.max(level[idx]);
        }
        max
    }

    /// Returns a structurally cleaned copy: dead nodes removed, constants
    /// propagated, double inverters collapsed, duplicate fanins merged or
    /// cancelled, and gates left with one fanin replaced by it.
    ///
    /// The pass is iterated, so simplifications that expose further dead
    /// logic (e.g. a collapsed inverter pair) are fully cleaned up. Before
    /// each pass a read-only check (`is_clean`) tells whether the pass
    /// would return its input unchanged, node for node (names included),
    /// with the same inputs and outputs. The iteration stops at the first
    /// of:
    /// - a network the check finds clean, before its pass: it is returned
    ///   without one (`self` as a copy), since the pass would change
    ///   nothing;
    /// - a pass that does not shrink the network: its input is returned;
    /// - the ninth pass: its output is returned.
    ///
    /// Debug builds run the pass the check stands in for and assert that
    /// they agree.
    pub fn cleaned(&self) -> Network {
        if self.checked_is_clean() {
            return self.clone();
        }
        let mut current = self.cleaned_once();
        for _ in 0..8 {
            if current.checked_is_clean() {
                return current;
            }
            let next = current.cleaned_once();
            if next.len() >= current.len() {
                return current;
            }
            current = next;
        }
        current
    }

    /// Whether one [`Self::cleaned_once`] pass would return this network
    /// unchanged: when [`Self::rewrite`] keeps every gate and these
    /// structural checks hold:
    /// - the inputs are nodes `0..k` in declaration order, and every input
    ///   is named (the pass adds the inputs first, under their names);
    /// - every other node is live and unnamed (the pass names no gate);
    /// - no two constant nodes have the same value (the pass makes each
    ///   constant once).
    fn is_clean(&self) -> bool {
        let k = self.inputs.len();
        if self.inputs.iter().enumerate().any(|(i, s)| s.index() != i) {
            return false;
        }
        // Whether a node has a fanout. Nodes are in topological order and
        // the inputs come first, so when every gate has one, every gate
        // is live.
        let mut used = vec![false; self.nodes.len()];
        for (_, s) in &self.outputs {
            used[s.index()] = true;
        }
        let mut seen_const = [false; 2];
        for (idx, node) in self.nodes.iter().enumerate() {
            let fanins = &node.fanins[..];
            for f in fanins {
                used[f.index()] = true;
            }
            let unchanged = if idx < k {
                node.name.is_some()
            } else {
                node.name.is_none()
                    && match node.kind {
                        GateKind::Const(v) => {
                            !std::mem::replace(&mut seen_const[usize::from(v)], true)
                        }
                        _ => matches!(self.rewrite(&node.kind, fanins), Rewrite::Keep),
                    }
            };
            if !unchanged {
                return false;
            }
        }
        used[k..].iter().all(|&u| u)
    }

    /// [`Self::is_clean`], checked against the pass it stands in for in
    /// debug builds.
    fn checked_is_clean(&self) -> bool {
        let clean = self.is_clean();
        #[cfg(debug_assertions)]
        assert_eq!(
            clean,
            self.cleaned_once().same_as(self),
            "is_clean disagrees with a cleaning pass on {}",
            self.name
        );
        clean
    }

    /// Whether `self` and `other` hold the same nodes (names included),
    /// inputs and outputs.
    #[cfg(any(test, debug_assertions))]
    fn same_as(&self, other: &Network) -> bool {
        self.nodes == other.nodes && self.inputs == other.inputs && self.outputs == other.outputs
    }

    fn cleaned_once(&self) -> Network {
        let mut out = Network::new(self.name.clone());
        // old signal -> new signal; STRASH_PAD until mapped
        let mut map = vec![STRASH_PAD; self.nodes.len()];
        // Mark live nodes (reachable from outputs).
        let mut live = vec![false; self.nodes.len()];
        let mut live_count = 0;
        let mut stack: Vec<SignalId> = self.outputs.iter().map(|(_, s)| *s).collect();
        while let Some(s) = stack.pop() {
            if live[s.index()] {
                continue;
            }
            live[s.index()] = true;
            live_count += 1;
            stack.extend(self.nodes[s.index()].fanins.iter().copied());
        }
        // Every live node and input makes at most one node, plus the two
        // constants.
        out.nodes.reserve(live_count + self.inputs.len() + 2);
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
            let fanins: Fanins = node.fanins.iter().map(|f| map[f.index()]).collect();
            map[idx] = out.rewrite_gate(node.kind.clone(), fanins, &mut const_cache);
        }
        for (name, s) in &self.outputs {
            out.set_output(name.clone(), map[s.index()]);
        }
        out
    }

    /// Adds the gate [`Self::rewrite`] makes of `kind` over `fanins`; used
    /// by [`Self::cleaned`] and [`Self::add_gate_simplified`].
    /// `const_cache[v]` holds the constant `v` once this pass has made it.
    fn rewrite_gate(
        &mut self,
        kind: GateKind,
        fanins: Fanins,
        const_cache: &mut [Option<SignalId>; 2],
    ) -> SignalId {
        match self.rewrite(&kind, &fanins) {
            Rewrite::Keep => self.add_gate(kind, fanins),
            Rewrite::Signal(s) => s,
            Rewrite::Const(v) => {
                *const_cache[usize::from(v)].get_or_insert_with(|| self.add_const(v))
            }
            Rewrite::Gate(kind, fanins) => self.add_gate(kind, fanins),
        }
    }

    /// The cleaning rules, read-only: what a gate `kind` over `fanins`
    /// (signals of this network) becomes. An AND, OR, XOR, XNOR or MAJ
    /// with two or more fanins, none constant and none repeated, stays as
    /// it is, and [`Self::reduce`] rewrites the others. An inverter over
    /// an inverter or a constant goes, a MUX with a constant select or
    /// equal data fanins is a data fanin, a constant LUT is a constant,
    /// and NAND and NOR stay.
    ///
    /// Inlined into the clean check and the pass, where nearly every gate
    /// stays; what `reduce` builds stays out of line.
    #[inline(always)]
    fn rewrite(&self, kind: &GateKind, fanins: &[SignalId]) -> Rewrite {
        match kind {
            GateKind::And | GateKind::Or | GateKind::Xor | GateKind::Xnor | GateKind::Maj => {
                let plain = fanins.len() >= 2
                    && fanins
                        .iter()
                        .enumerate()
                        .all(|(i, &f)| self.value_of(f).is_none() && !fanins[..i].contains(&f));
                if plain {
                    Rewrite::Keep
                } else {
                    self.reduce(kind, fanins)
                }
            }
            GateKind::Const(v) => Rewrite::Const(*v),
            GateKind::Inv => {
                let inner = &self.nodes[fanins[0].index()];
                match inner.kind {
                    GateKind::Const(b) => Rewrite::Const(!b),
                    GateKind::Inv => Rewrite::Signal(inner.fanins[0]),
                    _ => Rewrite::Keep,
                }
            }
            GateKind::Mux => match self.value_of(fanins[0]) {
                Some(true) => Rewrite::Signal(fanins[1]),
                Some(false) => Rewrite::Signal(fanins[2]),
                None if fanins[1] == fanins[2] => Rewrite::Signal(fanins[1]),
                None => Rewrite::Keep,
            },
            GateKind::Lut(table) => match table.as_constant() {
                Some(v) => Rewrite::Const(v),
                None => Rewrite::Keep,
            },
            GateKind::Input | GateKind::Nand | GateKind::Nor => Rewrite::Keep,
        }
    }

    /// What [`Self::rewrite`] makes of an AND, OR, XOR, XNOR or MAJ with
    /// fewer than two fanins, a constant one or a repeated one: constant
    /// fanins fold, AND and OR drop repeated fanins, XOR and XNOR cancel
    /// them in pairs, a MAJ with two equal fanins is that fanin and one
    /// with a constant is an AND or OR, and a gate left with one fanin is
    /// that fanin (or its inverter).
    #[inline(never)]
    fn reduce(&self, kind: &GateKind, fanins: &[SignalId]) -> Rewrite {
        match kind {
            GateKind::And | GateKind::Or => {
                let identity = matches!(kind, GateKind::And);
                // The distinct non-constant fanins, in order.
                let mut reduced = Fanins::new();
                for &f in fanins {
                    match self.value_of(f) {
                        Some(b) if b == identity => {}
                        Some(_) => return Rewrite::Const(!identity),
                        None if reduced.contains(&f) => {}
                        None => reduced.push(f),
                    }
                }
                match reduced.len() {
                    0 => Rewrite::Const(identity),
                    1 => Rewrite::Signal(reduced[0]),
                    _ => Rewrite::Gate(kind.clone(), reduced),
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut parity = matches!(kind, GateKind::Xnor);
                // The non-constant fanins that no later one cancelled
                // (x ⊕ x = 0), in order.
                let mut reduced = Fanins::new();
                for &f in fanins {
                    match self.value_of(f) {
                        Some(b) => parity ^= b,
                        None => match reduced.iter().position(|&g| g == f) {
                            Some(pos) => {
                                reduced.copy_within(pos + 1.., pos);
                                reduced.truncate(reduced.len() - 1);
                            }
                            None => reduced.push(f),
                        },
                    }
                }
                match (reduced.len(), parity) {
                    (0, p) => Rewrite::Const(p),
                    (1, false) => Rewrite::Signal(reduced[0]),
                    (1, true) => Rewrite::Gate(GateKind::Inv, reduced),
                    (_, false) => Rewrite::Gate(GateKind::Xor, reduced),
                    (_, true) => Rewrite::Gate(GateKind::Xnor, reduced),
                }
            }
            GateKind::Maj => {
                let (a, b, c) = (fanins[0], fanins[1], fanins[2]);
                let consts = [a, b, c].map(|f| self.value_of(f));
                // Maj(1, b, c) = b + c; Maj(0, b, c) = b · c, and symmetric.
                if a == b || consts[0].is_some() && consts[0] == consts[1] {
                    return Rewrite::Signal(a);
                }
                if b == c || consts[1].is_some() && consts[1] == consts[2] {
                    return Rewrite::Signal(b);
                }
                if a == c || consts[0].is_some() && consts[0] == consts[2] {
                    return Rewrite::Signal(a);
                }
                for (i, cv) in consts.iter().enumerate() {
                    if let Some(v) = cv {
                        let (x, y) = match i {
                            0 => (b, c),
                            1 => (a, c),
                            _ => (a, b),
                        };
                        let k = if *v { GateKind::Or } else { GateKind::And };
                        return Rewrite::Gate(k, Fanins::from([x, y]));
                    }
                }
                Rewrite::Keep
            }
            _ => unreachable!("reduce takes AND, OR, XOR, XNOR and MAJ"),
        }
    }

    /// The value of `s`, if it is a constant.
    fn value_of(&self, s: SignalId) -> Option<bool> {
        match self.nodes[s.index()].kind {
            GateKind::Const(b) => Some(b),
            _ => None,
        }
    }

    /// Adds a gate with the same local simplifications as [`Self::cleaned`]
    /// applies (constant folding, unit reduction, duplicate removal).
    pub fn add_gate_simplified(&mut self, kind: GateKind, fanins: impl Into<Fanins>) -> SignalId {
        self.rewrite_gate(kind, fanins.into(), &mut [None; 2])
    }
}

/// What a cleaning pass makes of one gate ([`Network::rewrite`]).
enum Rewrite {
    /// The gate as it stands.
    Keep,
    /// A signal the network already has.
    Signal(SignalId),
    /// The constant of this value.
    Const(bool),
    /// A different gate.
    Gate(GateKind, Fanins),
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
    /// gates, constants of both values feeding every gate
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
                fanins: Fanins::new(),
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
            let s = match below(rng, 15) {
                0 => add_input(&mut net, rng),
                1 => net.add_const(below(rng, 2) == 1),
                2 => net.add_gate(GateKind::Inv, vec![a]),
                3 => {
                    // The inner inverter stays in the pool: other fanouts.
                    let inner = net.add_gate(GateKind::Inv, vec![a]);
                    pool.push(inner);
                    net.add_gate(GateKind::Inv, vec![inner])
                }
                4 => net.add_gate(GateKind::And, vec![a, a]),
                5 => net.add_gate(GateKind::And, vec![a, b, c]),
                6 => net.add_gate(GateKind::Or, vec![a, b]),
                7 => net.add_gate(GateKind::Nand, vec![a, b]),
                8 => net.add_gate(GateKind::Nor, vec![a, b, c]),
                9 => net.add_gate(GateKind::Xor, vec![a, a, b]),
                10 => net.add_gate(GateKind::Xnor, vec![a, b, c]),
                11 => net.add_gate(GateKind::Maj, vec![a, b, c]),
                12 => net.add_gate(GateKind::Mux, vec![a, b, b]),
                13 => net.add_gate(GateKind::Mux, vec![a, b, c]),
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

    /// Copies of a clean network with one defect added, each a structural
    /// rule of [`Network::is_clean`] or a rule of [`Network::rewrite`]
    /// broken: a dead gate, a named gate, a second constant of one value,
    /// a MAJ with two equal fanins, an inverter over an inverter, and an
    /// input declared after a gate.
    /// An edit that needs a node the network lacks (a gate, a constant)
    /// is left out.
    fn one_defect_edits(clean: &Network) -> Vec<(&'static str, Network)> {
        let a = clean.inputs[0];
        let b = *clean.inputs.last().expect("an input");
        // The inputs of a clean network come first.
        let gate = (clean.len() > clean.inputs.len()).then(|| SignalId(clean.len() as u32 - 1));
        let constant = clean.signals().find_map(|s| match clean.node(s).kind {
            GateKind::Const(v) => Some(v),
            _ => None,
        });
        let edit = |change: &dyn Fn(&mut Network)| {
            let mut net = clean.clone();
            change(&mut net);
            net
        };
        let mut edits = vec![
            (
                "a dead gate",
                edit(&|net| {
                    net.add_gate(GateKind::Nand, [a]);
                }),
            ),
            (
                "a MAJ with two equal fanins",
                edit(&|net| {
                    let s = net.add_gate(GateKind::Maj, [a, a, b]);
                    net.set_output("maj", s);
                }),
            ),
            (
                "an inverter over an inverter",
                edit(&|net| {
                    let inner = net.add_gate(GateKind::Inv, [a]);
                    let s = net.add_gate(GateKind::Inv, [inner]);
                    net.set_output("inv", s);
                }),
            ),
        ];
        if let Some(g) = gate {
            edits.push(("a named gate", edit(&|net| net.set_signal_name(g, "named"))));
            edits.push((
                "an input declared after a gate",
                edit(&|net| {
                    net.add_input("late");
                }),
            ));
        }
        if let Some(v) = constant {
            edits.push((
                "a second constant of one value",
                edit(&|net| {
                    let s = net.add_const(v);
                    net.set_output("const", s);
                }),
            ));
        }
        edits
    }

    /// `is_clean` holds exactly when a cleaning pass returns the network
    /// unchanged: on random networks, on their forms after one pass
    /// (inputs first, some rewrites still pending), on their cleaned
    /// forms, and on clean networks with one defect added, which it must
    /// reject.
    #[test]
    fn is_clean_matches_a_cleaning_pass() {
        // Networks the check rejects and accepts.
        let mut verdicts = [0usize; 2];
        let mut check = |net: &Network, case: &str| {
            let clean = net.is_clean();
            assert_eq!(
                clean,
                net.cleaned_once().same_as(net),
                "{case}: is_clean disagrees with a cleaning pass"
            );
            verdicts[usize::from(clean)] += 1;
            clean
        };
        let mut rng = XorShift64::new(0xC1EA);
        for case in 0..2000 {
            let net = random_network(&mut rng);
            check(&net, &format!("case {case}"));
            check(&net.cleaned_once(), &format!("case {case}, one pass"));
            let cleaned = net.cleaned();
            if !check(&cleaned, &format!("case {case}, cleaned")) {
                continue;
            }
            for (defect, edited) in one_defect_edits(&cleaned) {
                assert!(
                    !check(&edited, &format!("case {case} with {defect}")),
                    "case {case}: {defect} must make the network unclean"
                );
            }
        }
        assert!(
            verdicts.iter().all(|&n| n >= 100),
            "verdicts (unclean, clean): {verdicts:?}"
        );
    }

    fn ids(range: std::ops::Range<u32>) -> Vec<SignalId> {
        range.map(SignalId).collect()
    }

    /// Gates of different kinds over equal fanins get different keys, the
    /// property both strash tables rely on; the fanins are kept in order
    /// and padded to three.
    #[test]
    fn strash_key_tells_the_gate_kinds_apart() {
        let kinds = [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Inv,
            GateKind::Maj,
        ];
        for n in 1..=3 {
            let fanins = ids(0..n);
            let keys: Vec<_> = kinds.iter().map(|k| strash_key(k, &fanins)).collect();
            for (i, (_, padded)) in keys.iter().enumerate() {
                assert_eq!(padded[..n as usize], fanins[..]);
                assert!(padded[n as usize..].iter().all(|&s| s == STRASH_PAD));
                for j in 0..i {
                    assert_ne!(
                        keys[i],
                        keys[j],
                        "{} and {} share a key",
                        kinds[i].tag(),
                        kinds[j].tag()
                    );
                }
            }
        }
    }

    fn is_inline(fanins: &Fanins) -> bool {
        matches!(fanins.0, FaninsRepr::Inline { .. })
    }

    /// Three fanins stay inline, four go to the heap, from every
    /// constructor; both forms read back as the slice they were built
    /// from.
    #[test]
    fn fanins_keep_three_inline_and_four_on_the_heap() {
        for n in 0..=5u32 {
            let want = ids(0..n);
            let built = [
                Fanins::from(&want[..]),
                Fanins::from(want.clone()),
                want.iter().copied().collect(),
                want.iter().copied().filter(|_| true).collect(),
            ];
            for fanins in &built {
                assert_eq!(&fanins[..], &want[..]);
                assert_eq!(is_inline(fanins), n <= 3, "{n} fanins");
                assert_eq!(format!("{fanins:?}"), format!("{want:?}"));
            }
        }
        assert!(is_inline(&Fanins::from([SignalId(7); 3])));
        assert!(!is_inline(&Fanins::from([SignalId(7); 4])));
        assert!(std::mem::size_of::<Fanins>() <= std::mem::size_of::<Vec<SignalId>>());
    }

    /// `push` crosses from inline to heap at the fourth fanin and keeps
    /// the order; `truncate` keeps a prefix in either form and never
    /// grows.
    #[test]
    fn fanins_push_across_the_boundary_and_truncate() {
        let mut fanins = Fanins::new();
        for n in 0..6u32 {
            assert_eq!(fanins, ids(0..n)[..]);
            assert_eq!(is_inline(&fanins), n <= 3);
            fanins.push(SignalId(n));
        }
        fanins.truncate(9);
        assert_eq!(fanins, ids(0..6)[..]);
        fanins.truncate(2);
        assert_eq!(fanins, [SignalId(0), SignalId(1)]);
        fanins.push(SignalId(9));
        assert_eq!(fanins, [SignalId(0), SignalId(1), SignalId(9)]);

        let mut inline = Fanins::from([SignalId(4), SignalId(5), SignalId(6)]);
        inline.truncate(5);
        assert_eq!(inline, [SignalId(4), SignalId(5), SignalId(6)]);
        inline.truncate(1);
        assert_eq!(inline, [SignalId(4)]);
        inline.truncate(0);
        assert_eq!(inline, Fanins::new());
    }

    /// An inline and a heap `Fanins` of the same slice are equal, as
    /// are nodes holding them; different slices are not.
    #[test]
    fn fanins_compare_as_slices() {
        let mut heap = Fanins::from(ids(0..5));
        heap.truncate(2);
        assert!(!is_inline(&heap));
        let inline = Fanins::from(ids(0..2));
        assert!(is_inline(&inline));
        assert_eq!(heap, inline);
        assert_eq!(inline, heap);
        assert_eq!(format!("{heap:?}"), format!("{inline:?}"));
        assert_ne!(heap, Fanins::from(ids(1..3)));
        assert_ne!(heap, Fanins::from(ids(0..3)));
        let node = |fanins| NetNode {
            kind: GateKind::And,
            fanins,
            name: None,
        };
        assert_eq!(node(heap.clone()), node(inline.clone()));
        let mut sorted = Fanins::from(vec![SignalId(3), SignalId(1), SignalId(2), SignalId(0)]);
        sorted.sort();
        assert_eq!(sorted, ids(0..4)[..]);
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
