//! Network partitioning: partial collapse of the input network into
//! *supernodes*, each represented by a local BDD.
//!
//! This reproduces the preprocessing stage of BDS (§IV-A of the BDS-MAJ
//! paper): manipulating one global BDD is impractical for large circuits,
//! so the network is first partially collapsed — an `eliminate`-style pass —
//! and each resulting supernode gets its own BDD over the surrounding
//! boundary signals.

use crate::network::{GateKind, Network, SignalId};
use bdd::{LimitExceeded, Manager, Ref, ResourceLimits};

/// Tuning knobs for the partial collapse.
#[derive(Clone, Copy, Debug)]
pub struct PartitionConfig {
    /// A supernode is cut when its merged input support would exceed this.
    pub max_support: usize,
    /// Signals with strictly more fanouts than this stay boundary signals,
    /// preserving sharing present in the input network.
    pub fanout_limit: usize,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        // Calibrated on the paper suite: collapsing only single-fanout
        // chains (the spirit of the BDS `eliminate` value threshold) keeps
        // shared logic shared, and 12 boundary inputs bounds local BDDs.
        PartitionConfig {
            max_support: 12,
            fanout_limit: 1,
        }
    }
}

/// A collapsed supernode: one boundary signal of the partitioned network
/// together with its function over the neighbouring boundary signals.
#[derive(Clone, Debug)]
pub struct Supernode {
    /// The signal (in the original network) this supernode drives.
    pub root: SignalId,
    /// Boundary signals feeding the supernode; input `i` is BDD variable `i`.
    pub inputs: Vec<SignalId>,
    /// Local function over `inputs`, in the manager [`partition`] built
    /// it in, under the identity order. Valid until the manager's next
    /// [`Manager::clear`]; after that only its bits still mean something:
    /// two supernodes of one partition share them exactly when their
    /// functions are equal. [`ConeBuilder::try_build_cone`] builds the
    /// function again.
    ///
    /// Meaningless (the constant zero) when `degraded`.
    pub function: Ref,
    /// The cone build blew its resource budget: `function` was never
    /// built and `inputs` is empty. Consumers must fall back to the
    /// original network gates for this root.
    pub degraded: bool,
}

/// Result of [`partition`]: supernodes in topological order.
#[derive(Clone, Debug, Default)]
pub struct Partition {
    /// Collapsed supernodes, topologically ordered (fanins first).
    pub supernodes: Vec<Supernode>,
}

impl Partition {
    /// Sum of local BDD sizes, a quick complexity indicator.
    pub fn total_bdd_size(&self, manager: &Manager) -> usize {
        self.supernodes
            .iter()
            .filter(|s| !s.degraded)
            .map(|s| manager.size(s.function))
            .sum()
    }

    /// Number of supernodes whose cone build blew the budget.
    pub fn degraded_count(&self) -> usize {
        self.supernodes.iter().filter(|s| s.degraded).count()
    }

    /// Drops every supernode function by clearing the manager
    /// ([`Manager::clear`]); the variables and their order stay.
    pub fn release_roots(&self, manager: &mut Manager) {
        manager.clear();
    }
}

/// Partially collapses `net` into supernodes and builds one local BDD per
/// supernode in `manager`.
///
/// Boundary signals are: primary inputs, primary outputs, signals whose
/// fanout exceeds the configured limit, and signals where the merged
/// support would exceed `max_support`. Every boundary signal that is not a
/// primary input becomes a [`Supernode`].
///
/// Every supernode function stays in the manager, next to the
/// intermediates of every build, until the caller clears it
/// ([`Manager::clear`]). Each cone is built under both static variable
/// assignments and the smaller BDD kept, measured under the manager's
/// current order: the identity order in a fresh manager.
pub fn partition(net: &Network, manager: &mut Manager, config: PartitionConfig) -> Partition {
    partition_with_limits(net, manager, config, ResourceLimits::default())
}

/// [`partition`] with a per-cone resource budget.
///
/// Each cone's BDD is built through the fallible kernels with `limits`
/// installed (the step counter resets per cone; a deadline is absolute
/// and therefore bounds the whole pass). A cone that blows the budget
/// becomes a *degraded* supernode — [`Supernode::degraded`] set, no
/// function — so one pathological cone cannot OOM the run. Nothing is
/// reclaimed during the pass, so a node ceiling counts every cone built
/// so far, aborted builds included. All-`None` limits make this
/// identical to [`partition`].
pub fn partition_with_limits(
    net: &Network,
    manager: &mut Manager,
    config: PartitionConfig,
    limits: ResourceLimits,
) -> Partition {
    let fanouts = net.fanout_counts();
    let mut is_output = vec![false; net.len()];
    for (_, s) in net.outputs() {
        is_output[s.index()] = true;
    }

    // First pass: decide boundaries while propagating merged supports.
    let mut boundary = vec![false; net.len()];
    let mut support: Vec<Vec<SignalId>> = vec![Vec::new(); net.len()];
    for id in net.signals() {
        let node = net.node(id);
        match node.kind {
            GateKind::Input => {
                boundary[id.index()] = true;
                support[id.index()] = vec![id];
            }
            GateKind::Const(_) => {
                support[id.index()] = vec![];
                if is_output[id.index()] {
                    boundary[id.index()] = true;
                }
            }
            _ => {
                let mut merged: Vec<SignalId> = Vec::new();
                for &f in &node.fanins {
                    let fsup: &[SignalId] = if boundary[f.index()] {
                        std::slice::from_ref(&f)
                    } else {
                        &support[f.index()]
                    };
                    let added = fsup.iter().filter(|s| !merged.contains(s)).count();
                    // Greedy guard: if absorbing this fanin's cone would blow
                    // past the bound, cut the fanin itself instead. Boundary
                    // flags are what the BDD build consults, so this is safe.
                    if merged.len() + added > config.max_support
                        && !boundary[f.index()]
                        && !matches!(net.node(f).kind, GateKind::Const(_))
                    {
                        boundary[f.index()] = true;
                        if !merged.contains(&f) {
                            merged.push(f);
                        }
                    } else {
                        for &s in fsup {
                            if !merged.contains(&s) {
                                merged.push(s);
                            }
                        }
                    }
                }
                let cut = is_output[id.index()]
                    || merged.len() > config.max_support
                    || fanouts[id.index()] > config.fanout_limit;
                if cut {
                    boundary[id.index()] = true;
                }
                support[id.index()] = merged;
            }
        }
    }

    // Logic depth of every signal (longest fanin chain), used by the cone
    // builds to pick a depth-weighted static variable order: signals from
    // the deepest sub-cones come first, the classic Malik/Fujita DFS
    // heuristic that keeps late-arriving (structurally "controlling")
    // boundary signals near the top of each local BDD.
    let mut depth = vec![0u32; net.len()];
    for id in net.signals() {
        depth[id.index()] = net
            .node(id)
            .fanins
            .iter()
            .map(|f| depth[f.index()] + 1)
            .max()
            .unwrap_or(0);
    }

    // Second pass: build the local BDD of every non-input boundary signal.
    let governed = limits.is_limited();
    let mut cones = ConeBuilder::new(net);
    let mut part = Partition::default();
    for id in net.signals() {
        if !boundary[id.index()] || matches!(net.node(id).kind, GateKind::Input) {
            continue;
        }
        if governed {
            // Fresh step budget per cone; node ceiling and deadline stay
            // global, which is exactly the containment we want.
            manager.set_limits(limits);
        }
        let supernode = match cones.try_build_local_bdd(manager, id, &boundary, &depth, false) {
            Ok((inputs, function)) => {
                // Second candidate under the depth-weighted visit order.
                // Neither static order dominates the suite, so keep the
                // smaller of the two. A fresh step budget keeps the extra
                // build from starving the cone, and a blown second build
                // just falls back to the first — never a new degradation.
                if governed {
                    manager.set_limits(limits);
                }
                let (inputs, function) =
                    match cones.try_build_local_bdd(manager, id, &boundary, &depth, true) {
                        Ok((inputs2, function2))
                            if manager.size(function2) < manager.size(function) =>
                        {
                            (inputs2, function2)
                        }
                        _ => (inputs, function),
                    };
                Supernode {
                    root: id,
                    inputs,
                    function,
                    degraded: false,
                }
            }
            Err(_) => Supernode {
                root: id,
                inputs: Vec::new(),
                function: Ref::ZERO,
                degraded: true,
            },
        };
        part.supernodes.push(supernode);
    }
    if governed {
        manager.clear_limits();
    }
    part
}

/// Builds the BDDs of cones of one network: the partition's supernodes
/// ([`partition_with_limits`]), and a supernode's function again from
/// its `root` and `inputs` ([`Self::try_build_cone`]).
///
/// Holds dense per-signal tables instead of hash sets and maps: per
/// signal, the build that visited it in a cone walk, the build that made
/// it a BDD variable and which variable, and the build that memoized its
/// BDD and the BDD. An entry counts only when its stamp is the current
/// build's, so a build starts by bumping the stamp and clears nothing;
/// when the stamp would wrap, the tables are cleared instead.
#[derive(Debug)]
pub struct ConeBuilder<'a> {
    net: &'a Network,
    slots: Vec<ConeSlot>,
    /// The current build's stamp; 0 marks no build.
    stamp: u32,
    /// The walk's stack and fanin buffer, and the operands of the gates
    /// being built, kept across builds.
    stack: Vec<(SignalId, bool)>,
    fanins: Vec<SignalId>,
    kids: Vec<Ref>,
}

/// One signal's entries in a [`ConeBuilder`], each valid only under the
/// stamp beside it.
#[derive(Clone, Copy, Debug)]
struct ConeSlot {
    visited: u32,
    var_stamp: u32,
    var: u32,
    memo_stamp: u32,
    memo: Ref,
}

impl ConeSlot {
    const EMPTY: ConeSlot = ConeSlot {
        visited: 0,
        var_stamp: 0,
        var: 0,
        memo_stamp: 0,
        memo: Ref::ZERO,
    };
}

impl<'a> ConeBuilder<'a> {
    /// A builder for the cones of `net`.
    pub fn new(net: &'a Network) -> ConeBuilder<'a> {
        ConeBuilder {
            net,
            slots: vec![ConeSlot::EMPTY; net.len()],
            stamp: 0,
            stack: Vec::new(),
            fanins: Vec::new(),
            kids: Vec::new(),
        }
    }

    /// Starts a build: every entry of an earlier build stops counting.
    fn next_build(&mut self) {
        self.stamp = match self.stamp.checked_add(1) {
            Some(stamp) => stamp,
            None => {
                self.slots.fill(ConeSlot::EMPTY);
                1
            }
        };
        self.kids.clear();
    }

    /// Makes `s` BDD variable `var` of the current build.
    fn set_var(&mut self, s: SignalId, var: u32) {
        let slot = &mut self.slots[s.index()];
        slot.var_stamp = self.stamp;
        slot.var = var;
    }

    /// Builds the BDD of the cone rooted at `root`, stopping at boundary
    /// signals, which become the BDD variables in DFS discovery order.
    ///
    /// With `deep_first` the DFS is depth-weighted: at each gate the
    /// deepest fanin sub-cone is descended first (ties keep the
    /// structural left-to-right order), so boundary signals on long
    /// arrival paths are assigned low variable indices. Neither order
    /// dominates across the benchmark suite, so [`partition_with_limits`]
    /// builds both candidates and keeps the smaller BDD.
    fn try_build_local_bdd(
        &mut self,
        manager: &mut Manager,
        root: SignalId,
        boundary: &[bool],
        depth: &[u32],
        deep_first: bool,
    ) -> Result<(Vec<SignalId>, Ref), LimitExceeded> {
        self.next_build();
        let net = self.net;
        let mut inputs: Vec<SignalId> = Vec::new();
        // Assign variables in DFS discovery order for a topology-aware
        // static ordering (deepest fanin visited first).
        self.stack.clear();
        self.stack.push((root, false));
        while let Some((id, is_boundary_ref)) = self.stack.pop() {
            if is_boundary_ref || boundary[id.index()] && id != root {
                if self.slots[id.index()].var_stamp != self.stamp {
                    self.set_var(id, inputs.len() as u32);
                    inputs.push(id);
                }
                continue;
            }
            if self.slots[id.index()].visited == self.stamp {
                continue;
            }
            self.slots[id.index()].visited = self.stamp;
            // Visit order: left-to-right, or deepest fanin sub-cone first.
            // Pushing the reverse of the visit order makes the stack pop
            // it in order; the sort is stable so ties stay left-to-right.
            self.fanins.clear();
            self.fanins.extend_from_slice(&net.node(id).fanins);
            if deep_first {
                self.fanins
                    .sort_by_key(|f| std::cmp::Reverse(depth[f.index()]));
            }
            for &f in self.fanins.iter().rev() {
                self.stack.push((f, boundary[f.index()]));
            }
        }
        let f = self.eval(manager, root, root)?;
        Ok((inputs, f))
    }

    /// Builds the function of the cone rooted at `root` over the
    /// boundary signals `inputs` (input `i` is variable `i`), under the
    /// manager's current order: a [`Supernode`]'s function again, from
    /// its `root` and `inputs`, after its manager was cleared. By
    /// canonicity this is the BDD level swaps would have turned the
    /// partition's build into. Budget-governed like [`try_apply_gate`].
    pub fn try_build_cone(
        &mut self,
        manager: &mut Manager,
        root: SignalId,
        inputs: &[SignalId],
    ) -> Result<Ref, LimitExceeded> {
        self.next_build();
        for (i, &s) in inputs.iter().enumerate() {
            self.set_var(s, i as u32);
        }
        self.eval(manager, root, root)
    }

    /// The BDD of `id` in the current build: its variable, its memo, or
    /// its gate applied to its fanins' BDDs.
    fn eval(
        &mut self,
        manager: &mut Manager,
        id: SignalId,
        root: SignalId,
    ) -> Result<Ref, LimitExceeded> {
        let slot = self.slots[id.index()];
        if id != root && slot.var_stamp == self.stamp {
            return Ok(manager.var(slot.var));
        }
        if slot.memo_stamp == self.stamp {
            return Ok(slot.memo);
        }
        let node = self.net.node(id);
        let base = self.kids.len();
        for &f in &node.fanins {
            let kid = self.eval(manager, f, root)?;
            self.kids.push(kid);
        }
        let r = try_apply_gate(manager, &node.kind, &self.kids[base..])?;
        self.kids.truncate(base);
        let slot = &mut self.slots[id.index()];
        slot.memo_stamp = self.stamp;
        slot.memo = r;
        Ok(r)
    }
}

/// Applies a gate function to already-built BDD operands.
pub fn apply_gate(manager: &mut Manager, kind: &GateKind, kids: &[Ref]) -> Ref {
    manager.ungoverned(|m| try_apply_gate(m, kind, kids))
}

/// Budget-governed [`apply_gate`]: aborts with [`LimitExceeded`] when the
/// manager's installed [`ResourceLimits`] are crossed mid-build.
pub fn try_apply_gate(
    manager: &mut Manager,
    kind: &GateKind,
    kids: &[Ref],
) -> Result<Ref, LimitExceeded> {
    Ok(match kind {
        GateKind::Input => panic!("inputs are boundary signals"),
        GateKind::Const(b) => manager.constant(*b),
        GateKind::Inv => !kids[0],
        GateKind::And => manager.try_and_all(kids.iter().copied())?,
        GateKind::Or => manager.try_or_all(kids.iter().copied())?,
        GateKind::Nand => !manager.try_and_all(kids.iter().copied())?,
        GateKind::Nor => !manager.try_or_all(kids.iter().copied())?,
        GateKind::Xor => manager.try_xor_all(kids.iter().copied())?,
        GateKind::Xnor => !manager.try_xor_all(kids.iter().copied())?,
        GateKind::Maj => manager.try_maj(kids[0], kids[1], kids[2])?,
        GateKind::Mux => manager.try_ite(kids[0], kids[1], kids[2])?,
        GateKind::Lut(table) => {
            // Shannon expansion over the LUT inputs, deepest variable first.
            fn expand(
                manager: &mut Manager,
                table: &crate::truth::TruthTable,
                kids: &[Ref],
                fixed: usize,
                row: usize,
            ) -> Result<Ref, LimitExceeded> {
                if fixed == kids.len() {
                    return Ok(manager.constant(table.value(row)));
                }
                // Fix inputs from the last down to the first so the
                // recursion depth matches the fanin count.
                let i = kids.len() - 1 - fixed;
                let hi = expand(manager, table, kids, fixed + 1, row | 1 << i)?;
                let lo = expand(manager, table, kids, fixed + 1, row)?;
                manager.try_ite(kids[i], hi, lo)
            }
            expand(manager, table, kids, 0, 0)?
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::GateKind;
    use std::collections::HashMap;

    fn adder_net(bits: u32) -> Network {
        let mut net = Network::new("ripple");
        let a: Vec<SignalId> = (0..bits).map(|i| net.add_input(format!("a{i}"))).collect();
        let b: Vec<SignalId> = (0..bits).map(|i| net.add_input(format!("b{i}"))).collect();
        let mut carry: Option<SignalId> = None;
        for i in 0..bits as usize {
            let (s, c) = match carry {
                None => {
                    let s = net.add_gate(GateKind::Xor, vec![a[i], b[i]]);
                    let c = net.add_gate(GateKind::And, vec![a[i], b[i]]);
                    (s, c)
                }
                Some(cin) => {
                    let s = net.add_gate(GateKind::Xor, vec![a[i], b[i], cin]);
                    let c = net.add_gate(GateKind::Maj, vec![a[i], b[i], cin]);
                    (s, c)
                }
            };
            net.set_output(format!("s{i}"), s);
            carry = Some(c);
        }
        net.set_output("cout", carry.unwrap());
        net
    }

    #[test]
    fn partition_covers_all_outputs() {
        let net = adder_net(8);
        let mut m = Manager::new();
        let part = partition(&net, &mut m, PartitionConfig::default());
        let roots: Vec<SignalId> = part.supernodes.iter().map(|s| s.root).collect();
        for (_, s) in net.outputs() {
            assert!(roots.contains(s), "output {s:?} must be a supernode root");
        }
    }

    #[test]
    fn supernode_functions_match_simulation() {
        let net = adder_net(4);
        let mut m = Manager::new();
        let part = partition(&net, &mut m, PartitionConfig::default());
        // Simulate the network on random patterns and check each supernode
        // BDD against the values of its root and inputs.
        let patterns: Vec<u64> = (0..net.inputs().len() as u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17) | 1 << i)
            .collect();
        let mut values: HashMap<SignalId, u64> = HashMap::new();
        // Recompute all internal values via a full simulation trace.
        let all = simulate_all(&net, &patterns);
        for id in net.signals() {
            values.insert(id, all[id.index()]);
        }
        for sn in &part.supernodes {
            for bit in 0..64 {
                let assignment: Vec<bool> = sn
                    .inputs
                    .iter()
                    .map(|s| values[s] >> bit & 1 == 1)
                    .collect();
                let expected = values[&sn.root] >> bit & 1 == 1;
                assert_eq!(
                    m.eval(sn.function, &assignment),
                    expected,
                    "supernode {:?} bit {bit}",
                    sn.root
                );
            }
        }
    }

    /// Full-trace simulation helper (mirrors Network::simulate but exposes
    /// every internal signal).
    fn simulate_all(net: &Network, patterns: &[u64]) -> Vec<u64> {
        let mut values = vec![0u64; net.len()];
        let mut next = 0usize;
        for id in net.signals() {
            let node = net.node(id);
            let v = |s: SignalId| values[s.index()];
            values[id.index()] = match &node.kind {
                GateKind::Input => {
                    let p = patterns[next];
                    next += 1;
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
                GateKind::And => node.fanins.iter().fold(u64::MAX, |a, &f| a & v(f)),
                GateKind::Or => node.fanins.iter().fold(0, |a, &f| a | v(f)),
                GateKind::Nand => !node.fanins.iter().fold(u64::MAX, |a, &f| a & v(f)),
                GateKind::Nor => !node.fanins.iter().fold(0, |a, &f| a | v(f)),
                GateKind::Xor => node.fanins.iter().fold(0, |a, &f| a ^ v(f)),
                GateKind::Xnor => !node.fanins.iter().fold(0, |a, &f| a ^ v(f)),
                GateKind::Maj => {
                    let (a, b, c) = (v(node.fanins[0]), v(node.fanins[1]), v(node.fanins[2]));
                    (a & b) | (b & c) | (a & c)
                }
                GateKind::Mux => {
                    let (s, t, e) = (v(node.fanins[0]), v(node.fanins[1]), v(node.fanins[2]));
                    (s & t) | (!s & e)
                }
                GateKind::Lut(t) => {
                    let mut out = 0u64;
                    for bit in 0..64 {
                        let mut row = 0usize;
                        for (i, &f) in node.fanins.iter().enumerate() {
                            if v(f) >> bit & 1 == 1 {
                                row |= 1 << i;
                            }
                        }
                        if t.value(row) {
                            out |= 1 << bit;
                        }
                    }
                    out
                }
            };
        }
        values
    }

    #[test]
    fn support_bound_is_respected() {
        let net = adder_net(16);
        let mut m = Manager::new();
        let cfg = PartitionConfig {
            max_support: 8,
            fanout_limit: 100,
        };
        let part = partition(&net, &mut m, cfg);
        for sn in &part.supernodes {
            // The cut happens when the merge *exceeds* the bound, so a node
            // can have at most max_support inputs once its fanins were cut.
            assert!(
                sn.inputs.len() <= cfg.max_support + 2,
                "supernode with {} inputs",
                sn.inputs.len()
            );
        }
    }

    #[test]
    fn lut_gate_expansion_matches() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        // LUT for Maj3.
        let t = crate::truth::TruthTable::from_fn(3, |r| r.count_ones() >= 2);
        let f = apply_gate(&mut m, &GateKind::Lut(t), &[a, b, c]);
        let g = m.maj(a, b, c);
        assert_eq!(f, g);
    }

    /// The reference partition of the oracle test below, as it was
    /// before [`ConeBuilder`]: cone builds over a `HashSet` of visited
    /// signals and `HashMap`s of variables and memoized BDDs, fresh for
    /// every build, and a support merge that clones. It also counts the
    /// cones whose depth-weighted candidate won.
    mod reference {
        use super::*;
        use bdd::BuildFxHasher;
        use std::collections::HashSet;

        pub fn partition_with_limits(
            net: &Network,
            manager: &mut Manager,
            config: PartitionConfig,
            limits: ResourceLimits,
            deep_wins: &mut usize,
        ) -> Partition {
            let fanouts = net.fanout_counts();
            let mut is_output = vec![false; net.len()];
            for (_, s) in net.outputs() {
                is_output[s.index()] = true;
            }
            let mut boundary = vec![false; net.len()];
            let mut support: Vec<Vec<SignalId>> = vec![Vec::new(); net.len()];
            for id in net.signals() {
                let node = net.node(id);
                match node.kind {
                    GateKind::Input => {
                        boundary[id.index()] = true;
                        support[id.index()] = vec![id];
                    }
                    GateKind::Const(_) => {
                        support[id.index()] = vec![];
                        if is_output[id.index()] {
                            boundary[id.index()] = true;
                        }
                    }
                    _ => {
                        let mut merged: Vec<SignalId> = Vec::new();
                        for &f in &node.fanins {
                            let fsup: Vec<SignalId> = if boundary[f.index()] {
                                vec![f]
                            } else {
                                support[f.index()].clone()
                            };
                            let added = fsup.iter().filter(|s| !merged.contains(s)).count();
                            if merged.len() + added > config.max_support
                                && !boundary[f.index()]
                                && !matches!(net.node(f).kind, GateKind::Const(_))
                            {
                                boundary[f.index()] = true;
                                if !merged.contains(&f) {
                                    merged.push(f);
                                }
                            } else {
                                for s in fsup {
                                    if !merged.contains(&s) {
                                        merged.push(s);
                                    }
                                }
                            }
                        }
                        let cut = is_output[id.index()]
                            || merged.len() > config.max_support
                            || fanouts[id.index()] > config.fanout_limit;
                        if cut {
                            boundary[id.index()] = true;
                        }
                        support[id.index()] = merged;
                    }
                }
            }
            let mut depth = vec![0u32; net.len()];
            for id in net.signals() {
                depth[id.index()] = net
                    .node(id)
                    .fanins
                    .iter()
                    .map(|f| depth[f.index()] + 1)
                    .max()
                    .unwrap_or(0);
            }
            let governed = limits.is_limited();
            let mut part = Partition::default();
            for id in net.signals() {
                if !boundary[id.index()] || matches!(net.node(id).kind, GateKind::Input) {
                    continue;
                }
                if governed {
                    manager.set_limits(limits);
                }
                let supernode =
                    match try_build_local_bdd(net, manager, id, &boundary, &depth, false) {
                        Ok((inputs, function)) => {
                            if governed {
                                manager.set_limits(limits);
                            }
                            let (inputs, function) = match try_build_local_bdd(
                                net, manager, id, &boundary, &depth, true,
                            ) {
                                Ok((inputs2, function2))
                                    if manager.size(function2) < manager.size(function) =>
                                {
                                    *deep_wins += 1;
                                    (inputs2, function2)
                                }
                                _ => (inputs, function),
                            };
                            Supernode {
                                root: id,
                                inputs,
                                function,
                                degraded: false,
                            }
                        }
                        Err(_) => Supernode {
                            root: id,
                            inputs: Vec::new(),
                            function: Ref::ZERO,
                            degraded: true,
                        },
                    };
                part.supernodes.push(supernode);
            }
            if governed {
                manager.clear_limits();
            }
            part
        }

        fn try_build_local_bdd(
            net: &Network,
            manager: &mut Manager,
            root: SignalId,
            boundary: &[bool],
            depth: &[u32],
            deep_first: bool,
        ) -> Result<(Vec<SignalId>, Ref), LimitExceeded> {
            let mut inputs: Vec<SignalId> = Vec::new();
            let mut stack = vec![(root, false)];
            let mut visited: HashSet<SignalId, BuildFxHasher> = HashSet::default();
            while let Some((id, is_boundary_ref)) = stack.pop() {
                if is_boundary_ref || boundary[id.index()] && id != root {
                    if !inputs.contains(&id) {
                        inputs.push(id);
                    }
                    continue;
                }
                if !visited.insert(id) {
                    continue;
                }
                let mut fanins = net.node(id).fanins.to_vec();
                if deep_first {
                    fanins.sort_by_key(|f| std::cmp::Reverse(depth[f.index()]));
                }
                for &f in fanins.iter().rev() {
                    stack.push((f, boundary[f.index()]));
                }
            }
            let f = try_build_cone(net, manager, root, &inputs)?;
            Ok((inputs, f))
        }

        pub fn try_build_cone(
            net: &Network,
            manager: &mut Manager,
            root: SignalId,
            inputs: &[SignalId],
        ) -> Result<Ref, LimitExceeded> {
            let var_of: HashMap<SignalId, u32, BuildFxHasher> = inputs
                .iter()
                .enumerate()
                .map(|(i, &s)| (s, i as u32))
                .collect();
            let mut memo: HashMap<SignalId, Ref, BuildFxHasher> = HashMap::default();
            eval_cone(net, manager, root, &var_of, &mut memo, root)
        }

        fn eval_cone(
            net: &Network,
            manager: &mut Manager,
            id: SignalId,
            var_of: &HashMap<SignalId, u32, BuildFxHasher>,
            memo: &mut HashMap<SignalId, Ref, BuildFxHasher>,
            root: SignalId,
        ) -> Result<Ref, LimitExceeded> {
            if id != root {
                if let Some(&v) = var_of.get(&id) {
                    return Ok(manager.var(v));
                }
            }
            if let Some(&r) = memo.get(&id) {
                return Ok(r);
            }
            let node = net.node(id);
            let mut kids: Vec<Ref> = Vec::with_capacity(node.fanins.len());
            for &f in &node.fanins {
                kids.push(eval_cone(net, manager, f, var_of, memo, root)?);
            }
            let r = try_apply_gate(manager, &node.kind, &kids)?;
            memo.insert(id, r);
            Ok(r)
        }
    }

    /// A random network for the partition oracle: 3 to 18 inputs, gates
    /// of every kind over recent signals (so cones are deep and their
    /// supports grow past the cut bound), some wider than three fanins,
    /// constants, and outputs at the last signal and at random picks.
    fn random_network(rng: &mut crate::verify::XorShift64) -> Network {
        fn below(rng: &mut crate::verify::XorShift64, n: usize) -> usize {
            (rng.next_u64() % n as u64) as usize
        }
        fn pick(rng: &mut crate::verify::XorShift64, pool: &[SignalId]) -> SignalId {
            if below(rng, 3) == 0 {
                pool[below(rng, pool.len())]
            } else {
                pool[pool.len() - 1 - below(rng, pool.len().min(8))]
            }
        }
        let mut net = Network::new("random");
        let mut pool: Vec<SignalId> = (0..3 + below(rng, 16))
            .map(|i| net.add_input(format!("x{i}")))
            .collect();
        for _ in 0..4 + below(rng, 40) {
            let (kind, arity) = match below(rng, 11) {
                0 => (GateKind::Inv, 1),
                1 => (GateKind::And, 2),
                2 => (GateKind::Or, 3),
                3 => (GateKind::Nand, 2),
                4 => (GateKind::Nor, 4 + below(rng, 3)),
                5 => (GateKind::Xor, 2 + below(rng, 4)),
                6 => (GateKind::Xnor, 2),
                7 => (GateKind::Maj, 3),
                8 => (GateKind::Mux, 3),
                9 => {
                    let bits = rng.next_u64();
                    let table = crate::truth::TruthTable::from_fn(2, |r| bits >> r & 1 == 1);
                    (GateKind::Lut(table), 2)
                }
                _ => (GateKind::Const(below(rng, 2) == 1), 0),
            };
            let fanins: Vec<SignalId> = (0..arity).map(|_| pick(rng, &pool)).collect();
            pool.push(net.add_gate(kind, fanins));
        }
        net.set_output("last", *pool.last().expect("inputs"));
        for o in 0..below(rng, 4) {
            net.set_output(format!("o{o}"), pool[below(rng, pool.len())]);
        }
        net
    }

    /// What a supernode is, as the engine reads it.
    fn supernodes(part: &Partition) -> Vec<(SignalId, Vec<SignalId>, u32, bool)> {
        part.supernodes
            .iter()
            .map(|s| (s.root, s.inputs.clone(), s.function.raw(), s.degraded))
            .collect()
    }

    /// The partition builds the reference's supernodes exactly (roots,
    /// inputs, function bits, degradation) on random networks, under
    /// both configurations the flows use, a tight support bound, and a
    /// step budget that degrades some cones. The depth-weighted candidate
    /// must win on some cones, or a builder that forgot the first DFS's
    /// marks when starting the second would pass.
    #[test]
    fn partition_matches_the_reference_exactly() {
        let configs = [
            PartitionConfig::default(),
            PartitionConfig {
                max_support: 12,
                fanout_limit: 2,
            },
            PartitionConfig {
                max_support: 4,
                fanout_limit: 1,
            },
        ];
        let budgets = [
            ResourceLimits::default(),
            ResourceLimits {
                max_steps: Some(60),
                ..ResourceLimits::default()
            },
        ];
        let mut rng = crate::verify::XorShift64::new(0xC0E5);
        let (mut deep_wins, mut degraded) = (0, 0);
        for case in 0..300 {
            let net = random_network(&mut rng);
            for config in configs {
                for limits in budgets {
                    let mut m = Manager::new();
                    let got = partition_with_limits(&net, &mut m, config, limits);
                    let mut m = Manager::new();
                    let want = reference::partition_with_limits(
                        &net,
                        &mut m,
                        config,
                        limits,
                        &mut deep_wins,
                    );
                    assert_eq!(
                        supernodes(&got),
                        supernodes(&want),
                        "case {case}, {config:?}, {limits:?}"
                    );
                    degraded += want.degraded_count();
                }
            }
        }
        assert!(deep_wins > 0, "no depth-weighted candidate won");
        assert!(degraded > 0, "the step budget degraded no cone");
    }

    /// A cone rebuilt from a root and inputs, in a fresh manager, is the
    /// reference's build, also across a stamp wrap: every cone is built
    /// over its inputs reversed, the stamp is set to wrap at the next
    /// build, and every cone is built again in the same order, over its
    /// inputs, under the stamp its first build had. A builder that kept
    /// the first builds' entries would return their memoized BDDs.
    #[test]
    fn try_build_cone_matches_the_reference_across_a_stamp_wrap() {
        let mut rng = crate::verify::XorShift64::new(0x57A3);
        let mut compared = 0;
        for case in 0..100 {
            let net = random_network(&mut rng);
            let part = partition(&net, &mut Manager::new(), PartitionConfig::default());
            let mut cones = ConeBuilder::new(&net);
            let mut check = |cones: &mut ConeBuilder, root: SignalId, inputs: &[SignalId]| {
                let mut m = Manager::new();
                let got = cones.try_build_cone(&mut m, root, inputs);
                let mut m = Manager::new();
                let want = reference::try_build_cone(&net, &mut m, root, inputs);
                assert_eq!(got, want, "case {case}, root {root:?}, inputs {inputs:?}");
                compared += 1;
            };
            for sn in &part.supernodes {
                let reversed: Vec<SignalId> = sn.inputs.iter().rev().copied().collect();
                check(&mut cones, sn.root, &reversed);
            }
            cones.stamp = u32::MAX;
            for sn in &part.supernodes {
                check(&mut cones, sn.root, &sn.inputs);
            }
            assert_eq!(cones.stamp as usize, part.supernodes.len(), "case {case}");
        }
        assert!(compared > 1000);
    }
}
