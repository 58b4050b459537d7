//! Network partitioning: partial collapse of the input network into
//! *supernodes*, each represented by a local BDD.
//!
//! This reproduces the preprocessing stage of BDS (§IV-A of the BDS-MAJ
//! paper): manipulating one global BDD is impractical for large circuits,
//! so the network is first partially collapsed — an `eliminate`-style pass —
//! and each resulting supernode gets its own BDD over the surrounding
//! boundary signals.

use crate::network::{GateKind, Network, SignalId};
use bdd::{BuildFxHasher, LimitExceeded, Manager, Ref, ResourceLimits};
use std::collections::HashMap;

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
    /// Local function over `inputs`, in the shared manager. [`partition`]
    /// protects it as a garbage-collection root; whoever finishes with the
    /// supernode releases it (see [`Partition::release_roots`]).
    ///
    /// Meaningless (the constant zero, unprotected) when `degraded`.
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

    /// Releases every supernode function protected by [`partition`].
    /// Consumers that release per supernode as they go (the decomposition
    /// engine does) must not also call this. Degraded supernodes hold no
    /// function and are skipped.
    // bdslint: allow(protect-release) -- this IS the release half:
    // it frees the roots partition() protected on the caller's behalf
    pub fn release_roots(&self, manager: &mut Manager) {
        for sn in &self.supernodes {
            if !sn.degraded {
                manager.release(sn.function);
            }
        }
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
/// Each supernode function is declared a garbage-collection root
/// ([`Manager::protect`]) the moment it is built, and the manager is
/// offered a [`Manager::maybe_collect`] between cone builds, so the
/// intermediates of already-finished cones can be recycled while later
/// cones are still being collapsed. Callers own the roots: release each
/// function when done with it (or use [`Partition::release_roots`]).
pub fn partition(net: &Network, manager: &mut Manager, config: PartitionConfig) -> Partition {
    partition_with_limits(net, manager, config, ResourceLimits::default())
}

/// [`partition`] with a per-cone resource budget.
///
/// Each cone's BDD is built through the fallible kernels with `limits`
/// installed (the step counter resets per cone; a deadline is absolute
/// and therefore bounds the whole pass). A cone that blows the budget
/// becomes a *degraded* supernode — [`Supernode::degraded`] set, no
/// function, no protection — and its aborted garbage is collected before
/// the next cone builds, so one pathological cone cannot OOM the run or
/// poison its neighbours. All-`None` limits make this identical to
/// [`partition`].
// bdslint: allow(protect-release) -- supernode roots are handed to the
// caller, who releases them per cone or via Partition::release_roots
pub fn partition_with_limits(
    net: &Network,
    manager: &mut Manager,
    config: PartitionConfig,
    limits: ResourceLimits,
) -> Partition {
    // Pre-size the manager's unique table for the whole partition: local
    // BDDs are built per supernode into one shared manager, and growing
    // the table once up front beats rehash churn during every cone build.
    // The estimate is deliberately generous — buckets are 4 bytes each.
    manager.reserve_nodes((net.len() * 16).clamp(1 << 12, 1 << 20));
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
                    let fsup: Vec<SignalId> = if boundary[f.index()] {
                        vec![f]
                    } else {
                        support[f.index()].clone()
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
        match try_build_local_bdd(net, manager, id, &boundary, &depth, false) {
            Ok((inputs, function)) => {
                manager.protect(function);
                // Second candidate under the depth-weighted visit order.
                // Neither static order dominates the suite, so keep the
                // smaller of the two; the loser's nodes are unprotected
                // garbage reclaimed by the maybe_collect below. A fresh
                // step budget keeps the extra build from starving the
                // cone, and a blown second build just falls back to the
                // first — never a new degradation.
                if governed {
                    manager.set_limits(limits);
                }
                let (inputs, function) =
                    match try_build_local_bdd(net, manager, id, &boundary, &depth, true) {
                        Ok((inputs2, function2))
                            if manager.size(function2) < manager.size(function) =>
                        {
                            manager.protect(function2);
                            manager.release(function);
                            (inputs2, function2)
                        }
                        _ => (inputs, function),
                    };
                part.supernodes.push(Supernode {
                    root: id,
                    inputs,
                    function,
                    degraded: false,
                });
            }
            Err(_) => {
                // The aborted build's partial products are unreferenced
                // garbage; reclaim them now so the blown cone does not
                // carry its node debt into its neighbours' budgets.
                part.supernodes.push(Supernode {
                    root: id,
                    inputs: Vec::new(),
                    function: Ref::ZERO,
                    degraded: true,
                });
                manager.clear_limits();
                manager.collect();
                continue;
            }
        }
        if governed {
            manager.clear_limits();
        }
        // A finished cone's intermediates (the per-gate partial products
        // of eval_cone) are dead now; between builds every live function
        // is a protected supernode root, so both dynamic reordering (a
        // no-op unless the caller armed `AutoSiftConfig`) and collection
        // are safe at this quiescent point. Sift first: the swap garbage
        // it displaces is exactly what the collector then recycles.
        manager.maybe_sift();
        manager.maybe_collect();
    }
    if governed {
        manager.clear_limits();
    }
    part
}

/// Builds the BDD of the cone rooted at `root`, stopping at boundary
/// signals, which become the BDD variables in DFS discovery order.
///
/// With `deep_first` the DFS is depth-weighted: at each gate the deepest
/// fanin sub-cone is descended first (ties keep the structural
/// left-to-right order), so boundary signals on long arrival paths are
/// assigned low variable indices. Neither order dominates across the
/// benchmark suite, so [`partition_with_limits`] builds both candidates
/// and keeps the smaller BDD.
fn try_build_local_bdd(
    net: &Network,
    manager: &mut Manager,
    root: SignalId,
    boundary: &[bool],
    depth: &[u32],
    deep_first: bool,
) -> Result<(Vec<SignalId>, Ref), LimitExceeded> {
    let mut inputs: Vec<SignalId> = Vec::new();
    let mut var_of: HashMap<SignalId, u32, BuildFxHasher> = HashMap::default();
    // Pre-assign variables in DFS discovery order for a topology-aware
    // static ordering (deepest fanin visited first).
    let mut stack = vec![(root, false)];
    let mut visited: HashMap<SignalId, bool, BuildFxHasher> = HashMap::default();
    while let Some((id, is_boundary_ref)) = stack.pop() {
        if is_boundary_ref || boundary[id.index()] && id != root {
            if let std::collections::hash_map::Entry::Vacant(e) = var_of.entry(id) {
                let v = inputs.len() as u32;
                e.insert(v);
                inputs.push(id);
            }
            continue;
        }
        if visited.insert(id, true).is_some() {
            continue;
        }
        // Visit order: left-to-right, or deepest fanin sub-cone first.
        // Pushing the reverse of the visit order makes the stack pop it
        // in order; the sort is stable so ties stay left-to-right.
        let mut fanins = net.node(id).fanins.clone();
        if deep_first {
            fanins.sort_by_key(|f| std::cmp::Reverse(depth[f.index()]));
        }
        for &f in fanins.iter().rev() {
            stack.push((f, boundary[f.index()]));
        }
    }

    let mut memo: HashMap<SignalId, Ref, BuildFxHasher> = HashMap::default();
    let f = eval_cone(net, manager, root, &var_of, &mut memo, root)?;
    Ok((inputs, f))
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
        GateKind::Buf => kids[0],
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
                GateKind::Buf => v(node.fanins[0]),
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
}
