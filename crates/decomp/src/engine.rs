//! The BDS decomposition engine: the recursive driver that turns a
//! partitioned network of supernode BDDs into a decomposed logic network.
//!
//! The engine itself knows the BDS repertoire (AND / OR / XNOR dominators
//! and the MUX fallback). Majority decomposition plugs in through the
//! [`MajorityHook`] trait, implemented by the `bdsmaj` core crate — this is
//! exactly how the paper layers BDS-MAJ on top of the BDS-PGA engine
//! (§IV-B: "We embed our majority decomposition method on top of the
//! dominator nodes search").

use crate::dominators::{try_find_decomposition, Decomposition, SearchOptions};
use crate::emit::{Emitter, FunctionEmitter};
use bdd::{LimitExceeded, Manager, Ref, ResourceLimits};
use logic::{partition_with_limits, GateKind, Network, PartitionConfig, SignalId};
use std::collections::HashMap;
use std::time::Instant;

/// Pluggable majority decomposition: given `f`, return `[Fa, Fb, Fc]` with
/// `f = Maj(Fa, Fb, Fc)`, or `None` to let the standard dominator search
/// proceed.
pub trait MajorityHook {
    /// Attempts a majority decomposition of `f`.
    fn try_majority(&mut self, m: &mut Manager, f: Ref) -> Option<[Ref; 3]>;
}

/// The hook used by plain BDS / BDS-PGA: never decomposes through MAJ.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoMajority;

impl MajorityHook for NoMajority {
    fn try_majority(&mut self, _m: &mut Manager, _f: Ref) -> Option<[Ref; 3]> {
        None
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Network partitioning bounds.
    pub partition: PartitionConfig,
    /// Dominator search bounds.
    pub search: SearchOptions,
    /// Window size of the per-supernode reordering pass (§IV-B: "it
    /// performs variable reordering to compact the size of the input
    /// BDD"), a sliding window-permutation search
    /// (`bdd::window_reorder`); `< 2` keeps the partition's static order.
    /// Reordering is in place: the supernode's `Ref` and its
    /// variable-to-signal binding survive unchanged; only the manager's
    /// level order moves.
    pub reorder_window: usize,
    /// Skip per-cone reordering for supernode BDDs larger than this (the
    /// search cost grows with BDD size).
    pub reorder_size_limit: usize,
    /// Skip per-cone reordering below this size: in-place searches move
    /// the *shared* level order, so tiny cones pay global swap cost for
    /// node counts that cannot meaningfully shrink.
    pub reorder_min_size: usize,
    /// Per-cone resource budget for both the partition's cone builds and
    /// the decomposition recursion (the step counter resets per cone; a
    /// deadline is absolute, bounding the whole run). All-`None` (the
    /// default) runs unbudgeted. A cone whose decomposition blows the
    /// budget is retried once after a collection, with the step counter
    /// reset; if the retry aborts too, the cone degrades gracefully: its
    /// original gates are copied un-decomposed. The outcome lands in
    /// [`FlowReport`].
    pub limits: ResourceLimits,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            partition: PartitionConfig::default(),
            search: SearchOptions::default(),
            reorder_window: 3,
            reorder_size_limit: 400,
            reorder_min_size: 0,
            limits: ResourceLimits::default(),
        }
    }
}

/// Outcome of one supernode cone under the engine's resource budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConeStatus {
    /// Decomposed within budget on the first attempt.
    Ok,
    /// The first attempt blew the budget; a collect and retry succeeded.
    RetriedOk,
    /// Budget exceeded: the cone's original gates were copied verbatim
    /// (functionally correct, just not decomposed).
    Degraded,
}

/// Per-cone status of a [`decompose_network`] run — how much of the
/// network was actually decomposed versus carried through un-decomposed
/// under resource pressure.
#[derive(Clone, Debug, Default)]
pub struct FlowReport {
    /// One entry per supernode cone: root signal name and its outcome.
    pub cones: Vec<(String, ConeStatus)>,
}

impl FlowReport {
    /// Cones decomposed within budget (first try or after retry).
    pub fn ok_count(&self) -> usize {
        self.cones
            .iter()
            .filter(|(_, s)| *s != ConeStatus::Degraded)
            .count()
    }

    /// Cones that needed the collect and retry to fit the budget.
    pub fn retried_count(&self) -> usize {
        self.cones
            .iter()
            .filter(|(_, s)| *s == ConeStatus::RetriedOk)
            .count()
    }

    /// Cones that fell back to their original, un-decomposed gates.
    pub fn degraded_count(&self) -> usize {
        self.cones
            .iter()
            .filter(|(_, s)| *s == ConeStatus::Degraded)
            .count()
    }

    /// True when at least one cone degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded_count() > 0
    }
}

/// Outcome of decomposing a whole network.
#[derive(Clone, Debug)]
pub struct DecomposeResult {
    /// The decomposed network (AND/OR/XOR/XNOR/MAJ/MUX/INV over the PIs).
    pub network: Network,
    /// Wall-clock runtime of the decomposition (excluding parsing etc.).
    pub runtime: std::time::Duration,
    /// Per-cone budget outcomes (all `Ok` when running unbudgeted).
    pub report: FlowReport,
}

/// Decomposes every supernode of `net` with the BDS engine, calling `hook`
/// first at each recursion step (the BDS-MAJ layering).
///
/// The result is a functionally equivalent network over the same primary
/// inputs/outputs, built from two-input AND/OR/XNOR gates, MAJ-3 and
/// inverters, with sharing across factoring trees (a degraded cone keeps
/// its original gates).
///
/// Memory-wise the flow is bounded: the partition protects each supernode
/// function as a collection root, the engine releases it once the
/// supernode's gates are emitted, and the manager is offered a collection
/// between supernodes — so the arena tracks the largest live working set
/// instead of accumulating every intermediate of the whole run.
// bdslint: allow(protect-release) -- releases roots protected by
// partition_with_limits: ownership transfers in with the Partition
pub fn decompose_network(
    net: &Network,
    options: &EngineOptions,
    hook: &mut dyn MajorityHook,
) -> DecomposeResult {
    let start = Instant::now();
    // Pre-size the kernel's tables for the whole run: the partition pass
    // builds every supernode BDD into this one manager, so starting at the
    // default table size would pay a cascade of rehash doublings.
    let mut manager = Manager::with_capacity(
        (net.len() * 16).clamp(1 << 12, 1 << 20),
        bdd::DEFAULT_CACHE_BITS,
    );
    let part = partition_with_limits(net, &mut manager, options.partition, options.limits);
    let governed = options.limits.is_limited();

    let mut out = Network::new(net.name().to_string());
    let mut emitter = Emitter::new();
    let mut report = FlowReport::default();
    let mut signal_map: HashMap<SignalId, SignalId> = HashMap::new();
    for &pi in net.inputs() {
        let new = out.add_input(net.signal_name(pi));
        signal_map.insert(pi, new);
    }
    for sn in &part.supernodes {
        if sn.degraded {
            // The partition could not even build this cone's BDD under
            // budget: carry the original gates through verbatim.
            copy_original_cone(net, &mut out, &mut signal_map, sn.root);
            report
                .cones
                .push((net.signal_name(sn.root), ConeStatus::Degraded));
            continue;
        }
        let var_signals: Vec<SignalId> = sn.inputs.iter().map(|s| signal_map[s]).collect();
        let function = sn.function;
        // Per-supernode reordering pass (BDS §IV-B). Reordering is in
        // place on the shared level maps: the cone's `Ref` and its
        // variable-to-signal binding are untouched, only node counts move.
        let cone_size = manager.size(function);
        if options.reorder_window >= 2
            && var_signals.len() >= 3
            && cone_size >= options.reorder_min_size
            && cone_size <= options.reorder_size_limit
        {
            bdd::window_reorder(&mut manager, function, options.reorder_window, 4);
        }
        // The function under decomposition is the iteration's root;
        // everything decompose_function creates below it is transient and
        // reclaimable once the supernode is emitted.
        manager.protect(function);
        let mut status = ConeStatus::Ok;
        if governed {
            manager.set_limits(options.limits); // fresh step budget per cone
        }
        let mut attempt = {
            let mut fe = FunctionEmitter::new(var_signals.clone());
            let r = try_decompose_function(
                &mut manager,
                function,
                &mut fe,
                &mut emitter,
                &mut out,
                options,
                hook,
                0,
            );
            // fe's Ref-keyed memo must not outlive a collection.
            drop(fe);
            r
        };
        if attempt.is_err() {
            // Reclaim the aborted attempt's garbage, which the live-node
            // ceiling counts, and retry once under the same order with a
            // fresh step count. Memoized results naming live nodes survive
            // the collection. Any gates the first attempt emitted stay
            // valid (the emitter's strash may even reuse them); unreachable
            // ones are dropped by the final clean.
            manager.collect();
            manager.set_limits(options.limits);
            let mut fe = FunctionEmitter::new(var_signals.clone());
            attempt = try_decompose_function(
                &mut manager,
                function,
                &mut fe,
                &mut emitter,
                &mut out,
                options,
                hook,
                0,
            );
            drop(fe);
            if attempt.is_ok() {
                status = ConeStatus::RetriedOk;
            }
        }
        if governed {
            manager.clear_limits();
        }
        match attempt {
            Ok(sig) => {
                signal_map.insert(sn.root, sig);
            }
            Err(_) => {
                // Graceful degradation: reclaim the aborted garbage and
                // copy the original cone's gates through un-decomposed.
                status = ConeStatus::Degraded;
                manager.collect();
                copy_original_cone(net, &mut out, &mut signal_map, sn.root);
            }
        }
        report.cones.push((net.signal_name(sn.root), status));
        manager.release(function); // the engine's claim from above
                                   // `function` is `sn.function`, so both calls release the same
                                   // `Ref`: first the engine's claim, then the partition's. The
                                   // partition is done with it too: this supernode's gates are
                                   // emitted, and later supernodes reference *signals*, not Refs.
        manager.release(sn.function);
        // Quiescent point: every live function is a protected root, so
        // let the collector recycle decomposition garbage plus whatever
        // nodes the reordering displaced.
        manager.maybe_collect();
    }
    for (name, s) in net.outputs() {
        out.set_output(name.clone(), signal_map[s]);
    }
    let network = out.cleaned();
    DecomposeResult {
        network,
        runtime: start.elapsed(),
        report,
    }
}

/// The graceful-degradation fallback: copies the original network's gates
/// for the cone rooted at `root` into `out` verbatim, stopping at signals
/// already mapped (primary inputs and previously finished supernode
/// roots — the partition emits supernodes in topological order, so every
/// boundary signal below `root` is mapped by the time this runs).
/// Iterative so a deep un-decomposed cone cannot blow the native stack.
fn copy_original_cone(
    net: &Network,
    out: &mut Network,
    signal_map: &mut HashMap<SignalId, SignalId>,
    root: SignalId,
) -> SignalId {
    let mut stack = vec![(root, false)];
    while let Some((id, expanded)) = stack.pop() {
        if signal_map.contains_key(&id) {
            continue;
        }
        let node = net.node(id);
        if expanded {
            let fanins: Vec<SignalId> = node.fanins.iter().map(|f| signal_map[f]).collect();
            let new = out.add_gate(node.kind.clone(), fanins);
            signal_map.insert(id, new);
        } else {
            stack.push((id, true));
            for &f in node.fanins.iter().rev() {
                if !signal_map.contains_key(&f) {
                    stack.push((f, false));
                }
            }
        }
    }
    signal_map[&root]
}

/// Recursion depth guard: decomposition strictly shrinks functions, so this
/// is only a defensive bound.
const MAX_DEPTH: usize = 512;

/// Recursively decomposes `f` and emits its gates; returns the signal
/// implementing `f`.
#[allow(clippy::too_many_arguments)]
pub fn decompose_function(
    m: &mut Manager,
    f: Ref,
    fe: &mut FunctionEmitter,
    emitter: &mut Emitter,
    net: &mut Network,
    options: &EngineOptions,
    hook: &mut dyn MajorityHook,
    depth: usize,
) -> SignalId {
    m.ungoverned(|m| try_decompose_function(m, f, fe, emitter, net, options, hook, depth))
}

/// Budget-governed [`decompose_function`]: aborts with [`LimitExceeded`]
/// when the manager's installed [`ResourceLimits`] are crossed. Gates
/// already emitted for finished subfunctions stay in `net` (they are
/// valid, possibly shared logic); if the whole cone is then abandoned,
/// the caller's final [`Network::cleaned`] drops the unreachable ones.
#[allow(clippy::too_many_arguments)]
pub fn try_decompose_function(
    m: &mut Manager,
    f: Ref,
    fe: &mut FunctionEmitter,
    emitter: &mut Emitter,
    net: &mut Network,
    options: &EngineOptions,
    hook: &mut dyn MajorityHook,
    depth: usize,
) -> Result<SignalId, LimitExceeded> {
    if let Some(s) = fe.emit_base(m, emitter, net, f) {
        return Ok(s);
    }
    if depth >= MAX_DEPTH {
        // Defensive fallback: emit by Shannon expansion without search.
        let d = crate::dominators::try_mux_fallback(m, f)?;
        return try_emit_step(m, f, d, fe, emitter, net, options, hook, depth);
    }
    // (1) Majority decomposition, if the hook accepts the function.
    if let Some([fa, fb, fc]) = hook.try_majority(m, f) {
        debug_assert_eq!(m.maj(fa, fb, fc), f, "hook must return a valid MAJ split");
        let sa = try_decompose_function(m, fa, fe, emitter, net, options, hook, depth + 1)?;
        let sb = try_decompose_function(m, fb, fe, emitter, net, options, hook, depth + 1)?;
        let sc = try_decompose_function(m, fc, fe, emitter, net, options, hook, depth + 1)?;
        let s = emitter.gate(net, GateKind::Maj, vec![sa, sb, sc]);
        fe.insert(f, s);
        return Ok(s);
    }
    // (2) Standard dominator search, MUX as last resort.
    let d = try_find_decomposition(m, f, &options.search)?;
    try_emit_step(m, f, d, fe, emitter, net, options, hook, depth)
}

#[allow(clippy::too_many_arguments)]
fn try_emit_step(
    m: &mut Manager,
    f: Ref,
    d: Decomposition,
    fe: &mut FunctionEmitter,
    emitter: &mut Emitter,
    net: &mut Network,
    options: &EngineOptions,
    hook: &mut dyn MajorityHook,
    depth: usize,
) -> Result<SignalId, LimitExceeded> {
    let s = match d {
        Decomposition::And { g, d } => {
            let sg = try_decompose_function(m, g, fe, emitter, net, options, hook, depth + 1)?;
            let sd = try_decompose_function(m, d, fe, emitter, net, options, hook, depth + 1)?;
            emitter.gate(net, GateKind::And, vec![sg, sd])
        }
        Decomposition::Or { g, d } => {
            let sg = try_decompose_function(m, g, fe, emitter, net, options, hook, depth + 1)?;
            let sd = try_decompose_function(m, d, fe, emitter, net, options, hook, depth + 1)?;
            emitter.gate(net, GateKind::Or, vec![sg, sd])
        }
        Decomposition::Xnor { g, d } => {
            let sg = try_decompose_function(m, g, fe, emitter, net, options, hook, depth + 1)?;
            let sd = try_decompose_function(m, d, fe, emitter, net, options, hook, depth + 1)?;
            emitter.gate(net, GateKind::Xnor, vec![sg, sd])
        }
        Decomposition::Mux { var, hi, lo } => {
            let sv = fe.var_signal(var.0);
            let sh = try_decompose_function(m, hi, fe, emitter, net, options, hook, depth + 1)?;
            let sl = try_decompose_function(m, lo, fe, emitter, net, options, hook, depth + 1)?;
            // The paper's node accounting has no MUX column (BDS reports
            // muxes as AND/OR logic), so the fallback emits AND/OR/INV.
            let t1 = emitter.gate(net, GateKind::And, vec![sv, sh]);
            let nv = emitter.invert(net, sv);
            let t2 = emitter.gate(net, GateKind::And, vec![nv, sl]);
            emitter.gate(net, GateKind::Or, vec![t1, t2])
        }
    };
    fe.insert(f, s);
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::equiv_sim;

    fn small_mixed_network() -> Network {
        let mut net = Network::new("mixed");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let x = net.add_gate(GateKind::Xor, vec![a, b]);
        let o = net.add_gate(GateKind::Or, vec![c, d]);
        let m1 = net.add_gate(GateKind::Maj, vec![x, o, a]);
        let y = net.add_gate(GateKind::And, vec![m1, c]);
        net.set_output("y", y);
        net.set_output("x", x);
        net
    }

    #[test]
    fn decomposed_network_is_equivalent() {
        let net = small_mixed_network();
        let result = decompose_network(&net, &EngineOptions::default(), &mut NoMajority);
        assert_eq!(
            equiv_sim(&net, &result.network, 16, 7),
            Ok(()),
            "BDS engine must preserve the function"
        );
    }

    #[test]
    fn no_majority_hook_emits_no_maj() {
        let net = small_mixed_network();
        let result = decompose_network(&net, &EngineOptions::default(), &mut NoMajority);
        assert_eq!(result.network.gate_counts().maj, 0);
    }

    #[test]
    fn parity_network_decomposes_into_xor_chain() {
        let mut net = Network::new("parity");
        let bits: Vec<SignalId> = (0..8).map(|i| net.add_input(format!("i{i}"))).collect();
        let p = net.add_gate(GateKind::Xor, bits);
        net.set_output("p", p);
        let result = decompose_network(&net, &EngineOptions::default(), &mut NoMajority);
        assert_eq!(equiv_sim(&net, &result.network, 8, 3), Ok(()));
        let counts = result.network.gate_counts();
        assert!(
            counts.xor + counts.xnor >= 4,
            "parity must decompose through x-dominators: {counts:?}"
        );
        assert_eq!(counts.mux, 0, "no MUX needed for parity");
    }

    #[test]
    fn adder_decomposition_preserves_function() {
        let mut net = Network::new("add4");
        let a: Vec<SignalId> = (0..4).map(|i| net.add_input(format!("a{i}"))).collect();
        let b: Vec<SignalId> = (0..4).map(|i| net.add_input(format!("b{i}"))).collect();
        let mut carry: Option<SignalId> = None;
        for i in 0..4 {
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
        let result = decompose_network(&net, &EngineOptions::default(), &mut NoMajority);
        assert_eq!(equiv_sim(&net, &result.network, 16, 5), Ok(()));
    }

    #[test]
    fn runtime_is_reported() {
        let net = small_mixed_network();
        let result = decompose_network(&net, &EngineOptions::default(), &mut NoMajority);
        // Sanity: sub-second on a toy network; nonzero measurement type.
        assert!(result.runtime.as_secs() < 5);
    }

    #[test]
    fn constant_output_network() {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let na = net.add_gate(GateKind::Inv, vec![a]);
        let zero = net.add_gate(GateKind::And, vec![a, na]);
        net.set_output("z", zero);
        let result = decompose_network(&net, &EngineOptions::default(), &mut NoMajority);
        assert_eq!(equiv_sim(&net, &result.network, 4, 1), Ok(()));
    }

    #[test]
    fn unbudgeted_run_reports_all_cones_ok() {
        let net = small_mixed_network();
        let result = decompose_network(&net, &EngineOptions::default(), &mut NoMajority);
        assert!(!result.report.cones.is_empty());
        assert!(!result.report.is_degraded());
        assert_eq!(result.report.ok_count(), result.report.cones.len());
    }

    /// A wide parity cone under a starvation-level step budget must
    /// degrade gracefully: the report says so, and the output network is
    /// still functionally equivalent because the original gates were
    /// copied through verbatim.
    #[test]
    fn tiny_step_budget_degrades_but_stays_equivalent() {
        let mut net = Network::new("parity_budget");
        let bits: Vec<SignalId> = (0..10).map(|i| net.add_input(format!("i{i}"))).collect();
        let p = net.add_gate(GateKind::Xor, bits.clone());
        let q = net.add_gate(GateKind::And, bits);
        net.set_output("p", p);
        net.set_output("q", q);
        let options = EngineOptions {
            limits: ResourceLimits {
                max_steps: Some(2),
                ..ResourceLimits::default()
            },
            ..EngineOptions::default()
        };
        let result = decompose_network(&net, &options, &mut NoMajority);
        assert!(
            result.report.is_degraded(),
            "a 2-step budget cannot build a 10-input cone: {:?}",
            result.report
        );
        assert_eq!(
            equiv_sim(&net, &result.network, 64, 11),
            Ok(()),
            "degraded cones must carry the original logic through"
        );
    }

    /// A budget generous enough for the cones must leave the result
    /// identical to the unbudgeted run — governance is pay-per-abort.
    #[test]
    fn ample_budget_changes_nothing() {
        let net = small_mixed_network();
        let options = EngineOptions {
            limits: ResourceLimits {
                max_steps: Some(1_000_000),
                max_live_nodes: Some(1 << 20),
                ..ResourceLimits::default()
            },
            ..EngineOptions::default()
        };
        let budgeted = decompose_network(&net, &options, &mut NoMajority);
        let free = decompose_network(&net, &EngineOptions::default(), &mut NoMajority);
        assert!(!budgeted.report.is_degraded());
        assert_eq!(
            budgeted.network.gate_counts(),
            free.network.gate_counts(),
            "an ample budget must not perturb the decomposition"
        );
        assert_eq!(equiv_sim(&net, &budgeted.network, 16, 7), Ok(()));
    }
}
