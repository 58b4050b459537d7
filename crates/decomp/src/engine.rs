//! The BDS decomposition engine: the recursive driver that turns a
//! partitioned network of supernode BDDs into a decomposed logic network.
//!
//! The engine itself knows the BDS repertoire (AND / OR / XNOR dominators
//! and the MUX fallback). Majority decomposition plugs in through the
//! [`MajorityHook`] trait, implemented by the `bdsmaj` core crate — this is
//! exactly how the paper layers BDS-MAJ on top of the BDS-PGA engine
//! (§IV-B: "We embed our majority decomposition method on top of the
//! dominator nodes search").

use crate::dominators::{try_find_decomposition, Decomposition};
use crate::emit::{replay, Emitter, FunctionEmitter, Operand, Step};
use bdd::{BuildFxHasher, LimitExceeded, Manager, Ref, ResourceLimits};
use logic::{
    partition_with_limits, ConeBuilder, Fanins, Network, PartitionConfig, SignalId, STRASH_PAD,
};
use std::collections::HashMap;
use std::time::Instant;

/// Pluggable majority decomposition: given `f`, return `[Fa, Fb, Fc]` with
/// `f = Maj(Fa, Fb, Fc)`, or `None` to let the standard dominator search
/// proceed.
///
/// The answer for `f` must depend only on `f`'s BDD under the manager's
/// current variable order. The engine relies on this: a cone whose BDD
/// and entry order it has already decomposed in this run is replayed
/// from that first decomposition, and the hook is not asked again.
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
    /// Window size of the per-supernode reordering pass (§IV-B: "it
    /// performs variable reordering to compact the size of the input
    /// BDD"), a sliding window-permutation search
    /// (`bdd::window_reorder`); `< 2` keeps the partition's static order.
    /// Reordering is in place: the cone's `Ref` and its variable-to-signal
    /// binding survive unchanged; only the manager's level order moves,
    /// and the next cone is built under it.
    pub reorder_window: usize,
    /// Skip per-cone reordering for supernode BDDs larger than this (the
    /// search cost grows with BDD size).
    pub reorder_size_limit: usize,
    /// Skip per-cone reordering below this size: in-place searches move
    /// the level order every later cone is built under, for node counts
    /// that cannot meaningfully shrink.
    pub reorder_min_size: usize,
    /// Per-cone resource budget for the partition's cone builds, the
    /// cone's rebuild at its turn and the decomposition recursion (the
    /// step counter resets for each; a deadline is absolute, bounding the
    /// whole run). All-`None` (the default) runs unbudgeted.
    ///
    /// The node ceiling counts the manager's whole arena. In the
    /// partition that is every cone built so far, aborted builds
    /// included; the engine clears the arena before each cone, so there
    /// it is the cone's own working set. A partition build or a rebuild
    /// that blows the budget degrades the cone: its original gates are
    /// copied un-decomposed. A decomposition that blows it is retried
    /// once with the step counter reset; nothing is reclaimed in between,
    /// so the retry resumes from the aborted attempt's nodes and memo,
    /// which still count against the ceiling. An aborted attempt emits no
    /// gate. If the retry aborts too, the cone degrades. A replayed cone
    /// runs no kernel under the budget: it ticks no step, builds no node,
    /// and cannot degrade. The outcome lands in [`FlowReport`].
    pub limits: ResourceLimits,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            partition: PartitionConfig::default(),
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
    /// The first attempt blew the budget; the retry succeeded.
    RetriedOk,
    /// An earlier cone of the run had the same BDD under the same order
    /// and decomposed on its first attempt; its emitter calls were
    /// replayed with this cone's inputs, and its exit order installed.
    Replayed,
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
    /// Cones decomposed within budget (first try, after retry, or
    /// replayed).
    pub fn ok_count(&self) -> usize {
        self.cones
            .iter()
            .filter(|(_, s)| *s != ConeStatus::Degraded)
            .count()
    }

    /// Cones that needed the retry to fit the budget.
    pub fn retried_count(&self) -> usize {
        self.cones
            .iter()
            .filter(|(_, s)| *s == ConeStatus::RetriedOk)
            .count()
    }

    /// Cones replayed from an earlier cone's decomposition.
    pub fn replayed_count(&self) -> usize {
        self.cones
            .iter()
            .filter(|(_, s)| *s == ConeStatus::Replayed)
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
    /// Per-cone outcomes (`Ok` or `Replayed` when running unbudgeted).
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
/// One cone is in the BDD arena at a time. The partition chooses every
/// cut and static order up front; then, before each cone, the engine
/// clears the manager ([`Manager::clear`], which keeps the order) and
/// builds the cone again under the current order
/// ([`ConeBuilder::try_build_cone`]).
/// By canonicity that is the BDD level swaps would have made of the
/// partition's build, so a cone's reorder swaps rewrite only its own
/// nodes and memory tracks the largest cone, not the network.
///
/// A cone's emitted logic is a function of its supernode function, of
/// the level order on entry and of whether the cone is reordered: every
/// decision reads only the BDD under the current order, and the
/// recursion sees no signal, only the steps it records. The supernode's
/// partition `Ref` names its function for the whole run (compared, never
/// dereferenced), and with the cut width and the entry order it fixes
/// the reorder decision. So the first cone with a given key that
/// decomposes on its first attempt is recorded as a template (its emitter
/// calls over cut-input positions, and the order it leaves installed),
/// and every later cone with that key installs the order on the empty
/// arena and replays the calls with its own inputs, building nothing.
/// The emitter sees exactly the calls a fresh decomposition would make,
/// so the output is the same, without the rebuild, the reorder, the hook
/// or the dominator search. Debug builds decompose every replayed cone
/// afresh as well and assert that it makes the template's calls.
///
/// A cone that decomposes reaches the network through the same replay,
/// with its own inputs, so an attempt that blows the budget emits nothing.
pub fn decompose_network(
    net: &Network,
    options: &EngineOptions,
    hook: &mut dyn MajorityHook,
) -> DecomposeResult {
    let start = Instant::now();
    // Pre-size the kernel's tables for the partition pass, which builds
    // every supernode BDD into this one manager: starting at the default
    // table size would pay a cascade of rehash doublings.
    let mut manager = Manager::with_capacity(
        (net.len() * 16).clamp(1 << 12, 1 << 20),
        bdd::DEFAULT_CACHE_BITS,
    );
    let part = partition_with_limits(net, &mut manager, options.partition, options.limits);

    let mut cones = ConeBuilder::new(net);
    let mut out = Network::new(net.name().to_string());
    let mut emitter = Emitter::new();
    let mut report = FlowReport::default();
    // old signal -> new signal; STRASH_PAD until mapped
    let mut signal_map = vec![STRASH_PAD; net.len()];
    // Local to the call: the partition's `Ref`s name functions only within
    // this run.
    let mut templates: HashMap<ConeKey, Template, BuildFxHasher> = HashMap::default();
    for &pi in net.inputs() {
        signal_map[pi.index()] = out.add_input(net.signal_name(pi));
    }
    for sn in &part.supernodes {
        manager.clear();
        if sn.degraded {
            // The partition could not even build this cone's BDD under
            // budget: carry the original gates through verbatim.
            copy_original_cone(net, &mut out, &mut signal_map, sn.root);
            report
                .cones
                .push((net.signal_name(sn.root), ConeStatus::Degraded));
            continue;
        }
        let var_signals: Vec<SignalId> = sn.inputs.iter().map(|s| signal_map[s.index()]).collect();
        let key = (
            sn.function.raw(),
            var_signals.len(),
            manager.level2var().to_vec(),
        );
        let status = if let Some(t) = templates.get(&key) {
            #[cfg(debug_assertions)]
            {
                let f = manager.ungoverned(|m| cones.try_build_cone(m, sn.root, &sn.inputs));
                check_template(&mut manager, f, var_signals.len(), t, options, hook);
                manager.clear();
            }
            bdd::install_order(&mut manager, &t.exit_order);
            debug_assert_eq!(manager.level2var(), &t.exit_order[..]);
            signal_map[sn.root.index()] =
                replay(&t.steps, t.result, &mut emitter, &mut out, &var_signals);
            ConeStatus::Replayed
        } else {
            manager.set_limits(options.limits);
            // An aborted rebuild degrades the cone. A decomposition gets at
            // most two attempts, under the same order, each with a fresh
            // step count; the retry resumes from the nodes and memo of the
            // aborted attempt, which still count against the node ceiling.
            let mut retried = false;
            let attempt = match cones.try_build_cone(&mut manager, sn.root, &sn.inputs) {
                Err(_) => None,
                Ok(function) => {
                    // Per-supernode reordering pass (BDS §IV-B).
                    if reorders(&manager, function, var_signals.len(), options) {
                        bdd::window_reorder(&mut manager, function, options.reorder_window, SWEEPS);
                    }
                    loop {
                        manager.set_limits(options.limits);
                        let mut fe = FunctionEmitter::default();
                        match try_decompose_function(&mut manager, function, &mut fe, hook, 0) {
                            Ok(root) => break Some((fe.into_steps(), root)),
                            Err(_) if retried => break None,
                            Err(_) => retried = true,
                        }
                    }
                }
            };
            manager.clear_limits();
            match attempt {
                Some((steps, root)) => {
                    signal_map[sn.root.index()] =
                        replay(&steps, root, &mut emitter, &mut out, &var_signals);
                    if retried {
                        ConeStatus::RetriedOk
                    } else {
                        let template = Template {
                            steps,
                            result: root,
                            exit_order: manager.level2var().to_vec(),
                        };
                        templates.insert(key, template);
                        ConeStatus::Ok
                    }
                }
                None => {
                    // Graceful degradation: copy the original cone's gates
                    // through un-decomposed.
                    copy_original_cone(net, &mut out, &mut signal_map, sn.root);
                    ConeStatus::Degraded
                }
            }
        };
        report.cones.push((net.signal_name(sn.root), status));
    }
    for (name, s) in net.outputs() {
        out.set_output(name.clone(), signal_map[s.index()]);
    }
    // Free the arena and the per-call tables before the last pass: the
    // network it builds outlives this call, and allocated while they are
    // live it lands above them, where it keeps the heap from reusing or
    // returning their memory.
    drop((manager, part, cones, emitter, signal_map, templates));
    let network = out.cleaned();
    DecomposeResult {
        network,
        runtime: start.elapsed(),
        report,
    }
}

/// Sweep bound of the per-cone [`bdd::window_reorder`].
const SWEEPS: usize = 4;

/// Whether the engine window-reorders the cone `f` of `width` inputs
/// before decomposing it: a function of `f` and the current order.
fn reorders(m: &Manager, f: Ref, width: usize, options: &EngineOptions) -> bool {
    let size = m.size(f);
    options.reorder_window >= 2
        && width >= 3
        && size >= options.reorder_min_size
        && size <= options.reorder_size_limit
}

/// A cone's replay key: the bits of its supernode's partition `Ref`, its
/// cut width, and the level order on entry.
type ConeKey = (u32, usize, Vec<u32>);

/// The first decomposition of a [`ConeKey`]: the emitter calls it recorded,
/// the operand implementing the cone, and the level order it left
/// installed.
struct Template {
    steps: Vec<Step>,
    result: Operand,
    exit_order: Vec<u32>,
}

/// The debug-build oracle for a replay: decomposes the cone `f`, built
/// under the entry order, afresh exactly as a miss does, reorder included
/// and budget suspended, and asserts that it records the template's
/// calls and leaves the template's order.
#[cfg(debug_assertions)]
fn check_template(
    m: &mut Manager,
    f: Ref,
    width: usize,
    t: &Template,
    options: &EngineOptions,
    hook: &mut dyn MajorityHook,
) {
    if reorders(m, f, width, options) {
        bdd::window_reorder(m, f, options.reorder_window, SWEEPS);
    }
    let mut fe = FunctionEmitter::default();
    let root = m.ungoverned(|m| try_decompose_function(m, f, &mut fe, hook, 0));
    assert_eq!(
        (&fe.into_steps(), root, m.level2var()),
        (&t.steps, t.result, &t.exit_order[..]),
        "a replay must make the calls a fresh decomposition makes"
    );
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
    signal_map: &mut [SignalId],
    root: SignalId,
) -> SignalId {
    let mut stack = vec![(root, false)];
    while let Some((id, expanded)) = stack.pop() {
        if signal_map[id.index()] != STRASH_PAD {
            continue;
        }
        let node = net.node(id);
        if expanded {
            let fanins: Fanins = node.fanins.iter().map(|f| signal_map[f.index()]).collect();
            signal_map[id.index()] = out.add_gate(node.kind.clone(), fanins);
        } else {
            stack.push((id, true));
            for &f in node.fanins.iter().rev() {
                if signal_map[f.index()] == STRASH_PAD {
                    stack.push((f, false));
                }
            }
        }
    }
    signal_map[root.index()]
}

/// Recursion depth guard: decomposition strictly shrinks functions, so this
/// is only a defensive bound.
const MAX_DEPTH: usize = 512;

/// Recursively decomposes `f` and records its emitter calls in `fe`;
/// returns the operand implementing `f`, or aborts with [`LimitExceeded`]
/// when the manager's installed [`ResourceLimits`] are crossed. Nothing
/// reaches a network here: the caller [`replay`]s the recorded steps once
/// the whole cone has decomposed, so an aborted attempt leaves no gate.
fn try_decompose_function(
    m: &mut Manager,
    f: Ref,
    fe: &mut FunctionEmitter,
    hook: &mut dyn MajorityHook,
    depth: usize,
) -> Result<Operand, LimitExceeded> {
    if let Some(s) = fe.record_base(m, f) {
        return Ok(s);
    }
    if depth >= MAX_DEPTH {
        // Defensive fallback: emit by Shannon expansion without search.
        let d = crate::dominators::try_mux_fallback(m, f)?;
        return try_emit_step(m, f, d, fe, hook, depth);
    }
    // (1) Majority decomposition, if the hook accepts the function.
    if let Some([fa, fb, fc]) = hook.try_majority(m, f) {
        debug_assert!(
            {
                let (mut copy, r) = m.copy_to_fresh(&[fa, fb, fc, f]);
                copy.maj(r[0], r[1], r[2]) == r[3]
            },
            "hook must return a valid MAJ split"
        );
        let sa = try_decompose_function(m, fa, fe, hook, depth + 1)?;
        let sb = try_decompose_function(m, fb, fe, hook, depth + 1)?;
        let sc = try_decompose_function(m, fc, fe, hook, depth + 1)?;
        let s = fe.record(Step::Maj(sa, sb, sc));
        fe.insert(f, s);
        return Ok(s);
    }
    // (2) Standard dominator search, MUX as last resort.
    let d = try_find_decomposition(m, f)?;
    try_emit_step(m, f, d, fe, hook, depth)
}

fn try_emit_step(
    m: &mut Manager,
    f: Ref,
    d: Decomposition,
    fe: &mut FunctionEmitter,
    hook: &mut dyn MajorityHook,
    depth: usize,
) -> Result<Operand, LimitExceeded> {
    let s = match d {
        Decomposition::And { g, d } => {
            let sg = try_decompose_function(m, g, fe, hook, depth + 1)?;
            let sd = try_decompose_function(m, d, fe, hook, depth + 1)?;
            fe.record(Step::And(sg, sd))
        }
        Decomposition::Or { g, d } => {
            let sg = try_decompose_function(m, g, fe, hook, depth + 1)?;
            let sd = try_decompose_function(m, d, fe, hook, depth + 1)?;
            fe.record(Step::Or(sg, sd))
        }
        Decomposition::Xnor { g, d } => {
            let sg = try_decompose_function(m, g, fe, hook, depth + 1)?;
            let sd = try_decompose_function(m, d, fe, hook, depth + 1)?;
            fe.record(Step::Xnor(sg, sd))
        }
        Decomposition::Mux { var, hi, lo } => {
            let sv = Operand::Input(var.0);
            let sh = try_decompose_function(m, hi, fe, hook, depth + 1)?;
            let sl = try_decompose_function(m, lo, fe, hook, depth + 1)?;
            // The paper's node accounting has no MUX column (BDS reports
            // muxes as AND/OR logic), so the fallback emits AND/OR/INV.
            let t1 = fe.record(Step::And(sv, sh));
            let nv = fe.record(Step::Invert(sv));
            let t2 = fe.record(Step::And(nv, sl));
            fe.record(Step::Or(t1, t2))
        }
    };
    fe.insert(f, s);
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{equiv_sim, GateKind};

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

    /// A hook that declines every call (the flow is BDS-PGA) and records
    /// the manager's arena size at each one.
    struct ArenaProbe {
        max_live: usize,
    }

    impl MajorityHook for ArenaProbe {
        fn try_majority(&mut self, m: &mut Manager, _f: Ref) -> Option<[Ref; 3]> {
            self.max_live = self.max_live.max(m.live_nodes());
            None
        }
    }

    /// 120 distinct random cones over 24 inputs, none replayable: while
    /// any cone is being decomposed, the arena holds less than all
    /// supernode BDDs together, which a flow keeping every pending cone
    /// live never does. (A cone's working set, its dominator tests'
    /// rebuilds included, is far larger than its BDD, hence so many.)
    #[test]
    fn one_cone_in_the_arena_at_a_time() {
        let mut net = Network::new("cones");
        let x: Vec<SignalId> = (0..24).map(|i| net.add_input(format!("x{i}"))).collect();
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut pick = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        for k in 0..120 {
            let mut acc = x[pick(24)];
            for _ in 0..6 {
                let a = x[pick(24)];
                let (kind, fanins) = match pick(4) {
                    0 => (GateKind::And, vec![acc, a]),
                    1 => (GateKind::Or, vec![acc, a]),
                    2 => (GateKind::Xor, vec![acc, a]),
                    _ => (GateKind::Maj, vec![acc, a, x[pick(24)]]),
                };
                acc = net.add_gate(kind, fanins);
            }
            net.set_output(format!("y{k}"), acc);
        }
        let options = EngineOptions::default();
        let mut m = Manager::new();
        let part = logic::partition(&net, &mut m, options.partition);
        let functions: Vec<Ref> = part.supernodes.iter().map(|s| s.function).collect();
        let mut distinct = functions.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), functions.len(), "every cone is distinct");
        let all_cones = m.shared_size(&functions);

        let mut probe = ArenaProbe { max_live: 0 };
        let result = decompose_network(&net, &options, &mut probe);
        assert_eq!(result.report.replayed_count(), 0);
        assert_eq!(equiv_sim(&net, &result.network, 16, 9), Ok(()));
        assert!(probe.max_live > 1, "the hook must be asked");
        assert!(
            probe.max_live < all_cones,
            "the arena held {} nodes; all {} cones together take {all_cones}",
            probe.max_live,
            functions.len()
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
