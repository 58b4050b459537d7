//! Delay-oriented tree balancing on logic networks.
//!
//! Decomposition recursion emits skewed chains of two-input gates; a
//! technology mapper (like the ABC mapper used in the paper's flow)
//! restructures associative chains into balanced trees before covering.
//! This pass does the same on [`Network`]s: maximal single-fanout chains
//! of AND / OR / XOR(+XNOR-polarity) gates are rebuilt pairing the
//! shallowest operands first.

use crate::network::{Fanins, GateKind, Network, SignalId, STRASH_PAD};

/// Returns a balanced copy of `net`: associative chains of AND, OR and
/// XOR/XNOR gates are rebuilt as level-balanced trees. Other gate kinds
/// (MAJ, MUX, LUT, inverters) are preserved untouched.
pub fn balance_network(net: &Network) -> Network {
    let fanouts = net.fanout_counts();
    let mut out = Network::new(net.name().to_string());
    // old signal -> new signal; STRASH_PAD until mapped
    let mut map = vec![STRASH_PAD; net.len()];
    // new signal -> level, see `level_of`
    let mut level: Vec<usize> = Vec::with_capacity(net.len());
    for &pi in net.inputs() {
        map[pi.index()] = out.add_input(net.signal_name(pi));
    }
    // Mark chain-internal nodes: same-kind, single fanout. They are
    // absorbed into their consumer's leaf collection and never emitted.
    let absorbed = mark_absorbed(net, &fanouts);
    // A chain's walk stack, its leaves, and its mapped leaves (the tree's
    // operands), kept across chains.
    let mut chain = Chain::default();
    for id in net.signals() {
        if map[id.index()] != STRASH_PAD || absorbed[id.index()] {
            continue;
        }
        let node = net.node(id);
        let s = match chain_class(&node.kind) {
            Some(class) => {
                let odd = collect_leaves(net, id, class, &absorbed, &mut chain);
                chain.operands.clear();
                chain
                    .operands
                    .extend(chain.leaves.iter().map(|l| map[l.index()]));
                build_balanced(&mut out, class, &mut chain.operands, odd, &mut level)
            }
            None => {
                let fanins: Fanins = node.fanins.iter().map(|f| map[f.index()]).collect();
                let lvl = fanins
                    .iter()
                    .map(|&f| level_of(&level, f))
                    .max()
                    .unwrap_or(0)
                    + usize::from(!matches!(node.kind, GateKind::Input | GateKind::Const(_)));
                let s = out.add_gate_simplified(node.kind.clone(), fanins);
                let lvl = lvl.max(level_of(&level, s));
                set_level(&mut level, s, lvl);
                s
            }
        };
        map[id.index()] = s;
    }
    for (name, sig) in net.outputs() {
        out.set_output(name.clone(), map[sig.index()]);
    }
    out.cleaned()
}

/// The associative family a gate belongs to, if any.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ChainClass {
    And,
    Or,
    Parity,
}

fn chain_class(kind: &GateKind) -> Option<ChainClass> {
    match kind {
        GateKind::And => Some(ChainClass::And),
        GateKind::Or => Some(ChainClass::Or),
        GateKind::Xor | GateKind::Xnor => Some(ChainClass::Parity),
        _ => None,
    }
}

fn same_class(kind: &GateKind, class: ChainClass) -> bool {
    chain_class(kind) == Some(class)
}

fn mark_absorbed(net: &Network, fanouts: &[usize]) -> Vec<bool> {
    let mut absorbed = vec![false; net.len()];
    let mut is_output = vec![false; net.len()];
    for (_, s) in net.outputs() {
        is_output[s.index()] = true;
    }
    for id in net.signals() {
        let node = net.node(id);
        let Some(class) = chain_class(&node.kind) else {
            continue;
        };
        for &f in &node.fanins {
            if fanouts[f.index()] == 1
                && !is_output[f.index()]
                && same_class(&net.node(f).kind, class)
            {
                absorbed[f.index()] = true;
            }
        }
    }
    absorbed
}

/// The buffers of one chain's rebuild.
#[derive(Default)]
struct Chain {
    stack: Vec<SignalId>,
    leaves: Vec<SignalId>,
    operands: Vec<SignalId>,
}

/// Collects the leaves of the maximal chain rooted at `id` into
/// `chain.leaves`. For parity chains, also returns whether the overall
/// polarity is complemented (an odd number of XNORs absorbed).
fn collect_leaves(
    net: &Network,
    id: SignalId,
    class: ChainClass,
    absorbed: &[bool],
    chain: &mut Chain,
) -> bool {
    let Chain { stack, leaves, .. } = chain;
    leaves.clear();
    stack.clear();
    stack.push(id);
    let mut odd = false;
    let mut first = true;
    while let Some(cur) = stack.pop() {
        let node = net.node(cur);
        let absorb_here = first || absorbed[cur.index()];
        first = false;
        if absorb_here && same_class(&node.kind, class) {
            if matches!(node.kind, GateKind::Xnor) {
                odd = !odd;
            }
            stack.extend(node.fanins.iter().copied());
        } else {
            leaves.push(cur);
        }
    }
    odd
}

/// Builds a level-balanced tree over the mapped leaves, pairing the two
/// shallowest operands at each step (Huffman-style). Leaves `operands`
/// empty.
fn build_balanced(
    out: &mut Network,
    class: ChainClass,
    operands: &mut Vec<SignalId>,
    odd: bool,
    level: &mut Vec<usize>,
) -> SignalId {
    assert!(!operands.is_empty(), "chains have at least one leaf");
    let kind = |last: bool| match (class, odd && last) {
        (ChainClass::And, _) => GateKind::And,
        (ChainClass::Or, _) => GateKind::Or,
        (ChainClass::Parity, false) => GateKind::Xor,
        (ChainClass::Parity, true) => GateKind::Xnor,
    };
    if operands.len() == 1 {
        let single = operands[0];
        operands.clear();
        return if odd && class == ChainClass::Parity {
            let s = out.add_gate_simplified(GateKind::Inv, [single]);
            let lvl = level_of(level, single);
            set_level(level, s, lvl);
            s
        } else {
            single
        };
    }
    while operands.len() > 1 {
        // Pick the two shallowest operands.
        operands.sort_by_key(|&s| std::cmp::Reverse(level_of(level, s)));
        let a = operands.pop().expect("len > 1");
        let b = operands.pop().expect("len > 1");
        let last = operands.is_empty();
        let s = out.add_gate_simplified(kind(last), [a, b]);
        let lvl = (level_of(level, a).max(level_of(level, b)) + 1).max(level_of(level, s));
        set_level(level, s, lvl);
        operands.push(s);
    }
    operands.pop().expect("one root remains")
}

/// Level of the new signal `s`: 0 until [`set_level`] sets it.
fn level_of(level: &[usize], s: SignalId) -> usize {
    level.get(s.index()).copied().unwrap_or(0)
}

fn set_level(level: &mut Vec<usize>, s: SignalId, lvl: usize) {
    if level.len() <= s.index() {
        level.resize(s.index() + 1, 0);
    }
    level[s.index()] = lvl;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::equiv_sim;

    #[test]
    fn skewed_and_chain_becomes_log_depth() {
        let mut net = Network::new("chain");
        let ins: Vec<SignalId> = (0..16).map(|i| net.add_input(format!("i{i}"))).collect();
        let mut cur = ins[0];
        for &i in &ins[1..] {
            cur = net.add_gate(GateKind::And, vec![cur, i]);
        }
        net.set_output("y", cur);
        let balanced = balance_network(&net);
        assert_eq!(equiv_sim(&net, &balanced, 8, 1), Ok(()));
        assert!(
            balanced.depth() <= 5,
            "depth {} should be ~log2(16)",
            balanced.depth()
        );
    }

    #[test]
    fn xnor_chain_polarity_is_preserved() {
        // A chain of XNORs computes parity complemented by chain length.
        let mut net = Network::new("xnors");
        let ins: Vec<SignalId> = (0..7).map(|i| net.add_input(format!("i{i}"))).collect();
        let mut cur = ins[0];
        for &i in &ins[1..] {
            cur = net.add_gate(GateKind::Xnor, vec![cur, i]);
        }
        net.set_output("y", cur);
        let balanced = balance_network(&net);
        assert_eq!(equiv_sim(&net, &balanced, 16, 2), Ok(()));
        assert!(balanced.depth() <= 4, "depth {}", balanced.depth());
    }

    #[test]
    fn shared_subchains_are_not_duplicated() {
        let mut net = Network::new("shared");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let ab = net.add_gate(GateKind::And, vec![a, b]);
        // ab has two fanouts: it must stay a distinct node.
        let t1 = net.add_gate(GateKind::And, vec![ab, c]);
        let t2 = net.add_gate(GateKind::And, vec![ab, d]);
        net.set_output("y1", t1);
        net.set_output("y2", t2);
        let balanced = balance_network(&net);
        assert_eq!(equiv_sim(&net, &balanced, 8, 3), Ok(()));
        assert_eq!(
            balanced.gate_counts().and,
            3,
            "sharing preserved, no duplication"
        );
    }

    #[test]
    fn mixed_gates_survive() {
        let mut net = Network::new("mixed");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let x = net.add_gate(GateKind::Xor, vec![a, b]);
        let m = net.add_gate(GateKind::Maj, vec![x, b, c]);
        let o1 = net.add_gate(GateKind::Or, vec![m, a]);
        let o2 = net.add_gate(GateKind::Or, vec![o1, b]);
        let o3 = net.add_gate(GateKind::Or, vec![o2, c]);
        net.set_output("y", o3);
        let balanced = balance_network(&net);
        assert_eq!(equiv_sim(&net, &balanced, 16, 4), Ok(()));
        assert_eq!(balanced.gate_counts().maj, 1, "MAJ untouched");
    }

    #[test]
    fn outputs_inside_chains_stay_observable() {
        // t1 is both chain-internal and a primary output: it must not be
        // absorbed away.
        let mut net = Network::new("tap");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let t1 = net.add_gate(GateKind::And, vec![a, b]);
        let t2 = net.add_gate(GateKind::And, vec![t1, c]);
        net.set_output("tap", t1);
        net.set_output("y", t2);
        let balanced = balance_network(&net);
        assert_eq!(equiv_sim(&net, &balanced, 8, 5), Ok(()));
    }
}
