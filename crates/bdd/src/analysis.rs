//! Structural and semantic analysis: evaluation, size, support, and the
//! per-node connectivity statistics and structural x-dominators used by
//! dominator-driven decomposition.
//!
//! All traversals here start from caller-supplied roots and never touch
//! reclaimed arena slots; a [`NodeStats`] snapshot, like any other
//! `Ref`/`NodeId` collection, is invalidated by a garbage collection, so
//! hold one only between two quiescent points. Everything is
//! order-agnostic: evaluation and support index by variable *identity*,
//! not by level, so results are unchanged by reordering (level swaps
//! preserve each `Ref`'s function, though `size` may of course change —
//! that is the point of reordering). The structural results —
//! `size`, `node_stats`, `x_dominators` — describe the DAG under the
//! current order.

use crate::hasher::BuildFxHasher;
use crate::manager::Manager;
use crate::reference::{NodeId, Ref, Var};
use std::collections::{HashMap, HashSet};

/// Incoming-edge statistics of one node inside the DAG of a function, as
/// needed by the m-dominator search of BDS-MAJ (§III-B condition (ii)).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct InDegree {
    /// Incoming 0-edges without the complement attribute.
    pub zero_regular: usize,
    /// Incoming 0-edges carrying the complement attribute.
    pub zero_complemented: usize,
    /// Incoming 1-edges (always regular in this package).
    pub one: usize,
}

impl InDegree {
    /// Total number of incoming edges.
    pub fn total(&self) -> usize {
        self.zero_regular + self.zero_complemented + self.one
    }
}

/// Connectivity statistics for every internal node reachable from a root.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    degrees: HashMap<NodeId, InDegree, BuildFxHasher>,
    order: Vec<NodeId>,
}

impl NodeStats {
    /// In-degree record of `id` (zeroed if the node is unknown).
    pub fn in_degree(&self, id: NodeId) -> InDegree {
        self.degrees.get(&id).copied().unwrap_or_default()
    }

    /// The internal nodes reachable from the root, in DFS discovery order
    /// (root first).
    pub fn nodes(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of internal nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the function had no internal nodes (i.e., was constant).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

impl Manager {
    /// Evaluates `f` under a total assignment (`assignment[i]` is the value
    /// of variable `i`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than a variable index reached
    /// during the walk.
    pub fn eval(&self, f: Ref, assignment: &[bool]) -> bool {
        let mut cur = f;
        loop {
            if cur.is_const() {
                return cur.is_one();
            }
            let n = self.nodes[cur.node().index()];
            let c = cur.is_complemented();
            let branch = if assignment[n.var.index()] {
                n.high
            } else {
                n.low
            };
            cur = branch.xor_complement(c);
        }
    }

    /// Number of distinct internal nodes in the DAG rooted at `f`
    /// (the `|F|` size metric used throughout the BDS-MAJ paper;
    /// constants have size 0, a single variable has size 1).
    ///
    /// Uses the manager's visited-stamp scratch instead of a per-call hash
    /// set: reordering calls this in a tight loop.
    pub fn size(&self, f: Ref) -> usize {
        self.shared_size(std::slice::from_ref(&f))
    }

    /// Combined size of several functions counting shared nodes once.
    pub fn shared_size(&self, fs: &[Ref]) -> usize {
        let mut seen = self.visited.borrow_mut();
        seen.begin(self.nodes.len());
        let mut count = 0usize;
        let mut stack: Vec<NodeId> = fs.iter().map(|f| f.node()).collect();
        while let Some(id) = stack.pop() {
            if id.is_terminal() || !seen.mark(id.index()) {
                continue;
            }
            count += 1;
            let n = self.nodes[id.index()];
            stack.push(n.low.node());
            stack.push(n.high.node());
        }
        count
    }

    /// The set of variables `f` structurally depends on, in increasing
    /// *index* order (independent of where they currently sit in the
    /// level order).
    pub fn support(&self, f: Ref) -> Vec<Var> {
        let mut vars: HashSet<u32, BuildFxHasher> = HashSet::default();
        let mut seen = self.visited.borrow_mut();
        seen.begin(self.nodes.len());
        let mut stack = vec![f.node()];
        while let Some(id) = stack.pop() {
            if id.is_terminal() || !seen.mark(id.index()) {
                continue;
            }
            let n = self.nodes[id.index()];
            vars.insert(n.var.0);
            stack.push(n.low.node());
            stack.push(n.high.node());
        }
        let mut out: Vec<Var> = vars.into_iter().map(Var).collect();
        out.sort();
        out
    }

    /// Collects the internal nodes of the DAG rooted at `f`, together with
    /// incoming-edge statistics for each. The root reference itself is
    /// counted as one incoming edge (a 0-edge, complemented if the root
    /// reference is).
    pub fn node_stats(&self, f: Ref) -> NodeStats {
        let mut stats = NodeStats::default();
        if f.is_const() {
            return stats;
        }
        let mut seen = self.visited.borrow_mut();
        seen.begin(self.nodes.len());
        let mut stack = vec![f.node()];
        stats.record_zero(f.node(), f.is_complemented());
        while let Some(id) = stack.pop() {
            if !seen.mark(id.index()) {
                continue;
            }
            stats.order.push(id);
            let n = self.nodes[id.index()];
            if !n.low.node().is_terminal() {
                stats.record_zero(n.low.node(), n.low.is_complemented());
                stack.push(n.low.node());
            }
            if !n.high.node().is_terminal() {
                stats.record_one(n.high.node());
                stack.push(n.high.node());
            }
        }
        stats
    }

    /// The internal nodes of `f`, root excluded, that lie on every
    /// root-to-terminal path, in level order: the x-dominators of BDS
    /// (Yang & Ciesielski, IEEE TCAD 21(7), 2002).
    ///
    /// Every ROBDD path is realizable, so node `d` lies on every path
    /// exactly when every assignment's path visits it, which with
    /// complement edges is exactly when `f[d:=0] == ¬f[d:=1]` (see
    /// [`Manager::replace_node_with_const`]). A path meets each level at
    /// most once and ends at the terminal, below the last level, so `d`
    /// lies on every path iff it is the only node of `f` at its level and
    /// no edge from a shallower level reaches deeper than it. One pass
    /// over the nodes in level order checks both. It creates no nodes,
    /// probes no cache and ticks no budget.
    pub fn x_dominators(&self, f: Ref) -> Vec<NodeId> {
        let mut by_level: Vec<(u32, NodeId)> = Vec::new();
        {
            let mut seen = self.visited.borrow_mut();
            seen.begin(self.nodes.len());
            let mut stack = vec![f.node()];
            while let Some(id) = stack.pop() {
                if id.is_terminal() || !seen.mark(id.index()) {
                    continue;
                }
                let n = self.nodes[id.index()];
                by_level.push((self.level_of_var(n.var), id));
                stack.push(n.low.node());
                stack.push(n.high.node());
            }
        }
        by_level.sort_unstable();
        let mut out = Vec::new();
        // The deepest level entered by an edge from the levels above; the
        // terminal's pseudo-level u32::MAX is below every real one.
        let mut reach = 0;
        for group in by_level.chunk_by(|a, b| a.0 == b.0) {
            if let [(level, id)] = *group {
                if reach <= level && id != f.node() {
                    out.push(id);
                }
            }
            for &(_, id) in group {
                let n = self.nodes[id.index()];
                reach = reach.max(self.level(n.low)).max(self.level(n.high));
            }
        }
        out
    }

    /// The function rooted at internal node `id`, as a regular reference.
    pub fn function_of(&self, id: NodeId) -> Ref {
        Ref::new(id, false)
    }
}

impl NodeStats {
    fn record_zero(&mut self, id: NodeId, complemented: bool) {
        let e = self.degrees.entry(id).or_default();
        if complemented {
            e.zero_complemented += 1;
        } else {
            e.zero_regular += 1;
        }
    }

    fn record_one(&mut self, id: NodeId) {
        self.degrees.entry(id).or_default().one += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_on_simple_functions() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, !b);
        assert!(m.eval(f, &[true, false]));
        assert!(!m.eval(f, &[true, true]));
        assert!(!m.eval(f, &[false, false]));
        assert!(m.eval(Ref::ONE, &[]));
        assert!(!m.eval(Ref::ZERO, &[]));
    }

    #[test]
    fn size_of_constants_and_vars() {
        let mut m = Manager::new();
        assert_eq!(m.size(Ref::ONE), 0);
        assert_eq!(m.size(Ref::ZERO), 0);
        let a = m.var(0);
        assert_eq!(m.size(a), 1);
        assert_eq!(m.size(!a), 1);
    }

    #[test]
    fn shared_size_counts_shared_nodes_once() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let g = m.or(a, b);
        let both = m.shared_size(&[f, g]);
        assert!(both <= m.size(f) + m.size(g));
        assert_eq!(m.shared_size(&[f, f]), m.size(f));
    }

    #[test]
    fn support_is_structural_dependence() {
        let mut m = Manager::new();
        let a = m.var(0);
        let c = m.var(2);
        let f = m.xor(a, c);
        assert_eq!(m.support(f), vec![Var(0), Var(2)]);
        assert_eq!(m.support(Ref::ONE), vec![]);
    }

    #[test]
    fn node_stats_on_majority() {
        // Maj(a,b,c) with order a<b<c has the classic 4-node diamond; the
        // "b or c"/"b and c" pair both feed the shared c node.
        let mut m = Manager::new();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let f = m.maj(a, b, c);
        let stats = m.node_stats(f);
        assert_eq!(stats.len(), 4);
        assert_eq!(m.size(f), 4);
        // The node for variable c is reached from both b-nodes.
        let c_node = stats
            .nodes()
            .iter()
            .copied()
            .find(|&id| m.node(id).var == Var(2))
            .expect("c node present");
        assert!(stats.in_degree(c_node).total() >= 2);
    }

    #[test]
    fn node_stats_of_constant_is_empty() {
        let m = Manager::new();
        let stats = m.node_stats(Ref::ONE);
        assert!(stats.is_empty());
        assert_eq!(stats.len(), 0);
    }

    /// The structural set of `f` as a list of node variables, top down.
    fn x_dominator_vars(m: &Manager, f: Ref) -> Vec<Var> {
        m.x_dominators(f).iter().map(|&id| m.node(id).var).collect()
    }

    #[test]
    fn x_dominators_skip_a_node_jumped_by_an_edge() {
        // (a ? b : c) ⊕ d under a<b<c<d: the b-node is alone at its level,
        // but the edge from a to the c-node jumps it; the c-node is jumped
        // by the b-node's edges into the d-node, which every path meets.
        let mut m = Manager::new();
        let (a, b, c, d) = (m.var(0), m.var(1), m.var(2), m.var(3));
        let sel = m.ite(a, b, c);
        let f = m.xor(sel, d);
        assert_eq!(m.size(f), 4);
        assert_eq!(x_dominator_vars(&m, f), vec![Var(3)]);
        // An edge into the terminal jumps every level below it.
        let bc = m.or(b, c);
        let g = m.and(a, bc);
        assert_eq!(x_dominator_vars(&m, g), vec![]);
    }

    #[test]
    fn x_dominators_keep_a_node_entered_by_a_complemented_edge() {
        // a ⊙ bc: the two edges out of a enter the bc node in opposite
        // polarities, and every path still meets it.
        let mut m = Manager::new();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let bc = m.and(b, c);
        let f = m.xnor(a, bc);
        let deg = m.node_stats(f).in_degree(bc.node());
        assert_eq!((deg.total(), deg.zero_complemented), (2, 1));
        assert_eq!(m.x_dominators(f), vec![bc.node()]);
        assert_eq!(m.x_dominators(!f), vec![bc.node()]);
    }

    #[test]
    fn x_dominators_exclude_the_root_and_constants() {
        let mut m = Manager::new();
        let a = m.var(0);
        assert_eq!(m.x_dominators(a), vec![]);
        assert_eq!(m.x_dominators(!a), vec![]);
        assert_eq!(m.x_dominators(Ref::ONE), vec![]);
        assert_eq!(m.x_dominators(Ref::ZERO), vec![]);
    }

    #[test]
    fn x_dominators_of_parity_are_every_node_below_the_root() {
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..6).map(|i| m.var(i)).collect();
        let f = m.xor_all(vars);
        let below_root: Vec<Var> = (1..6).map(Var).collect();
        assert_eq!(m.size(f), 6);
        assert_eq!(x_dominator_vars(&m, f), below_root);
        assert_eq!(x_dominator_vars(&m, !f), below_root);
    }
}
