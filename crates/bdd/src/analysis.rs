//! Structural and semantic analysis: evaluation, size, support, and the
//! per-node connectivity statistics and structural x-dominators used by
//! dominator-driven decomposition.
//!
//! All traversals here start from caller-supplied roots; a [`NodeStats`]
//! snapshot, like any other `Ref`/`NodeId` collection, is invalidated by
//! [`Manager::clear`] and describes the DAG only until the next level
//! swap. Everything is
//! order-agnostic: evaluation and support index by variable *identity*,
//! not by level, so results are unchanged by reordering (level swaps
//! preserve each `Ref`'s function, though `size` may of course change —
//! that is the point of reordering). The structural results —
//! `size`, `node_stats`, `x_dominators` — describe the DAG under the
//! current order.

use crate::manager::{Manager, Node};
use crate::reference::{NodeId, Ref, Var};

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

    fn add_zero(&mut self, complemented: bool) {
        if complemented {
            self.zero_complemented += 1;
        } else {
            self.zero_regular += 1;
        }
    }
}

/// Connectivity statistics for every internal node reachable from a root:
/// `(node, in-degree)` pairs in DFS discovery order, root first. Each
/// degree sits beside its node, so a caller that ranks the nodes by
/// connectivity sorts the pairs and looks nothing up.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    pairs: Vec<(NodeId, InDegree)>,
}

impl NodeStats {
    /// The internal nodes with their in-degrees, in DFS discovery order
    /// (root first).
    pub fn pairs(&self) -> &[(NodeId, InDegree)] {
        &self.pairs
    }

    /// The pairs of [`Self::pairs`], by value.
    pub fn into_pairs(self) -> Vec<(NodeId, InDegree)> {
        self.pairs
    }

    /// The internal nodes, in DFS discovery order (root first).
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.pairs.iter().map(|&(id, _)| id)
    }

    /// Number of internal nodes.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the function had no internal nodes (i.e., was constant).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// One level of a function's DAG, as [`Manager::with_level_profile`]
/// gathers it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LevelRow {
    /// The DAG's nodes at this level.
    pub(crate) count: u32,
    /// The last of them the walk met: the only one when `count == 1`.
    pub(crate) node: NodeId,
    /// The deepest level an edge out of them enters (the terminal's
    /// pseudo-level is `u32::MAX`); 0 when the level holds no node.
    pub(crate) reach: u32,
}

impl LevelRow {
    const EMPTY: LevelRow = LevelRow {
        count: 0,
        node: NodeId::TERMINAL,
        reach: 0,
    };
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

    /// Calls `visit` once on every internal node reachable from `roots`,
    /// in DFS discovery order: a node before its descendants, its 1-child's
    /// sub-DAG before its 0-child's, the last root's DAG first. It marks
    /// the nodes and keeps its stack in the visit scratch, so it allocates
    /// nothing once the scratch has grown to the arena; until the next
    /// traversal, the scratch then gives each visited node's position in
    /// that order. `visit` must not start a traversal itself.
    pub(crate) fn walk(&self, roots: &[Ref], mut visit: impl FnMut(NodeId, Node)) {
        let mut scratch = self.visited.borrow_mut();
        scratch.begin(self.nodes.len());
        let mut stack = std::mem::take(&mut scratch.stack);
        stack.clear();
        stack.extend(roots.iter().map(|f| f.node()));
        while let Some(id) = stack.pop() {
            if id.is_terminal() || !scratch.mark(id.index()) {
                continue;
            }
            let n = self.nodes[id.index()];
            visit(id, n);
            stack.push(n.low.node());
            stack.push(n.high.node());
        }
        scratch.stack = stack;
    }

    /// Runs `read` on the level profile of `f`: one [`LevelRow`] per level
    /// of the current order, from one [`Manager::walk`]. The rows are kept
    /// in the visit scratch, so this allocates nothing once the scratch has
    /// grown to the order.
    pub(crate) fn with_level_profile<T>(&self, f: Ref, read: impl FnOnce(&[LevelRow]) -> T) -> T {
        let mut rows = std::mem::take(&mut self.visited.borrow_mut().levels);
        rows.clear();
        rows.resize(self.level2var.len(), LevelRow::EMPTY);
        self.walk(&[f], |id, n| {
            let row = &mut rows[self.level_of_var(n.var) as usize];
            row.count += 1;
            row.node = id;
            row.reach = row.reach.max(self.level(n.low)).max(self.level(n.high));
        });
        let out = read(&rows);
        self.visited.borrow_mut().levels = rows;
        out
    }

    /// Number of distinct internal nodes in the DAG rooted at `f`
    /// (the `|F|` size metric used throughout the BDS-MAJ paper;
    /// constants have size 0, a single variable has size 1).
    ///
    /// Reordering calls this in a tight loop, so it marks nodes in the
    /// manager's visit scratch and allocates nothing.
    pub fn size(&self, f: Ref) -> usize {
        self.shared_size(std::slice::from_ref(&f))
    }

    /// Combined size of several functions counting shared nodes once.
    pub fn shared_size(&self, fs: &[Ref]) -> usize {
        let mut count = 0;
        self.walk(fs, |_, _| count += 1);
        count
    }

    /// The set of variables `f` structurally depends on, in increasing
    /// *index* order (independent of where they currently sit in the
    /// level order): the variables of the levels that hold a node of `f`.
    pub fn support(&self, f: Ref) -> Vec<Var> {
        let mut vars: Vec<Var> = self.with_level_profile(f, |rows| {
            rows.iter()
                .zip(&self.level2var)
                .filter(|(row, _)| row.count > 0)
                .map(|(_, &v)| Var(v))
                .collect()
        });
        vars.sort_unstable();
        vars
    }

    /// Collects the internal nodes of the DAG rooted at `f`, together with
    /// incoming-edge statistics for each. The root reference itself is
    /// counted as one incoming edge (a 0-edge, complemented if the root
    /// reference is).
    ///
    /// One DFS lists the nodes; a pass over the list then adds each node's
    /// out-edges to its children's degrees, which it finds by the visit
    /// positions the DFS left in the manager's visit scratch.
    pub fn node_stats(&self, f: Ref) -> NodeStats {
        let mut pairs = Vec::new();
        self.walk(&[f], |id, _| pairs.push((id, InDegree::default())));
        let Some(root) = pairs.first_mut() else {
            return NodeStats { pairs };
        };
        root.1.add_zero(f.is_complemented());
        let seen = self.visited.borrow();
        for i in 0..pairs.len() {
            let n = self.nodes[pairs[i].0.index()];
            if !n.low.is_const() {
                pairs[seen.position(n.low.node().index())]
                    .1
                    .add_zero(n.low.is_complemented());
            }
            if !n.high.is_const() {
                pairs[seen.position(n.high.node().index())].1.one += 1;
            }
        }
        NodeStats { pairs }
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
    /// no edge from a shallower level reaches deeper than it. One scan of
    /// the level profile, top down, checks both. It creates no nodes,
    /// probes no cache and ticks no budget.
    pub fn x_dominators(&self, f: Ref) -> Vec<NodeId> {
        self.with_level_profile(f, |rows| {
            let mut out = Vec::new();
            // The deepest level entered by an edge from the levels above.
            let mut reach = 0;
            for (level, row) in (0u32..).zip(rows) {
                if row.count == 1 && reach <= level && row.node != f.node() {
                    out.push(row.node);
                }
                reach = reach.max(row.reach);
            }
            out
        })
    }

    /// The function rooted at internal node `id`, as a regular reference.
    pub fn function_of(&self, id: NodeId) -> Ref {
        Ref::new(id, false)
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
        let &(_, deg) = stats
            .pairs()
            .iter()
            .find(|&&(id, _)| m.node(id).var == Var(2))
            .expect("c node present");
        assert!(deg.total() >= 2);
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
        let stats = m.node_stats(f);
        let &(_, deg) = stats
            .pairs()
            .iter()
            .find(|&&(id, _)| id == bc.node())
            .expect("bc node present");
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
