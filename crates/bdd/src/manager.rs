//! The manager: the one struct holding all kernel state, and its API
//! surface.
//!
//! [`Manager`] owns the node arena, the unique table, the external
//! reference counts, the variable order, the computed cache, the visit
//! scratch and the resource budget directly, as CUDD's `DdManager` does.
//! Its methods are spread over the modules by concern:
//!
//! * [`crate::store`] holds `mk`, the one place nodes are created, with
//!   the unique-table and arena maintenance behind it;
//! * [`crate::session`] holds the set-associative computed cache, the
//!   visit scratch, and the resource budget with its tick;
//! * [`crate::ops`] and [`crate::cofactor`] hold the recursive kernels;
//! * [`crate::reorder`] moves the variable order between kernel calls.
//!
//! What remains here is construction, the order maps, [`Manager::clear`],
//! audits and the memory-system counters.

use crate::hasher::BuildFxHasher;
use crate::reference::{NodeId, Ref, Var};
use crate::session::{ComputedCache, ResourceLimits, VisitScratch, DEFAULT_CACHE_BITS};
use crate::store::{buckets_for, triple_hash, TERMINAL_VAR};
use std::cell::RefCell;
use std::collections::HashMap;

pub use crate::store::Node;

/// Running statistics of the kernel's memory system.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Computed-cache probes.
    pub lookups: u64,
    /// Computed-cache probes that returned a memoized result.
    pub hits: u64,
    /// Computed-cache insertions (including overwrites of colliding slots).
    pub insertions: u64,
    /// Largest arena size (nodes, including the terminal) over the
    /// manager's lifetime: a high-water mark across [`Manager::clear`]s.
    pub peak_nodes: usize,
    /// Computed-cache capacity in entries (fixed after construction).
    pub cache_entries: usize,
    /// Unique-table bucket count (doubles on demand, never shrinks).
    pub unique_buckets: usize,
    /// Nodes in the arena now, including the terminal.
    pub live_nodes: usize,
    /// Total nodes dropped by [`Manager::clear`] over the manager's
    /// lifetime.
    pub reclaimed_total: u64,
    /// Number of [`Manager::clear`] calls that dropped at least one node.
    pub collections: u64,
    /// Adjacent-level swaps over the manager's lifetime: every
    /// [`Manager::swap_levels`] call, window-reorder installs included.
    pub sift_swaps: u64,
}

impl CacheStats {
    /// Fraction of computed-cache lookups that hit, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Default unique-table bucket count (grows on demand).
const DEFAULT_BUCKETS: usize = 1 << 12;

/// A BDD manager: the node arena, unique table and variable order, plus
/// the computed cache, visit scratch and resource budget the kernels use.
///
/// All functions created by one manager since its last [`Manager::clear`]
/// live in the same shared DAG, so equality of [`Ref`]s is equality of
/// Boolean functions.
///
/// # Example
///
/// ```
/// use bdd::Manager;
///
/// let mut m = Manager::new();
/// let a = m.var(0);
/// let b = m.var(1);
/// let f = m.xor(a, b);
/// assert_eq!(m.not(f), m.xnor(a, b));
/// ```
#[derive(Debug)]
pub struct Manager {
    /// The node arena; index 0 is the terminal. Nodes are only ever
    /// appended, until [`Manager::clear`] drops them all.
    pub(crate) nodes: Vec<Node>,
    /// Open-addressed unique table (bucket => node index, 0 = empty).
    pub(crate) buckets: Vec<u32>,
    pub(crate) bucket_mask: usize,
    /// Nodes listed in `buckets`.
    pub(crate) occupied: usize,
    /// Position of each variable in the decision order
    /// (`var2level[var] = level`; always a permutation of `0..num_vars`).
    pub(crate) var2level: Vec<u32>,
    /// Inverse of `var2level` (`level2var[level] = var`).
    pub(crate) level2var: Vec<u32>,
    var_names: Vec<Option<String>>,
    /// The memo shared by every recursive kernel (see [`crate::session`]).
    pub(crate) cache: ComputedCache,
    /// Scratch shared by the `&self` traversals: visited stamps, visit
    /// positions, the DFS stack and the level profile's rows. The
    /// `RefCell` lets them mark nodes; it also makes the manager `!Sync`
    /// (asserted by a `compile_fail` doctest in the crate docs).
    pub(crate) visited: RefCell<VisitScratch>,
    /// Resource budget consulted by the `try_*` kernels (all-`None` =
    /// unlimited).
    pub(crate) limits: ResourceLimits,
    /// Fast gate for [`Manager::tick`]: true iff `limits.is_limited()` or
    /// a fault injection is armed, and governance is not suspended by an
    /// infallible wrapper.
    pub(crate) governed: bool,
    /// Kernel recursion steps since limits were installed.
    pub(crate) steps: u64,
    /// Test-only fault injection: abort with
    /// [`crate::LimitKind::Injected`] once `steps` reaches this value.
    pub(crate) abort_at_step: Option<u64>,
    pub(crate) sift_swaps: u64,
    /// Arena high-water mark of the cleared generations (the current one
    /// is `nodes.len()`).
    pub(crate) peak_nodes: usize,
    /// Clears that dropped at least one node, and the nodes they dropped.
    pub(crate) collections: u64,
    pub(crate) reclaimed_total: u64,
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    /// Creates an empty manager containing only the terminal node.
    pub fn new() -> Manager {
        Manager::with_capacity(DEFAULT_BUCKETS / 2, DEFAULT_CACHE_BITS)
    }

    /// Creates a manager pre-sized for `nodes` arena nodes and a computed
    /// cache budgeted at `cache_bits` (clamped to `[8, 28]`; the cache
    /// holds `3 << (cache_bits - 2)` entries in three-way line-sized sets).
    ///
    /// Sizing the tables up front avoids rehash churn while building large
    /// functions; the unique table still doubles on demand past `nodes`.
    pub fn with_capacity(nodes: usize, cache_bits: u32) -> Manager {
        let buckets = buckets_for(nodes);
        let slots = nodes.max(16);
        let mut m = Manager {
            nodes: Vec::with_capacity(slots),
            buckets: vec![0; buckets],
            bucket_mask: buckets - 1,
            occupied: 0,
            var2level: Vec::new(),
            level2var: Vec::new(),
            var_names: Vec::new(),
            cache: ComputedCache::with_bits(cache_bits),
            visited: RefCell::new(VisitScratch::default()),
            limits: ResourceLimits::default(),
            governed: false,
            steps: 0,
            abort_at_step: None,
            sift_swaps: 0,
            peak_nodes: 0,
            collections: 0,
            reclaimed_total: 0,
        };
        m.nodes.push(Node {
            var: Var(TERMINAL_VAR),
            low: Ref::ONE,
            high: Ref::ONE,
        });
        m
    }

    /// The constant true function.
    pub fn one(&self) -> Ref {
        Ref::ONE
    }

    /// The constant false function.
    pub fn zero(&self) -> Ref {
        Ref::ZERO
    }

    /// Returns the constant function for `value`.
    pub fn constant(&self, value: bool) -> Ref {
        if value {
            Ref::ONE
        } else {
            Ref::ZERO
        }
    }

    /// Returns the projection function of variable `index`, growing the
    /// variable count if needed (new variables enter at the deepest
    /// levels, leaving the existing order untouched).
    pub fn var(&mut self, index: u32) -> Ref {
        self.mk(Var(index), Ref::ZERO, Ref::ONE)
    }

    /// Number of variables known to the manager.
    pub fn num_vars(&self) -> u32 {
        self.var2level.len() as u32
    }

    /// Number of nodes in the arena, including the terminal — the
    /// kernel's memory footprint, and the count a
    /// [`ResourceLimits::max_live_nodes`] ceiling is compared against.
    /// Nothing is reclaimed between two [`Manager::clear`]s, so this only
    /// grows until the next one.
    #[inline(always)]
    pub fn live_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Read access to a stored node (a by-value snapshot — nodes are
    /// three words).
    ///
    /// # Panics
    ///
    /// Panics if `id` is the terminal node or out of bounds (a reference
    /// from before the last [`Manager::clear`] can be either).
    pub fn node(&self, id: NodeId) -> Node {
        assert!(!id.is_terminal(), "terminal node has no decision variable");
        self.nodes[id.index()]
    }

    /// The decision variable of an edge's top node; `None` for constants.
    pub fn top_var(&self, f: Ref) -> Option<Var> {
        if f.is_const() {
            None
        } else {
            Some(self.nodes[f.node().index()].var)
        }
    }

    /// Level of an edge's top node in the current variable order, the
    /// *one shared helper* every kernel branches on: constants (and the
    /// poisoned/unregistered sentinels) report `u32::MAX`, the pseudo-level
    /// below every real one. Smaller means closer to the root.
    #[inline(always)]
    pub fn level(&self, f: Ref) -> u32 {
        self.level_of_var(self.nodes[f.node().index()].var)
    }

    /// Level of variable `v` in the current order (`u32::MAX` if `v` is
    /// unknown to the manager, and for the terminal/free sentinels).
    #[inline(always)]
    pub fn level_of_var(&self, v: Var) -> u32 {
        self.var2level.get(v.index()).copied().unwrap_or(u32::MAX)
    }

    /// The variable currently sitting at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_vars`.
    #[inline(always)]
    pub fn var_at_level(&self, level: u32) -> Var {
        Var(self.level2var[level as usize])
    }

    /// The current order as `var2level[var] = level` (a permutation of
    /// `0..num_vars`).
    pub fn var2level(&self) -> &[u32] {
        &self.var2level
    }

    /// The current order as `level2var[level] = var` (the inverse of
    /// [`Manager::var2level`]).
    pub fn level2var(&self) -> &[u32] {
        &self.level2var
    }

    /// Associates a display name with a variable (used by the DOT export).
    pub fn set_var_name(&mut self, index: u32, name: impl Into<String>) {
        let idx = index as usize;
        if self.var_names.len() <= idx {
            self.var_names.resize(idx + 1, None);
        }
        self.var_names[idx] = Some(name.into());
    }

    /// Display name of a variable, defaulting to `x<i>`.
    pub fn var_name(&self, index: u32) -> String {
        self.var_names
            .get(index as usize)
            .and_then(|n| n.clone())
            .unwrap_or_else(|| format!("x{index}"))
    }

    /// Audits the arena in one O(arena) pass and panics on the first
    /// violation:
    ///
    /// * no stored node has a complemented 1-edge or equal children —
    ///   `mk`'s canonical form. Together with hash-consing this is why a
    ///   function and its negation never occupy two nodes: the only
    ///   stored form of `¬f` is `f`'s own node reached through a
    ///   complemented edge;
    /// * every stored node's children sit at strictly deeper levels than
    ///   the node under the current order — what `mk` checks on entry
    ///   and what a level swap must re-establish for every node it
    ///   rewrites or leaves behind.
    ///
    /// Tests call it directly.
    pub fn verify_arena(&self) {
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            assert!(
                !n.high.is_complemented(),
                "slot {i}: complemented 1-edge escaped mk's normalization"
            );
            assert_ne!(n.low, n.high, "slot {i}: redundant node escaped mk");
            let level = self.level_of_var(n.var);
            assert!(
                level < self.level(n.low) && level < self.level(n.high),
                "slot {i}: a child sits at or above level {level}"
            );
        }
    }

    /// Drops every node: the arena keeps only the terminal, and the
    /// unique table and computed cache are emptied, while the variables
    /// and their order stay. Every non-constant [`Ref`] made before the
    /// call is dangling afterwards. A flow that decomposes one cone at a
    /// time clears between cones, so the arena holds one cone's working
    /// set and a level swap rewrites only that cone's nodes.
    ///
    /// The cost is O(arena), not O(table): each node's bucket is found by
    /// its own probe and zeroed, and the cache retires its generation in
    /// O(1). A clear that drops nodes counts in
    /// [`CacheStats::collections`] and [`CacheStats::reclaimed_total`].
    pub fn clear(&mut self) {
        let dropped = self.nodes.len() - 1;
        if dropped == 0 {
            return;
        }
        self.peak_nodes = self.peak_nodes.max(self.nodes.len());
        let mask = self.bucket_mask;
        for (idx, n) in self.nodes.iter().enumerate().skip(1) {
            // Buckets zeroed earlier in this loop may sit on the probe
            // path; the node's own bucket is still ahead.
            let mut i = (triple_hash(n.var.0, n.low.raw(), n.high.raw()) as usize) & mask;
            while self.buckets[i] != idx as u32 {
                i = (i + 1) & mask;
            }
            self.buckets[i] = 0;
        }
        self.nodes.truncate(1);
        self.occupied = 0;
        self.cache.clear();
        self.collections += 1;
        self.reclaimed_total += dropped as u64;
    }

    /// Copies the functions `roots` into a fresh manager that knows this
    /// manager's variables, seated in the same level order, building with
    /// [`Manager::mk`] alone. Returns that manager and the copies, in the
    /// order of `roots`; a node of a root's DAG and its copy have the same
    /// shape, so they denote the same function.
    ///
    /// Debug checks that build nodes run on such a copy: they add no node
    /// to this manager's arena, tick none of its steps and leave its
    /// computed cache alone, so a budgeted run decides the same in debug
    /// and release builds.
    pub fn copy_to_fresh(&self, roots: &[Ref]) -> (Manager, Vec<Ref>) {
        let mut fresh = Manager::with_capacity(self.shared_size(roots) + 1, 8);
        fresh.var2level = self.var2level.clone();
        fresh.level2var = self.level2var.clone();
        let mut copies = HashMap::default();
        let roots = roots
            .iter()
            .map(|&f| fresh.copy_from(self, f, &mut copies))
            .collect();
        (fresh, roots)
    }

    fn copy_from(
        &mut self,
        src: &Manager,
        f: Ref,
        copies: &mut HashMap<NodeId, Ref, BuildFxHasher>,
    ) -> Ref {
        if f.is_const() {
            return f;
        }
        let copy = match copies.get(&f.node()) {
            Some(&c) => c,
            None => {
                let n = src.node(f.node());
                let low = self.copy_from(src, n.low, copies);
                let high = self.copy_from(src, n.high, copies);
                let c = self.mk(n.var, low, high);
                copies.insert(f.node(), c);
                c
            }
        };
        copy.xor_complement(f.is_complemented())
    }

    /// Drops every memoized operation result in O(1) (generation bump).
    /// The table keeps its allocation, so long-running flows can clear
    /// between phases without paying a re-allocation or a re-grow.
    /// Correctness is unaffected.
    pub fn clear_caches(&mut self) {
        self.cache.clear();
    }

    /// Snapshot of the kernel's memory-system counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.cache.lookups,
            hits: self.cache.hits,
            insertions: self.cache.insertions,
            peak_nodes: self.peak_nodes.max(self.nodes.len()),
            cache_entries: self.cache.entry_capacity(),
            unique_buckets: self.buckets.len(),
            live_nodes: self.live_nodes(),
            reclaimed_total: self.reclaimed_total,
            collections: self.collections,
            sift_swaps: self.sift_swaps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::op;

    #[test]
    fn terminal_is_node_zero() {
        let m = Manager::new();
        assert_eq!(m.live_nodes(), 1);
        assert!(Ref::ONE.node().is_terminal());
        assert_eq!(m.top_var(Ref::ONE), None);
        assert_eq!(m.top_var(Ref::ZERO), None);
    }

    #[test]
    fn var_is_hash_consed() {
        let mut m = Manager::new();
        let a1 = m.var(3);
        let a2 = m.var(3);
        assert_eq!(a1, a2);
        assert_eq!(m.num_vars(), 4);
        assert_eq!(m.live_nodes(), 2);
    }

    #[test]
    fn mk_reduces_equal_children() {
        let mut m = Manager::new();
        let r = m.mk(Var(0), Ref::ONE, Ref::ONE);
        assert_eq!(r, Ref::ONE);
    }

    #[test]
    fn one_edges_are_regular() {
        let mut m = Manager::new();
        let a = m.var(0);
        let na = !a;
        // !a = mk(0, ONE, ZERO) must be stored with a regular 1-edge.
        assert!(na.is_complemented());
        let n = m.node(na.node());
        assert!(!n.high.is_complemented());
        assert_eq!(m.live_nodes(), 2, "a and !a share one node");
    }

    #[test]
    fn shallow_cofactors_respect_complement() {
        let mut m = Manager::new();
        let a = m.var(0);
        let (f0, f1) = m.shallow_cofactors(a, Var(0));
        assert_eq!((f0, f1), (Ref::ZERO, Ref::ONE));
        let (g0, g1) = m.shallow_cofactors(!a, Var(0));
        assert_eq!((g0, g1), (Ref::ONE, Ref::ZERO));
        // A variable below the asked level is untouched.
        let (h0, h1) = m.shallow_cofactors(a, Var(5));
        assert_eq!((h0, h1), (a, a));
    }

    #[test]
    fn var_names_default_and_custom() {
        let mut m = Manager::new();
        assert_eq!(m.var_name(2), "x2");
        m.set_var_name(2, "carry");
        assert_eq!(m.var_name(2), "carry");
    }

    #[test]
    fn unique_table_survives_growth() {
        // Force several doublings and re-check canonicity afterwards. The
        // chain is built deepest-variable-first so every `mk` respects the
        // ordering invariant (children strictly below the new node).
        let mut m = Manager::with_capacity(16, 8);
        let before = m.cache_stats().unique_buckets;
        let mut chain: Vec<(u32, Ref, Ref)> = Vec::new();
        let mut prev = Ref::ONE;
        for v in (0..300u32).rev() {
            let node = m.mk(Var(v), !prev, prev);
            chain.push((v, prev, node));
            prev = node;
        }
        assert!(
            m.cache_stats().unique_buckets > before,
            "300 nodes must outgrow the smallest table"
        );
        // Re-making the same triples must return the identical refs.
        for &(v, child, r) in &chain {
            assert_eq!(m.mk(Var(v), !child, child), r);
        }
        assert_eq!(m.live_nodes(), 301, "re-makes created nothing");
    }

    #[test]
    fn clear_caches_is_generation_bump() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f1 = m.and(a, b);
        let entries_before = m.cache_stats().cache_entries;
        m.clear_caches();
        assert_eq!(
            m.cache_stats().cache_entries,
            entries_before,
            "clear keeps capacity"
        );
        // Results stay canonical after the cache is dropped.
        assert_eq!(m.and(a, b), f1);
    }

    #[test]
    fn with_capacity_pre_sizes_tables() {
        let m = Manager::with_capacity(100_000, 18);
        let stats = m.cache_stats();
        assert!(stats.unique_buckets >= 100_000 * 4 / 3);
        // 18 cache bits → 2^16 three-way sets = 3·2^16 entries.
        assert_eq!(stats.cache_entries, 3 << 16);
    }

    #[test]
    fn stats_track_cache_traffic() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let r1 = m.ite(a, b, c);
        let before = m.cache_stats();
        let r2 = m.ite(a, b, c);
        let after = m.cache_stats();
        assert_eq!(r1, r2);
        assert!(after.lookups > before.lookups);
        assert!(after.hits > before.hits, "repeat ITE must hit the cache");
        assert_eq!(after.peak_nodes, m.live_nodes());
    }

    #[test]
    fn a_node_rewriting_swap_retires_the_memo() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        // Under the order (a, b), f's root tests a and reaches b's node.
        assert_eq!(m.replace_node_with_const(f, b.node(), true), a);
        // Plant poisoned entries under a substitution key and a
        // function-valued key, in the kernels' own key formats.
        m.cache
            .insert(op::REPLACE, f.raw(), b.node().0, 0, Ref::ONE);
        m.cache.insert(op::AND, a.raw(), b.raw(), 0, Ref::ZERO);
        assert!(m.swap_levels(0) > 0, "f's root branches into level 1");
        assert_eq!(m.cache.lookup(op::REPLACE, f.raw(), b.node().0, 0), None);
        assert_eq!(m.cache.lookup(op::AND, a.raw(), b.raw(), 0), None);
        // f's slot now tests b and reaches a's node, not b's: neither the
        // substitution memoized under the old order nor the poison may
        // come back.
        assert_eq!(m.replace_node_with_const(f, b.node(), true), f);
        assert_eq!(m.replace_node_with_const(f, a.node(), true), b);
        assert_eq!(m.replace_node_with_const(f, a.node(), false), Ref::ZERO);
        assert_eq!(m.and(a, b), f);
        // A swap that moves no node keeps the memo: nothing at a's level
        // reaches c's.
        let c = m.var(2);
        let g = m.and(b, c);
        assert_eq!(m.swap_levels(1), 0);
        let hits = m.cache_stats().hits;
        assert_eq!(m.and(b, c), g);
        assert!(m.cache_stats().hits > hits, "the memo must survive");
    }

    #[test]
    fn level_maps_start_as_identity_and_constants_report_max() {
        let mut m = Manager::new();
        m.var(2);
        assert_eq!(m.var2level(), &[0, 1, 2]);
        assert_eq!(m.level2var(), &[0, 1, 2]);
        assert_eq!(m.level(Ref::ONE), u32::MAX);
        assert_eq!(m.level(Ref::ZERO), u32::MAX);
        assert_eq!(
            m.level_of_var(Var(99)),
            u32::MAX,
            "unknown vars sit below all"
        );
        let a = m.var(1);
        assert_eq!(m.level(a), 1);
        assert_eq!(m.var_at_level(1), Var(1));
    }

    #[test]
    fn arena_audit_holds_across_swaps_collection_and_reuse() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.ite(c, ab, b);
        m.verify_arena();
        // A swap rewrites slots in place; the audit must still pass.
        m.swap_levels(0);
        m.verify_arena();
        m.swap_levels(1);
        m.verify_arena();
        let order = m.level2var().to_vec();
        let size = m.size(f);
        // A clear empties the arena and keeps the order.
        m.clear();
        m.verify_arena();
        assert_eq!(m.live_nodes(), 1);
        assert_eq!(m.level2var(), &order[..]);
        // Rebuilding under the kept order reaches the size the swaps left
        // the function at.
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let ab = m.and(a, b);
        let f = m.ite(c, ab, b);
        assert_eq!(m.size(f), size);
        m.verify_arena();
    }
}
