//! The manager: the one struct holding all kernel state, and its API
//! surface.
//!
//! [`Manager`] owns the node arena, the unique table, the reference
//! counts, the variable order, the computed cache, the visit scratch and
//! the resource budget directly, as CUDD's `DdManager` does. Its methods
//! are spread over the modules by concern:
//!
//! * [`crate::store`] holds `mk`, the one place nodes are created, with
//!   the unique-table and arena maintenance behind it;
//! * [`crate::session`] holds the set-associative computed cache, the
//!   visit scratch, and the resource budget with its tick;
//! * [`crate::ops`] and [`crate::cofactor`] hold the recursive kernels;
//! * [`crate::gc`] collects dead nodes and [`crate::reorder`] moves the
//!   variable order, both between kernel calls, so recursion
//!   intermediates need no protection.
//!
//! What remains here is construction, the order maps, root protection,
//! audits and the memory-system counters.

use crate::gc::GcConfig;
use crate::reference::{NodeId, Ref, Var};
use crate::session::{ComputedCache, ResourceLimits, VisitScratch, DEFAULT_CACHE_BITS};
use crate::store::{buckets_for, FREE_VAR, TERMINAL_VAR};
use std::cell::RefCell;

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
    /// Largest node-arena size (slot count, including reclaimed slots)
    /// observed over the manager's lifetime.
    pub peak_nodes: usize,
    /// Computed-cache capacity in entries (fixed after construction).
    pub cache_entries: usize,
    /// Unique-table bucket count (shrinks when a collection leaves the
    /// table sparse).
    pub unique_buckets: usize,
    /// Arena slots currently holding a live (not reclaimed) node,
    /// including the terminal.
    pub live_nodes: usize,
    /// Reclaimed arena slots currently awaiting reuse on the free list.
    pub free_nodes: usize,
    /// Total nodes reclaimed by the collector over the manager's lifetime.
    pub reclaimed_total: u64,
    /// Number of collections that actually swept (collections that found
    /// nothing to reclaim are not counted).
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

/// A BDD manager: the node arena, unique table, reference counts and
/// variable order, plus the computed cache, visit scratch and resource
/// budget the kernels use.
///
/// All functions created by one manager live in the same shared DAG, so
/// equality of [`Ref`]s is equality of Boolean functions.
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
    /// The node arena; index 0 is the terminal. Its length is the arena
    /// high-water mark, and every per-slot vector below has that length.
    pub(crate) nodes: Vec<Node>,
    /// Interior reference count per arena slot: the number of *arena
    /// edges* into the slot. Maintained by `mk`, the level swap's slot
    /// patching and the collector; audited against a full recount in
    /// debug builds.
    pub(crate) int_refs: Vec<u32>,
    /// External reference count per arena slot (collection roots).
    pub(crate) refs: Vec<u32>,
    /// Reclaimed arena slots awaiting reuse (LIFO).
    pub(crate) free: Vec<u32>,
    /// Open-addressed unique table (bucket => node index, 0 = empty).
    pub(crate) buckets: Vec<u32>,
    pub(crate) bucket_mask: usize,
    /// Nodes listed in `buckets`.
    pub(crate) occupied: usize,
    /// Nodes created since the last collection (gates `maybe_collect`).
    pub(crate) allocs_since_gc: usize,
    /// Position of each variable in the decision order
    /// (`var2level[var] = level`; always a permutation of `0..num_vars`).
    pub(crate) var2level: Vec<u32>,
    /// Inverse of `var2level` (`level2var[level] = var`).
    pub(crate) level2var: Vec<u32>,
    /// Exact per-variable slot lists, appended to by `mk`: the level
    /// swap's work list. They list garbage nodes too, until the next
    /// sweep rebuilds them.
    pub(crate) var_nodes: Vec<Vec<u32>>,
    var_names: Vec<Option<String>>,
    /// The memo shared by every recursive kernel (see [`crate::session`]).
    pub(crate) cache: ComputedCache,
    /// Visited-stamp scratch shared by the `&self` traversals. The
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
    pub(crate) gc: GcConfig,
    pub(crate) sift_swaps: u64,
    /// Number of sweeping collections (collections that reclaimed at
    /// least one node).
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
        let mut m = Manager {
            nodes: Vec::new(),
            int_refs: Vec::new(),
            refs: Vec::new(),
            free: Vec::new(),
            buckets: vec![0; buckets],
            bucket_mask: buckets - 1,
            occupied: 0,
            allocs_since_gc: 0,
            var2level: Vec::new(),
            level2var: Vec::new(),
            var_nodes: Vec::new(),
            var_names: Vec::new(),
            cache: ComputedCache::with_bits(cache_bits),
            visited: RefCell::new(VisitScratch::default()),
            limits: ResourceLimits::default(),
            governed: false,
            steps: 0,
            abort_at_step: None,
            gc: GcConfig::default(),
            sift_swaps: 0,
            collections: 0,
            reclaimed_total: 0,
        };
        m.reserve_slots(nodes.max(16));
        m.push_slot(Node {
            var: Var(TERMINAL_VAR),
            low: Ref::ONE,
            high: Ref::ONE,
        });
        m
    }

    /// Grows the unique table (and the arena) so at least `nodes` arena
    /// nodes fit without a rehash. No-op when already large enough.
    pub fn reserve_nodes(&mut self, nodes: usize) {
        let wanted = buckets_for(nodes);
        if wanted > self.buckets.len() {
            self.reserve_slots(nodes);
            self.grow_buckets_to(wanted);
        }
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

    /// Current arena size in slots, including the terminal and reclaimed
    /// slots awaiting reuse — the kernel's memory footprint. With periodic
    /// collection this stays within a constant factor of
    /// [`Manager::live_nodes`] instead of growing monotonically.
    #[inline(always)]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes (arena slots currently holding a node,
    /// including the terminal; excludes the free list).
    #[inline(always)]
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Read access to a stored node (a by-value snapshot — nodes are
    /// three words).
    ///
    /// # Panics
    ///
    /// Panics if `id` is the terminal node or out of bounds; in debug
    /// builds, also if `id` was reclaimed by a collection (a dangling
    /// reference the caller failed to protect).
    pub fn node(&self, id: NodeId) -> Node {
        assert!(!id.is_terminal(), "terminal node has no decision variable");
        let n = self.nodes[id.index()];
        debug_assert!(
            n.var.0 != FREE_VAR,
            "dangling reference to reclaimed node {id:?}"
        );
        n
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

    /// Full recount audit of the interior reference counts and the
    /// per-variable slot lists: recomputes every `int_refs` entry from the
    /// arena edges, checks that each listed slot holds its list's variable
    /// and that the lists hold one entry per live node, and panics on the
    /// first disagreement. O(arena) — called after every collection in
    /// debug builds; tests call it directly.
    pub fn verify_interior_refs(&self) {
        let mut counts = vec![0u32; self.nodes.len()];
        for node in self.nodes.iter().skip(1) {
            if node.var.0 == FREE_VAR {
                continue;
            }
            for c in [node.low, node.high] {
                let ci = c.node().index();
                if ci != 0 {
                    counts[ci] += 1;
                }
            }
        }
        for (i, &count) in counts.iter().enumerate().skip(1) {
            if self.nodes[i].var.0 == FREE_VAR {
                assert_eq!(
                    self.int_refs[i], 0,
                    "reclaimed slot {i} carries interior references"
                );
            } else {
                assert_eq!(
                    self.int_refs[i], count,
                    "interior refcount of slot {i} disagrees with a full recount"
                );
            }
        }
        for (v, list) in self.var_nodes.iter().enumerate() {
            for &s in list {
                assert_eq!(
                    self.nodes[s as usize].var.0, v as u32,
                    "var_nodes[{v}] lists slot {s} of another variable"
                );
            }
        }
        let listed: usize = self.var_nodes.iter().map(Vec::len).sum();
        assert_eq!(
            listed,
            self.live_nodes() - 1,
            "var_nodes and the live node count disagree"
        );
    }

    /// Audits the complement-edge canonical form over the live arena: no
    /// stored node may carry a complemented 1-edge (`mk` pushes the
    /// complement onto the 0-edge and the incoming edge) and no stored
    /// node may have equal children (the reduction rule). Together with
    /// hash-consing this is exactly why a function and its negation can
    /// never occupy two nodes: the only stored form of `¬f` is `f`'s own
    /// node reached through a complemented edge. Panics on the first
    /// violation; O(arena), intended for tests and debug audits.
    pub fn verify_edge_canonical_form(&self) {
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if n.var.0 == FREE_VAR {
                continue;
            }
            assert!(
                !n.high.is_complemented(),
                "slot {i}: complemented 1-edge escaped mk's normalization"
            );
            assert_ne!(n.low, n.high, "slot {i}: redundant node escaped mk");
        }
    }

    /// Interior (arena-edge) reference count of `f`'s node — how many
    /// live nodes name it as a child (test/diagnostic hook; the terminal
    /// reports `u32::MAX` like [`Manager::protect_count`]).
    pub fn interior_count(&self, f: Ref) -> u32 {
        if f.is_const() {
            u32::MAX
        } else {
            self.int_refs[f.node().index()]
        }
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
            peak_nodes: self.nodes.len(),
            cache_entries: self.cache.entry_capacity(),
            unique_buckets: self.buckets.len(),
            live_nodes: self.live_nodes(),
            free_nodes: self.free.len(),
            reclaimed_total: self.reclaimed_total,
            collections: self.collections,
            sift_swaps: self.sift_swaps,
        }
    }

    // ------------------------------------------------------------------
    // Collection roots and collector settings (the collector itself
    // lives in `crate::gc`).
    // ------------------------------------------------------------------

    /// Declares `f` a collection root: the node it references (and
    /// everything reachable from it) survives [`Manager::collect`] until a
    /// matching [`Manager::release`]. Calls nest — `protect` twice,
    /// `release` twice. Constants are always live; protecting them is a
    /// no-op. Returns `f` for call-site convenience.
    pub fn protect(&mut self, f: Ref) -> Ref {
        if !f.is_const() {
            let slot = f.node().index();
            debug_assert!(
                self.nodes[slot].var.0 != FREE_VAR,
                "protect of reclaimed node"
            );
            self.refs[slot] = self.refs[slot].saturating_add(1);
        }
        f
    }

    /// Drops one [`Manager::protect`] claim on `f`. The node becomes
    /// eligible for collection once its external count reaches zero and no
    /// other protected function reaches it.
    pub fn release(&mut self, f: Ref) {
        if !f.is_const() {
            let slot = f.node().index();
            debug_assert!(self.refs[slot] > 0, "release without matching protect");
            self.refs[slot] = self.refs[slot].saturating_sub(1);
        }
    }

    /// External reference count of `f`'s node (test/diagnostic hook).
    pub fn protect_count(&self, f: Ref) -> u32 {
        if f.is_const() {
            u32::MAX
        } else {
            self.refs[f.node().index()]
        }
    }

    /// Replaces the collector configuration (see [`GcConfig`]).
    pub fn set_gc_config(&mut self, config: GcConfig) {
        self.gc = config;
    }

    /// The active collector configuration.
    pub fn gc_config(&self) -> GcConfig {
        self.gc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::op;

    #[test]
    fn terminal_is_node_zero() {
        let m = Manager::new();
        assert_eq!(m.num_nodes(), 1);
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
        assert_eq!(m.num_nodes(), 2);
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
        assert_eq!(m.num_nodes(), 2, "a and !a share one node");
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
        assert_eq!(m.num_nodes(), 301, "re-makes created nothing");
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
    fn reserve_nodes_grows_unique_table() {
        let mut m = Manager::new();
        let before = m.cache_stats().unique_buckets;
        m.reserve_nodes(1 << 16);
        assert!(m.cache_stats().unique_buckets > before);
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert_eq!(m.and(a, b), f);
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
        assert_eq!(after.peak_nodes, m.num_nodes());
    }

    #[test]
    fn protect_release_roundtrip() {
        let mut m = Manager::new();
        let a = m.var(0);
        assert_eq!(m.protect_count(a), 0);
        m.protect(a);
        m.protect(a);
        assert_eq!(m.protect_count(a), 2);
        m.release(a);
        assert_eq!(m.protect_count(a), 1);
        m.release(a);
        assert_eq!(m.protect_count(a), 0);
        // Constants are always live; protect/release are no-ops.
        m.protect(Ref::ONE);
        m.release(Ref::ZERO);
        assert_eq!(m.protect_count(Ref::ONE), u32::MAX);
    }

    #[test]
    fn order_generation_wrap_retires_replace_memo() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.ite(a, b, Ref::ZERO);
        // Put the order generation at the wrap boundary and plant a
        // poisoned substitution entry. The wrap must wipe it together with
        // every function-valued entry of the table; if it only restarted
        // the order generation at 1, a stale entry could come back live.
        m.cache
            .insert(op::REPLACE, f.raw(), b.node().0 << 1, 1, Ref::ZERO);
        m.cache.insert(op::AND, a.raw(), b.raw(), 0, Ref::ZERO);
        m.cache.order_generation = (u32::MAX >> crate::session::GEN_SHIFT) - 1;
        m.cache.clear_order_sensitive();
        assert_eq!(
            m.cache.lookup(op::REPLACE, f.raw(), b.node().0 << 1, 1),
            None,
            "the poisoned substitution must be unobservable after the wrap"
        );
        assert_eq!(m.cache.lookup(op::AND, a.raw(), b.raw(), 0), None);
        // End-to-end: the substitution after the wrap is still correct.
        assert_eq!(m.replace_node_with_const(f, b.node(), true), a);
        assert_eq!(m.replace_node_with_const(f, b.node(), false), Ref::ZERO);
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
    fn interior_refs_track_arena_edges_exactly() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.ite(c, ab, b);
        m.verify_interior_refs();
        // `b`'s projection node is the 1-child of `ab` (at least).
        assert!(m.interior_count(b) >= 1);
        assert_eq!(m.interior_count(Ref::ONE), u32::MAX);
        let _ = ab;
        // A swap rewrites edges; the audit must still pass and the counts
        // must follow the patched slots.
        m.protect(f);
        m.swap_levels(0);
        m.verify_interior_refs();
        m.swap_levels(1);
        m.verify_interior_refs();
        // Collection reclaims with cascading decrements; audit again.
        m.collect();
        m.verify_interior_refs();
        // Free-list reuse re-increments the new children.
        let d = m.var(3);
        let g = m.and(f, d);
        let _ = g;
        m.verify_interior_refs();
    }
}
