//! The manager: one [`NodeStore`] plus one [`Session`], presenting the
//! classic BDD-manager API.
//!
//! The heavy lifting lives elsewhere:
//!
//! * [`crate::store`] owns the node arena, the open-addressed unique
//!   table, the reference counts and the variable order, and its `mk`
//!   is the one place nodes are created;
//! * [`crate::session`] owns the set-associative computed cache, the
//!   visit scratch, the resource budget and the tick state;
//! * the recursive kernels in [`crate::ops`] and [`crate::cofactor`] are
//!   methods on `Session` taking `(&mut NodeStore, ...)`.
//!
//! The machinery that runs *between* kernel calls lives beside it:
//! [`crate::gc`] collects dead nodes and [`crate::reorder`] moves the
//! variable order. Neither runs inside a kernel, so recursion
//! intermediates need no protection. What remains here is the API
//! surface: construction, budgets, the order maps, root protection,
//! audits and the memory-system counters.

use crate::gc::GcConfig;
use crate::reference::{NodeId, Ref, Var};
use crate::session::{LimitExceeded, ResourceLimits, Session, DEFAULT_CACHE_BITS};
use crate::store::{NodeStore, FREE_VAR};

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
    /// Arena slots already reclaimed and awaiting reuse (the free list;
    /// not-yet-swept dead nodes are not counted).
    pub garbage_estimate: usize,
    /// Arena slots currently holding a live (not reclaimed) node,
    /// including the terminal.
    pub live_nodes: usize,
    /// Reclaimed arena slots currently awaiting reuse on the free list.
    pub free_nodes: usize,
    /// Total nodes reclaimed by the collector over the manager's lifetime.
    pub reclaimed_total: u64,
    /// Number of collections that actually swept (mark passes that found
    /// nothing to reclaim are not counted).
    pub collections: u64,
    /// Adjacent-level swaps over the manager's lifetime, counted at the
    /// swap primitive itself — sift walks and restores, window-reorder
    /// installs, and direct [`Manager::swap_levels`] calls alike (the
    /// window install path used to bypass this counter and under-report
    /// reorder work).
    pub sift_swaps: u64,
    /// Number of [`Manager::sift`] / [`Manager::sift_vars`] passes run
    /// (one per [`crate::sift_reorder`] call).
    pub sifts: u64,
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

/// A BDD manager: the node store (arena, unique table, reference
/// counts, variable order) plus the kernel's memo/budget state (computed
/// cache, visit scratch, resource budget).
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
    /// The node-owning half (see [`crate::store`]).
    pub(crate) store: NodeStore,
    /// The memo/budget half (see [`crate::session`]).
    pub(crate) session: Session,
    pub(crate) gc: GcConfig,
    pub(crate) sift_swaps: u64,
    pub(crate) sifts: u64,
    /// Number of sweeping collections (mark/refcount sweeps that
    /// reclaimed at least one node); excludes per-swap eager reclamation.
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
        Manager {
            store: NodeStore::with_capacity(nodes),
            session: Session::with_cache_bits(cache_bits),
            gc: GcConfig::default(),
            sift_swaps: 0,
            sifts: 0,
            collections: 0,
            reclaimed_total: 0,
        }
    }

    /// Grows the unique table (and the arena) so at least `nodes` arena
    /// nodes fit without a rehash. No-op when already large enough.
    pub fn reserve_nodes(&mut self, nodes: usize) {
        let wanted = (nodes.max(8) * 4 / 3 + 1).next_power_of_two();
        if wanted > self.store.buckets_len() {
            self.store.reserve_slots(nodes);
            self.store.grow_buckets_to(wanted);
        }
    }

    /// Installs a resource budget for the `try_*` kernels and resets the
    /// step counter. All-`None` limits (the default) disable governance.
    ///
    /// See [`ResourceLimits`] for what each bound means and
    /// [`LimitExceeded`] for the abort-recovery contract.
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.session.set_limits(limits);
    }

    /// Removes any installed resource budget (and disarms fault
    /// injection); the `try_*` kernels become infallible in practice.
    pub fn clear_limits(&mut self) {
        self.session.clear_limits();
    }

    /// The currently installed resource budget.
    pub fn limits(&self) -> ResourceLimits {
        self.session.limits()
    }

    /// Test-only fault injection: the next `try_*` kernel aborts with
    /// [`LimitKind::Injected`] once the step counter reaches `steps`
    /// (`None` disarms). Used by the abort-recovery property tests to
    /// stop recursions at arbitrary interior points.
    #[doc(hidden)]
    pub fn fault_inject_abort_after(&mut self, steps: Option<u64>) {
        self.session.fault_inject_abort_after(steps);
    }

    /// Runs a fallible kernel closure with governance suspended, turning
    /// it into the unlimited-budget infallible form. This is how every
    /// classic entry point (`ite`, `and`, `xor`, the cofactor family, ...)
    /// wraps its `try_*` twin: the budget and any armed fault injection
    /// are ignored for the duration, then restored.
    pub fn ungoverned<T>(&mut self, f: impl FnOnce(&mut Manager) -> Result<T, LimitExceeded>) -> T {
        let saved = std::mem::replace(&mut self.session.governed, false);
        let r = f(self);
        self.session.governed = saved;
        match r {
            Ok(v) => v,
            Err(e) => unreachable!("ungoverned kernel reported {e}"),
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
        self.store.ensure_var(index);
        self.mk(Var(index), Ref::ZERO, Ref::ONE)
    }

    /// Number of variables known to the manager.
    pub fn num_vars(&self) -> u32 {
        self.store.num_vars()
    }

    /// Current arena size in slots, including the terminal and reclaimed
    /// slots awaiting reuse — the kernel's memory footprint. With periodic
    /// collection this stays within a constant factor of
    /// [`Manager::live_nodes`] instead of growing monotonically.
    pub fn num_nodes(&self) -> usize {
        self.store.num_nodes()
    }

    /// Number of live nodes (arena slots currently holding a node,
    /// including the terminal; excludes the free list).
    pub fn live_nodes(&self) -> usize {
        self.store.live_nodes()
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
        let n = self.store.node(id.index());
        debug_assert!(
            n.var.0 != FREE_VAR,
            "dangling reference to reclaimed node {id:?}"
        );
        n
    }

    /// The decision variable of an edge's top node; `None` for constants.
    pub fn top_var(&self, f: Ref) -> Option<Var> {
        self.store.top_var(f)
    }

    /// Level of an edge's top node in the current variable order, the
    /// *one shared helper* every kernel branches on: constants (and the
    /// poisoned/unregistered sentinels) report `u32::MAX`, the pseudo-level
    /// below every real one. Smaller means closer to the root.
    #[inline(always)]
    pub fn level(&self, f: Ref) -> u32 {
        self.store.level(f)
    }

    /// Level of variable `v` in the current order (`u32::MAX` if `v` is
    /// unknown to the manager).
    pub fn level_of_var(&self, v: Var) -> u32 {
        self.store.var_level(v.0)
    }

    /// The variable currently sitting at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= num_vars`.
    #[inline(always)]
    pub fn var_at_level(&self, level: u32) -> Var {
        self.store.var_at_level(level)
    }

    /// The current order as `var2level[var] = level` (a permutation of
    /// `0..num_vars`).
    pub fn var2level(&self) -> &[u32] {
        &self.store.var2level
    }

    /// The current order as `level2var[level] = var` (the inverse of
    /// [`Manager::var2level`]).
    pub fn level2var(&self) -> &[u32] {
        &self.store.level2var
    }

    /// Associates a display name with a variable (used by the DOT export).
    pub fn set_var_name(&mut self, index: u32, name: impl Into<String>) {
        self.store.set_var_name(index, name.into());
    }

    /// Display name of a variable, defaulting to `x<i>`.
    pub fn var_name(&self, index: u32) -> String {
        self.store.var_name(index)
    }

    /// Finds or creates the node `(var, low, high)`, applying the reduction
    /// rules (equal children; complement pushed off the 1-edge). Unknown
    /// variables are registered at the deepest level first.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the children's levels are not strictly
    /// below `var`'s level (which would break canonicity).
    #[inline]
    pub fn mk(&mut self, var: Var, low: Ref, high: Ref) -> Ref {
        self.store.ensure_var(var.0);
        self.store.mk(var, low, high)
    }

    /// Full recount audit of the interior reference counts and the
    /// per-variable slot lists: recomputes every `int_refs` entry from the
    /// arena edges and every `var_pos` from the lists, and panics on the
    /// first disagreement. O(arena) — the debug-mode cross-check behind
    /// the O(1) swap deltas (called after every collection and after each
    /// variable's sift walk in debug builds; tests call it directly).
    pub fn verify_interior_refs(&self) {
        let n = self.store.num_nodes();
        let mut counts = vec![0u32; n];
        for i in 1..n {
            let node = self.store.node(i);
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
            if self.store.var_of(i) == FREE_VAR {
                assert_eq!(
                    self.store.int_ref(i),
                    0,
                    "reclaimed slot {i} carries interior references"
                );
            } else {
                assert_eq!(
                    self.store.int_ref(i),
                    count,
                    "interior refcount of slot {i} disagrees with a full recount"
                );
            }
        }
        for (v, list) in self.store.var_nodes.iter().enumerate() {
            for (p, &s) in list.iter().enumerate() {
                assert_eq!(
                    self.store.var_of(s as usize),
                    v as u32,
                    "var_nodes[{v}] lists slot {s} of another variable"
                );
                assert_eq!(
                    self.store.var_pos[s as usize] as usize, p,
                    "var_pos of slot {s} disagrees with its list position"
                );
            }
        }
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
        for i in 1..self.store.num_nodes() {
            let n = self.store.node(i);
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
            self.store.int_ref(f.node().index())
        }
    }

    /// Drops every memoized operation result in O(1) (generation bump).
    /// The table keeps its allocation, so long-running flows can clear
    /// between phases without paying a re-allocation or a re-grow.
    /// Correctness is unaffected.
    pub fn clear_caches(&mut self) {
        self.session.cache.clear();
    }

    /// Snapshot of the kernel's memory-system counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.session.cache.lookups,
            hits: self.session.cache.hits,
            insertions: self.session.cache.insertions,
            peak_nodes: self.store.num_nodes(),
            cache_entries: self.session.cache.entry_capacity(),
            unique_buckets: self.store.buckets_len(),
            garbage_estimate: self.store.free_nodes(),
            live_nodes: self.live_nodes(),
            free_nodes: self.store.free_nodes(),
            reclaimed_total: self.reclaimed_total,
            collections: self.collections,
            sift_swaps: self.sift_swaps,
            sifts: self.sifts,
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
                self.store.var_of(slot) != FREE_VAR,
                "protect of reclaimed node"
            );
            self.store.refs[slot] = self.store.refs[slot].saturating_add(1);
        }
        f
    }

    /// Drops one [`Manager::protect`] claim on `f`. The node becomes
    /// eligible for collection once its external count reaches zero and no
    /// other protected function reaches it.
    pub fn release(&mut self, f: Ref) {
        if !f.is_const() {
            let slot = f.node().index();
            debug_assert!(
                self.store.refs[slot] > 0,
                "release without matching protect"
            );
            self.store.refs[slot] = self.store.refs[slot].saturating_sub(1);
        }
    }

    /// External reference count of `f`'s node (test/diagnostic hook).
    pub fn protect_count(&self, f: Ref) -> u32 {
        if f.is_const() {
            u32::MAX
        } else {
            self.store.refs[f.node().index()]
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
        let (f0, f1) = m.store.shallow_cofactors(a, Var(0));
        assert_eq!((f0, f1), (Ref::ZERO, Ref::ONE));
        let (g0, g1) = m.store.shallow_cofactors(!a, Var(0));
        assert_eq!((g0, g1), (Ref::ONE, Ref::ZERO));
        // A variable below the asked level is untouched.
        let (h0, h1) = m.store.shallow_cofactors(a, Var(5));
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
        m.session
            .cache
            .insert(op::REPLACE, f.raw(), b.node().0 << 1, 1, Ref::ZERO);
        m.session
            .cache
            .insert(op::AND, a.raw(), b.raw(), 0, Ref::ZERO);
        m.session.cache.order_generation = (u32::MAX >> crate::session::GEN_SHIFT) - 1;
        m.session.cache.clear_order_sensitive();
        assert_eq!(
            m.session
                .cache
                .lookup(op::REPLACE, f.raw(), b.node().0 << 1, 1),
            None,
            "the poisoned substitution must be unobservable after the wrap"
        );
        assert_eq!(m.session.cache.lookup(op::AND, a.raw(), b.raw(), 0), None);
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
