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
//! What remains here is the machinery that runs *between* kernel calls:
//! garbage collection (refcount-driven and mark-and-sweep) and dynamic
//! reordering (adjacent level swaps, Rudell sifting, symmetric groups).
//! Neither runs inside a kernel, so recursion intermediates need no
//! protection.

use crate::reference::{NodeId, Ref, Var};
use crate::session::{LimitExceeded, ResourceLimits, Session, DEFAULT_CACHE_BITS};
use crate::store::{NodeStore, FREE_VAR, MIN_BUCKETS};

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
    /// Arena slots known to be reclaimable or already reclaimed: the
    /// current free list, plus — when computed via
    /// [`Manager::cache_stats_with_roots`] — the in-use nodes unreachable
    /// from the supplied roots (what the next sweep from those roots would
    /// add to the free list).
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
    /// Number of [`Manager::sift`] passes run (including those triggered
    /// through [`Manager::maybe_sift`]).
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

/// Tuning knobs of the dead-node collector (see [`Manager::maybe_collect`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GcConfig {
    /// A [`Manager::maybe_collect`] call sweeps only when at least this
    /// fraction of the in-use nodes is dead (unreachable from any
    /// protected node). Also gates how much allocation must happen between
    /// collection attempts, so repeated `maybe_collect` calls on a quiet
    /// manager cost O(1).
    pub dead_fraction: f64,
    /// Collections are skipped entirely while fewer than this many nodes
    /// are in use — tiny managers are cheaper to let grow.
    pub min_nodes: usize,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            dead_fraction: 0.25,
            min_nodes: 4096,
        }
    }
}

/// Tuning knobs of one [`Manager::sift`] pass (Rudell's algorithm).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SiftConfig {
    /// While moving one variable through the order, abort the current
    /// direction once the rooted size exceeds this factor of the size at
    /// the variable's *starting position* (CUDD's `maxGrowth`). Bounding
    /// against the start — not the best size seen this pass — keeps one
    /// variable's big win from licensing a later variable to balloon the
    /// global size.
    pub max_growth: f64,
    /// Total adjacent-swap budget of the pass. Once exhausted no further
    /// variable is sifted; the in-flight variable (or group) still
    /// returns to its best position — those restore swaps exceed the
    /// budget and are reported as [`SiftReport::restore_overage`].
    pub max_swaps: usize,
    /// Sift at most this many variables (each walked group counts once),
    /// densest level first.
    pub max_vars: usize,
    /// Detect adjacent symmetric variables at each walk's start
    /// ([`Manager::symmetric_levels`]) and move the whole group through
    /// the order as a block (Panda–Somenzi symmetric sifting). Off by
    /// default; [`ConvergeConfig`] turns it on.
    pub symmetric_groups: bool,
}

impl Default for SiftConfig {
    fn default() -> Self {
        SiftConfig {
            max_growth: 1.2,
            max_swaps: 4096,
            max_vars: usize::MAX,
            symmetric_groups: false,
        }
    }
}

/// Tuning knobs of [`Manager::sift_to_fixpoint`]: budget-relaxed
/// [`Manager::sift`] passes repeated until one stops paying.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConvergeConfig {
    /// Per-pass configuration. The default relaxes the swap budget far
    /// beyond [`SiftConfig::default`] (the O(1) swap deltas make long
    /// passes affordable) and enables symmetric-group sifting.
    pub pass: SiftConfig,
    /// Convergence threshold: stop once a pass shrinks the rooted size
    /// by less than this fraction of its starting size.
    pub min_gain: f64,
    /// Hard cap on the number of passes.
    pub max_passes: usize,
}

impl Default for ConvergeConfig {
    fn default() -> Self {
        ConvergeConfig {
            pass: SiftConfig {
                max_growth: 1.2,
                max_swaps: 1 << 20,
                max_vars: usize::MAX,
                symmetric_groups: true,
            },
            min_gain: 0.01,
            max_passes: 8,
        }
    }
}

/// Outcome of a [`Manager::sift`] pass (or an accumulated
/// [`Manager::sift_to_fixpoint`] run). Sizes are rooted sizes (nodes
/// reachable from the protected roots, see [`Manager::rooted_size`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiftReport {
    /// Rooted size before the pass.
    pub initial_size: usize,
    /// Rooted size after the pass (never larger than `initial_size`).
    pub final_size: usize,
    /// Adjacent-level swaps performed, restores included.
    pub swaps: usize,
    /// Variables actively walked through the order (a symmetric group
    /// walked as a block counts once).
    pub vars_sifted: usize,
    /// Swaps spent past [`SiftConfig::max_swaps`] returning the
    /// in-flight variable or group to its best position — restores are
    /// never budget-gated, so this is the budget overshoot.
    pub restore_overage: usize,
    /// Symmetric groups (two or more variables) moved as blocks.
    pub groups: usize,
    /// Sift passes accumulated into this report (1 from [`Manager::sift`],
    /// up to [`ConvergeConfig::max_passes`] from the fixpoint driver).
    pub passes: usize,
}

/// Gating of the automatic [`Manager::maybe_sift`] hook. Disabled by
/// default; flows that want dynamic reordering enable it and then offer
/// `maybe_sift` at the same quiescent points as `maybe_collect`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoSiftConfig {
    /// Master switch; when false, [`Manager::maybe_sift`] is a no-op.
    pub enabled: bool,
    /// The first sift triggers once this many nodes are live; after each
    /// sift the threshold is re-armed at twice the post-sift live size
    /// (never below this floor).
    pub min_nodes: usize,
    /// Per-pass budgets forwarded to [`Manager::sift`].
    pub sift: SiftConfig,
    /// When set, a triggered sift runs [`Manager::sift_to_fixpoint`]
    /// under this configuration instead of the single `sift` pass.
    pub fixpoint: Option<ConvergeConfig>,
}

impl Default for AutoSiftConfig {
    fn default() -> Self {
        AutoSiftConfig {
            enabled: false,
            min_nodes: 4096,
            sift: SiftConfig::default(),
            fixpoint: None,
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
    gc: GcConfig,
    auto_sift: AutoSiftConfig,
    /// Live-node threshold re-arming [`Manager::maybe_sift`].
    next_sift: usize,
    sift_swaps: u64,
    sifts: u64,
    /// Reclamation epoch: bumped whenever any slot is reclaimed — by a
    /// sweeping collection *or* by the eager reclamation inside sifting's
    /// level swaps. Holders of `Ref`-keyed side tables (e.g. the majority
    /// hook's memo) compare this against a saved value to know when their
    /// keys may dangle.
    gc_epoch: u64,
    /// Number of sweeping collections (mark/refcount sweeps that
    /// reclaimed at least one node); excludes per-swap eager reclamation.
    collections: u64,
    reclaimed_total: u64,
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
            auto_sift: AutoSiftConfig::default(),
            next_sift: AutoSiftConfig::default().min_nodes,
            sift_swaps: 0,
            sifts: 0,
            gc_epoch: 0,
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

    /// Kernel recursion steps taken since the limits were installed or
    /// last reset — a cheap progress/cost indicator.
    pub fn steps_used(&self) -> u64 {
        self.session.steps_used()
    }

    /// Resets the step counter without touching the installed bounds
    /// (e.g. to give each cone of a flow a fresh work budget).
    pub fn reset_steps(&mut self) {
        self.session.reset_steps();
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

    /// Snapshot of the kernel's memory-system counters. The
    /// `garbage_estimate` field reports the current free list (slots
    /// already reclaimed and awaiting reuse); use
    /// [`Manager::cache_stats_with_roots`] to also count not-yet-swept
    /// dead nodes.
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

    /// [`Manager::cache_stats`] with `garbage_estimate` extended by the
    /// in-use nodes unreachable from `roots` — what a sweep from exactly
    /// those roots would reclaim, on top of the existing free list.
    pub fn cache_stats_with_roots(&self, roots: &[Ref]) -> CacheStats {
        let mut stats = self.cache_stats();
        let live = self.shared_size(roots);
        let in_use = self.live_nodes() - 1; // internal nodes currently held
        stats.garbage_estimate = self.store.free_nodes() + in_use.saturating_sub(live);
        stats
    }

    // ------------------------------------------------------------------
    // Dead-node reclamation (external refcounts + mark-and-sweep).
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

    /// Number of collections that reclaimed at least one node. Any
    /// `Ref`-keyed side table outside the manager is invalid once this
    /// changes: swept slots are reused, so a stale key may alias a
    /// *different* function.
    pub fn gc_epoch(&self) -> u64 {
        self.gc_epoch
    }

    /// Adds one interior reference to `c`'s node (edges to the terminal
    /// are not tracked — it is unconditionally live).
    #[inline(always)]
    fn inc_child(&mut self, c: Ref) {
        let i = c.node().index();
        if i != 0 {
            *self.store.int_ref_mut(i) += 1;
        }
    }

    /// Drops one interior reference to `c`'s node. With `reclaim`, a node
    /// whose last reference (interior *and* external) just vanished is
    /// reclaimed on the spot, cascading into its own children — the eager
    /// mode sifting uses so swap garbage never exists and the live arena
    /// size *is* the rooted size.
    #[inline]
    fn dec_child(&mut self, c: Ref, reclaim: bool) {
        let i = c.node().index();
        if i == 0 {
            return;
        }
        debug_assert!(
            self.store.int_ref(i) > 0,
            "interior refcount underflow at slot {i}"
        );
        *self.store.int_ref_mut(i) -= 1;
        if reclaim && self.store.int_ref(i) == 0 && self.store.refs[i] == 0 {
            self.reclaim_cascade(i as u32);
        }
    }

    /// Removes `slot` from its `var_nodes` list in O(1) via the stored
    /// position (swap-remove; the displaced tail entry's position is
    /// patched).
    fn remove_from_var_list(&mut self, slot: u32, var: u32) {
        let p = self.store.var_pos[slot as usize] as usize;
        let list = &mut self.store.var_nodes[var as usize];
        debug_assert_eq!(list[p], slot, "var_pos out of sync at slot {slot}");
        list.swap_remove(p);
        if p < list.len() {
            self.store.var_pos[list[p] as usize] = p as u32;
        }
    }

    /// Reclaims a dead slot (`refs == 0 && int_refs == 0`) immediately:
    /// detaches it from the unique table and its per-variable list,
    /// poisons it onto the free list, and cascades into any child whose
    /// last reference this was. Iterative (worklist) so a long dead chain
    /// cannot overflow the stack.
    fn reclaim_cascade(&mut self, start: u32) {
        let mut stack = vec![start];
        while let Some(s) = stack.pop() {
            let n = self.store.node(s as usize);
            debug_assert!(n.var.0 != FREE_VAR, "double reclaim of slot {s}");
            self.store.remove_slot(s, &n);
            self.remove_from_var_list(s, n.var.0);
            self.store.free_push(s);
            self.reclaimed_total += 1;
            for c in [n.low, n.high] {
                let i = c.node().index();
                if i == 0 {
                    continue;
                }
                debug_assert!(
                    self.store.int_ref(i) > 0,
                    "interior refcount underflow at slot {i}"
                );
                *self.store.int_ref_mut(i) -= 1;
                if self.store.int_ref(i) == 0 && self.store.refs[i] == 0 {
                    stack.push(i as u32);
                }
            }
        }
    }

    /// Collects dead nodes now, **without a mark phase**: because the
    /// interior reference counts are exact, a node with `refs == 0 &&
    /// int_refs == 0` is dead by definition, and reclaiming it cascades
    /// into any child whose last reference it held — in a DAG this
    /// reclaims exactly the set a mark-and-sweep from the protected roots
    /// would (debug builds assert the equivalence). The cost is one
    /// arena scan plus O(dead), never a traversal of the live nodes.
    /// Sweeping rebuilds the unique table without the dead entries
    /// (shrinking it when the survivors would fit a table a quarter of
    /// the current size) and scrubs the computed-cache entries that name
    /// a reclaimed slot. Returns the number of reclaimed nodes.
    ///
    /// Every `Ref` the caller intends to keep using must be protected (or
    /// reachable from a protected one) — anything else dangles afterwards.
    pub fn collect(&mut self) -> usize {
        self.store.reset_allocs_since_gc();
        // Seed with every in-use node nothing references, then cascade:
        // each reclaimed node drops its children's counts, and a child
        // whose count reaches zero (with no external claim) joins the
        // dead set. Acyclicity guarantees this reaches everything a mark
        // pass would leave unmarked.
        let n = self.store.num_nodes();
        let mut stack: Vec<u32> = Vec::new();
        for i in 1..n {
            if self.store.var_of(i) != FREE_VAR
                && self.store.refs[i] == 0
                && self.store.int_ref(i) == 0
            {
                stack.push(i as u32);
            }
        }
        let mut dead: Vec<u32> = Vec::new();
        while let Some(s) = stack.pop() {
            dead.push(s);
            let node = self.store.node(s as usize);
            for c in [node.low, node.high] {
                let i = c.node().index();
                if i == 0 {
                    continue;
                }
                debug_assert!(
                    self.store.int_ref(i) > 0,
                    "interior refcount underflow at slot {i}"
                );
                *self.store.int_ref_mut(i) -= 1;
                if self.store.int_ref(i) == 0 && self.store.refs[i] == 0 {
                    stack.push(i as u32);
                }
            }
        }
        if dead.is_empty() {
            return 0;
        }
        // The cascade above already dropped the children's counts.
        let reclaimed = self.sweep_dead(dead, false);
        #[cfg(debug_assertions)]
        {
            self.verify_interior_refs();
            debug_assert_eq!(
                self.rooted_size(),
                self.live_nodes() - 1,
                "refcount collect and mark reachability disagree"
            );
        }
        reclaimed
    }

    /// Collects only when worthwhile: a no-op until the allocations since
    /// the last attempt reach [`GcConfig::dead_fraction`] of the in-use
    /// nodes (so calling this in a tight flow loop is cheap), then a mark
    /// pass measures the true dead fraction and sweeps only when it
    /// exceeds the threshold. Returns the number of reclaimed nodes.
    pub fn maybe_collect(&mut self) -> usize {
        let in_use = self.live_nodes() - 1;
        if in_use < self.gc.min_nodes {
            return 0;
        }
        // Gate on allocations relative to the arena *capacity*, not the
        // in-use count: a collection costs O(arena), so requiring a
        // proportional amount of fresh allocation first keeps the
        // amortized overhead per created node constant even under extreme
        // churn.
        if (self.store.allocs_since_gc() as f64)
            < self.gc.dead_fraction * self.store.num_nodes() as f64
        {
            return 0;
        }
        self.mark_and_sweep(false)
    }

    /// The collector core: mark from protected roots, then (when `force`
    /// or the dead fraction clears the threshold) sweep, rebuild the
    /// unique table and invalidate the computed cache.
    fn mark_and_sweep(&mut self, force: bool) -> usize {
        self.store.reset_allocs_since_gc();
        let n = self.store.num_nodes();
        let in_use = self.live_nodes() - 1;
        // Mark phase: flood from every externally referenced node. The
        // visited scratch doubles as the mark bitmap; nothing else may
        // traverse between mark and sweep.
        let mut live = 0usize;
        {
            let mut seen = self.session.visited.borrow_mut();
            seen.begin(n);
            let mut stack: Vec<u32> = Vec::new();
            for (i, &rc) in self.store.refs.iter().enumerate().skip(1) {
                if rc > 0 {
                    stack.push(i as u32);
                }
            }
            while let Some(i) = stack.pop() {
                if !seen.mark(i as usize) {
                    continue;
                }
                live += 1;
                let node = self.store.node(i as usize);
                debug_assert!(node.var.0 != FREE_VAR, "marked a reclaimed slot");
                if !node.low.node().is_terminal() {
                    stack.push(node.low.node().0);
                }
                if !node.high.node().is_terminal() {
                    stack.push(node.high.node().0);
                }
            }
        }
        let dead = in_use - live;
        if dead == 0 || (!force && (dead as f64) < self.gc.dead_fraction * in_use as f64) {
            return 0;
        }
        let dead_list: Vec<u32> = {
            let seen = self.session.visited.borrow();
            (1..n as u32)
                .filter(|&i| {
                    self.store.var_of(i as usize) != FREE_VAR && !seen.is_marked(i as usize)
                })
                .collect()
        };
        self.sweep_dead(dead_list, true)
    }

    /// The shared sweep finalization: poisons the `dead` slots, re-stacks
    /// the free list in ascending slot order, rebuilds the per-variable
    /// slot lists and the unique table from the survivors
    /// (shrink-on-sparse), and scrubs the computed cache. With
    /// `dec_children`, the dead nodes' arena edges are first removed from
    /// the interior counts (the refcount-driven [`Manager::collect`] has
    /// already done so while cascading).
    fn sweep_dead(&mut self, dead: Vec<u32>, dec_children: bool) -> usize {
        let n = self.store.num_nodes();
        if dec_children {
            // Every dec below corresponds to a real arena edge from a dead
            // node, so no count underflows; dead slots' own counts are
            // zeroed when poisoned (order between the two loops is free).
            for &s in &dead {
                let node = self.store.node(s as usize);
                for c in [node.low, node.high] {
                    let i = c.node().index();
                    if i != 0 {
                        *self.store.int_ref_mut(i) -= 1;
                    }
                }
            }
        }
        for &s in &dead {
            self.store.poison(s);
            self.store.refs[s as usize] = 0;
            *self.store.int_ref_mut(s as usize) = 0;
        }
        // One ascending arena scan re-stacks every free slot, old and new:
        // the next `mk` takes the highest one. That order decides which
        // slots later nodes get (and so the `NodeId` tie-breaks of the
        // dominator search), whatever order `dead` was found in.
        self.store.rebuild_free();
        // The sweep may have poisoned slots listed anywhere: rebuild the
        // per-variable slot lists (and the slots' positions in them) from
        // the survivors — one O(arena) pass the sweep already paid.
        for list in &mut self.store.var_nodes {
            list.clear();
        }
        for i in 1..n {
            let v = self.store.var_of(i) as usize;
            if v < self.store.var_nodes.len() {
                self.store.var_pos[i] = self.store.var_nodes[v].len() as u32;
                self.store.var_nodes[v].push(i as u32);
            }
        }
        // The unique table still lists the dead nodes: rebuild it from the
        // survivors, shrinking when they'd fit a quarter-size table.
        let live = self.live_nodes() - 1;
        self.store.set_occupied(live);
        let wanted = (live.max(8) * 4 / 3 + 1)
            .next_power_of_two()
            .max(MIN_BUCKETS);
        let new_len = if wanted * 4 <= self.store.buckets_len() {
            wanted
        } else {
            self.store.buckets_len()
        };
        self.store.grow_buckets_to(new_len);
        // Cached results naming a dead node must not survive — but wiping
        // the whole cache (a generation bump) makes every collection cost
        // a full memo rebuild, which dominates high-churn flows. Instead,
        // scrub: drop exactly the entries with a reclaimed slot behind any
        // word. Key words that are not `Ref`s (cofactor variable codes,
        // substitution values) are treated as if they were — a false hit
        // there only costs a spurious miss, while every word that *is* a
        // `Ref` gets checked, so no dangling reference survives in the
        // cache. A substitution target is keyed as `target << 1` for
        // exactly this reason: a reclaimed target drops its memo before
        // the slot can be reused by a different node.
        let store = &self.store;
        self.session.cache.scrub(|w| {
            let idx = (w >> 1) as usize;
            idx >= store.num_nodes() || store.var_of(idx) != FREE_VAR
        });
        self.gc_epoch += 1;
        self.collections += 1;
        self.reclaimed_total += dead.len() as u64;
        dead.len()
    }

    // ------------------------------------------------------------------
    // Dynamic variable ordering (in-place adjacent swap + Rudell sifting).
    // ------------------------------------------------------------------

    /// Number of internal nodes reachable from the externally protected
    /// roots — the size metric sifting minimizes. Unprotected garbage
    /// (dead intermediates awaiting collection) is excluded, so the
    /// metric is stable under churn.
    pub fn rooted_size(&self) -> usize {
        let mut seen = self.session.visited.borrow_mut();
        seen.begin(self.store.num_nodes());
        let mut stack: Vec<u32> = Vec::new();
        for (i, &rc) in self.store.refs.iter().enumerate().skip(1) {
            if rc > 0 {
                stack.push(i as u32);
            }
        }
        let mut count = 0usize;
        while let Some(i) = stack.pop() {
            if !seen.mark(i as usize) {
                continue;
            }
            count += 1;
            let n = self.store.node(i as usize);
            if !n.low.node().is_terminal() {
                stack.push(n.low.node().0);
            }
            if !n.high.node().is_terminal() {
                stack.push(n.high.node().0);
            }
        }
        count
    }

    /// Exchanges level `level` with level `level + 1` *in place*.
    ///
    /// Only the nodes at the upper level whose children sit at the lower
    /// level are rewritten; their arena slots are patched (detached from
    /// the unique table, re-expressed over the swapped order, re-inserted),
    /// so every outstanding [`Ref`] keeps denoting the same Boolean
    /// function across the swap — nothing dangles, unprotected or not.
    /// Displaced lower-level nodes may become garbage for the next
    /// collection to reclaim. The computed cache is scrubbed conservatively
    /// (an O(1) generation bump) whenever any node is rewritten.
    ///
    /// Cost is proportional to the upper level's population (via the
    /// per-variable slot lists), not to the arena — sifting calls this in
    /// a tight loop.
    ///
    /// Returns the number of rewritten nodes.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 >= num_vars`.
    pub fn swap_levels(&mut self, level: u32) -> usize {
        self.swap_levels_inner(level, false).0
    }

    /// The swap primitive behind [`Manager::swap_levels`] and the sift
    /// walks. Returns `(rewritten nodes, exact signed live-size delta)`:
    /// the delta is nodes created minus nodes reclaimed, so a caller that
    /// entered with a garbage-free arena (sifting collects on entry) can
    /// track the rooted size across swaps in O(1) instead of re-walking
    /// the rooted set — the fix for the pass cost being
    /// O(live × swaps).
    ///
    /// With `reclaim`, displaced nodes whose last reference the rewrite
    /// removed are reclaimed *immediately* (cascading into their
    /// children), their slots feeding the very next `mk`: swap garbage
    /// never exists, so `live_nodes() - 1` *is* the rooted size for the
    /// whole pass. Eager reclamation invalidates `Ref`s nothing holds —
    /// the computed cache is cleared (it may name the recycled slots) and
    /// the `gc_epoch` advances so `Ref`-keyed side tables drop theirs.
    /// Without `reclaim` this is the historical contract: every `Ref`,
    /// protected or not, stays valid, and only the order-sensitive memo
    /// generation retires.
    pub(crate) fn swap_levels_inner(&mut self, level: u32, reclaim: bool) -> (usize, isize) {
        let l = level as usize;
        assert!(
            l + 1 < self.store.level2var.len(),
            "swap_levels: level {level} out of range ({} variables)",
            self.store.level2var.len()
        );
        // Swap accounting lives at the primitive, so sift walks, window
        // installs and direct callers are all counted (see `sift_swaps`).
        self.sift_swaps += 1;
        let x = self.store.level2var[l];
        let y = self.store.level2var[l + 1];
        // Only upper-level nodes referencing the lower level change shape;
        // everything else is order-independent under an adjacent swap.
        let list = std::mem::take(&mut self.store.var_nodes[x as usize]);
        let mut keep: Vec<u32> = Vec::with_capacity(list.len());
        let mut moved: Vec<(u32, Node)> = Vec::new();
        for &slot in &list {
            let n = self.store.node(slot as usize);
            debug_assert_eq!(n.var.0, x, "per-variable slot list out of sync");
            let low_y = self.store.var_of(n.low.node().index()) == y;
            let high_y = self.store.var_of(n.high.node().index()) == y;
            if low_y || high_y {
                moved.push((slot, n));
            } else {
                keep.push(slot);
            }
        }
        for (p, &slot) in keep.iter().enumerate() {
            self.store.var_pos[slot as usize] = p as u32;
        }
        self.store.var_nodes[x as usize] = keep;
        // The order maps swap unconditionally.
        self.store.level2var.swap(l, l + 1);
        self.store.var2level[x as usize] = (l + 1) as u32;
        self.store.var2level[y as usize] = l as u32;
        if moved.is_empty() {
            return (0, 0);
        }
        let live_before = self.live_nodes() as isize;
        let reclaimed_before = self.reclaimed_total;
        // Detach the rewritten slots from the unique table (backward-shift
        // deletion) and poison them so a mid-rewrite table growth cannot
        // re-insert a stale triple; refcounts and identities are kept.
        // Their old arena edges stay counted until each slot is patched,
        // so no still-needed child can be eagerly reclaimed out from
        // under a later rewrite.
        for &(i, ref n) in &moved {
            self.store.remove_slot(i, n);
            self.store.set_var_of(i as usize, FREE_VAR);
        }
        let (xv, yv) = (Var(x), Var(y));
        for &(i, n) in &moved {
            // f = x·f1 + x'·f0 = y·(x·f11 + x'·f01) + y'·(x·f10 + x'·f00).
            let (f00, f01) = self.store.shallow_cofactors(n.low, yv);
            let (f10, f11) = self.store.shallow_cofactors(n.high, yv);
            let new_low = self.mk(xv, f00, f10);
            let new_high = self.mk(xv, f01, f11);
            // `f11` is a cofactor of the regular `n.high`, hence regular,
            // so the patched 1-edge stays regular; and the children cannot
            // collapse (that would need `f0 == f1`).
            debug_assert!(
                !new_high.is_complemented(),
                "swap: 1-edge must stay regular"
            );
            debug_assert_ne!(new_low, new_high, "swap: a rewritten node cannot vanish");
            self.store.set_node(
                i as usize,
                Node {
                    var: yv,
                    low: new_low,
                    high: new_high,
                },
            );
            // New edges first, then the old ones: a child shared between
            // the two sides must never transiently hit zero and be
            // reclaimed while still referenced.
            self.inc_child(new_low);
            self.inc_child(new_high);
            self.store.insert_slot(i);
            self.store.var_pos[i as usize] = self.store.var_nodes[y as usize].len() as u32;
            self.store.var_nodes[y as usize].push(i);
            self.dec_child(n.low, reclaim);
            self.dec_child(n.high, reclaim);
        }
        if self.reclaimed_total != reclaimed_before {
            // Eager reclamation recycled slots the memo (and Ref-keyed
            // side tables) may still name: retire the whole cache (O(1)
            // generation bump) and advance the reclamation epoch.
            self.session.cache.clear();
            self.gc_epoch += 1;
        } else {
            // Conservative cache scrub. Most memoized results survive a
            // swap unchanged: their keys and results are `Ref`s, the swap
            // preserves every Ref's function, and ITE/AND/XOR/COFACTOR
            // results are determined by operand functions alone. The
            // Coudert–Madre restrict/constrain results and node
            // substitutions additionally depend on the variable *order*
            // (the latter on which nodes reach the target), so exactly
            // that class is retired (O(1) generation bump) — the rest of
            // the memo stays warm across reordering.
            self.session.cache.clear_order_sensitive();
        }
        (moved.len(), self.live_nodes() as isize - live_before)
    }

    /// Rudell sifting over the protected roots: each variable (live
    /// densest first, re-ranked before every walk) is moved through the
    /// whole order by adjacent swaps and parked at the position
    /// minimizing [`Manager::rooted_size`], with a growth abort bounded
    /// against the variable's own start size and a total swap budget
    /// (see [`SiftConfig`]).
    ///
    /// Sifting *collects* on entry, and its swaps eagerly reclaim every
    /// displaced node whose interior and external counts both reach
    /// zero, so swap garbage never exists during the pass and the rooted
    /// size is tracked in O(1) per swap from the swaps' exact deltas
    /// (a debug-mode full recount audits the bookkeeping). Call this
    /// only at quiescent points with every live function protected,
    /// exactly like [`Manager::collect`] — eager reclamation invalidates
    /// unprotected refs just like a collection does (and advances
    /// [`Manager::gc_epoch`]). With no protected roots the pass is a
    /// no-op. (The cheaper [`Manager::swap_levels`] primitive never
    /// reclaims and preserves even unprotected refs.)
    pub fn sift(&mut self, cfg: &SiftConfig) -> SiftReport {
        self.sift_filtered(cfg, None)
    }

    /// [`Manager::sift`] restricted to actively moving only `subset`
    /// variables (others shift as bystanders but are never walked
    /// themselves). This is how a per-cone sift avoids paying for the
    /// manager's full variable count: pass the cone's support.
    ///
    /// With [`SiftConfig::symmetric_groups`] on, a subset variable that
    /// is adjacent-symmetric with a *foreign* variable fuses with it and
    /// the whole block walks together — symmetry outranks the scoping
    /// (moving only half of a symmetric pair cannot improve the order).
    pub fn sift_vars(&mut self, cfg: &SiftConfig, subset: &[Var]) -> SiftReport {
        self.sift_filtered(cfg, Some(subset))
    }

    fn sift_filtered(&mut self, cfg: &SiftConfig, subset: Option<&[Var]>) -> SiftReport {
        let n = self.num_vars() as usize;
        self.collect();
        let initial = self.rooted_size();
        let mut report = SiftReport {
            initial_size: initial,
            final_size: initial,
            passes: 1,
            ..SiftReport::default()
        };
        if n < 2 || initial == 0 {
            return report;
        }
        // The entry collect left the arena garbage-free, and every swap
        // below runs in eager-reclaim mode, so the live arena *is* the
        // rooted set for the whole pass: `size` is maintained in O(1)
        // from the swaps' exact deltas — the pass no longer re-walks the
        // rooted set after every swap (the old O(live × swaps) cost).
        debug_assert_eq!(
            initial,
            self.live_nodes() - 1,
            "entry collect must leave a garbage-free arena"
        );
        let mut size = initial;
        // Candidate set, re-ranked by *live* population before every walk:
        // earlier moves (and their reclamation) change the per-variable
        // populations, so a one-shot snapshot picks stale "densest"
        // variables.
        let mut remaining: Vec<u32> = match subset {
            Some(subset) => subset
                .iter()
                .map(|v| v.0)
                .filter(|&v| (v as usize) < n)
                .collect(),
            None => (0..n as u32).collect(),
        };
        // Variables already moved as part of a walked group.
        let mut walked = vec![false; n];
        while report.vars_sifted < cfg.max_vars && report.swaps < cfg.max_swaps {
            let mut best_i = usize::MAX;
            let mut best_pop = 0usize;
            for (i, &v) in remaining.iter().enumerate() {
                let pop = self.store.var_nodes[v as usize].len();
                if pop > best_pop && !walked[v as usize] {
                    best_pop = pop;
                    best_i = i;
                }
            }
            if best_pop == 0 {
                break;
            }
            let v = remaining.swap_remove(best_i);
            // The block of levels to walk: just `v`, extended over every
            // adjacent symmetric neighbour when group sifting is on. The
            // membership is frozen for the walk; symmetries that only
            // become adjacent mid-walk are picked up by the next pass
            // (sift_to_fixpoint repeats passes exactly for this).
            let mut top = self.store.var2level[v as usize] as usize;
            let mut glen = 1usize;
            let mut absorbed: Vec<u32> = Vec::new();
            if cfg.symmetric_groups {
                while top + glen < n && self.symmetric_levels((top + glen - 1) as u32) {
                    absorbed.push(self.store.level2var[top + glen]);
                    glen += 1;
                }
                while top > 0 && self.symmetric_levels((top - 1) as u32) {
                    top -= 1;
                    absorbed.push(self.store.level2var[top]);
                    glen += 1;
                }
            }
            walked[v as usize] = true;
            // A walk that cannot afford even one block step does no work:
            // skip it without counting it (or claiming its group members —
            // a smaller group or single variable later may still fit the
            // remaining budget).
            if report.swaps + glen > cfg.max_swaps {
                continue;
            }
            for &w in &absorbed {
                walked[w as usize] = true;
            }
            if glen > 1 {
                report.groups += 1;
            }
            report.vars_sifted += 1;
            // Growth aborts are bounded against this walk's *starting*
            // size: a big win by an earlier variable must not let this
            // one balloon the global size by max_growth× before aborting.
            let start_size = size;
            let mut best_size = size;
            let mut best_top = top;
            // Walk to the nearer edge first, then sweep to the other.
            let down_first = n - (top + glen) <= top;
            'walk: for phase in 0..2 {
                let downward = if phase == 0 { down_first } else { !down_first };
                loop {
                    // A block step costs `glen` swaps and must not start
                    // unless it fits the budget (a half-moved block would
                    // strand foreign variables inside the group).
                    if report.swaps + glen > cfg.max_swaps {
                        break 'walk;
                    }
                    if downward && top + glen >= n || !downward && top == 0 {
                        break;
                    }
                    size = self.block_step(top, glen, downward, size, &mut report.swaps);
                    top = if downward { top + 1 } else { top - 1 };
                    if size < best_size {
                        best_size = size;
                        best_top = top;
                    } else if (size as f64) > cfg.max_growth * start_size as f64 {
                        break;
                    }
                }
            }
            // Park the block at the best position seen. Restores are not
            // budget-gated (the block must not be stranded mid-order);
            // swaps past the budget surface as `restore_overage`.
            while top > best_top {
                size = self.block_step(top, glen, false, size, &mut report.swaps);
                top -= 1;
            }
            while top < best_top {
                size = self.block_step(top, glen, true, size, &mut report.swaps);
                top += 1;
            }
            debug_assert_eq!(size, best_size, "restore must reach the best size");
            size = best_size;
            #[cfg(debug_assertions)]
            {
                // The full-recount audit pinning the O(1) accounting: the
                // interior counts match the arena edges, and the tracked
                // size matches a from-scratch rooted traversal.
                self.verify_interior_refs();
                debug_assert_eq!(size, self.rooted_size(), "O(1) size tracking drifted");
            }
        }
        report.final_size = size;
        report.restore_overage = report.swaps.saturating_sub(cfg.max_swaps);
        self.sifts += 1;
        report
    }

    /// Moves the block of `glen` adjacent levels starting at `top` one
    /// position down (or up) by bubbling the neighbouring variable
    /// through it — `glen` eager-reclaim swaps. Returns the updated
    /// rooted size (`size` plus the swaps' exact deltas).
    fn block_step(
        &mut self,
        top: usize,
        glen: usize,
        downward: bool,
        size: usize,
        swaps: &mut usize,
    ) -> usize {
        let mut size = size as isize;
        if downward {
            // The variable below the block rises to `top`.
            for i in (top..top + glen).rev() {
                size += self.swap_levels_inner(i as u32, true).1;
                *swaps += 1;
            }
        } else {
            // The variable above the block sinks to the block's bottom.
            for i in top - 1..top + glen - 1 {
                size += self.swap_levels_inner(i as u32, true).1;
                *swaps += 1;
            }
        }
        debug_assert!(size >= 0, "rooted size underflow in block step");
        size as usize
    }

    /// Repeats budget-relaxed [`Manager::sift`] passes until one shrinks
    /// the rooted size by less than [`ConvergeConfig::min_gain`] (or
    /// [`ConvergeConfig::max_passes`] is reached) — sift to convergence.
    /// Monotone: each pass parks every walked variable at its best seen
    /// position (its start included), so the size never increases and the
    /// loop always terminates. Returns the accumulated report
    /// (`initial_size` from the first pass, `final_size` from the last).
    ///
    /// Like [`Manager::sift`], call this only at quiescent points with
    /// every live function protected.
    pub fn sift_to_fixpoint(&mut self, cfg: &ConvergeConfig) -> SiftReport {
        self.sift_to_fixpoint_filtered(cfg, None)
    }

    /// The one convergence driver behind [`Manager::sift_to_fixpoint`]
    /// and the per-cone [`crate::sift_converge_reorder`]: both share this
    /// loop so the termination rule cannot drift between them.
    pub(crate) fn sift_to_fixpoint_filtered(
        &mut self,
        cfg: &ConvergeConfig,
        subset: Option<&[Var]>,
    ) -> SiftReport {
        let mut total = SiftReport::default();
        for pass in 0..cfg.max_passes.max(1) {
            let r = self.sift_filtered(&cfg.pass, subset);
            if pass == 0 {
                total.initial_size = r.initial_size;
            }
            total.final_size = r.final_size;
            total.swaps += r.swaps;
            total.vars_sifted += r.vars_sifted;
            total.restore_overage += r.restore_overage;
            total.groups += r.groups;
            total.passes += 1;
            let gained = r.initial_size.saturating_sub(r.final_size);
            if (gained as f64) < cfg.min_gain * r.initial_size.max(1) as f64 {
                break;
            }
        }
        total
    }

    /// Whether the variables at `level` and `level + 1` are positively
    /// symmetric in every function of the shared DAG — the structural
    /// adjacent-level check of CUDD's symmetric sifting (Panda–Somenzi):
    ///
    /// * every node at the upper level must satisfy
    ///   `f(x=0, y=1) == f(x=1, y=0)` (checked on shallow cofactors;
    ///   canonicity turns the semantic condition into `Ref` equality), and
    /// * every node at the lower level must be referenced *only* by
    ///   upper-level nodes — an edge into `y` bypassing `x` (from a node
    ///   above `x`, or an external root) could distinguish the two
    ///   variables. The interior counts make this exact: the edges from
    ///   upper-level nodes must account for the lower node's whole
    ///   count, with no external claim.
    ///
    /// Returns `false` when either level is empty. Conservative in the
    /// presence of unswept garbage (dead parents keep counts up, which
    /// can only hide a symmetry, never invent one); sifting runs it on a
    /// collected arena where the answer is exact.
    pub fn symmetric_levels(&self, level: u32) -> bool {
        let l = level as usize;
        if l + 1 >= self.store.level2var.len() {
            return false;
        }
        let x = self.store.level2var[l];
        let y = self.store.level2var[l + 1];
        let xs = &self.store.var_nodes[x as usize];
        let ys = &self.store.var_nodes[y as usize];
        if xs.is_empty() || ys.is_empty() {
            return false;
        }
        let yv = Var(y);
        let mut from_x: std::collections::HashMap<u32, u32, crate::hasher::BuildFxHasher> =
            std::collections::HashMap::with_capacity_and_hasher(
                ys.len(),
                crate::hasher::BuildFxHasher::default(),
            );
        for &sx in xs {
            let node = self.store.node(sx as usize);
            let (_, f01) = self.store.shallow_cofactors(node.low, yv);
            let (f10, _) = self.store.shallow_cofactors(node.high, yv);
            if f01 != f10 {
                return false;
            }
            for c in [node.low, node.high] {
                let i = c.node().index();
                if i != 0 && self.store.var_of(i) == y {
                    *from_x.entry(i as u32).or_insert(0) += 1;
                }
            }
        }
        ys.iter().all(|&sy| {
            self.store.refs[sy as usize] == 0
                && self.store.int_ref(sy as usize) == from_x.get(&sy).copied().unwrap_or(0)
        })
    }

    /// Replaces the automatic-sifting configuration and re-arms the
    /// trigger threshold (see [`AutoSiftConfig`]).
    pub fn set_sift_config(&mut self, config: AutoSiftConfig) {
        self.auto_sift = config;
        self.next_sift = config.min_nodes;
    }

    /// The active automatic-sifting configuration.
    pub fn sift_config(&self) -> AutoSiftConfig {
        self.auto_sift
    }

    /// Sifts only when worthwhile: a no-op while automatic sifting is
    /// disabled or the live node count is below the re-armed threshold;
    /// otherwise collects (callers invoke this only at quiescent points,
    /// exactly like [`Manager::maybe_collect`], so every live function is
    /// protected), runs one [`Manager::sift`] pass — or a full
    /// [`Manager::sift_to_fixpoint`] when [`AutoSiftConfig::fixpoint`] is
    /// set — over the compacted arena, and re-arms the trigger at twice
    /// the post-sift live size. Returns the report when a pass ran.
    pub fn maybe_sift(&mut self) -> Option<SiftReport> {
        if !self.auto_sift.enabled || self.live_nodes() < self.next_sift {
            return None;
        }
        let report = match self.auto_sift.fixpoint {
            Some(converge) => self.sift_to_fixpoint(&converge),
            None => {
                let cfg = self.auto_sift.sift;
                self.sift(&cfg)
            }
        };
        self.next_sift = (self.live_nodes() * 2).max(self.auto_sift.min_nodes);
        Some(report)
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
    fn collect_reclaims_dead_nodes_and_reuses_slots() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let keep = m.and(a, b);
        let dead = m.ite(c, keep, b);
        let _more_dead = m.xor(dead, a);
        m.protect(keep);
        let before = m.num_nodes();
        let reclaimed = m.collect();
        assert!(reclaimed > 0, "the ite/xor chain is unreachable");
        assert_eq!(m.num_nodes(), before, "arena keeps its slots");
        assert_eq!(m.live_nodes(), before - reclaimed);
        let stats = m.cache_stats();
        assert_eq!(stats.free_nodes, reclaimed);
        assert_eq!(stats.garbage_estimate, reclaimed);
        assert_eq!(stats.reclaimed_total, reclaimed as u64);
        assert_eq!(stats.collections, 1);
        // The kept function still evaluates correctly...
        assert!(m.eval(keep, &[true, true, false]));
        assert!(!m.eval(keep, &[true, false, false]));
        // ...and new nodes reuse reclaimed slots before the arena grows.
        let a2 = m.var(0);
        let b2 = m.var(1);
        let rebuilt = m.and(a2, b2);
        assert_eq!(rebuilt, keep, "canonicity survives reclaim-and-reuse");
        let c2 = m.var(2);
        let _redo = m.ite(c2, keep, b2);
        assert_eq!(m.num_nodes(), before, "free slots absorbed the rebuild");
    }

    #[test]
    fn collection_reuses_freed_slots_highest_first() {
        // The sweep re-stacks the free list in ascending slot order, so
        // fresh nodes take freed slots from the top down, and only then
        // does the arena grow. Downstream `NodeId` tie-breaks depend on it.
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..6).map(|i| m.var(i)).collect();
        let keep = m.and(vars[0], vars[1]);
        let _dead = m.xor_all(vars.iter().copied());
        m.protect(keep);
        assert!(m.collect() > 2);
        let mut free: Vec<usize> = (1..m.num_nodes())
            .filter(|&i| m.store.var_of(i) == FREE_VAR)
            .collect();
        for v in 10..10 + free.len() as u32 {
            assert_eq!(Some(m.var(v).node().index()), free.pop());
        }
        let arena = m.num_nodes();
        assert_eq!(m.var(40).node().index(), arena, "then the arena grows");
    }

    #[test]
    fn collect_with_no_garbage_reclaims_nothing() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        m.protect(f);
        m.protect(a); // the projection of var 0 is not part of f's DAG
        assert_eq!(m.collect(), 0);
        assert_eq!(
            m.cache_stats().collections,
            0,
            "empty sweeps are not counted"
        );
        assert_eq!(m.gc_epoch(), 0);
    }

    #[test]
    fn unique_table_shrinks_when_sparse_after_collect() {
        // Build a 5000-node chain, drop every root, collect: the survivors
        // (none) fit the floor-size table, so the bucket array shrinks.
        let mut m = Manager::with_capacity(16, 8);
        let mut prev = Ref::ONE;
        for v in (0..5000u32).rev() {
            prev = m.mk(Var(v), !prev, prev);
        }
        let grown = m.cache_stats().unique_buckets;
        assert!(grown >= 8192, "5000 nodes must outgrow the floor table");
        let reclaimed = m.collect();
        assert_eq!(reclaimed, 5000);
        assert_eq!(m.cache_stats().unique_buckets, MIN_BUCKETS);
        assert_eq!(m.live_nodes(), 1, "only the terminal survives");
        // Rebuilding the same chain reuses the freed slots: the arena must
        // not grow past its previous footprint.
        let before = m.num_nodes();
        let mut prev = Ref::ONE;
        for v in (0..5000u32).rev() {
            prev = m.mk(Var(v), !prev, prev);
        }
        assert_eq!(m.num_nodes(), before, "reclaim-before-grow");
        assert_eq!(m.size(prev), 5000);
    }

    #[test]
    fn maybe_collect_gates_on_config() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let _dead = m.and(a, b);
        // Below min_nodes: never collects, however much is dead.
        assert_eq!(m.maybe_collect(), 0);
        // With the floor removed and everything dead, it sweeps.
        m.set_gc_config(GcConfig {
            dead_fraction: 0.25,
            min_nodes: 0,
        });
        let reclaimed = m.maybe_collect();
        assert!(reclaimed > 0);
        // Immediately afterwards nothing has been allocated: cheap no-op.
        assert_eq!(m.maybe_collect(), 0);
        assert_eq!(m.gc_config().min_nodes, 0);
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
    fn swap_levels_preserves_refs_and_functions() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f = m.ite(a, b, c);
        let g = m.and(a, c);
        let truth = |m: &Manager, f: Ref| -> u32 {
            let mut t = 0;
            for row in 0..8u32 {
                let assignment: Vec<bool> = (0..3).map(|i| row >> i & 1 == 1).collect();
                if m.eval(f, &assignment) {
                    t |= 1 << row;
                }
            }
            t
        };
        let (tf, tg) = (truth(&m, f), truth(&m, g));
        let moved = m.swap_levels(0);
        assert!(moved > 0, "the root of f branches into level 1");
        assert_eq!(m.var2level(), &[1, 0, 2]);
        assert_eq!(m.level2var(), &[1, 0, 2]);
        // The same Refs still denote the same functions.
        assert_eq!(truth(&m, f), tf);
        assert_eq!(truth(&m, g), tg);
        // Canonicity holds under the new order: recomputing returns the
        // identical Refs.
        assert_eq!(m.ite(a, b, c), f);
        assert_eq!(m.and(a, c), g);
        // Swapping back restores the identity order and the functions.
        m.swap_levels(0);
        assert_eq!(m.var2level(), &[0, 1, 2]);
        assert_eq!(truth(&m, f), tf);
        assert_eq!(m.ite(a, b, c), f);
    }

    #[test]
    fn swap_levels_without_interaction_moves_no_nodes() {
        let mut m = Manager::new();
        let a = m.var(0);
        m.var(1);
        let c = m.var(2);
        let f = m.and(a, c); // nothing at level 0 references level 1
        assert_eq!(m.swap_levels(0), 0);
        assert_eq!(m.var2level(), &[1, 0, 2]);
        assert_eq!(m.and(a, c), f, "untouched nodes stay canonical");
    }

    #[test]
    fn sift_shrinks_an_order_hostile_function() {
        // x0·x3 + x1·x4 + x2·x5: exponential under the interleaved
        // identity order, linear once the pairs are adjacent.
        let mut m = Manager::new();
        let mut f = Ref::ZERO;
        for i in 0..3 {
            let a = m.var(i);
            let b = m.var(i + 3);
            let ab = m.and(a, b);
            f = m.or(f, ab);
        }
        m.protect(f);
        let before = m.size(f);
        let report = m.sift(&SiftConfig::default());
        let after = m.size(f);
        assert_eq!(report.initial_size, before);
        assert_eq!(report.final_size, after);
        assert!(report.swaps > 0);
        assert_eq!(
            after, 6,
            "sifting must find a pairing order ({before} -> {after})"
        );
        // The function itself is untouched.
        for row in 0..64u32 {
            let assignment: Vec<bool> = (0..6).map(|i| row >> i & 1 == 1).collect();
            let want = (assignment[0] && assignment[3])
                || (assignment[1] && assignment[4])
                || (assignment[2] && assignment[5]);
            assert_eq!(m.eval(f, &assignment), want, "row {row}");
        }
        assert_eq!(m.cache_stats().sifts, 1);
        assert!(m.cache_stats().sift_swaps >= report.swaps as u64);
    }

    #[test]
    fn sift_without_roots_is_a_noop() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(3);
        let _f = m.and(a, b); // never protected
        let report = m.sift(&SiftConfig::default());
        assert_eq!(report.swaps, 0);
        assert_eq!(report.initial_size, 0, "no roots, nothing to minimize");
    }

    #[test]
    fn maybe_sift_gates_on_config() {
        let mut m = Manager::new();
        let mut f = Ref::ZERO;
        for i in 0..3 {
            let a = m.var(i);
            let b = m.var(i + 3);
            let ab = m.and(a, b);
            f = m.or(f, ab);
        }
        m.protect(f);
        // Disabled by default.
        assert!(m.maybe_sift().is_none());
        m.set_sift_config(AutoSiftConfig {
            enabled: true,
            min_nodes: 4,
            ..AutoSiftConfig::default()
        });
        let report = m.maybe_sift().expect("threshold cleared");
        assert!(report.final_size <= report.initial_size);
        // Re-armed: immediately afterwards the threshold gates again.
        assert!(m.maybe_sift().is_none());
        assert!(m.sift_config().enabled);
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

    #[test]
    fn refcount_collect_reclaims_dead_chains_without_mark() {
        // A deep chain with no roots: the seed scan only sees the
        // parentless top, the cascade must reach the rest.
        let mut m = Manager::with_capacity(16, 8);
        let mut prev = Ref::ONE;
        for v in (0..2000u32).rev() {
            prev = m.mk(Var(v), !prev, prev);
        }
        assert_eq!(m.collect(), 2000);
        assert_eq!(m.live_nodes(), 1);
        m.verify_interior_refs();
    }

    #[test]
    fn symmetric_levels_detects_known_symmetries() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        m.protect(f);
        m.collect();
        // a·b is symmetric in (a, b) …
        assert!(m.symmetric_levels(0));
        let mut m2 = Manager::new();
        let a = m2.var(0);
        let b = m2.var(1);
        let nb = !b;
        let g = m2.and(a, nb);
        m2.protect(g);
        m2.collect();
        // … a·b̄ is not (positively): g(a=0,b=1) = 0 ≠ g(a=1,b=0) = 1.
        assert!(!m2.symmetric_levels(0));
        // An empty level pair is never symmetric.
        let mut m3 = Manager::new();
        m3.var(0);
        m3.var(1);
        assert!(!m3.symmetric_levels(0));
    }

    #[test]
    fn symmetric_levels_rejects_bypassing_references() {
        // f = maj(a, b, c) is symmetric in every pair, but keeping a bare
        // projection of b alive as a root adds an external reference to a
        // level-1 node that bypasses level 0 — the group check must
        // refuse to fuse (a, b) then.
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f = m.maj(a, b, c);
        m.protect(f);
        m.collect();
        assert!(m.symmetric_levels(0));
        assert!(m.symmetric_levels(1));
        let b2 = m.var(1);
        m.protect(b2);
        assert!(
            !m.symmetric_levels(0),
            "external claim on b must block the group"
        );
        m.release(b2);
        assert!(m.symmetric_levels(0));
    }

    #[test]
    fn group_sifting_walks_symmetric_pairs_as_blocks() {
        // (x0 ∨ x1) pairs with (x4 ∧ x5) across a hostile interleaving;
        // x0/x1 and x4/x5 are symmetric pairs the walk should fuse.
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.or(a, b);
        let c = m.var(4);
        let d = m.var(5);
        let cd = m.and(c, d);
        let x2 = m.var(2);
        let x3 = m.var(3);
        let mid = m.and(x2, x3);
        let t = m.xor(ab, mid);
        let f = m.xor(t, cd);
        m.protect(f);
        let truth_before: Vec<bool> = (0..64u32)
            .map(|row| m.eval(f, &(0..6).map(|i| row >> i & 1 == 1).collect::<Vec<_>>()))
            .collect();
        let cfg = SiftConfig {
            symmetric_groups: true,
            ..SiftConfig::default()
        };
        let report = m.sift(&cfg);
        assert!(
            report.groups >= 1,
            "symmetric pairs must be walked as blocks"
        );
        assert!(report.final_size <= report.initial_size);
        m.verify_interior_refs();
        let truth_after: Vec<bool> = (0..64u32)
            .map(|row| m.eval(f, &(0..6).map(|i| row >> i & 1 == 1).collect::<Vec<_>>()))
            .collect();
        assert_eq!(
            truth_before, truth_after,
            "group sifting changed the function"
        );
    }

    #[test]
    fn sift_to_fixpoint_terminates_and_never_loses_to_single_pass() {
        let build = |m: &mut Manager| {
            let mut f = Ref::ZERO;
            for i in 0..4 {
                let a = m.var(i);
                let b = m.var(i + 4);
                let ab = m.and(a, b);
                f = m.or(f, ab);
            }
            m.protect(f)
        };
        let mut single = Manager::new();
        let fs = build(&mut single);
        let rs = single.sift(&SiftConfig::default());
        let mut conv = Manager::new();
        let fc = build(&mut conv);
        let cfg = ConvergeConfig::default();
        let rc = conv.sift_to_fixpoint(&cfg);
        assert!(
            rc.passes >= 1 && rc.passes <= cfg.max_passes,
            "fixpoint must terminate"
        );
        assert!(rc.final_size <= rc.initial_size);
        assert!(
            rc.final_size <= rs.final_size,
            "converged size {} must not lose to single pass {}",
            rc.final_size,
            rs.final_size
        );
        assert_eq!(
            conv.size(fc),
            single.size(fs),
            "both reach the linear pairing order"
        );
        // Once converged, another fixpoint run is a cheap no-op-ish pass.
        let again = conv.sift_to_fixpoint(&cfg);
        assert_eq!(again.final_size, rc.final_size);
        assert_eq!(again.passes, 1, "a converged order stops after one pass");
    }

    #[test]
    fn sift_budget_exhaustion_reports_restore_overage() {
        let mut m = Manager::new();
        let mut f = Ref::ZERO;
        for i in 0..3 {
            let a = m.var(i);
            let b = m.var(i + 3);
            let ab = m.and(a, b);
            f = m.or(f, ab);
        }
        m.protect(f);
        let truth = |m: &Manager, f: Ref| -> u64 {
            (0..64u32).fold(0u64, |acc, row| {
                let assignment: Vec<bool> = (0..6).map(|i| row >> i & 1 == 1).collect();
                acc | ((m.eval(f, &assignment) as u64) << row)
            })
        };
        let before = truth(&m, f);
        // Zero budget: no swaps at all, valid permutation, function intact.
        let r0 = m.sift(&SiftConfig {
            max_swaps: 0,
            ..SiftConfig::default()
        });
        assert_eq!((r0.swaps, r0.restore_overage), (0, 0));
        // A tiny budget exhausts mid-walk; the restore completes anyway
        // and the overshoot is reported.
        let r3 = m.sift(&SiftConfig {
            max_swaps: 3,
            ..SiftConfig::default()
        });
        assert!(r3.swaps >= 3 || r3.restore_overage == 0);
        assert_eq!(r3.restore_overage, r3.swaps.saturating_sub(3));
        let v2l = m.var2level().to_vec();
        let mut seen = vec![false; v2l.len()];
        for &l in &v2l {
            assert!(
                !std::mem::replace(&mut seen[l as usize], true),
                "order must stay a permutation"
            );
        }
        assert_eq!(truth(&m, f), before, "budget exhaustion must not corrupt f");
        m.verify_interior_refs();
    }

    #[test]
    fn garbage_estimate_counts_unreachable_nodes() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let keep = m.and(a, b);
        let _dead = m.ite(c, keep, b);
        let stats = m.cache_stats_with_roots(&[keep]);
        assert!(stats.garbage_estimate > 0, "the ite chain is unreachable");
        // With every created function as a root, nothing is garbage.
        let all = m.cache_stats_with_roots(&[keep, _dead, a, b, c]);
        assert_eq!(all.garbage_estimate, 0);
    }
}
