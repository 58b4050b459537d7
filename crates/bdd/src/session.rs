//! Per-thread kernel state: the computed cache, the visit scratch, the
//! resource budget and the tick counter — everything a recursive kernel
//! mutates that is *not* the shared node store.
//!
//! The concurrent-kernel split (see the crate-level "Concurrency
//! contract") divides the old monolithic manager into:
//!
//! * [`crate::store::NodeStore`] — the node-owning half (arena, unique
//!   table, interior refcounts), shared by many threads (`Sync`);
//! * [`Session`] — the per-thread half. One session per thread, never
//!   shared: the [`VisitScratch`] lives in a `RefCell` (which pins
//!   `Session: !Sync`), and the computed cache is deliberately private
//!   per session so lookups and inserts stay plain unsynchronized loads
//!   and stores.
//!
//! Every recursive kernel takes `(&NodeStore, &mut Session)`: node
//! *publication* goes through the store's CAS protocol, while
//! memoization, governance ticks and traversal scratch stay thread-local.
//! [`crate::manager::Manager`] owns one store plus one default session
//! and keeps the classic single-threaded API; the parallel apply in
//! [`crate::parallel`] forks extra sessions against the same store.

use crate::reference::{Ref, Var};
use crate::store::{triple_hash, NodeStore};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Operation tags for the per-session computed cache. Tag 0 is reserved
/// so a zero-initialized entry can never match a real key.
pub(crate) mod op {
    /// Three-operand if-then-else.
    pub const ITE: u32 = 1;
    /// Two-operand conjunction (specialized kernel).
    pub const AND: u32 = 2;
    /// Two-operand exclusive-or (specialized kernel).
    pub const XOR: u32 = 3;
    /// Single-variable cofactor `f|v=b`.
    pub const COFACTOR: u32 = 4;
    /// Coudert–Madre restrict.
    pub const RESTRICT: u32 = 5;
    /// Coudert–Madre constrain.
    pub const CONSTRAIN: u32 = 6;
    /// Node-to-constant substitution `F(value)`, keyed by
    /// `(node, target << 1, value)`. Which nodes reach the target depends
    /// on the variable order, so this memo is order-sensitive.
    pub const REPLACE: u32 = 7;
}

/// One computed-cache entry: the full operation key, the result, and the
/// generation that wrote it. 20 bytes — the key is three full words plus
/// a tag, because a lossy *match* (as opposed to a lossy *eviction*)
/// would return a wrong function, so the key can never be hashed down.
#[derive(Clone, Copy, Default)]
pub(crate) struct CacheEntry {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) c: u32,
    /// `generation << 3 | op` — op tags fit in 3 bits, and generation 0 is
    /// never current, so zero-initialized slots never match.
    pub(crate) tag: u32,
    pub(crate) result: u32,
}

/// Associativity of one computed-cache set. Three 20-byte entries plus
/// the 4-byte victim cursor fill a 64-byte line exactly; a fourth way
/// would need lossy keys, which rules it out (see [`CacheEntry`]).
pub(crate) const CACHE_WAYS: usize = 3;

/// One cache-line-sized associativity set of the computed cache: three
/// ways probed together, plus a round-robin victim cursor for inserts
/// that find no matching or stale way. The alignment pins each set to
/// one line, so a probe that misses all three ways still costs a single
/// memory access — where the old direct-mapped layout paid a full miss
/// per conflicting key.
#[repr(align(64))]
#[derive(Clone, Copy)]
pub(crate) struct CacheSet {
    pub(crate) ways: [CacheEntry; CACHE_WAYS],
    victim: u32,
}

impl Default for CacheSet {
    fn default() -> CacheSet {
        CacheSet {
            ways: [CacheEntry::default(); CACHE_WAYS],
            victim: 0,
        }
    }
}

// The whole point of the set geometry: one set, one cache line.
const _: () = assert!(std::mem::size_of::<CacheSet>() == 64);

/// Default computed-cache size in bits: the entry-count budget a
/// direct-mapped cache would spend as `1 << bits` slots; the
/// set-associative geometry spends it as `1 << (bits - 2)` three-way,
/// cache-line-sized sets (see [`ComputedCache`]).
pub const DEFAULT_CACHE_BITS: u32 = 14;

/// Cache budget of the short-lived worker sessions forked by the
/// parallel apply: smaller than the default — a worker memoizes one
/// cone fragment, not a whole flow (and shares everything expensive
/// through the store's L2 cache anyway).
pub(crate) const WORKER_CACHE_BITS: u32 = 12;

/// Publication threshold of the shared (L2) cache: a result is published
/// only when the recursion that produced it performed at least this many
/// descendant L1 probes (one probe ≈ one non-terminal recursion step).
/// See [`Session::publish2`].
pub(crate) const L2_PUBLISH_MIN_WORK: u64 = 8;

/// The fixed-size, set-associative, lossy operation cache: power-of-two
/// [`CacheSet`] groups (three ways per 64-byte line), indexed by the same
/// multiply-mix hash as the unique table. Within a set, inserts overwrite
/// a stale way first and round-robin among live ones, so two hot keys
/// that collide no longer evict each other every call.
///
/// Entries are tagged by one of *two* generations: most operations are
/// function-valued (their keys and results are `Ref`s whose functions the
/// in-place level swap preserves), but the Coudert–Madre generalized
/// cofactors pick their result *using the variable order*, and a node
/// substitution depends on which nodes reach the target in the current
/// DAG, so their memo must not survive a reordering.
/// [`ComputedCache::clear_order_sensitive`] retires only the latter in
/// O(1), keeping the ITE/AND/XOR/cofactor memo warm across level swaps —
/// the same warm-memo philosophy as the GC's selective scrub.
pub(crate) struct ComputedCache {
    pub(crate) sets: Vec<CacheSet>,
    mask: usize,
    pub(crate) generation: u32,
    /// Generation of the order-sensitive ops (`RESTRICT`, `CONSTRAIN`,
    /// `REPLACE`); bumped by every node-rewriting level swap.
    pub(crate) order_generation: u32,
    pub(crate) lookups: u64,
    pub(crate) hits: u64,
    pub(crate) insertions: u64,
    /// Traffic this session sent to the *shared* (L2) cache: probes made
    /// on an L1 miss, hits among them, and publications. Tracked here
    /// (plain per-session counters, folded in with
    /// [`ComputedCache::absorb_counters`]) so the shared cache itself
    /// carries no contended counter words.
    pub(crate) shared_lookups: u64,
    pub(crate) shared_hits: u64,
    pub(crate) shared_insertions: u64,
}

/// Generations live in the upper bits of the entry tag; op tags occupy the
/// low `GEN_SHIFT` bits.
pub(crate) const GEN_SHIFT: u32 = 3;

/// Mask extracting the op code from an entry tag.
const OP_MASK: u32 = (1 << GEN_SHIFT) - 1;

/// Whether a memoized result of `op` depends on the current variable
/// order (rather than only on the operand functions).
#[inline(always)]
fn order_sensitive(op: u32) -> bool {
    op == op::RESTRICT || op == op::CONSTRAIN || op == op::REPLACE
}

impl ComputedCache {
    /// `bits` is the historical entry-count budget (`2^bits` direct-mapped
    /// slots); the set geometry spends it as `2^(bits-2)` three-way sets,
    /// i.e. three quarters of the entries in four fifths of the memory,
    /// with the associativity buying back far more than the lost quarter.
    pub(crate) fn with_bits(bits: u32) -> ComputedCache {
        let n = 1usize << (bits.clamp(8, 28) - 2);
        ComputedCache {
            sets: vec![CacheSet::default(); n],
            mask: n - 1,
            generation: 1,
            order_generation: 1,
            lookups: 0,
            hits: 0,
            insertions: 0,
            shared_lookups: 0,
            shared_hits: 0,
            shared_insertions: 0,
        }
    }

    /// Total entry capacity (all ways of all sets), for stats.
    pub(crate) fn entry_capacity(&self) -> usize {
        self.sets.len() * CACHE_WAYS
    }

    #[inline(always)]
    fn set_of(&self, op: u32, a: u32, b: u32, c: u32) -> usize {
        (triple_hash(a, b ^ op.rotate_left(27), c) as usize) & self.mask
    }

    #[inline(always)]
    fn tag_for(&self, op: u32) -> u32 {
        let gen = if order_sensitive(op) {
            self.order_generation
        } else {
            self.generation
        };
        gen << GEN_SHIFT | op
    }

    #[inline(always)]
    pub(crate) fn lookup(&mut self, op: u32, a: u32, b: u32, c: u32) -> Option<Ref> {
        self.lookups += 1;
        let tag = self.tag_for(op);
        let idx = self.set_of(op, a, b, c);
        let set = &mut self.sets[idx];
        for i in 0..CACHE_WAYS {
            let e = set.ways[i];
            if e.tag == tag && e.a == a && e.b == b && e.c == c {
                self.hits += 1;
                // MRU promotion: hot keys migrate to way 0, so their next
                // probe matches on the first compare. Both ways share one
                // cache line, so the swap is register traffic.
                if i != 0 {
                    set.ways[i] = set.ways[0];
                    set.ways[0] = e;
                }
                return Some(Ref::from_raw(e.result));
            }
        }
        None
    }

    #[inline(always)]
    pub(crate) fn insert(&mut self, op: u32, a: u32, b: u32, c: u32, result: Ref) {
        self.insertions += 1;
        let tag = self.tag_for(op);
        let idx = self.set_of(op, a, b, c);
        let (generation, order_generation) = (self.generation, self.order_generation);
        let set = &mut self.sets[idx];
        // Way choice: the way already holding this key, else the first
        // stale way (its generation was retired by a clear), else the
        // round-robin victim — so re-memoizing refreshes in place and
        // live conflicting keys take turns instead of thrashing one slot.
        let mut way = None;
        for (i, e) in set.ways.iter().enumerate() {
            if e.tag == tag && e.a == a && e.b == b && e.c == c {
                way = Some(i);
                break;
            }
            let live_gen = if order_sensitive(e.tag & OP_MASK) {
                order_generation
            } else {
                generation
            };
            if way.is_none() && e.tag >> GEN_SHIFT != live_gen {
                way = Some(i);
            }
        }
        let i = way.unwrap_or_else(|| {
            let v = set.victim as usize % CACHE_WAYS;
            set.victim = set.victim.wrapping_add(1);
            v
        });
        set.ways[i] = CacheEntry {
            a,
            b,
            c,
            tag,
            result: result.raw(),
        };
    }

    /// O(1) clear of everything: bump both generations so every slot is
    /// stale. On the (practically unreachable) generation wrap, pay one
    /// real wipe.
    pub(crate) fn clear(&mut self) {
        self.generation += 1;
        self.order_generation += 1;
        if self.generation >= u32::MAX >> GEN_SHIFT
            || self.order_generation >= u32::MAX >> GEN_SHIFT
        {
            self.sets.fill(CacheSet::default());
            self.generation = 1;
            self.order_generation = 1;
        }
    }

    /// O(1) clear of only the order-sensitive results (the conservative
    /// post-swap scrub); function-valued memos stay warm.
    pub(crate) fn clear_order_sensitive(&mut self) {
        self.order_generation += 1;
        if self.order_generation >= u32::MAX >> GEN_SHIFT {
            self.sets.fill(CacheSet::default());
            self.generation = 1;
            self.order_generation = 1;
        }
    }

    /// Drops exactly the entries for which any of the four words fails
    /// `live_word` — the GC's selective scrub (entries naming a reclaimed
    /// arena slot must not survive a sweep, everything else stays warm).
    pub(crate) fn scrub(&mut self, mut live_word: impl FnMut(u32) -> bool) {
        for set in self.sets.iter_mut() {
            for e in set.ways.iter_mut() {
                if e.tag != 0
                    && !(live_word(e.a) && live_word(e.b) && live_word(e.c) && live_word(e.result))
                {
                    *e = CacheEntry::default();
                }
            }
        }
    }

    /// Folds another session's traffic counters into this cache's (the
    /// parallel apply reports worker traffic through the parent session).
    pub(crate) fn absorb_counters(&mut self, other: &ComputedCache) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.insertions += other.insertions;
        self.shared_lookups += other.shared_lookups;
        self.shared_hits += other.shared_hits;
        self.shared_insertions += other.shared_insertions;
    }
}

impl std::fmt::Debug for ComputedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputedCache")
            .field("sets", &self.sets.len())
            .field("ways", &CACHE_WAYS)
            .field("generation", &self.generation)
            .field("lookups", &self.lookups)
            .field("hits", &self.hits)
            .finish()
    }
}

/// Reusable visited-stamp scratch for `&self` DAG traversals: `stamp[i] ==
/// gen` means node `i` was seen in the current traversal. Replaces a fresh
/// `HashSet` per call with two loads and a compare per visit.
#[derive(Debug, Default)]
pub(crate) struct VisitScratch {
    stamp: Vec<u32>,
    gen: u32,
}

impl VisitScratch {
    /// Starts a traversal over `n` nodes; returns the scratch ready to mark.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.gen = 1;
        }
    }

    /// Marks a node; returns `true` the first time it is seen.
    #[inline(always)]
    pub(crate) fn mark(&mut self, i: usize) -> bool {
        if self.stamp[i] == self.gen {
            false
        } else {
            self.stamp[i] = self.gen;
            true
        }
    }

    /// Whether node `i` was marked in the traversal opened by the most
    /// recent [`VisitScratch::begin`] (used by the sweep phase to read the
    /// mark phase's result).
    #[inline(always)]
    pub(crate) fn is_marked(&self, i: usize) -> bool {
        self.stamp.get(i) == Some(&self.gen)
    }
}

/// Resource budget governing the fallible (`try_*`) kernel entry points.
///
/// All fields default to `None` (unlimited). A session with limits
/// installed checks them from a cheap step counter ticked once per
/// recursive kernel invocation; when any bound is crossed the running
/// `try_*` operation returns [`LimitExceeded`] and unwinds cooperatively.
/// The infallible kernels (`ite`, `and`, ...) always run with this budget
/// suspended — they are unlimited-budget wrappers over the same
/// recursions and can never abort.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceLimits {
    /// Abort once the store's live node count exceeds this (the memory
    /// bound: a blowing-up cone is cut off before it can exhaust the
    /// arena).
    pub max_live_nodes: Option<usize>,
    /// Abort after this many kernel recursion steps since the limits were
    /// installed or last reset (the work bound).
    pub max_steps: Option<u64>,
    /// Abort once `Instant::now()` passes this absolute deadline (checked
    /// every 256 steps to keep the clock off the hot path).
    pub deadline: Option<std::time::Instant>,
}

impl ResourceLimits {
    /// Whether any bound is actually set.
    pub fn is_limited(&self) -> bool {
        self.max_live_nodes.is_some() || self.max_steps.is_some() || self.deadline.is_some()
    }
}

/// Which bound of a [`ResourceLimits`] was crossed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LimitKind {
    /// [`ResourceLimits::max_live_nodes`].
    Nodes,
    /// [`ResourceLimits::max_steps`].
    Steps,
    /// [`ResourceLimits::deadline`].
    Deadline,
    /// A test-only injected fault
    /// ([`crate::manager::Manager::fault_inject_abort_after`]).
    Injected,
    /// The shared node store ran out of arena or unique-table headroom
    /// while it could not be grown (growth needs `&mut`, which a shared
    /// kernel region cannot take). This is a *retry* signal: the manager
    /// façade catches it, grows the store at the next quiescent point and
    /// re-runs the operation (the warm computed cache makes the retry
    /// cheap), so it never escapes a `Manager` entry point.
    TableFull,
}

/// A `try_*` kernel aborted because a [`ResourceLimits`] bound was
/// crossed.
///
/// The abort is *clean*: the kernel state remains fully consistent —
/// unique table, computed cache, interior reference counts and
/// per-variable lists all intact. Nodes built by the aborted recursion
/// are ordinary unreferenced garbage for the next collection; no state
/// needs rolling back and every previously held [`Ref`] is still valid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LimitExceeded {
    /// The bound that was crossed.
    pub kind: LimitKind,
    /// Kernel steps taken when the abort fired.
    pub steps: u64,
    /// Live node count when the abort fired.
    pub live_nodes: usize,
}

impl std::fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            LimitKind::Nodes => "node limit",
            LimitKind::Steps => "step limit",
            LimitKind::Deadline => "deadline",
            LimitKind::Injected => "injected fault",
            LimitKind::TableFull => "shared-table headroom",
        };
        write!(
            f,
            "BDD kernel aborted: {what} exceeded after {} steps ({} live nodes)",
            self.steps, self.live_nodes
        )
    }
}

impl std::error::Error for LimitExceeded {}

/// Per-thread kernel state: the computed cache, the traversal scratch,
/// the resource budget and the tick counter.
///
/// One session per thread. The `RefCell` around the visit scratch pins
/// `Session: !Sync` (asserted by a `compile_fail` doctest in the crate
/// docs) — sharing a session between threads is a bug by construction;
/// sharing the [`NodeStore`] is the supported way to cooperate.
#[derive(Debug)]
pub struct Session {
    pub(crate) cache: ComputedCache,
    /// Visited-stamp scratch shared by the `&self` traversals — the
    /// `!Sync` pin.
    pub(crate) visited: RefCell<VisitScratch>,
    /// Resource budget consulted by the `try_*` kernels (all-`None` =
    /// unlimited).
    pub(crate) limits: ResourceLimits,
    /// Fast gate for [`Session::tick`]: true iff `limits.is_limited()` or
    /// a fault injection is armed, and governance is not suspended by an
    /// infallible wrapper.
    pub(crate) governed: bool,
    /// Kernel recursion steps since limits were installed / last reset.
    pub(crate) steps: u64,
    /// Test-only fault injection: abort with [`LimitKind::Injected`] once
    /// `steps` reaches this value.
    pub(crate) abort_at_step: Option<u64>,
    /// Arena slots this session created since the manager last drained
    /// the log. Kernels hold only `&NodeStore`, so they cannot maintain
    /// the store's per-variable slot lists; instead every publication is
    /// logged here and [`crate::manager::Manager`] folds the log into the
    /// lists after each kernel call (success and abort alike — aborted
    /// recursions leave real arena nodes behind).
    pub(crate) created: Vec<u32>,
}

impl Default for Session {
    fn default() -> Self {
        Session::with_cache_bits(DEFAULT_CACHE_BITS)
    }
}

impl Session {
    /// A fresh ungoverned session with the default cache budget.
    pub fn new() -> Session {
        Session::default()
    }

    /// A fresh ungoverned session with a computed cache budgeted at
    /// `cache_bits` (clamped to `[8, 28]`).
    pub fn with_cache_bits(cache_bits: u32) -> Session {
        Session {
            cache: ComputedCache::with_bits(cache_bits),
            visited: RefCell::new(VisitScratch::default()),
            limits: ResourceLimits::default(),
            governed: false,
            steps: 0,
            abort_at_step: None,
            created: Vec::new(),
        }
    }

    /// Installs a resource budget and resets the step counter.
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.limits = limits;
        self.steps = 0;
        self.governed = limits.is_limited() || self.abort_at_step.is_some();
    }

    /// Removes any installed budget (and disarms fault injection).
    pub fn clear_limits(&mut self) {
        self.limits = ResourceLimits::default();
        self.abort_at_step = None;
        self.steps = 0;
        self.governed = false;
    }

    /// The currently installed resource budget.
    pub fn limits(&self) -> ResourceLimits {
        self.limits
    }

    /// Kernel recursion steps taken since the limits were installed or
    /// last reset.
    pub fn steps_used(&self) -> u64 {
        self.steps
    }

    /// Resets the step counter without touching the installed bounds.
    pub fn reset_steps(&mut self) {
        self.steps = 0;
    }

    /// Arms (or disarms) the test-only injected abort.
    pub(crate) fn fault_inject_abort_after(&mut self, steps: Option<u64>) {
        self.abort_at_step = steps;
        self.steps = 0;
        self.governed = self.limits.is_limited() || steps.is_some();
    }

    /// One governance tick, called at the top of every fallible kernel
    /// recursion. A single predictable branch when ungoverned.
    #[inline(always)]
    pub(crate) fn tick(&mut self, store: &NodeStore) -> Result<(), LimitExceeded> {
        if !self.governed {
            return Ok(());
        }
        self.tick_slow(store)
    }

    #[cold]
    fn tick_slow(&mut self, store: &NodeStore) -> Result<(), LimitExceeded> {
        self.steps += 1;
        let exceeded = |kind, steps, live| LimitExceeded {
            kind,
            steps,
            live_nodes: live,
        };
        if let Some(at) = self.abort_at_step {
            if self.steps >= at {
                return Err(exceeded(
                    LimitKind::Injected,
                    self.steps,
                    store.live_nodes(),
                ));
            }
        }
        if let Some(max) = self.limits.max_steps {
            if self.steps > max {
                return Err(exceeded(LimitKind::Steps, self.steps, store.live_nodes()));
            }
        }
        if let Some(max) = self.limits.max_live_nodes {
            if store.live_nodes() > max {
                return Err(exceeded(LimitKind::Nodes, self.steps, store.live_nodes()));
            }
        }
        if let Some(deadline) = self.limits.deadline {
            // The clock is the only expensive check: sample it every 256
            // steps so governed kernels stay within noise of ungoverned.
            if self.steps & 0xFF == 0 && std::time::Instant::now() >= deadline {
                return Err(exceeded(
                    LimitKind::Deadline,
                    self.steps,
                    store.live_nodes(),
                ));
            }
        }
        Ok(())
    }

    /// Two-tier memo probe: private L1 first, shared L2 on a miss. An L2
    /// hit warms the L1 in place, so a key another thread solved costs
    /// this session one shared probe total, not one per repetition.
    ///
    /// Only the function-valued binary/ternary kernels (`AND`, `XOR`,
    /// `ITE`) go through here — their results survive in-place level
    /// swaps, so the L2 only needs clearing when nodes are actually
    /// reclaimed (see the manager's quiescent hooks).
    #[inline(always)]
    pub(crate) fn lookup2(
        &mut self,
        store: &NodeStore,
        op: u32,
        a: u32,
        b: u32,
        c: u32,
    ) -> Option<Ref> {
        if let Some(r) = self.cache.lookup(op, a, b, c) {
            return Some(r);
        }
        self.cache.shared_lookups += 1;
        let r = store.shared_cache().lookup(op as u64, a, b, c)?;
        self.cache.shared_hits += 1;
        self.cache.insert(op, a, b, c, r);
        Some(r)
    }

    /// Two-tier memo insert: always into the private L1; into the shared
    /// L2 only when the recursion that produced `r` consumed at least
    /// [`L2_PUBLISH_MIN_WORK`] descendant cache probes (`work0` is the L1
    /// lookup count sampled right after this key's own miss). Leaf-ish
    /// results churn far faster than they are reused cross-thread, so
    /// publishing them would only add coherence traffic and evictions;
    /// the threshold keeps the L2 holding the expensive subproblems.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn publish2(
        &mut self,
        store: &NodeStore,
        op: u32,
        a: u32,
        b: u32,
        c: u32,
        work0: u64,
        r: Ref,
    ) {
        self.cache.insert(op, a, b, c, r);
        if self.cache.lookups - work0 >= L2_PUBLISH_MIN_WORK {
            self.cache.shared_insertions += 1;
            store.shared_cache().publish(op as u64, a, b, c, r);
        }
    }

    /// Finds or creates the node `(var, low, high)` in the shared store,
    /// applying the reduction rules (equal children; complement pushed
    /// off the 1-edge). The kernel-side `mk`: the variable must already
    /// be registered (kernels only ever rebuild over operand variables),
    /// a created slot is logged for the manager's list drain, and a full
    /// store surfaces as [`LimitKind::TableFull`] for the façade's
    /// grow-and-retry loop.
    #[inline]
    pub(crate) fn mk(
        &mut self,
        store: &NodeStore,
        var: Var,
        low: Ref,
        high: Ref,
    ) -> Result<Ref, LimitExceeded> {
        if low == high {
            return Ok(low);
        }
        debug_assert!(
            store.var_level(var.0) < store.level(low) && store.var_level(var.0) < store.level(high),
            "mk: ordering violated at {var:?}"
        );
        let complement = high.is_complemented();
        let (low, high) = if complement {
            (!low, !high)
        } else {
            (low, high)
        };
        match store.try_mk(var, low, high) {
            Ok((r, created)) => {
                if created {
                    self.created.push(r.node().0);
                }
                Ok(r.xor_complement(complement))
            }
            Err(_) => Err(LimitExceeded {
                kind: LimitKind::TableFull,
                steps: self.steps,
                live_nodes: store.live_nodes(),
            }),
        }
    }
}

/// A shared, clonable budget of *additional* worker threads: the single
/// `--jobs` knob, enforced globally. Suite-level parallelism (one
/// manager per `bench::pool` worker) and intra-cone parallelism (the
/// parallel apply forking sessions against one shared store) draw from
/// the same pool of permits, so nesting one inside the other can never
/// oversubscribe the machine.
///
/// A budget constructed with `JobBudget::new(p)` allows `p` extra
/// threads beyond the callers that hold it. [`JobBudget::try_acquire`]
/// never blocks: a nested region that finds no permits simply runs
/// sequentially on its own thread.
#[derive(Clone, Debug)]
pub struct JobBudget(Arc<AtomicUsize>);

impl JobBudget {
    /// A budget permitting `permits` additional worker threads (on top
    /// of every thread already running that holds a clone).
    pub fn new(permits: usize) -> JobBudget {
        JobBudget(Arc::new(AtomicUsize::new(permits)))
    }

    /// Claims up to `max` permits without blocking; returns how many were
    /// actually claimed (possibly zero). The caller must [`release`]
    /// exactly that many when its workers exit.
    ///
    /// [`release`]: JobBudget::release
    pub fn try_acquire(&self, max: usize) -> usize {
        let mut avail = self.0.load(Ordering::Relaxed);
        loop {
            let take = avail.min(max);
            if take == 0 {
                return 0;
            }
            // ordering: Relaxed suffices — permits only gate thread
            // *counts*; all data handoff synchronizes through spawn/join.
            match self.0.compare_exchange_weak(
                avail,
                avail - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(now) => avail = now,
            }
        }
    }

    /// Returns `permits` previously claimed permits to the pool.
    pub fn release(&self, permits: usize) {
        if permits > 0 {
            // ordering: Relaxed — see try_acquire.
            self.0.fetch_add(permits, Ordering::Relaxed);
        }
    }

    /// Permits currently available (diagnostic; racy by nature).
    pub fn available(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_cache_clear_survives_generation_wrap() {
        let mut cache = ComputedCache::with_bits(8);
        // Force the generation to the wrap boundary with a live entry in
        // the table, then clear: the wrap branch must wipe the entries and
        // restart at generation 1 without resurrecting stale results.
        cache.generation = (u32::MAX >> GEN_SHIFT) - 1;
        cache.insert(op::AND, 4, 6, 0, Ref::ZERO);
        cache.clear();
        assert_eq!(cache.generation, 1, "wrap resets to generation 1");
        assert!(
            cache.sets.iter().all(|s| s.ways.iter().all(|e| e.tag == 0)),
            "wrap must wipe every way of every set"
        );
        assert_eq!(
            cache.lookup(op::AND, 4, 6, 0),
            None,
            "the poisoned pre-wrap entry must not be observable"
        );
    }

    #[test]
    fn visit_scratch_survives_stamp_wrap() {
        let mut s = VisitScratch::default();
        s.begin(4);
        assert!(s.mark(2), "fresh scratch: first visit");
        // Force the wrap: the next begin() lands on generation 0, which
        // must wipe the stamps (any stale stamp would equal the new
        // generation and read as already-visited).
        s.gen = u32::MAX;
        s.stamp.fill(u32::MAX); // worst case: every stamp aliases pre-wrap gen
        s.begin(4);
        assert_eq!(s.gen, 1, "wrap resets to generation 1");
        for i in 0..4 {
            assert!(s.mark(i), "node {i} must read unvisited after the wrap");
            assert!(!s.mark(i), "second visit is still detected");
            assert!(s.is_marked(i));
        }
    }

    #[test]
    fn cache_scrub_drops_exactly_the_flagged_entries() {
        let mut cache = ComputedCache::with_bits(8);
        cache.insert(op::AND, 4, 6, 0, Ref::ZERO);
        cache.insert(op::XOR, 8, 10, 0, Ref::ONE);
        // Scrub everything whose first word is 8.
        cache.scrub(|w| w != 8);
        assert_eq!(cache.lookup(op::XOR, 8, 10, 0), None, "flagged entry dies");
        assert_eq!(
            cache.lookup(op::AND, 4, 6, 0),
            Some(Ref::ZERO),
            "unflagged entry survives the scrub"
        );
    }

    #[test]
    fn job_budget_acquire_release_roundtrip() {
        let b = JobBudget::new(3);
        assert_eq!(b.available(), 3);
        assert_eq!(b.try_acquire(2), 2);
        let b2 = b.clone();
        assert_eq!(b2.try_acquire(5), 1, "clones share one pool");
        assert_eq!(b.try_acquire(1), 0, "exhausted budget yields zero");
        b2.release(1);
        b.release(2);
        assert_eq!(b.available(), 3);
    }

    #[test]
    fn session_limit_bookkeeping_roundtrip() {
        let mut s = Session::new();
        assert!(!s.limits().is_limited());
        s.set_limits(ResourceLimits {
            max_steps: Some(10),
            ..ResourceLimits::default()
        });
        assert!(s.governed);
        assert_eq!(s.steps_used(), 0);
        s.clear_limits();
        assert!(!s.governed);
    }
}
