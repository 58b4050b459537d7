//! The memo and budget state of [`Manager`]: the computed cache, the
//! visit scratch, and the resource budget with the tick that enforces
//! it.
//!
//! Every recursive kernel memoizes through [`ComputedCache`] (its
//! set-associative table format stays behind this type) and calls
//! [`Manager::tick`] before its first `mk` or self-recursion; the
//! infallible entry points suspend the budget with
//! [`Manager::ungoverned`].

use crate::analysis::LevelRow;
use crate::manager::Manager;
use crate::reference::{NodeId, Ref};
use crate::store::triple_hash;

/// Operation tags for the computed cache. Tag 0 is reserved
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
    /// Node-to-constant substitution `F(value)`, keyed by
    /// `(node, target, value)`. Which nodes reach the target depends on
    /// the variable order, which is why a level swap that rewrites a node
    /// retires the whole memo.
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
/// cache-line-sized sets of the manager's computed cache.
pub const DEFAULT_CACHE_BITS: u32 = 14;

/// The fixed-size, set-associative, lossy operation cache: power-of-two
/// [`CacheSet`] groups (three ways per 64-byte line), indexed by the same
/// multiply-mix hash as the unique table. Within a set, inserts overwrite
/// a stale way first and round-robin among live ones, so two hot keys
/// that collide no longer evict each other every call.
///
/// Entries are tagged by one generation, and [`ComputedCache::clear`]
/// retires every entry in O(1) by bumping it. The Coudert–Madre
/// generalized cofactors pick their result *using the variable order*,
/// and a node substitution depends on which nodes reach the target in the
/// current DAG, so a level swap that rewrites a node clears the whole
/// memo, function-valued entries included.
pub(crate) struct ComputedCache {
    pub(crate) sets: Vec<CacheSet>,
    mask: usize,
    pub(crate) generation: u32,
    pub(crate) lookups: u64,
    pub(crate) hits: u64,
    pub(crate) insertions: u64,
}

/// The generation lives in the upper bits of the entry tag; op tags
/// occupy the low `GEN_SHIFT` bits.
pub(crate) const GEN_SHIFT: u32 = 3;

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
            lookups: 0,
            hits: 0,
            insertions: 0,
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
        self.generation << GEN_SHIFT | op
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
        let generation = self.generation;
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
            if way.is_none() && e.tag >> GEN_SHIFT != generation {
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

    /// O(1) clear of everything: bump the generation so every slot is
    /// stale. On the (practically unreachable) generation wrap, pay one
    /// real wipe.
    pub(crate) fn clear(&mut self) {
        self.generation += 1;
        if self.generation >= u32::MAX >> GEN_SHIFT {
            self.sets.fill(CacheSet::default());
            self.generation = 1;
        }
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

/// Reusable scratch for the `&self` DAG traversals, so that one
/// allocates nothing once the scratch has grown to the arena. Per arena
/// slot it keeps a visited stamp (`stamp[i] == gen` means slot `i` was
/// seen in the current traversal) and the slot's position in that
/// traversal's visit order; beside them, the traversal's DFS stack and
/// the rows of the level profile (see [`Manager::walk`]).
#[derive(Debug, Default)]
pub(crate) struct VisitScratch {
    stamp: Vec<u32>,
    gen: u32,
    /// `pos[i]`: how many nodes the traversal that marked slot `i`
    /// visited before it.
    pos: Vec<u32>,
    visits: u32,
    pub(crate) stack: Vec<NodeId>,
    pub(crate) levels: Vec<LevelRow>,
}

impl VisitScratch {
    /// Starts a traversal over `n` nodes; returns the scratch ready to mark.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.pos.resize(n, 0);
        }
        self.visits = 0;
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
            self.pos[i] = self.visits;
            self.visits += 1;
            true
        }
    }

    /// The position of slot `i` in the visit order of the current
    /// traversal, which must have marked it.
    pub(crate) fn position(&self, i: usize) -> usize {
        debug_assert_eq!(self.stamp[i], self.gen, "slot {i} was not visited");
        self.pos[i] as usize
    }
}

/// Resource budget governing the fallible (`try_*`) kernel entry points.
///
/// All fields default to `None` (unlimited). A manager with limits
/// installed checks them from a cheap step counter ticked once per
/// recursive kernel invocation; when any bound is crossed the running
/// `try_*` operation returns [`LimitExceeded`] and unwinds cooperatively.
/// The infallible kernels (`ite`, `and`, ...) always run with this budget
/// suspended — they are unlimited-budget wrappers over the same
/// recursions and can never abort.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceLimits {
    /// Abort once the manager's node count ([`Manager::live_nodes`])
    /// exceeds this (the memory bound: a blowing-up cone is cut off
    /// before it can exhaust the arena). Every node built since the last
    /// [`Manager::clear`] counts, aborted attempts' nodes included, so a
    /// flow that clears between cones, as the BDS engine does, gets a
    /// per-cone ceiling, while a pass that builds many cones without
    /// clearing (the partition) counts all of them.
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
}

/// A `try_*` kernel aborted because a [`ResourceLimits`] bound was
/// crossed.
///
/// The abort is *clean*: the kernel state remains fully consistent —
/// unique table and computed cache intact. Nodes
/// built by the aborted recursion stay in the arena (and count against
/// the node ceiling) until the next [`Manager::clear`]; no state needs
/// rolling back and every previously held [`Ref`] is still valid.
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
        };
        write!(
            f,
            "BDD kernel aborted: {what} exceeded after {} steps ({} live nodes)",
            self.steps, self.live_nodes
        )
    }
}

impl std::error::Error for LimitExceeded {}

impl Manager {
    /// Installs a resource budget for the `try_*` kernels and resets the
    /// step counter. All-`None` limits (the default) disable governance.
    ///
    /// See [`ResourceLimits`] for what each bound means and
    /// [`LimitExceeded`] for the abort-recovery contract.
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.limits = limits;
        self.steps = 0;
        self.governed = limits.is_limited() || self.abort_at_step.is_some();
    }

    /// Removes any installed resource budget (and disarms fault
    /// injection); the `try_*` kernels become infallible in practice.
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

    /// Test-only fault injection: the next `try_*` kernel aborts with
    /// [`LimitKind::Injected`] once the step counter reaches `steps`
    /// (`None` disarms). Used by the abort-recovery property tests to
    /// stop recursions at arbitrary interior points.
    #[doc(hidden)]
    pub fn fault_inject_abort_after(&mut self, steps: Option<u64>) {
        self.abort_at_step = steps;
        self.steps = 0;
        self.governed = self.limits.is_limited() || steps.is_some();
    }

    /// Runs a fallible kernel closure with governance suspended, turning
    /// it into the unlimited-budget infallible form. This is how every
    /// classic entry point (`ite`, `and`, `xor`, the cofactor family, ...)
    /// wraps its `try_*` twin: the budget and any armed fault injection
    /// are ignored for the duration, then restored.
    pub fn ungoverned<T>(&mut self, f: impl FnOnce(&mut Manager) -> Result<T, LimitExceeded>) -> T {
        let saved = std::mem::replace(&mut self.governed, false);
        let r = f(self);
        self.governed = saved;
        match r {
            Ok(v) => v,
            Err(e) => unreachable!("ungoverned kernel reported {e}"),
        }
    }

    /// One governance tick, called at the top of every fallible kernel
    /// recursion. A single predictable branch when ungoverned.
    #[inline(always)]
    pub(crate) fn tick(&mut self) -> Result<(), LimitExceeded> {
        if !self.governed {
            return Ok(());
        }
        self.tick_slow()
    }

    #[cold]
    fn tick_slow(&mut self) -> Result<(), LimitExceeded> {
        self.steps += 1;
        let (steps, live_nodes) = (self.steps, self.live_nodes());
        let exceeded = |kind| LimitExceeded {
            kind,
            steps,
            live_nodes,
        };
        if let Some(at) = self.abort_at_step {
            if steps >= at {
                return Err(exceeded(LimitKind::Injected));
            }
        }
        if let Some(max) = self.limits.max_steps {
            if steps > max {
                return Err(exceeded(LimitKind::Steps));
            }
        }
        if let Some(max) = self.limits.max_live_nodes {
            if live_nodes > max {
                return Err(exceeded(LimitKind::Nodes));
            }
        }
        if let Some(deadline) = self.limits.deadline {
            // The clock is the only expensive check: sample it every 256
            // steps so governed kernels stay within noise of ungoverned.
            if steps & 0xFF == 0 && std::time::Instant::now() >= deadline {
                return Err(exceeded(LimitKind::Deadline));
            }
        }
        Ok(())
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
        }
    }

    #[test]
    fn session_limit_bookkeeping_roundtrip() {
        let mut m = Manager::new();
        assert!(!m.limits().is_limited());
        m.set_limits(ResourceLimits {
            max_steps: Some(10),
            ..ResourceLimits::default()
        });
        assert!(m.governed);
        assert_eq!(m.steps, 0);
        m.clear_limits();
        assert!(!m.governed);
    }
}
