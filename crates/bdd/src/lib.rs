//! A reduced, ordered binary decision diagram (ROBDD) package with
//! complemented edges.
//!
//! This crate is the BDD substrate of the BDS-MAJ reproduction. It follows
//! the classical Brace–Rudell–Bryant design, with a CUDD-style purpose-built
//! memory system:
//!
//! * hash-consed nodes in an arena ([`Manager`]), guaranteeing canonicity:
//!   two [`Ref`]s are functionally equal if and only if they are bit-equal;
//! * complemented edges restricted to 0-edges (the 1-edge of every stored
//!   node is regular), so negation is free;
//! * a memoized if-then-else operator ([`Manager::ite`]) plus specialized
//!   AND/XOR kernels for the two dominant connectives;
//! * the Coudert–Madre generalized cofactor [`Manager::restrict`] that
//!   seeds the majority decomposition of BDS-MAJ;
//! * structural analysis needed by dominator-driven decomposition:
//!   node iteration, in-degree statistics, the structural x-dominator set
//!   ([`Manager::x_dominators`]) and node-to-constant substitution.
//!
//! # Edge encoding
//!
//! A [`Ref`] is a single `u32`: the node index shifted left by one, with
//! the *complement bit* in bit 0. An edge with the bit set denotes the
//! negation of the function rooted at its node, so `!f` is one XOR on
//! the sign bit — no traversal, no allocation, O(1)
//! ([`Ref::is_complemented`], [`Ref::regular`]).
//!
//! Sharing a node between `f` and `¬f` requires one canonical
//! representative per complement pair, and this package picks the
//! classical Brace–Rudell–Bryant rule: **the 1-edge (`high`) of a stored
//! node is never complemented**. `mk` enforces it by construction —
//! asked for a node with a complemented 1-edge, it builds the
//! complemented-inputs twin and returns the complement of *that*
//! (`mk(v, l, h)` with `h` complemented ⇒ `¬mk(v, ¬l, ¬h)`), so the
//! bit only ever surfaces on 0-edges and on the refs handed to callers.
//! [`Manager::verify_edge_canonical_form`] audits the invariant over the
//! live arena, and the workspace linter (`bdslint`'s
//! `complement-canonical` rule) bans raw sign-bit construction outside
//! the registered constructors.
//!
//! One consequence: there is only one terminal, `⊤` (node 0) — `ZERO`
//! *is* `¬ONE`, the same node with the sign bit set. A 0/1 terminal pair
//! would be two names for one complement pair and break canonicity
//! (every function would gain a second, complemented spelling).
//!
//! # Storage architecture
//!
//! A [`Manager`] holds all kernel state directly, as CUDD's `DdManager`
//! does: the node arena with its per-slot reference counts, the unique
//! table, the variable order, the computed cache, the traversal scratch
//! and the resource budget. The hot state is three flat tables — no
//! per-operation allocation, no std `HashMap` on any hot path. Every
//! recursive kernel is a `Manager` method, and [`Manager::mk`] is the one
//! place a node is created.
//!
//! * **Node arena** — a flat `(var, low, high)` vector, with parallel
//!   per-slot vectors for the two reference counts, and one slot list per
//!   variable for the level swap; a node is its index, index 0 is the
//!   terminal. Dead nodes are reclaimed by the
//!   collector (below); their slots are poisoned, stacked on a free
//!   list, and reused by `mk` before the arena grows
//!   (reclaim-before-grow).
//! * **Unique table** — an open-addressed, power-of-two `Vec<u32>` bucket
//!   array over the arena, probed linearly from an inlined multiply-mix
//!   hash of `(var, low, high)`. Bucket value 0 doubles as the
//!   empty-slot sentinel (the terminal is never consed), so a probe reads
//!   one `u32` per step. The table doubles at 75% load. There are no
//!   tombstones: deletions happen only in bulk during a collection, which
//!   rebuilds the buckets from the survivors and shrinks the array when
//!   they would fit a quarter of it.
//! * **Computed cache** — a fixed-size, set-associative, *lossy* table
//!   ([`Manager::with_capacity`] sets its size; default
//!   `3 · 2^(DEFAULT_CACHE_BITS − 2)` = 3 · 2^12 entries). Entries are
//!   grouped into 64-byte, cache-line-aligned *sets* of three ways plus
//!   a round-robin victim cursor, so one probe touches one line and a
//!   hot key survives two colliding neighbours instead of being evicted
//!   by the first (a full 20-byte entry — operation key `(op, a, b, c)`,
//!   result, generation tag — rules out a 4-way/64-byte split without
//!   truncating keys, and a truncated key can alias two different
//!   operations). Inserts refresh a matching key in place, then prefer
//!   a stale way (generation retired), then rotate the victim cursor.
//!   All recursive kernels share this one cache via op tag codes (3 bits
//!   of the tag word): `ITE`, `AND`, `XOR`, `COFACTOR`, `RESTRICT`, and
//!   `REPLACE` (node-to-constant substitution, keyed by
//!   `(node, target << 1, value)`). `RESTRICT` and `REPLACE` results
//!   depend on the variable order, so they carry a second,
//!   order-sensitive generation that every node-rewriting level swap
//!   retires; the other ops survive swaps. [`Manager::clear_caches`]
//!   bumps both generations: O(1), capacity kept.
//!
//! # Garbage collection
//!
//! The collector pairs external refcounts with exact *interior* (arena
//! edge) refcounts — CUDD's `Cudd_Ref`/`Cudd_RecursiveDeref` discipline,
//! with the node-to-node half maintained by the kernel itself:
//!
//! * Callers declare long-lived functions with [`Manager::protect`] and
//!   drop the claim with [`Manager::release`]. Interior counts are kept
//!   exact by `mk`, the level swap's slot patching, and the sweep, so a
//!   node with both counts at zero is dead by definition
//!   ([`Manager::verify_interior_refs`] audits this in debug builds).
//! * The refcounts are the only way dead nodes are found; nothing marks
//!   from the roots. [`Manager::collect`] seeds a cascade with the
//!   zero-count nodes, and each reclaimed node drops its children's
//!   counts. [`Manager::maybe_collect`] runs `collect` once its gates
//!   pass (see [`GcConfig`]). Dead slots go to the free list, the unique
//!   table is rebuilt (shrink-on-sparse), and the computed cache is
//!   scrubbed of exactly the entries naming a reclaimed slot — the memo
//!   stays warm across collections. Debug builds check every sweep
//!   against the reachable set of the protected roots
//!   ([`Manager::rooted_size`]).
//! * Collection never runs implicitly inside an operation, so recursion
//!   intermediates need no protection; flows call `maybe_collect` at
//!   quiescent points (between supernodes, between reorder trials).
//!
//! Because the cache is bounded and dead nodes are recycled, memory
//! tracks the *live working set* — not operation count, not total nodes
//! ever created. [`Manager::cache_stats`] exposes lookup/hit/insert
//! counters, table sizes, and the reclaim counters
//! (`reclaimed_total`/`collections`/`free_nodes`/`live_nodes` in
//! [`CacheStats`]), which the bench binaries report.
//!
//! # Variables vs. levels, and dynamic reordering
//!
//! A variable's *index* is its identity — what assignments, gate bindings
//! and callers name — while its *level* is its current position in the
//! decision order (0 = root). The manager decouples the two through a
//! `var2level`/`level2var` permutation pair, and every recursive kernel
//! branches on levels (via [`Manager::level`], where constants report the
//! `u32::MAX` pseudo-level), so the order can change *without rebuilding
//! any function*:
//!
//! * [`Manager::swap_levels`] exchanges two adjacent levels in place,
//!   rewriting only the upper-level nodes that reference the lower level
//!   and patching their arena slots through the unique table — every
//!   outstanding [`Ref`] keeps denoting the same function.
//! * [`window_reorder`] is the reordering the BDS engine runs on each
//!   supernode before the dominator search: a sliding
//!   window-permutation search minimizing one function's size, whose
//!   candidates are scored from the window's boundary tables without
//!   building a node ([`window_sizes`]); only a winning arrangement pays
//!   the swap primitive.
//! * Reordering runs only at explicit quiescent points, never inside a
//!   kernel. [`Manager::swap_levels`] preserves every `Ref` but displaces
//!   nodes into garbage, so a `maybe_collect` should follow a burst of
//!   swaps.
//!
//! # Resource governance and the fallible-kernel contract
//!
//! Every recursive kernel is written once, in a fallible form. The
//! entries the budgeted flow calls are budget-governed `try_*` functions
//! returning `Result<Ref, LimitExceeded>` (`try_ite`, `try_and`,
//! `try_xor`, `try_cofactor`, `try_replace_node_with_const`, ...).
//! Install a budget with [`Manager::set_limits`] ([`ResourceLimits`]: a
//! live-node ceiling, a recursion-step ceiling, a wall-clock deadline —
//! any subset); the `try_*` kernels then poll it on a cheap counter
//! inside the recursion and abort cooperatively with [`LimitExceeded`]
//! when it is crossed. The infallible entries (`ite`, `and`, `restrict`,
//! ...) run the *same* recursions with the budget suspended
//! ([`Manager::ungoverned`]), so they keep can't-fail signatures and pay
//! one branch per recursion step. A kernel gets a `try_*` entry only
//! where the governed flow calls one.
//!
//! **What survives an abort:** everything. All invariant maintenance
//! (unique-table insertion, interior refcounts, per-variable node lists,
//! free-list reuse) happens inside one call of `mk`, so an early
//! return between `mk` calls cannot tear any structure. After a
//! `LimitExceeded` the manager is fully consistent and immediately
//! usable: the unique table and computed cache are intact (including
//! partial results the aborted operation memoized — they are correct,
//! just incomplete), `verify_interior_refs` passes, and the nodes the
//! aborted operation built are ordinary unreferenced garbage that the
//! next [`Manager::collect`] reclaims. The recommended recovery is:
//! protect what you still need, `collect()`, then either retry with a
//! fresh budget or fall back. Nothing needs to be rebuilt; no poisoned
//! state exists.
//!
//! Limits are polled, not preemptive: the step counter advances once per
//! cache-missing recursion step, the node ceiling is compared on the
//! same poll, and the deadline clock is sampled every 256 steps — an
//! abort lands within microseconds of the crossing, never mid-`mk`.
//!
//! # Ownership
//!
//! The kernel has a single owner. A [`Manager`] holds every byte of its
//! state directly — no atomics, no locks, no shared tables — so each
//! `mk` is plain loads and stores. Parallel work uses one manager per
//! thread: a manager may move to a worker (`Send`), but is never shared
//! (`!Sync`, because the traversal scratch sits in a `RefCell`).
//!
//! ```
//! fn sendable<T: Send>() {}
//! sendable::<bdd::Manager>(); // a worker may own a Manager
//! ```
//!
//! ```compile_fail
//! // Does not compile: a Manager must never be shared across threads
//! // (its visit scratch sits in a RefCell). One Manager per worker.
//! fn sharable<T: Sync>() {}
//! sharable::<bdd::Manager>();
//! ```
//!
//! # Example
//!
//! ```
//! use bdd::Manager;
//!
//! let mut m = Manager::new();
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! // majority of three variables: ab + bc + ac
//! let f = m.maj(a, b, c);
//! let g = {
//!     let ab = m.and(a, b);
//!     let bc = m.and(b, c);
//!     let ac = m.and(a, c);
//!     let t = m.or(ab, bc);
//!     m.or(t, ac)
//! };
//! assert_eq!(f, g); // canonicity: equal functions are equal references
//! ```

mod analysis;
mod cofactor;
mod dot;
mod gc;
mod hasher;
mod manager;
mod ops;
mod reference;
mod reorder;
mod session;
mod store;

pub use analysis::{InDegree, NodeStats};
pub use gc::GcConfig;
pub use hasher::{BuildFxHasher, FxHasher};
pub use manager::{CacheStats, Manager, Node};
pub use reference::{NodeId, Ref, Var};
pub use reorder::{window_reorder, window_sizes};
pub use session::{LimitExceeded, LimitKind, ResourceLimits, DEFAULT_CACHE_BITS};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_doc_example_holds() {
        let mut m = Manager::new();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let f = m.maj(a, b, c);
        let ab = m.and(a, b);
        let bc = m.and(b, c);
        let ac = m.and(a, c);
        let t = m.or(ab, bc);
        let g = m.or(t, ac);
        assert_eq!(f, g);
    }
}
