//! Node creation: the arena, the open-addressed unique table and the
//! per-variable slot lists of [`Manager`], and [`Manager::mk`], the one
//! function that creates a node.
//!
//! On a unique-table miss, `mk` reuses the most recently freed slot or
//! appends one to the arena, inserts it, counts its two arena edges,
//! appends it to its variable's slot list and grows the table in place
//! once it is three quarters full. Nothing is ever logged for later
//! reconciliation, so the manager is consistent between any two `mk`
//! calls — which is what makes a kernel abort clean.
//!
//! Slot allocation order is fixed: LIFO free-list pops first, then the
//! arena high-water mark; a sweep re-stacks the free list in ascending
//! slot order, so the highest freed slot is reused first. It is not
//! observable in a flow's output: no decision above the kernel orders
//! nodes by `NodeId` or keeps a `Ref`-keyed memo across collections, so
//! where a node lands (and hence when the collector ran) cannot move a
//! gate count.

use crate::manager::Manager;
use crate::reference::{NodeId, Ref, Var};

/// Sentinel variable index used by the terminal node; compares below every
/// real variable when ordered by *level depth* (larger index = deeper).
pub(crate) const TERMINAL_VAR: u32 = u32::MAX;

/// Sentinel variable index poisoning a reclaimed arena slot. A slot with
/// this variable is on the free list (or parked mid-rewrite by a level
/// swap): it is never reachable from a live [`Ref`], never listed in the
/// unique table, and is overwritten on reuse.
pub(crate) const FREE_VAR: u32 = u32::MAX - 1;

/// Smallest bucket array the unique table is ever given.
pub(crate) const MIN_BUCKETS: usize = 1 << 8;

/// Unique-table bucket count that holds `nodes` entries below 3/4 load.
pub(crate) fn buckets_for(nodes: usize) -> usize {
    (nodes.max(8) * 4 / 3 + 1)
        .next_power_of_two()
        .max(MIN_BUCKETS)
}

/// Best-effort prefetch of the cache line holding `*p` (x86_64 only; a
/// no-op elsewhere). Unique-table probes use it to overlap the *next*
/// probe slot's node fetch with the current slot's key comparison — on a
/// collision chain the bucket words share a line but the arena nodes they
/// name do not.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure performance hint with no memory effects;
    // the CPU ignores addresses it cannot fetch.
    unsafe {
        core::arch::x86_64::_mm_prefetch(p as *const i8, core::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Multiply-mix of a `(var, low, high)` triple — the unique-table hash.
#[inline(always)]
pub(crate) fn triple_hash(a: u32, b: u32, c: u32) -> u64 {
    let x = ((a as u64) << 32 | b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let y = (c as u64 ^ 0xD1B5_4A32_D192_ED03).wrapping_mul(0xA24B_AED4_963E_E407);
    let mut h = x ^ y;
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

/// A stored BDD node: the Shannon expansion of a function with respect to
/// its top variable.
///
/// Invariants maintained by the kernel:
/// * `high` (the 1-edge) is never complemented;
/// * `low != high`;
/// * the top variables of `low` and `high` sit at strictly deeper
///   *levels* than `var` (in the current `var2level` order).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Node {
    /// Decision variable *index* (its identity). The variable's current
    /// position in the order is `var2level`; the two coincide only until
    /// the first reordering.
    pub var: Var,
    /// Negative (0-edge) cofactor; may be complemented.
    pub low: Ref,
    /// Positive (1-edge) cofactor; always regular.
    pub high: Ref,
}

/// The poisoned contents of a reclaimed slot.
pub(crate) const FREE_NODE: Node = Node {
    var: Var(FREE_VAR),
    low: Ref::ONE,
    high: Ref::ONE,
};

impl Manager {
    /// Registers `index` (and any gap below it) in the order maps; new
    /// variables are appended at the deepest levels in index order.
    /// Kernels never introduce variables.
    #[inline(always)]
    pub(crate) fn ensure_var(&mut self, index: u32) {
        while self.var2level.len() <= index as usize {
            let next = self.var2level.len() as u32;
            self.var2level.push(next);
            self.level2var.push(next);
            self.var_nodes.push(Vec::new());
        }
    }

    /// Cofactors `f` with respect to variable `v` assumed to be at or
    /// above `f`'s top level: returns `(f|v=0, f|v=1)`. Comparing the
    /// stored top variable covers the constant case too (the terminal's
    /// sentinel never equals a real variable), so there is no separate
    /// terminal branch.
    #[inline(always)]
    pub(crate) fn shallow_cofactors(&self, f: Ref, v: Var) -> (Ref, Ref) {
        let n = self.nodes[f.node().index()];
        if n.var != v {
            (f, f)
        } else {
            let c = f.is_complemented();
            (n.low.xor_complement(c), n.high.xor_complement(c))
        }
    }

    /// Finds or creates the node `(var, low, high)`, applying the reduction
    /// rules (equal children collapse; a complemented 1-edge is pushed onto
    /// the 0-edge and the returned edge). Unknown variables are registered
    /// at the deepest level first.
    ///
    /// A miss takes the most recently freed slot, or else appends one to
    /// the arena, then does all of the bookkeeping in place: the bucket,
    /// the two children's interior counts, the variable's slot list, and
    /// table growth at 3/4 load.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the children's levels are not strictly
    /// below `var`'s level (which would break canonicity).
    #[inline]
    pub fn mk(&mut self, var: Var, low: Ref, high: Ref) -> Ref {
        self.ensure_var(var.0);
        if low == high {
            return low;
        }
        debug_assert!(
            self.level_of_var(var) < self.level(low) && self.level_of_var(var) < self.level(high),
            "mk: ordering violated at {var:?}"
        );
        let complement = high.is_complemented();
        let (low, high) = if complement {
            (!low, !high)
        } else {
            (low, high)
        };
        let mask = self.bucket_mask;
        let mut i = (triple_hash(var.0, low.raw(), high.raw()) as usize) & mask;
        loop {
            let b = self.buckets[i];
            if b == 0 {
                break;
            }
            // Overlap the next probe's node fetch with this comparison:
            // the next bucket word is (almost always) in the line already
            // loaded, but the arena node it names is not.
            let next = self.buckets[(i + 1) & mask];
            if next != 0 {
                prefetch(&self.nodes[next as usize]);
            }
            let n = self.nodes[b as usize];
            if n.var == var && n.low == low && n.high == high {
                return Ref::new(NodeId(b), complement);
            }
            i = (i + 1) & mask;
        }
        let node = Node { var, low, high };
        let idx = match self.free.pop() {
            Some(slot) => {
                debug_assert_eq!(self.nodes[slot as usize].var.0, FREE_VAR);
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                debug_assert!(
                    self.nodes.len() < (u32::MAX >> 1) as usize,
                    "node arena exceeds Ref address space"
                );
                self.push_slot(node)
            }
        };
        self.buckets[i] = idx;
        for c in [low, high] {
            let ci = c.node().index();
            if ci != 0 {
                self.int_refs[ci] += 1;
            }
        }
        self.var_nodes[var.0 as usize].push(idx);
        self.allocs_since_gc += 1;
        self.occupied += 1;
        if self.occupied * 4 >= self.buckets.len() * 3 {
            self.grow_buckets_to(self.buckets.len() * 2);
        }
        Ref::new(NodeId(idx), complement)
    }

    /// Appends a slot holding `node` to the arena (with zeroed counts)
    /// and returns its index.
    pub(crate) fn push_slot(&mut self, node: Node) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        self.int_refs.push(0);
        self.refs.push(0);
        idx
    }

    /// Reserves arena room for at least `nodes` slots in total.
    pub(crate) fn reserve_slots(&mut self, nodes: usize) {
        let extra = nodes.saturating_sub(self.nodes.len());
        self.nodes.reserve(extra);
        self.int_refs.reserve(extra);
        self.refs.reserve(extra);
    }

    /// Rebuilds the bucket array at `new_len` (a power of two) by
    /// re-inserting every live arena node; reclaimed slots are skipped.
    pub(crate) fn grow_buckets_to(&mut self, new_len: usize) {
        debug_assert!(new_len.is_power_of_two());
        let mask = new_len - 1;
        let mut buckets = vec![0u32; new_len];
        for (idx, node) in self.nodes.iter().enumerate().skip(1) {
            if node.var.0 == FREE_VAR {
                continue;
            }
            let mut i = (triple_hash(node.var.0, node.low.raw(), node.high.raw()) as usize) & mask;
            while buckets[i] != 0 {
                i = (i + 1) & mask;
            }
            buckets[i] = idx as u32;
        }
        self.buckets = buckets;
        self.bucket_mask = mask;
    }

    /// Removes one arena slot from the unique table by backward-shift
    /// deletion (no tombstones, so later probes stay one-load-per-step).
    /// `n` is the node content the slot is currently hashed under.
    pub(crate) fn remove_slot(&mut self, idx: u32, n: &Node) {
        let mask = self.bucket_mask;
        let mut i = (triple_hash(n.var.0, n.low.raw(), n.high.raw()) as usize) & mask;
        while self.buckets[i] != idx {
            debug_assert!(self.buckets[i] != 0, "remove_slot: slot not in the table");
            i = (i + 1) & mask;
        }
        // Shift the rest of the probe cluster back over the hole so no
        // entry becomes unreachable from its ideal bucket.
        let mut hole = i;
        let mut j = (hole + 1) & mask;
        loop {
            let b = self.buckets[j];
            if b == 0 {
                break;
            }
            let nb = self.nodes[b as usize];
            let ideal = (triple_hash(nb.var.0, nb.low.raw(), nb.high.raw()) as usize) & mask;
            // `b` may move into the hole iff its ideal bucket is not in
            // the (cyclic) open interval (hole, j].
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.buckets[hole] = b;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        self.buckets[hole] = 0;
        self.occupied -= 1;
    }

    /// Inserts an existing arena slot into the unique table (the slot's
    /// triple must not already be present — guaranteed by the level-swap
    /// rewrite, which never recreates an existing function's node).
    pub(crate) fn insert_slot(&mut self, idx: u32) {
        let n = self.nodes[idx as usize];
        let mut i = (triple_hash(n.var.0, n.low.raw(), n.high.raw()) as usize) & self.bucket_mask;
        loop {
            let b = self.buckets[i];
            if b == 0 {
                break;
            }
            debug_assert!(
                self.nodes[b as usize] != n,
                "insert_slot: duplicate triple would break canonicity"
            );
            i = (i + 1) & self.bucket_mask;
        }
        self.buckets[i] = idx;
        self.occupied += 1;
        if self.occupied * 4 >= self.buckets.len() * 3 {
            self.grow_buckets_to(self.buckets.len() * 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mk_hash_conses_and_lists_creation() {
        let mut m = Manager::with_capacity(16, 8);
        let a = m.mk(Var(1), Ref::ZERO, Ref::ONE);
        assert_eq!(m.mk(Var(1), Ref::ZERO, Ref::ONE), a, "second mk is a get");
        // A complemented 1-edge is normalized onto the returned edge.
        let f = m.mk(Var(0), a, !a);
        assert!(f.is_complemented());
        assert_eq!(m.mk(Var(0), !a, a), !f);
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.live_nodes(), 3);
        assert_eq!(m.var_nodes[1], vec![a.node().0]);
        assert_eq!(m.var_nodes[0], vec![f.node().0]);
        assert_eq!(m.int_refs[a.node().index()], 2, "both edges of f");
    }
}
