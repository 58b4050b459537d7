//! The node store: the arena, the open-addressed unique table, the
//! interior and external reference counts, the variable order and the
//! per-variable slot lists — the node-owning half of the kernel (the
//! memo/budget half is [`crate::session::Session`]).
//!
//! The store has a single owner. Every mutation goes through `&mut
//! self`, and one function creates nodes: [`NodeStore::mk`] probes the
//! unique table and, on a miss, reuses the most recently freed slot or
//! appends one to the arena, inserts it, counts its two arena edges,
//! appends it to its variable's slot list and grows the table in place
//! once it is three quarters full. Nothing is ever logged for later
//! reconciliation, so the store is consistent between any two `mk`
//! calls — which is what makes a kernel abort clean.
//!
//! Slot allocation order is fixed: LIFO free-list pops first, then the
//! arena high-water mark; after a sweep, [`NodeStore::rebuild_free`]
//! re-stacks the free list in ascending slot order, so the highest freed
//! slot is reused first. It is not observable in a flow's output: no
//! decision above the kernel orders nodes by `NodeId` or keeps a
//! `Ref`-keyed memo across collections, so where a node lands (and hence
//! when the collector ran) cannot move a gate count.

use crate::reference::{NodeId, Ref, Var};

/// Sentinel variable index used by the terminal node; compares below every
/// real variable when ordered by *level depth* (larger index = deeper).
const TERMINAL_VAR: u32 = u32::MAX;

/// Sentinel variable index poisoning a reclaimed arena slot. A slot with
/// this variable is on the free list (or parked mid-rewrite by a level
/// swap): it is never reachable from a live [`Ref`], never listed in the
/// unique table, and is overwritten on reuse.
pub(crate) const FREE_VAR: u32 = u32::MAX - 1;

/// Smallest bucket array [`NodeStore::with_capacity`] will allocate.
pub(crate) const MIN_BUCKETS: usize = 1 << 8;

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
const FREE_NODE: Node = Node {
    var: Var(FREE_VAR),
    low: Ref::ONE,
    high: Ref::ONE,
};

/// The node store: arena, unique table, reference counts, variable order
/// and per-variable slot lists. See the module docs for the allocation
/// contract.
#[derive(Debug)]
pub(crate) struct NodeStore {
    /// The node arena; index 0 is the terminal. Its length is the arena
    /// high-water mark, and every per-slot vector below has that length.
    nodes: Vec<Node>,
    /// Interior reference count per arena slot: the number of *arena
    /// edges* into the slot. Maintained by `mk`, the level swap's slot
    /// patching and the sweeps; audited against a full recount in debug
    /// builds.
    int_refs: Vec<u32>,
    /// External reference count per arena slot (collection roots).
    pub(crate) refs: Vec<u32>,
    /// Position of each slot inside its `var_nodes[var]` list.
    pub(crate) var_pos: Vec<u32>,
    /// Reclaimed arena slots awaiting reuse (LIFO).
    free: Vec<u32>,
    /// Open-addressed unique table (bucket => node index, 0 = empty).
    buckets: Vec<u32>,
    bucket_mask: usize,
    occupied: usize,
    /// Nodes created since the last collection attempt (gates
    /// `maybe_collect`).
    allocs_since_gc: usize,
    num_vars: u32,
    /// Position of each variable in the decision order
    /// (`var2level[var] = level`; always a permutation of `0..num_vars`).
    pub(crate) var2level: Vec<u32>,
    /// Inverse of `var2level` (`level2var[level] = var`).
    pub(crate) level2var: Vec<u32>,
    /// Exact per-variable slot lists, appended to by `mk`.
    pub(crate) var_nodes: Vec<Vec<u32>>,
    var_names: Vec<Option<String>>,
}

impl NodeStore {
    /// A store pre-sized for `nodes` arena slots, containing only the
    /// terminal node.
    pub(crate) fn with_capacity(nodes: usize) -> NodeStore {
        let buckets = (nodes.max(8) * 4 / 3 + 1)
            .next_power_of_two()
            .max(MIN_BUCKETS);
        let mut store = NodeStore {
            nodes: Vec::new(),
            int_refs: Vec::new(),
            refs: Vec::new(),
            var_pos: Vec::new(),
            free: Vec::new(),
            buckets: vec![0; buckets],
            bucket_mask: buckets - 1,
            occupied: 0,
            allocs_since_gc: 0,
            num_vars: 0,
            var2level: Vec::new(),
            level2var: Vec::new(),
            var_nodes: Vec::new(),
            var_names: Vec::new(),
        };
        store.reserve_slots(nodes.max(16));
        store.push_slot(Node {
            var: Var(TERMINAL_VAR),
            low: Ref::ONE,
            high: Ref::ONE,
        });
        store
    }

    // ------------------------------------------------------------- sizes

    /// Current arena size in slots, including the terminal and reclaimed
    /// slots awaiting reuse.
    #[inline(always)]
    pub(crate) fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes (arena slots currently holding a node,
    /// including the terminal; excludes free slots).
    #[inline(always)]
    pub(crate) fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Reclaimed arena slots awaiting reuse.
    pub(crate) fn free_nodes(&self) -> usize {
        self.free.len()
    }

    /// Unique-table bucket count.
    pub(crate) fn buckets_len(&self) -> usize {
        self.buckets.len()
    }

    /// Nodes created since the last collection attempt.
    pub(crate) fn allocs_since_gc(&self) -> usize {
        self.allocs_since_gc
    }

    pub(crate) fn reset_allocs_since_gc(&mut self) {
        self.allocs_since_gc = 0;
    }

    // ------------------------------------------------------ order / vars

    /// Registers `index` (and any gap below it) in the order maps; new
    /// variables are appended at the deepest levels in index order.
    /// Kernels never introduce variables.
    pub(crate) fn ensure_var(&mut self, index: u32) {
        if index < self.num_vars {
            return;
        }
        self.num_vars = index + 1;
        while (self.var2level.len() as u32) < self.num_vars {
            let next = self.var2level.len() as u32;
            self.var2level.push(next);
            self.level2var.push(next);
            self.var_nodes.push(Vec::new());
        }
    }

    /// Number of variables known to the store.
    pub(crate) fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Level of a variable index; `u32::MAX` for the terminal/free
    /// sentinels and for variables the store has never seen.
    #[inline(always)]
    pub(crate) fn var_level(&self, var: u32) -> u32 {
        match self.var2level.get(var as usize) {
            Some(&l) => l,
            None => u32::MAX,
        }
    }

    /// The variable currently sitting at `level`.
    #[inline(always)]
    pub(crate) fn var_at_level(&self, level: u32) -> Var {
        Var(self.level2var[level as usize])
    }

    pub(crate) fn set_var_name(&mut self, index: u32, name: String) {
        let idx = index as usize;
        if self.var_names.len() <= idx {
            self.var_names.resize(idx + 1, None);
        }
        self.var_names[idx] = Some(name);
    }

    pub(crate) fn var_name(&self, index: u32) -> String {
        self.var_names
            .get(index as usize)
            .and_then(|n| n.clone())
            .unwrap_or_else(|| format!("x{index}"))
    }

    // ------------------------------------------------------ node reading

    /// Raw variable word of an arena slot (sentinels included).
    #[inline(always)]
    pub(crate) fn var_of(&self, i: usize) -> u32 {
        self.nodes[i].var.0
    }

    /// Snapshot of a stored node by arena slot.
    #[inline(always)]
    pub(crate) fn node(&self, i: usize) -> Node {
        self.nodes[i]
    }

    /// Level of an edge's top node in the current variable order:
    /// constants (and the poisoned/unregistered sentinels) report
    /// `u32::MAX`, the pseudo-level below every real one.
    #[inline(always)]
    pub(crate) fn level(&self, f: Ref) -> u32 {
        self.var_level(self.var_of(f.node().index()))
    }

    /// The decision variable of an edge's top node; `None` for constants.
    pub(crate) fn top_var(&self, f: Ref) -> Option<Var> {
        if f.is_const() {
            None
        } else {
            Some(Var(self.var_of(f.node().index())))
        }
    }

    /// Cofactors `f` with respect to variable `v` assumed to be at or
    /// above `f`'s top level: returns `(f|v=0, f|v=1)`. Comparing the
    /// stored top variable covers the constant case too (the terminal's
    /// sentinel never equals a real variable), so there is no separate
    /// terminal branch.
    #[inline(always)]
    pub(crate) fn shallow_cofactors(&self, f: Ref, v: Var) -> (Ref, Ref) {
        let n = self.node(f.node().index());
        if n.var != v {
            (f, f)
        } else {
            let c = f.is_complemented();
            (n.low.xor_complement(c), n.high.xor_complement(c))
        }
    }

    /// Interior reference count of a slot.
    #[inline(always)]
    pub(crate) fn int_ref(&self, i: usize) -> u32 {
        self.int_refs[i]
    }

    /// Mutable access to a slot's interior count.
    #[inline(always)]
    pub(crate) fn int_ref_mut(&mut self, i: usize) -> &mut u32 {
        &mut self.int_refs[i]
    }

    // ------------------------------------------------------ node creation

    /// Finds or creates the node `(var, low, high)`, applying the
    /// reduction rules (equal children collapse; a complemented 1-edge is
    /// pushed onto the 0-edge and the returned edge). The variable must
    /// already be registered ([`NodeStore::ensure_var`]).
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
    pub(crate) fn mk(&mut self, var: Var, low: Ref, high: Ref) -> Ref {
        if low == high {
            return low;
        }
        debug_assert!(
            self.var_level(var.0) < self.level(low) && self.var_level(var.0) < self.level(high),
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
                debug_assert_eq!(self.var_of(slot as usize), FREE_VAR);
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
        let list = &mut self.var_nodes[var.0 as usize];
        self.var_pos[idx as usize] = list.len() as u32;
        list.push(idx);
        self.allocs_since_gc += 1;
        self.occupied += 1;
        if self.occupied * 4 >= self.buckets.len() * 3 {
            self.grow_buckets_to(self.buckets.len() * 2);
        }
        Ref::new(NodeId(idx), complement)
    }

    /// Appends a slot holding `node` to the arena (with zeroed counts)
    /// and returns its index.
    fn push_slot(&mut self, node: Node) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        self.int_refs.push(0);
        self.refs.push(0);
        self.var_pos.push(0);
        idx
    }

    // ------------------------------------------------------- maintenance

    /// Reserves arena room for at least `nodes` slots in total.
    pub(crate) fn reserve_slots(&mut self, nodes: usize) {
        let extra = nodes.saturating_sub(self.nodes.len());
        self.nodes.reserve(extra);
        self.int_refs.reserve(extra);
        self.refs.reserve(extra);
        self.var_pos.reserve(extra);
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

    /// Overwrites a slot's node words (level swaps).
    pub(crate) fn set_node(&mut self, i: usize, n: Node) {
        self.nodes[i] = n;
    }

    /// Overwrites just a slot's variable word (the swap rewrite parks
    /// slots on `FREE_VAR` mid-flight).
    pub(crate) fn set_var_of(&mut self, i: usize, var: u32) {
        self.nodes[i].var = Var(var);
    }

    /// Poisons a reclaimed slot and pushes it onto the free stack, so it
    /// is the next slot `mk` reuses. The caller has already detached the
    /// slot from the table and lists.
    pub(crate) fn free_push(&mut self, slot: u32) {
        self.nodes[slot as usize] = FREE_NODE;
        self.free.push(slot);
    }

    /// Poisons a reclaimed slot without stacking it; a sweep poisons its
    /// whole dead set this way and then calls [`NodeStore::rebuild_free`].
    pub(crate) fn poison(&mut self, slot: u32) {
        self.nodes[slot as usize] = FREE_NODE;
    }

    /// Rebuilds the free stack from an ascending arena scan, so the
    /// highest free slot is reused first. Sweeps call this after
    /// poisoning; the resulting order fixes which slots the next nodes
    /// get.
    pub(crate) fn rebuild_free(&mut self) {
        self.free.clear();
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            if node.var.0 == FREE_VAR {
                self.free.push(i as u32);
            }
        }
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
            let nb = self.node(b as usize);
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
        let n = self.node(idx as usize);
        let mut i = (triple_hash(n.var.0, n.low.raw(), n.high.raw()) as usize) & self.bucket_mask;
        loop {
            let b = self.buckets[i];
            if b == 0 {
                break;
            }
            debug_assert!(
                self.node(b as usize) != n,
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

    /// Resets the occupancy count after a sweep rebuild (the survivors
    /// were counted by the rebuild itself).
    pub(crate) fn set_occupied(&mut self, n: usize) {
        self.occupied = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mk_hash_conses_and_lists_creation() {
        let mut store = NodeStore::with_capacity(16);
        store.ensure_var(0);
        store.ensure_var(1);
        let a = store.mk(Var(1), Ref::ZERO, Ref::ONE);
        assert_eq!(
            store.mk(Var(1), Ref::ZERO, Ref::ONE),
            a,
            "second mk is a get"
        );
        // A complemented 1-edge is normalized onto the returned edge.
        let f = store.mk(Var(0), a, !a);
        assert!(f.is_complemented());
        assert_eq!(store.mk(Var(0), !a, a), !f);
        assert_eq!(store.num_nodes(), 3);
        assert_eq!(store.live_nodes(), 3);
        assert_eq!(store.var_nodes[1], vec![a.node().0]);
        assert_eq!(store.var_nodes[0], vec![f.node().0]);
        assert_eq!(store.int_ref(a.node().index()), 2, "both edges of f");
    }
}
