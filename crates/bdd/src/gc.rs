//! The dead-node collector: exact interior (arena-edge) reference
//! counts paired with the callers' external claims
//! ([`Manager::protect`] / [`Manager::release`]).
//!
//! A node with both counts at zero is dead by definition, so
//! [`Manager::collect`] reclaims without a mark phase: zero-count nodes
//! seed a cascade through their children. [`Manager::maybe_collect`] is
//! the threshold-gated form flows call at every quiescent point
//! ([`GcConfig`]); it measures the dead fraction with a mark pass before
//! sweeping. Either way the sweep poisons the dead slots onto the free
//! list in ascending slot order, rebuilds the per-variable slot lists and
//! the unique table (shrinking it when sparse), and scrubs exactly the
//! computed-cache entries naming a reclaimed slot.
//!
//! The level swaps of [`crate::reorder`] keep the interior counts exact
//! through [`Manager::inc_child`] / [`Manager::dec_child`]; sifting's
//! swaps also reclaim eagerly through the same cascade, so swap garbage
//! never exists during a sift pass.

use crate::manager::Manager;
use crate::reference::Ref;
use crate::store::{FREE_VAR, MIN_BUCKETS};

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

impl Manager {
    /// Adds one interior reference to `c`'s node (edges to the terminal
    /// are not tracked — it is unconditionally live).
    #[inline(always)]
    pub(crate) fn inc_child(&mut self, c: Ref) {
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
    pub(crate) fn dec_child(&mut self, c: Ref, reclaim: bool) {
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
        // the next `mk` takes the highest one, whatever order `dead` was
        // found in.
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
        self.collections += 1;
        self.reclaimed_total += dead.len() as u64;
        dead.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Var;

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
        // does the arena grow.
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
}
