//! The dead-node collector: exact interior (arena-edge) reference
//! counts paired with the callers' external claims
//! ([`Manager::protect`] / [`Manager::release`]).
//!
//! A node with both counts at zero is dead by definition, so the
//! collector never marks from the roots: [`Manager::collect`] seeds a
//! cascade with the zero-count nodes, and each reclaimed node drops its
//! children's counts. [`Manager::maybe_collect`] is the gated form flows
//! call at every quiescent point ([`GcConfig`]); once its gates pass it
//! runs `collect`. The sweep poisons the dead slots onto the free list
//! in ascending slot order, rebuilds the per-variable slot lists and the
//! unique table (shrinking it when sparse), and scrubs exactly the
//! computed-cache entries naming a reclaimed slot. In debug builds every
//! sweep is audited against a full recount and against the rooted size
//! ([`Manager::rooted_size`]).
//!
//! The level swaps of [`crate::reorder`] keep the interior counts exact
//! through [`Manager::inc_child`] / [`Manager::dec_child`]; the nodes a
//! swap displaces wait for the next collection like any other garbage.

use crate::manager::Manager;
use crate::reference::Ref;
use crate::store::{buckets_for, FREE_NODE, FREE_VAR};

/// Tuning knobs of the dead-node collector (see [`Manager::maybe_collect`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GcConfig {
    /// A [`Manager::maybe_collect`] call collects only once the nodes
    /// created since the last collection reach this fraction of the arena
    /// size, so repeated calls on a quiet manager cost O(1) and the
    /// amortized collection cost per created node stays constant.
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
            self.int_refs[i] += 1;
        }
    }

    /// Drops one interior reference to `c`'s node and returns its slot if
    /// that was the node's last reference, interior and external.
    #[inline(always)]
    pub(crate) fn dec_child(&mut self, c: Ref) -> Option<u32> {
        let i = c.node().index();
        if i == 0 {
            return None;
        }
        debug_assert!(
            self.int_refs[i] > 0,
            "interior refcount underflow at slot {i}"
        );
        self.int_refs[i] -= 1;
        (self.int_refs[i] == 0 && self.refs[i] == 0).then_some(i as u32)
    }

    /// Collects dead nodes now. Because the interior reference counts are
    /// exact, a node with `refs == 0 && int_refs == 0` is dead by
    /// definition, and reclaiming it cascades into any child whose last
    /// reference it held — in a DAG this reclaims exactly the nodes no
    /// protected root reaches (debug builds check the survivors against
    /// [`Manager::rooted_size`]). The cost is one arena scan plus
    /// O(dead), never a traversal of the live nodes. Sweeping rebuilds
    /// the unique table without the dead entries (shrinking it when the
    /// survivors would fit a table a quarter of the current size) and
    /// scrubs the computed-cache entries that name a reclaimed slot.
    /// Returns the number of reclaimed nodes.
    ///
    /// Every `Ref` the caller intends to keep using must be protected (or
    /// reachable from a protected one) — anything else dangles afterwards.
    pub fn collect(&mut self) -> usize {
        self.allocs_since_gc = 0;
        // Seed with every in-use node nothing references, then cascade:
        // each reclaimed node drops its children's counts, and a child
        // whose count reaches zero (with no external claim) joins the
        // dead set. Acyclicity guarantees this reaches every node no
        // protected root reaches.
        let mut stack: Vec<u32> = (1..self.nodes.len())
            .filter(|&i| {
                self.nodes[i].var.0 != FREE_VAR && self.refs[i] == 0 && self.int_refs[i] == 0
            })
            .map(|i| i as u32)
            .collect();
        let mut dead: Vec<u32> = Vec::new();
        while let Some(s) = stack.pop() {
            dead.push(s);
            let n = self.nodes[s as usize];
            for c in [n.low, n.high] {
                stack.extend(self.dec_child(c));
            }
        }
        if dead.is_empty() {
            return 0;
        }
        let reclaimed = self.sweep_dead(&dead);
        #[cfg(debug_assertions)]
        {
            self.verify_interior_refs();
            debug_assert_eq!(
                self.rooted_size(),
                self.live_nodes() - 1,
                "refcount collect and root reachability disagree"
            );
        }
        reclaimed
    }

    /// Number of internal nodes reachable from the externally protected
    /// roots — the reachability oracle the collector's debug audit checks
    /// every sweep against. Unprotected garbage (dead intermediates
    /// awaiting collection) is excluded.
    pub fn rooted_size(&self) -> usize {
        let mut seen = self.visited.borrow_mut();
        seen.begin(self.nodes.len());
        let mut stack: Vec<u32> = Vec::new();
        for (i, &rc) in self.refs.iter().enumerate().skip(1) {
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
            let n = self.nodes[i as usize];
            if !n.low.node().is_terminal() {
                stack.push(n.low.node().0);
            }
            if !n.high.node().is_terminal() {
                stack.push(n.high.node().0);
            }
        }
        count
    }

    /// Collects only when worthwhile: a no-op while fewer than
    /// [`GcConfig::min_nodes`] nodes are in use, or until the allocations
    /// since the last collection reach [`GcConfig::dead_fraction`] of the
    /// arena (so calling this in a tight flow loop is cheap); then a
    /// [`Manager::collect`]. Returns the number of reclaimed nodes.
    pub fn maybe_collect(&mut self) -> usize {
        if self.live_nodes() - 1 < self.gc.min_nodes {
            return 0;
        }
        // Gate on allocations relative to the arena *capacity*, not the
        // in-use count: a collection costs O(arena), so requiring a
        // proportional amount of fresh allocation first keeps the
        // amortized overhead per created node constant even under extreme
        // churn.
        if (self.allocs_since_gc as f64) < self.gc.dead_fraction * self.nodes.len() as f64 {
            return 0;
        }
        self.collect()
    }

    /// Finishes a collection whose cascade has already dropped the dead
    /// nodes' edges from the interior counts: poisons the `dead` slots,
    /// re-stacks the free list in ascending slot order, rebuilds the
    /// per-variable slot lists and the unique table from the survivors
    /// (shrink-on-sparse), and scrubs the computed cache.
    fn sweep_dead(&mut self, dead: &[u32]) -> usize {
        for &s in dead {
            self.nodes[s as usize] = FREE_NODE;
        }
        // One ascending arena scan re-stacks every free slot, old and new
        // (the next `mk` takes the highest one, whatever order `dead` was
        // found in), and rebuilds the per-variable slot lists, which may
        // have listed a poisoned slot anywhere.
        self.free.clear();
        for list in &mut self.var_nodes {
            list.clear();
        }
        for i in 1..self.nodes.len() {
            let v = self.nodes[i].var.0;
            if v == FREE_VAR {
                self.free.push(i as u32);
            } else {
                self.var_nodes[v as usize].push(i as u32);
            }
        }
        // The unique table still lists the dead nodes: rebuild it from the
        // survivors, shrinking when they'd fit a quarter-size table.
        let live = self.live_nodes() - 1;
        self.occupied = live;
        let wanted = buckets_for(live);
        let new_len = if wanted * 4 <= self.buckets.len() {
            wanted
        } else {
            self.buckets.len()
        };
        self.grow_buckets_to(new_len);
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
        let nodes = &self.nodes;
        self.cache.scrub(|w| {
            let idx = (w >> 1) as usize;
            idx >= nodes.len() || nodes[idx].var.0 != FREE_VAR
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
    use crate::store::MIN_BUCKETS;

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
            .filter(|&i| m.nodes[i].var.0 == FREE_VAR)
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
    fn maybe_collect_keeps_exactly_the_rooted_nodes() {
        // Protected roots sharing the subgraphs of `g` and `h`, plus dead
        // nodes: a chain, and parents above the roots whose edges point
        // straight into them, so the cascade must stop at protected and
        // shared nodes. This checks the swept set directly, because
        // `collect`'s own audit is compiled out of release builds.
        let mut m = Manager::new();
        m.set_gc_config(GcConfig {
            dead_fraction: 0.25,
            min_nodes: 0,
        });
        let v: Vec<Ref> = (0..7).map(|i| m.var(i)).collect();
        let g = m.maj(v[4], v[5], v[6]);
        let h = m.xor(v[5], v[6]);
        let x13 = m.xor(v[1], v[3]);
        let roots = [m.ite(v[1], g, h), m.ite(v[2], h, !g), m.and(x13, g)];
        for &r in &roots {
            m.protect(r);
        }
        let mut prev = Ref::ONE;
        for i in (0..7).rev() {
            prev = m.mk(Var(i), !prev, prev);
        }
        let _ = m.ite(v[0], roots[0], roots[1]);
        let _ = m.ite(v[0], roots[2], !roots[0]);
        let truth = |m: &Manager, f: Ref| -> u128 {
            (0..128u32).fold(0, |acc, row| {
                let assignment: Vec<bool> = (0..7).map(|i| row >> i & 1 == 1).collect();
                acc | (m.eval(f, &assignment) as u128) << row
            })
        };
        let before: Vec<u128> = roots.iter().map(|&r| truth(&m, r)).collect();
        assert!(m.maybe_collect() > 0, "the chain and the parents are dead");
        assert_eq!(m.rooted_size(), m.live_nodes() - 1);
        m.verify_interior_refs();
        let after: Vec<u128> = roots.iter().map(|&r| truth(&m, r)).collect();
        assert_eq!(after, before);
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
