//! Cofactoring, the Coudert–Madre `restrict` generalized cofactor, and
//! node-to-constant substitution.
//!
//! The BDS-MAJ paper cites two generalized-cofactor operators ([17],
//! [18]) for seeding the majority decomposition; the flow seeds with
//! `restrict`, which returns a function that agrees with `f` wherever the
//! care set `c` holds, while being (heuristically) smaller outside it.
//!
//! Like the connective kernels in [`crate::ops`], every recursion here is
//! a [`Manager`] method that ticks the budget, memoizes in the manager's
//! computed cache and creates nodes with `mk`.
//!
//! All recursions branch on *levels* (current order positions, via
//! [`Manager::level`]), never on raw variable indices, so they are
//! correct under any order installed by the reordering machinery;
//! constants report the `u32::MAX` pseudo-level, which subsumes the old
//! per-kernel terminal special cases.
//!
//! All recursions here memoize through the manager's computed cache
//! (tags `op::COFACTOR`, `op::RESTRICT`, `op::REPLACE`)
//! instead of allocating a fresh `HashMap` per call: results persist across
//! calls, repeated cofactors of the same function hit immediately, and a
//! lossy collision merely costs a re-computation. [`Manager::clear`]
//! empties the cache together with the arena, so no entry here can
//! outlive the nodes it names. Like every kernel, these recursions create
//! nodes only through [`Manager::mk`].
//!
//! Node-to-constant substitution ([`Manager::replace_node_with_const`],
//! the probe behind every functional dominator test) rebuilds only the
//! *ancestors* of the target: an edge whose level is at or below the
//! target's level cannot reach it (children sit strictly deeper), so it
//! is returned as is, without a step or a probe. The rebuild is memoized
//! under the keyed op `(node, target, value)` — a level swap changes
//! which nodes reach the target, so a swap that rewrites a node retires
//! the whole memo, restrict's included. Repeated dominator tests on one
//! function share the memo: the BDS dominator search and the m-dominator
//! scan (both through `classify_dominator`) substitute both constants
//! for every candidate node of `f`. The balanced XOR split
//! finds its x-dominators structurally ([`Manager::x_dominators`]) and
//! substitutes only `1`, only for those; debug builds also run both
//! substitutions on each of its candidates to check that verdict.

use crate::manager::Manager;
use crate::reference::{NodeId, Ref, Var};
use crate::session::{op, LimitExceeded};

impl Manager {
    /// The cofactor recursion `f|v=value`.
    fn cofactor_rec(&mut self, f: Ref, v: Var, value: bool) -> Result<Ref, LimitExceeded> {
        // One level comparison covers every identity case: constants (the
        // u32::MAX pseudo-level), functions entirely below `v` in the
        // order, and variables the manager has never seen.
        let vl = self.level_of_var(v);
        if vl == u32::MAX || self.level(f) > vl {
            return Ok(f);
        }
        self.tick()?;
        // Complements commute with cofactoring; recurse on the regular
        // reference so both polarities share one cache entry.
        if f.is_complemented() {
            return Ok(!self.cofactor_rec(!f, v, value)?);
        }
        let key_b = v.0 << 1 | value as u32;
        if let Some(r) = self.cache.lookup(op::COFACTOR, f.raw(), key_b, 0) {
            return Ok(r);
        }
        // bdslint: allow(panic-surface) -- constants returned at the level
        // guard above (their pseudo-level u32::MAX exceeds any real vl)
        let top = self.top_var(f).expect("non-constant here");
        let (f0, f1) = self.shallow_cofactors(f, top);
        let r = if top == v {
            if value {
                f1
            } else {
                f0
            }
        } else {
            let r0 = self.cofactor_rec(f0, v, value)?;
            let r1 = self.cofactor_rec(f1, v, value)?;
            self.mk(top, r0, r1)
        };
        self.cache.insert(op::COFACTOR, f.raw(), key_b, 0, r);
        Ok(r)
    }

    /// The Coudert–Madre *restrict* recursion (care set non-zero,
    /// enforced by the entry point).
    fn restrict_rec(&mut self, f: Ref, c: Ref) -> Result<Ref, LimitExceeded> {
        if c.is_one() || f.is_const() {
            return Ok(f);
        }
        self.tick()?;
        if let Some(r) = self.cache.lookup(op::RESTRICT, f.raw(), c.raw(), 0) {
            return Ok(r);
        }
        let fv = self.level(f);
        let cv = self.level(c);
        let r = if cv < fv {
            // The care-set top variable does not influence f here: remove it.
            let c_drop = {
                let cvar = self.var_at_level(cv);
                let (c0, c1) = self.shallow_cofactors(c, cvar);
                self.or_ap(c0, c1)?
            };
            self.restrict_rec(f, c_drop)?
        } else {
            let v = self.var_at_level(fv);
            let (f0, f1) = self.shallow_cofactors(f, v);
            let (c0, c1) = self.shallow_cofactors(c, v);
            if c0.is_zero() {
                self.restrict_rec(f1, c1)?
            } else if c1.is_zero() {
                self.restrict_rec(f0, c0)?
            } else {
                let r0 = self.restrict_rec(f0, c0)?;
                let r1 = self.restrict_rec(f1, c1)?;
                self.mk(v, r0, r1)
            }
        };
        self.cache.insert(op::RESTRICT, f.raw(), c.raw(), 0, r);
        Ok(r)
    }

    /// The ancestor-only rebuild behind node-to-constant substitution:
    /// rebuilds the part of `f` above `target` (at `target_level`) with
    /// the target replaced by the constant `value`, memoized under the
    /// keyed op `(node, target, value)`.
    fn replace_rec(
        &mut self,
        f: Ref,
        target: NodeId,
        target_level: u32,
        value: bool,
    ) -> Result<Ref, LimitExceeded> {
        let c = f.is_complemented();
        if f.node() == target {
            let rep = if value { Ref::ONE } else { Ref::ZERO };
            return Ok(rep.xor_complement(c));
        }
        // Constants report u32::MAX, so this also ends the recursion.
        if self.level(f) >= target_level {
            return Ok(f);
        }
        self.tick()?;
        let key_b = target.0;
        let key_c = value as u32;
        if let Some(r) = self
            .cache
            .lookup(op::REPLACE, f.regular().raw(), key_b, key_c)
        {
            return Ok(r.xor_complement(c));
        }
        let n = self.node(f.node());
        let low = self.replace_rec(n.low, target, target_level, value)?;
        let high = self.replace_rec(n.high, target, target_level, value)?;
        let r = self.mk(n.var, low, high);
        self.cache
            .insert(op::REPLACE, f.regular().raw(), key_b, key_c, r);
        Ok(r.xor_complement(c))
    }

    /// The cofactor `f|v=value`, for a variable anywhere in the order.
    pub fn cofactor(&mut self, f: Ref, v: Var, value: bool) -> Ref {
        self.ungoverned(|m| m.try_cofactor(f, v, value))
    }

    /// Budget-governed [`Manager::cofactor`].
    pub fn try_cofactor(&mut self, f: Ref, v: Var, value: bool) -> Result<Ref, LimitExceeded> {
        self.cofactor_rec(f, v, value)
    }

    /// The Coudert–Madre *restrict* generalized cofactor `f ⇓ c`.
    ///
    /// Guarantees `(f ⇓ c) · c = f · c`; outside the care set `c` the result
    /// is chosen to shrink the BDD (variables foreign to `f` are quantified
    /// out of `c` on the way down).
    ///
    /// # Panics
    ///
    /// Panics if `c` is the constant zero (the care set must be satisfiable).
    pub fn restrict(&mut self, f: Ref, c: Ref) -> Ref {
        assert!(!c.is_zero(), "restrict: empty care set");
        self.ungoverned(|m| m.restrict_rec(f, c))
    }

    /// Rebuilds the DAG of `f` with the internal node `target` replaced by
    /// the constant `value`.
    ///
    /// Writing `f = F(z)` for the function above `target` (with `z` standing
    /// for the node's output), this returns `F(value)` — the key primitive
    /// behind functional dominator checks: a node `d` is, e.g., a
    /// generalized 1-dominator iff `F(0) = 0`, so that `f = F(1) · f_d`.
    ///
    /// Only the ancestors of `target` are rebuilt: every edge at or below
    /// the target's level is shared with `f` unchanged. Results are
    /// memoized per `(node, target, value)` in the computed cache, so the
    /// second dominator test of the same `(f, target)` pair — or of any
    /// function sharing `f`'s upper nodes — is a probe, until a level swap
    /// that rewrites a node or a [`Manager::clear`] retires the entries.
    pub fn replace_node_with_const(&mut self, f: Ref, target: NodeId, value: bool) -> Ref {
        self.ungoverned(|m| m.try_replace_node_with_const(f, target, value))
    }

    /// Budget-governed [`Manager::replace_node_with_const`].
    pub fn try_replace_node_with_const(
        &mut self,
        f: Ref,
        target: NodeId,
        value: bool,
    ) -> Result<Ref, LimitExceeded> {
        // A target outside the arena gets no pruning (the rebuild then
        // returns `f` itself, as for any node `f` does not reach).
        let target_level = if target.index() < self.live_nodes() {
            self.level(self.function_of(target))
        } else {
            u32::MAX
        };
        self.replace_rec(f, target, target_level, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cofactor_matches_semantics() {
        let mut m = Manager::new();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let f = m.maj(a, b, c);
        let f_b1 = m.cofactor(f, Var(1), true);
        let expect = m.or(a, c);
        assert_eq!(f_b1, expect);
        let f_b0 = m.cofactor(f, Var(1), false);
        let expect0 = m.and(a, c);
        assert_eq!(f_b0, expect0);
    }

    #[test]
    fn cofactor_of_foreign_variable_is_identity() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        m.var(5);
        assert_eq!(m.cofactor(f, Var(5), true), f);
    }

    #[test]
    fn cofactor_of_complemented_edge_shares_cache() {
        let mut m = Manager::new();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let f = m.maj(a, b, c);
        let pos = m.cofactor(f, Var(1), true);
        let neg = m.cofactor(!f, Var(1), true);
        assert_eq!(neg, !pos);
    }

    #[test]
    fn restrict_with_full_care_set_is_identity() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        assert_eq!(m.restrict(f, Ref::ONE), f);
    }

    #[test]
    #[should_panic(expected = "empty care set")]
    fn restrict_rejects_empty_care_set() {
        let mut m = Manager::new();
        let a = m.var(0);
        m.restrict(a, Ref::ZERO);
    }

    #[test]
    fn replace_node_with_const_evaluates_above_function() {
        // f = Maj(a, b, c); replace the node computing "b or c" by constants.
        let mut m = Manager::new();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let f = m.maj(a, b, c);
        // The root node branches on a; its high child is or(b, c).
        let or_bc = m.or(b, c);
        let f1 = m.replace_node_with_const(f, or_bc.node(), true);
        let f0 = m.replace_node_with_const(f, or_bc.node(), false);
        // F(1) = a + bc, F(0) = a'·bc ... check semantically:
        // f = F(or(b,c)) must hold: f == ite(or_bc, f1, f0).
        let recomposed = m.ite(or_bc, f1, f0);
        assert_eq!(recomposed, f);
        assert_ne!(f1, f0);
    }

    #[test]
    fn replace_root_node_gives_constant() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let r = m.replace_node_with_const(f, f.node(), true);
        assert_eq!(r, Ref::ONE.xor_complement(f.is_complemented()));
    }

    #[test]
    fn repeated_replacements_stay_canonical_across_scopes() {
        // The memo persists across calls, keyed by target and value:
        // results must not leak between different targets or values.
        let mut m = Manager::new();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let f = m.maj(a, b, c);
        let or_bc = m.or(b, c);
        let and_bc = m.and(b, c);
        let r1 = m.replace_node_with_const(f, or_bc.node(), true);
        let r2 = m.replace_node_with_const(f, and_bc.node(), true);
        let r1_again = m.replace_node_with_const(f, or_bc.node(), true);
        assert_eq!(r1, r1_again);
        assert_ne!(r1, r2, "different targets give different functions");
    }
}
