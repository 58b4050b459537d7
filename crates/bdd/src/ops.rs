//! The if-then-else operator, the specialized AND/XOR kernels, and the
//! Boolean connectives derived from them.
//!
//! The classical package funnels every connective through a single
//! memoized ITE (Brace, Rudell, Bryant, DAC'90). Here the two dominant
//! connectives get their own recursive kernels — [`Manager::and`] and
//! [`Manager::xor`] — which skip the full standard-triple normalization,
//! carry tighter terminal tests, and share the set-associative computed
//! cache with ITE through per-operation tag codes (`op::AND`, `op::XOR`,
//! `op::ITE`). ITE itself detects the two-operand shapes up front and
//! forwards to the specialized kernels, so the cache is never split
//! between equivalent formulations of one operation.
//!
//! Every recursion here is a [`Manager`] method: it ticks the budget
//! (`self.tick()?`), probes and fills `self.cache`, and creates nodes
//! with `self.mk`. The public entry points below call the recursions
//! directly.
//!
//! All recursions branch on *levels* (positions in the current variable
//! order, via [`Manager::level`]), not raw variable indices, so they stay
//! correct under any order the reordering machinery installs; constants
//! report the `u32::MAX` pseudo-level and need no separate terminal
//! branch when picking the top level.
//!
//! # Fallible entry points
//!
//! The recursions are written once, in the fallible form. A
//! budget-governed entry is named `try_*` and returns
//! `Result<Ref, LimitExceeded>`; an infallible entry (`ite`, `and`, ...)
//! runs the same recursion with the manager's resource budget suspended
//! ([`Manager::ungoverned`]), so it can never abort. A connective has a
//! `try_*` form where the governed flow calls one (the n-ary
//! conjunction and disjunction have only that form). A `try_*` abort is
//! clean by construction: all invariant maintenance (the unique table)
//! happens inside one [`Manager::mk`] call, so unwinding between `mk`
//! calls leaves the manager fully consistent and the partially built
//! nodes in the arena until the next [`Manager::clear`] (see
//! [`crate::LimitExceeded`]).
//!
//! Nodes carry no reference counts and nothing is reclaimed between
//! clears, so a result stays valid until the caller clears the manager.

use crate::manager::Manager;
use crate::reference::Ref;
use crate::session::{op, LimitExceeded};

impl Manager {
    /// ITE entry: terminal/absorption filtering and two-operand routing,
    /// then the memoized three-operand recursion.
    fn ite_ap(&mut self, f: Ref, g: Ref, h: Ref) -> Result<Ref, LimitExceeded> {
        // Terminal and absorption cases.
        if f.is_one() {
            return Ok(g);
        }
        if f.is_zero() {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        let (mut g, mut h) = (g, h);
        // ite(f, f, h) = ite(f, 1, h); ite(f, !f, h) = ite(f, 0, h);
        // ite(f, g, f) = ite(f, g, 0); ite(f, g, !f) = ite(f, g, 1).
        if g == f {
            g = Ref::ONE;
        } else if g == !f {
            g = Ref::ZERO;
        }
        if h == f {
            h = Ref::ZERO;
        } else if h == !f {
            h = Ref::ONE;
        }
        // Two-operand shapes route to the specialized kernels (which own
        // their terminal cases and cache tags).
        if g.is_one() {
            if h.is_zero() {
                return Ok(f);
            }
            return self.or_ap(f, h); // ite(f, 1, h) = f + h
        }
        if g.is_zero() {
            if h.is_one() {
                return Ok(!f);
            }
            let nf = !f;
            return self.and_rec(nf, h); // ite(f, 0, h) = f'·h
        }
        if h.is_zero() {
            return self.and_rec(f, g); // ite(f, g, 0) = f·g
        }
        if h.is_one() {
            let ng = !g;
            return Ok(!self.and_rec(f, ng)?); // ite(f, g, 1) = f' + g
        }
        if g == !h {
            return Ok(!self.xor_ap(f, g)?); // ite(f, g, g') = f ⊙ g
        }
        self.ite_rec(f, g, h)
    }

    /// The memoized three-operand ITE recursion (all two-operand shapes
    /// already filtered out by [`Manager::ite_ap`]).
    fn ite_rec(&mut self, f: Ref, g: Ref, h: Ref) -> Result<Ref, LimitExceeded> {
        self.tick()?;
        let (mut f, mut g, mut h) = (f, g, h);
        // Keep the predicate regular: ite(!f, g, h) = ite(f, h, g).
        if f.is_complemented() {
            f = !f;
            std::mem::swap(&mut g, &mut h);
        }
        // Keep the then-branch regular so cached entries are canonical:
        // ite(f, g, h) = !ite(f, !g, !h).
        let complement_result = g.is_complemented();
        if complement_result {
            g = !g;
            h = !h;
        }

        if let Some(r) = self.cache.lookup(op::ITE, f.raw(), g.raw(), h.raw()) {
            return Ok(r.xor_complement(complement_result));
        }

        let v = self.var_at_level(self.level(f).min(self.level(g)).min(self.level(h)));
        let (f0, f1) = self.shallow_cofactors(f, v);
        let (g0, g1) = self.shallow_cofactors(g, v);
        let (h0, h1) = self.shallow_cofactors(h, v);
        let t = self.ite_ap(f1, g1, h1)?;
        let e = self.ite_ap(f0, g0, h0)?;
        let r = self.mk(v, e, t);
        self.cache.insert(op::ITE, f.raw(), g.raw(), h.raw(), r);
        Ok(r.xor_complement(complement_result))
    }

    /// The specialized AND kernel: terminal tests, operand ordering, the
    /// memoized recursion.
    fn and_rec(&mut self, f: Ref, g: Ref) -> Result<Ref, LimitExceeded> {
        // Terminal cases.
        if f == g {
            return Ok(f);
        }
        if f == !g || f.is_zero() || g.is_zero() {
            return Ok(Ref::ZERO);
        }
        if f.is_one() {
            return Ok(g);
        }
        if g.is_one() {
            return Ok(f);
        }
        self.tick()?;
        // Commutative: order operands so (f, g) and (g, f) share a slot.
        let (f, g) = if f.raw() <= g.raw() { (f, g) } else { (g, f) };
        if let Some(r) = self.cache.lookup(op::AND, f.raw(), g.raw(), 0) {
            return Ok(r);
        }
        let v = self.var_at_level(self.level(f).min(self.level(g)));
        let (f0, f1) = self.shallow_cofactors(f, v);
        let (g0, g1) = self.shallow_cofactors(g, v);
        let t = self.and_rec(f1, g1)?;
        let e = self.and_rec(f0, g0)?;
        let r = self.mk(v, e, t);
        self.cache.insert(op::AND, f.raw(), g.raw(), 0, r);
        Ok(r)
    }

    /// Disjunction by De Morgan over the AND kernel (negation is free,
    /// so this shares the `op::AND` cache).
    pub(crate) fn or_ap(&mut self, f: Ref, g: Ref) -> Result<Ref, LimitExceeded> {
        let (nf, ng) = (!f, !g);
        Ok(!self.and_rec(nf, ng)?)
    }

    /// XOR entry: complements factor out of XOR entirely
    /// (`!f ⊕ g = !(f ⊕ g)`), so the recursion runs on regular,
    /// operand-ordered references and one cache entry covers all four
    /// polarity combinations.
    fn xor_ap(&mut self, f: Ref, g: Ref) -> Result<Ref, LimitExceeded> {
        if f == g {
            return Ok(Ref::ZERO);
        }
        if f == !g {
            return Ok(Ref::ONE);
        }
        // Factor the complements out and order the operands. (Equal
        // regular parts are impossible here: that is exactly the f == g /
        // f == !g pair already handled above.)
        let complement_result = f.is_complemented() ^ g.is_complemented();
        let (mut f, mut g) = (f.regular(), g.regular());
        debug_assert_ne!(f, g);
        if f.raw() > g.raw() {
            std::mem::swap(&mut f, &mut g);
        }
        // After ordering, a constant operand can only be f (= ONE regular).
        if f.is_one() {
            return Ok((!g).xor_complement(complement_result));
        }
        let r = self.xor_rec(f, g)?;
        Ok(r.xor_complement(complement_result))
    }

    /// XOR recursion on regular, ordered, non-constant operands.
    fn xor_rec(&mut self, f: Ref, g: Ref) -> Result<Ref, LimitExceeded> {
        debug_assert!(!f.is_complemented() && !g.is_complemented());
        debug_assert!(f.raw() < g.raw() && !f.is_const());
        self.tick()?;
        if let Some(r) = self.cache.lookup(op::XOR, f.raw(), g.raw(), 0) {
            return Ok(r);
        }
        let v = self.var_at_level(self.level(f).min(self.level(g)));
        let (f0, f1) = self.shallow_cofactors(f, v);
        let (g0, g1) = self.shallow_cofactors(g, v);
        let t = self.xor_ap(f1, g1)?;
        let e = self.xor_ap(f0, g0)?;
        let r = self.mk(v, e, t);
        self.cache.insert(op::XOR, f.raw(), g.raw(), 0, r);
        Ok(r)
    }

    /// If-then-else: `ite(f, g, h) = f·g + f'·h`.
    ///
    /// Two-operand shapes (`and`/`or`/`xor`/... patterns) are forwarded to
    /// the specialized kernels; the remaining true three-operand triples
    /// are normalized (regular, canonical predicate) and memoized under
    /// the `op::ITE` tag.
    ///
    /// # Example
    ///
    /// ```
    /// use bdd::Manager;
    /// let mut m = Manager::new();
    /// let (s, a, b) = (m.var(0), m.var(1), m.var(2));
    /// let mux = m.ite(s, a, b);
    /// assert!(m.eval(mux, &[true, true, false]));
    /// assert!(!m.eval(mux, &[false, true, false]));
    /// ```
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        self.ungoverned(|m| m.try_ite(f, g, h))
    }

    /// Budget-governed [`Manager::ite`]: aborts cleanly with
    /// [`LimitExceeded`] when the installed [`crate::ResourceLimits`] are
    /// crossed.
    pub fn try_ite(&mut self, f: Ref, g: Ref, h: Ref) -> Result<Ref, LimitExceeded> {
        self.ite_ap(f, g, h)
    }

    /// Logical negation (free on complemented-edge BDDs).
    pub fn not(&self, f: Ref) -> Ref {
        !f
    }

    /// Conjunction `f · g` — the specialized AND kernel.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ungoverned(|m| m.try_and(f, g))
    }

    /// Budget-governed [`Manager::and`].
    pub fn try_and(&mut self, f: Ref, g: Ref) -> Result<Ref, LimitExceeded> {
        self.and_rec(f, g)
    }

    /// Disjunction `f + g` (De Morgan over the AND kernel; negation is
    /// free, so this shares the `op::AND` cache).
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ungoverned(|m| m.try_or(f, g))
    }

    /// Budget-governed [`Manager::or`].
    pub fn try_or(&mut self, f: Ref, g: Ref) -> Result<Ref, LimitExceeded> {
        self.or_ap(f, g)
    }

    /// Negated conjunction.
    pub fn nand(&mut self, f: Ref, g: Ref) -> Ref {
        !self.and(f, g)
    }

    /// Negated disjunction.
    pub fn nor(&mut self, f: Ref, g: Ref) -> Ref {
        !self.or(f, g)
    }

    /// Exclusive or `f ⊕ g` — the specialized XOR kernel.
    ///
    /// Complements factor out of XOR entirely (`!f ⊕ g = !(f ⊕ g)`), so the
    /// recursion runs on regular, operand-ordered references and one cache
    /// entry covers all four polarity combinations.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        self.ungoverned(|m| m.try_xor(f, g))
    }

    /// Budget-governed [`Manager::xor`].
    pub fn try_xor(&mut self, f: Ref, g: Ref) -> Result<Ref, LimitExceeded> {
        self.xor_ap(f, g)
    }

    /// Exclusive nor (equivalence) `f ⊙ g`.
    pub fn xnor(&mut self, f: Ref, g: Ref) -> Ref {
        !self.xor(f, g)
    }

    /// Three-input majority `Maj(a, b, c) = ab + bc + ac`, the radix-3
    /// primitive at the heart of BDS-MAJ.
    pub fn maj(&mut self, a: Ref, b: Ref, c: Ref) -> Ref {
        self.ungoverned(|m| m.try_maj(a, b, c))
    }

    /// Budget-governed [`Manager::maj`].
    pub fn try_maj(&mut self, a: Ref, b: Ref, c: Ref) -> Result<Ref, LimitExceeded> {
        let bc_or = self.try_or(b, c)?;
        let bc_and = self.try_and(b, c)?;
        self.try_ite(a, bc_or, bc_and)
    }

    /// Budget-governed n-ary conjunction over an iterator of functions
    /// (`ONE` for an empty iterator).
    pub fn try_and_all<I: IntoIterator<Item = Ref>>(
        &mut self,
        fs: I,
    ) -> Result<Ref, LimitExceeded> {
        let mut acc = Ref::ONE;
        for f in fs {
            acc = self.try_and(acc, f)?;
        }
        Ok(acc)
    }

    /// Budget-governed n-ary disjunction over an iterator of functions
    /// (`ZERO` for an empty iterator).
    pub fn try_or_all<I: IntoIterator<Item = Ref>>(&mut self, fs: I) -> Result<Ref, LimitExceeded> {
        let mut acc = Ref::ZERO;
        for f in fs {
            acc = self.try_or(acc, f)?;
        }
        Ok(acc)
    }

    /// n-ary exclusive or over an iterator of functions.
    pub fn xor_all<I: IntoIterator<Item = Ref>>(&mut self, fs: I) -> Ref {
        self.ungoverned(|m| m.try_xor_all(fs))
    }

    /// Budget-governed [`Manager::xor_all`].
    pub fn try_xor_all<I: IntoIterator<Item = Ref>>(
        &mut self,
        fs: I,
    ) -> Result<Ref, LimitExceeded> {
        let mut acc = Ref::ZERO;
        for f in fs {
            acc = self.try_xor(acc, f)?;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{LimitKind, ResourceLimits};
    use crate::Manager;

    /// Exhaustively compares a BDD against a reference closure on all
    /// assignments of `n` variables.
    fn assert_equiv(m: &Manager, f: Ref, n: u32, reference: impl Fn(&[bool]) -> bool) {
        for bits in 0u32..(1 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(
                m.eval(f, &assignment),
                reference(&assignment),
                "mismatch at {assignment:?}"
            );
        }
    }

    #[test]
    fn two_operand_connectives_match_truth_tables() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        type BoolOp = fn(bool, bool) -> bool;
        let cases: Vec<(Ref, BoolOp)> = vec![
            (m.and(a, b), |x, y| x && y),
            (m.or(a, b), |x, y| x || y),
            (m.nand(a, b), |x, y| !(x && y)),
            (m.nor(a, b), |x, y| !(x || y)),
            (m.xor(a, b), |x, y| x ^ y),
            (m.xnor(a, b), |x, y| !(x ^ y)),
        ];
        for (f, reference) in cases {
            assert_equiv(&m, f, 2, |v| reference(v[0], v[1]));
        }
    }

    #[test]
    fn ite_is_shannon_expansion() {
        let mut m = Manager::new();
        let (f, g, h) = (m.var(0), m.var(1), m.var(2));
        let r = m.ite(f, g, h);
        assert_equiv(&m, r, 3, |v| if v[0] { v[1] } else { v[2] });
    }

    #[test]
    fn maj_matches_definition() {
        let mut m = Manager::new();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let f = m.maj(a, b, c);
        assert_equiv(&m, f, 3, |v| (v[0] as u8 + v[1] as u8 + v[2] as u8) >= 2);
    }

    #[test]
    fn demorgan_holds_structurally() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let lhs = m.nand(a, b);
        let rhs = m.or(!a, !b);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn xor_chain_is_parity() {
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..8).map(|i| m.var(i)).collect();
        let f = m.xor_all(vars);
        assert_equiv(&m, f, 8, |v| v.iter().filter(|&&b| b).count() % 2 == 1);
    }

    #[test]
    fn and_or_all_handle_empty_and_units() {
        let mut m = Manager::new();
        assert_eq!(m.try_and_all([]), Ok(Ref::ONE));
        assert_eq!(m.try_or_all([]), Ok(Ref::ZERO));
        let a = m.var(0);
        assert_eq!(m.try_and_all([a]), Ok(a));
        assert_eq!(m.try_or_all([a]), Ok(a));
    }

    #[test]
    fn parity_bdd_is_linear_in_variables() {
        // The classic ROBDD result: parity has a linear-size BDD.
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..16).map(|i| m.var(i)).collect();
        let f = m.xor_all(vars);
        assert_eq!(m.size(f), 16);
    }

    #[test]
    fn ite_caching_returns_identical_refs() {
        let mut m = Manager::new();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let r1 = m.ite(a, b, c);
        let r2 = m.ite(a, b, c);
        assert_eq!(r1, r2);
        let r3 = m.ite(!a, c, b); // normalized form of the same function
        assert_eq!(r1, r3);
    }

    #[test]
    fn specialized_kernels_agree_with_raw_ite_recursion() {
        // Every two-operand shape of ITE must give the same Ref as the
        // specialized kernel (canonicity makes this a pointer compare).
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..6).map(|i| m.var(i)).collect();
        let mut funcs = vars.clone();
        for w in vars.windows(2) {
            funcs.push(m.and(w[0], w[1]));
            funcs.push(m.xor(w[0], w[1]));
        }
        let snapshot = funcs.clone();
        for &f in &snapshot {
            for &g in &snapshot {
                let and1 = m.and(f, g);
                let and2 = m.ite(f, g, Ref::ZERO);
                assert_eq!(and1, and2, "and vs ite(f,g,0)");
                let or1 = m.or(f, g);
                let or2 = m.ite(f, Ref::ONE, g);
                assert_eq!(or1, or2, "or vs ite(f,1,g)");
                let xor1 = m.xor(f, g);
                let xor2 = m.ite(f, !g, g);
                assert_eq!(xor1, xor2, "xor vs ite(f,!g,g)");
            }
        }
    }

    #[test]
    fn xor_polarity_combinations_share_results() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f = m.and(a, b);
        let g = m.or(b, c);
        let base = m.xor(f, g);
        let nn = m.xor(!f, !g);
        assert_eq!(base, nn, "double complement cancels");
        let fg = m.xor(!f, g);
        let gf = m.xor(f, !g);
        assert_eq!(fg, !base);
        assert_eq!(gf, !base);
        assert_eq!(m.xor(g, f), base, "commutativity");
    }

    #[test]
    fn try_kernels_match_infallible_without_limits() {
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..6).map(|i| m.var(i)).collect();
        let x01 = m.xor(vars[0], vars[1]);
        let a23 = m.and(vars[2], vars[3]);
        for (f, g) in [(x01, a23), (vars[4], x01), (a23, vars[5])] {
            let and = m.and(f, g);
            assert_eq!(m.try_and(f, g), Ok(and));
            let xor = m.xor(f, g);
            assert_eq!(m.try_xor(f, g), Ok(xor));
            let ite = m.ite(f, g, vars[5]);
            assert_eq!(m.try_ite(f, g, vars[5]), Ok(ite));
        }
    }

    #[test]
    fn step_limit_aborts_a_large_conjunction() {
        let mut m = Manager::new();
        // A function pair with a non-trivial AND recursion.
        let xs: Vec<Ref> = (0..14).map(|i| m.var(i)).collect();
        let f = m.xor_all(xs.iter().copied().step_by(2));
        let g = m.xor_all(xs.iter().copied().skip(1).step_by(2));
        m.set_limits(ResourceLimits {
            max_steps: Some(3),
            ..Default::default()
        });
        let e = m.try_and(f, g).expect_err("3 steps cannot finish");
        assert_eq!(e.kind, LimitKind::Steps);
        // The infallible wrapper ignores the installed budget entirely.
        let full = m.and(f, g);
        m.clear_limits();
        assert_eq!(m.try_and(f, g), Ok(full));
        if cfg!(debug_assertions) {
            m.verify_arena();
        }
    }

    #[test]
    fn node_limit_aborts_and_manager_recovers() {
        let mut m = Manager::new();
        let xs: Vec<Ref> = (0..12).map(|i| m.var(i)).collect();
        let f = m.xor_all(xs.iter().copied().step_by(2));
        let g = m.xor_all(xs.iter().copied().skip(1).step_by(2));
        let live = m.live_nodes();
        m.set_limits(ResourceLimits {
            max_live_nodes: Some(live + 2),
            ..Default::default()
        });
        let e = m.try_xor(f, g).expect_err("2 extra nodes cannot suffice");
        assert_eq!(e.kind, LimitKind::Nodes);
        m.clear_limits();
        // The aborted nodes stay in a consistent arena; re-run unbudgeted:
        // the result must be canonical and correct.
        if cfg!(debug_assertions) {
            m.verify_arena();
        }
        let r = m.xor(f, g);
        let vars_again: Vec<Ref> = (0..12).map(|i| m.var(i)).collect();
        let all = m.xor_all(vars_again);
        assert_eq!(r, all, "xor of the two halves is the full parity");
    }

    #[test]
    fn deadline_in_the_past_aborts() {
        let mut m = Manager::new();
        let xs: Vec<Ref> = (0..18).map(|i| m.var(i)).collect();
        let f = m.xor_all(xs.iter().copied().step_by(2));
        let g = m.xor_all(xs.iter().copied().skip(1).step_by(2));
        m.set_limits(ResourceLimits {
            deadline: Some(std::time::Instant::now() - std::time::Duration::from_millis(1)),
            ..Default::default()
        });
        // The clock is sampled every 256 steps, so the op needs enough
        // work to reach a sample point; parity AND recursions do.
        let r = m.try_and(f, g);
        if let Err(e) = r {
            assert_eq!(e.kind, LimitKind::Deadline);
        }
        m.clear_limits();
    }
}
