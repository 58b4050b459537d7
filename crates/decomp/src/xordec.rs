//! Balanced XOR decomposition: split a function `fx` into `(M, K)` with
//! `fx = M ⊕ K`, preferring splits whose two halves have similar BDD size.
//!
//! This is the BDS core technique reused by the majority-balancing step of
//! BDS-MAJ (§III-D): given `fx = X ⊕ Y`, a balanced `(M, K)` pair rewrites
//! the couple `(X, Y)` into smaller functions.

use crate::dominators::{MAX_BDD_SIZE, MAX_CANDIDATES};
use bdd::{Manager, Ref};

/// Splits `fx` into `(m_part, k_part)` with `fx = m_part ⊕ k_part`.
///
/// Each x-dominator `d` of `fx` gives the split `fx = f_d ⊙ F1 =
/// ¬F1 ⊕ f_d` with `F1 = fx[d:=1]`. The x-dominators are found
/// structurally, as the nodes on every root-to-terminal path
/// ([`Manager::x_dominators`]); when there is none, or `fx` has more than
/// `MAX_BDD_SIZE` nodes, the result is the trivial `(fx, 0)`. Otherwise
/// the candidates are walked highest in-degree first (DFS order on ties,
/// at most `MAX_CANDIDATES`), `F1` is rebuilt for the x-dominators among
/// them, and the split minimizing `max(|M|, |K|)` wins if it scores below
/// `|fx|`, the trivial split's score.
///
/// Debug builds walk the candidates even when no x-dominator exists and
/// check every structural verdict against the functional test
/// `fx[d:=0] == ¬fx[d:=1]`, run in a [`Manager::copy_to_fresh`] copy so
/// that it adds no node to `m`.
pub fn xor_decompose_balanced(m: &mut Manager, fx: Ref) -> (Ref, Ref) {
    let trivial = (fx, Ref::ZERO);
    let fsize = m.size(fx);
    if fsize > MAX_BDD_SIZE {
        return trivial;
    }
    let mut dominators = m.x_dominators(fx);
    if dominators.is_empty() && !cfg!(debug_assertions) {
        return trivial;
    }
    dominators.sort_unstable();
    let mut candidates = m.node_stats(fx).into_pairs();
    candidates.sort_by_key(|&(_, deg)| std::cmp::Reverse(deg.total()));
    candidates.truncate(MAX_CANDIDATES);
    let mut best = trivial;
    let mut best_score = fsize; // the trivial split scores |fx|
    for (id, _) in candidates {
        if id == fx.node() {
            continue;
        }
        let is_dominator = dominators.binary_search(&id).is_ok();
        #[cfg(debug_assertions)]
        {
            let (mut copy, r) = m.copy_to_fresh(&[fx, m.function_of(id)]);
            let f1 = copy.replace_node_with_const(r[0], r[1].node(), true);
            let f0 = copy.replace_node_with_const(r[0], r[1].node(), false);
            assert_eq!(
                is_dominator,
                f0 == !f1,
                "structural and functional x-dominator tests disagree on {id:?} in {fx:?}"
            );
        }
        if !is_dominator {
            continue;
        }
        // fx = f_d ⊙ F1 = f_d ⊕ F1'.
        let f1 = m.replace_node_with_const(fx, id, true);
        let k = m.function_of(id);
        let m_part = !f1;
        let score = m.size(k).max(m.size(m_part));
        if score < best_score {
            best_score = score;
            best = (m_part, k);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_recomposes() {
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..6).map(|i| m.var(i)).collect();
        let a01 = m.and(vars[0], vars[1]);
        let a23 = m.and(vars[2], vars[3]);
        let x45 = m.xor(vars[4], vars[5]);
        let part = m.xor(a01, a23);
        let fx = m.xor(part, x45);
        let (mp, kp) = xor_decompose_balanced(&mut m, fx);
        let back = m.xor(mp, kp);
        assert_eq!(back, fx);
    }

    #[test]
    fn parity_splits_nontrivially() {
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..8).map(|i| m.var(i)).collect();
        let fx = m.xor_all(vars);
        let (mp, kp) = xor_decompose_balanced(&mut m, fx);
        assert!(!kp.is_zero(), "parity must split");
        let back = m.xor(mp, kp);
        assert_eq!(back, fx);
        // Balance: both halves well below the original 8 nodes.
        assert!(m.size(mp).max(m.size(kp)) < m.size(fx));
    }

    #[test]
    fn b_xor_c_splits_into_literals() {
        // The paper's running example: (b+c) ⊕ (bc) = b ⊕ c, which the
        // XOR decomposition must split into the two literals.
        let mut m = Manager::new();
        let b = m.var(1);
        let c = m.var(2);
        let or = m.or(b, c);
        let and = m.and(b, c);
        let fx = m.xor(or, and);
        let expected = m.xor(b, c);
        assert_eq!(fx, expected, "sanity: (b+c)⊕(bc) = b⊕c");
        let (mp, kp) = xor_decompose_balanced(&mut m, fx);
        let back = m.xor(mp, kp);
        assert_eq!(back, fx);
        assert_eq!(m.size(mp), 1, "one literal per side");
        assert_eq!(m.size(kp), 1, "one literal per side");
    }

    #[test]
    fn constant_and_literal_are_trivial() {
        let mut m = Manager::new();
        let a = m.var(0);
        assert_eq!(
            xor_decompose_balanced(&mut m, Ref::ONE),
            (Ref::ONE, Ref::ZERO)
        );
        assert_eq!(xor_decompose_balanced(&mut m, a), (a, Ref::ZERO));
    }
}
