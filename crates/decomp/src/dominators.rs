//! Dominator detection on BDDs.
//!
//! BDS drives decomposition with *dominator* nodes. For an internal node
//! `d` of the BDD of `f`, write `f = F(z)` with `z` the output of `d` (see
//! [`bdd::Manager::replace_node_with_const`]). Then with `F1 = F(1)` and
//! `F0 = F(0)`:
//!
//! * `F0 = 0`   ⇒ `f = F1 · f_d`   — (generalized) **1-dominator**, AND;
//! * `F1 = 1`   ⇒ `f = F0 + f_d`   — (generalized) **0-dominator**, OR;
//! * `F0 = F1'` ⇒ `f = F1 ⊙ f_d`   — **x-dominator**, XNOR.
//!
//! The x-dominator condition is structural. Every ROBDD path is
//! realizable, so with complement edges `F0 = F1'` holds exactly when `d`
//! lies on every root-to-terminal path: `d` is the only node of `f` at its
//! level, and no edge from a shallower level reaches deeper than it. This
//! is the x-dominator of Yang–Ciesielski. [`bdd::Manager::x_dominators`]
//! finds all of them in one pass without building a node, and the
//! balanced XOR split ([`crate::xor_decompose_balanced`]) tests with it.
//!
//! [`classify_dominator`] stays functional and builds both `F1` and `F0`
//! for every candidate: the 0-/1-dominator (AND/OR) conditions have no
//! structural test here, and besides the structural 0-/1-dominators of
//! Yang–Ciesielski they admit the "generalized dominators" that BDS uses
//! for non-disjoint decomposition.

use bdd::{LimitExceeded, Manager, NodeId, Ref, Var};

/// A two-operand decomposition step discovered on a BDD.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decomposition {
    /// `f = g · d`.
    And { g: Ref, d: Ref },
    /// `f = g + d`.
    Or { g: Ref, d: Ref },
    /// `f = g ⊙ d` (XNOR).
    Xnor { g: Ref, d: Ref },
    /// Shannon cofactoring on the top variable: `f = ite(var, hi, lo)`.
    Mux { var: Var, hi: Ref, lo: Ref },
}

impl Decomposition {
    /// The two sub-functions this step recurses into.
    pub fn parts(&self) -> (Ref, Ref) {
        match *self {
            Decomposition::And { g, d }
            | Decomposition::Or { g, d }
            | Decomposition::Xnor { g, d } => (g, d),
            Decomposition::Mux { hi, lo, .. } => (hi, lo),
        }
    }
}

/// Classifies node `d` of the DAG of `f` as a dominator, if it is one.
///
/// Returns the AND (1-dominator), OR (0-dominator) or XNOR (x-dominator)
/// decomposition it gives: the residual function `g` and the divisor `d`,
/// the node function, complemented when the dominator condition holds
/// for the complemented divisor (edges into `d` may carry the complement
/// attribute).
pub fn classify_dominator(m: &mut Manager, f: Ref, d: NodeId) -> Option<Decomposition> {
    m.ungoverned(|m| try_classify_dominator(m, f, d))
}

/// Budget-governed [`classify_dominator`]: aborts with [`LimitExceeded`]
/// when the manager's installed [`bdd::ResourceLimits`] are crossed.
pub fn try_classify_dominator(
    m: &mut Manager,
    f: Ref,
    d: NodeId,
) -> Result<Option<Decomposition>, LimitExceeded> {
    if d == f.node() {
        return Ok(None); // the root is always a trivial dominator
    }
    let fd = m.function_of(d);
    let f1 = m.try_replace_node_with_const(f, d, true)?;
    let f0 = m.try_replace_node_with_const(f, d, false)?;
    // f = F1·fd + F0·fd', so:
    Ok(if f0.is_zero() {
        Some(Decomposition::And { g: f1, d: fd })
    } else if f1.is_zero() {
        Some(Decomposition::And { g: f0, d: !fd })
    } else if f1.is_one() {
        Some(Decomposition::Or { g: f0, d: fd })
    } else if f0.is_one() {
        Some(Decomposition::Or { g: f1, d: !fd })
    } else if f0 == !f1 {
        Some(Decomposition::Xnor { g: f1, d: fd })
    } else {
        None
    })
}

/// The dominator search (and the balanced XOR split) skips BDDs with more
/// nodes than this.
pub(crate) const MAX_BDD_SIZE: usize = 4000;

/// The dominator search (and the balanced XOR split) considers at most
/// this many candidate nodes, highest fan-in first.
pub(crate) const MAX_CANDIDATES: usize = 128;

/// Finds the best simple/generalized dominator decomposition of `f`, or
/// falls back to top-variable cofactoring (MUX).
///
/// "Best" prefers the candidate whose larger part is smallest (balance),
/// and requires both parts to be strictly smaller than `f` so the
/// decomposition recursion always terminates. BDDs over `MAX_BDD_SIZE`
/// nodes go straight to the MUX.
pub fn find_decomposition(m: &mut Manager, f: Ref) -> Decomposition {
    m.ungoverned(|m| try_find_decomposition(m, f))
}

/// Budget-governed [`find_decomposition`].
pub fn try_find_decomposition(m: &mut Manager, f: Ref) -> Result<Decomposition, LimitExceeded> {
    let mux = try_mux_fallback(m, f)?;
    let fsize = m.size(f);
    if fsize <= 1 || fsize > MAX_BDD_SIZE {
        return Ok(mux);
    }
    let stats = m.node_stats(f);
    let mut candidates: Vec<NodeId> = stats.nodes().to_vec();
    // Highest fan-in nodes first: they are the most promising divisors and
    // the most likely shared subfunctions.
    candidates.sort_by_key(|&id| std::cmp::Reverse(stats.in_degree(id).total()));
    candidates.truncate(MAX_CANDIDATES);

    let mut best: Option<(usize, Decomposition)> = None;
    for id in candidates {
        let Some(decomp) = try_classify_dominator(m, f, id)? else {
            continue;
        };
        let (g, d) = decomp.parts();
        let (gs, ds) = (m.size(g), m.size(d));
        if gs >= fsize || ds >= fsize {
            continue; // no progress: reject to guarantee termination
        }
        let score = gs.max(ds);
        if best.as_ref().is_none_or(|(s, _)| score < *s) {
            best = Some((score, decomp));
        }
    }
    Ok(best.map(|(_, d)| d).unwrap_or(mux))
}

/// Shannon cofactoring on the top variable — the last-resort decomposition.
///
/// # Panics
///
/// Panics if `f` is constant (constants are handled before decomposition).
pub fn mux_fallback(m: &mut Manager, f: Ref) -> Decomposition {
    m.ungoverned(|m| try_mux_fallback(m, f))
}

/// Budget-governed [`mux_fallback`].
///
/// # Panics
///
/// Panics if `f` is constant, like the infallible form.
pub fn try_mux_fallback(m: &mut Manager, f: Ref) -> Result<Decomposition, LimitExceeded> {
    let var = m.top_var(f).expect("constant reached decomposition");
    let hi = m.try_cofactor(f, var, true)?;
    let lo = m.try_cofactor(f, var, false)?;
    Ok(Decomposition::Mux { var, hi, lo })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reconstructs `f` from a decomposition, for validity checks.
    fn recompose(m: &mut Manager, d: &Decomposition) -> Ref {
        match *d {
            Decomposition::And { g, d } => m.and(g, d),
            Decomposition::Or { g, d } => m.or(g, d),
            Decomposition::Xnor { g, d } => m.xnor(g, d),
            Decomposition::Mux { var, hi, lo } => {
                let v = m.var(var.0);
                m.ite(v, hi, lo)
            }
        }
    }

    #[test]
    fn and_dominator_found_on_conjunction() {
        let mut m = Manager::new();
        let (a, b, c, d) = (m.var(0), m.var(1), m.var(2), m.var(3));
        let left = m.or(a, b);
        let right = m.xor(c, d);
        let f = m.and(left, right);
        let found = find_decomposition(&mut m, f);
        assert!(
            matches!(found, Decomposition::And { .. }),
            "expected AND decomposition, got {found:?}"
        );
        let back = recompose(&mut m, &found);
        assert_eq!(back, f);
    }

    #[test]
    fn or_dominator_found_on_disjunction() {
        let mut m = Manager::new();
        let (a, b, c, d) = (m.var(0), m.var(1), m.var(2), m.var(3));
        let left = m.and(a, b);
        let right = m.and(c, d);
        let f = m.or(left, right);
        let found = find_decomposition(&mut m, f);
        let back = recompose(&mut m, &found);
        assert_eq!(back, f);
        assert!(
            matches!(found, Decomposition::Or { .. } | Decomposition::And { .. }),
            "disjunction should decompose without MUX, got {found:?}"
        );
    }

    #[test]
    fn xnor_dominator_found_on_parity() {
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..6).map(|i| m.var(i)).collect();
        let f = m.xor_all(vars);
        let found = find_decomposition(&mut m, f);
        assert!(
            matches!(found, Decomposition::Xnor { .. }),
            "parity must yield an x-dominator, got {found:?}"
        );
        let back = recompose(&mut m, &found);
        assert_eq!(back, f);
    }

    #[test]
    fn mux_fallback_on_majority() {
        // Maj(a,b,c) has no simple AND/OR/XNOR dominator with both parts
        // smaller — the engine must fall back to MUX (until the majority
        // hook of BDS-MAJ takes over).
        let mut m = Manager::new();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let f = m.maj(a, b, c);
        let found = find_decomposition(&mut m, f);
        let back = recompose(&mut m, &found);
        assert_eq!(back, f);
    }

    #[test]
    fn classify_rejects_root() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert_eq!(classify_dominator(&mut m, f, f.node()), None);
    }

    #[test]
    fn size_guard_skips_search() {
        // A 5000-node parity chain is over MAX_BDD_SIZE: its x-dominators
        // go unsearched and the MUX is returned.
        let mut m = Manager::new();
        let mut f = Ref::ONE;
        for v in (0..5000u32).rev() {
            f = m.mk(Var(v), !f, f);
        }
        assert!(m.size(f) > MAX_BDD_SIZE);
        let found = find_decomposition(&mut m, f);
        assert!(matches!(found, Decomposition::Mux { .. }));
    }

    #[test]
    fn every_decomposition_recomposes_on_random_functions() {
        let mut m = Manager::new();
        // A bank of structured functions exercising all branches.
        let vars: Vec<Ref> = (0..8).map(|i| m.var(i)).collect();
        let mut funcs = Vec::new();
        let x01 = m.xor(vars[0], vars[1]);
        let a23 = m.and(vars[2], vars[3]);
        funcs.push(m.or(x01, a23));
        let m567 = m.maj(vars[5], vars[6], vars[7]);
        funcs.push(m.and(x01, m567));
        let o45 = m.or(vars[4], vars[5]);
        let chain = m.xor(x01, o45);
        funcs.push(m.xnor(chain, vars[6]));
        for f in funcs {
            let found = find_decomposition(&mut m, f);
            let back = recompose(&mut m, &found);
            assert_eq!(back, f, "decomposition of {f:?} must recompose");
        }
    }
}
