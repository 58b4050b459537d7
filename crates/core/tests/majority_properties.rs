//! Property-based tests of the majority decomposition (Algorithm 1):
//! every theorem of §III is checked on random functions.

use bdd::{Manager, Ref};
use bdsmaj::{
    balance_pass, construct_majority, find_m_dominators, maj_decompose, MajConfig, MajDecomposer,
};
use decomp::MajorityHook;
use proptest::prelude::*;

const NVARS: u32 = 7;

#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Maj(Box<Expr>, Box<Expr>, Box<Expr>),
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..NVARS).prop_map(Expr::Var);
    leaf.prop_recursive(6, 96, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Maj(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

fn to_bdd(e: &Expr, m: &mut Manager) -> Ref {
    match e {
        Expr::Var(i) => m.var(*i),
        Expr::Not(x) => !to_bdd(x, m),
        Expr::And(a, b) => {
            let (x, y) = (to_bdd(a, m), to_bdd(b, m));
            m.and(x, y)
        }
        Expr::Or(a, b) => {
            let (x, y) = (to_bdd(a, m), to_bdd(b, m));
            m.or(x, y)
        }
        Expr::Xor(a, b) => {
            let (x, y) = (to_bdd(a, m), to_bdd(b, m));
            m.xor(x, y)
        }
        Expr::Maj(a, b, c) => {
            let (x, y, z) = (to_bdd(a, m), to_bdd(b, m), to_bdd(c, m));
            m.maj(x, y, z)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Theorem 3.2 + 3.3: the construction is valid for *any* candidate
    /// Fa, not only m-dominators — here Fa is an arbitrary second random
    /// function.
    #[test]
    fn construction_is_valid_for_arbitrary_candidates(fe in arb_expr(), ae in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = to_bdd(&fe, &mut m);
        let fa = to_bdd(&ae, &mut m);
        let cand = construct_majority(&mut m, f, fa);
        let back = m.maj(cand.triple[0], cand.triple[1], cand.triple[2]);
        prop_assert_eq!(back, f, "Maj(Fa,Fb,Fc) must equal F");
    }

    /// Theorem 3.4: balancing passes preserve validity.
    #[test]
    fn balancing_preserves_validity(fe in arb_expr(), ae in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = to_bdd(&fe, &mut m);
        let fa = to_bdd(&ae, &mut m);
        let mut cand = construct_majority(&mut m, f, fa);
        for _ in 0..3 {
            balance_pass(&mut m, &mut cand);
            let back = m.maj(cand.triple[0], cand.triple[1], cand.triple[2]);
            prop_assert_eq!(back, f, "balancing broke the decomposition");
        }
    }

    /// Balancing never increases the total size.
    #[test]
    fn balancing_is_monotone(fe in arb_expr(), ae in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = to_bdd(&fe, &mut m);
        let fa = to_bdd(&ae, &mut m);
        let mut cand = construct_majority(&mut m, f, fa);
        let before = cand.total();
        balance_pass(&mut m, &mut cand);
        prop_assert!(cand.total() <= before, "balance accepted a regression");
    }

    /// The full algorithm, when it returns, returns a valid triple.
    #[test]
    fn maj_decompose_returns_valid_triples(fe in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = to_bdd(&fe, &mut m);
        if let Some(cand) = maj_decompose(&mut m, f, &MajConfig::default()) {
            let back = m.maj(cand.triple[0], cand.triple[1], cand.triple[2]);
            prop_assert_eq!(back, f);
        }
    }

    /// The engine-facing hook only accepts decompositions meeting the
    /// global sizing test (guaranteeing recursion progress).
    #[test]
    fn hook_results_respect_global_bound(fe in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = to_bdd(&fe, &mut m);
        let config = MajConfig::default();
        let mut hook = MajDecomposer::new(config);
        if let Some([fa, fb, fc]) = hook.try_majority(&mut m, f) {
            let fsize = m.size(f) as f64;
            for part in [fa, fb, fc] {
                prop_assert!(
                    config.global_k * m.size(part) as f64 <= fsize,
                    "hook accepted an oversized component"
                );
            }
            let back = m.maj(fa, fb, fc);
            prop_assert_eq!(back, f);
        }
    }

    /// m-dominators never include the root and never include simple
    /// dominators (condition (i)).
    #[test]
    fn m_dominators_exclude_simple_dominators(fe in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = to_bdd(&fe, &mut m);
        prop_assume!(!f.is_const());
        let doms = find_m_dominators(&mut m, f, &MajConfig::default());
        for d in doms {
            prop_assert_ne!(d, f.node(), "root is a trivial m-dominator");
            prop_assert!(
                decomp::classify_dominator(&mut m, f, d).is_none(),
                "condition (i) violated: node is a simple dominator"
            );
        }
    }
}
