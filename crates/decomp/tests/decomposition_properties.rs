//! Property-based tests of the decomposition kernels: every step found on
//! a random function must recompose to the original, and the balanced XOR
//! split must satisfy its defining equation.

use bdd::{Manager, Ref};
use decomp::{find_decomposition, xor_decompose_balanced, Decomposition};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_found_decomposition_recomposes(e in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = to_bdd(&e, &mut m);
        prop_assume!(!f.is_const());
        let d = find_decomposition(&mut m, f);
        let back = recompose(&mut m, &d);
        prop_assert_eq!(back, f, "decomposition {:?} of {:?} is invalid", d, f);
    }

    #[test]
    fn non_mux_decompositions_shrink_both_parts(e in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = to_bdd(&e, &mut m);
        prop_assume!(!f.is_const());
        let fsize = m.size(f);
        let d = find_decomposition(&mut m, f);
        if !matches!(d, Decomposition::Mux { .. }) {
            let (g, divisor) = d.parts();
            prop_assert!(m.size(g) < fsize, "residual must shrink");
            prop_assert!(m.size(divisor) < fsize, "divisor must shrink");
        }
    }

    #[test]
    fn xor_split_satisfies_defining_equation(e in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let fx = to_bdd(&e, &mut m);
        let (mp, kp) = xor_decompose_balanced(&mut m, fx);
        let back = m.xor(mp, kp);
        prop_assert_eq!(back, fx, "M ⊕ K must equal Fx");
    }

    #[test]
    fn mux_fallback_always_valid(e in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = to_bdd(&e, &mut m);
        prop_assume!(!f.is_const());
        let d = decomp::mux_fallback(&mut m, f);
        let back = recompose(&mut m, &d);
        prop_assert_eq!(back, f);
    }
}
