//! Property-based tests for the BDD package: every algebraic law is checked
//! against randomly generated Boolean expressions, with the BDD compared to
//! a bit-parallel truth-vector oracle.

use bdd::{GcConfig, LimitKind, Manager, NodeId, Ref, Var};
use proptest::prelude::*;

/// A random Boolean expression over `NVARS` variables.
#[derive(Clone, Debug)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    Maj(Box<Expr>, Box<Expr>, Box<Expr>),
}

const NVARS: u32 = 6;

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (0..NVARS).prop_map(Expr::Var);
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| Expr::Ite(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
            (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Maj(
                Box::new(a),
                Box::new(b),
                Box::new(c)
            )),
        ]
    })
}

impl Expr {
    fn to_bdd(&self, m: &mut Manager) -> Ref {
        match self {
            Expr::Var(i) => m.var(*i),
            Expr::Not(e) => !e.to_bdd(m),
            Expr::And(a, b) => {
                let (x, y) = (a.to_bdd(m), b.to_bdd(m));
                m.and(x, y)
            }
            Expr::Or(a, b) => {
                let (x, y) = (a.to_bdd(m), b.to_bdd(m));
                m.or(x, y)
            }
            Expr::Xor(a, b) => {
                let (x, y) = (a.to_bdd(m), b.to_bdd(m));
                m.xor(x, y)
            }
            Expr::Ite(a, b, c) => {
                let (x, y, z) = (a.to_bdd(m), b.to_bdd(m), c.to_bdd(m));
                m.ite(x, y, z)
            }
            Expr::Maj(a, b, c) => {
                let (x, y, z) = (a.to_bdd(m), b.to_bdd(m), c.to_bdd(m));
                m.maj(x, y, z)
            }
        }
    }

    /// Truth vector over all 2^NVARS assignments, one bit per assignment.
    fn truth(&self) -> u64 {
        match self {
            Expr::Var(i) => var_truth(*i),
            Expr::Not(e) => !e.truth() & mask(),
            Expr::And(a, b) => a.truth() & b.truth(),
            Expr::Or(a, b) => a.truth() | b.truth(),
            Expr::Xor(a, b) => a.truth() ^ b.truth(),
            Expr::Ite(a, b, c) => {
                let t = a.truth();
                (t & b.truth()) | (!t & c.truth() & mask())
            }
            Expr::Maj(a, b, c) => {
                let (x, y, z) = (a.truth(), b.truth(), c.truth());
                (x & y) | (y & z) | (x & z)
            }
        }
    }
}

fn mask() -> u64 {
    u64::MAX >> (64 - (1 << NVARS))
}

fn var_truth(i: u32) -> u64 {
    let mut t = 0u64;
    for row in 0..(1u64 << NVARS) {
        if row >> i & 1 == 1 {
            t |= 1 << row;
        }
    }
    t
}

fn bdd_truth(m: &Manager, f: Ref) -> u64 {
    let mut t = 0u64;
    for row in 0..(1u64 << NVARS) {
        let assignment: Vec<bool> = (0..NVARS).map(|i| row >> i & 1 == 1).collect();
        if m.eval(f, &assignment) {
            t |= 1 << row;
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bdd_matches_truth_vector(e in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = e.to_bdd(&mut m);
        prop_assert_eq!(bdd_truth(&m, f), e.truth());
    }

    #[test]
    fn canonicity_equal_truth_implies_equal_ref(a in arb_expr(), b in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let fa = a.to_bdd(&mut m);
        let fb = b.to_bdd(&mut m);
        prop_assert_eq!(a.truth() == b.truth(), fa == fb);
    }

    #[test]
    fn negation_is_involutive_and_sizes_match(e in arb_expr()) {
        let mut m = Manager::new();
        let f = e.to_bdd(&mut m);
        prop_assert_eq!(!!f, f);
        prop_assert_eq!(m.size(f), m.size(!f));
    }

    #[test]
    fn generalized_cofactors_agree_on_care_set(fe in arb_expr(), ce in arb_expr()) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = fe.to_bdd(&mut m);
        let c = ce.to_bdd(&mut m);
        prop_assume!(!c.is_zero());
        let fc = m.and(f, c);
        let r = m.restrict(f, c);
        let rc = m.and(r, c);
        prop_assert_eq!(rc, fc, "restrict violates care-set agreement");
    }

    #[test]
    fn restrict_never_grows_past_f_times_c(fe in arb_expr(), ce in arb_expr()) {
        // restrict is a heuristic minimizer: it must stay within the manager
        // and produce a function over the same support universe.
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = fe.to_bdd(&mut m);
        let c = ce.to_bdd(&mut m);
        prop_assume!(!c.is_zero());
        let r = m.restrict(f, c);
        let sup_f = m.support(f);
        let sup_r = m.support(r);
        // restrict never introduces variables outside supp(f) ∪ supp(c).
        let sup_c = m.support(c);
        for v in sup_r {
            prop_assert!(sup_f.contains(&v) || sup_c.contains(&v));
        }
    }

    #[test]
    fn node_replacement_recomposes(e in arb_expr(), pick in 0usize..8) {
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = e.to_bdd(&mut m);
        let stats = m.node_stats(f);
        prop_assume!(!stats.is_empty());
        let d = stats.nodes()[pick % stats.len()];
        let fd = m.function_of(d);
        let f1 = m.replace_node_with_const(f, d, true);
        let f0 = m.replace_node_with_const(f, d, false);
        let recomposed = m.ite(fd, f1, f0);
        prop_assert_eq!(recomposed, f, "f must equal F(f_d)");
    }

    #[test]
    fn swap_walk_preserves_semantics(
        e in arb_expr(),
        g in arb_expr(),
        walk in proptest::collection::vec(0..NVARS - 1, 1..24),
    ) {
        // A random walk of adjacent swaps moves the whole order in place;
        // every function must keep its exact truth vector, and canonicity
        // must hold under the new order (recomputing returns identical
        // refs).
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = e.to_bdd(&mut m);
        let h = g.to_bdd(&mut m);
        let (tf, th) = (e.truth(), g.truth());
        for &l in &walk {
            m.swap_levels(l);
        }
        m.verify_interior_refs();
        prop_assert_eq!(bdd_truth(&m, f), tf, "swaps changed f");
        prop_assert_eq!(bdd_truth(&m, h), th, "swaps changed g");
        // Canonicity under the installed order.
        let f2 = e.to_bdd(&mut m);
        let h2 = g.to_bdd(&mut m);
        prop_assert_eq!(f2, f);
        prop_assert_eq!(h2, h);
        // The order maps stay inverse permutations of each other.
        let v2l = m.var2level();
        let l2v = m.level2var();
        for v in 0..NVARS as usize {
            prop_assert_eq!(l2v[v2l[v] as usize], v as u32);
        }
    }

    #[test]
    fn swap_levels_is_an_involution(e in arb_expr(), g in arb_expr(), l in 0..NVARS - 1) {
        // Swapping the same adjacent pair twice restores the order maps
        // and every function; the refs themselves never change.
        let mut m = Manager::new();
        for i in 0..NVARS { m.var(i); }
        let f = e.to_bdd(&mut m);
        let h = g.to_bdd(&mut m);
        let (tf, th) = (e.truth(), g.truth());
        let order_before = m.var2level().to_vec();
        let size_before = (m.size(f), m.size(h));
        m.swap_levels(l);
        prop_assert_eq!(bdd_truth(&m, f), tf, "single swap changed f");
        prop_assert_eq!(bdd_truth(&m, h), th, "single swap changed g");
        m.swap_levels(l);
        prop_assert_eq!(m.var2level(), &order_before[..], "maps must roundtrip");
        prop_assert_eq!((m.size(f), m.size(h)), size_before, "sizes must roundtrip");
        prop_assert_eq!(bdd_truth(&m, f), tf);
        prop_assert_eq!(bdd_truth(&m, h), th);
        // Canonicity: rebuilding after the double swap lands on the same refs.
        prop_assert_eq!(e.to_bdd(&mut m), f);
        prop_assert_eq!(g.to_bdd(&mut m), h);
    }
}

/// The renaming under which [`Manager::size_under`] measures the order
/// that seats `cand[i]` where `slice[i]` sits now.
fn renaming(slice: &[u32], cand: &[u32]) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..NVARS).collect();
    for (&v, &s) in cand.iter().zip(slice) {
        perm[v as usize] = s;
    }
    perm
}

/// Builds `e` in a fresh manager over `NVARS` variables, optionally as
/// `x0 ⊕ e|x0=0` (so the two edges out of the `x0` node enter the levels
/// below in both polarities) and optionally complemented, then applies
/// `swaps` as adjacent level swaps.
fn probe_subject(e: &Expr, pair: bool, negate: bool, swaps: &[u32]) -> (Manager, Ref) {
    let mut m = Manager::new();
    for i in 0..NVARS {
        m.var(i);
    }
    let mut f = e.to_bdd(&mut m);
    if pair {
        let g = m.cofactor(f, Var(0), false);
        let x = m.var(0);
        f = m.xor(x, g);
    }
    if negate {
        f = !f;
    }
    for &l in swaps {
        m.swap_levels(l);
    }
    (m, f)
}

/// All orderings of `items`, in the order the window search probes them.
fn permutations(items: &[u32]) -> Vec<Vec<u32>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

/// The window search scored by rebuilds instead of boundary tables: every
/// candidate is measured with [`Manager::size_under`], and the winner is
/// installed by adjacent swaps. The oracle for [`bdd::window_reorder`]'s
/// decisions.
fn window_reorder_by_rebuild(m: &mut Manager, f: Ref, window: usize, max_sweeps: usize) {
    let n = m.num_vars() as usize;
    let mut best_size = m.size(f);
    m.protect(f);
    let window = window.min(n);
    let support = m.support(f);
    for _ in 0..max_sweeps {
        let mut improved = false;
        for start in 0..=(n - window) {
            let slice: Vec<u32> = m.level2var()[start..start + window].to_vec();
            if slice.iter().filter(|&&v| support.contains(&Var(v))).count() < 2 {
                continue;
            }
            let mut best_slice = slice.clone();
            for cand in permutations(&slice) {
                if cand == slice {
                    continue;
                }
                let s = m.size_under(f, &renaming(&slice, &cand));
                if s < best_size {
                    best_size = s;
                    best_slice = cand;
                    improved = true;
                }
            }
            for (i, &want) in best_slice.iter().enumerate() {
                let mut pos = (start + i..start + window)
                    .find(|&p| m.level2var()[p] == want)
                    .unwrap();
                while pos > start + i {
                    m.swap_levels((pos - 1) as u32);
                    pos -= 1;
                }
            }
            m.maybe_collect();
        }
        if !improved {
            break;
        }
    }
    m.release(f);
}

/// Node-to-constant substitution by a full, unmemoized rebuild of `f`:
/// the oracle for the pruned, memoized kernel.
fn replace_by_rebuild(m: &mut Manager, f: Ref, target: NodeId, value: bool) -> Ref {
    let r = if f.node() == target {
        m.constant(value)
    } else if f.is_const() {
        return f;
    } else {
        let n = m.node(f.node());
        let low = replace_by_rebuild(m, n.low, target, value);
        let high = replace_by_rebuild(m, n.high, target, value);
        m.mk(n.var, low, high)
    };
    r.xor_complement(f.is_complemented())
}

/// Checks every `(node, value)` substitution of `f` and of `!f` against
/// the rebuild oracle, with targets drawn from all of `fs`.
fn check_replacements(m: &mut Manager, fs: &[Ref]) -> Result<(), TestCaseError> {
    let mut targets: Vec<NodeId> = Vec::new();
    for &f in fs {
        targets.extend(m.node_stats(f).nodes());
    }
    for &f in fs {
        for root in [f, !f] {
            for &t in &targets {
                for value in [false, true] {
                    let want = replace_by_rebuild(m, root, t, value);
                    let got = m.replace_node_with_const(root, t, value);
                    prop_assert_eq!(got, want, "replace {:?} in {:?} by {}", t, root, value);
                }
            }
        }
    }
    Ok(())
}

/// Checks [`Manager::x_dominators`] of `f` and of `!f` against the
/// functional x-dominator test `f[d:=0] == ¬f[d:=1]` on every node of `f`
/// but the root, and checks that the structural set comes in level order.
fn check_x_dominators(m: &mut Manager, f: Ref) -> Result<(), TestCaseError> {
    let nodes = m.node_stats(f).nodes().to_vec();
    for root in [f, !f] {
        let mut functional = Vec::new();
        for &d in &nodes {
            if d == f.node() {
                continue;
            }
            let f1 = m.replace_node_with_const(root, d, true);
            let f0 = m.replace_node_with_const(root, d, false);
            if f0 == !f1 {
                functional.push(d);
            }
        }
        let mut structural = m.x_dominators(root);
        let levels: Vec<u32> = structural
            .iter()
            .map(|&d| m.level(m.function_of(d)))
            .collect();
        prop_assert!(
            levels.windows(2).all(|w| w[0] < w[1]),
            "level order: {:?}",
            levels
        );
        structural.sort();
        functional.sort();
        prop_assert_eq!(structural, functional, "x-dominators of {:?}", root);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn window_probe_matches_size_under(
        e in arb_expr(),
        pair in any::<bool>(),
        negate in any::<bool>(),
        swaps in proptest::collection::vec(0..NVARS - 1, 0..4),
    ) {
        // Every window start, every width, every arrangement: the
        // boundary-table count must equal the rebuilt size, before and
        // after each of a few random level swaps.
        let (mut m, f) = probe_subject(&e, pair, negate, &[]);
        m.protect(f);
        for round in 0..=swaps.len() {
            for w in 2..=4usize {
                for start in 0..=(NVARS as usize - w) {
                    let slice = m.level2var()[start..start + w].to_vec();
                    let sizes = bdd::window_sizes(&m, f, start, w);
                    prop_assert_eq!(sizes.len(), (1..=w).product::<usize>());
                    for (cand, s) in sizes {
                        let rebuilt = m.size_under(f, &renaming(&slice, &cand));
                        prop_assert_eq!(
                            s, rebuilt, "levels {}..{} as {:?}", start, start + w, cand
                        );
                    }
                }
            }
            m.collect();
            if let Some(&l) = swaps.get(round) {
                m.swap_levels(l);
            }
        }
        m.release(f);
    }

    #[test]
    fn window_probe_search_matches_rebuild_search(
        e in arb_expr(),
        pair in any::<bool>(),
        negate in any::<bool>(),
        w in 2usize..5,
        swaps in proptest::collection::vec(0..NVARS - 1, 0..4),
    ) {
        // Two managers built by the same steps: one searched by
        // window_reorder, one by the rebuild-scored loop it replaced. Same
        // candidates, same strict `<`, so the same order and the same
        // swaps.
        let (mut a, fa) = probe_subject(&e, pair, negate, &swaps);
        let (mut b, fb) = probe_subject(&e, pair, negate, &swaps);
        let (swaps_a, swaps_b) = (a.cache_stats().sift_swaps, b.cache_stats().sift_swaps);
        let found = bdd::window_reorder(&mut a, fa, w, 4);
        window_reorder_by_rebuild(&mut b, fb, w, 4);
        prop_assert_eq!(a.var2level(), b.var2level());
        prop_assert_eq!(
            a.cache_stats().sift_swaps - swaps_a,
            b.cache_stats().sift_swaps - swaps_b,
            "same number of installing swaps"
        );
        prop_assert_eq!(found, b.size(fb));
        prop_assert_eq!(bdd_truth(&a, fa), bdd_truth(&b, fb));
    }

    #[test]
    fn replace_matches_unmemoized_rebuild(
        e in arb_expr(),
        g in arb_expr(),
        k in arb_expr(),
        swaps in proptest::collection::vec(0..NVARS - 1, 1..4),
    ) {
        // Every (node, value) pair, with targets inside and outside f,
        // against the unmemoized full rebuild. The memo persists across
        // calls, so each later round would see stale entries if a level
        // swap did not retire them, or if a collection left an entry for
        // a reclaimed target whose slot a new node then took.
        let mut m = Manager::new();
        for i in 0..NVARS {
            let v = m.var(i);
            m.protect(v);
        }
        let f = e.to_bdd(&mut m);
        let h = g.to_bdd(&mut m);
        m.protect(f);
        m.protect(h);
        check_replacements(&mut m, &[f, h])?;
        for &l in &swaps {
            m.swap_levels(l);
            check_replacements(&mut m, &[f, h])?;
        }
        // Reclaim h's nodes, then let a new function take their slots.
        m.release(h);
        m.collect();
        let fresh = k.to_bdd(&mut m);
        m.protect(fresh);
        check_replacements(&mut m, &[f, fresh])?;
        m.release(fresh);
        m.release(f);
    }

    #[test]
    fn x_dominators_match_functional_test(
        e in arb_expr(),
        pair in any::<bool>(),
        negate in any::<bool>(),
        swaps in proptest::collection::vec(0..NVARS - 1, 1..4),
    ) {
        // The structural set against the rebuild-based classification,
        // under the identity order and after each level swap, so that
        // levels and variable indices differ.
        let (mut m, f) = probe_subject(&e, pair, negate, &[]);
        m.protect(f);
        check_x_dominators(&mut m, f)?;
        for &l in &swaps {
            m.swap_levels(l);
            check_x_dominators(&mut m, f)?;
        }
        m.release(f);
    }
}

/// The collector's scrub must drop every substitution entry keyed by a
/// reclaimed target. Here the stale entries could not even give a wrong
/// answer (a target the key node does not reach leaves it unchanged, and
/// a reachable one cannot die first), so the check is on the cache's own
/// counters: once the reclaimed target's slot holds a different node, the
/// same substitution must redo the fresh call's probes instead of
/// answering from the dead target's entry at the root.
#[test]
fn replace_memo_drops_reclaimed_target() {
    let mut m = Manager::new();
    let x: Vec<Ref> = (0..NVARS)
        .map(|i| {
            let v = m.var(i);
            m.protect(v)
        })
        .collect();
    let mut f = Ref::ZERO;
    for pair in x.chunks(2) {
        let p = m.and(pair[0], pair[1]);
        f = m.or(f, p);
    }
    m.protect(f);
    m.collect();
    // A node at x4's level that f does not reach, and nothing else dead.
    let target = m.xor(x[4], x[5]).node();
    let probes = |m: &mut Manager, t: NodeId| {
        let before = m.cache_stats();
        let r = m.replace_node_with_const(f, t, true);
        let after = m.cache_stats();
        (r, after.lookups - before.lookups, after.hits - before.hits)
    };
    let fresh = probes(&mut m, target);
    assert_eq!(fresh.0, f, "f does not reach the target");
    assert!(fresh.1 > 1, "the rebuild probes every ancestor level");
    assert_eq!(m.collect(), 1, "exactly the target is reclaimed");
    // ¬x4 + x5: another node at x4's level, which takes the freed slot.
    let other = m.or(!x[4], x[5]);
    assert_eq!(other.node(), target, "the new node reuses the slot");
    assert_eq!(probes(&mut m, target), fresh, "no stale entry answers");
    assert_eq!(
        m.replace_node_with_const(other, target, false),
        replace_by_rebuild(&mut m, other, target, false)
    );
    m.release(f);
}

/// Deterministic xorshift64* for the storm test below (independent of the
/// proptest harness so the op sequence is stable across runs).
struct Storm(u64);

impl Storm {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The memory-system stress test: ~10k random ite/and/xor/or/maj/not ops
/// through a deliberately tiny manager, so the direct-mapped computed cache
/// evicts constantly and the open-addressed unique table resizes several
/// times. Checks, for every op:
///
/// (a) the result's truth vector matches a bit-parallel oracle, and
/// (b) hash-consing canonicity: whenever two op sequences produce the same
///     function, they produce the *identical* `Ref` — even across cache
///     evictions and unique-table growth.
///
/// Also asserts the computed cache stayed at its construction-time
/// capacity while observing far more insertions than slots (i.e. the cache
/// is bounded and lossy, not growing with operation count).
#[test]
fn storm_of_ops_stays_canonical_and_bounded() {
    const OPS: usize = 10_000;
    // 16-node arena hint → unique table starts at its floor; 8 cache bits
    // → 64 three-way sets = 192 computed-cache entries, thousands of
    // evictions over the storm.
    let mut m = Manager::with_capacity(16, 8);
    let mut rng = Storm(0xB0D5_DAC1_3BDD_5EED);
    let mut pool: Vec<(Ref, u64)> = Vec::new();
    for i in 0..NVARS {
        let v = m.var(i);
        pool.push((v, var_truth(i)));
    }
    let mut canon: std::collections::HashMap<u64, Ref> = std::collections::HashMap::new();
    let initial_buckets = m.cache_stats().unique_buckets;
    let cache_entries = m.cache_stats().cache_entries;
    assert_eq!(cache_entries, 3 << 6);

    for step in 0..OPS {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let c = pool[rng.below(pool.len())];
        let (r, truth) = match rng.below(6) {
            0 => (m.and(a.0, b.0), a.1 & b.1),
            1 => (m.or(a.0, b.0), a.1 | b.1),
            2 => (m.xor(a.0, b.0), a.1 ^ b.1),
            3 => (m.ite(a.0, b.0, c.0), (a.1 & b.1) | (!a.1 & c.1 & mask())),
            4 => (
                m.maj(a.0, b.0, c.0),
                (a.1 & b.1) | (b.1 & c.1) | (a.1 & c.1),
            ),
            _ => (!a.0, !a.1 & mask()),
        };
        let truth = truth & mask();
        // (a) semantic correctness against the truth-table oracle.
        assert_eq!(
            bdd_truth(&m, r),
            truth,
            "storm step {step}: BDD disagrees with oracle"
        );
        // (b) canonicity across evictions/resizes.
        match canon.entry(truth) {
            std::collections::hash_map::Entry::Occupied(e) => {
                assert_eq!(
                    *e.get(),
                    r,
                    "storm step {step}: equal truth vectors, different refs"
                );
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(r);
            }
        }
        // Occasionally clear the cache mid-storm: canonicity must survive.
        if step % 2_500 == 2_499 {
            m.clear_caches();
        }
        // Keep the pool from growing without bound.
        if pool.len() < 400 {
            pool.push((r, truth));
        } else {
            pool[rng.below(400)] = (r, truth);
        }
    }

    let stats = m.cache_stats();
    assert_eq!(
        stats.cache_entries, cache_entries,
        "computed cache must not grow with operation count"
    );
    assert!(
        stats.insertions > 4 * cache_entries as u64,
        "storm must exercise evictions (insertions {} vs {} slots)",
        stats.insertions,
        cache_entries
    );
    assert!(
        stats.unique_buckets > initial_buckets,
        "storm must force unique-table growth"
    );
    assert!(stats.hits > 0, "storm must reuse memoized results");
    assert_eq!(stats.peak_nodes, m.num_nodes());
}

/// The collector stress test: a 100k-op random storm over a protected
/// working set, with a forced collection every few thousand ops. Between
/// collections this is the same canonicity + truth-table-oracle discipline
/// as [`storm_of_ops_stays_canonical_and_bounded`]; at every collection
/// point it additionally checks that
///
/// (a) every protected pool function still matches its truth vector after
///     the sweep (nothing live was reclaimed, nothing dangles),
/// (b) hash-consing stays canonical across reclaim-and-reuse: rebuilding a
///     pool function from scratch returns the *identical* `Ref`, and
/// (c) the collector actually reclaims: over the storm, far more nodes are
///     reclaimed than the arena ever holds.
#[test]
fn gc_storm_stays_canonical_across_collections() {
    const OPS: usize = 100_000;
    const POOL: usize = 200;
    const COLLECT_EVERY: usize = 5_000;
    let mut m = Manager::with_capacity(16, 8);
    let mut rng = Storm(0x6C_C0_11_EC_70_12_57_AB);
    let mut pool: Vec<(Ref, u64)> = Vec::new();
    for i in 0..NVARS {
        let v = m.var(i);
        m.protect(v);
        pool.push((v, var_truth(i)));
    }
    // Canonicity witness map; only valid between collections (a sweep may
    // recycle the slot behind an unprotected ref), so it is rebuilt from
    // the protected pool after every collect.
    let mut canon: std::collections::HashMap<u64, Ref> = std::collections::HashMap::new();
    let mut collections = 0u64;

    for step in 0..OPS {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let c = pool[rng.below(pool.len())];
        let (r, truth) = match rng.below(6) {
            0 => (m.and(a.0, b.0), a.1 & b.1),
            1 => (m.or(a.0, b.0), a.1 | b.1),
            2 => (m.xor(a.0, b.0), a.1 ^ b.1),
            3 => (m.ite(a.0, b.0, c.0), (a.1 & b.1) | (!a.1 & c.1 & mask())),
            4 => (
                m.maj(a.0, b.0, c.0),
                (a.1 & b.1) | (b.1 & c.1) | (a.1 & c.1),
            ),
            _ => (!a.0, !a.1 & mask()),
        };
        let truth = truth & mask();
        assert_eq!(
            bdd_truth(&m, r),
            truth,
            "gc storm step {step}: BDD disagrees with oracle"
        );
        match canon.entry(truth) {
            std::collections::hash_map::Entry::Occupied(e) => {
                assert_eq!(*e.get(), r, "gc storm step {step}: canonicity broken");
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(r);
            }
        }
        // Rotate the protected working set: release the evicted root.
        if pool.len() < POOL {
            m.protect(r);
            pool.push((r, truth));
        } else {
            let k = rng.below(POOL);
            m.release(pool[k].0);
            m.protect(r);
            pool[k] = (r, truth);
        }

        if step % COLLECT_EVERY == COLLECT_EVERY - 1 {
            m.collect();
            collections += 1;
            // (a) the protected pool survived intact.
            for &(f, t) in &pool {
                assert_eq!(bdd_truth(&m, f), t, "protected function corrupted by sweep");
            }
            // (b) reclaim-and-reuse keeps the unique table canonical: any
            // op over surviving pool entries lands on its canonical node.
            let x = pool[rng.below(pool.len())];
            let y = pool[rng.below(pool.len())];
            let redo1 = m.and(x.0, y.0);
            let redo2 = m.and(x.0, y.0);
            assert_eq!(redo1, redo2);
            assert_eq!(bdd_truth(&m, redo1), x.1 & y.1 & mask());
            // Unprotected refs (canon values, the redo above) may dangle
            // after the *next* collect: drop them and re-seed from the
            // protected pool.
            canon.clear();
            for &(f, t) in &pool {
                canon.insert(t, f);
            }
        }
    }

    let stats = m.cache_stats();
    assert!(collections >= 19);
    assert!(
        stats.reclaimed_total > stats.peak_nodes as u64,
        "storm must recycle more nodes than the arena ever held \
         (reclaimed {}, peak {})",
        stats.reclaimed_total,
        stats.peak_nodes
    );
    assert_eq!(stats.live_nodes + stats.free_nodes, m.num_nodes());
}

/// Window reordering under a full truth-table oracle at flow-realistic
/// width: the order-hostile pairing function over 12 variables
/// (`Σ x_i·x_{i+6}`, exponential interleaved, linear paired) plus a
/// parity sharing the same manager. After the search, every one of the
/// 4096 assignments must agree with the oracle for both functions, the
/// pairing function must reach its linear-order size, and the installed
/// maps must stay inverse permutations.
#[test]
fn window_reorder_truth_oracle_on_twelve_vars() {
    const VARS: u32 = 12;
    let mut m = Manager::new();
    let mut pairs = Ref::ZERO;
    for i in 0..VARS / 2 {
        let a = m.var(i);
        let b = m.var(i + VARS / 2);
        let ab = m.and(a, b);
        pairs = m.or(pairs, ab);
    }
    let vars: Vec<Ref> = (0..VARS).map(|i| m.var(i)).collect();
    let parity = m.xor_all(vars);
    m.protect(parity);
    let before = m.size(pairs);
    let swaps = m.cache_stats().sift_swaps;
    let after = bdd::window_reorder(&mut m, pairs, 3, 4);
    assert!(m.cache_stats().sift_swaps > swaps);
    assert_eq!(m.size(pairs), after);
    assert!(
        after < before,
        "window reordering must shrink the interleaved pairing ({before} -> {after})"
    );
    assert_eq!(after, VARS as usize, "pairing order is linear");
    assert_eq!(
        m.size(parity),
        VARS as usize,
        "parity stays linear under any order"
    );
    for row in 0u32..1 << VARS {
        let assignment: Vec<bool> = (0..VARS).map(|i| row >> i & 1 == 1).collect();
        let want_pairs =
            (0..VARS / 2).any(|i| assignment[i as usize] && assignment[(i + VARS / 2) as usize]);
        let want_parity = assignment.iter().filter(|&&b| b).count() % 2 == 1;
        assert_eq!(m.eval(pairs, &assignment), want_pairs, "pairs row {row}");
        assert_eq!(m.eval(parity, &assignment), want_parity, "parity row {row}");
    }
    let (v2l, l2v) = (m.var2level(), m.level2var());
    for v in 0..VARS as usize {
        assert_eq!(l2v[v2l[v] as usize], v as u32, "maps must stay inverse");
    }
}

/// A burst of `count` random adjacent swaps over the manager's levels.
fn swap_burst(m: &mut Manager, rng: &mut Storm, count: usize) {
    let levels = m.num_vars() as usize - 1;
    for _ in 0..count {
        m.swap_levels(rng.below(levels) as u32);
    }
}

/// The reordering-under-reclamation storm: random ops over a protected
/// pool with periodic bursts of random level swaps interleaved with
/// forced collections. At every burst each pool function must keep its
/// truth vector and the unique table must stay canonical (rebuilding a
/// pool function returns the identical `Ref`) — across arbitrary
/// interleavings of level swaps, slot reuse and unique-table rebuilds.
#[test]
fn swap_storm_interleaved_with_gc_stays_canonical() {
    const OPS: usize = 20_000;
    const POOL: usize = 100;
    const SWAP_EVERY: usize = 2_500;
    let mut m = Manager::with_capacity(16, 8);
    let mut rng = Storm(0x51F7_BDD5_EED0_0D5E);
    let mut pool: Vec<(Ref, u64)> = Vec::new();
    for i in 0..NVARS {
        let v = m.var(i);
        m.protect(v);
        pool.push((v, var_truth(i)));
    }
    let mut bursts = 0usize;
    for step in 0..OPS {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let c = pool[rng.below(pool.len())];
        let (r, truth) = match rng.below(6) {
            0 => (m.and(a.0, b.0), a.1 & b.1),
            1 => (m.or(a.0, b.0), a.1 | b.1),
            2 => (m.xor(a.0, b.0), a.1 ^ b.1),
            3 => (m.ite(a.0, b.0, c.0), (a.1 & b.1) | (!a.1 & c.1 & mask())),
            4 => (
                m.maj(a.0, b.0, c.0),
                (a.1 & b.1) | (b.1 & c.1) | (a.1 & c.1),
            ),
            _ => (!a.0, !a.1 & mask()),
        };
        let truth = truth & mask();
        assert_eq!(
            bdd_truth(&m, r),
            truth,
            "step {step}: BDD disagrees with oracle"
        );
        if pool.len() < POOL {
            m.protect(r);
            pool.push((r, truth));
        } else {
            let k = rng.below(POOL);
            m.release(pool[k].0);
            m.protect(r);
            pool[k] = (r, truth);
        }
        if step % SWAP_EVERY == SWAP_EVERY - 1 {
            // Alternate swap-then-collect and collect-then-swap so both
            // interleavings are exercised.
            if (step / SWAP_EVERY).is_multiple_of(2) {
                swap_burst(&mut m, &mut rng, 32);
                m.collect();
            } else {
                m.collect();
                swap_burst(&mut m, &mut rng, 32);
            }
            bursts += 1;
            // The swaps' slot patching and the sweeps must leave the
            // interior counts equal to a full recount of the arena edges.
            m.verify_interior_refs();
            // (a) every protected function survives reordering + sweeps.
            for &(f, t) in &pool {
                assert_eq!(
                    bdd_truth(&m, f),
                    t,
                    "pool function corrupted at step {step}"
                );
            }
            // (b) canonicity under the installed order and recycled slots.
            let x = pool[rng.below(pool.len())];
            let y = pool[rng.below(pool.len())];
            let redo1 = m.and(x.0, y.0);
            let redo2 = m.and(x.0, y.0);
            assert_eq!(redo1, redo2);
            assert_eq!(bdd_truth(&m, redo1), x.1 & y.1 & mask());
            let xor1 = m.xor(x.0, y.0);
            assert_eq!(bdd_truth(&m, xor1), (x.1 ^ y.1) & mask());
        }
    }
    assert!(bursts >= 7, "the storm must actually reorder");
    let stats = m.cache_stats();
    assert_eq!(stats.sift_swaps, 32 * bursts as u64);
    assert!(stats.reclaimed_total > 0, "collections must reclaim");
}

/// The bounded-memory proof for long flows: a storm over enough variables
/// that, without reclamation, the arena would grow monotonically with
/// operation count (the PR-1 leak-by-design). With periodic
/// [`Manager::maybe_collect`] the arena footprint must instead stay within
/// a small constant factor of the live working set.
#[test]
fn gc_keeps_arena_within_constant_factor_of_live_size() {
    const OPS: usize = 100_000;
    const ACCS: usize = 8;
    let mut m = Manager::new();
    m.set_gc_config(GcConfig {
        dead_fraction: 0.25,
        min_nodes: 1 << 12,
    });
    let mut rng = Storm(0xBD_D6_CB_DD_6C);
    // The projection variables are used as operands across collection
    // points, so they are roots too.
    let vars: Vec<Ref> = (0..24)
        .map(|i| {
            let v = m.var(i);
            m.protect(v)
        })
        .collect();
    // A rotating set of protected accumulators keeps a live working set
    // while every overwritten value becomes garbage.
    let mut accs: Vec<Ref> = vars.iter().take(ACCS).map(|&v| m.protect(v)).collect();
    let mut arena_after_collect = Vec::new();
    for step in 0..OPS {
        let i = rng.below(ACCS);
        let a = accs[i];
        let b = accs[rng.below(ACCS)];
        let v = vars[rng.below(vars.len())];
        let r = match rng.below(5) {
            0 => m.and(a, v),
            1 => m.or(a, v),
            2 => m.xor(a, v),
            3 => m.ite(v, a, b),
            _ => m.ite(a, v, b),
        };
        // Random 24-variable combinations grow without bound; reset an
        // accumulator that outgrows the working-set budget (the discarded
        // function is exactly the kind of garbage the collector exists
        // for).
        let r = if m.size(r) > 500 { v } else { r };
        m.release(accs[i]);
        accs[i] = m.protect(r);
        // The flow-level discipline: offer a collection at every quiescent
        // point; the threshold gate keeps almost all of these free.
        m.maybe_collect();
        if step % 1_000 == 999 {
            arena_after_collect.push((m.num_nodes(), m.live_nodes()));
        }
    }
    m.collect();
    let stats = m.cache_stats();
    let live = m.live_nodes();
    // Far more nodes were created than the arena ever held: reclamation,
    // not growth, absorbed the storm.
    assert!(
        stats.reclaimed_total > 4 * stats.peak_nodes as u64,
        "expected heavy recycling (reclaimed {}, peak arena {})",
        stats.reclaimed_total,
        stats.peak_nodes
    );
    assert!(stats.collections >= 5, "threshold collections must trigger");
    // The arena footprint is a constant factor of the live size, not of
    // the operation count: between-collection growth is bounded by the
    // churn of one threshold window, far below the 100k-op total.
    let max_arena = arena_after_collect
        .iter()
        .map(|&(a, _)| a)
        .max()
        .unwrap_or(0);
    let max_live = arena_after_collect
        .iter()
        .map(|&(_, l)| l)
        .max()
        .unwrap_or(1);
    assert!(
        max_arena < 16 * max_live,
        "arena footprint {max_arena} not within constant factor of live {max_live}"
    );
    // And the final sweep leaves exactly the protected working set (plus
    // free slots) in the arena.
    let mut roots = accs.clone();
    roots.extend(vars.iter().copied());
    let reachable = m.shared_size(&roots);
    assert!(
        live <= reachable + 1 + vars.len(),
        "live nodes {live} must be the protected set (reachable {reachable})"
    );
}

/// The abort-recovery property: a random op storm through the *fallible*
/// kernels with a fault injected at an arbitrary recursion step. Whatever
/// interior point the abort lands on, the manager must come back fully
/// consistent — `verify_interior_refs` passes before and after a recovery
/// `collect()`, every protected function still matches its truth vector,
/// and rebuilding over the survivors stays canonical against the oracle.
mod abort_injection {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn injected_abort_leaves_manager_consistent(
            seed in any::<u64>(),
            abort_at in 1u64..600,
        ) {
            const OPS: usize = 250;
            const POOL: usize = 48;
            // Tiny tables so the storm exercises unique-table growth and
            // cache evictions around the abort point too.
            let mut m = Manager::with_capacity(16, 8);
            let mut rng = Storm(seed | 1);
            let mut pool: Vec<(Ref, u64)> = Vec::new();
            for i in 0..NVARS {
                let v = m.var(i);
                m.protect(v);
                pool.push((v, var_truth(i)));
            }
            m.fault_inject_abort_after(Some(abort_at));
            let mut aborted = false;
            for _ in 0..OPS {
                let a = pool[rng.below(pool.len())];
                let b = pool[rng.below(pool.len())];
                let c = pool[rng.below(pool.len())];
                let (r, truth) = match rng.below(6) {
                    0 => (m.try_and(a.0, b.0), a.1 & b.1),
                    1 => (m.try_or(a.0, b.0), a.1 | b.1),
                    2 => (m.try_xor(a.0, b.0), a.1 ^ b.1),
                    3 => (
                        m.try_ite(a.0, b.0, c.0),
                        (a.1 & b.1) | (!a.1 & c.1 & mask()),
                    ),
                    4 => (
                        m.try_maj(a.0, b.0, c.0),
                        (a.1 & b.1) | (b.1 & c.1) | (a.1 & c.1),
                    ),
                    _ => (Ok(!a.0), !a.1 & mask()),
                };
                match r {
                    Ok(r) => {
                        let truth = truth & mask();
                        // Completed ops are exact even while armed.
                        prop_assert_eq!(bdd_truth(&m, r), truth);
                        if pool.len() < POOL {
                            m.protect(r);
                            pool.push((r, truth));
                        } else {
                            let k = rng.below(POOL);
                            m.release(pool[k].0);
                            m.protect(r);
                            pool[k] = (r, truth);
                        }
                    }
                    Err(e) => {
                        prop_assert_eq!(e.kind, LimitKind::Injected);
                        aborted = true;
                        break;
                    }
                }
            }
            // Low abort steps must actually fire within the storm; high
            // ones may outlive it — both paths audit the same way.
            if abort_at < 64 {
                prop_assert!(aborted, "a {abort_at}-step fuse must blow");
            }
            m.fault_inject_abort_after(None);
            // The manager must already be consistent before any cleanup...
            m.verify_interior_refs();
            // ...and the aborted garbage must be collectable.
            m.collect();
            m.verify_interior_refs();
            // Oracle + canonicity over the survivors.
            for &(f, t) in &pool {
                prop_assert_eq!(bdd_truth(&m, f), t, "protected function corrupted");
            }
            let x = pool[rng.below(pool.len())];
            let y = pool[rng.below(pool.len())];
            let redo1 = m.and(x.0, y.0);
            let redo2 = m.and(x.0, y.0);
            prop_assert_eq!(redo1, redo2, "canonicity after recovery");
            prop_assert_eq!(bdd_truth(&m, redo1), x.1 & y.1 & mask());
            let xor = m.try_xor(x.0, y.0);
            prop_assert!(xor.is_ok(), "disarmed kernels must not abort");
            prop_assert_eq!(bdd_truth(&m, xor.unwrap()), (x.1 ^ y.1) & mask());
        }
    }
}

/// Exhaustive complement-edge oracle over every 4-variable function: all
/// 65 536 truth tables are built through the public kernels and the
/// manager must represent each function `f` and its negation `¬f` by the
/// *same* node with only the sign bit differing. Together with the
/// canonical-form audit this proves no node and its complement ever
/// coexist in the unique table — the entire point of the encoding.
#[test]
fn exhaustive_four_var_complement_pairs_share_one_node() {
    const VARS: u32 = 4;
    const TABLES: usize = 1 << (1 << VARS);
    let mut m = Manager::new();
    let vars: Vec<Ref> = (0..VARS).map(|i| m.var(i)).collect();

    // Build every function bottom-up by Shannon expansion on the topmost
    // variable: a 2^k-bit table over k variables splits into two
    // 2^(k-1)-bit cofactor tables over k-1 variables.
    fn build(
        m: &mut Manager,
        vars: &[Ref],
        table: u64,
        k: u32,
        memo: &mut std::collections::HashMap<(u32, u64), Ref>,
    ) -> Ref {
        let bits = 1u32 << k;
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        let table = table & mask;
        if table == 0 {
            return Ref::ZERO;
        }
        if table == mask {
            return Ref::ONE;
        }
        if let Some(&r) = memo.get(&(k, table)) {
            return r;
        }
        let half = bits / 2;
        let lo = build(m, vars, table, k - 1, memo);
        let hi = build(m, vars, table >> half, k - 1, memo);
        let r = m.ite(vars[(k - 1) as usize], hi, lo);
        memo.insert((k, table), r);
        r
    }

    let mut memo = std::collections::HashMap::new();
    let mut refs: Vec<Ref> = Vec::with_capacity(TABLES);
    for t in 0..TABLES {
        refs.push(build(&mut m, &vars, t as u64, VARS, &mut memo));
    }

    for t in 0..TABLES {
        let f = refs[t];
        let g = refs[t ^ (TABLES - 1)];
        // `¬f` is the same node, opposite sign: complement is free.
        assert_eq!(g, !f, "table {t:#06x}: negation must be a sign flip");
        assert_eq!(f.node(), g.node(), "table {t:#06x}: pair must share a node");
        // Double negation is the identity at the `Ref` level.
        assert_eq!(!!f, f, "table {t:#06x}: double negation");
        // Semantic spot-proof against the table itself.
        for row in 0..1u32 << VARS {
            let assignment: Vec<bool> = (0..VARS).map(|i| row >> i & 1 == 1).collect();
            assert_eq!(
                m.eval(f, &assignment),
                t as u64 >> row & 1 == 1,
                "table {t:#06x} row {row}"
            );
        }
    }
    // The structural half of the claim: every stored node is in canonical
    // form (1-edge regular), which makes a node/complement collision
    // unrepresentable in the unique table.
    m.verify_edge_canonical_form();
    m.verify_interior_refs();
}

/// Complement-edge ⨯ GC ⨯ swap storm: a negation-heavy op mix (every
/// result also enters the pool complemented) driven through periodic
/// cycles of random level swaps and a `collect`. After every quiescent
/// point the canonical-form audit must hold, every pool function and its
/// complement must still agree with the truth-table oracle, and negation
/// must still be a pure sign flip on the reordered, compacted arena.
#[test]
fn complement_storm_with_gc_and_swaps_stays_canonical() {
    const OPS: usize = 8_000;
    const POOL: usize = 80;
    const QUIESCE_EVERY: usize = 2_000;
    let mut m = Manager::with_capacity(16, 8);
    let mut rng = Storm(0x3BDD_C0DE_5EED_F00D);
    let mut pool: Vec<(Ref, u64)> = Vec::new();
    for i in 0..NVARS {
        let v = m.var(i);
        m.protect(v);
        pool.push((v, var_truth(i)));
    }
    let mut quiesces = 0usize;
    for step in 0..OPS {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let c = pool[rng.below(pool.len())];
        let (r, truth) = match rng.below(6) {
            0 => (m.and(a.0, b.0), a.1 & b.1),
            1 => {
                // De Morgan through the sign bit: ¬(¬a ∨ ¬b) = a ∧ b.
                let nor = !m.or(!a.0, !b.0);
                (nor, a.1 & b.1)
            }
            2 => (m.xor(a.0, !b.0), a.1 ^ !b.1),
            3 => (m.ite(!a.0, b.0, c.0), (!a.1 & b.1) | (a.1 & c.1)),
            4 => (
                m.maj(!a.0, !b.0, !c.0),
                !((a.1 & b.1) | (b.1 & c.1) | (a.1 & c.1)),
            ),
            _ => (!a.0, !a.1),
        };
        let truth = truth & mask();
        assert_eq!(
            bdd_truth(&m, r),
            truth,
            "step {step}: BDD disagrees with oracle"
        );
        assert_eq!(!!r, r, "step {step}: double negation at the Ref level");
        // Half the inserts go in complemented, so the working set is
        // saturated with signed edges before every swap/collect cycle.
        let (ins, ins_t) = if step % 2 == 0 {
            (r, truth)
        } else {
            (!r, !truth & mask())
        };
        if pool.len() < POOL {
            m.protect(ins);
            pool.push((ins, ins_t));
        } else {
            let k = rng.below(POOL);
            m.release(pool[k].0);
            m.protect(ins);
            pool[k] = (ins, ins_t);
        }
        if step % QUIESCE_EVERY == QUIESCE_EVERY - 1 {
            swap_burst(&mut m, &mut rng, 32);
            m.collect();
            m.verify_edge_canonical_form();
            m.verify_interior_refs();
            quiesces += 1;
            for &(f, t) in &pool {
                assert_eq!(bdd_truth(&m, f), t, "pool function corrupted at {step}");
                assert_eq!(
                    bdd_truth(&m, !f),
                    !t & mask(),
                    "complement corrupted at {step}"
                );
            }
            // Negation stays free after reordering: same node, new sign.
            let x = pool[rng.below(pool.len())].0;
            assert_eq!((!x).node(), x.node(), "swaps must not split a pair");
        }
    }
    assert!(quiesces >= 4, "the storm must actually quiesce");
}
