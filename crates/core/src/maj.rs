//! The majority logic decomposition method of BDS-MAJ (§III of the paper,
//! Algorithm 1).
//!
//! Given a function `F`, the method expresses it as `Maj(Fa, Fb, Fc)`:
//!
//! * **(α)** candidate functions `Fa` are found through *m-dominators* —
//!   highly connected internal BDD nodes that are not already simple
//!   0-/1-/x-dominators;
//! * **(β)** an initial decomposition is constructed from Theorem 3.2 with
//!   the generalized-cofactor seeds of Theorem 3.3:
//!   `Fb = ITE(Fa ⊕ F, F, F⇓Fa)` and `Fc = ITE(Fa ⊕ F, F, F⇓Fa')`;
//! * **(γ)** the triple is improved by cyclic balancing (Theorem 3.4):
//!   every couple `(X, Y)` is rewritten through a balanced XOR
//!   decomposition of `X ⊕ Y`;
//! * **(ω)** the best triple over all candidates is selected with the
//!   paper's size metric and sizing factor `k`.

use bdd::{Manager, NodeId, Ref};
use decomp::{classify_dominator, xor_decompose_balanced, MajorityHook};

/// Sizing factor of the local selection among candidates (§III-E).
const LOCAL_K: f64 = 1.5;

/// Functions with fewer BDD nodes than this are not worth a MAJ split.
const MIN_SIZE: usize = 3;

/// Tuning parameters of the majority decomposition (paper defaults).
#[derive(Clone, Copy, Debug)]
pub struct MajConfig {
    /// Sizing factor for the global accept-or-reject decision (§IV-B).
    pub global_k: f64,
    /// Maximum cyclic-optimization iterations (the paper uses 5).
    pub max_iterations: usize,
    /// Maximum number of m-dominator candidates examined per function
    /// ("adjusted on the fly specifying tighter selection constraints").
    pub max_candidates: usize,
}

impl Default for MajConfig {
    fn default() -> Self {
        MajConfig {
            global_k: 1.6,
            max_iterations: 5,
            max_candidates: 8,
        }
    }
}

/// A majority decomposition triple with its size accounting.
#[derive(Clone, Copy, Debug)]
pub struct MajCandidate {
    /// The three functions with `f = Maj(fa, fb, fc)`.
    pub triple: [Ref; 3],
    /// BDD sizes of the three functions.
    pub sizes: [usize; 3],
}

impl MajCandidate {
    fn of(m: &Manager, triple: [Ref; 3]) -> MajCandidate {
        MajCandidate {
            triple,
            sizes: [m.size(triple[0]), m.size(triple[1]), m.size(triple[2])],
        }
    }

    /// Total size `|Fa| + |Fb| + |Fc|`.
    pub fn total(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// The paper's local superiority test: candidate 1 beats candidate 2
    /// when its total size is smaller, or when every component is smaller
    /// by the sizing factor `k`.
    pub fn beats(&self, other: &MajCandidate, k: f64) -> bool {
        if self.total() < other.total() {
            return true;
        }
        self.sizes
            .iter()
            .zip(&other.sizes)
            .all(|(&a, &b)| k * a as f64 <= b as f64)
    }
}

/// Searches the DAG of `f` for non-trivial m-dominators (§III-B).
///
/// A non-trivial m-dominator is an internal node that (i) is not a simple
/// 0-/1-/x-dominator, and (ii) is highly connected: it has more than one
/// incoming regular 0-edge plus 1-edge in total (the `Fa` function must be
/// reachable both where `F` follows it and where `F` opposes it).
///
/// Candidates are returned most-connected first, truncated to
/// `max_candidates`. Equal connectivity keeps the DFS discovery order of
/// [`Manager::node_stats`] (the sort is stable), so the candidate list is
/// a function of `f`'s BDD under the current variable order alone, never
/// of where its nodes sit in the arena.
pub fn find_m_dominators(m: &mut Manager, f: Ref, config: &MajConfig) -> Vec<NodeId> {
    if f.is_const() {
        return Vec::new();
    }
    let stats = m.node_stats(f);
    let mut out: Vec<(usize, NodeId)> = Vec::new();
    for &id in stats.nodes() {
        if id == f.node() {
            continue;
        }
        let deg = stats.in_degree(id);
        // Condition (ii): highly connected through regular 0- and 1-edges.
        if deg.zero_regular + deg.one <= 1 {
            continue;
        }
        // Condition (i): skip simple AND/OR/XNOR dominators — those are
        // better served by the standard radix-2 decompositions.
        if classify_dominator(m, f, id).is_some() {
            continue;
        }
        out.push((deg.total(), id));
    }
    out.sort_by_key(|&(deg, _)| std::cmp::Reverse(deg));
    out.truncate(config.max_candidates);
    out.into_iter().map(|(_, id)| id).collect()
}

/// Constructs the initial majority decomposition for a candidate `fa`
/// (phase (β): Theorems 3.2 and 3.3), seeded with the Coudert–Madre
/// `restrict` generalized cofactor.
pub fn construct_majority(m: &mut Manager, f: Ref, fa: Ref) -> MajCandidate {
    let h = generalized_cofactor(m, f, fa);
    let w = generalized_cofactor(m, f, !fa);
    let diff = m.xor(fa, f);
    let fb = m.ite(diff, f, h);
    let fc = m.ite(diff, f, w);
    MajCandidate::of(m, [fa, fb, fc])
}

fn generalized_cofactor(m: &mut Manager, f: Ref, c: Ref) -> Ref {
    if c.is_zero() {
        // Empty care set: every value is a don't-care; F itself is as good
        // a representative as any.
        return f;
    }
    m.restrict(f, c)
}

/// One cyclic-balancing pass over all couples (phase (γ): Theorem 3.4).
///
/// For each couple `(X, Y)` of the triple, computes `Fx = X ⊕ Y`, splits it
/// into a balanced `(M, K)` with `M ⊕ K = Fx`, and rewrites
/// `X ← ITE(Fx, K, X)`, `Y ← ITE(Fx, M, Y)`. A rewrite is kept only when
/// it shrinks the couple.
pub fn balance_pass(m: &mut Manager, cand: &mut MajCandidate) -> bool {
    let mut improved = false;
    for (xi, yi) in [(0usize, 1usize), (0, 2), (1, 2)] {
        let x = cand.triple[xi];
        let y = cand.triple[yi];
        let fx = m.xor(x, y);
        if fx.is_const() {
            continue;
        }
        let (m_part, k_part) = xor_decompose_balanced(m, fx);
        let x_opt = m.ite(fx, k_part, x);
        let y_opt = m.ite(fx, m_part, y);
        let new_sizes = (m.size(x_opt), m.size(y_opt));
        if new_sizes.0 + new_sizes.1 < cand.sizes[xi] + cand.sizes[yi] {
            cand.triple[xi] = x_opt;
            cand.triple[yi] = y_opt;
            cand.sizes[xi] = new_sizes.0;
            cand.sizes[yi] = new_sizes.1;
            improved = true;
        }
    }
    improved
}

/// Runs the full Algorithm 1 on `f`: returns the best majority
/// decomposition over all m-dominator candidates, or `None` when no
/// candidate exists.
///
/// The result is *locally* best (phase (ω)); callers apply the global
/// usefulness test separately (see [`MajDecomposer`]).
pub fn maj_decompose(m: &mut Manager, f: Ref, config: &MajConfig) -> Option<MajCandidate> {
    if m.size(f) < MIN_SIZE {
        return None;
    }
    let candidates = find_m_dominators(m, f, config);
    let mut best: Option<MajCandidate> = None;
    for id in candidates {
        let fa = m.function_of(id);
        let mut cand = construct_majority(m, f, fa);
        let mut iterations = 0;
        while iterations < config.max_iterations {
            if !balance_pass(m, &mut cand) {
                break;
            }
            iterations += 1;
        }
        debug_assert!(
            {
                let [a, b, c] = cand.triple;
                let (mut copy, r) = m.copy_to_fresh(&[a, b, c, f]);
                copy.maj(r[0], r[1], r[2]) == r[3]
            },
            "majority decomposition must stay valid"
        );
        match &best {
            None => best = Some(cand),
            Some(b) => {
                if cand.beats(b, LOCAL_K) {
                    best = Some(cand);
                }
            }
        }
    }
    best
}

/// The [`MajorityHook`] implementation that layers Algorithm 1 onto the
/// BDS engine, with the paper's global selection test (§IV-B): a majority
/// decomposition is adopted only when each component is smaller than the
/// original function by the global sizing factor.
///
/// It keeps no state between calls beyond its counters: the answer for
/// `f` depends on `f`'s BDD under the current variable order alone, so
/// it cannot depend on what else the manager's arena holds, and the engine
/// may replay an earlier answer instead of asking (see
/// [`decomp::MajorityHook`]). Within one decomposition of a cone a
/// repeated function never reaches the hook: the engine's per-cone
/// emitter memo answers it first.
#[derive(Debug, Default)]
pub struct MajDecomposer {
    config: MajConfig,
    /// Hook calls that returned a MAJ split. A cone the engine replays
    /// makes none; debug builds also count the calls of the engine's
    /// replay check.
    pub accepted: usize,
    /// Hook calls that declined, counted like `accepted`.
    pub rejected: usize,
}

impl MajDecomposer {
    /// Creates a decomposer with the given configuration.
    pub fn new(config: MajConfig) -> MajDecomposer {
        MajDecomposer {
            config,
            ..MajDecomposer::default()
        }
    }
}

impl MajorityHook for MajDecomposer {
    fn try_majority(&mut self, m: &mut Manager, f: Ref) -> Option<[Ref; 3]> {
        let fsize = m.size(f);
        let result = maj_decompose(m, f, &self.config).and_then(|cand| {
            let k = self.config.global_k;
            let fits = cand.sizes.iter().all(|&s| k * s as f64 <= fsize as f64);
            if fits {
                Some(cand.triple)
            } else {
                None
            }
        });
        if result.is_some() {
            self.accepted += 1;
        } else {
            self.rejected += 1;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example: F = ab + bc + ac.
    fn paper_example(m: &mut Manager) -> (Ref, Ref, Ref, Ref) {
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f = m.maj(a, b, c);
        (f, a, b, c)
    }

    #[test]
    fn fig1_m_dominator_is_found() {
        // The BDD of ab+bc+ac (order a<b<c) has exactly one shared node:
        // the bottom variable node, which is the non-trivial m-dominator.
        let mut m = Manager::new();
        let (f, _, _, c) = paper_example(&mut m);
        let config = MajConfig::default();
        let doms = find_m_dominators(&mut m, f, &config);
        assert_eq!(doms.len(), 1, "exactly one non-trivial m-dominator");
        assert_eq!(
            m.function_of(doms[0]),
            c,
            "the shared bottom node computes the literal"
        );
    }

    #[test]
    fn construction_theorem_3_2_yields_valid_decomposition() {
        let mut m = Manager::new();
        let (f, a, _, _) = paper_example(&mut m);
        // Use Fa = a as in the paper's example (§III-C).
        let cand = construct_majority(&mut m, f, a);
        let maj = m.maj(cand.triple[0], cand.triple[1], cand.triple[2]);
        assert_eq!(maj, f, "Theorem 3.2 construction must be valid");
    }

    #[test]
    fn paper_example_seeds_match() {
        // §III-C example: Fa = a, H = F↓a = b + c, W = F↓a' = bc,
        // Fb = b + c, Fc = bc.
        let mut m = Manager::new();
        let (f, a, b, c) = paper_example(&mut m);
        let h = m.restrict(f, a);
        let or_bc = m.or(b, c);
        assert_eq!(h, or_bc, "F restricted to a=1 region is b+c");
        let w = m.restrict(f, !a);
        let and_bc = m.and(b, c);
        assert_eq!(w, and_bc, "F restricted to a=0 region is bc");
        let cand = construct_majority(&mut m, f, a);
        assert_eq!(cand.triple[1], or_bc);
        assert_eq!(cand.triple[2], and_bc);
    }

    #[test]
    fn balancing_reaches_literal_triple() {
        // §III-D example: starting from (a, b+c, bc), the balancing step
        // must discover Maj(a, b, c).
        let mut m = Manager::new();
        let (f, a, b, c) = paper_example(&mut m);
        let mut cand = construct_majority(&mut m, f, a);
        while balance_pass(&mut m, &mut cand) {}
        let maj = m.maj(cand.triple[0], cand.triple[1], cand.triple[2]);
        assert_eq!(maj, f);
        assert_eq!(cand.sizes, [1, 1, 1], "balanced to three literals");
        for lit in [a, b, c] {
            assert!(
                cand.triple.contains(&lit),
                "the literals a, b, c are recovered"
            );
        }
    }

    #[test]
    fn full_algorithm_on_paper_example() {
        let mut m = Manager::new();
        let (f, ..) = paper_example(&mut m);
        let cand = maj_decompose(&mut m, f, &MajConfig::default()).expect("decomposes");
        assert_eq!(cand.total(), 3, "Maj(a,b,c) decomposes to three literals");
    }

    #[test]
    fn hook_accepts_majority_rejects_and() {
        let mut m = Manager::new();
        let (f, a, b, _) = paper_example(&mut m);
        let mut hook = MajDecomposer::new(MajConfig::default());
        let triple = hook.try_majority(&mut m, f);
        assert!(triple.is_some(), "majority function must be accepted");
        // A plain conjunction has no m-dominator worth a MAJ node.
        let g = m.and(a, b);
        assert_eq!(hook.try_majority(&mut m, g), None);
        assert!(hook.accepted >= 1 && hook.rejected >= 1);
    }

    #[test]
    fn wider_majority_structures_decompose() {
        // Maj(x1⊕x2, x3·x4, x5+x6): the components are hidden behind the
        // majority; Algorithm 1 must find a valid triple.
        let mut m = Manager::new();
        let v: Vec<Ref> = (0..6).map(|i| m.var(i)).collect();
        let p = m.xor(v[0], v[1]);
        let q = m.and(v[2], v[3]);
        let r = m.or(v[4], v[5]);
        let f = m.maj(p, q, r);
        let cand = maj_decompose(&mut m, f, &MajConfig::default());
        if let Some(cand) = cand {
            let back = m.maj(cand.triple[0], cand.triple[1], cand.triple[2]);
            assert_eq!(back, f);
            assert!(
                cand.total() <= m.size(f),
                "decomposition should not exceed the original size"
            );
        }
    }

    #[test]
    fn local_selection_metric() {
        let m1 = MajCandidate {
            triple: [Ref::ONE; 3],
            sizes: [2, 2, 2],
        };
        let m2 = MajCandidate {
            triple: [Ref::ONE; 3],
            sizes: [4, 4, 4],
        };
        assert!(m1.beats(&m2, 1.5), "smaller total wins");
        assert!(!m2.beats(&m1, 1.5));
        // Equal totals: the k-condition decides.
        let m3 = MajCandidate {
            triple: [Ref::ONE; 3],
            sizes: [4, 4, 4],
        };
        let m4 = MajCandidate {
            triple: [Ref::ONE; 3],
            sizes: [6, 6, 0],
        };
        assert!(!m3.beats(&m4, 1.5), "k-condition fails against a zero");
    }

    #[test]
    fn constants_and_literals_are_not_decomposed() {
        let mut m = Manager::new();
        let a = m.var(0);
        let config = MajConfig::default();
        assert!(maj_decompose(&mut m, Ref::ONE, &config).is_none());
        assert!(maj_decompose(&mut m, a, &config).is_none());
    }
}
