//! Variable reordering: the in-place searches driving the manager's
//! adjacent-level swap primitive, plus the permutation-rebuild oracle.
//!
//! The BDS decomposition engine reorders each local BDD before searching
//! for dominators (§IV-B of the BDS-MAJ paper: "As a first step, it
//! performs variable reordering to compact the size of the input BDD").
//! Since variables are decoupled from levels, reordering no longer copies
//! the function: [`window_reorder`] and [`sift_reorder`] drive
//! [`Manager::swap_levels`], which patches the affected nodes in place —
//! every outstanding [`Ref`] (the function under search included) keeps
//! denoting the same Boolean function, only its node count changes.
//!
//! [`window_reorder`] scores its candidate arrangements without building
//! a node. Permuting the variables of levels `[start, start + w)` changes
//! only the nodes at those levels, and the nodes there under any
//! arrangement are fixed by the *boundary tables*: the cofactors, over
//! the `2^w` window assignments, of each edge that enters the window from
//! above. Counting the distinct complement-normalized sub-tables each
//! candidate level depends on gives the candidate's window population, and
//! `size(f) − count(current) + count(candidate)` is exactly what a rebuild
//! would measure. Probes therefore leave no garbage behind; only a winning
//! arrangement pays the swap primitive.
//!
//! [`Manager::permute`] is the *renaming* primitive: it builds a
//! genuinely different function (the composition with a variable
//! substitution). Its one in-crate use is as the oracle the window probe
//! is checked against in debug builds ([`Manager::size_under`]).

use crate::hasher::BuildFxHasher;
use crate::manager::{ConvergeConfig, Manager, SiftConfig};
use crate::reference::{NodeId, Ref};
use std::collections::HashMap;

impl Manager {
    /// Rebuilds `f` with every variable `v` replaced by `perm[v]` — a
    /// variable *renaming*, producing a (generally) different function.
    ///
    /// `perm` maps **variable index → variable index** (`perm[old] = new`)
    /// and must be a permutation of `0..perm.len()` covering the support
    /// of `f`.
    ///
    /// The memo is local to the call (keyed by node, so `f` and `¬f`
    /// share an entry); the `ite` calls it makes go through the computed
    /// cache as usual.
    ///
    /// # Panics
    ///
    /// Panics if a support variable of `f` is outside `perm`; in debug
    /// builds, also if `perm` is not a permutation.
    pub fn permute(&mut self, f: Ref, perm: &[u32]) -> Ref {
        debug_assert!(
            is_permutation(perm),
            "permute: perm must be a permutation of 0..{}",
            perm.len()
        );
        let mut memo = HashMap::default();
        self.permute_rec(f, perm, &mut memo)
    }

    fn permute_rec(
        &mut self,
        f: Ref,
        perm: &[u32],
        memo: &mut HashMap<NodeId, Ref, BuildFxHasher>,
    ) -> Ref {
        if f.is_const() {
            return f;
        }
        let c = f.is_complemented();
        if let Some(&r) = memo.get(&f.node()) {
            return r.xor_complement(c);
        }
        let n = self.node(f.node());
        let lo = self.permute_rec(n.low, perm, memo);
        let hi = self.permute_rec(n.high, perm, memo);
        // The renamed variable may land *below* the children's new
        // positions, so rebuild with ITE (handles arbitrary targets).
        let vref = self.var(perm[n.var.index()]);
        let r = self.ite(vref, hi, lo);
        memo.insert(f.node(), r);
        r.xor_complement(c)
    }

    /// Size of `f` if its variables were renamed by `perm` (the permuted
    /// BDD is built and measured; nodes stay in the manager as garbage).
    pub fn size_under(&mut self, f: Ref, perm: &[u32]) -> usize {
        let g = self.permute(f, perm);
        self.size(g)
    }
}

/// Marks a window-local node in a [`WindowProbe`] edge word; edges
/// without it are raw [`Ref`]s below the window. Bit 0 is the complement
/// bit in both kinds, so negation stays one XOR.
const LOCAL: u64 = 1 << 63;

/// The boundary tables of one window position, from which the size of
/// `f` under any arrangement of the window's variables follows without
/// building a node (see the module docs).
struct WindowProbe {
    width: usize,
    /// `f`'s size under the current order.
    size: usize,
    /// `f`'s nodes above and below the window: every arrangement keeps
    /// them.
    outside: usize,
    /// `2^width` entries per entering edge: entry `a` is the edge's
    /// cofactor under the window assignment `a` (bit `p` = value of the
    /// variable at level `start + p`), an edge below the window.
    tables: Vec<Ref>,
    /// Window-local unique table, `(level offset, low, high) → node`,
    /// rebuilt per candidate.
    unique: HashMap<(usize, u64, u64), u64, BuildFxHasher>,
}

impl WindowProbe {
    /// Tabulates the window of `width` levels from `start` for `f`.
    fn new(m: &Manager, f: Ref, start: usize, width: usize) -> WindowProbe {
        let (top, bottom) = (start as u32, (start + width) as u32);
        let in_window = |level: u32| (top..bottom).contains(&level);
        let mut entering: Vec<Ref> = Vec::new();
        if in_window(m.level(f)) {
            entering.push(f);
        }
        let (mut size, mut outside) = (0, 0);
        {
            let mut seen = m.session.visited.borrow_mut();
            seen.begin(m.num_nodes());
            let mut stack = vec![f.node()];
            while let Some(id) = stack.pop() {
                if id.is_terminal() || !seen.mark(id.index()) {
                    continue;
                }
                size += 1;
                let n = m.node(id);
                let level = m.level_of_var(n.var);
                if !in_window(level) {
                    outside += 1;
                }
                for child in [n.low, n.high] {
                    if level < top && in_window(m.level(child)) {
                        entering.push(child);
                    }
                    stack.push(child.node());
                }
            }
        }
        entering.sort_unstable();
        entering.dedup();
        let rows = 1usize << width;
        let mut tables = Vec::with_capacity(entering.len() * rows);
        for &g in &entering {
            for a in 0..rows {
                let mut e = g;
                let mut level = m.level(e);
                while in_window(level) {
                    let n = m.node(e.node());
                    let child = if a >> (level - top) & 1 == 1 {
                        n.high
                    } else {
                        n.low
                    };
                    e = child.xor_complement(e.is_complemented());
                    level = m.level(e);
                }
                tables.push(e);
            }
        }
        WindowProbe {
            width,
            size,
            outside,
            tables,
            unique: HashMap::default(),
        }
    }

    /// Size of `f` under the arrangement that seats the window's current
    /// level `start + order[i]` at level `start + i`.
    fn size_with(&mut self, order: &[u32]) -> usize {
        if order.iter().enumerate().all(|(i, &p)| p as usize == i) {
            return self.size;
        }
        self.unique.clear();
        let rows = 1usize << self.width;
        for base in (0..self.tables.len()).step_by(rows) {
            self.build(base, order, 0, 0);
        }
        self.outside + self.unique.len()
    }

    /// Hash-conses the sub-table of the entering edge at `base` with the
    /// positions `order[..i]` fixed to `bits`, complement-normalized like
    /// the manager's `mk` (the 1-edge is kept regular), so a function and
    /// its complement share one node.
    fn build(&mut self, base: usize, order: &[u32], i: usize, bits: usize) -> u64 {
        let Some(&p) = order.get(i) else {
            return u64::from(self.tables[base + bits].raw());
        };
        let low = self.build(base, order, i + 1, bits);
        let high = self.build(base, order, i + 1, bits | 1 << p);
        if low == high {
            return low;
        }
        let c = high & 1;
        let next = self.unique.len() as u64;
        let id = *self.unique.entry((i, low ^ c, high ^ c)).or_insert(next);
        LOCAL | id << 1 | c
    }
}

/// The size of `f` under every arrangement of the variables at levels
/// `[start, start + width)`, computed from the window's boundary tables
/// without building a node: one `(cand, size)` pair per arrangement, in
/// the order [`window_reorder`] probes them, where `cand[i]` is the
/// variable seated at level `start + i` and `size` is what
/// [`Manager::size_under`] would measure for that order. The current
/// arrangement is included, with `f`'s current size.
///
/// The tables hold `2^width` entries per edge entering the window and the
/// result has `width!` entries, so keep `width` small (≤ 4 in practice).
///
/// # Panics
///
/// Panics if `start + width` exceeds the manager's variable count.
pub fn window_sizes(m: &Manager, f: Ref, start: usize, width: usize) -> Vec<(Vec<u32>, usize)> {
    let slice = &m.level2var()[start..start + width];
    let mut probe = WindowProbe::new(m, f, start, width);
    permutations(&(0..width as u32).collect::<Vec<u32>>())
        .into_iter()
        .map(|order| {
            let size = probe.size_with(&order);
            (order.iter().map(|&p| slice[p as usize]).collect(), size)
        })
        .collect()
}

/// Result of an in-place reordering search.
#[derive(Clone, Debug)]
pub struct Reordered {
    /// The order the search left installed in the manager, as a
    /// **variable → level** map: `perm[var] = level` (the position of
    /// `var` in the decision order, 0 = root). This is a snapshot of
    /// [`Manager::var2level`]; use [`invert`]'s convention to read it the
    /// other way around. Always a permutation of `0..perm.len()`.
    pub perm: Vec<u32>,
    /// The searched function — the *same* `Ref` that was passed in:
    /// in-place reordering never rebuilds or renames it.
    pub function: Ref,
    /// Size of `function` under the installed order.
    pub size: usize,
}

/// Whether `perm` is a permutation of `0..perm.len()`.
fn is_permutation(perm: &[u32]) -> bool {
    let mut seen = vec![false; perm.len()];
    perm.iter()
        .all(|&p| (p as usize) < seen.len() && !std::mem::replace(&mut seen[p as usize], true))
}

/// Window-permutation minimization over the manager's live order: for each
/// sliding window of `window` adjacent *levels* (window-3 is the classic
/// CUDD `WINDOW3` heuristic), all `window!` orderings are evaluated and
/// the one minimizing `size(f)` is installed in place through
/// [`Manager::swap_levels`], until a full sweep yields no improvement or
/// `max_sweeps` is reached.
///
/// Candidates are *probed* without building a node: once per window
/// position the search tabulates the cofactors of every edge entering the
/// window from above over the `2^window` window assignments, and a
/// candidate's size is `f`'s nodes outside the window plus the distinct
/// complement-normalized sub-tables its levels depend on — exactly the
/// size a [`Manager::size_under`] rebuild would measure (debug builds
/// assert the two agree). Only a winning arrangement pays the swap
/// primitive, whose cost scales with the whole manager's population at
/// the affected levels. On the converged orders typical of flows
/// decomposing many same-shaped cones, almost every window is already
/// optimal, so the global cost is paid exactly where the order actually
/// changes, and the probes leave no garbage for the collector.
///
/// The search runs in place: `f` is returned unchanged (same `Ref`, same
/// function) with the minimizing order left installed in the manager —
/// which also re-shapes every other function sharing these variables, as
/// dynamic reordering always does. The search protects `f` and offers the
/// manager a [`Manager::maybe_collect`] after each window position, so
/// the nodes displaced by installed swaps are recycled during long
/// passes. Functions the *caller* holds across this call must be
/// protected by the caller.
pub fn window_reorder(m: &mut Manager, f: Ref, window: usize, max_sweeps: usize) -> Reordered {
    let n = m.num_vars() as usize;
    let mut best_size = m.size(f);
    if n >= 2 && window >= 2 {
        m.protect(f);
        let window = window.min(n);
        // size(f) depends only on the *relative* order of f's support
        // variables, so a window holding fewer than two of them cannot
        // change it — skip those positions instead of probing shuffles of
        // foreign levels. (Support is a set of variable identities,
        // stable across every swap.)
        let mut in_support = vec![false; n];
        for v in m.support(f) {
            if v.index() < n {
                in_support[v.index()] = true;
            }
        }
        for _ in 0..max_sweeps {
            let mut improved = false;
            for start in 0..=(n - window) {
                let slice: Vec<u32> = m.level2var()[start..start + window].to_vec();
                let support_vars = slice.iter().filter(|&&v| in_support[v as usize]).count();
                if support_vars < 2 {
                    continue;
                }
                // Probe every other arrangement of the window's variables.
                let mut best_slice = slice.clone();
                for (cand, s) in window_sizes(m, f, start, window) {
                    if cand == slice {
                        continue;
                    }
                    debug_assert_eq!(
                        s,
                        m.size_under(f, &renaming(n, &slice, &cand)),
                        "window probe must equal the rebuilt size"
                    );
                    if s < best_size {
                        best_size = s;
                        best_slice = cand;
                        improved = true;
                    }
                }
                if best_slice != slice {
                    // Install the winner for real, by adjacent swaps. The
                    // probe promised this size; the in-place machinery must
                    // deliver exactly it (canonicity makes them equal).
                    restore_window(m, start, &best_slice);
                    debug_assert_eq!(m.size(f), best_size, "probe and swap must agree");
                }
                // Let the manager recycle what the swaps displaced.
                m.maybe_collect();
            }
            if !improved {
                break;
            }
        }
        m.release(f);
    }
    let perm = m.var2level().to_vec();
    debug_assert!(is_permutation(&perm));
    Reordered {
        perm,
        function: f,
        size: m.size(f),
    }
}

/// The variable renaming under which [`Manager::size_under`] measures the
/// order that seats `cand[i]` where `slice[i]` sits now: `cand[i]` is
/// renamed to behave as `slice[i]`.
fn renaming(n: usize, slice: &[u32], cand: &[u32]) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for (&v, &s) in cand.iter().zip(slice) {
        perm[v as usize] = s;
    }
    perm
}

/// Rudell sifting scoped to a caller's function: protects `f`, runs one
/// sift pass actively moving only `f`'s support variables (the metric is
/// still the whole protected-root size, so other protected functions are
/// never sacrificed), and reports the order it installed. Like
/// [`window_reorder`] this is in place: the returned `function` is the
/// `f` that was passed in. The pass collects (see [`Manager::sift`]), so
/// call it only at quiescent points.
pub fn sift_reorder(m: &mut Manager, f: Ref, cfg: &SiftConfig) -> Reordered {
    m.protect(f);
    let support = m.support(f);
    m.sift_vars(cfg, &support);
    m.release(f);
    let perm = m.var2level().to_vec();
    debug_assert!(is_permutation(&perm));
    Reordered {
        perm,
        function: f,
        size: m.size(f),
    }
}

/// [`sift_reorder`] to convergence: protects `f` and repeats
/// budget-relaxed sift passes over its support
/// ([`Manager::sift_to_fixpoint`]'s contract, scoped like
/// [`Manager::sift_vars`]) until a pass improves the rooted size by less
/// than [`ConvergeConfig::min_gain`]. The converged size is never worse
/// than a single pass's — each pass parks every variable at its best
/// seen position, its start included. In place, and collecting, like
/// [`sift_reorder`].
pub fn sift_converge_reorder(m: &mut Manager, f: Ref, cfg: &ConvergeConfig) -> Reordered {
    m.protect(f);
    let support = m.support(f);
    m.sift_to_fixpoint_filtered(cfg, Some(&support));
    m.release(f);
    let perm = m.var2level().to_vec();
    debug_assert!(is_permutation(&perm));
    Reordered {
        perm,
        function: f,
        size: m.size(f),
    }
}

/// Bubbles the levels `[start, start + target.len())` into the variable
/// order given by `target` using adjacent swaps.
fn restore_window(m: &mut Manager, start: usize, target: &[u32]) {
    for (i, &want) in target.iter().enumerate() {
        let mut pos = (start + i..start + target.len())
            .find(|&p| m.level2var()[p] == want)
            .expect("window restore target must be a reordering of the window");
        while pos > start + i {
            m.swap_levels((pos - 1) as u32);
            pos -= 1;
        }
    }
}

/// All permutations of a small slice (window ≤ 4 in practice).
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

/// Inverts a **position → value** list into a **value → position** list
/// (and vice versa — inversion is an involution): given
/// `map[pos] = val`, returns `inv` with `inv[val] = pos`. Used to flip a
/// `level2var` view into a `var2level` view of the same order.
///
/// # Panics
///
/// In debug builds, panics if `map` is not a permutation.
pub fn invert(map: &[u32]) -> Vec<u32> {
    debug_assert!(is_permutation(map), "invert: input must be a permutation");
    let mut inv = vec![0u32; map.len()];
    for (pos, &val) in map.iter().enumerate() {
        inv[val as usize] = pos as u32;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic order-sensitive function: x0·x1 + x2·x3 + x4·x5 is
    /// linear in the good order and exponential in the interleaved order.
    fn chain_and_or(m: &mut Manager, pairs: &[(u32, u32)]) -> Ref {
        let mut f = m.zero();
        for &(a, b) in pairs {
            let va = m.var(a);
            let vb = m.var(b);
            let ab = m.and(va, vb);
            f = m.or(f, ab);
        }
        f
    }

    #[test]
    fn permute_is_function_renaming() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        m.var(2);
        let f = m.ite(a, b, c);
        // Swap variables 1 and 2: ite(a, c, b).
        let g = m.permute(f, &[0, 2, 1]);
        let expect = m.ite(a, c, b);
        assert_eq!(g, expect);
    }

    #[test]
    fn permute_identity_is_noop() {
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..5).map(|i| m.var(i)).collect();
        let f = m.xor_all(vars);
        assert_eq!(m.permute(f, &[0, 1, 2, 3, 4]), f);
    }

    #[test]
    fn bad_order_is_exponentially_larger() {
        let mut m = Manager::new();
        for i in 0..6 {
            m.var(i);
        }
        let good = chain_and_or(&mut m, &[(0, 1), (2, 3), (4, 5)]);
        let bad = chain_and_or(&mut m, &[(0, 3), (1, 4), (2, 5)]);
        assert!(m.size(bad) > m.size(good), "interleaving must cost nodes");
        assert_eq!(m.size(good), 6);
    }

    #[test]
    fn window_reorder_recovers_good_order_in_place() {
        let mut m = Manager::new();
        for i in 0..6 {
            m.var(i);
        }
        // Interleaved pairing: worst case for the identity order.
        let bad = chain_and_or(&mut m, &[(0, 3), (1, 4), (2, 5)]);
        m.protect(bad);
        let before = m.size(bad);
        let result = window_reorder(&mut m, bad, 3, 8);
        assert!(
            result.size < before,
            "window reordering must shrink {before} nodes (got {})",
            result.size
        );
        assert_eq!(result.size, 6, "optimal pairing order reachable");
        // In-place: the same Ref, same function, new order installed.
        assert_eq!(result.function, bad);
        assert_eq!(m.size(bad), result.size);
        assert_eq!(result.perm, m.var2level().to_vec());
        for row in 0..64u32 {
            let assignment: Vec<bool> = (0..6).map(|i| row >> i & 1 == 1).collect();
            let want = (assignment[0] && assignment[3])
                || (assignment[1] && assignment[4])
                || (assignment[2] && assignment[5]);
            assert_eq!(m.eval(bad, &assignment), want, "row {row}");
        }
        m.release(bad);
    }

    #[test]
    fn window_reorder_on_symmetric_function_is_stable() {
        // Parity is order-independent: reordering must change nothing.
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..8).map(|i| m.var(i)).collect();
        let f = m.xor_all(vars);
        let before = m.size(f);
        let result = window_reorder(&mut m, f, 3, 4);
        assert_eq!(result.size, before);
        assert_eq!(result.function, f);
    }

    #[test]
    fn sift_reorder_matches_window_quality_on_pairing() {
        let mut m = Manager::new();
        for i in 0..6 {
            m.var(i);
        }
        let bad = chain_and_or(&mut m, &[(0, 3), (1, 4), (2, 5)]);
        let before = m.size(bad);
        let result = sift_reorder(&mut m, bad, &SiftConfig::default());
        assert_eq!(result.function, bad, "sift is in place");
        assert!(result.size < before, "{before} -> {}", result.size);
        assert_eq!(result.size, 6);
        assert_eq!(result.perm, m.var2level().to_vec());
    }

    #[test]
    fn permutations_enumerates_factorial() {
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
        assert_eq!(permutations(&[1]).len(), 1);
        let perms = permutations(&[1, 2, 3, 4]);
        assert_eq!(perms.len(), 24);
        let unique: std::collections::HashSet<_> = perms.into_iter().collect();
        assert_eq!(unique.len(), 24, "no duplicates");
    }

    #[test]
    fn invert_roundtrips_and_flips_direction() {
        let level2var = vec![2u32, 0, 3, 1]; // level -> var
        let var2level = invert(&level2var); // var -> level
        assert_eq!(var2level, vec![1, 3, 0, 2]);
        assert_eq!(invert(&var2level), level2var, "inversion is an involution");
    }
}
