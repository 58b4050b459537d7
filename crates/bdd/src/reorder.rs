//! Variable reordering: the adjacent-level swap primitive, the window
//! search built on it, and the permutation-rebuild oracle.
//!
//! The BDS decomposition engine reorders each local BDD before searching
//! for dominators (§IV-B of the BDS-MAJ paper: "As a first step, it
//! performs variable reordering to compact the size of the input BDD").
//! Since variables are decoupled from levels, reordering never copies
//! the function: [`Manager::swap_levels`] patches the affected nodes in
//! place, so every outstanding [`Ref`] (the function under search
//! included) keeps denoting the same Boolean function, and only its node
//! count changes.
//!
//! [`window_reorder`] is the engine's per-cone pass. It scores candidate
//! arrangements without building a node. Permuting the variables of
//! levels `[start, start + w)` changes only the nodes at those levels,
//! and the nodes there under any arrangement are fixed by the *boundary
//! tables*: the cofactors, over the `2^w` window assignments, of each
//! edge that enters the window from above. Counting the distinct
//! complement-normalized sub-tables each candidate level depends on gives
//! the candidate's window population, and
//! `size(f) − count(current) + count(candidate)` is exactly what a
//! rebuild would measure. Probes therefore leave no garbage behind; only
//! a winning arrangement pays the swap primitive.
//!
//! Many windows need no probe at all. Every support variable of `f`
//! labels at least one node of `f` under any order, and permuting a
//! window changes only the nodes at the window's levels, so a window
//! whose levels hold exactly one node per support variable in it is at
//! its *floor*: no arrangement of it is strictly smaller, and the search
//! installs only strictly smaller ones. [`window_reorder`] skips such
//! windows, and returns at once when `size(f)` equals the support size,
//! where every window is at its floor. Both skips change no decision;
//! debug builds probe the skipped windows anyway and assert it.
//!
//! [`Manager::permute`] is the *renaming* primitive: it builds a
//! genuinely different function (the composition with a variable
//! substitution). Its one in-crate use is as the oracle the window probe
//! is checked against in debug builds ([`Manager::size_under`], on a
//! [`Manager::copy_to_fresh`] copy).

use crate::hasher::BuildFxHasher;
use crate::manager::{Manager, Node};
use crate::reference::{NodeId, Ref, Var};
use crate::store::FREE_VAR;
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
    /// BDD is built and measured; its nodes stay in the arena until the
    /// next [`Manager::clear`]).
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
/// building a node (see the module docs). [`WindowProbe::fill`] tabulates
/// a position; the buffers are kept for the next one.
#[derive(Default)]
struct WindowProbe {
    width: usize,
    /// `f`'s size under the current order.
    size: usize,
    /// `f`'s nodes above and below the window: every arrangement keeps
    /// them.
    outside: usize,
    /// The distinct edges that enter the window from above.
    entering: Vec<Ref>,
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
    fn fill(&mut self, m: &Manager, f: Ref, start: usize, width: usize) {
        let (top, bottom) = (start as u32, (start + width) as u32);
        let in_window = |level: u32| (top..bottom).contains(&level);
        let entering = &mut self.entering;
        entering.clear();
        if in_window(m.level(f)) {
            entering.push(f);
        }
        let (mut size, mut outside) = (0, 0);
        m.walk(&[f], |_, n| {
            size += 1;
            let level = m.level_of_var(n.var);
            if !in_window(level) {
                outside += 1;
            }
            if level < top {
                for child in [n.low, n.high] {
                    if in_window(m.level(child)) {
                        entering.push(child);
                    }
                }
            }
        });
        entering.sort_unstable();
        entering.dedup();
        let rows = 1usize << width;
        self.tables.clear();
        for &g in &self.entering {
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
                self.tables.push(e);
            }
        }
        (self.width, self.size, self.outside) = (width, size, outside);
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
    let mut probe = WindowProbe::default();
    probe.fill(m, f, start, width);
    permutations(&(0..width as u32).collect::<Vec<u32>>())
        .into_iter()
        .map(|order| {
            let size = probe.size_with(&order);
            (order.iter().map(|&p| slice[p as usize]).collect(), size)
        })
        .collect()
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
/// assert the two agree, rebuilding in a [`Manager::copy_to_fresh`] copy
/// so that the check adds no node to `m`). Only a winning arrangement
/// pays the swap primitive, whose cost scales with the whole arena, and
/// the probes build no node. A flow that meets the same function under
/// the same order again can skip this search and [`install_order`] the
/// order it left the first time; the BDS engine replays such cones, so
/// this search sees each (function, order) pair of a run once.
///
/// Windows at their floor are not probed. The search keeps the number of
/// `f`'s nodes at each level (one walk, redone after each installed
/// arrangement), and a window whose levels hold one node per support
/// variable in it is skipped; a call where `size(f)` equals the support
/// size returns at once. This is exact: every support variable labels a
/// node of `f` under any order, and permuting a window changes only the
/// nodes at its levels, so such a window has no strictly smaller
/// arrangement, and only a strictly smaller one is installed. Debug
/// builds probe the skipped windows anyway (with the same probe, so they
/// build no node in `m`) and assert that no arrangement is smaller.
///
/// The search runs in place: `f` keeps its `Ref` and its function, and
/// the minimizing order is left installed in the manager — which also
/// re-shapes every other function in the arena, as dynamic reordering
/// always does. The BDS engine clears the arena before each cone
/// ([`Manager::clear`]), so there its swaps rewrite only the cone's own
/// nodes. Returns the size `f` is left at.
pub fn window_reorder(m: &mut Manager, f: Ref, window: usize, max_sweeps: usize) -> usize {
    let n = m.num_vars() as usize;
    // Nodes of f per level. A level holds one exactly when its variable is
    // in f's support, so the counts also give the support.
    let mut counts = Vec::new();
    level_counts(m, f, &mut counts);
    let mut best_size = counts.iter().sum::<u32>() as usize;
    let support_size = counts.iter().filter(|&&c| c > 0).count();
    if n < 2 || window < 2 || (best_size == support_size && !cfg!(debug_assertions)) {
        return best_size;
    }
    let window = window.min(n);
    // Window arrangements as level offsets; the first is the identity.
    let orders = permutations(&(0..window as u32).collect::<Vec<u32>>());
    let mut probe = WindowProbe::default();
    for _ in 0..max_sweeps {
        let mut improved = false;
        for start in 0..=(n - window) {
            let levels = &counts[start..start + window];
            // size(f) depends only on the *relative* order of f's support
            // variables, so a window holding fewer than two of them cannot
            // change it — skip those positions instead of probing shuffles
            // of foreign levels.
            let support_vars = levels.iter().filter(|&&c| c > 0).count();
            if support_vars < 2 {
                continue;
            }
            let floor = levels.iter().sum::<u32>() as usize == support_vars;
            if floor && !cfg!(debug_assertions) {
                continue;
            }
            // Probe every other arrangement of the window's variables.
            probe.fill(m, f, start, window);
            let mut best = None;
            for (k, order) in orders.iter().enumerate().skip(1) {
                let s = probe.size_with(order);
                debug_assert_eq!(
                    s,
                    {
                        let slice = &m.level2var()[start..start + window];
                        let cand: Vec<u32> = order.iter().map(|&p| slice[p as usize]).collect();
                        let (mut copy, g) = m.copy_to_fresh(&[f]);
                        copy.size_under(g[0], &renaming(n, slice, &cand))
                    },
                    "window probe must equal the size rebuilt in a copy"
                );
                if s < best_size {
                    best_size = s;
                    best = Some(k);
                }
            }
            debug_assert!(
                !floor || best.is_none(),
                "the floor window at level {start} has a smaller arrangement"
            );
            if let Some(k) = best {
                // Install the winner for real, by adjacent swaps. The
                // probe promised this size; the in-place machinery must
                // deliver exactly it (canonicity makes them equal).
                let target: Vec<u32> = orders[k]
                    .iter()
                    .map(|&p| m.level2var()[start + p as usize])
                    .collect();
                restore_window(m, start, &target);
                debug_assert_eq!(m.size(f), best_size, "probe and swap must agree");
                level_counts(m, f, &mut counts);
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    best_size
}

/// Sets `counts[l]` to the number of `f`'s nodes at level `l`.
fn level_counts(m: &Manager, f: Ref, counts: &mut Vec<u32>) {
    m.with_level_profile(f, |rows| {
        counts.clear();
        counts.extend(rows.iter().map(|row| row.count));
    });
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

/// Installs the level order `level2var` (`level2var[l]` is the variable
/// seated at level `l`) in place by adjacent [`Manager::swap_levels`]
/// calls, as many as the two orders have inversions; installing the
/// current order swaps nothing. Like every swap, it keeps each [`Ref`]'s
/// function and may leave displaced nodes in the arena until the next
/// [`Manager::clear`]; on an empty arena it only permutes the order maps.
///
/// # Panics
///
/// Panics if `level2var` is not a permutation of the manager's variables.
pub fn install_order(m: &mut Manager, level2var: &[u32]) {
    assert_eq!(
        level2var.len(),
        m.num_vars() as usize,
        "install_order: the order must seat every variable"
    );
    restore_window(m, 0, level2var);
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

/// All permutations of a small slice (window ≤ 4 in practice), the
/// slice's own order first.
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

impl Manager {
    /// Exchanges level `level` with level `level + 1` *in place*.
    ///
    /// Only the nodes at the upper level whose children sit at the lower
    /// level are rewritten; their arena slots are patched (detached from
    /// the unique table, re-expressed over the swapped order, re-inserted),
    /// so every outstanding [`Ref`] keeps denoting the same Boolean
    /// function across the swap — nothing dangles. Displaced lower-level
    /// nodes stay in the arena, unreferenced, until the next
    /// [`Manager::clear`]. When any node is rewritten, the computed cache
    /// is cleared (an O(1) generation bump).
    ///
    /// The upper level's nodes are found by one scan of the arena, so the
    /// cost is proportional to the arena: in a flow that clears between
    /// cones, to one cone's working set.
    ///
    /// Returns the number of rewritten nodes.
    ///
    /// # Panics
    ///
    /// Panics if `level + 1 >= num_vars`.
    pub fn swap_levels(&mut self, level: u32) -> usize {
        let l = level as usize;
        assert!(
            l + 1 < self.level2var.len(),
            "swap_levels: level {level} out of range ({} variables)",
            self.level2var.len()
        );
        // Swap accounting lives at the primitive, so window installs and
        // direct callers are all counted (see `sift_swaps`).
        self.sift_swaps += 1;
        let x = self.level2var[l];
        let y = self.level2var[l + 1];
        // Only upper-level nodes referencing the lower level change shape;
        // everything else is order-independent under an adjacent swap.
        let var_of = |r: Ref| self.nodes[r.node().index()].var.0;
        let moved: Vec<(u32, Node)> = (1u32..)
            .zip(&self.nodes[1..])
            .filter(|(_, n)| n.var.0 == x && (var_of(n.low) == y || var_of(n.high) == y))
            .map(|(slot, &n)| (slot, n))
            .collect();
        // The order maps swap unconditionally.
        self.level2var.swap(l, l + 1);
        self.var2level[x as usize] = (l + 1) as u32;
        self.var2level[y as usize] = l as u32;
        if moved.is_empty() {
            return 0;
        }
        // Detach the rewritten slots from the unique table (backward-shift
        // deletion) and park them so a mid-rewrite table growth cannot
        // re-insert a stale triple; their identities are kept.
        for &(i, ref n) in &moved {
            self.remove_slot(i, n);
            self.nodes[i as usize].var = Var(FREE_VAR);
        }
        let (xv, yv) = (Var(x), Var(y));
        for &(i, n) in &moved {
            // f = x·f1 + x'·f0 = y·(x·f11 + x'·f01) + y'·(x·f10 + x'·f00).
            let (f00, f01) = self.shallow_cofactors(n.low, yv);
            let (f10, f11) = self.shallow_cofactors(n.high, yv);
            let new_low = self.mk(xv, f00, f10);
            let new_high = self.mk(xv, f01, f11);
            // `f11` is a cofactor of the regular `n.high`, hence regular,
            // so the patched 1-edge stays regular; and the children cannot
            // collapse (that would need `f0 == f1`).
            debug_assert!(
                !new_high.is_complemented(),
                "swap: 1-edge must stay regular"
            );
            debug_assert_ne!(new_low, new_high, "swap: a rewritten node cannot vanish");
            self.nodes[i as usize] = Node {
                var: yv,
                low: new_low,
                high: new_high,
            };
            self.insert_slot(i);
        }
        // Restrict results and node substitutions depend on the variable
        // order (the latter on which nodes reach the target), so the memo
        // goes, in O(1).
        self.cache.clear();
        moved.len()
    }
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
        let before = m.size(bad);
        let size = window_reorder(&mut m, bad, 3, 8);
        assert!(
            size < before,
            "window reordering must shrink {before} nodes (got {size})"
        );
        assert_eq!(size, 6, "optimal pairing order reachable");
        // In-place: the same Ref, same function, new order installed.
        assert_eq!(m.size(bad), size);
        assert_ne!(m.var2level(), &[0, 1, 2, 3, 4, 5], "the order moved");
        for row in 0..64u32 {
            let assignment: Vec<bool> = (0..6).map(|i| row >> i & 1 == 1).collect();
            let want = (assignment[0] && assignment[3])
                || (assignment[1] && assignment[4])
                || (assignment[2] && assignment[5]);
            assert_eq!(m.eval(bad, &assignment), want, "row {row}");
        }
    }

    #[test]
    fn window_reorder_on_symmetric_function_is_stable() {
        // Parity is order-independent: reordering must change nothing.
        let mut m = Manager::new();
        let vars: Vec<Ref> = (0..8).map(|i| m.var(i)).collect();
        let f = m.xor_all(vars);
        let before = m.size(f);
        assert_eq!(window_reorder(&mut m, f, 3, 4), before);
        assert_eq!(m.size(f), before);
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
    fn swap_levels_preserves_refs_and_functions() {
        let mut m = Manager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let f = m.ite(a, b, c);
        let g = m.and(a, c);
        let truth = |m: &Manager, f: Ref| -> u32 {
            let mut t = 0;
            for row in 0..8u32 {
                let assignment: Vec<bool> = (0..3).map(|i| row >> i & 1 == 1).collect();
                if m.eval(f, &assignment) {
                    t |= 1 << row;
                }
            }
            t
        };
        let (tf, tg) = (truth(&m, f), truth(&m, g));
        let moved = m.swap_levels(0);
        assert!(moved > 0, "the root of f branches into level 1");
        assert_eq!(m.var2level(), &[1, 0, 2]);
        assert_eq!(m.level2var(), &[1, 0, 2]);
        // The same Refs still denote the same functions.
        assert_eq!(truth(&m, f), tf);
        assert_eq!(truth(&m, g), tg);
        // Canonicity holds under the new order: recomputing returns the
        // identical Refs.
        assert_eq!(m.ite(a, b, c), f);
        assert_eq!(m.and(a, c), g);
        // Swapping back restores the identity order and the functions.
        m.swap_levels(0);
        assert_eq!(m.var2level(), &[0, 1, 2]);
        assert_eq!(truth(&m, f), tf);
        assert_eq!(m.ite(a, b, c), f);
    }

    #[test]
    fn swap_levels_without_interaction_moves_no_nodes() {
        let mut m = Manager::new();
        let a = m.var(0);
        m.var(1);
        let c = m.var(2);
        let f = m.and(a, c); // nothing at level 0 references level 1
        assert_eq!(m.swap_levels(0), 0);
        assert_eq!(m.var2level(), &[1, 0, 2]);
        assert_eq!(m.and(a, c), f, "untouched nodes stay canonical");
    }
}
