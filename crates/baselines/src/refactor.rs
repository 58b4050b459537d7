//! AIG refactoring: shared-literal factoring, the `rewrite`-ish third leg
//! of the ABC-like script.
//!
//! The single rule is the classic distributivity factorization
//! `a·b + a·c = a·(b + c)`, detected on the AIG as an AND of two
//! complemented AND children sharing a literal. Applied in a rebuild pass
//! (not during construction) so it cannot recurse unboundedly.

use crate::aig::{Aig, AigRef};

impl Aig {
    /// Returns a refactored copy with shared-literal factorizations
    /// applied bottom-up.
    pub fn refactored(&self) -> Aig {
        let (mut out, mut map) = self.rebuild_start();
        let outputs: Vec<(String, AigRef)> = self.outputs().to_vec();
        for (name, r) in outputs {
            let nr = rebuild(self, &mut out, r, &mut map);
            out.set_output(name, nr);
        }
        out
    }
}

fn rebuild(src: &Aig, dst: &mut Aig, r: AigRef, map: &mut [AigRef]) -> AigRef {
    let reg = r.regular_edge();
    let m = map[reg.node() as usize];
    if m != AigRef::UNMAPPED {
        return m.apply_complement(r.is_complemented_edge());
    }
    let (a, b) = src
        .and_children(reg)
        .expect("unmapped edge must be an AND node");
    let na = rebuild(src, dst, a, map);
    let nb = rebuild(src, dst, b, map);
    let result = factored_and(dst, na, nb);
    map[reg.node() as usize] = result;
    result.apply_complement(r.is_complemented_edge())
}

/// AND with one level of shared-literal factoring:
/// `!AND(p,q) · !AND(p,s)` (an OR of two ANDs, complemented) becomes
/// `!AND(p, !AND(!q,!s))` — one node fewer and often more sharing.
fn factored_and(dst: &mut Aig, x: AigRef, y: AigRef) -> AigRef {
    if x.is_complemented_edge() && y.is_complemented_edge() {
        if let (Some((p1, q1)), Some((p2, q2))) = (
            dst.and_children(x.regular_edge()),
            dst.and_children(y.regular_edge()),
        ) {
            // Find a shared literal between {p1,q1} and {p2,q2}.
            let shared = [
                (p1, q1, p2, q2),
                (q1, p1, p2, q2),
                (p1, q1, q2, p2),
                (q1, p1, q2, p2),
            ]
            .into_iter()
            .find(|(s, _, s2, _)| s == s2);
            if let Some((a, b, _, c)) = shared {
                // x·y = !(a·b) · !(a·c) = !(a·b + a·c) = !(a·(b+c))
                //     = !AND(a, !AND(!b, !c)).
                let t = dst.and(!b, !c);
                let inner = dst.and(a, !t);
                return !inner;
            }
        }
    }
    dst.and(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{equiv_sim, GateKind, Network, SignalId};

    #[test]
    fn factoring_preserves_function() {
        // y = a·b + a·c + a·d — rich in shared literals.
        let mut net = Network::new("fact");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let ab = net.add_gate(GateKind::And, vec![a, b]);
        let ac = net.add_gate(GateKind::And, vec![a, c]);
        let ad = net.add_gate(GateKind::And, vec![a, d]);
        let o1 = net.add_gate(GateKind::Or, vec![ab, ac]);
        let y = net.add_gate(GateKind::Or, vec![o1, ad]);
        net.set_output("y", y);
        let aig = Aig::from_network(&net);
        let refactored = aig.refactored();
        let back = refactored.to_network();
        assert_eq!(equiv_sim(&net, &back, 16, 21), Ok(()));
    }

    #[test]
    fn factoring_reduces_and_count() {
        // a·b + a·c: 3 ANDs raw, 2 after factoring.
        let mut aig = Aig::new("t");
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let ac = aig.and(a, c);
        let or = aig.or(ab, ac);
        aig.set_output("y", or);
        assert_eq!(aig.and_count(), 3);
        let refactored = aig.refactored();
        assert_eq!(refactored.and_count(), 2, "a·(b+c) needs two ANDs");
    }

    #[test]
    fn factoring_is_idempotent_when_nothing_matches() {
        let mut aig = Aig::new("t");
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.and(a, b);
        aig.set_output("y", ab);
        let r = aig.refactored();
        assert_eq!(r.and_count(), 1);
    }

    #[test]
    fn random_networks_survive_refactoring() {
        use logic::XorShift64;
        let mut rng = XorShift64::new(31);
        for round in 0..12 {
            let mut net = Network::new("rand");
            let mut pool: Vec<SignalId> = (0..5).map(|i| net.add_input(format!("i{i}"))).collect();
            for _ in 0..24 {
                let a = pool[(rng.next_u64() % pool.len() as u64) as usize];
                let b = pool[(rng.next_u64() % pool.len() as u64) as usize];
                let kind = match rng.next_u64() % 4 {
                    0 => GateKind::And,
                    1 => GateKind::Or,
                    2 => GateKind::Xor,
                    _ => GateKind::Inv,
                };
                let s = if matches!(kind, GateKind::Inv) {
                    net.add_gate(kind, vec![a])
                } else if a == b {
                    net.add_gate(GateKind::Inv, vec![a])
                } else {
                    net.add_gate(kind, vec![a, b])
                };
                pool.push(s);
            }
            let y = *pool.last().unwrap();
            net.set_output("y", y);
            let aig = Aig::from_network(&net);
            let back = aig.refactored().to_network();
            assert_eq!(equiv_sim(&net, &back, 8, round), Ok(()), "round {round}");
        }
    }
}
