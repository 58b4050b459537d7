//! Technology mapping onto the six-cell library, following the paper's
//! two-step scheme (§V-B.1): MAJ, XOR and XNOR nodes are assigned directly
//! to their cells (so the functions highlighted by decomposition are not
//! hidden again), and the AND/OR/MUX remainder is covered with
//! NAND/NOR/INV structures with inverter minimization.

use crate::library::CellKind;
use logic::{
    strash_key, BuildFxHasher, Fanins, GateKind, Network, SignalId, TruthTable, STRASH_PAD,
};
use std::collections::HashMap;

/// Structural-hash table over emitted cells, keyed by the allocation-free
/// fixed-arity arrays built by [`logic::strash_key`].
type Strash = HashMap<(u8, [SignalId; 3]), SignalId, BuildFxHasher>;

/// A technology-mapped netlist: a [`Network`] whose logic nodes are
/// restricted to the six library cells, plus the kind annotation per node.
#[derive(Clone, Debug)]
pub struct MappedNetwork {
    /// The mapped netlist (gates: INV/NAND/NOR/XOR/XNOR/MAJ only).
    pub network: Network,
}

impl MappedNetwork {
    /// Cell kind of a node, or `None` for inputs and constants.
    pub fn cell_of(net: &Network, id: SignalId) -> Option<CellKind> {
        match net.node(id).kind {
            GateKind::Inv => Some(CellKind::Inv),
            GateKind::Nand => Some(CellKind::Nand2),
            GateKind::Nor => Some(CellKind::Nor2),
            GateKind::Xor => Some(CellKind::Xor2),
            GateKind::Xnor => Some(CellKind::Xnor2),
            GateKind::Maj => Some(CellKind::Maj3),
            _ => None,
        }
    }
}

/// Maps an optimized logic network onto the library cells.
///
/// Accepts any [`Network`]; n-ary gates are binarized into balanced trees,
/// MUX and LUT nodes are expanded into AND/OR structures first, then
/// AND → NAND+INV and OR → NOR+INV with a double-inverter cleanup pass.
pub fn map_network(net: &Network) -> MappedNetwork {
    // The ABC mapper the paper uses restructures associative chains while
    // covering; do the same before the cell assignment.
    let net = &logic::balance_network(net);
    let mut out = Network::new(format!("{}_mapped", net.name()));
    // old signal -> new signal; STRASH_PAD until mapped
    let mut map = vec![STRASH_PAD; net.len()];
    let mut strash = Strash::default();

    for &pi in net.inputs() {
        map[pi.index()] = out.add_input(net.signal_name(pi));
    }
    for id in net.signals() {
        if map[id.index()] != STRASH_PAD {
            continue;
        }
        let node = net.node(id);
        let fanins: Fanins = node.fanins.iter().map(|f| map[f.index()]).collect();
        map[id.index()] = emit_kind(&mut out, &node.kind, fanins, &mut strash);
    }
    for (name, s) in net.outputs() {
        out.set_output(name.clone(), map[s.index()]);
    }
    MappedNetwork {
        network: out.cleaned(),
    }
}

/// Structural-hashing emit: all library cells are commutative, so fanins
/// are sorted into the key; a hit allocates nothing.
fn hashed(net: &mut Network, strash: &mut Strash, kind: GateKind, fanins: &[SignalId]) -> SignalId {
    let mut padded = [STRASH_PAD; 3];
    let sorted = &mut padded[..fanins.len()];
    sorted.copy_from_slice(fanins);
    sorted.sort_unstable();
    *strash
        .entry(strash_key(&kind, sorted))
        .or_insert_with(|| net.add_gate(kind, &*sorted))
}

fn inv(net: &mut Network, strash: &mut Strash, x: SignalId) -> SignalId {
    if let GateKind::Inv = net.node(x).kind {
        return net.node(x).fanins[0];
    }
    hashed(net, strash, GateKind::Inv, &[x])
}

fn and2(net: &mut Network, strash: &mut Strash, a: SignalId, b: SignalId) -> SignalId {
    let n = hashed(net, strash, GateKind::Nand, &[a, b]);
    inv(net, strash, n)
}

fn or2(net: &mut Network, strash: &mut Strash, a: SignalId, b: SignalId) -> SignalId {
    let n = hashed(net, strash, GateKind::Nor, &[a, b]);
    inv(net, strash, n)
}

/// Reduces an n-ary associative operation with a balanced tree: each
/// round pairs neighbours left to right (an odd last operand passes
/// through), writing the round's results over the front of `args`.
fn tree(
    net: &mut Network,
    strash: &mut Strash,
    args: &mut [SignalId],
    op: &dyn Fn(&mut Network, &mut Strash, SignalId, SignalId) -> SignalId,
) -> SignalId {
    assert!(!args.is_empty());
    let mut len = args.len();
    while len > 1 {
        for i in 0..len / 2 {
            args[i] = op(net, strash, args[2 * i], args[2 * i + 1]);
        }
        if len % 2 == 1 {
            args[len / 2] = args[len - 1];
        }
        len = len.div_ceil(2);
    }
    args[0]
}

fn emit_kind(
    net: &mut Network,
    kind: &GateKind,
    mut fanins: Fanins,
    strash: &mut Strash,
) -> SignalId {
    match kind {
        GateKind::Input => unreachable!("inputs pre-mapped"),
        GateKind::Const(b) => net.add_const(*b),
        GateKind::Inv => inv(net, strash, fanins[0]),
        GateKind::And => tree(net, strash, &mut fanins, &and2),
        GateKind::Nand => {
            if fanins.len() == 2 {
                hashed(net, strash, GateKind::Nand, &fanins)
            } else {
                let a = tree(net, strash, &mut fanins, &and2);
                inv(net, strash, a)
            }
        }
        GateKind::Or => tree(net, strash, &mut fanins, &or2),
        GateKind::Nor => {
            if fanins.len() == 2 {
                hashed(net, strash, GateKind::Nor, &fanins)
            } else {
                let o = tree(net, strash, &mut fanins, &or2);
                inv(net, strash, o)
            }
        }
        GateKind::Xor => tree(net, strash, &mut fanins, &|net, st, a, b| {
            hashed(net, st, GateKind::Xor, &[a, b])
        }),
        GateKind::Xnor => {
            // Parity complement: XOR-tree with one XNOR at the root.
            let n = fanins.len();
            if n == 1 {
                return inv(net, strash, fanins[0]);
            }
            let last = fanins[n - 1];
            let left = tree(net, strash, &mut fanins[..n - 1], &|net, st, a, b| {
                hashed(net, st, GateKind::Xor, &[a, b])
            });
            hashed(net, strash, GateKind::Xnor, &[left, last])
        }
        GateKind::Maj => hashed(net, strash, GateKind::Maj, &fanins),
        GateKind::Mux => {
            // sel·t + sel'·e as NAND-NAND: NAND(NAND(s,t), NAND(s',e)).
            let (s, t, e) = (fanins[0], fanins[1], fanins[2]);
            let ns = inv(net, strash, s);
            let n1 = hashed(net, strash, GateKind::Nand, &[s, t]);
            let n2 = hashed(net, strash, GateKind::Nand, &[ns, e]);
            hashed(net, strash, GateKind::Nand, &[n1, n2])
        }
        GateKind::Lut(table) => emit_lut(net, table, &fanins, strash),
    }
}

/// Shannon-expands a LUT into MUX structures over its inputs.
fn emit_lut(
    net: &mut Network,
    table: &TruthTable,
    fanins: &[SignalId],
    strash: &mut Strash,
) -> SignalId {
    fn expand(
        net: &mut Network,
        table: &TruthTable,
        fanins: &[SignalId],
        strash: &mut Strash,
        fixed: usize,
        row: usize,
        consts: &mut HashMap<bool, SignalId>,
    ) -> (Option<bool>, Option<SignalId>) {
        if fixed == fanins.len() {
            return (Some(table.value(row)), None);
        }
        let i = fanins.len() - 1 - fixed;
        let (hc, hs) = expand(net, table, fanins, strash, fixed + 1, row | 1 << i, consts);
        let (lc, ls) = expand(net, table, fanins, strash, fixed + 1, row, consts);
        let sel = fanins[i];
        // Constant-aware MUX construction.
        match (hc, lc) {
            (Some(h), Some(l)) if h == l => (Some(h), None),
            (Some(true), Some(false)) => (None, Some(sel)),
            (Some(false), Some(true)) => (None, Some(inv(net, strash, sel))),
            _ => {
                let hi = hs.unwrap_or_else(|| {
                    *consts
                        .entry(hc.unwrap())
                        .or_insert_with(|| net.add_const(hc.unwrap()))
                });
                let lo = ls.unwrap_or_else(|| {
                    *consts
                        .entry(lc.unwrap())
                        .or_insert_with(|| net.add_const(lc.unwrap()))
                });
                let s = match (hc, lc) {
                    (Some(true), None) => {
                        // sel + lo
                        or2(net, strash, sel, lo)
                    }
                    (Some(false), None) => {
                        // sel'·lo
                        let ns = inv(net, strash, sel);
                        and2(net, strash, ns, lo)
                    }
                    (None, Some(true)) => {
                        // sel' + hi
                        let ns = inv(net, strash, sel);
                        or2(net, strash, ns, hi)
                    }
                    (None, Some(false)) => and2(net, strash, sel, hi),
                    _ => {
                        let ns = inv(net, strash, sel);
                        let n1 = hashed(net, strash, GateKind::Nand, &[sel, hi]);
                        let n2 = hashed(net, strash, GateKind::Nand, &[ns, lo]);
                        hashed(net, strash, GateKind::Nand, &[n1, n2])
                    }
                };
                (None, Some(s))
            }
        }
    }
    let mut consts = HashMap::new();
    let (c, s) = expand(net, table, fanins, strash, 0, 0, &mut consts);
    match (c, s) {
        (Some(v), _) => net.add_const(v),
        (None, Some(s)) => s,
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use crate::timing::report;
    use logic::equiv_sim;

    fn mixed_network() -> Network {
        let mut net = Network::new("mix");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let x = net.add_gate(GateKind::Xor, vec![a, b]);
        let m = net.add_gate(GateKind::Maj, vec![x, c, d]);
        let o = net.add_gate(GateKind::Or, vec![a, c, d]);
        let y = net.add_gate(GateKind::And, vec![m, o]);
        net.set_output("y", y);
        net
    }

    #[test]
    fn mapping_preserves_function() {
        let net = mixed_network();
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 16, 3), Ok(()));
    }

    #[test]
    fn mapped_gates_are_library_cells_only() {
        let net = mixed_network();
        let mapped = map_network(&net);
        for id in mapped.network.signals() {
            let kind = &mapped.network.node(id).kind;
            assert!(
                matches!(
                    kind,
                    GateKind::Input
                        | GateKind::Const(_)
                        | GateKind::Inv
                        | GateKind::Nand
                        | GateKind::Nor
                        | GateKind::Xor
                        | GateKind::Xnor
                        | GateKind::Maj
                ),
                "non-library gate {kind:?} survived mapping"
            );
            if matches!(
                kind,
                GateKind::Nand | GateKind::Nor | GateKind::Xor | GateKind::Xnor
            ) {
                assert_eq!(
                    mapped.network.node(id).fanins.len(),
                    2,
                    "two-input cells only"
                );
            }
        }
    }

    #[test]
    fn maj_and_xor_are_preserved_directly() {
        let net = mixed_network();
        let mapped = map_network(&net);
        let h = report(&mapped, &Library::cmos22()).histogram;
        assert_eq!(h.get(&CellKind::Maj3), Some(&1), "MAJ preserved");
        assert!(
            h.get(&CellKind::Xor2).copied().unwrap_or(0) >= 1,
            "XOR preserved"
        );
    }

    #[test]
    fn mux_maps_to_nand_nand() {
        let mut net = Network::new("mux");
        let s = net.add_input("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let y = net.add_gate(GateKind::Mux, vec![s, a, b]);
        net.set_output("y", y);
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 8, 1), Ok(()));
        let h = report(&mapped, &Library::cmos22()).histogram;
        assert_eq!(h.get(&CellKind::Nand2), Some(&3));
        assert_eq!(h.get(&CellKind::Inv), Some(&1));
    }

    #[test]
    fn lut_expansion_is_equivalent() {
        let mut net = Network::new("lut");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        // A random-ish 3-input function.
        let t = TruthTable::from_fn(3, |r| {
            [true, false, false, true, true, false, true, false][r]
        });
        let l = net.add_gate(GateKind::Lut(t), vec![a, b, c]);
        net.set_output("y", l);
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 8, 5), Ok(()));
    }

    #[test]
    fn wide_gates_binarize() {
        let mut net = Network::new("wide");
        let ins: Vec<SignalId> = (0..7).map(|i| net.add_input(format!("i{i}"))).collect();
        let a = net.add_gate(GateKind::And, ins.clone());
        let x = net.add_gate(GateKind::Xor, ins.clone());
        let y = net.add_gate(GateKind::Or, vec![a, x]);
        net.set_output("y", y);
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 16, 2), Ok(()));
    }

    /// The mapped netlist in node order, one `name = kind(fanins)` per
    /// gate.
    fn netlist(net: &Network) -> Vec<String> {
        net.signals()
            .filter(|&id| net.node(id).kind != GateKind::Input)
            .map(|id| {
                let node = net.node(id);
                let fanins: Vec<String> = node.fanins.iter().map(|&f| net.signal_name(f)).collect();
                format!(
                    "{} = {}({})",
                    net.signal_name(id),
                    node.kind.tag(),
                    fanins.join(" ")
                )
            })
            .collect()
    }

    /// A 5-input NAND and a 6-input NOR reach `tree` unbalanced (the
    /// balancing pass rebuilds only AND, OR and XOR chains), so their
    /// first rounds build two and three cells. The exact node order pins
    /// that each round pairs neighbours left to right.
    #[test]
    fn wide_nand_and_nor_pair_neighbours_left_to_right() {
        let mut net = Network::new("wide");
        let ins: Vec<SignalId> = (0..6).map(|i| net.add_input(format!("i{i}"))).collect();
        let nand = net.add_gate(GateKind::Nand, &ins[..5]);
        let nor = net.add_gate(GateKind::Nor, &ins[..]);
        net.set_output("y", nand);
        net.set_output("z", nor);
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 16, 6), Ok(()));
        let want = [
            // y: ((i0·i1)·(i2·i3))·i4, complemented.
            "n6 = nand(i0 i1)",
            "n7 = inv(n6)",
            "n8 = nand(i2 i3)",
            "n9 = inv(n8)",
            "n10 = nand(n7 n9)",
            "n11 = inv(n10)",
            "n12 = nand(i4 n11)",
            // z: ((i0+i1)+(i2+i3))+(i4+i5), complemented.
            "n13 = nor(i0 i1)",
            "n14 = inv(n13)",
            "n15 = nor(i2 i3)",
            "n16 = inv(n15)",
            "n17 = nor(i4 i5)",
            "n18 = inv(n17)",
            "n19 = nor(n14 n16)",
            "n20 = inv(n19)",
            "n21 = nor(n18 n20)",
        ];
        assert_eq!(netlist(&mapped.network), want);
    }

    #[test]
    fn double_inverters_are_cleaned() {
        let mut net = Network::new("ii");
        let a = net.add_input("a");
        let b = net.add_input("b");
        // and(a,b) followed by nand-style use: the INV-INV pair between
        // consecutive ANDs must disappear.
        let t1 = net.add_gate(GateKind::And, vec![a, b]);
        let t2 = net.add_gate(GateKind::And, vec![t1, a]);
        net.set_output("y", t2);
        let mapped = map_network(&net);
        assert_eq!(equiv_sim(&net, &mapped.network, 8, 4), Ok(()));
        // NAND(a,b) -> INV -> NAND(.., a) -> INV: 2 NAND + 2 INV before
        // cleaning; the output INV stays, the internal pair is kept only if
        // structurally needed. Ensure we are not worse than the naive form.
        assert!(report(&mapped, &Library::cmos22()).gate_count <= 4);
    }
}
