//! Technology mapping onto the six-cell library, following the paper's
//! two-step scheme (§V-B.1): MAJ, XOR and XNOR nodes are assigned directly
//! to their cells (so the functions highlighted by decomposition are not
//! hidden again), and the AND/OR/MUX remainder is covered with
//! NAND/NOR/INV structures with inverter minimization.

use crate::library::CellKind;
use logic::{Fanins, GateKind, Network, SignalId, Strash, TruthTable, STRASH_PAD};

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

fn and2(net: &mut Network, strash: &mut Strash, a: SignalId, b: SignalId) -> SignalId {
    let n = strash.gate(net, GateKind::Nand, &[a, b]);
    strash.inv(net, n)
}

fn or2(net: &mut Network, strash: &mut Strash, a: SignalId, b: SignalId) -> SignalId {
    let n = strash.gate(net, GateKind::Nor, &[a, b]);
    strash.inv(net, n)
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
        GateKind::Inv => strash.inv(net, fanins[0]),
        GateKind::And => tree(net, strash, &mut fanins, &and2),
        GateKind::Nand => {
            if fanins.len() == 2 {
                strash.gate(net, GateKind::Nand, &fanins)
            } else {
                let a = tree(net, strash, &mut fanins, &and2);
                strash.inv(net, a)
            }
        }
        GateKind::Or => tree(net, strash, &mut fanins, &or2),
        GateKind::Nor => {
            if fanins.len() == 2 {
                strash.gate(net, GateKind::Nor, &fanins)
            } else {
                let o = tree(net, strash, &mut fanins, &or2);
                strash.inv(net, o)
            }
        }
        GateKind::Xor => tree(net, strash, &mut fanins, &|net, st, a, b| {
            st.gate(net, GateKind::Xor, &[a, b])
        }),
        GateKind::Xnor => {
            // Parity complement: XOR-tree with one XNOR at the root.
            let n = fanins.len();
            if n == 1 {
                return strash.inv(net, fanins[0]);
            }
            let last = fanins[n - 1];
            let left = tree(net, strash, &mut fanins[..n - 1], &|net, st, a, b| {
                st.gate(net, GateKind::Xor, &[a, b])
            });
            strash.gate(net, GateKind::Xnor, &[left, last])
        }
        GateKind::Maj => strash.gate(net, GateKind::Maj, &fanins),
        GateKind::Mux => mux(net, strash, fanins[0], fanins[1], fanins[2]),
        GateKind::Lut(table) => match expand_lut(net, table, &fanins, strash, 0, 0) {
            Cofactor::Const(v) => net.add_const(v),
            Cofactor::Signal(s) => s,
        },
    }
}

/// `sel·t + sel'·e` as NAND-NAND: `NAND(NAND(sel, t), NAND(sel', e))`.
fn mux(
    net: &mut Network,
    strash: &mut Strash,
    sel: SignalId,
    t: SignalId,
    e: SignalId,
) -> SignalId {
    let ns = strash.inv(net, sel);
    let n1 = strash.gate(net, GateKind::Nand, &[sel, t]);
    let n2 = strash.gate(net, GateKind::Nand, &[ns, e]);
    strash.gate(net, GateKind::Nand, &[n1, n2])
}

/// A cofactor of a LUT: a constant, or the signal that implements it.
enum Cofactor {
    Const(bool),
    Signal(SignalId),
}

/// Shannon-expands a LUT into MUX structures over its inputs: the
/// cofactor of `table` where the last `fixed` fanins take the values of
/// `row`. A constant cofactor folds into its MUX, so it makes no node.
fn expand_lut(
    net: &mut Network,
    table: &TruthTable,
    fanins: &[SignalId],
    strash: &mut Strash,
    fixed: usize,
    row: usize,
) -> Cofactor {
    if fixed == fanins.len() {
        return Cofactor::Const(table.value(row));
    }
    let i = fanins.len() - 1 - fixed;
    let hi = expand_lut(net, table, fanins, strash, fixed + 1, row | 1 << i);
    let lo = expand_lut(net, table, fanins, strash, fixed + 1, row);
    let sel = fanins[i];
    Cofactor::Signal(match (hi, lo) {
        (Cofactor::Const(h), Cofactor::Const(l)) if h == l => return Cofactor::Const(h),
        // sel, or sel'
        (Cofactor::Const(true), Cofactor::Const(_)) => sel,
        (Cofactor::Const(false), Cofactor::Const(_)) => strash.inv(net, sel),
        // sel + lo
        (Cofactor::Const(true), Cofactor::Signal(lo)) => or2(net, strash, sel, lo),
        // sel'·lo
        (Cofactor::Const(false), Cofactor::Signal(lo)) => {
            let ns = strash.inv(net, sel);
            and2(net, strash, ns, lo)
        }
        // sel' + hi
        (Cofactor::Signal(hi), Cofactor::Const(true)) => {
            let ns = strash.inv(net, sel);
            or2(net, strash, ns, hi)
        }
        // sel·hi
        (Cofactor::Signal(hi), Cofactor::Const(false)) => and2(net, strash, sel, hi),
        (Cofactor::Signal(hi), Cofactor::Signal(lo)) => mux(net, strash, sel, hi, lo),
    })
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
