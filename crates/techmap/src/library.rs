//! The standard-cell library of the paper's experiments: MAJ-3, XOR-2,
//! XNOR-2, NAND-2, NOR-2 and INV, characterized in the spirit of a CMOS
//! 22 nm node (PTM-derived relative figures; [`Library::cmos22`] states
//! how areas and delays were calibrated).

use std::fmt;

/// The six cell types of the paper's library.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Two-input NAND.
    Nand2,
    /// Two-input NOR.
    Nor2,
    /// Two-input XOR.
    Xor2,
    /// Two-input XNOR.
    Xnor2,
    /// Three-input majority.
    Maj3,
}

impl CellKind {
    /// All cell kinds, for iteration and histograms.
    pub const ALL: [CellKind; 6] = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Maj3,
    ];

    /// Library name of the cell.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Nand2 => "NAND2",
            CellKind::Nor2 => "NOR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNOR2",
            CellKind::Maj3 => "MAJ3",
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Electrical characterization of one cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Layout area in µm².
    pub area: f64,
    /// Intrinsic pin-to-pin delay in ns at unit load.
    pub delay: f64,
}

/// A characterized cell library plus its wire-load model.
#[derive(Clone, Debug)]
pub struct Library {
    cells: [Cell; 6],
    /// Extra delay (ns) added per additional fanout of a driving cell.
    pub load_delay_per_fanout: f64,
}

impl Library {
    /// The CMOS 22 nm library used throughout the experiments.
    ///
    /// Areas follow transistor counts at a 22 nm standard-cell density
    /// (INV 2T, NAND/NOR 4T, XOR/XNOR 10T transmission-gate style, MAJ 12T)
    /// and delays follow typical relative drive figures at that node.
    pub fn cmos22() -> Library {
        Library {
            cells: [
                Cell {
                    area: 0.065,
                    delay: 0.008,
                }, // INV
                Cell {
                    area: 0.130,
                    delay: 0.012,
                }, // NAND2
                Cell {
                    area: 0.130,
                    delay: 0.014,
                }, // NOR2
                Cell {
                    area: 0.325,
                    delay: 0.024,
                }, // XOR2
                Cell {
                    area: 0.325,
                    delay: 0.024,
                }, // XNOR2
                Cell {
                    area: 0.355,
                    delay: 0.028,
                }, // MAJ3
            ],
            load_delay_per_fanout: 0.0015,
        }
    }

    /// Characterization of a cell kind.
    pub fn cell(&self, kind: CellKind) -> Cell {
        self.cells[match kind {
            CellKind::Inv => 0,
            CellKind::Nand2 => 1,
            CellKind::Nor2 => 2,
            CellKind::Xor2 => 3,
            CellKind::Xnor2 => 4,
            CellKind::Maj3 => 5,
        }]
    }

    /// Replaces the characterization of one cell (for ablation studies).
    pub fn with_cell(mut self, kind: CellKind, cell: Cell) -> Library {
        let idx = match kind {
            CellKind::Inv => 0,
            CellKind::Nand2 => 1,
            CellKind::Nor2 => 2,
            CellKind::Xor2 => 3,
            CellKind::Xnor2 => 4,
            CellKind::Maj3 => 5,
        };
        self.cells[idx] = cell;
        self
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::cmos22()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_costs_are_sane() {
        let lib = Library::cmos22();
        let inv = lib.cell(CellKind::Inv);
        let nand = lib.cell(CellKind::Nand2);
        let xor = lib.cell(CellKind::Xor2);
        let maj = lib.cell(CellKind::Maj3);
        assert!(inv.area < nand.area);
        assert!(nand.area < xor.area);
        assert!(xor.area < maj.area);
        assert!(inv.delay < nand.delay && nand.delay < xor.delay);
        // One MAJ3 must be cheaper than its AOI equivalent
        // (2·NAND2 + 1·NOR2 + ... ≈ 3+ gates) — that's the whole premise.
        assert!(maj.area < 3.0 * nand.area);
    }

    #[test]
    fn with_cell_overrides() {
        let lib = Library::cmos22().with_cell(
            CellKind::Maj3,
            Cell {
                area: 9.9,
                delay: 1.0,
            },
        );
        assert_eq!(lib.cell(CellKind::Maj3).area, 9.9);
        assert_ne!(lib.cell(CellKind::Inv).area, 9.9);
    }

    #[test]
    fn all_cells_have_names() {
        for (i, kind) in CellKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL lists the kinds in declaration order");
            assert!(!kind.name().is_empty());
        }
    }
}
