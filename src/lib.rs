//! **bds-maj** — umbrella crate of the BDS-MAJ reproduction.
//!
//! Re-exports the public API of every workspace crate so downstream users
//! (and the examples/tests in this repository) can depend on a single
//! crate:
//!
//! * [`bdd`] — ROBDD package with complemented edges;
//! * [`logic`] — Boolean networks, BLIF I/O, partitioning, equivalence;
//! * [`circuits`] — the 17-benchmark suite generators;
//! * [`decomp`] — the BDS decomposition engine;
//! * [`bdsmaj`] — majority decomposition and the BDS-MAJ flow (the
//!   paper's contribution);
//! * [`techmap`] — the CMOS 22 nm six-cell library and mapper;
//! * [`baselines`] — ABC-like and DC-like comparison flows.
//!
//! # Quickstart
//!
//! ```
//! use bds_maj::prelude::*;
//!
//! // Build ab + bc + ac as an AND/OR network...
//! let mut net = Network::new("majority");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let c = net.add_input("c");
//! let ab = net.add_gate(GateKind::And, vec![a, b]);
//! let bc = net.add_gate(GateKind::And, vec![b, c]);
//! let ac = net.add_gate(GateKind::And, vec![a, c]);
//! let t = net.add_gate(GateKind::Or, vec![ab, bc]);
//! let f = net.add_gate(GateKind::Or, vec![t, ac]);
//! net.set_output("f", f);
//!
//! // ...and let BDS-MAJ discover the single MAJ-3 gate.
//! let out = bds_maj(&net, &BdsMajOptions::default());
//! assert_eq!(out.network().gate_counts().maj, 1);
//! ```

pub use baselines;
pub use bdd;
pub use bdsmaj;
pub use circuits;
pub use decomp;
pub use logic;
pub use techmap;

/// Convenient glob-import surface for examples and applications.
pub mod prelude {
    pub use baselines::{abc_flow, dc_flow, expand_maj};
    pub use bdd::{Manager, NodeId, Ref, Var};
    pub use bdsmaj::{
        bds_maj, bds_pga, find_m_dominators, maj_decompose, BdsMajOptions, MajConfig,
    };
    pub use decomp::{decompose_network, EngineOptions, NoMajority, ReorderPolicy};
    pub use logic::{
        equiv_exact, equiv_sim, parse_blif, write_blif, GateKind, Network, PartitionConfig,
        SignalId,
    };
    pub use techmap::{map_network, report, CellKind, Library};
}
