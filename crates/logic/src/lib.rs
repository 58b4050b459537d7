//! Multi-level Boolean logic networks and the surrounding infrastructure
//! of the BDS-MAJ reproduction: BLIF I/O, `eliminate`-style partial
//! collapse into per-supernode BDDs, and combinational equivalence
//! checking.
//!
//! # Example
//!
//! ```
//! use logic::{Network, GateKind, equiv_sim};
//!
//! let mut net = Network::new("mux");
//! let s = net.add_input("s");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let y = net.add_gate(GateKind::Mux, vec![s, a, b]);
//! net.set_output("y", y);
//!
//! // A MUX is ite(s, a, b): check against an AND/OR implementation.
//! let mut alt = Network::new("mux_aoi");
//! let s2 = alt.add_input("s");
//! let a2 = alt.add_input("a");
//! let b2 = alt.add_input("b");
//! let ns = alt.add_gate(GateKind::Inv, vec![s2]);
//! let t1 = alt.add_gate(GateKind::And, vec![s2, a2]);
//! let t2 = alt.add_gate(GateKind::And, vec![ns, b2]);
//! let y2 = alt.add_gate(GateKind::Or, vec![t1, t2]);
//! alt.set_output("y", y2);
//!
//! assert!(equiv_sim(&net, &alt, 4, 1).is_ok());
//! ```

mod balance;
mod blif;
mod collapse;
mod network;
mod stats;
mod truth;
mod verify;

pub use balance::balance_network;
pub use bdd::BuildFxHasher;
pub use blif::{parse_blif, write_blif, ParseBlifError};
pub use collapse::{
    apply_gate, partition, partition_with_limits, try_apply_gate, ConeBuilder, Partition,
    PartitionConfig, Supernode,
};
pub use network::{Fanins, GateCounts, GateKind, NetNode, Network, SignalId, Strash, STRASH_PAD};
pub use stats::{read_blif_file, write_blif_file, NetworkStats, ReadBlifError};
pub use truth::TruthTable;
pub use verify::{equiv_exact, equiv_sim, output_bdds, Mismatch, XorShift64};
