//! The BDS decomposition engine: dominator-driven BDD decomposition with
//! factoring-tree emission, reimplementing the Yang–Ciesielski BDS core
//! that BDS-MAJ builds on.
//!
//! The engine exposes a [`MajorityHook`] so the `bdsmaj` crate can layer
//! the paper's majority decomposition on top of the standard dominator
//! search, exactly mirroring how the paper extends BDS-PGA.
//!
//! # Example
//!
//! ```
//! use logic::{Network, GateKind, equiv_sim};
//! use decomp::{decompose_network, EngineOptions, NoMajority};
//!
//! let mut net = Network::new("f");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let c = net.add_input("c");
//! let x = net.add_gate(GateKind::Xor, vec![a, b]);
//! let y = net.add_gate(GateKind::And, vec![x, c]);
//! net.set_output("y", y);
//!
//! let result = decompose_network(&net, &EngineOptions::default(), &mut NoMajority);
//! assert!(equiv_sim(&net, &result.network, 8, 1).is_ok());
//! ```

mod dominators;
mod emit;
mod engine;
mod xordec;

pub use dominators::{
    classify_dominator, find_decomposition, mux_fallback, try_classify_dominator,
    try_find_decomposition, try_mux_fallback, Decomposition, DominatorKind, SearchOptions,
};
pub use emit::{Emitter, FunctionEmitter};
pub use engine::{
    decompose_function, decompose_network, try_decompose_function, ConeStatus, DecomposeResult,
    EngineOptions, FlowReport, MajorityHook, NoMajority,
};
pub use xordec::xor_decompose_balanced;
