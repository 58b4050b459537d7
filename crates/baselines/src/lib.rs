//! Baseline synthesis flows for the Table II comparison: the ABC-like
//! AIG flow (structural hashing + balancing, blind to XOR/MAJ structure)
//! and the Design-Compiler-like multi-strategy flow (best-of-breed area
//! optimization without majority inference). Both are substitutes for
//! tools that are closed-source or unavailable offline.
//!
//! # Example
//!
//! ```
//! use logic::{Network, GateKind, equiv_sim};
//! use baselines::abc_flow;
//!
//! let mut net = Network::new("f");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let x = net.add_gate(GateKind::Xor, vec![a, b]);
//! net.set_output("y", x);
//! let optimized = abc_flow(&net);
//! assert!(equiv_sim(&net, &optimized, 8, 1).is_ok());
//! // An AIG flow rewrites the XOR into AND/INV logic:
//! assert_eq!(optimized.gate_counts().xor, 0);
//! ```

mod aig;
mod balance;
mod flows;
mod refactor;

pub use aig::{Aig, AigRef};
pub use balance::abc_flow;
pub use flows::{dc_flow, expand_maj, DcResult};
