//! **BDS-MAJ**: BDD-based logic synthesis exploiting majority logic
//! decomposition — a reproduction of Amarù, Gaillardon, De Micheli,
//! DAC 2013.
//!
//! This crate implements the paper's contribution: the first BDD-based
//! majority logic decomposition method ([`maj_decompose`], Algorithm 1 of
//! the paper), layered on a BDS-style decomposition engine to form the
//! complete BDS-MAJ flow ([`bds_maj`]). The BDS-PGA baseline ([`bds_pga`])
//! is the identical engine with the majority hook disabled.
//!
//! # Example
//!
//! ```
//! use bdd::Manager;
//! use bdsmaj::{maj_decompose, MajConfig};
//!
//! // F = ab + bc + ac: the paper's running example.
//! let mut m = Manager::new();
//! let (a, b, c) = (m.var(0), m.var(1), m.var(2));
//! let f = m.maj(a, b, c);
//! let cand = maj_decompose(&mut m, f, &MajConfig::default()).unwrap();
//! // Algorithm 1 recovers the literal triple: |Fa| = |Fb| = |Fc| = 1.
//! assert_eq!(cand.sizes, [1, 1, 1]);
//! ```

mod flow;
mod maj;

pub use decomp::{ConeStatus, FlowReport};
pub use flow::{bds_maj, bds_pga, BdsMajOptions, FlowResult};
pub use maj::{
    balance_pass, construct_majority, find_m_dominators, maj_decompose, MajCandidate, MajConfig,
    MajDecomposer,
};
