//! Benchmark circuit generators for the BDS-MAJ reproduction.
//!
//! The MCNC `.blif` distribution is not available offline, so each paper
//! benchmark is replaced by a structural generator of the same functional
//! family and comparable size: arithmetic datapaths
//! are generated exactly (multipliers, dividers, square root, ...) and
//! control benchmarks are seeded pseudo-random circuits with matched
//! interfaces.
//!
//! # Example
//!
//! The 17-benchmark suite is built once per process and shared as a
//! `&'static [Benchmark]` (safe to read from concurrent suite workers):
//!
//! ```
//! use circuits::suite::paper_suite;
//! let suite = paper_suite();
//! assert_eq!(suite.len(), 17);
//! ```

pub mod alu;
pub mod arith;
pub mod bus;
pub mod control;
pub mod crypto;
pub mod ecc;
pub mod extra;
pub mod suite;
