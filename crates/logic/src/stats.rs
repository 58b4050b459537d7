//! Network statistics and file-based BLIF I/O conveniences — the
//! reporting surface a synthesis tool exposes on the command line.

use crate::blif::{parse_blif, write_blif, ParseBlifError};
use crate::network::{GateKind, Network};
use std::fmt;
use std::io;
use std::path::Path;

/// Aggregate statistics of a network, beyond the raw gate counts.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct NetworkStats {
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Function-bearing nodes (everything but inputs and constants).
    pub gates: usize,
    /// Total fanin-edge count over logic nodes ("literals" in SIS-speak).
    pub literals: usize,
    /// Longest input-to-output path in logic levels.
    pub depth: usize,
    /// Largest fanout of any signal.
    pub max_fanout: usize,
}

impl fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in / {} out, {} gates, {} literals, depth {}, max fanout {}",
            self.inputs, self.outputs, self.gates, self.literals, self.depth, self.max_fanout
        )
    }
}

impl Network {
    /// Computes aggregate statistics in one pass.
    pub fn stats(&self) -> NetworkStats {
        let mut gates = 0usize;
        let mut literals = 0usize;
        for id in self.signals() {
            let node = self.node(id);
            match node.kind {
                GateKind::Input | GateKind::Const(_) => {}
                _ => {
                    gates += 1;
                    literals += node.fanins.len();
                }
            }
        }
        NetworkStats {
            inputs: self.inputs().len(),
            outputs: self.outputs().len(),
            gates,
            literals,
            depth: self.depth(),
            max_fanout: self.fanout_counts().into_iter().max().unwrap_or(0),
        }
    }
}

/// Error reading a BLIF file: I/O or parse failure.
#[derive(Debug)]
pub enum ReadBlifError {
    /// Filesystem error.
    Io(io::Error),
    /// Syntax/semantic error in the BLIF text.
    Parse(ParseBlifError),
}

impl fmt::Display for ReadBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadBlifError::Io(e) => write!(f, "cannot read blif file: {e}"),
            ReadBlifError::Parse(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadBlifError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadBlifError::Io(e) => Some(e),
            ReadBlifError::Parse(e) => Some(e),
        }
    }
}

impl From<io::Error> for ReadBlifError {
    fn from(e: io::Error) -> Self {
        ReadBlifError::Io(e)
    }
}

impl From<ParseBlifError> for ReadBlifError {
    fn from(e: ParseBlifError) -> Self {
        ReadBlifError::Parse(e)
    }
}

/// Reads a BLIF file from disk.
///
/// # Errors
///
/// Returns [`ReadBlifError`] on I/O or parse failure.
pub fn read_blif_file(path: impl AsRef<Path>) -> Result<Network, ReadBlifError> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_blif(&text)?)
}

/// Writes a network to a BLIF file on disk.
///
/// # Errors
///
/// Returns the underlying I/O error on failure.
pub fn write_blif_file(net: &Network, path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, write_blif(net))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::GateKind;

    fn sample() -> Network {
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let x = net.add_gate(GateKind::Xor, vec![a, b]);
        let y = net.add_gate(GateKind::And, vec![x, a]);
        net.set_output("y", y);
        net
    }

    #[test]
    fn stats_count_gates_and_literals() {
        let net = sample();
        let s = net.stats();
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.gates, 2);
        assert_eq!(s.literals, 4);
        assert_eq!(s.depth, 2);
        assert!(s.max_fanout >= 2, "input a feeds two gates");
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn blif_file_roundtrip() {
        let net = sample();
        let dir = std::env::temp_dir().join("bdsmaj_blif_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.blif");
        write_blif_file(&net, &path).unwrap();
        let back = read_blif_file(&path).unwrap();
        assert_eq!(
            crate::verify::equiv_sim(&net, &back, 8, 3),
            Ok(()),
            "file round-trip must preserve the function"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn read_missing_file_is_io_error() {
        let err = read_blif_file("/nonexistent/path/x.blif").unwrap_err();
        assert!(matches!(err, ReadBlifError::Io(_)));
        assert!(err.to_string().contains("cannot read"));
    }

    #[test]
    fn read_bad_blif_is_parse_error() {
        let dir = std::env::temp_dir().join("bdsmaj_blif_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.blif");
        std::fs::write(&path, ".model m\n.bogus\n.end\n").unwrap();
        let err = read_blif_file(&path).unwrap_err();
        assert!(matches!(err, ReadBlifError::Parse(_)));
        std::fs::remove_file(&path).ok();
    }
}
