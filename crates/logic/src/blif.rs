//! BLIF (Berkeley Logic Interchange Format) reading and writing.
//!
//! Supports the combinational subset used by the MCNC benchmarks: `.model`,
//! `.inputs`, `.outputs`, `.names` with SOP covers, and `.end`. Sequential
//! constructs (`.latch`) are rejected with an error.

use crate::network::{GateKind, Network, SignalId};
use crate::truth::TruthTable;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Error produced while parsing BLIF text.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseBlifError {
    line: usize,
    message: String,
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blif parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseBlifError {}

impl ParseBlifError {
    /// 1-based source line the error points at (never 0: every error path
    /// carries the line of a real directive or cover row).
    pub fn line(&self) -> usize {
        self.line
    }
}

fn err(line: usize, message: impl Into<String>) -> ParseBlifError {
    ParseBlifError {
        line,
        message: message.into(),
    }
}

/// One `.names` block: output name, input names, and the SOP cover rows.
struct NamesBlock {
    line: usize,
    inputs: Vec<String>,
    output: String,
    cubes: Vec<(String, char)>,
}

/// Parses a BLIF model into a [`Network`].
///
/// The nodes of the result are LUTs carrying the exact cover function, so a
/// write/read round-trip is semantics-preserving.
///
/// # Errors
///
/// Returns [`ParseBlifError`] on malformed input, undefined signals,
/// combinational cycles, or unsupported constructs.
pub fn parse_blif(text: &str) -> Result<Network, ParseBlifError> {
    let mut model_name = String::from("model");
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<(usize, String)> = Vec::new();
    let mut blocks: Vec<NamesBlock> = Vec::new();

    // Join continuation lines ending in '\'.
    let mut logical_lines: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim_end();
        if pending.is_empty() {
            pending_line = i + 1;
        }
        if let Some(stripped) = line.strip_suffix('\\') {
            pending.push_str(stripped);
            pending.push(' ');
        } else {
            pending.push_str(line);
            let full = std::mem::take(&mut pending);
            if !full.trim().is_empty() {
                logical_lines.push((pending_line, full));
            }
        }
    }

    let mut idx = 0usize;
    while let Some((lineno, line)) = logical_lines.get(idx) {
        let lineno = *lineno;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&directive, rest)) = tokens.split_first() else {
            // Logical lines are non-empty by construction; an empty token
            // list is simply skipped rather than trusted not to occur.
            idx += 1;
            continue;
        };
        match directive {
            ".model" => {
                if let Some(name) = rest.first() {
                    model_name = (*name).to_string();
                }
                idx += 1;
            }
            ".inputs" => {
                input_names.extend(rest.iter().map(|s| s.to_string()));
                idx += 1;
            }
            ".outputs" => {
                output_names.extend(rest.iter().map(|s| (lineno, s.to_string())));
                idx += 1;
            }
            ".names" => {
                let Some((output, input_toks)) = rest.split_last() else {
                    return Err(err(lineno, ".names requires at least an output"));
                };
                let output = (*output).to_string();
                let inputs: Vec<String> = input_toks.iter().map(|s| s.to_string()).collect();
                let mut cubes = Vec::new();
                idx += 1;
                while let Some((cl, cline)) = logical_lines.get(idx) {
                    if cline.trim_start().starts_with('.') {
                        break;
                    }
                    let parts: Vec<&str> = cline.split_whitespace().collect();
                    let (mask, value) = if inputs.is_empty() {
                        match parts.as_slice() {
                            [value] => (String::new(), *value),
                            _ => return Err(err(*cl, "constant cover row must be a single token")),
                        }
                    } else {
                        match parts.as_slice() {
                            [mask, value] => ((*mask).to_string(), *value),
                            _ => return Err(err(*cl, "cover row must be `<mask> <value>`")),
                        }
                    };
                    if mask.len() != inputs.len() {
                        return Err(err(*cl, "cover mask width mismatch"));
                    }
                    let value = match value {
                        "1" => '1',
                        "0" => '0',
                        _ => return Err(err(*cl, "cover value must be 0 or 1")),
                    };
                    cubes.push((mask, value));
                    idx += 1;
                }
                blocks.push(NamesBlock {
                    line: lineno,
                    inputs,
                    output,
                    cubes,
                });
            }
            ".end" => break,
            ".latch" => return Err(err(lineno, "sequential BLIF (.latch) is not supported")),
            ".exdc" | ".gate" | ".subckt" => {
                return Err(err(lineno, format!("unsupported construct {directive}")))
            }
            other => return Err(err(lineno, format!("unknown directive {other}"))),
        }
    }

    // Build the network: inputs first, then .names blocks in dependency order.
    let mut net = Network::new(model_name);
    let mut signals: HashMap<String, SignalId> = HashMap::new();
    for name in &input_names {
        let id = net.add_input(name.clone());
        signals.insert(name.clone(), id);
    }
    let mut remaining: Vec<NamesBlock> = blocks;
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut still: Vec<NamesBlock> = Vec::new();
        for block in remaining {
            if block.inputs.iter().all(|i| signals.contains_key(i)) {
                let id = build_names_node(&mut net, &signals, &block)?;
                signals.insert(block.output.clone(), id);
                progressed = true;
            } else {
                still.push(block);
            }
        }
        if !progressed {
            // No progress with blocks remaining means an undefined signal
            // or a cycle; report the first stuck block. (If `still` were
            // somehow empty the loop would just terminate.)
            if let Some(block) = still.first() {
                let missing: Vec<&str> = block
                    .inputs
                    .iter()
                    .filter(|i| !signals.contains_key(*i))
                    .map(|s| s.as_str())
                    .collect();
                return Err(err(
                    block.line,
                    format!(
                        "undefined signal or combinational cycle (unresolved inputs of {}: {})",
                        block.output,
                        missing.join(", ")
                    ),
                ));
            }
        }
        remaining = still;
    }
    for (lineno, name) in &output_names {
        let id = *signals
            .get(name)
            .ok_or_else(|| err(*lineno, format!("undriven output {name}")))?;
        net.set_output(name.clone(), id);
    }
    Ok(net)
}

fn build_names_node(
    net: &mut Network,
    signals: &HashMap<String, SignalId>,
    block: &NamesBlock,
) -> Result<SignalId, ParseBlifError> {
    // The caller only hands over blocks whose inputs all resolved, but a
    // missing signal must surface as a parse error, not a panic.
    let fanins: Vec<SignalId> = block
        .inputs
        .iter()
        .map(|i| {
            signals
                .get(i)
                .copied()
                .ok_or_else(|| err(block.line, format!("undefined signal {i}")))
        })
        .collect::<Result<_, _>>()?;
    if block.inputs.is_empty() {
        // Constant node: the cover is a (possibly empty) list of "1"/"0".
        let value = block.cubes.iter().any(|(_, v)| *v == '1');
        let id = net.add_const(value);
        net.set_signal_name(id, block.output.clone());
        return Ok(id);
    }
    if block.inputs.len() > 16 {
        return Err(err(block.line, "cover with more than 16 inputs"));
    }
    // BLIF covers are either on-set or off-set, not mixed.
    let polarities: Vec<char> = block.cubes.iter().map(|(_, v)| *v).collect();
    let on_set = !polarities.contains(&'0');
    if !on_set && polarities.contains(&'1') {
        return Err(err(block.line, "mixed on-set/off-set cover"));
    }
    let masks: Vec<Vec<u8>> = block
        .cubes
        .iter()
        .map(|(m, _)| m.bytes().collect())
        .collect();
    let n = block.inputs.len() as u32;
    let covered = |row: usize| -> bool {
        masks.iter().any(|mask| {
            mask.iter().enumerate().all(|(i, &ch)| match ch {
                b'0' => row >> i & 1 == 0,
                b'1' => row >> i & 1 == 1,
                b'-' => true,
                _ => false,
            })
        })
    };
    let table = TruthTable::from_fn(n, |row| covered(row) == on_set);
    let id = net.add_gate(GateKind::Lut(table), fanins);
    net.set_signal_name(id, block.output.clone());
    Ok(id)
}

/// Widest cover [`write_blif`] writes for an n-ary gate. Wider AND, OR
/// and XOR gates (and their inversions) are written as trees of such
/// covers: a cover of `n` inputs can take up to `2^(n-1)` rows, and
/// [`parse_blif`] reads covers of at most 16 inputs.
const MAX_COVER_FANINS: usize = 8;

/// Serializes a network to BLIF text. Every node becomes a `.names` block
/// with an on-set cover (LUTs emit their minterm list, structured gates emit
/// a canonical cover for their function). An AND, OR or XOR gate of more
/// than `MAX_COVER_FANINS` (8) fanins, or its inversion, becomes a balanced
/// tree of covers of at most that many, with the inversion on the root
/// and inner signals named `<gate>_t<k>`, with `k` chosen so that no
/// other signal of the text has the name.
///
/// Every name is defined once. A signal is written under its name, or
/// `n<id>` if it has none, unless another signal claims that name first
/// (inputs, then outputs for their driver, then named gates, then
/// unnamed gates); a gate that loses its name takes `<name>_t<k>`.
pub fn write_blif(net: &Network) -> String {
    use std::fmt::Write as _;
    let names = signal_names(net);
    let name_of = |s: SignalId| -> &str {
        // bdslint: allow(panic-surface) -- `signal_names` returns one
        // name per signal of `net`, and `s` is a signal of `net`
        &names[s.index()]
    };
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", net.name());
    let in_names: Vec<&str> = net.inputs().iter().map(|&i| name_of(i)).collect();
    let _ = writeln!(out, ".inputs {}", in_names.join(" "));
    let out_names: Vec<&str> = net.outputs().iter().map(|(n, _)| n.as_str()).collect();
    let _ = writeln!(out, ".outputs {}", out_names.join(" "));
    // Every name the text uses, collected at the first wide gate.
    let mut taken: Option<HashSet<String>> = None;
    for id in net.signals() {
        let node = net.node(id);
        let name = name_of(id);
        let fanin_names: Vec<String> = node
            .fanins
            .iter()
            .map(|&f| name_of(f).to_string())
            .collect();
        let mut k = 0;
        let mut fresh = || {
            let taken = taken.get_or_insert_with(|| used_names(&names, net));
            fresh_name(name, &mut k, taken)
        };
        write_gate(&mut out, &node.kind, &fanin_names, name, &mut fresh);
    }
    // Alias buffers for outputs whose name differs from the driving node.
    for (name, s) in net.outputs() {
        let driver = name_of(*s);
        if name != driver {
            let _ = writeln!(out, ".names {driver} {name}\n1 1");
        }
    }
    out.push_str(".end\n");
    out
}

/// The name [`write_blif`] writes each signal under, indexed by signal:
/// its own name, or `n<id>` if it has none, unless an earlier claim
/// holds that name. Inputs claim theirs first, then outputs (for the
/// signal driving them), then named gates in order, then unnamed gates
/// in order. A gate whose name is claimed by another signal takes
/// `<name>_t<k>` instead, with `k` chosen as for the inner signals of a
/// cover tree, so no output alias or gate redefines another signal.
fn signal_names(net: &Network) -> Vec<String> {
    let mut names: Vec<String> = net.signals().map(|s| net.signal_name(s)).collect();
    let is_input = |s: SignalId| matches!(net.node(s).kind, GateKind::Input);
    let mut claims: HashMap<&str, SignalId> = HashMap::new();
    for (id, name) in net.signals().zip(&names) {
        if is_input(id) {
            claims.entry(name).or_insert(id);
        }
    }
    for (name, s) in net.outputs() {
        claims.entry(name).or_insert(*s);
    }
    for named in [true, false] {
        for (id, name) in net.signals().zip(&names) {
            if !is_input(id) && net.node(id).name.is_some() == named {
                claims.entry(name).or_insert(id);
            }
        }
    }
    let renamed: Vec<bool> = net
        .signals()
        .zip(&names)
        .map(|(id, name)| !is_input(id) && claims.get(name.as_str()) != Some(&id))
        .collect();
    if !renamed.contains(&true) {
        return names;
    }
    let mut taken = used_names(&names, net);
    for (name, renamed) in names.iter_mut().zip(renamed) {
        if renamed {
            *name = fresh_name(name, &mut 0, &mut taken);
        }
    }
    names
}

/// Every name of `names` and every output name of `net`.
fn used_names(names: &[String], net: &Network) -> HashSet<String> {
    names
        .iter()
        .cloned()
        .chain(net.outputs().iter().map(|(n, _)| n.clone()))
        .collect()
}

/// The first name `<base>_t<k>` not in `taken`, for `k` counting up from
/// `*k`; adds it to `taken`.
fn fresh_name(base: &str, k: &mut usize, taken: &mut HashSet<String>) -> String {
    loop {
        let candidate = format!("{base}_t{k}");
        *k += 1;
        if taken.insert(candidate.clone()) {
            return candidate;
        }
    }
}

/// Writes the gate `name = kind(fanins)`: one cover, or for a wide AND, OR
/// or XOR gate (or its inversion), a root cover of `kind` over at most
/// [`MAX_COVER_FANINS`] balanced subtrees of the plain connective, whose
/// roots `fresh` names.
fn write_gate(
    out: &mut String,
    kind: &GateKind,
    fanins: &[String],
    name: &str,
    fresh: &mut impl FnMut() -> String,
) {
    let connective = match kind {
        GateKind::And | GateKind::Nand => GateKind::And,
        GateKind::Or | GateKind::Nor => GateKind::Or,
        GateKind::Xor | GateKind::Xnor => GateKind::Xor,
        _ => return write_cover(out, kind, fanins, name),
    };
    if fanins.len() <= MAX_COVER_FANINS {
        return write_cover(out, kind, fanins, name);
    }
    let parts = fanins
        .len()
        .div_ceil(MAX_COVER_FANINS)
        .min(MAX_COVER_FANINS);
    let mut rest = fanins;
    let mut children = Vec::with_capacity(parts);
    for left in (1..=parts).rev() {
        // Even shares: the part sizes differ by at most one.
        let (part, tail) = rest.split_at(rest.len().div_ceil(left));
        rest = tail;
        let child = fresh();
        write_gate(out, &connective, part, &child, fresh);
        children.push(child);
    }
    write_cover(out, kind, &children, name);
}

/// Writes one `.names` block: `name = kind(fanins)` as an on-set cover.
fn write_cover(out: &mut String, kind: &GateKind, fanins: &[String], name: &str) {
    use std::fmt::Write as _;
    let header = if fanins.is_empty() {
        format!(".names {name}")
    } else {
        format!(".names {} {name}", fanins.join(" "))
    };
    let n = fanins.len();
    match kind {
        GateKind::Input => {}
        GateKind::Const(v) => {
            let _ = writeln!(out, "{header}");
            if *v {
                let _ = writeln!(out, "1");
            }
        }
        GateKind::Inv => {
            let _ = writeln!(out, "{header}\n0 1");
        }
        GateKind::And => {
            let _ = writeln!(out, "{header}\n{} 1", "1".repeat(n));
        }
        GateKind::Nand => {
            let _ = writeln!(out, "{header}");
            for i in 0..n {
                let row: String = (0..n).map(|j| if j == i { '0' } else { '-' }).collect();
                let _ = writeln!(out, "{row} 1");
            }
        }
        GateKind::Or => {
            let _ = writeln!(out, "{header}");
            for i in 0..n {
                let row: String = (0..n).map(|j| if j == i { '1' } else { '-' }).collect();
                let _ = writeln!(out, "{row} 1");
            }
        }
        GateKind::Nor => {
            let _ = writeln!(out, "{header}\n{} 1", "0".repeat(n));
        }
        GateKind::Xor | GateKind::Xnor | GateKind::Maj | GateKind::Mux => {
            let _ = writeln!(out, "{header}");
            for row in 0..(1usize << n) {
                let on = match kind {
                    GateKind::Xor => row.count_ones() % 2 == 1,
                    GateKind::Xnor => row.count_ones() % 2 == 0,
                    GateKind::Maj => row.count_ones() >= 2,
                    GateKind::Mux => {
                        if row & 1 == 1 {
                            row >> 1 & 1 == 1
                        } else {
                            row >> 2 & 1 == 1
                        }
                    }
                    // bdslint: allow(panic-surface) -- the outer match arm
                    // restricts kind to Xor/Xnor/Maj/Mux; no input reaches this
                    _ => unreachable!(),
                };
                if on {
                    let mask: String = (0..n)
                        .map(|i| if row >> i & 1 == 1 { '1' } else { '0' })
                        .collect();
                    let _ = writeln!(out, "{mask} 1");
                }
            }
        }
        GateKind::Lut(table) => {
            let _ = writeln!(out, "{header}");
            for row in 0..table.num_rows() {
                if table.value(row) {
                    let mask: String = (0..n)
                        .map(|i| if row >> i & 1 == 1 { '1' } else { '0' })
                        .collect();
                    let _ = writeln!(out, "{mask} 1");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a tiny model
.model adder
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
";

    #[test]
    fn parses_full_adder() {
        let net = parse_blif(SAMPLE).expect("parse");
        assert_eq!(net.name(), "adder");
        assert_eq!(net.inputs().len(), 3);
        assert_eq!(net.outputs().len(), 2);
        let out = net.simulate(&[0b10101010, 0b11001100, 0b11110000]);
        for row in 0..8u32 {
            let total = (0b10101010u64 >> row & 1)
                + (0b11001100u64 >> row & 1)
                + (0b11110000u64 >> row & 1);
            assert_eq!(out[0] >> row & 1, total & 1);
            assert_eq!(out[1] >> row & 1, (total >= 2) as u64);
        }
    }

    #[test]
    fn roundtrip_preserves_function() {
        let net = parse_blif(SAMPLE).unwrap();
        let text = write_blif(&net);
        let net2 = parse_blif(&text).expect("reparse");
        let p = [0x123456789abcdefu64, 0xfedcba9876543210, 0x0f0f0f0f0f0f0f0f];
        assert_eq!(net.simulate(&p), net2.simulate(&p));
    }

    #[test]
    fn offset_covers_supported() {
        let text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n";
        let net = parse_blif(text).unwrap();
        // y = NOT(a AND b)
        let out = net.simulate(&[0b1010, 0b1100]);
        assert_eq!(out[0] & 0xF, 0b0111);
    }

    #[test]
    fn constant_nodes() {
        let text = ".model m\n.inputs a\n.outputs y z\n.names y\n1\n.names z\n.end\n";
        let net = parse_blif(text).unwrap();
        let out = net.simulate(&[0]);
        assert_eq!(out[0], u64::MAX);
        assert_eq!(out[1], 0);
    }

    #[test]
    fn rejects_latches() {
        let text = ".model m\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n";
        let e = parse_blif(text).unwrap_err();
        assert!(e.to_string().contains("latch"));
    }

    #[test]
    fn rejects_cycles() {
        let text = ".model m\n.inputs a\n.outputs y\n.names y x\n1 1\n.names x y\n1 1\n.end\n";
        assert!(parse_blif(text).is_err());
    }

    #[test]
    fn continuation_lines() {
        let text = ".model m\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n";
        let net = parse_blif(text).unwrap();
        assert_eq!(net.inputs().len(), 2);
    }

    /// The output name of every `.names` block of `text`, and the widest
    /// cover in it.
    fn defined_names(text: &str) -> (Vec<String>, usize) {
        let headers: Vec<Vec<&str>> = text
            .lines()
            .filter(|l| l.starts_with(".names"))
            .map(|l| l.split_whitespace().skip(1).collect())
            .collect();
        let names = headers
            .iter()
            .map(|h| h.last().expect("an output").to_string())
            .collect();
        let widest = headers.iter().map(|h| h.len() - 1).max().unwrap_or(0);
        (names, widest)
    }

    #[test]
    fn wide_gates_round_trip_as_cover_trees() {
        use crate::network::GateKind;
        use crate::verify::equiv_exact;
        for width in [9, 17, 20, 64, 70] {
            for kind in [
                GateKind::And,
                GateKind::Nand,
                GateKind::Or,
                GateKind::Nor,
                GateKind::Xor,
                GateKind::Xnor,
            ] {
                let mut net = Network::new("wide");
                let ins: Vec<SignalId> =
                    (0..width).map(|i| net.add_input(format!("x{i}"))).collect();
                let g = net.add_gate(kind.clone(), ins);
                net.set_output("y", g);
                let text = write_blif(&net);
                let back = parse_blif(&text)
                    .unwrap_or_else(|e| panic!("{kind:?} over {width} inputs: {e}"));
                assert_eq!(
                    equiv_exact(&net, &back, 1 << 16),
                    Some(true),
                    "{kind:?} over {width} inputs"
                );
                let (names, widest) = defined_names(&text);
                assert!(widest <= 8, "{kind:?} over {width}: a {widest}-input cover");
                assert!(names.len() > 2, "{kind:?} over {width} must be split");
            }
        }
    }

    #[test]
    fn cover_tree_names_avoid_existing_signals() {
        use crate::network::GateKind;
        use crate::verify::equiv_exact;
        // The inputs and a second gate already use the names a tree for
        // `y` would take first.
        let mut net = Network::new("clash");
        let ins: Vec<SignalId> = (0..17).map(|i| net.add_input(format!("y_t{i}"))).collect();
        let y = net.add_gate(GateKind::Xnor, ins.clone());
        net.set_signal_name(y, "y");
        let z = net.add_gate(GateKind::Or, ins);
        net.set_signal_name(z, "y_t17");
        net.set_output("y", y);
        net.set_output("z", z);
        let text = write_blif(&net);
        let (mut names, widest) = defined_names(&text);
        assert!(widest <= 8);
        let defined = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), defined, "a name is defined twice:\n{text}");
        let inputs: Vec<String> = (0..17).map(|i| format!("y_t{i}")).collect();
        assert!(
            names.iter().all(|n| !inputs.contains(n)),
            "a cover drives an input:\n{text}"
        );
        let back = parse_blif(&text).expect("reparse");
        assert_eq!(equiv_exact(&net, &back, 1 << 16), Some(true));
    }

    /// A named gate takes the positional name of an unnamed one, and an
    /// output driven by the unnamed gate takes the name of a third: each
    /// name is still defined once, and the text reads back equal.
    #[test]
    fn no_name_is_defined_twice() {
        use crate::network::GateKind;
        use crate::verify::equiv_exact;
        let mut net = Network::new("names");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let and = net.add_gate(GateKind::And, vec![a, b]);
        let or = net.add_gate(GateKind::Or, vec![a, b]);
        net.set_signal_name(or, format!("n{}", and.0));
        let xor = net.add_gate(GateKind::Xor, vec![and, or]);
        net.set_signal_name(xor, "z");
        net.set_output("z", and);
        net.set_output("w", xor);
        net.set_output(format!("n{}", and.0), or);
        let text = write_blif(&net);
        let (mut names, _) = defined_names(&text);
        let defined = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), defined, "a name is defined twice:\n{text}");
        assert!(!names.iter().any(|n| n == "a" || n == "b"), "{text}");
        let back = parse_blif(&text).expect("reparse");
        assert_eq!(equiv_exact(&net, &back, 1 << 16), Some(true));
    }

    #[test]
    fn writes_structured_gates() {
        use crate::network::GateKind;
        let mut net = Network::new("gates");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let m = net.add_gate(GateKind::Maj, vec![a, b, c]);
        let x = net.add_gate(GateKind::Xor, vec![a, m]);
        net.set_output("y", x);
        let text = write_blif(&net);
        let net2 = parse_blif(&text).unwrap();
        let p = [0xAAAA, 0xCCCC, 0xF0F0];
        assert_eq!(net.simulate(&p), net2.simulate(&p));
    }
}
