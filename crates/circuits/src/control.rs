//! Random-control and PLA-style generators: stand-ins for the
//! control-dominated MCNC benchmarks (`apex6`, `vda`, `misex3`, `seq`).
//!
//! The MCNC `.blif` distribution is not redistributable here, so each named
//! benchmark is replaced by a seeded pseudo-random circuit of the same
//! functional family and comparable interface/size. The generators are
//! fully deterministic for a given seed.

use logic::{GateKind, Network, SignalId, XorShift64};

/// Configuration of a random two-level (PLA / SOP) circuit.
#[derive(Clone, Copy, Debug)]
pub struct SopConfig {
    /// Number of primary inputs.
    pub inputs: u32,
    /// Number of primary outputs.
    pub outputs: u32,
    /// Product terms per output.
    pub cubes_per_output: u32,
    /// Literals per product term.
    pub literals_per_cube: u32,
    /// PRNG seed.
    pub seed: u64,
}

/// Generates a random multi-output SOP network (AND plane + OR plane),
/// with cube sharing across outputs like a real PLA.
pub fn random_sop(config: SopConfig) -> Network {
    let mut net = Network::new(format!("sop_{}x{}", config.inputs, config.outputs));
    let mut rng = XorShift64::new(config.seed);
    let inputs: Vec<SignalId> = (0..config.inputs)
        .map(|i| net.add_input(format!("i{i}")))
        .collect();
    // Literal pool: each input and its complement.
    let literals: Vec<SignalId> = inputs
        .iter()
        .flat_map(|&s| {
            let inv = net.add_gate(GateKind::Inv, vec![s]);
            [s, inv]
        })
        .collect();
    // Shared AND plane: a pool of cubes reused by multiple outputs.
    let pool_size = (config.outputs * config.cubes_per_output * 2 / 3).max(4);
    let mut cubes: Vec<SignalId> = Vec::with_capacity(pool_size as usize);
    for _ in 0..pool_size {
        let k = config.literals_per_cube.max(2);
        let mut lits: Vec<SignalId> = Vec::new();
        let mut used_vars: Vec<u64> = Vec::new();
        while lits.len() < k as usize && used_vars.len() < config.inputs as usize {
            let pick = rng.next_u64() % (literals.len() as u64);
            let var = pick / 2;
            if used_vars.contains(&var) {
                continue;
            }
            used_vars.push(var);
            lits.push(literals[pick as usize]);
        }
        cubes.push(net.add_gate(GateKind::And, lits));
    }
    // OR plane: each output picks a random subset of cubes.
    for o in 0..config.outputs {
        let mut picked: Vec<SignalId> = Vec::new();
        while picked.len() < config.cubes_per_output as usize {
            let c = cubes[(rng.next_u64() % cubes.len() as u64) as usize];
            if !picked.contains(&c) {
                picked.push(c);
            } else if picked.len() >= cubes.len() {
                break;
            }
        }
        let out = net.add_gate(GateKind::Or, picked);
        net.set_output(format!("o{o}"), out);
    }
    net
}

/// Configuration of a random multi-level control DAG.
#[derive(Clone, Copy, Debug)]
pub struct ControlConfig {
    /// Number of primary inputs.
    pub inputs: u32,
    /// Number of primary outputs.
    pub outputs: u32,
    /// Number of internal gates.
    pub gates: u32,
    /// PRNG seed.
    pub seed: u64,
}

/// Generates a random multi-level AND/OR/INV/MUX network, the shape of
/// `apex6`-style random control logic.
pub fn random_control(config: ControlConfig) -> Network {
    let mut net = Network::new(format!("ctrl_{}x{}", config.inputs, config.outputs));
    let mut rng = XorShift64::new(config.seed);
    let mut signals: Vec<SignalId> = (0..config.inputs)
        .map(|i| net.add_input(format!("i{i}")))
        .collect();
    for _ in 0..config.gates {
        let pick = |rng: &mut XorShift64, pool: &[SignalId]| {
            // Bias toward recent signals for a multi-level structure.
            let n = pool.len() as u64;
            let r = rng.next_u64() % (n * 2);
            let idx = if r < n {
                r
            } else {
                n - 1 - (r - n) % (n / 2 + 1)
            };
            pool[idx as usize % pool.len()]
        };
        let a = pick(&mut rng, &signals);
        let b = pick(&mut rng, &signals);
        let c = pick(&mut rng, &signals);
        let gate = match rng.next_u64() % 10 {
            0..=3 => {
                if a == b {
                    net.add_gate(GateKind::Inv, vec![a])
                } else {
                    net.add_gate(GateKind::And, vec![a, b])
                }
            }
            4..=7 => {
                if a == b {
                    net.add_gate(GateKind::Inv, vec![a])
                } else {
                    net.add_gate(GateKind::Or, vec![a, b])
                }
            }
            8 => net.add_gate(GateKind::Inv, vec![a]),
            _ => {
                if b == c {
                    net.add_gate(GateKind::Inv, vec![b])
                } else {
                    net.add_gate(GateKind::Mux, vec![a, b, c])
                }
            }
        };
        signals.push(gate);
    }
    // Outputs: the most recently created gates (deepest logic).
    let n = signals.len();
    for o in 0..config.outputs as usize {
        let s = signals[n - 1 - o % (config.gates as usize).max(1)];
        net.set_output(format!("o{o}"), s);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sop_is_deterministic_for_a_seed() {
        let cfg = SopConfig {
            inputs: 10,
            outputs: 5,
            cubes_per_output: 6,
            literals_per_cube: 4,
            seed: 42,
        };
        let a = random_sop(cfg);
        let b = random_sop(cfg);
        let patterns: Vec<u64> = (0..10)
            .map(|i| 0x123456789abcdef0u64.rotate_left(i))
            .collect();
        assert_eq!(a.simulate(&patterns), b.simulate(&patterns));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn sop_interface_matches_config() {
        let cfg = SopConfig {
            inputs: 17,
            outputs: 39,
            cubes_per_output: 8,
            literals_per_cube: 5,
            seed: 7,
        };
        let net = random_sop(cfg);
        assert_eq!(net.inputs().len(), 17);
        assert_eq!(net.outputs().len(), 39);
        let c = net.gate_counts();
        assert!(c.and > 0 && c.or == 39);
    }

    #[test]
    fn sop_outputs_are_nonconstant() {
        let cfg = SopConfig {
            inputs: 12,
            outputs: 8,
            cubes_per_output: 5,
            literals_per_cube: 4,
            seed: 3,
        };
        let net = random_sop(cfg);
        let mut rng = XorShift64::new(99);
        let mut any_zero = [false; 8];
        let mut any_one = vec![false; 8];
        for _ in 0..64 {
            let patterns: Vec<u64> = (0..12).map(|_| rng.next_u64()).collect();
            for (o, w) in net.simulate(&patterns).iter().enumerate() {
                if *w != u64::MAX {
                    any_zero[o] = true;
                }
                if *w != 0 {
                    any_one[o] = true;
                }
            }
        }
        let live = any_zero
            .iter()
            .zip(&any_one)
            .filter(|(z, o)| **z && **o)
            .count();
        assert!(
            live >= 6,
            "most SOP outputs should be non-constant, got {live}"
        );
    }

    #[test]
    fn control_dag_is_deterministic_and_sized() {
        let cfg = ControlConfig {
            inputs: 20,
            outputs: 10,
            gates: 200,
            seed: 5,
        };
        let a = random_control(cfg);
        let b = random_control(cfg);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.inputs().len(), 20);
        assert_eq!(a.outputs().len(), 10);
        assert!(a.len() >= 200, "requested gate count present");
        let patterns: Vec<u64> = (0..20)
            .map(|i| (i as u64).wrapping_mul(0x9e3779b9))
            .collect();
        assert_eq!(a.simulate(&patterns), b.simulate(&patterns));
    }

    #[test]
    fn control_dag_has_depth() {
        let cfg = ControlConfig {
            inputs: 16,
            outputs: 8,
            gates: 300,
            seed: 11,
        };
        let net = random_control(cfg);
        assert!(
            net.depth() > 5,
            "multi-level structure expected, depth {}",
            net.depth()
        );
    }
}
