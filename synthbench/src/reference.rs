//! The machine-speed reference: a fixed task of the benchmark's own, timed
//! right before every circuit run, by which that run's time is scaled.
//!
//! On a host shared with other guests, they slow every process by up to
//! 2x, in phases of tens of seconds, and the loss shows in CPU time as much
//! as in wall time. The reference task is code of the benchmark's own, so
//! no change to the program moves it; what moves it is the machine. Of the
//! tasks tried (random read-modify-writes over 8 MiB, an L1-resident
//! branchy loop, a 64K-entry `HashMap`, and this sort), the sort tracked
//! the circuits' slowdown best: over 240 s of `table2`, a pass's median
//! circuit slowdown against its median reference time had a correlation of
//! 0.95, and circuits per second of 50-s slices spread 2.8% once scaled,
//! against 18% unscaled.

use std::time::Duration;

/// Values sorted per run (128 KiB, inside a core's L2).
const LEN: usize = 1 << 15;

/// CPU time of one reference run at the speed the timings are scaled to:
/// about the task's time on an unloaded 2.1 GHz Xeon vCPU.
pub const NOMINAL_MS: f64 = 0.6;

pub struct Reference {
    buf: Vec<u32>,
    state: u64,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            buf: Vec::with_capacity(LEN),
            state: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// CPU time of one run: fill the buffer with the next xorshift values
    /// and sort it.
    pub fn time(&mut self) -> Duration {
        let t0 = crate::stats::cpu_time();
        self.buf.clear();
        let mut x = self.state;
        for _ in 0..LEN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.buf.push(x as u32);
        }
        self.state = x;
        self.buf.sort_unstable();
        std::hint::black_box(&self.buf);
        crate::stats::cpu_time() - t0
    }
}

/// `cpu_ms` scaled to the reference speed, given the reference's CPU time
/// `ref_ms` when the work ran.
pub fn scaled_ms(cpu_ms: f64, ref_ms: f64) -> f64 {
    cpu_ms * NOMINAL_MS / ref_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_by_the_reference_ratio() {
        assert_eq!(scaled_ms(10.0, NOMINAL_MS), 10.0);
        assert!((scaled_ms(10.0, 2.0 * NOMINAL_MS) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn runs_take_time_and_differ() {
        let mut r = Reference::new();
        let t = r.time();
        let first = r.buf.clone();
        assert!(t > Duration::ZERO);
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        r.time();
        assert_ne!(first, r.buf, "each run sorts new values");
    }
}
