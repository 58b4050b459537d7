//! The benchmark's own arithmetic: medians, the tail-percentile rule, the
//! geometric mean, and reading the process's peak resident set.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile of `xs` (`0 < q < 1`), reported only when at
/// least [`MIN_TAIL_SAMPLES`] samples lie strictly above its rank: a p90
/// needs 100 samples, so that the tail it describes is more than a few
/// outliers.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    // The epsilon keeps `0.9 * 100` from rounding up to rank 91.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Geometric mean of positive values; `None` when empty or when a value is
/// not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    let mean_ln = xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64;
    Some(mean_ln.exp())
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text, in
/// kB.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// CPU time this process has used, all threads, from
/// `CLOCK_PROCESS_CPUTIME_ID`. Under a hypervisor that reports steal time,
/// the kernel leaves the time other guests held the CPU out of it.
pub fn cpu_time() -> std::time::Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    std::time::Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples above it.
        assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
        // 99 samples: rank 90 leaves nine, too few to call it a p90.
        assert_eq!(tail_percentile(&xs[..99], 0.9), None);
        assert_eq!(tail_percentile(&xs[..10], 0.5), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(tail_percentile(&rev, 0.9), Some(90.0));
        let big: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 0.9), Some(180.0));
        assert_eq!(tail_percentile(&big, 0.95), Some(190.0));
        assert_eq!(tail_percentile(&big, 0.96), None);
    }

    #[test]
    fn geomean_weights_ratios_equally() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12);
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn vmhwm_is_read_in_kb() {
        let status =
            "Name:\tsynthbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(51234));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t x kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 12 MB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn cpu_time_counts_work() {
        let t0 = cpu_time();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        std::hint::black_box(x);
        let used = cpu_time() - t0;
        assert!(used > std::time::Duration::ZERO && used < std::time::Duration::from_secs(60));
    }
}
