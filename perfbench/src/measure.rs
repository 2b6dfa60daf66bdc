//! Measurement helpers shared by every workload: order statistics with the
//! tail-sample rule, process CPU/RSS/thread readings from `/proc`, seeded
//! input streams and outcome digests.

use std::time::Instant;

/// Median of `xs` (mean of the middle pair for even counts); `0.0` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs` after dropping the lowest and highest `trim` share of
/// samples (at least one sample is kept); `0.0` when empty. Robust to a
/// few operations caught in a stall, unlike the plain mean, yet smooth
/// across a mix of operation sizes, unlike the median.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = ((v.len() as f64 * trim).floor() as usize).min((v.len() - 1) / 2);
    let kept = &v[k..v.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Means of `groups` consecutive runs of `xs`, as equal in length as the
/// count allows (fewer groups when `xs` is shorter). Over samples taken
/// throughout a run, each mean averages the machine's fast and slow
/// spells over a stretch of time, as a trimmed mean of operations does,
/// and a median of the means still ignores one stretch spent in a stall.
pub fn group_means(xs: &[f64], groups: usize) -> Vec<f64> {
    let groups = groups.min(xs.len());
    (0..groups)
        .map(|g| {
            let part = &xs[g * xs.len() / groups..(g + 1) * xs.len() / groups];
            part.iter().sum::<f64>() / part.len() as f64
        })
        .collect()
}

/// Linear-interpolated quantile `q` in `[0, 1]`; `0.0` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Samples needed beyond a tail percentile before it is reported.
pub const TAIL_SAMPLES_BEYOND: f64 = 10.0;

/// Quantile `q`, but only when at least [`TAIL_SAMPLES_BEYOND`] samples
/// lie beyond it; a tail estimated from fewer is noise, not a number.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len() as f64;
    // Samples strictly above the quantile's rank; the epsilon keeps
    // 0.9 * 100 from rounding up to 91.
    let beyond = n - (q * n - 1e-9).ceil();
    (beyond >= TAIL_SAMPLES_BEYOND).then(|| quantile(xs, q))
}

/// Times a set-up in blocks spread over a run. A set-up far shorter than
/// a clock tick or a cache refill is timed many times over per block, and
/// a block is taken between operations, so neither one call's jitter nor
/// a stall of the machine lasting part of the run moves the median of
/// the blocks.
pub struct SetupTimer<F: FnMut()> {
    f: F,
    reps: usize,
    /// Seconds per set-up, one value per block.
    pub samples: Vec<f64>,
    /// Wall time spent in blocks, to leave out of the measured phase.
    pub spent_s: f64,
}

impl<F: FnMut()> SetupTimer<F> {
    /// Doubles the block size until a block lasts at least `min_block_s`;
    /// those calls warm up and are not kept.
    pub fn new(min_block_s: f64, mut f: F) -> Self {
        let mut reps = 1usize;
        loop {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            if t.elapsed().as_secs_f64() >= min_block_s {
                break;
            }
            reps *= 2;
        }
        Self {
            f,
            reps,
            samples: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Times one block.
    pub fn block(&mut self) {
        let t = Instant::now();
        for _ in 0..self.reps {
            (self.f)();
        }
        let s = t.elapsed().as_secs_f64();
        self.spent_s += s;
        self.samples.push(s / self.reps as f64);
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn proc_status_field(name: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Live threads in this process.
pub fn thread_count() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process, exited threads
/// included (`/proc/self/stat`, 10 ms resolution).
pub fn process_cpu_s() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// On-CPU nanoseconds summed over the process's live threads
/// (`/proc/self/task/*/schedstat`, nanosecond resolution). Used at stage
/// boundaries, where the threads (the worker pool) outlive the stage.
pub fn threads_cpu_ns() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| std::fs::read_to_string(e.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// SplitMix64: derives independent input seeds from the workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `(seed, stream)`.
pub fn unit(seed: u64, stream: u64) -> f64 {
    (mix(seed, stream) >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over a byte stream: the outcome digests the correctness gates
/// compare.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let xs: Vec<f64> = (1..=10).map(f64::from).chain([1000.0]).collect();
        assert_eq!(
            trimmed_mean(&xs, 0.1),
            (2..=10).map(f64::from).sum::<f64>() / 9.0
        );
        assert_eq!(trimmed_mean(&[4.0], 0.5), 4.0);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn group_means_keep_order() {
        let xs = [1.0, 3.0, 10.0, 20.0, 100.0, 100.0];
        assert_eq!(group_means(&xs, 3), vec![2.0, 15.0, 100.0]);
        assert_eq!(group_means(&xs[..5], 2), vec![2.0, 130.0 / 3.0]);
        assert_eq!(group_means(&[5.0], 5), vec![5.0]);
        assert!(group_means(&[], 5).is_empty());
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail(&xs, 0.9).is_none(), "99 samples leave 9.9 beyond p90");
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail(&xs, 0.9).is_some());
        assert!(tail(&xs, 0.99).is_none());
    }

    #[test]
    fn seeds_are_deterministic_and_spread() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert!((0..1000)
            .map(|i| unit(1, i))
            .all(|u| (0.0..1.0).contains(&u)));
    }
}
