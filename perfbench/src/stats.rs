//! Order statistics and the seeded input generator.

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The highest ladder percentile, at most `cap`, that has at least
/// [`MIN_BEYOND`] samples beyond it among `n`. `None` when even the median
/// has too few.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| p <= cap && n - nearest_rank(p, n) >= MIN_BEYOND)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Failed operations as a share of attempted ones.
pub fn failed_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// SplitMix64: the benchmark's only source of generated inputs, so every
/// input is a pure function of the seed argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one input family: `salt` keeps families independent.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over bytes, the digest the daemon stamps on its event stream.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process (Linux `VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    ooc_bench::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// Peak resident set (`VmHWM`) of one call of `f`, MiB, under the
/// program's own allocator settings. Before the call, free heap pages
/// glibc's arenas still hold go back to the kernel (`malloc_trim`) and the
/// kernel's peak count restarts at the current size, so the peak is what
/// `f` grows the process to rather than which freed blocks earlier passes
/// happened to leave resident: without the trim the same run's peak varied
/// by a third between processes. Elsewhere than Linux with glibc it reads
/// the process's lifetime peak.
pub fn peak_rss_mib_of(f: impl FnOnce()) -> f64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers; it releases free memory
        // under glibc's own arena locks.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing "5" restarts the kernel's VmHWM count at the current size.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    f();
    peak_rss_mib()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Rank rounds up: 10 samples, p95 -> rank 10.
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 10.0);
        assert_eq!(percentile(&w, 90.0), 9.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond, p95 only 5.
        assert_eq!(tail_percentile(100, 99.99), Some(90.0));
        // 1000: p99 has 10 beyond, p99.9 only 1.
        assert_eq!(tail_percentile(1000, 99.99), Some(99.0));
        // 20_000: p99.9 has 20 beyond, p99.99 only 2.
        assert_eq!(tail_percentile(20_000, 99.99), Some(99.9));
        // The cap wins when the samples would allow more.
        assert_eq!(tail_percentile(20_000, 95.0), Some(95.0));
        // Too few samples for any percentile.
        assert_eq!(tail_percentile(15, 99.0), None);
        assert_eq!(tail_percentile(20, 99.0), Some(50.0));
        for n in [20usize, 57, 100, 999, 1000, 12_345] {
            let p = tail_percentile(n, 99.99).unwrap();
            assert!(n - nearest_rank(p, n) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn failures_are_a_share_of_attempts() {
        assert_eq!(failed_ratio(10, 0), 0.0);
        assert_eq!(failed_ratio(8, 2), 0.25);
        assert_eq!(failed_ratio(0, 0), 1.0);
    }

    #[test]
    fn rng_is_a_function_of_seed_and_salt() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
