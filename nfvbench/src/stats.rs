//! Order statistics over the benchmark's own samples.

/// Nearest-rank `q`-quantile of `samples` (sorted in place). Zero when
/// empty. Exact on the recorded values: no bucketing.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median over `windows` consecutive, equal-count chunks of
/// time-ordered `samples` of each chunk's `q`-quantile. A stall confined
/// to a few chunks does not decide the figure.
pub fn windowed_quantile(samples: &[f64], windows: usize, q: f64) -> f64 {
    let size = samples.len().div_ceil(windows.max(1)).max(1);
    let mut per: Vec<f64> = samples.chunks(size).map(|w| quantile(&mut w.to_vec(), q)).collect();
    median(&mut per)
}

/// 64-bit FNV-1a, used for output digests compared across runs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Mixes one integer into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn windowed_quantile_ignores_a_stall_in_one_window() {
        let mut v = vec![1.0; 300];
        v[10] = 50.0;
        assert_eq!(windowed_quantile(&v, 3, 0.99), 1.0);
        assert_eq!(quantile(&mut v.clone(), 1.0), 50.0);
    }
}
