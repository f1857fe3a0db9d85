//! The benchmark's own seeded random source: the load must not change
//! because a generator elsewhere in the repository was edited.

/// SplitMix64: tiny, fast, and good enough to pick words and arrival times.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`label`), so adding a draw
    /// in one part of the generator does not shift every other part.
    pub fn fork(seed: u64, label: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in label.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in the open interval `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::fork(7, "a");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::fork(7, "a");
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(
            Rng::fork(7, "text").next_u64(),
            Rng::fork(7, "arrivals").next_u64()
        );
        assert_ne!(
            Rng::fork(7, "text").next_u64(),
            Rng::fork(8, "text").next_u64()
        );
    }

    #[test]
    fn zipf_stays_in_bounds_and_prefers_low_ranks() {
        let zipf = Zipf::new(64, 1.0);
        let mut rng = Rng::fork(1, "a");
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            let rank = zipf.sample(&mut rng);
            assert!(rank < 64);
            counts[rank] += 1;
        }
        assert!(counts[0] > counts[7] && counts[7] > counts[63]);
        // Harmonic(64) ≈ 4.744, so rank 0 draws about 21 % of the samples.
        let share = counts[0] as f64 / 20_000.0;
        assert!((0.18..0.24).contains(&share), "{share}");
        assert_eq!(Zipf::new(1, 1.0).sample(&mut rng), 0);
    }
}
