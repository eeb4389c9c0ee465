//! A small seeded generator (SplitMix64) so workload inputs are a pure
//! function of `--seed` and do not depend on the repository's `rand`
//! stand-in.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for an independent sub-stream of the same seed.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(
            seed.wrapping_mul(0xD134_2543_DE82_EF95)
                .wrapping_add(stream),
        );
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Draws the constants of one statement. The first draw is taken from
/// the statement's stratum, the rest from the generator: over the `k`
/// instances of a template the decisive constant then covers its range
/// evenly whatever the seed, so the work in a statement list depends on
/// the seed far less than on the code under test.
pub struct Draw<'a> {
    rng: &'a mut Rng,
    stratum: Option<f64>,
}

impl<'a> Draw<'a> {
    /// `stratum` in `[0, 1)`.
    pub fn new(rng: &'a mut Rng, stratum: f64) -> Draw<'a> {
        Draw {
            rng,
            stratum: Some(stratum),
        }
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        match self.stratum.take() {
            Some(u) => ((u * n as f64) as u64).min(n - 1),
            None => self.rng.below(n),
        }
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}
