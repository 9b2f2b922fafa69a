//! Input generation. The program under test only ever sees the keys and
//! values produced here. Values and every choice of the op stream derive
//! from the `--seed` argument, keys from a fixed universe, so the same seed
//! gives the same inputs.

use std::collections::HashSet;

/// SplitMix64: small, fast and good enough to drive workload choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(θ) over ranks `0..n`, by inverse transform on a precomputed CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for p in &mut cdf {
            *p /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&p| p < u).min(self.cdf.len() - 1)
    }
}

/// A key of the Section 6.2 shape: seven decimal digits, then a one-letter
/// `tag` and up to four random lowercase letters (8 to 12 bytes). Keys with
/// different tags never collide, which lets independent writers mint fresh
/// keys without coordinating.
pub fn key(rng: &mut Rng, tag: u8) -> Vec<u8> {
    let mut key = format!("{:07}", rng.below(10_000_000)).into_bytes();
    key.push(tag);
    for _ in 0..rng.below(5) {
        key.push(b'a' + rng.below(26) as u8);
    }
    key
}

/// A fresh 20-byte value (the paper's Section 6.2 record shape).
pub fn value(rng: &mut Rng) -> Vec<u8> {
    format!("{:020}", rng.next_u64()).into_bytes()
}

/// Seed of the key universe. Keys do not depend on `--seed`: a POS-tree's
/// shape is a pure function of its key set, so seeded keys would change the
/// tree's height and node sizes, and every index cost with them, from seed
/// to seed. The seed draws the values and every choice of the op stream.
const KEY_UNIVERSE: u64 = 0x5917_2000;

/// Key stream number `stream` of the fixed universe.
pub fn key_stream(stream: u64) -> Rng {
    Rng::new(KEY_UNIVERSE, stream)
}

/// `n` distinct records in generation order (which is random in key order):
/// the fixed first `n` keys of the universe with values drawn from `seed`.
pub fn records(seed: u64, n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut keys = key_stream(0);
    let mut values = Rng::new(seed, 0x5EED);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let tag = b'a' + keys.below(16) as u8;
        let key = key(&mut keys, tag);
        if seen.insert(key.clone()) {
            out.push((key, value(&mut values)));
        }
    }
    out
}

/// User bytes of a set of writes: key plus value lengths.
pub fn user_bytes(writes: &[(Vec<u8>, Vec<u8>)]) -> u64 {
    writes.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_deterministic_distinct_and_shaped() {
        let a = records(7, 2000);
        assert_eq!(a, records(7, 2000));
        let b = records(8, 2000);
        assert!(a.iter().zip(&b).all(|(x, y)| x.0 == y.0 && x.1 != y.1));
        let distinct: HashSet<_> = a.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(distinct.len(), a.len());
        assert!(a
            .iter()
            .all(|(k, v)| (8..=12).contains(&k.len()) && v.len() == 20));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1, 2);
        let hits = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
        assert!(hits > 2500, "top 1% of ranks drew {hits} of 10000");
    }
}
