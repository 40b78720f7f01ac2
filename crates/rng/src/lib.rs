//! # obase-rng — a small deterministic random number generator
//!
//! The interleaving engine and the scenario compiler need *reproducible*
//! pseudo-randomness: given a seed, a run must replay identically on every
//! machine and toolchain. This crate provides exactly that and nothing more —
//! a ChaCha8-based generator with the handful of sampling helpers the
//! workspace uses (ranges, booleans, Fisher–Yates shuffles). It exists so the
//! workspace has no external dependencies; it makes no cryptographic claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Types that can be built from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Creates a generator deterministically derived from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A source of pseudo-random numbers with the sampling helpers used across
/// the workspace.
pub trait Rng {
    /// The next 64 pseudo-random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 uniformly distributed mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from `range`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn gen_range<T: SampleRange>(&mut self, range: T) -> T::Output {
        range.sample_from(&mut |max| uniform_below(self, max))
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    ///
    /// Always consumes exactly one draw, so call sequences stay aligned
    /// across runs that differ only in `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        // `next_f64` lies in [0, 1), so p <= 0 is always false and p >= 1
        // always true — with the draw consumed in every case.
        self.next_f64() < p
    }
}

/// Draws a uniform value in `0..=max` without modulo bias (rejection
/// sampling on the top bits).
fn uniform_below<R: Rng + ?Sized>(rng: &mut R, max: u64) -> u64 {
    if max == u64::MAX {
        return rng.next_u64();
    }
    let span = max + 1;
    // Largest multiple of `span` that fits in a u64.
    let zone = u64::MAX - (u64::MAX % span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

/// A range that [`Rng::gen_range`] can sample from.
///
/// `sample_from` receives a closure drawing a uniform `u64` in `0..=max`;
/// implementations map that onto their own domain.
pub trait SampleRange {
    /// The sampled value type.
    type Output;

    /// Draws one sample. `draw(max)` returns a uniform value in `0..=max`.
    fn sample_from(self, draw: &mut dyn FnMut(u64) -> u64) -> Self::Output;
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample_from(self, draw: &mut dyn FnMut(u64) -> u64) -> $t {
                assert!(self.start < self.end, "cannot sample an empty range");
                let span = (self.end as i128 - self.start as i128 - 1) as u64;
                (self.start as i128 + draw(span) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            fn sample_from(self, draw: &mut dyn FnMut(u64) -> u64) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample an empty range");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + draw(span) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(usize, u64, u32, i64, i32);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_from(self, draw: &mut dyn FnMut(u64) -> u64) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        let unit = (draw(u64::MAX) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

/// In-place Fisher–Yates shuffling for slices.
pub trait SliceRandom {
    /// Shuffles the slice in place using `rng`.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = rng.gen_range(0..=i);
            self.swap(i, j);
        }
    }
}

/// The ChaCha quarter round.
#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// A deterministic pseudo-random generator built on the ChaCha stream cipher
/// with 8 rounds.
///
/// The 256-bit key is expanded from the 64-bit seed with SplitMix64. Output
/// is *not* bit-compatible with any other ChaCha8 implementation; only
/// determinism across runs and platforms is promised.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    counter: u64,
    buffer: [u64; 8],
    cursor: usize,
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 key expansion.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut key = [0u32; 8];
        for pair in key.chunks_mut(2) {
            let w = next();
            pair[0] = w as u32;
            pair[1] = (w >> 32) as u32;
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buffer: [0; 8],
            cursor: 8,
        }
    }
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // state[14], state[15]: stream id, fixed at 0.
        let input = state;
        for _ in 0..4 {
            // One double round: 4 column rounds then 4 diagonal rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(input) {
            *word = word.wrapping_add(init);
        }
        for (i, slot) in self.buffer.iter_mut().enumerate() {
            *slot = u64::from(state[2 * i]) | (u64::from(state[2 * i + 1]) << 32);
        }
        self.counter = self.counter.wrapping_add(1);
        self.cursor = 0;
    }
}

impl Rng for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        if self.cursor >= self.buffer.len() {
            self.refill();
        }
        let v = self.buffer[self.cursor];
        self.cursor += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be essentially uncorrelated");
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let u = rng.gen_range(0..10usize);
            assert!(u < 10);
            let i = rng.gen_range(-5..=5i64);
            assert!((-5..=5).contains(&i));
            let f = rng.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn ranges_cover_their_domain() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let hits = (0..4000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((800..1200).contains(&hits), "got {hits} of 4000 at p=0.25");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut v: Vec<u32> = (0..20).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(v, (0..20).collect::<Vec<_>>(), "20 elements should move");

        let mut rng2 = ChaCha8Rng::seed_from_u64(6);
        let mut v2: Vec<u32> = (0..20).collect();
        v2.shuffle(&mut rng2);
        assert_eq!(v, v2);
    }

    #[test]
    fn unsized_rng_receivers_work() {
        fn sample(rng: &mut (impl Rng + ?Sized)) -> usize {
            rng.gen_range(0..4usize)
        }
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let dyn_sized: &mut ChaCha8Rng = &mut rng;
        assert!(sample(dyn_sized) < 4);
    }
}
