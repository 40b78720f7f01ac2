//! Log-bucketed HDR-style latency histograms.
//!
//! No external crates: buckets are power-of-two *octaves*, each split into
//! 32 linear sub-buckets, so any recorded value is off by at most 1/32
//! (≈ 3.2%) of itself. Values below 32 are exact (one bucket per value).
//! Two histograms merge by adding their count arrays, which makes per-worker
//! recording embarrassingly parallel: each worker keeps its own histogram and
//! the stitcher folds them together, associatively and commutatively.
//! The count array grows on demand to the highest bucket recorded, so a
//! histogram of sub-millisecond latencies holds a few hundred bytes, not
//! one counter for every bucket up to `u64::MAX`.

use obase_ser::Json;

/// Linear sub-buckets per power-of-two octave (2^5; must match `SUB_BITS`).
const SUBS: u64 = 32;
/// log2 of [`SUBS`].
const SUB_BITS: u32 = 5;
/// Total bucket count: indices 0..32 are exact values 0..32, then one group
/// of 32 sub-buckets per octave 5..=63.
#[cfg(test)]
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUBS as usize;

/// A mergeable latency histogram over `u64` microsecond durations.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Counts per bucket, up to the highest bucket recorded; the buckets
    /// beyond its end count zero.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Equal when the same buckets hold the same counts, however far either
/// count array has grown.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        fn used(counts: &[u64]) -> &[u64] {
            let len = counts.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
            &counts[..len]
        }
        used(&self.counts) == used(&other.counts)
            && (self.count, self.sum, self.min, self.max)
                == (other.count, other.sum, other.min, other.max)
    }
}

impl Eq for Histogram {}

/// Maps a value to its bucket index.
fn index_of(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = (v >> (exp - SUB_BITS)) & (SUBS - 1);
        ((exp - SUB_BITS + 1) as u64 * SUBS + sub) as usize
    }
}

/// The smallest value mapping to bucket `index` (the bucket's floor).
fn floor_of(index: usize) -> u64 {
    let index = index as u64;
    if index < SUBS {
        index
    } else {
        let exp = index / SUBS - 1 + SUB_BITS as u64;
        let sub = index % SUBS;
        (1u64 << exp) + (sub << (exp - SUB_BITS as u64))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one duration in microseconds.
    pub fn record(&mut self, micros: u64) {
        let i = index_of(micros);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(micros);
        self.min = self.min.min(micros);
        self.max = self.max.max(micros);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the floor of the bucket that
    /// contains the `ceil(q · count)`-th smallest sample. Exact for values
    /// below 32 and for power-of-two-aligned values; otherwise within 3.2%.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return floor_of(i);
            }
        }
        self.max
    }

    /// Folds `other` into `self` by adding count arrays. Associative and
    /// commutative, so per-worker histograms can be merged in any order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The standard percentile summary as JSON:
    /// `{count, min_us, mean_us, max_us, p50, p90, p99, p999}`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("count", Json::Int(self.count as i64)),
            ("min_us", Json::Int(self.min() as i64)),
            ("mean_us", Json::Float(self.mean())),
            ("max_us", Json::Int(self.max as i64)),
            ("p50", Json::Int(self.percentile(0.50) as i64)),
            ("p90", Json::Int(self.percentile(0.90) as i64)),
            ("p99", Json::Int(self.percentile(0.99) as i64)),
            ("p999", Json::Int(self.percentile(0.999) as i64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        // Every value below 32 has its own bucket, so percentiles land
        // exactly on the recorded values.
        assert_eq!(h.percentile(1.0 / 32.0), 0);
        assert_eq!(h.percentile(0.5), 15);
        assert_eq!(h.percentile(1.0), 31);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn bucket_floor_inverts_index() {
        for v in [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            100,
            1_000,
            4_095,
            4_096,
            1 << 20,
            (1 << 20) + 12_345,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = index_of(v);
            let f = floor_of(i);
            assert!(f <= v, "floor {f} above value {v}");
            // Relative error bounded by one sub-bucket width.
            if v >= SUBS {
                assert!(v - f <= v / SUBS, "error too large at {v}: floor {f}");
            } else {
                assert_eq!(f, v);
            }
            // The floor maps back to the same bucket.
            assert_eq!(index_of(f), i);
        }
    }

    #[test]
    fn power_of_two_values_are_exact() {
        let mut h = Histogram::new();
        for exp in 0..40u32 {
            h.record(1u64 << exp);
        }
        assert_eq!(h.percentile(1.0), 1u64 << 39);
        assert_eq!(h.percentile(1.0 / 40.0), 1);
    }

    #[test]
    fn percentiles_within_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expect) in [(0.5, 50_000u64), (0.9, 90_000), (0.99, 99_000)] {
            let got = h.percentile(q);
            let err = expect.abs_diff(got) as f64 / expect as f64;
            assert!(err <= 1.0 / 32.0, "q={q}: got {got}, want ≈{expect}");
        }
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut parts: Vec<Histogram> = Vec::new();
        for w in 0..3u64 {
            let mut h = Histogram::new();
            for i in 0..500 {
                h.record(w * 1_000 + i * 7);
            }
            parts.push(h);
        }
        // (a ⊕ b) ⊕ c
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        // a ⊕ (b ⊕ c)
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // c ⊕ b ⊕ a
        let mut rev = parts[2].clone();
        rev.merge(&parts[1]);
        rev.merge(&parts[0]);
        assert_eq!(left, rev);
        assert_eq!(left.count(), 1500);
    }

    /// The same samples recorded into a histogram whose count array covers
    /// every bucket from the start.
    fn fully_sized(samples: &[u64]) -> Histogram {
        let mut h = Histogram {
            counts: vec![0; BUCKETS],
            ..Histogram::new()
        };
        for &v in samples {
            h.record(v);
        }
        h
    }

    #[test]
    fn grown_on_demand_matches_fully_sized() {
        let sets: [&[u64]; 4] = [
            &[],
            &[0, 3, 31],
            &[40, 120, 90, 7_000, 45, 250_000],
            &[5, u64::MAX, 1 << 40, 17],
        ];
        for samples in sets {
            let mut grown = Histogram::new();
            for &v in samples {
                grown.record(v);
            }
            let full = fully_sized(samples);
            assert!(grown.counts.len() <= index_of(grown.max()) + 1);
            assert_eq!(grown, full);
            assert_eq!(full, grown);
            assert_eq!(grown.to_json().to_string(), full.to_json().to_string());
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(grown.percentile(q), full.percentile(q));
            }
            // Merging a short array into a long one, and the reverse, gives
            // what merging the fully sized ones gives.
            let other = [33u64, 1_000, 2];
            let mut small = Histogram::new();
            for &v in &other {
                small.record(v);
            }
            let mut merged_full = full.clone();
            merged_full.merge(&fully_sized(&other));
            let mut into_grown = grown.clone();
            into_grown.merge(&small);
            let mut into_small = small.clone();
            into_small.merge(&grown);
            for m in [&into_grown, &into_small] {
                assert_eq!(m, &merged_full);
                assert_eq!(m.to_json().to_string(), merged_full.to_json().to_string());
            }
        }
        // A different sample is told apart however the arrays are sized.
        assert_ne!(fully_sized(&[40]), {
            let mut h = Histogram::new();
            h.record(41);
            h
        });
    }

    #[test]
    fn empty_histogram_is_benign() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
