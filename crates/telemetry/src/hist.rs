//! HDR-style log-linear streaming histogram over `u64` values.
//!
//! The value space is split into powers of two ("octaves"), and every octave
//! at or above `2^SUB_BITS` is subdivided into `2^SUB_BITS` equal linear
//! sub-buckets, bounding the relative quantile error at `2^-SUB_BITS`
//! (3.125% for the `SUB_BITS = 5` used here). Values below `2^SUB_BITS`
//! get one bucket each, so small integers are exact. Memory is a fixed
//! `NUM_BUCKETS` counter array regardless of how many values are recorded,
//! and two histograms merge by elementwise addition, which makes merging
//! exactly associative and commutative (the running sum is a `u128`, so it
//! never saturates on realistic nanosecond workloads).
//!
//! Because sub-buckets nest exactly inside octaves, the histogram can be
//! viewed as a plain log2 histogram (`log2_counts`) with bit-identical
//! counts to bucketing by `64 - v.leading_zeros()` directly — the event
//! queue's delay profile is read through that view, one slot per
//! power-of-two of scheduling distance.

/// Sub-bucket resolution: each octave `[2^m, 2^(m+1))` with `m >= SUB_BITS`
/// is split into `2^SUB_BITS` linear sub-buckets.
pub const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
pub const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: one per value below `SUBS`, then `SUBS` per octave
/// for the remaining `64 - SUB_BITS` octaves (the top octave is partial but
/// still indexable).
pub const NUM_BUCKETS: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// Bucket index for a value. Exact for `v < SUBS`; log-linear above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // floor(log2 v) >= SUB_BITS
        let exp = msb - SUB_BITS;
        let sub = ((v >> exp) as usize) & (SUBS - 1);
        (msb as usize - SUB_BITS as usize + 1) * SUBS + sub
    }
}

/// Highest value contained in bucket `idx` (inverse of [`bucket_index`]).
#[inline]
pub fn bucket_high(idx: usize) -> u64 {
    if idx < SUBS {
        idx as u64
    } else {
        let block = (idx / SUBS) as u32; // >= 1
        let msb = block - 1 + SUB_BITS;
        let exp = msb - SUB_BITS;
        let sub = (idx % SUBS) as u64;
        (1u64 << msb) | (sub << exp) | ((1u64 << exp) - 1)
    }
}

/// Log-linear streaming histogram of `u64` samples (typically nanoseconds).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Empty histogram (allocates the fixed bucket array once).
    pub fn new() -> Histogram {
        Histogram { counts: vec![0; NUM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Record a non-negative duration in seconds, quantized to whole
    /// nanoseconds. Negative and non-finite inputs clamp to zero so a
    /// garbage sample can never panic or poison min/max.
    #[inline]
    pub fn record_secs(&mut self, secs: f64) {
        let ns = secs * 1e9;
        let v = if ns.is_finite() && ns > 0.0 { ns.round() as u64 } else { 0 };
        self.record(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket that
    /// contains the sample of rank `ceil(q * count)`, clamped to the exact
    /// observed `[min, max]` range. Relative error is bounded by
    /// `2^-SUB_BITS` of the true sample value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// [`Histogram::quantile`] for second-denominated samples recorded via
    /// [`Histogram::record_secs`].
    pub fn quantile_secs(&self, q: f64) -> f64 {
        self.quantile(q) as f64 * 1e-9
    }

    /// Merge another histogram into this one. Elementwise addition, so the
    /// operation is exactly associative and commutative.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
    }

    /// Aggregate into a plain log2 histogram: slot 0 counts zero-valued
    /// samples and slot `k` counts samples in `[2^(k-1), 2^k)` — exactly the
    /// bucketing produced by indexing with `64 - v.leading_zeros()`.
    pub fn log2_counts(&self) -> [u64; 65] {
        let mut out = [0u64; 65];
        out[0] = self.counts[0];
        for (k, slot) in out.iter_mut().enumerate().take(SUB_BITS as usize + 1).skip(1) {
            // Octaves below the sub-bucketed range: one bucket per value.
            for v in (1usize << (k - 1))..(1usize << k) {
                *slot += self.counts[v];
            }
        }
        for (k, slot) in out.iter_mut().enumerate().skip(SUB_BITS as usize + 1) {
            let base = (k - SUB_BITS as usize) * SUBS;
            for sub in 0..SUBS {
                *slot += self.counts[base + sub];
            }
        }
        out
    }

    /// Non-empty buckets in index order, as `(bucket_high, count)` pairs.
    /// This is the compact wire form used by snapshots and the journal.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (bucket_high(i), c)).collect()
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs — the exact
    /// internal representation, for lossless serialization (bucket indices
    /// are small integers, so they survive number encodings that `u64`
    /// bucket bounds would not).
    pub fn nonzero_indexed(&self) -> Vec<(usize, u64)> {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect()
    }

    /// Rebuild a histogram from serialized parts: sparse
    /// `(bucket_index, count)` pairs plus the exact sum/min/max that bucket
    /// counts alone cannot reproduce. Inverse of [`Histogram::nonzero_indexed`]
    /// and the stat accessors. Out-of-range indices are ignored; counts that
    /// sum past `u64` (a corrupt encoding) give `None`.
    pub fn from_parts(buckets: &[(usize, u64)], sum: u128, min: u64, max: u64) -> Option<Histogram> {
        let mut h = Histogram::new();
        for &(idx, c) in buckets {
            if idx < NUM_BUCKETS {
                // No bucket exceeds the total, so checking it checks both.
                h.count = h.count.checked_add(c)?;
                h.counts[idx] += c;
            }
        }
        if h.count > 0 {
            h.sum = sum;
            h.min = min;
            h.max = max;
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_exact_below_subs_and_monotone() {
        for v in 0..SUBS as u64 {
            assert_eq!(bucket_index(v), v as usize);
        }
        let mut prev = 0usize;
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            let idx = bucket_index(v);
            assert!(idx >= prev, "index not monotone at 2^{shift}");
            prev = idx;
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_high_inverts_bucket_index() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1000, 1 << 20, u64::MAX / 3, u64::MAX] {
            let idx = bucket_index(v);
            let high = bucket_high(idx);
            assert!(high >= v, "bucket_high({idx}) = {high} < {v}");
            assert_eq!(bucket_index(high), idx, "high of bucket {idx} maps elsewhere");
            if high < u64::MAX {
                assert_ne!(bucket_index(high + 1), idx, "bucket {idx} leaks past its high");
            }
        }
    }

    #[test]
    fn log2_counts_match_leading_zero_bucketing() {
        let mut h = Histogram::new();
        let mut expect = [0u64; 65];
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..10_000 {
            // xorshift values spanning many octaves, plus explicit zeros.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = x >> (x % 60);
            h.record(v);
            expect[(64 - v.leading_zeros()) as usize] += 1;
        }
        h.record(0);
        expect[0] += 1;
        assert_eq!(h.log2_counts(), expect);
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300, 400, 1_000_000] {
            h.record(v);
        }
        // p0 reports the upper bound of min's bucket (101 for 100).
        assert_eq!(h.quantile(0.0), 101);
        assert_eq!(h.quantile(1.0), 1_000_000);
        let p50 = h.quantile(0.5);
        assert!((290..=310).contains(&p50), "p50 = {p50}");
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.sum(), 1_001_000);
    }

    #[test]
    fn record_secs_quantizes_and_survives_garbage() {
        let mut h = Histogram::new();
        h.record_secs(1.5e-6);
        h.record_secs(-4.0);
        h.record_secs(f64::NAN);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 1500);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn merge_adds_counts_and_tracks_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        a.record(5000);
        b.record(2);
        b.record(1 << 40);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.min(), 2);
        assert_eq!(merged.max(), 1 << 40);
        assert_eq!(merged.sum(), a.sum() + b.sum());
        let mut other_way = b.clone();
        other_way.merge(&a);
        assert_eq!(merged, other_way);
    }
}
