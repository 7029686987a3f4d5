//! Summary statistics for simulation results.
//!
//! The experiments report average and tail (99th/99.9th-percentile) flow
//! completion times, size-class breakdowns, and full CDFs. [`Summary`] keeps
//! a running Welford mean/variance plus — up to [`RETAIN_LIMIT`]
//! observations — all samples for exact percentiles. Beyond the threshold it
//! spills into a bounded log-linear streaming histogram
//! ([`clove_telemetry::Histogram`]) whose quantile error is capped at
//! `2^-SUB_BITS` (≈3.1%), so memory stays constant at the flow counts
//! CAFT-scale topologies produce while small cells keep today's exact,
//! byte-identical results.

use clove_telemetry::Histogram;

/// Exact-percentile retention threshold: a summary keeps raw samples (exact
/// nearest-rank quantiles, journaled as a plain sample array) until the
/// count exceeds this, then converts to streaming-histogram mode.
pub const RETAIN_LIMIT: usize = 65_536;

/// Streaming summary: exact (sample-retaining) below [`RETAIN_LIMIT`],
/// histogram-backed above it.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sorted: bool,
    hist: Option<Box<Histogram>>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary { samples: Vec::new(), count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, sorted: true, hist: None }
    }

    /// Record one observation. Non-finite values are ignored (and should not
    /// occur; they would indicate a simulator bug upstream).
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let n = self.count as f64;
        let delta = x - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        match &mut self.hist {
            Some(h) => h.record_secs(x),
            None => {
                if self.samples.len() == RETAIN_LIMIT {
                    self.spill_to_streaming();
                    if let Some(h) = &mut self.hist {
                        h.record_secs(x);
                    }
                } else {
                    self.sorted = false;
                    self.samples.push(x);
                }
            }
        }
    }

    /// Convert a sample-retaining summary to streaming-histogram mode,
    /// replaying the retained samples into the histogram and dropping the
    /// vector. Welford state (mean/variance/min/max) stays exact; quantiles
    /// switch to the bounded-error histogram estimate. No-op if already
    /// streaming. Public so tests can compare both quantile paths on the
    /// same data.
    pub fn spill_to_streaming(&mut self) {
        if self.hist.is_some() {
            return;
        }
        let mut h = Box::<Histogram>::default();
        for &x in &self.samples {
            h.record_secs(x);
        }
        self.samples = Vec::new();
        self.sorted = true;
        self.hist = Some(h);
    }

    /// True once the summary has spilled to histogram-backed quantiles.
    pub fn is_streaming(&self) -> bool {
        self.hist.is_some()
    }

    /// The backing histogram, present only in streaming mode.
    pub fn hist(&self) -> Option<&Histogram> {
        self.hist.as_deref()
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// The retained samples, in insertion order unless a quantile/CDF call
    /// has sorted them (empty once the summary has spilled to streaming
    /// mode). Re-`add`ing these into a fresh summary in this order
    /// reproduces the summary's state exactly (Welford accumulation is
    /// order-dependent), which is what the experiment journal relies on to
    /// make resumed runs byte-identical to fresh ones.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation, or 0 if fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Quantile by the nearest-rank method; `q` in `[0, 1]`. Exact while
    /// samples are retained; histogram-estimated (≤3.1% relative error,
    /// clamped to the observed range) in streaming mode. Returns 0 for an
    /// empty summary.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if let Some(h) = &self.hist {
            return h.quantile_secs(q).clamp(self.min, self.max);
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        self.samples[rank.min(self.samples.len() - 1)]
    }

    /// Median.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }
    /// 95th percentile.
    pub fn p95(&mut self) -> f64 {
        self.quantile(0.95)
    }
    /// 99th percentile — the paper's tail-latency metric.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }
    /// 99.9th percentile, for deep-tail comparisons at scale.
    pub fn p999(&mut self) -> f64 {
        self.quantile(0.999)
    }

    /// The empirical CDF as `(value, cumulative_fraction)` pairs at up to
    /// `points` evenly spaced ranks — what Figure 9 of the paper plots.
    /// In streaming mode the curve is read off the histogram buckets.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.count == 0 || points == 0 {
            return Vec::new();
        }
        if let Some(h) = &self.hist {
            let buckets = h.nonzero_buckets();
            let total = h.count() as f64;
            let step = (buckets.len().max(points) / points).max(1);
            let mut out = Vec::with_capacity(points + 1);
            let mut cum = 0u64;
            for (i, &(high, c)) in buckets.iter().enumerate() {
                cum += c;
                if i % step == step - 1 || i + 1 == buckets.len() {
                    out.push(((high as f64 * 1e-9).clamp(self.min, self.max), cum as f64 / total));
                }
            }
            return out;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let step = (n.max(points) / points).max(1);
        let mut out = Vec::with_capacity(points + 1);
        let mut i = step - 1;
        while i < n {
            out.push((self.samples[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|&(_, f)| f < 1.0).unwrap_or(true) {
            out.push((self.samples[n - 1], 1.0));
        }
        out
    }

    /// Merge another summary into this one (used when pooling seeds). While
    /// both sides are sample-retaining and the combined count fits under
    /// [`RETAIN_LIMIT`], this re-adds the other side's samples in insertion
    /// order — bit-identical to the historical behavior. Otherwise both
    /// sides spill and the Welford moments combine by the parallel
    /// (Chan et al.) update with an elementwise histogram merge.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.hist.is_none() && other.hist.is_none() && self.count + other.count <= RETAIN_LIMIT as u64 {
            for &x in &other.samples {
                self.add(x);
            }
            return;
        }
        self.spill_to_streaming();
        let na = self.count as f64;
        let nb = other.count as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        self.mean += delta * (nb / n);
        self.m2 += other.m2 + delta * delta * (na * nb / n);
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let h = self.hist.as_mut().expect("spilled above");
        match &other.hist {
            Some(oh) => h.merge(oh),
            None => {
                for &x in &other.samples {
                    h.record_secs(x);
                }
            }
        }
    }

    /// Reassemble a streaming-mode summary from journaled parts. The
    /// moments and histogram must come from [`Summary::export_streaming`]
    /// (or an equivalent encoding) for quantiles to reconstruct exactly.
    pub fn from_streaming_parts(count: u64, mean: f64, m2: f64, min: f64, max: f64, hist: Histogram) -> Summary {
        Summary { samples: Vec::new(), count, mean, m2, min, max, sorted: true, hist: Some(Box::new(hist)) }
    }

    /// The streaming-mode state as journalable parts:
    /// `(count, mean, m2, min, max, histogram)`. `None` while retaining.
    pub fn export_streaming(&self) -> Option<(u64, f64, f64, f64, f64, &Histogram)> {
        self.hist.as_deref().map(|h| (self.count, self.mean, self.m2, self.min, self.max, h))
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroes() {
        let mut s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p99(), 0.0);
        assert!(s.cdf(10).is_empty());
    }

    #[test]
    fn mean_min_max() {
        let mut s = Summary::new();
        for x in [4.0, 2.0, 6.0, 8.0] {
            s.add(x);
        }
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 8.0);
        assert_eq!(s.count(), 4);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut s = Summary::new();
        for x in 1..=100 {
            s.add(x as f64);
        }
        assert_eq!(s.p50(), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.quantile(0.0), 1.0);
    }

    #[test]
    fn quantile_single_sample() {
        let mut s = Summary::new();
        s.add(7.0);
        assert_eq!(s.p50(), 7.0);
        assert_eq!(s.p99(), 7.0);
    }

    #[test]
    fn add_after_quantile_keeps_working() {
        let mut s = Summary::new();
        s.add(1.0);
        assert_eq!(s.p50(), 1.0);
        s.add(100.0);
        s.add(50.0);
        assert_eq!(s.quantile(1.0), 100.0);
    }

    #[test]
    fn std_dev_matches_hand_calc() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.add(x);
        }
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut s = Summary::new();
        for x in (0..1000).rev() {
            s.add(x as f64);
        }
        let cdf = s.cdf(20);
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn merge_pools_samples() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        for x in [1.0, 2.0] {
            a.add(x);
        }
        for x in [3.0, 4.0] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), 2.5);
    }

    #[test]
    fn non_finite_ignored() {
        let mut s = Summary::new();
        s.add(f64::NAN);
        s.add(f64::INFINITY);
        s.add(3.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn spills_to_streaming_past_retain_limit() {
        let mut s = Summary::new();
        for i in 0..=RETAIN_LIMIT {
            s.add(1e-6 * (i + 1) as f64);
        }
        assert!(s.is_streaming());
        assert!(s.samples().is_empty());
        assert_eq!(s.count(), RETAIN_LIMIT + 1);
        // Welford moments stay exact through the spill.
        let expect_mean = 1e-6 * (RETAIN_LIMIT + 2) as f64 / 2.0;
        assert!((s.mean() - expect_mean).abs() / expect_mean < 1e-12);
        // Quantiles come from the histogram, within its 3.1% error bound.
        let exact_p99 = 1e-6 * ((0.99 * (RETAIN_LIMIT + 1) as f64).ceil());
        assert!((s.p99() - exact_p99).abs() / exact_p99 < 0.04, "p99 {} vs {}", s.p99(), exact_p99);
    }

    #[test]
    fn streaming_quantiles_agree_with_exact_path() {
        let mut exact = Summary::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            exact.add(1e-9 * (x % 1_000_000_000) as f64);
        }
        let mut streaming = exact.clone();
        streaming.spill_to_streaming();
        assert!(streaming.is_streaming() && !exact.is_streaming());
        assert_eq!(streaming.count(), exact.count());
        assert_eq!(streaming.mean(), exact.mean());
        for q in [0.5, 0.99, 0.999] {
            let (e, s) = (exact.quantile(q), streaming.quantile(q));
            assert!((s - e).abs() <= e * 0.04 + 2e-9, "q{q}: streaming {s} vs exact {e}");
        }
    }

    #[test]
    fn merge_spills_when_combined_count_overflows_retention() {
        let mut a = Summary::new();
        let mut b = Summary::new();
        for i in 0..RETAIN_LIMIT {
            a.add(1e-6 * (i + 1) as f64);
            b.add(1e-6 * (i + 1) as f64);
        }
        assert!(!a.is_streaming() && !b.is_streaming());
        a.merge(&b);
        assert!(a.is_streaming());
        assert_eq!(a.count(), 2 * RETAIN_LIMIT);
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.max(), b.max());
    }

    #[test]
    fn streaming_round_trips_through_parts() {
        let mut s = Summary::new();
        for x in [1e-3, 2e-3, 5e-3, 9e-3] {
            s.add(x);
        }
        s.spill_to_streaming();
        let (count, mean, m2, min, max, hist) = s.export_streaming().unwrap();
        let mut back = Summary::from_streaming_parts(count, mean, m2, min, max, hist.clone());
        assert_eq!(back.count(), s.count());
        assert_eq!(back.mean(), s.mean());
        assert_eq!(back.std_dev(), s.std_dev());
        assert_eq!(back.p99(), s.p99());
        assert_eq!(back.p999(), s.p999());
    }

    #[test]
    fn streaming_cdf_is_monotone() {
        let mut s = Summary::new();
        for i in 0..1000 {
            s.add(1e-6 * (i + 1) as f64);
        }
        s.spill_to_streaming();
        let cdf = s.cdf(20);
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }
}
