//! Flow-completion-time collection and the paper's summary views.
//!
//! Every figure in the evaluation is some projection of the FCT sample
//! set: overall average (Fig 4, 8), mice (<100 KB) and elephant (>10 MB)
//! averages (Fig 5a/5b), the 99th percentile (Fig 5c), and mice-FCT CDFs
//! (Fig 9). [`FctCollector`] gathers `(size, start, end)` records;
//! [`FctSummary`] computes all of those projections over [`Summary`]
//! sample sets.

use clove_sim::Time;
use rustc_hash::FxHashMap;

/// The paper's mice-flow threshold (Figure 5a).
pub const MICE_BYTES: u64 = 100_000;
/// The paper's elephant-flow threshold (Figure 5b).
pub const ELEPHANT_BYTES: u64 = 10_000_000;

/// One completed flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowRecord {
    /// Payload bytes.
    pub bytes: u64,
    /// Job arrival time (FCT includes connection queueing, as in the
    /// paper's client model).
    pub start: Time,
    /// Completion (last byte acknowledged).
    pub end: Time,
}

impl FlowRecord {
    /// The flow completion time in seconds.
    pub fn fct_secs(&self) -> f64 {
        self.end.saturating_since(self.start).as_secs_f64()
    }
}

/// Collects job starts and completions during a run.
#[derive(Debug, Default)]
pub struct FctCollector {
    started: FxHashMap<u64, (u64, Time)>, // job id -> (bytes, start)
    finished: Vec<FlowRecord>,
}

impl FctCollector {
    /// An empty collector.
    pub fn new() -> FctCollector {
        FctCollector::default()
    }

    /// Record a job arrival.
    pub fn job_started(&mut self, job_id: u64, bytes: u64, now: Time) {
        self.started.insert(job_id, (bytes, now));
    }

    /// Record a job completion; unknown ids are ignored (defensive).
    pub fn job_finished(&mut self, job_id: u64, now: Time) {
        if let Some((bytes, start)) = self.started.remove(&job_id) {
            self.finished.push(FlowRecord { bytes, start, end: now });
        }
    }

    /// Completed flows.
    pub fn records(&self) -> &[FlowRecord] {
        &self.finished
    }

    /// Jobs still outstanding (did not complete before the horizon).
    pub fn outstanding(&self) -> usize {
        self.started.len()
    }

    /// Jobs completed.
    pub fn completed(&self) -> usize {
        self.finished.len()
    }

    /// Summarize.
    pub fn summarize(&self) -> FctSummary {
        let mut all = Summary::new();
        let mut mice = Summary::new();
        let mut elephants = Summary::new();
        for r in &self.finished {
            let fct = r.fct_secs();
            all.add(fct);
            if r.bytes < MICE_BYTES {
                mice.add(fct);
            }
            if r.bytes > ELEPHANT_BYTES {
                elephants.add(fct);
            }
        }
        FctSummary { all, mice, elephants, incomplete: self.started.len() }
    }
}

/// An exact FCT sample set: every observation in insertion order, plus the
/// Welford running mean. Quantiles and CDFs are nearest-rank over the
/// samples themselves, so they are exact at every flow count. Beside the
/// 24-byte [`FlowRecord`] the collector keeps per flow, an 8-byte sample is
/// little memory.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    samples: Vec<f64>,
    mean: f64,
    /// Set once a quantile or CDF call has sorted `samples` in place; an
    /// `add` clears it.
    sorted: bool,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary::default()
    }

    /// Record one observation. Non-finite values are ignored (and should not
    /// occur; they would indicate a simulator bug upstream).
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.samples.push(x);
        self.sorted = false;
        self.mean += (x - self.mean) / self.samples.len() as f64;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The samples, in insertion order unless a quantile/CDF call has
    /// sorted them. Re-`add`ing these into a fresh summary in this order
    /// reproduces the summary's state exactly (the running mean is
    /// order-dependent), which is what the experiment journal relies on to
    /// make resumed runs byte-identical to fresh ones.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Quantile by the nearest-rank method; `q` in `[0, 1]` (`0` is the
    /// smallest sample, `1` the largest). Returns 0 for an empty summary.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).max(1) - 1;
        self.samples[rank.min(n - 1)]
    }

    /// Median.
    pub fn p50(&mut self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th percentile — the paper's tail-latency metric.
    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    /// The empirical CDF as `(value, cumulative_fraction)` pairs at up to
    /// `points` evenly spaced ranks — what Figure 9 of the paper plots.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let step = (n.max(points) / points).max(1);
        let mut out: Vec<(f64, f64)> = (step - 1..n).step_by(step).map(|i| (self.samples[i], (i + 1) as f64 / n as f64)).collect();
        if out.last().is_none_or(|&(_, f)| f < 1.0) {
            out.push((self.samples[n - 1], 1.0));
        }
        out
    }

    /// Pool another summary into this one (seed pooling): its samples are
    /// re-added in their stored order.
    pub fn merge(&mut self, other: &Summary) {
        for &x in &other.samples {
            self.add(x);
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }
}

/// The paper's FCT projections for one run.
#[derive(Debug, Clone)]
pub struct FctSummary {
    /// Every completed flow.
    pub all: Summary,
    /// Flows under 100 KB (Figure 5a).
    pub mice: Summary,
    /// Flows over 10 MB (Figure 5b).
    pub elephants: Summary,
    /// Jobs that had not completed at the horizon.
    pub incomplete: usize,
}

impl FctSummary {
    /// Average FCT over all flows, seconds (Figures 4 and 8).
    pub fn avg(&self) -> f64 {
        self.all.mean()
    }

    /// 99th-percentile FCT, seconds (Figure 5c).
    pub fn p99(&mut self) -> f64 {
        self.all.p99()
    }

    /// Mice CDF (Figure 9).
    pub fn mice_cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        self.mice.cdf(points)
    }

    /// Merge another summary (seed pooling).
    pub fn merge(&mut self, other: &FctSummary) {
        self.all.merge(&other.all);
        self.mice.merge(&other.mice);
        self.elephants.merge(&other.elephants);
        self.incomplete += other.incomplete;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_finish_round_trip() {
        let mut c = FctCollector::new();
        c.job_started(1, 50_000, Time::from_millis(10));
        c.job_started(2, 20_000_000, Time::from_millis(10));
        c.job_finished(1, Time::from_millis(30));
        assert_eq!(c.completed(), 1);
        assert_eq!(c.outstanding(), 1);
        c.job_finished(2, Time::from_millis(510));
        let mut s = c.summarize();
        assert_eq!(s.all.count(), 2);
        assert!((s.avg() - 0.26).abs() < 1e-9);
        assert_eq!(s.mice.count(), 1);
        assert_eq!(s.elephants.count(), 1);
        assert!((s.p99() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn boundary_sizes_classified_per_paper() {
        let mut c = FctCollector::new();
        // Exactly 100 KB is not "less than 100 KB".
        c.job_started(1, MICE_BYTES, Time::ZERO);
        c.job_finished(1, Time::from_millis(1));
        // Exactly 10 MB is not "greater than 10 MB".
        c.job_started(2, ELEPHANT_BYTES, Time::ZERO);
        c.job_finished(2, Time::from_millis(1));
        let s = c.summarize();
        assert_eq!(s.mice.count(), 0);
        assert_eq!(s.elephants.count(), 0);
        assert_eq!(s.all.count(), 2);
    }

    #[test]
    fn unknown_completion_ignored() {
        let mut c = FctCollector::new();
        c.job_finished(42, Time::from_millis(1));
        assert_eq!(c.completed(), 0);
    }

    #[test]
    fn incomplete_counted() {
        let mut c = FctCollector::new();
        c.job_started(1, 1000, Time::ZERO);
        let s = c.summarize();
        assert_eq!(s.incomplete, 1);
    }

    #[test]
    fn merge_pools() {
        let mut a = FctCollector::new();
        a.job_started(1, 1000, Time::ZERO);
        a.job_finished(1, Time::from_millis(2));
        a.job_started(3, 1000, Time::ZERO);
        let mut b = FctCollector::new();
        b.job_started(2, 1000, Time::ZERO);
        b.job_finished(2, Time::from_millis(4));
        let mut s = a.summarize();
        s.merge(&b.summarize());
        assert_eq!(s.all.count(), 2);
        assert_eq!(s.mice.count(), 2);
        assert_eq!(s.incomplete, 1);
        assert!((s.avg() - 0.003).abs() < 1e-9);
    }

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
        assert_eq!(s.quantile(0.0), 2.0);
        assert_eq!(s.quantile(1.0), 8.0);
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

    /// Past the 65,536 samples where quantiles used to switch to a
    /// histogram estimate, p99 is still the exact nearest-rank sample and
    /// the CDF is read off the samples themselves.
    #[test]
    fn quantiles_and_cdf_stay_exact_past_65536_samples() {
        const N: usize = 70_000;
        let mut s = Summary::new();
        // A permutation of 1..=N µs, so rank r holds exactly r µs.
        for i in 0..N {
            s.add(1e-6 * ((i * 7919) % N + 1) as f64);
        }
        assert_eq!(s.count(), N);
        assert_eq!(s.p99(), 1e-6 * 69_300.0);
        assert_eq!(s.p50(), 1e-6 * 35_000.0);
        let cdf = s.cdf(100);
        assert_eq!(cdf.len(), 100);
        for (k, &(value, fraction)) in cdf.iter().enumerate() {
            let rank = (k + 1) * N / 100;
            assert_eq!((value, fraction), (1e-6 * rank as f64, rank as f64 / N as f64));
        }
    }
}
