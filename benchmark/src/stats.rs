//! Median and quartiles, computed the way the driver computes them.

/// First quartile, median and third quartile of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Python's `statistics.quantiles(values, n=4)` (the default
    /// "exclusive" method), so a spread computed here is the spread the
    /// driver computes from the same runs. A single value is its own
    /// quartiles; an empty sample is a caller bug.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut x = values.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        if n == 1 {
            return Quartiles { q1: x[0], median: x[0], q3: x[0], n };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
        };
        Quartiles { q1: cut(1), median: cut(2), q3: cut(3), n }
    }

    /// Distance between the quartiles as a share of the median — the
    /// run-to-run spread the bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2, 10, 4], n=4) == [1.5, 3.0, 7.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0, 10.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!((Quartiles::of(&[3.0, 1.0, 2.0, 10.0, 4.0]).spread() - 5.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn single_value_is_its_own_quartiles() {
        let q = Quartiles::of(&[4.25]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (4.25, 4.25, 4.25, 1));
        assert_eq!(q.spread(), 0.0);
    }
}
