//! `clove-benchmark compare A.json B.json`: A is the base, B the candidate.
//!
//! Per (workload, metric): both medians with quartiles and n, the delta
//! with its base, the bound, and a verdict. This is the tool behind "two
//! sets of runs of one commit agree" and behind every later A/B.

use crate::layers::{Source, PER_LAYER};
use crate::result::{end_to_end, ResultFile, Row, Samples};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets of
    /// runs overlap: the data cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric. `worse` is how far B's median is from A's in the bad
/// direction, as a share of A's median (negative when B is better).
pub fn verdict(a: &Samples, b: &Samples, lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (qa, qb) = (a.quartiles(), b.quartiles());
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse = if qa.median == 0.0 { 0.0 } else { sign * (qb.median - qa.median) / qa.median.abs() };
    let range = |s: &Samples| s.values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let ((alo, ahi), (blo, bhi)) = (range(a), range(b));
    let overlap = alo <= bhi && blo <= ahi;
    let spread = qa.spread().max(qb.spread());
    let v = if spread > bound && overlap {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound && !overlap && -worse > qa.spread() {
        // Better by more than the bound, every run of B ahead of every run
        // of A, and by more than A's own run-to-run spread.
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (v, worse)
}

fn fmt_samples(s: &Samples) -> String {
    let q = s.quartiles();
    format!("{:.6} [{:.6} .. {:.6}] n={}", q.median, q.q1, q.q3, q.n)
}

fn flag(c: Option<bool>) -> &'static str {
    match c {
        Some(true) => "1",
        Some(false) => "0",
        None => "-",
    }
}

/// Compare two result files. Returns the report and whether it passes: no
/// `regressed`, and no workload failing a larger share of its operations.
pub fn compare(a: &ResultFile, b: &ResultFile) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let _ =
        writeln!(out, "base A: {} on {} x{} ({}{})", a.env.rustc, a.env.cpu_model, a.env.nproc, a.env.git_commit, if a.env.git_dirty { ", dirty" } else { "" });
    let _ =
        writeln!(out, "cand B: {} on {} x{} ({}{})", b.env.rustc, b.env.cpu_model, b.env.nproc, b.env.git_commit, if b.env.git_dirty { ", dirty" } else { "" });
    for ra in &a.rows {
        let Some(rb) = b.rows.iter().find(|r| r.workload == ra.workload) else {
            let _ = writeln!(out, "\n{}: missing from B -> regressed", ra.workload);
            pass = false;
            continue;
        };
        let _ = writeln!(out, "\n{} (seed A {}, B {})", ra.workload, ra.seed, rb.seed);
        for (name, sa) in &ra.metrics {
            let Some(meta) = end_to_end(name) else { continue };
            let Some(sb) = rb.metric(name) else {
                let _ = writeln!(out, "  {name:<18} missing from B -> regressed");
                pass = false;
                continue;
            };
            let (v, worse) = verdict(sa, sb, meta.better == "lower", meta.bound);
            pass &= v != Verdict::Regressed;
            let _ = writeln!(
                out,
                "  {name:<18} {:<7} A {}  B {}  delta {:+.2}% of A ({} is better, bound {:.0}%) -> {}",
                meta.unit,
                fmt_samples(sa),
                fmt_samples(sb),
                // Report the plain signed change of the median, not the "worse" share.
                if meta.better == "lower" { worse } else { -worse } * 100.0,
                meta.better,
                meta.bound * 100.0,
                v.name()
            );
        }
        let share = |r: &Row| r.ops_failed as f64 / r.ops_attempted.max(1) as f64;
        let failed_more = share(rb) > share(ra);
        pass &= !failed_more;
        let _ = writeln!(
            out,
            "  ops_failed/ops_attempted  A {}/{}  B {}/{}{}   model_changed  A {}  B {}   sim_digest {}",
            ra.ops_failed,
            ra.ops_attempted,
            rb.ops_failed,
            rb.ops_attempted,
            if failed_more { "  -> larger failed share" } else { "" },
            flag(ra.model_changed),
            flag(rb.model_changed),
            if ra.sim_digest == rb.sim_digest { "identical" } else { "DIFFERS" },
        );
        // Exact layer counts must repeat exactly between two runs of one
        // model at one seed; list the ones that do not.
        let differing: Vec<&str> = ra
            .layers
            .iter()
            .filter(|(name, _, _)| PER_LAYER.iter().any(|m| m.name == name && m.source == Source::Count))
            .filter(|(name, _, va)| rb.layers.iter().any(|(n, _, vb)| n == name && vb.to_bits() != va.to_bits()))
            .map(|(name, _, _)| name.as_str())
            .collect();
        if !ra.layers.is_empty() && !rb.layers.is_empty() {
            let _ = writeln!(out, "  [count] layer metrics differing: {}", if differing.is_empty() { "none".to_string() } else { differing.join(", ") });
        }
    }
    let _ = writeln!(out, "\n{}", if pass { "PASS: no regressed metric, no larger failed share" } else { "FAIL: see regressed / failed-share lines above" });
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::tests::{sample_env, sample_row};

    fn s(values: &[f64]) -> Samples {
        Samples { unit: "s".into(), values: values.to_vec() }
    }

    #[test]
    fn every_verdict_branch() {
        let base = s(&[10.0, 10.1, 10.2, 10.3, 10.4]);
        // Same runs: unchanged.
        assert_eq!(verdict(&base, &base, true, 0.10).0, Verdict::Unchanged);
        // 30 % slower, tight runs: regressed; as events/s (higher better) a
        // drop of the same size is regressed too.
        assert_eq!(verdict(&base, &s(&[13.0, 13.1, 13.2, 13.3, 13.4]), true, 0.10).0, Verdict::Regressed);
        assert_eq!(verdict(&base, &s(&[7.0, 7.1, 7.2, 7.3, 7.4]), false, 0.10).0, Verdict::Regressed);
        // 30 % faster, no overlap, beyond A's spread: improved.
        let (v, worse) = verdict(&base, &s(&[7.0, 7.1, 7.2, 7.3, 7.4]), true, 0.10);
        assert_eq!(v, Verdict::Improved);
        assert!((worse + 0.2942).abs() < 1e-3, "{worse}");
        // 5 % slower: inside the bound, unchanged.
        assert_eq!(verdict(&base, &s(&[10.5, 10.6, 10.7, 10.8, 10.9]), true, 0.10).0, Verdict::Unchanged);
        // Spread wider than the bound and the runs overlap: unresolved,
        // whichever way the medians lean.
        let noisy = s(&[8.0, 10.0, 12.0, 14.0, 16.0]);
        assert_eq!(verdict(&noisy, &s(&[9.0, 11.0, 15.0, 17.0, 19.0]), true, 0.10).0, Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &s(&[7.0, 9.0, 10.0, 11.0, 15.0]), true, 0.10).0, Verdict::Unresolved);
        // Wide spread but every B run beyond every A run: resolved.
        assert_eq!(verdict(&noisy, &s(&[30.0, 34.0, 38.0, 42.0, 46.0]), true, 0.10).0, Verdict::Regressed);
        // Deterministic (n = 1) simulated metric: identical is unchanged,
        // a 5 % rise against a 2 % bound is regressed, a 5 % drop improved.
        assert_eq!(verdict(&s(&[19.23]), &s(&[19.23]), true, 0.02).0, Verdict::Unchanged);
        assert_eq!(verdict(&s(&[19.23]), &s(&[20.2]), true, 0.02).0, Verdict::Regressed);
        assert_eq!(verdict(&s(&[19.23]), &s(&[18.2]), true, 0.02).0, Verdict::Improved);
    }

    #[test]
    fn report_passes_on_agreement_and_fails_on_regression_or_failed_share() {
        let a = ResultFile { env: sample_env(), scale: "full".into(), rows: vec![sample_row("websearch_asym", &[8.0, 8.1, 8.2, 8.3, 8.4])] };
        let (report, pass) = compare(&a, &a);
        assert!(pass, "{report}");
        assert!(report.contains("wall_s") && report.contains("-> unchanged") && report.contains("ops_failed/ops_attempted  A 0/7168  B 0/7168"));
        assert!(report.contains("model_changed  A 0  B 0") && report.contains("[count] layer metrics differing: none"));

        let mut slow = a.clone();
        slow.rows[0] = sample_row("websearch_asym", &[12.0, 12.1, 12.2, 12.3, 12.4]);
        let (report, pass) = compare(&a, &slow);
        assert!(!pass && report.contains("-> regressed"), "{report}");

        let mut failing = a.clone();
        failing.rows[0].ops_failed = 3;
        failing.rows[0].layers[0].2 += 1.0;
        let (report, pass) = compare(&a, &failing);
        assert!(!pass && report.contains("larger failed share") && report.contains("differing: sim.events_popped"), "{report}");

        let (report, pass) = compare(&a, &ResultFile { rows: vec![], ..a.clone() });
        assert!(!pass && report.contains("missing from B"), "{report}");
    }
}
