//! Checkpoint/resume must be invisible in the output: a run interrupted
//! half-way and resumed — at a *different* `--jobs` width — must render
//! byte-identical tables and reports. These tests simulate the
//! interruption by deleting half the journal entries a complete run
//! produced, then re-running with `resume = true`.

use clove_harness::config::ScenarioSpec;
use clove_harness::experiments::{self, ExpConfig};
use clove_harness::report::FaultTable;
use clove_harness::{Journal, Scheme, TopologyKind};
use std::path::PathBuf;
use std::sync::Arc;

fn smoke() -> ExpConfig {
    // seeds = 2 so the seed axis actually fans out.
    ExpConfig { jobs_per_conn: 4, conns_per_client: 1, seeds: 2, horizon_secs: 10, jobs: 1, strict: false, ..ExpConfig::quick() }
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clove-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Delete every other journal entry file under `root`, in sorted order —
/// a deterministic stand-in for "the process died half-way through".
fn forget_half_the_entries(root: &PathBuf) -> usize {
    let mut entries: Vec<PathBuf> = Vec::new();
    for scope in std::fs::read_dir(root).expect("journal root exists") {
        let scope = scope.expect("readable scope").path();
        if scope.is_dir() {
            for f in std::fs::read_dir(&scope).expect("readable scope dir") {
                entries.push(f.expect("readable entry").path());
            }
        }
    }
    entries.sort();
    let mut deleted = 0;
    for path in entries.iter().step_by(2) {
        std::fs::remove_file(path).expect("entry removable");
        deleted += 1;
    }
    deleted
}

#[test]
fn resilience_resume_is_byte_identical_at_a_different_jobs_width() {
    // Two sweeps through the one resume path: data-plane faults
    // (`resilience`) and control-plane loss (`feedback`).
    type Sweep = fn(&[Scheme], &ExpConfig) -> FaultTable;
    let sweeps: [(&str, Sweep, &[Scheme]); 2] =
        [("resilience", experiments::resilience, &[Scheme::Ecmp, Scheme::CloveEcn]), ("feedback", experiments::feedback_degradation, &[Scheme::CloveEcn])];
    for (tag, sweep, schemes) in sweeps {
        let root = tmp_root(tag);

        let journal = Arc::new(Journal::open(&root, false).expect("journal opens"));
        let full = sweep(schemes, &smoke().with_journal(Some(Arc::clone(&journal))));
        assert!(journal.stores() > 0, "{tag}: a journaled run must checkpoint its cells");

        let deleted = forget_half_the_entries(&root);
        assert!(deleted > 0, "{tag}: the interruption must actually lose entries");

        // Resume at a different worker count: surviving cells come from
        // disk, the "lost" ones re-execute, and the render must not budge
        // a byte.
        let resumed_journal = Arc::new(Journal::open(&root, true).expect("journal reopens"));
        let resumed = sweep(schemes, &smoke().with_jobs(8).with_journal(Some(Arc::clone(&resumed_journal))));
        assert!(resumed_journal.hits() > 0, "{tag}: resume must serve the surviving cells from disk");
        assert_eq!(full.render(), resumed.render(), "{tag}");
        assert_eq!(full.to_csv(), resumed.to_csv(), "{tag}");

        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn fresh_open_discards_a_previous_runs_checkpoints() {
    let root = tmp_root("fresh");
    let schemes = [Scheme::Ecmp];

    let journal = Arc::new(Journal::open(&root, false).expect("journal opens"));
    experiments::resilience(&schemes, &smoke().with_journal(Some(journal)));

    // Without --resume the journal is wiped: nothing is served from disk.
    let fresh = Arc::new(Journal::open(&root, false).expect("journal reopens"));
    experiments::resilience(&schemes, &smoke().with_journal(Some(Arc::clone(&fresh))));
    assert_eq!(fresh.hits(), 0, "a fresh open must not serve stale entries");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn clove_run_spec_resume_reproduces_the_report_exactly() {
    let root = tmp_root("spec");
    let spec = ScenarioSpec {
        jobs_per_conn: 4,
        conns_per_client: 1,
        seed: 7,
        seeds: 4,
        horizon_secs: 10,
        ..ScenarioSpec::new(Scheme::CloveEcn, TopologyKind::Asymmetric, 0.5)
    };

    let journal = Journal::open(&root, false).expect("journal opens");
    let (full, _, _) = spec.run(2, Some(&journal)).expect("spec runs");
    assert_eq!(journal.stores(), 4, "every seed is checkpointed");

    let deleted = forget_half_the_entries(&root);
    assert_eq!(deleted, 2);

    let resumed_journal = Journal::open(&root, true).expect("journal reopens");
    let (resumed, _, _) = spec.run(4, Some(&resumed_journal)).expect("spec resumes");
    assert_eq!(resumed_journal.hits(), 2, "surviving seeds come from disk");
    assert_eq!(full.to_json().render_pretty(), resumed.to_json().render_pretty());

    let _ = std::fs::remove_dir_all(&root);
}

/// A journaled counter written as a number past 2^53 (`"events": 1e300`)
/// used to decode as `u64::MAX`, and summing two such seeds overflowed in
/// the report fold. Such an entry is now a miss: the seed re-executes and
/// the report equals a fresh run's.
#[test]
fn clove_run_resume_reruns_a_seed_whose_counter_is_past_2_pow_53() {
    use clove_harness::json::Json;
    let root = tmp_root("huge-counter");
    let spec = ScenarioSpec {
        jobs_per_conn: 2,
        conns_per_client: 1,
        seed: 3,
        seeds: 2,
        horizon_secs: 10,
        ..ScenarioSpec::new(Scheme::Ecmp, TopologyKind::Symmetric, 0.5)
    };

    let journal = Journal::open(&root, false).expect("journal opens");
    let (fresh, _, _) = spec.run(1, Some(&journal)).expect("spec runs");
    let scope = root.join("clove-run");
    for entry in std::fs::read_dir(&scope).expect("clove-run scope exists") {
        let path = entry.expect("readable entry").path();
        let Ok(Json::Obj(mut doc)) = Json::parse(&std::fs::read_to_string(&path).expect("readable entry")) else { panic!("{}: an object", path.display()) };
        let Some((_, Json::Obj(fields))) = doc.iter_mut().find(|(key, _)| key == "value") else { panic!("{}: a value object", path.display()) };
        let (_, events) = fields.iter_mut().find(|(name, _)| name == "events").expect("a journaled seed carries its event count");
        *events = Json::Num(1e300);
        std::fs::write(&path, Json::Obj(doc).render()).expect("entry rewritten");
    }

    let resumed_journal = Journal::open(&root, true).expect("journal reopens");
    let (resumed, _, _) = spec.run(2, Some(&resumed_journal)).expect("spec resumes");
    assert_eq!(resumed_journal.hits(), 0, "an unrepresentable counter is a miss");
    assert_eq!(fresh.to_json().render_pretty(), resumed.to_json().render_pretty());

    let _ = std::fs::remove_dir_all(&root);
}
