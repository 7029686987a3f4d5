//! Node faults must not bend the determinism contract: the recovery
//! matrix renders byte-identical tables at any `--jobs` width and under
//! checkpoint/resume, a mid-run host crash survives the strict invariant
//! monitor across the flush/re-discovery window, and tracing a crashed
//! run stays a pure observer that captures the three recovery trace
//! kinds.

use clove_harness::config::ScenarioSpec;
use clove_harness::experiments::{self, ExpConfig};
use clove_harness::{Journal, Scheme};
use std::path::PathBuf;
use std::sync::Arc;

fn smoke() -> ExpConfig {
    // seeds = 2 so the seed axis actually fans out.
    ExpConfig { jobs_per_conn: 4, conns_per_client: 1, seeds: 2, horizon_secs: 10, jobs: 1, strict: false, ..ExpConfig::quick() }
}

/// A quick-scale strict spec with a cold host crash mid-run: hypervisor 0
/// goes dark at 20 ms and reboots 10 ms later with its vswitch state
/// (flowlets, WRR weights, discovery selections) flushed.
fn host_crash_spec(trace: bool) -> ScenarioSpec {
    let json = r#"{"scheme":{"name":"clove-ecn"},"topology":{"kind":"symmetric"},
                   "load":0.4,"jobs_per_conn":3,"conns_per_client":1,"horizon_secs":10,
                   "seed":11,"seeds":2,"strict":true,
                   "node_crash":{"node":"host0","at_ms":20,"down_ms":10,"state":"cold"}}"#;
    ScenarioSpec { trace, ..ScenarioSpec::from_json_str(json).expect("valid spec") }
}

#[test]
fn recovery_csv_identical_serial_vs_jobs8() {
    let schemes = [Scheme::Ecmp, Scheme::CloveEcn];
    let serial = experiments::recovery(&schemes, &smoke());
    let parallel = experiments::recovery(&schemes, &smoke().with_jobs(8));
    assert_eq!(serial.to_csv(), parallel.to_csv());
    // Node outages must actually register in the damage ledger: every
    // reboot case downs cables for a while; clean rows stay clean.
    for case in ["tor-reboot", "host-crash-cold"] {
        let row = serial.row(case, "Clove-ECN").expect("case present");
        assert!(row.stats.down_time.as_secs_f64() > 0.0, "{case} must accrue down time");
    }
    assert_eq!(serial.row("clean", "ECMP").expect("clean row").stats.faults_applied, 0);
}

#[test]
fn recovery_resume_is_byte_identical_at_a_different_jobs_width() {
    let root = {
        let dir = std::env::temp_dir().join(format!("clove-recovery-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let schemes = [Scheme::CloveEcn];

    let journal = Arc::new(Journal::open(&root, false).expect("journal opens"));
    let full = experiments::recovery(&schemes, &smoke().with_journal(Some(Arc::clone(&journal))));
    assert!(journal.stores() > 0, "a journaled run must checkpoint its cells");

    // Delete every other entry — a deterministic stand-in for "the
    // process died half-way through" — then resume at a different width.
    let mut entries: Vec<PathBuf> = Vec::new();
    for scope in std::fs::read_dir(&root).expect("journal root exists") {
        let scope = scope.expect("readable scope").path();
        if scope.is_dir() {
            for f in std::fs::read_dir(&scope).expect("readable scope dir") {
                entries.push(f.expect("readable entry").path());
            }
        }
    }
    entries.sort();
    for path in entries.iter().step_by(2) {
        std::fs::remove_file(path).expect("entry removable");
    }
    assert!(!entries.is_empty());

    let resumed_journal = Arc::new(Journal::open(&root, true).expect("journal reopens"));
    let resumed = experiments::recovery(&schemes, &smoke().with_jobs(8).with_journal(Some(Arc::clone(&resumed_journal))));
    assert!(resumed_journal.hits() > 0, "resume must serve the surviving cells from disk");
    assert_eq!(full.render(), resumed.render());
    assert_eq!(full.to_csv(), resumed.to_csv());

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn host_crash_passes_strict_invariants_and_is_jobs_invariant() {
    // run() errors on any strict-mode invariant violation, so a clean
    // return pins the monitor across the crash, flush and re-discovery
    // window; guest flows opened before the crash must still conserve.
    let spec = host_crash_spec(false);
    let (serial, _, _) = spec.run(1, None).expect("strict host-crash run is violation-free");
    assert!(serial.flows_completed > 0);
    let (parallel, _, _) = spec.run(4, None).expect("strict host-crash run is violation-free");
    assert_eq!(serial.to_json().render_pretty(), parallel.to_json().render_pretty());
}

#[test]
fn traced_host_crash_report_is_identical_and_captures_recovery_kinds() {
    let (plain, _, _) = host_crash_spec(false).run(1, None).expect("untraced run");
    let spec = host_crash_spec(true);
    let (traced, jsonl, _) = spec.run(1, None).expect("traced run");
    assert_eq!(plain.to_json().render_pretty(), traced.to_json().render_pretty(), "tracing changed the report");
    let report = clove_harness::check_trace_jsonl(&jsonl).expect("schema-valid trace");
    let count = |kind: &str| report.kinds.iter().find(|&&(k, _)| k == kind).map(|&(_, c)| c).unwrap_or(0);
    assert!(count("node_fault_activation") >= 2, "crash and restart must both trace: {:?}", report.kinds);
    assert!(count("vswitch_restart") > 0, "host restart must trace: {:?}", report.kinds);
    assert!(count("state_flush") >= 2, "cold restart flushes vswitch and discovery: {:?}", report.kinds);
    // The dump is byte-identical at any worker count.
    let (_, jsonl4, _) = spec.run(4, None).expect("parallel traced run");
    assert_eq!(jsonl, jsonl4);
}
