//! Tracing must be a pure observer: a traced run produces a byte-identical
//! report to an untraced one, and the trace dump itself is byte-identical
//! at any worker count. These are the tentpole guarantees of the telemetry
//! layer — a trace that perturbs the simulation is worse than no trace.

use clove_harness::config::ScenarioSpec;

/// The reference cell; `trace` switches decision tracing on.
fn small_spec(trace: bool) -> ScenarioSpec {
    let json = r#"{"scheme":{"name":"clove-ecn"},"topology":{"kind":"asymmetric"},
                   "load":0.3,"jobs_per_conn":2,"conns_per_client":1,"horizon_secs":10,
                   "seed":7,"seeds":2}"#;
    ScenarioSpec { trace, ..ScenarioSpec::from_json_str(json).expect("valid spec") }
}

#[test]
fn traced_report_is_byte_identical_to_untraced() {
    let (plain, no_trace, _) = small_spec(false).run(1, None).expect("untraced run");
    let (traced, jsonl, dropped) = small_spec(true).run(1, None).expect("traced run");
    assert!(no_trace.is_empty(), "an untraced run must not return a dump");
    assert_eq!(plain.to_json().render_pretty(), traced.to_json().render_pretty(), "tracing changed the report");
    assert_eq!(dropped, 0, "small cell must not overflow the trace buffer");
    assert!(!jsonl.is_empty(), "trace captured nothing");
}

#[test]
fn trace_dump_is_byte_identical_at_any_jobs_count() {
    let spec = small_spec(true);
    let (r1, t1, d1) = spec.run(1, None).expect("serial traced run");
    let (r4, t4, d4) = spec.run(4, None).expect("parallel traced run");
    assert_eq!(t1, t4, "trace dump differs between --jobs 1 and --jobs 4");
    assert_eq!(d1, d4);
    assert_eq!(r1.to_json().render_pretty(), r4.to_json().render_pretty());
}

#[test]
fn trace_smoke_captures_decision_and_fault_events() {
    // The asymmetric topology is an announced t=0 cut, so the reference
    // cell must surface flowlet, weight-update and fault events at once.
    let (_, jsonl, _) = small_spec(true).run(1, None).expect("traced run");
    let report = clove_harness::check_trace_jsonl(&jsonl).expect("schema-valid trace");
    let count = |kind: &str| report.kinds.iter().find(|&&(k, _)| k == kind).map(|&(_, c)| c).unwrap_or(0);
    assert!(count("flowlet_create") > 0, "no flowlet events: {:?}", report.kinds);
    assert!(count("weight_update") > 0, "no weight updates: {:?}", report.kinds);
    assert!(count("fault_activation") > 0, "no fault events: {:?}", report.kinds);
}
