//! The spec boundary: whatever text reaches `clove-run`, decoding plus
//! [`ScenarioSpec::validate`] answers with a value or an error — never a
//! panic, an abort or a worker started on a bad run description — and the
//! spec files and name lists the repository ships stay in step with the
//! codec.

use clove_harness::config::ScenarioSpec;
use clove_harness::{Scheme, TopologyKind};
use proptest::prelude::*;
use proptest::TestRng;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// JSON fragments a spec field might hold: in-range values, the edges the
/// model asserts on, integers past every field width, and wrong types.
/// (No 18: building the widest accepted fat-tree takes a debug build a
/// minute.)
const VALUES: [&str; 29] = [
    "0",
    "1",
    "2",
    "3",
    "4",
    "16",
    "17",
    "20",
    "33",
    "64",
    "65",
    "0.5",
    "-0.5",
    "1.5",
    "1.6",
    "1e300",
    "-1",
    "4294967295",
    "4294967296",
    "4294967297",
    "18446744073709551615",
    "1e19",
    "null",
    "true",
    "\"web-search\"",
    "\"nope\"",
    "[]",
    "[0.5,\"x\",null]",
    "{}",
];

fn pick<'a>(rng: &mut TestRng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// How hostile one generated spec is: in a wild spec one value in four is
/// anything from [`VALUES`], keys go missing and a byte may be dropped; a
/// calm spec sticks to each field's sensible values (edges included), so
/// most of them reach the range checks.
struct Mood {
    rng: TestRng,
    wild: bool,
}

impl Mood {
    /// True one time in `n` — in a wild spec only.
    fn slips(&mut self, n: u64) -> bool {
        self.wild && self.rng.below(n) == 0
    }

    /// A value for a field whose sensible values are `good`.
    fn value<'a>(&mut self, good: &[&'a str]) -> &'a str {
        if self.slips(4) {
            pick(&mut self.rng, &VALUES)
        } else {
            pick(&mut self.rng, good)
        }
    }

    /// A tagged object (`scheme` or `topology`) over one of `names`.
    fn tagged(&mut self, tag: &str, names: &[&str], payload: &[(&str, &[&str])]) -> String {
        let mut fields = Vec::new();
        if !self.slips(8) {
            let name = if self.slips(8) { pick(&mut self.rng, &VALUES).to_string() } else { format!("\"{}\"", pick(&mut self.rng, names)) };
            fields.push(format!("\"{tag}\":{name}"));
        }
        for (key, good) in payload {
            if !self.slips(2) {
                fields.push(format!("\"{key}\":{}", self.value(good)));
            }
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// JSON-shaped spec text over the real keys; one spec in three is wild.
fn spec_text(seed: u64) -> String {
    let mut rng = TestRng::new(seed);
    let wild = rng.below(3) == 0;
    let m = &mut Mood { rng, wild };
    let schemes: Vec<&str> = Scheme::all().iter().map(Scheme::spec_name).chain(["nope"]).collect();
    let kinds: Vec<&str> = TopologyKind::all().iter().map(TopologyKind::spec_kind).chain(["torus"]).collect();
    let scheme_payload: [(&str, &[&str]); 4] =
        [("subflows", &["1", "4", "16", "17"]), ("clove_hosts", &["0", "16", "32", "33"]), ("weights", &["null", "[0.5,0.5]"]), ("adaptive_gap", &["true"])];
    let mut fields = Vec::new();
    if !m.slips(8) {
        fields.push(format!("\"scheme\":{}", m.tagged("name", &schemes, &scheme_payload)));
    }
    if !m.slips(8) {
        fields.push(format!("\"topology\":{}", m.tagged("kind", &kinds, &[("k", &["3", "4", "8", "20"])])));
    }
    if !m.slips(8) {
        fields.push(format!("\"load\":{}", m.value(&["0.3", "0.7", "1.5", "0"])));
    }
    let optional: [(&str, &[&str]); 12] = [
        ("workload", &["\"web-search\"", "\"enterprise\"", "\"data-mining\""]),
        ("jobs_per_conn", &["1", "60", "0"]),
        ("conns_per_client", &["1", "2", "64", "0", "65"]),
        ("seed", &["0", "42", "18446744073709551615"]),
        ("seeds", &["0", "1", "3"]),
        ("horizon_secs", &["10", "30"]),
        ("fail_at_ms", &["null", "2", "100"]),
        ("flowlet_gap_us", &["null", "150"]),
        ("ecn_threshold_pkts", &["null", "20"]),
        ("control_loss", &["null", "0.2", "1"]),
        ("control_loss_at_ms", &["null", "5"]),
        ("strict", &["true", "false"]),
    ];
    for (key, good) in optional {
        if m.rng.below(4) == 0 {
            fields.push(format!("\"{key}\":{}", m.value(good)));
        }
    }
    if m.rng.below(4) == 0 {
        let node = m.value(&["\"leaf1\"", "\"spine1\"", "\"host31\"", "\"spine9\"", "\"host4294967296\"", "\"pod1\""]);
        let state = m.value(&["\"cold\"", "\"warm\"", "\"hot\""]);
        let (at, down) = (m.value(&["0", "20"]), m.value(&["15", "0"]));
        fields.push(format!("\"node_crash\":{{\"node\":{node},\"at_ms\":{at},\"down_ms\":{down},\"state\":{state}}}"));
    }
    let mut text = format!("{{{}}}", fields.join(","));
    if m.slips(4) {
        text.remove(m.rng.below(text.len() as u64) as usize);
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn decoding_and_validating_any_spec_text_never_panics(seed in any::<u64>()) {
        let text = spec_text(seed);
        if let Ok(spec) = ScenarioSpec::from_json_str(&text) {
            // Accepted or rejected — either way by returning.
            if spec.validate().is_ok() {
                // What the gate lets through is a fixed point of the codec.
                let again = ScenarioSpec::from_json_str(&spec.to_json().render()).expect("a rendered spec parses");
                prop_assert_eq!(again.to_json().render(), spec.to_json().render(), "{}", text);
            }
        }
    }
}

#[test]
fn the_generator_reaches_both_sides_of_the_gate() {
    let verdicts: Vec<Option<bool>> = (0..1000).map(|seed| ScenarioSpec::from_json_str(&spec_text(seed)).ok().map(|spec| spec.validate().is_ok())).collect();
    let count = |v: Option<bool>| verdicts.iter().filter(|&&x| x == v).count();
    assert!(count(None) > 100 && count(Some(false)) > 100 && count(Some(true)) > 100, "{} / {} / {}", count(None), count(Some(false)), count(Some(true)));
}

#[test]
fn every_committed_spec_file_parses_and_validates() {
    let dir = repo_root().join("examples/specs");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/specs exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|ext| ext == "json") {
            let text = std::fs::read_to_string(&path).expect("readable spec");
            let spec = ScenarioSpec::from_json_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            spec.validate().unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            seen += 1;
        }
    }
    assert!(seen >= 3, "the two CI smoke specs and the failure-recovery demo live in {}", dir.display());
}

/// A misspelt key used to run the default in its place (`"seedz": 7` ran
/// seed 0, `"job_per_conn": 200` ran 60 jobs): every top-level key is a
/// spec field or the `quarantine` object a snapshot carries.
#[test]
fn an_unknown_top_level_key_is_rejected_by_name() {
    let spec = |rest: &str| format!(r#"{{"scheme":{{"name":"ecmp"}},"topology":{{"kind":"symmetric"}},"load":0.5{rest}}}"#);
    for (typo, key) in [
        (r#","seedz":7"#, "seedz"),
        (r#","job_per_conn":200"#, "job_per_conn"),
        (r#","fail_at":100"#, "fail_at"),
        (r#","Strict":true"#, "Strict"),
        (r#","trace":true"#, "trace"), // CLI-only (`--trace FILE`), never a spec key
        (r#","quarantine":{},"quarantined":{}"#, "quarantined"),
    ] {
        let err = ScenarioSpec::from_json_str(&spec(typo)).expect_err(typo);
        assert!(err.starts_with(&format!("unknown key '{key}' (want scheme | topology | load | ")), "{typo}: {err}");
        assert!(err.ends_with(" | strict)"), "the accepted list is every key `to_json` renders: {err}");
    }
    // Every key the codec renders is accepted, with or without the object a
    // quarantine snapshot adds beside them.
    let rendered = ScenarioSpec::from_json_str(&spec("")).expect("minimal spec").to_json().render();
    ScenarioSpec::from_json_str(&rendered).expect("a rendered spec parses");
    let snapshot = format!(r#"{},"quarantine":{{"scope":"fig4c","seed":1001,"reason":"panicked: boom"}}}}"#, rendered.trim_end_matches('}'));
    let replay = ScenarioSpec::from_json_str(&snapshot).unwrap_or_else(|e| panic!("{snapshot}: {e}"));
    assert_eq!(replay.to_json().render(), rendered, "the quarantine object changes nothing about the run");
}

#[test]
fn experiments_md_lists_every_accepted_scheme_and_topology() {
    // The `clove-run` section's name lists are these renderings, one per
    // table entry; a name added to the codec must be added to the docs.
    let doc = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    for scheme in Scheme::all() {
        let form = scheme.to_json().render();
        assert!(doc.contains(&format!("`{form}`")), "EXPERIMENTS.md must list scheme {form}");
    }
    for topology in TopologyKind::all() {
        let form = topology.to_json().render();
        assert!(doc.contains(&format!("`{form}`")), "EXPERIMENTS.md must list topology {form}");
    }
}

/// Run the `clove-run` binary on `args`; `(exit code, stdout, stderr)`.
fn clove_run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_clove-run")).args(args).output().expect("clove-run starts");
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn clove_run_rejects_a_bad_spec_with_one_line_and_no_worker() {
    let dir = std::env::temp_dir().join(format!("clove-bad-spec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec = |scheme: &str, topology: &str, rest: &str| format!(r#"{{"scheme":{scheme},"topology":{topology},{rest}}}"#);
    let (ecmp, sym) = (r#"{"name":"ecmp"}"#, r#"{"kind":"symmetric"}"#);
    for (i, (text, field)) in [
        (spec(ecmp, sym, r#""load":0"#), "load"),
        (spec(ecmp, sym, r#""load":-0.5"#), "load"),
        (spec(ecmp, sym, r#""load":0.5,"conns_per_client":0"#), "conns_per_client"),
        (spec(ecmp, r#"{"kind":"fat-tree","k":3}"#, r#""load":0.5"#), "topology.k"),
        (spec(r#"{"name":"mptcp","subflows":4294967297}"#, sym, r#""load":0.5"#), "subflows"),
        (spec(ecmp, sym, r#""load":0.5,"jobs_per_conn":4294967298"#), "jobs_per_conn"),
        (spec(ecmp, sym, r#""load":0.5,"seedz":7"#), "unknown key 'seedz'"),
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("bad{i}.json"));
        std::fs::write(&path, &text).expect("spec written");
        let (code, stdout, stderr) = clove_run(&[path.to_str().expect("utf-8 temp path")]);
        assert_eq!(code, Some(1), "{text}: {stderr}");
        assert_eq!(stdout, "", "{text}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{text}: one line, no backtrace: {stderr}");
        assert!(lines[0].starts_with("clove-run: bad spec: ") && lines[0].contains(field), "{text}: must name {field}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clove_run_example_is_a_valid_spec_and_typos_are_usage_errors() {
    let (code, stdout, _) = clove_run(&["--example"]);
    assert_eq!(code, Some(0));
    let spec = ScenarioSpec::from_json_str(&stdout).expect("--example output parses");
    spec.validate().expect("--example output validates");
    assert_eq!(stdout.trim_end(), spec.to_json().render_pretty(), "the example is the codec's own rendering");

    for typo in [&["spec.json", "--job", "4"][..], &["--exmaple"], &["spec.json", "--trace"], &["spec.json", "--jobs", "0"], &["chaos", "--jobs=many"]] {
        let (code, stdout, stderr) = clove_run(typo);
        assert_eq!(code, Some(2), "{typo:?}: {stderr}");
        assert!(stdout.is_empty() && stderr.contains("usage: clove-run"), "{typo:?}: {stderr}");
    }
}

/// `chaos --runs many` used to run the default 20-iteration campaign (and
/// `--seed x` the default seed): a numeric flag whose value is not a
/// number is a usage error before any iteration starts.
#[test]
fn clove_run_chaos_rejects_a_numeric_flag_that_is_not_a_number() {
    for (args, error) in [
        (&["chaos", "--runs", "many"][..], "--runs 'many'"),
        (&["chaos", "--runs", "1", "--seed", "x"], "--seed 'x'"),
        (&["chaos", "--runs", "1", "--shrink-budget=-1"], "--shrink-budget '-1'"),
    ] {
        let (code, stdout, stderr) = clove_run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty() && stderr.contains(error) && stderr.contains("usage: clove-run"), "{args:?}: {stderr}");
    }
}
