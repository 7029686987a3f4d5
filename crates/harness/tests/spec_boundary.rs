//! The spec boundary: whatever text reaches `clove-run`, decoding plus
//! [`ScenarioSpec::validate`] answers with a value or an error — never a
//! panic, an abort or a worker started on a bad run description — and the
//! spec files and name lists the repository ships stay in step with the
//! codec. The same holds for the other text `clove-run` reads, a
//! `trace-check` dump.

use clove_harness::config::ScenarioSpec;
use clove_harness::json::Json;
use clove_harness::trace_check::{check_trace_jsonl, TRACE_KIND_FIELDS};
use clove_harness::{Scheme, TopologyKind};
use clove_telemetry::TRACE_SCHEMA_VERSION;
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

    /// A tagged object (`scheme` or `topology`): one of `forms` — the
    /// codec's rendering of every variant — or the unknown name `stray`. A
    /// calm object carries exactly its variant's payload keys, each with a
    /// value from `payload`; in a wild one the tag may be missing or any
    /// value, and each payload key may be dropped or borrowed from another
    /// variant.
    fn tagged(&mut self, tag: &str, forms: &[Json], stray: &str, payload: &[(&str, &[&str])]) -> String {
        let form = forms.get(self.rng.below(forms.len() as u64 + 1) as usize);
        let name = form.and_then(|f| f.get(tag)).and_then(Json::as_str).unwrap_or(stray);
        let mut fields = Vec::new();
        if !self.slips(8) {
            let value = if self.slips(8) { pick(&mut self.rng, &VALUES).to_string() } else { format!("\"{name}\"") };
            fields.push(format!("\"{tag}\":{value}"));
        }
        for (key, good) in payload {
            let own = form.is_some_and(|f| f.get(key).is_some());
            if own != self.slips(2) {
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
    let schemes: Vec<Json> = Scheme::all().iter().map(Scheme::to_json).collect();
    let topologies: Vec<Json> = TopologyKind::all().iter().map(TopologyKind::to_json).collect();
    let scheme_payload: [(&str, &[&str]); 3] =
        [("subflows", &["1", "4", "16", "17"]), ("clove_hosts", &["0", "16", "32", "33"]), ("weights", &["null", "[0.5,0.5]"])];
    let mut fields = Vec::new();
    if !m.slips(8) {
        fields.push(format!("\"scheme\":{}", m.tagged("name", &schemes, "nope", &scheme_payload)));
    }
    if !m.slips(8) {
        fields.push(format!("\"topology\":{}", m.tagged("kind", &topologies, "torus", &[("k", &["3", "4", "8", "20"])])));
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

/// Tokens whose soup stresses every branch of the JSON parser: nesting,
/// separators in the wrong place, broken strings and escapes, partial
/// literals and numbers, multi-byte characters.
const SOUP: [&str; 20] = ["[", "]", "{", "}", "\"", "\"k\":", ",", ":", "\\", "\\u00", "\\u", "0", "-", "1e", "true", "nul", " ", "\n", "é", "☃"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// `Json::parse` is the first parser every spec, journal entry, chaos
    /// file and trace line meets: on any text it returns, never panics.
    #[test]
    fn json_parse_of_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn json_parse_of_bracket_brace_quote_soup_never_panics(tokens in prop::collection::vec(prop::sample::select(SOUP.to_vec()), 0..2048)) {
        let _ = Json::parse(&tokens.concat());
    }
}

/// The parser is one left-to-right pass, so megabyte documents of every
/// shape — deep, wide, long strings, many keys, soup — finish at once. The
/// workspace reads no clock, so the time is not measured: a parser that
/// rescanned its input would turn these into a hang instead of a failure.
#[test]
fn json_parse_is_one_pass_over_megabyte_documents() {
    const N: usize = 1 << 18;
    let mut rng = TestRng::new(7);
    let soup: String = (0..N).map(|_| pick(&mut rng, &SOUP)).collect();
    for (doc, ok) in [
        ("[".repeat(4 * N), false),
        (format!("[{}0]", "\"a\",".repeat(N)), true),
        (format!("\"{}\"", "\\u00e9".repeat(N)), true),
        (format!("{{{}\"k\":0}}", "\"k\":[],".repeat(N)), true),
        (format!("{}{}{}", "[".repeat(128), "0,".repeat(N), "]".repeat(128)).replacen(",]", "]", 1), true),
        (soup, false),
    ] {
        assert_eq!(Json::parse(&doc).is_ok(), ok, "{}…", doc.chars().take(40).collect::<String>());
    }
}

/// Values a trace line's field might be retyped to: every JSON type, plus
/// the negative, fractional and past-2^53 numbers no writer emits.
const HOSTILE: [&str; 9] = ["\"x\"", "null", "[]", "{}", "true", "-1", "2.5", "1e300", "18446744073709551616"];

/// A JSONL dump over the trace schema: lines of every kind, stamped with
/// the version that introduced the kind or the current one. In a wild dump
/// (two in three) each line may lose a field, have one retyped or
/// duplicated, carry `v` 0, 3, −1 or 1e300, lose a byte, or give way to a
/// blank line.
fn trace_soup(seed: u64) -> String {
    let mut rng = TestRng::new(seed);
    let wild = rng.below(3) != 0;
    let mut text = String::new();
    for _ in 0..rng.below(8) + 1 {
        let (kind, since, fields) = TRACE_KIND_FIELDS[rng.below(TRACE_KIND_FIELDS.len() as u64) as usize];
        let v = if rng.below(2) == 0 { since } else { TRACE_SCHEMA_VERSION };
        let mut members: Vec<(String, String)> =
            vec![("v".into(), v.to_string()), ("kind".into(), format!("\"{kind}\"")), ("t_ns".into(), rng.below(1 << 40).to_string())];
        members.extend(fields.iter().map(|&field| (field.to_string(), "1".to_string())));
        if wild && rng.below(2) == 0 {
            let at = rng.below(members.len() as u64) as usize;
            match rng.below(5) {
                0 => {
                    members.remove(at);
                }
                1 => members[at].1 = pick(&mut rng, &HOSTILE).to_string(),
                2 => members.push(members[at].clone()),
                3 => members[0].1 = pick(&mut rng, &["0", "3", "-1", "1e300"]).to_string(),
                _ => members[1].1 = "\"nope\"".to_string(),
            }
        }
        let mut line = format!("{{{}}}", members.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect::<Vec<_>>().join(","));
        if wild && rng.below(8) == 0 {
            line.remove(rng.below(line.len() as u64) as usize);
        }
        text.push_str(&line);
        text.push_str(if wild && rng.below(8) == 0 { "\n\n" } else { "\n" });
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// `clove-run trace-check` reads files it did not write: on any bytes it
    /// returns a report or an error naming a line, never panics.
    #[test]
    fn trace_check_of_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = check_trace_jsonl(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn trace_check_of_schema_line_soup_never_panics(seed in any::<u64>()) {
        let text = trace_soup(seed);
        if let Ok(report) = check_trace_jsonl(&text) {
            prop_assert_eq!(report.lines, text.lines().filter(|line| !line.is_empty()).count() as u64, "{}", text);
        }
    }
}

#[test]
fn the_trace_soup_reaches_both_verdicts() {
    let ok = (0..1000).filter(|&seed| check_trace_jsonl(&trace_soup(seed)).is_ok()).count();
    assert!(ok > 200 && ok < 800, "{ok} of 1000 dumps valid");
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

/// Nested objects used to ignore keys they did not read: `"stat":"warm"`
/// ran a cold reboot, and a payload key on a variant that has none ran as
/// if absent. Each object accepts the keys its own `to_json` renders for
/// the parsed variant. A scheme name the codec no longer has fails by name
/// rather than running something else.
#[test]
fn an_unknown_nested_key_or_a_mistyped_flag_is_rejected_by_name() {
    let spec = |scheme: &str, topology: &str, rest: &str| format!(r#"{{"scheme":{scheme},"topology":{topology},"load":0.5{rest}}}"#);
    let (ecmp, sym) = (r#"{"name":"ecmp"}"#, r#"{"kind":"symmetric"}"#);
    let unknown =
        |name: &str| format!("scheme: unknown name '{name}' (want ecmp | edge-flowlet | clove-ecn | clove-int | presto | mptcp | conga | hula | incremental)");
    let deleted = ["clove-latency", "clove-ecn-non-overlay", "let-flow", "ecmp-dctcp", "clove-ecn-dctcp"]
        .map(|name| (spec(&format!(r#"{{"name":"{name}"}}"#), sym, ""), unknown(name)));
    for (text, error) in [
        (
            spec(ecmp, sym, r#","node_crash":{"node":"leaf1","at_ms":20,"down_ms":15,"stat":"warm"}"#),
            "node_crash: unknown key 'stat' (want node | at_ms | down_ms | state)",
        ),
        (spec(ecmp, r#"{"kind":"symmetric","k":8}"#, ""), "topology: symmetric: unknown key 'k' (want kind)"),
        (spec(r#"{"name":"ecmp","subflows":4}"#, sym, ""), "scheme: ecmp: unknown key 'subflows' (want name)"),
    ] {
        assert_eq!(ScenarioSpec::from_json_str(&text).err().as_deref(), Some(error), "{text}");
    }
    for (text, error) in &deleted {
        assert_eq!(ScenarioSpec::from_json_str(text).err().as_ref(), Some(error), "{text}");
    }
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
        // CONGA on a fat-tree used to run, labelled "CONGA", on local picks
        // above the source ToR.
        (
            spec(r#"{"name":"conga"}"#, r#"{"kind":"fat-tree","k":4}"#, r#""load":0.5"#),
            "scheme: 'conga' models the 2-tier leaf-spine only, not topology 'fat-tree' (k=4)",
        ),
        (spec(r#"{"name":"mptcp","subflows":4294967297}"#, sym, r#""load":0.5"#), "subflows"),
        (spec(ecmp, sym, r#""load":0.5,"jobs_per_conn":4294967298"#), "jobs_per_conn"),
        (spec(ecmp, sym, r#""load":0.5,"seedz":7"#), "unknown key 'seedz'"),
        // Both used to run as if absent: a loss start with no loss rate, and
        // zero seeds as one.
        (spec(ecmp, sym, r#""load":0.5,"control_loss_at_ms":5"#), "control_loss_at_ms: set without 'control_loss'"),
        (spec(ecmp, sym, r#""load":0.5,"seeds":0"#), "seeds: must be at least 1"),
        // Past 2^53 a seed used to run saturated (1e20 → u64::MAX) or rounded
        // (…993 → …992).
        (spec(ecmp, sym, r#""load":0.5,"seed":1e20"#), "'seed' must be a non-negative integer below 2^53"),
        (spec(ecmp, sym, r#""load":0.5,"seed":9007199254740993"#), "'seed' must be a non-negative integer below 2^53"),
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

/// Nesting 100,000 deep used to overflow the parser's stack and abort
/// (exit 134) in both commands that read outside JSON.
#[test]
fn clove_run_rejects_a_deeply_nested_spec_or_trace_line_with_one_line() {
    let dir = std::env::temp_dir().join(format!("clove-deep-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (spec, trace) = (dir.join("deep.json"), dir.join("deep.jsonl"));
    std::fs::write(&spec, "{\"scheme\":".repeat(100_000)).expect("spec written");
    std::fs::write(&trace, format!("{}\n", "[".repeat(100_000))).expect("trace written");
    for (args, prefix) in [
        (vec![spec.to_str().expect("utf-8 temp path")], "clove-run: bad spec: "),
        (vec!["trace-check", trace.to_str().expect("utf-8 temp path")], "clove-run trace-check: "),
    ] {
        let (code, stdout, stderr) = clove_run(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(stdout, "", "{args:?}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 1, "{args:?}: one line, no abort: {stderr}");
        assert!(lines[0].starts_with(prefix) && lines[0].contains("nesting deeper than 128"), "{args:?}: {stderr}");
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
