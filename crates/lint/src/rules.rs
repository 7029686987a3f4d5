//! The rule checkers: token-pattern matchers over a [`Lexed`] file.

use crate::config::{allowed, is_known_rule};
use crate::lexer::{lex, Lexed, Tok};
use crate::report::Finding;

/// What kind of compilation target a file belongs to. Determines which
/// rules apply: binaries, examples and tests own their stdout
/// and may print; library code must not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Part of a library target.
    Lib,
    /// A `src/bin/` or `main.rs` binary entry point.
    Bin,
    /// An `examples/` program.
    Example,
    /// An integration test (`tests/`).
    Test,
}

/// Classify a workspace-relative path.
pub fn classify(rel_path: &str) -> FileClass {
    let p = rel_path;
    if p.contains("/bin/") || p.ends_with("/main.rs") || p == "main.rs" {
        FileClass::Bin
    } else if p.starts_with("examples/") || p.contains("/examples/") {
        FileClass::Example
    } else if p.starts_with("tests/") || p.contains("/tests/") {
        FileClass::Test
    } else {
        FileClass::Lib
    }
}

/// Lint one file's source text. `rel_path` is workspace-relative with
/// forward slashes; it drives classification and allowlist matching.
pub fn check_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let lexed = lex(src);
    let class = classify(rel_path);
    let mut raw: Vec<Finding> = Vec::new();

    rule_std_hash_collections(&lexed, &mut raw);
    rule_wall_clock(&lexed, &mut raw);
    rule_os_entropy(&lexed, &mut raw);
    rule_float_partial_cmp(&lexed, &mut raw);
    if class == FileClass::Lib {
        rule_stdout_in_lib(&lexed, &mut raw);
    }
    rule_relaxed_atomic(&lexed, &mut raw);

    // Apply the audited allowlist, then inline waivers. A waiver covers
    // findings on its own line (trailing comment) and the line below
    // (comment-above style).
    let mut out: Vec<Finding> = Vec::new();
    for mut f in raw {
        if let Some(reason) = allowed(f.rule, rel_path) {
            f.waived = Some(format!("allowlist: {reason}"));
        } else if let Some(w) = lexed
            .waivers
            .iter()
            .find(|w| w.well_formed && !w.reason.is_empty() && (w.line == f.line || w.line + 1 == f.line) && w.rules.iter().any(|r| r == f.rule))
        {
            f.waived = Some(format!("waiver: {}", w.reason));
        }
        f.path = rel_path.to_string();
        out.push(f);
    }

    // Malformed waivers are findings themselves — and are never waivable,
    // so a broken waiver cannot hide both a violation and itself.
    for w in &lexed.waivers {
        let problem = if !w.well_formed {
            Some("not of the form `clove-lint: allow(<rule>): <reason>`".to_string())
        } else if w.reason.is_empty() {
            Some("missing justification after `allow(...)`: every waiver must say why".to_string())
        } else {
            w.rules.iter().find(|r| !is_known_rule(r)).map(|r| format!("unknown rule `{r}`"))
        };
        if let Some(msg) = problem {
            out.push(Finding { rule: "invalid-waiver", path: rel_path.to_string(), line: w.line, col: 1, message: msg, waived: None });
        }
    }

    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

fn finding(rule: &'static str, t: &Tok, message: String) -> Finding {
    Finding { rule, path: String::new(), line: t.line, col: t.col, message, waived: None }
}

/// Span of a `use ...;` statement starting at token `i` (`use` keyword),
/// as an exclusive end index.
fn use_stmt_end(ts: &[Tok], i: usize) -> usize {
    let mut j = i;
    while j < ts.len() && !ts[j].is_punct(';') {
        j += 1;
    }
    j
}

/// Count top-level generic arguments of `Name<...>` where `open` indexes
/// the `<`. Returns `None` when the angle brackets do not close (i.e. `<`
/// was a comparison operator, not a generic-argument list).
fn generic_arg_count(ts: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0isize;
    let mut parens = 0isize;
    let mut commas = 0usize;
    let mut any = false;
    let mut j = open;
    while j < ts.len() {
        let t = &ts[j];
        if t.is_punct('<') {
            // `->` return arrows inside generic args must not disturb the
            // bracket depth; `-` `>` lex as adjacent puncts.
            depth += 1;
        } else if t.is_punct('>') {
            let arrow = j > 0 && ts[j - 1].is_punct('-') && ts[j - 1].line == t.line && ts[j - 1].col + 1 == t.col;
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return if any { Some(commas + 1) } else { Some(0) };
                }
            }
        } else if t.is_punct('(') || t.is_punct('[') {
            parens += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            parens -= 1;
            if parens < 0 {
                return None; // `a < b)` — comparison, not generics
            }
        } else if t.is_punct(';') && depth == 1 && parens == 0 {
            // `[T; N]` never reaches here (bracket tracked above); a bare
            // `;` inside an unclosed `<` means comparison.
            return None;
        } else if depth == 1 && parens == 0 && t.is_punct(',') {
            commas += 1;
        }
        if depth >= 1 && !t.is_punct('<') {
            any = true;
        }
        j += 1;
        if j > open + 256 {
            return None; // give up: comparison chains, not a type
        }
    }
    None
}

/// Rule 1: std `HashMap`/`HashSet` with the implicit `RandomState` hasher.
///
/// Flags (a) `use std::collections::{HashMap, HashSet}` imports,
/// (b) `HashMap::new()` / `::with_capacity()` constructor calls (the only
/// constructors `RandomState` provides), and (c) type positions
/// `HashMap<K, V>` / `HashSet<T>` that omit the explicit hasher parameter.
/// `HashMap<K, V, S>` and `with_capacity_and_hasher` are fine — that is
/// exactly how the flowlet table stays generic over its Fx default.
fn rule_std_hash_collections(l: &Lexed, out: &mut Vec<Finding>) {
    const RULE: &str = "std-hash-collections";
    let ts = &l.tokens;
    let mut in_use_until = 0usize;
    for i in 0..ts.len() {
        let t = &ts[i];
        if t.is_ident("use") && (i == 0 || !ts[i - 1].is_punct(':')) {
            let end = use_stmt_end(ts, i);
            // `::` lexes as two punct tokens: `std :: collections` spans 4.
            let names_std_collections =
                ts[i..end].windows(4).any(|w| w[0].is_ident("std") && w[1].is_punct(':') && w[2].is_punct(':') && w[3].is_ident("collections"));
            if names_std_collections {
                for u in &ts[i..end] {
                    if u.is_ident("HashMap") || u.is_ident("HashSet") {
                        out.push(finding(
                            RULE,
                            u,
                            format!("`{}` imported from std::collections (RandomState default); import rustc_hash::Fx{0} or use BTreeMap", u.text),
                        ));
                    }
                }
            }
            in_use_until = end;
            continue;
        }
        if i < in_use_until {
            continue;
        }
        let map = t.is_ident("HashMap");
        let set = t.is_ident("HashSet");
        if !map && !set {
            continue;
        }
        // Constructor call: HashMap::new / HashMap::with_capacity.
        if i + 3 < ts.len() && ts[i + 1].is_punct(':') && ts[i + 2].is_punct(':') {
            let m = &ts[i + 3];
            if m.is_ident("new") || m.is_ident("with_capacity") {
                out.push(finding(
                    RULE,
                    t,
                    format!("`{}::{}` builds a RandomState-hashed table; use Fx{0}::default() (or with_capacity_and_hasher)", t.text, m.text),
                ));
                continue;
            }
        }
        // Type position with the hasher parameter omitted.
        if i + 1 < ts.len() && ts[i + 1].is_punct('<') {
            if let Some(args) = generic_arg_count(ts, i + 1) {
                let default_hasher = (map && args == 2) || (set && args == 1);
                if default_hasher {
                    out.push(finding(
                        RULE,
                        t,
                        format!("`{}` without an explicit hasher defaults to RandomState; use Fx{0} or spell the third parameter", t.text),
                    ));
                }
            }
        }
    }
}

/// Rule 2: wall-clock reads.
fn rule_wall_clock(l: &Lexed, out: &mut Vec<Finding>) {
    for t in &l.tokens {
        if t.is_ident("Instant") || t.is_ident("SystemTime") || t.is_ident("UNIX_EPOCH") {
            out.push(finding("wall-clock", t, format!("`{}` reads the host clock; simulation logic must use clove_sim::Time", t.text)));
        }
    }
}

/// Rule 3: OS entropy sources.
fn rule_os_entropy(l: &Lexed, out: &mut Vec<Finding>) {
    for t in &l.tokens {
        if t.is_ident("thread_rng") || t.is_ident("OsRng") || t.is_ident("from_entropy") || t.is_ident("getrandom") || t.is_ident("RandomState") {
            out.push(finding("os-entropy", t, format!("`{}` draws OS entropy; all randomness must come from clove_sim::rng::SimRng seeds", t.text)));
        }
    }
}

/// Rule 4: `partial_cmp(..).unwrap()` / `.expect(..)` float ordering.
fn rule_float_partial_cmp(l: &Lexed, out: &mut Vec<Finding>) {
    let ts = &l.tokens;
    for i in 0..ts.len() {
        if !ts[i].is_ident("partial_cmp") {
            continue;
        }
        if i > 0 && ts[i - 1].is_ident("fn") {
            continue; // a PartialOrd impl, not a call
        }
        if i + 1 >= ts.len() || !ts[i + 1].is_punct('(') {
            continue;
        }
        // Find the matching close paren, then look for `.unwrap()`/`.expect(`.
        let mut depth = 0isize;
        let mut j = i + 1;
        while j < ts.len() {
            if ts[j].is_punct('(') {
                depth += 1;
            } else if ts[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if j + 2 < ts.len() && ts[j + 1].is_punct('.') && (ts[j + 2].is_ident("unwrap") || ts[j + 2].is_ident("expect")) {
            out.push(finding("float-partial-cmp", &ts[i], format!("`partial_cmp().{}()` panics on NaN; use total_cmp for float ordering", ts[j + 2].text)));
        }
    }
}

/// Rule 5: stdout/stderr writes and process exits in library code.
fn rule_stdout_in_lib(l: &Lexed, out: &mut Vec<Finding>) {
    let ts = &l.tokens;
    for i in 0..ts.len() {
        let t = &ts[i];
        if l.in_cfg_test(t.line) {
            continue;
        }
        let is_print =
            (t.is_ident("println") || t.is_ident("eprintln") || t.is_ident("print") || t.is_ident("eprint")) && i + 1 < ts.len() && ts[i + 1].is_punct('!');
        if is_print {
            out.push(finding("stdout-in-lib", t, format!("`{}!` in library code bypasses the report layer the byte-identical guarantee covers", t.text)));
            continue;
        }
        if (t.is_ident("exit") || t.is_ident("abort")) && i >= 3 && ts[i - 1].is_punct(':') && ts[i - 2].is_punct(':') && ts[i - 3].is_ident("process") {
            out.push(finding("stdout-in-lib", t, format!("`process::{}` in library code; return an error and let the binary decide", t.text)));
        }
    }
}

/// Rule 6: `Ordering::Relaxed` outside the audited allowlist.
fn rule_relaxed_atomic(l: &Lexed, out: &mut Vec<Finding>) {
    let ts = &l.tokens;
    for i in 3..ts.len() {
        if ts[i].is_ident("Relaxed") && ts[i - 1].is_punct(':') && ts[i - 2].is_punct(':') && ts[i - 3].is_ident("Ordering") {
            out.push(finding("relaxed-atomic", &ts[i], "`Ordering::Relaxed` outside the audited allowlist; control flags need Release/Acquire".to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_at(path: &str, src: &str) -> Vec<(String, u32, bool)> {
        check_source(path, src).into_iter().map(|f| (f.rule.to_string(), f.line, f.waived.is_some())).collect()
    }

    #[test]
    fn explicit_hasher_forms_pass() {
        let src =
            "use std::collections::hash_map::Entry;\nstruct T<S> { m: HashMap<K, V, S> }\nfn f() { let m: FxHashMap<u32, u32> = FxHashMap::default(); }\n";
        assert!(rules_at("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn default_hasher_forms_flagged() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); let s = HashSet::with_capacity(4); }\n";
        let got = rules_at("crates/x/src/lib.rs", src);
        assert_eq!(got.iter().filter(|(r, _, _)| r == "std-hash-collections").count(), 3, "{got:?}");
    }

    #[test]
    fn comparison_operator_is_not_generics() {
        let src = "fn f(a: usize) -> bool { HashMap * 0 < a }\n";
        // Nonsense code, but `<` here must not parse as a generic list.
        assert!(rules_at("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn waiver_suppresses_and_is_recorded() {
        let src = "// clove-lint: allow(wall-clock): measuring the lexer itself\nlet t = Instant::now();\n";
        let got = check_source("crates/x/src/lib.rs", src);
        assert_eq!(got.len(), 1);
        assert!(got[0].waived.is_some());
    }

    #[test]
    fn unknown_rule_in_waiver_is_a_finding() {
        let src = "// clove-lint: allow(no-such-rule): whatever\n";
        let got = rules_at("crates/x/src/lib.rs", src);
        assert_eq!(got, vec![("invalid-waiver".to_string(), 1, false)]);
    }

    #[test]
    fn prints_allowed_outside_lib_class() {
        let src = "fn main() { println!(\"ok\"); }\n";
        assert!(rules_at("crates/x/src/bin/tool.rs", src).is_empty());
        assert!(rules_at("examples/demo.rs", src).is_empty());
        assert_eq!(rules_at("crates/x/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn prints_allowed_in_cfg_test_mod() {
        let src = "pub fn a() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"dbg\"); }\n}\n";
        assert!(rules_at("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn partial_cmp_impl_not_flagged_call_is() {
        let ok = "impl PartialOrd for T { fn partial_cmp(&self, o: &T) -> Option<Ordering> { Some(self.cmp(o)) } }\n";
        assert!(rules_at("crates/x/src/lib.rs", ok).is_empty());
        let bad = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        assert_eq!(rules_at("crates/x/src/lib.rs", bad), vec![("float-partial-cmp".to_string(), 1, false)]);
    }

    #[test]
    fn allowlist_waives_with_reason() {
        let got = check_source("crates/harness/src/journal.rs", "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n");
        assert_eq!(got.len(), 1);
        assert!(got[0].waived.as_deref().unwrap_or("").starts_with("allowlist:"), "{got:?}");
    }
}
