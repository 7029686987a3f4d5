//! The analyzer reads every `.rs` file of the workspace, including ones a
//! compiler would reject: on any UTF-8 text the lexer and `check_source`
//! return whatever tokens and findings they make of it — they never panic
//! and never loop.

use clove_lint::check_source;
use clove_lint::lexer::lex;
use proptest::prelude::*;
use proptest::TestRng;

/// Tokens whose soup stresses every branch of the lexer: nested and
/// unterminated block comments, line and doc comments, waivers, plain, raw
/// and byte strings with and without their closing quote, escapes, char
/// literals against lifetimes, `#[cfg(test)] mod` bodies, the paths the
/// rules match, multi-byte characters and line breaks.
const SOUP: [&str; 32] = [
    "/*",
    "*/",
    "//",
    "///",
    "// clove-lint: allow(wall-clock): soup\n",
    "// clove-lint: allow(\n",
    "\"",
    "\\",
    "\\\"",
    "r#\"",
    "\"#",
    "r##",
    "#",
    "'",
    "b'",
    "b\"",
    "'a",
    "'\\''",
    "x",
    "::",
    "{",
    "}",
    "#[cfg(test)]",
    "mod t",
    "Instant::now()",
    "partial_cmp",
    "println!",
    "é",
    "☃",
    "\n",
    " ",
    "0",
];

fn lint(text: &str) {
    let lexed = lex(text);
    assert!(lexed.tokens.len() <= text.len(), "a token per byte at most");
    let _ = check_source("crates/soup/src/lib.rs", text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn lexing_and_linting_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        lint(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn lexing_and_linting_arbitrary_chars_never_panics(points in prop::collection::vec(0u32..0x11_0000, 0..256)) {
        lint(&points.into_iter().filter_map(char::from_u32).collect::<String>());
    }

    #[test]
    fn lexing_and_linting_comment_string_quote_soup_never_panics(tokens in prop::collection::vec(prop::sample::select(SOUP.to_vec()), 0..2048)) {
        lint(&tokens.concat());
    }
}

/// The lexer is one left-to-right pass, so megabyte files of every shape —
/// deep comment nesting, unterminated literals, a million quotes or
/// lifetimes, soup — finish at once. The workspace reads no clock, so the
/// time is not measured: a lexer that rescanned its input would turn these
/// into a hang instead of a failure.
#[test]
fn lexing_and_linting_is_one_pass_over_megabyte_files() {
    const N: usize = 1 << 18;
    let mut rng = TestRng::new(11);
    let soup: String = (0..N).map(|_| SOUP[rng.below(SOUP.len() as u64) as usize]).collect();
    for text in ["/*".repeat(4 * N), "\"".repeat(4 * N), "'a ".repeat(N), format!("r#\"{}", "x".repeat(4 * N)), "x::y\n".repeat(N), soup] {
        lint(&text);
    }
}
