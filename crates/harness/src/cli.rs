//! The one command-line parser behind `figures`, `ablations` and
//! `clove-run`.
//!
//! Every binary declares the flags it takes — `switches` stand alone,
//! `valued` flags take one value as `--flag N` or `--flag=N` — and
//! [`check_flags`] turns anything else into an error, so a typo
//! (`--quik`, `--job 4`) stops the run instead of silently starting the
//! default one.

use crate::journal::Journal;

/// Reject every `--flag` in `args` that is neither a declared switch nor a
/// declared valued flag, and a valued flag with no value after it.
pub fn check_flags(args: &[String], switches: &[&str], valued: &[&str]) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") || switches.contains(&arg.as_str()) {
            continue;
        }
        match arg.split_once('=') {
            Some((name, _)) if valued.contains(&name) => {}
            None if valued.contains(&arg.as_str()) => {
                it.next().ok_or_else(|| format!("flag '{arg}' needs a value"))?;
            }
            _ => return Err(format!("unknown flag '{arg}'")),
        }
    }
    Ok(())
}

/// Whether the switch `flag` was given.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The value of `--flag N` / `--flag=N`, if given.
pub fn parse_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().map(String::as_str);
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|rest| rest.strip_prefix('=')) {
            return Some(v);
        }
    }
    None
}

/// The value of the unsigned-integer flag `--flag N` / `--flag=N`,
/// `default` when the flag is absent. A value that does not parse is an
/// error, not the default.
pub fn parse_uint<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    parse_flag(args, flag).map_or(Ok(default), |v| v.parse().map_err(|_| format!("{flag} '{v}': expected a non-negative integer")))
}

/// `--jobs N` / `--jobs=N`: the worker count, 1 when the flag is absent
/// and never 0.
pub fn parse_jobs(args: &[String]) -> Result<usize, String> {
    match parse_uint(args, "--jobs", 1)? {
        0 => Err("--jobs '0': expected a worker count of at least 1".to_string()),
        jobs => Ok(jobs),
    }
}

/// The first argument that is neither a flag nor the value of one of the
/// `valued` flags.
pub fn positional<'a>(args: &'a [String], valued: &[&str]) -> Option<&'a str> {
    let is_value = |i: usize| i > 0 && valued.contains(&args[i - 1].as_str());
    args.iter().enumerate().find(|&(i, a)| !a.starts_with("--") && !is_value(i)).map(|(_, a)| a.as_str())
}

/// Open the checkpoint journal `results/.journal/<scope>` — kept when
/// `resume`, wiped otherwise. A journal that cannot be opened costs only
/// resumability: warn and run without one.
pub fn open_journal(scope: &str, resume: bool) -> Option<Journal> {
    match Journal::open(format!("results/.journal/{scope}"), resume) {
        Ok(journal) => Some(journal),
        #[expect(clippy::print_stderr, reason = "best-effort stderr warning; the run proceeds unjournaled")]
        Err(e) => {
            eprintln!("{scope}: warning: no checkpoint journal ({e}); running without one");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn declared_flags_pass_and_typos_are_errors() {
        let (switches, valued) = (["--quick", "--resume"], ["--jobs", "--out"]);
        let check = |line: &str| check_flags(&args(line), &switches, &valued);
        assert_eq!(check("fig4c --quick --jobs 4 --out=x.json --resume"), Ok(()));
        assert_eq!(check(""), Ok(()));
        assert_eq!(check("--quik"), Err("unknown flag '--quik'".to_string()));
        assert_eq!(check("--job 4"), Err("unknown flag '--job'".to_string()));
        assert_eq!(check("--quick=1"), Err("unknown flag '--quick=1'".to_string()));
        assert_eq!(check("--jobs"), Err("flag '--jobs' needs a value".to_string()));
        // A valued flag consumes the next token even if it looks like a flag.
        assert_eq!(check("--out --weird"), Ok(()));
    }

    #[test]
    fn flag_values_come_from_either_spelling() {
        let a = args("all --jobs 4 --out=b.json --jobsx=9");
        assert_eq!(parse_flag(&a, "--jobs"), Some("4"));
        assert_eq!(parse_flag(&a, "--out"), Some("b.json"));
        assert_eq!(parse_flag(&a, "--seed"), None);
        assert_eq!(parse_jobs(&a), Ok(4));
        assert_eq!(parse_jobs(&args("fig7 --quick")), Ok(1));
        assert_eq!(parse_jobs(&args("--jobs=0")), Err("--jobs '0': expected a worker count of at least 1".to_string()));
        assert_eq!(parse_jobs(&args("--jobs many")), Err("--jobs 'many': expected a non-negative integer".to_string()));
        assert!(parse_jobs(&args("--jobs -2")).is_err() && parse_jobs(&args("--jobs=")).is_err());
        assert_eq!(parse_uint(&a, "--seed", 7u64), Ok(7));
        assert_eq!(parse_uint(&args("chaos --seed=18446744073709551615"), "--seed", 1u64), Ok(u64::MAX));
        assert_eq!(parse_uint(&args("chaos --runs 4294967296"), "--runs", 20u32), Err("--runs '4294967296': expected a non-negative integer".to_string()));
        assert!(has_flag(&args("x --quick"), "--quick") && !has_flag(&args("x --quick=1"), "--quick"));
    }

    #[test]
    fn positional_skips_flags_and_their_values() {
        let valued = ["--jobs", "--trace"];
        assert_eq!(positional(&args("--jobs 2 spec.json --trace out.jsonl"), &valued), Some("spec.json"));
        assert_eq!(positional(&args("--jobs=2 --quick fig7"), &valued), Some("fig7"));
        assert_eq!(positional(&args("--jobs 2 --quick"), &valued), None);
    }
}
