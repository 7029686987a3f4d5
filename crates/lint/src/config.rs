//! Rule catalog and the audited file allowlists.
//!
//! Allowlists are path-prefix matches against workspace-relative paths
//! (always forward-slash separated). Every entry carries the audit reason;
//! `clove-lint rules` prints the catalog, so the exception surface is
//! greppable in one place. One-off exceptions in arbitrary files use inline
//! waivers instead (`// clove-lint: allow(<rule>): <reason>`).

/// One lint rule: stable name plus a one-line description.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case name, used in reports and waiver comments.
    pub name: &'static str,
    /// What the rule enforces and why.
    pub summary: &'static str,
}

/// The rule catalog. Order is report order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "std-hash-collections",
        summary: "std HashMap/HashSet with the default RandomState hasher: per-process seeded iteration order breaks cross-run reproducibility; use the vendored FxHashMap/FxHashSet or BTreeMap",
    },
    Rule {
        name: "wall-clock",
        summary: "std::time::Instant/SystemTime read: simulation logic must use clove-sim virtual Time only",
    },
    Rule {
        name: "os-entropy",
        summary: "OS entropy source (thread_rng, OsRng, from_entropy, getrandom, RandomState): all randomness must flow from clove-sim::rng seeds",
    },
    Rule {
        name: "float-partial-cmp",
        summary: "partial_cmp().unwrap()/expect() on floats: panics on NaN and hides total-order intent; use total_cmp",
    },
    Rule {
        name: "stdout-in-lib",
        summary: "println!/eprintln!/process::exit in library code: output must go through the report layer the byte-identical guarantee covers; exits belong to binaries",
    },
    Rule {
        name: "relaxed-atomic",
        summary: "Ordering::Relaxed outside the audited allowlist: cross-thread control flags need Acquire/Release; Relaxed is reserved for audited monotonic counters",
    },
    Rule { name: "invalid-waiver", summary: "malformed clove-lint waiver comment: must be `// clove-lint: allow(<rule>): <reason>` with a known rule and a non-empty reason" },
];

/// True when `name` is a rule in the catalog.
pub fn is_known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// An audited allowlist entry: files under `path_prefix` may use the
/// construct `rule` forbids, for the stated reason.
#[derive(Debug, Clone, Copy)]
pub struct Allow {
    /// Rule being excepted.
    pub rule: &'static str,
    /// Workspace-relative path prefix (forward slashes).
    pub path_prefix: &'static str,
    /// Audit justification.
    pub reason: &'static str,
}

/// The audited allowlists. Keep this short: anything that can instead be a
/// one-line inline waiver should be.
pub const ALLOWLIST: &[Allow] = &[Allow {
    rule: "relaxed-atomic",
    path_prefix: "crates/harness/src/journal.rs",
    reason: "hit/store counters and the temp-file name nonce are monotonic and never ordered against other data",
}];

/// Allowlist lookup: the audit reason when `rule` is excepted for `path`.
pub fn allowed(rule: &str, path: &str) -> Option<&'static str> {
    ALLOWLIST.iter().find(|a| a.rule == rule && path.starts_with(a.path_prefix)).map(|a| a.reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nothing in the workspace may read the host clock, so no
    /// figure-producing code can observe host time; speed is measured from
    /// outside, by `benchmark/`. A `wall-clock` entry here is a second
    /// instrument.
    #[test]
    fn no_file_is_excepted_from_the_wall_clock_rule() {
        assert!(ALLOWLIST.iter().all(|a| a.rule != "wall-clock"));
        assert!(allowed("wall-clock", "crates/harness/src/orchestrator.rs").is_none());
        let entries: Vec<(&str, &str)> = ALLOWLIST.iter().map(|a| (a.rule, a.path_prefix)).collect();
        assert_eq!(entries, [("relaxed-atomic", "crates/harness/src/journal.rs")]);
    }
}
