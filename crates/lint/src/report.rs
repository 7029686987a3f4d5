//! Findings and their one output surface, a human table.

use std::fmt::Write as _;

/// One rule violation (or waived violation) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule name from the catalog.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation of this occurrence.
    pub message: String,
    /// `Some(reason)` when suppressed by an inline waiver or the audited
    /// allowlist; such findings are reported but do not fail the check.
    pub waived: Option<String>,
}

/// The result of a whole-tree check.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, waived or not, sorted by (path, line, col).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that fail the check.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived.is_none())
    }

    /// Human-readable table plus summary line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let active: Vec<&Finding> = self.unwaived().collect();
        if active.is_empty() {
            let _ = writeln!(out, "clove-lint: clean — {} files scanned, 0 unwaived findings ({} waived)", self.files_scanned, self.findings.len());
            return out;
        }
        let loc_w = active.iter().map(|f| f.path.len() + 12).max().unwrap_or(8).max("LOCATION".len());
        let rule_w = active.iter().map(|f| f.rule.len()).max().unwrap_or(4).max("RULE".len());
        let _ = writeln!(out, "{:<loc_w$}  {:<rule_w$}  MESSAGE", "LOCATION", "RULE");
        for f in &active {
            let loc = format!("{}:{}:{}", f.path, f.line, f.col);
            let _ = writeln!(out, "{loc:<loc_w$}  {:<rule_w$}  {}", f.rule, f.message);
        }
        let waived = self.findings.len() - active.len();
        let _ = writeln!(out, "\nclove-lint: {} unwaived finding(s) in {} files scanned ({waived} waived). Rules: see `clove-lint rules`; waive inline with `// clove-lint: allow(<rule>): <reason>`.", active.len(), self.files_scanned);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(waived: Option<&str>) -> Report {
        Report {
            findings: vec![Finding {
                rule: "wall-clock",
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                col: 9,
                message: "bad \"clock\"".into(),
                waived: waived.map(String::from),
            }],
            files_scanned: 1,
        }
    }

    #[test]
    fn table_reports_unwaived() {
        let t = one(None).render_table();
        assert!(t.contains("crates/x/src/lib.rs:3:9"));
        assert!(t.contains("1 unwaived"));
    }

    #[test]
    fn table_clean_when_all_waived() {
        let t = one(Some("waiver: test")).render_table();
        assert!(t.contains("clean"));
        assert!(t.contains("1 waived"));
    }
}
