//! The machine and tree a result was recorded on.

use crate::json::Json;
use std::process::Command;

#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    pub nproc: u64,
    pub cpu_model: String,
    pub rustc: String,
    /// `unknown` outside a git checkout (the driver's checkouts are not one).
    pub git_commit: String,
    pub git_dirty: bool,
    pub loadavg_before: f64,
    pub loadavg_after: f64,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// 1-minute load average, 0 where `/proc` has none.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg").ok().and_then(|s| s.split_whitespace().next()?.parse().ok()).unwrap_or(0.0)
}

pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

impl Env {
    /// Capture the environment; `loadavg_after` is filled by [`Env::finish`].
    pub fn capture() -> Env {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| s.lines().find(|l| l.starts_with("model name")).and_then(|l| l.split(':').nth(1)).map(|m| m.trim().to_string()))
            .unwrap_or_else(|| "unknown".into());
        let load = loadavg();
        Env {
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
            git_dirty: command_line("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty()),
            loadavg_before: load,
            loadavg_after: load,
        }
    }

    pub fn finish(&mut self) {
        self.loadavg_after = loadavg();
    }

    /// A machine already busy makes host times read high: say so, don't fail.
    pub fn busy_warning(&self) -> Option<String> {
        (self.loadavg_before > self.nproc as f64 - 0.5).then(|| {
            format!(
                "warning: 1-min load average {:.2} exceeds nproc - 0.5 = {:.1}; host-time metrics will read high",
                self.loadavg_before,
                self.nproc as f64 - 0.5
            )
        })
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::str(&self.cpu_model)),
            ("rustc", Json::str(&self.rustc)),
            ("git_commit", Json::str(&self.git_commit)),
            ("git_dirty", Json::Bool(self.git_dirty)),
            ("loadavg_before", Json::Num(self.loadavg_before)),
            ("loadavg_after", Json::Num(self.loadavg_after)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Env, String> {
        let s = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string).ok_or_else(|| format!("env.{k}: expected a string"));
        let n = |k: &str| v.get(k).and_then(Json::as_f64).ok_or_else(|| format!("env.{k}: expected a number"));
        Ok(Env {
            nproc: n("nproc")? as u64,
            cpu_model: s("cpu_model")?,
            rustc: s("rustc")?,
            git_commit: s("git_commit")?,
            git_dirty: matches!(v.get("git_dirty"), Some(Json::Bool(true))),
            loadavg_before: n("loadavg_before")?,
            loadavg_after: n("loadavg_after")?,
        })
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status.lines().find(|l| l.starts_with("VmHWM:"))?.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
