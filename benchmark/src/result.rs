//! The end-to-end metric table and the result-file schema `compare` reads.

use crate::env::Env;
use crate::json::Json;
use crate::stats::Quartiles;

/// One end-to-end metric: what a user of the simulator pays (host) or is
/// owed (simulated).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the base median the metric may worsen before `compare`
    /// calls it a regression — two result files of one seed.
    pub bound: f64,
    /// The bound in BENCHMARK.json, for the metrics the driver reads off
    /// the contract's last line. The driver judges a metric by its spread
    /// over ten runs at ten *different* seeds, so only metrics that are
    /// steady across seeds qualify, and their bound has to cover that
    /// spread three times over. A mean or p99 FCT over ~1,000 heavy-tailed
    /// flows moves 30 % from seed to seed and `websearch_asym`'s peak RSS
    /// is its MPTCP cell's reorder buffers (21–33 MiB by seed): those live
    /// in result files, compared same-seed, where they are exact or tight.
    pub driver_bound: Option<f64>,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.10, driver_bound: Some(0.25) },
    EndToEnd { name: "wall_s", unit: "s", better: "lower", bound: 0.10, driver_bound: Some(0.25) },
    EndToEnd { name: "events_per_s", unit: "1/s", better: "higher", bound: 0.10, driver_bound: Some(0.25) },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: "lower", bound: 0.10, driver_bound: None },
    EndToEnd { name: "sim_fct_avg_ms", unit: "ms", better: "lower", bound: 0.02, driver_bound: None },
    EndToEnd { name: "sim_fct_p99_ms", unit: "ms", better: "lower", bound: 0.02, driver_bound: None },
    EndToEnd { name: "sim_goodput_gbps", unit: "Gbit/s", better: "higher", bound: 0.02, driver_bound: None },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub const SCHEMA: u64 = 1;

/// The samples of one metric on one workload (one per repetition for host
/// time; a single value for a simulated metric, identical in every
/// repetition by check).
#[derive(Debug, Clone, PartialEq)]
pub struct Samples {
    pub unit: String,
    pub values: Vec<f64>,
}

impl Samples {
    pub fn quartiles(&self) -> Quartiles {
        Quartiles::of(&self.values)
    }
}

/// One workload's row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub seed: u64,
    /// End-to-end metrics the workload defines; an undefined one is absent.
    pub metrics: Vec<(String, Samples)>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub sim_digest: String,
    /// `Some(true)` = the digest differs from the committed golden one;
    /// `None` = no golden applies (non-default seed or scale).
    pub model_changed: Option<bool>,
    /// Identity checks by name.
    pub checks: Vec<(String, bool)>,
    /// e.g. `degraded_single_cpu`.
    pub flags: Vec<String>,
    /// The per-layer ledger when a traced pass ran: `(name, unit, value)`.
    pub layers: Vec<(String, String, f64)>,
}

impl Row {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn metric(&self, name: &str) -> Option<&Samples> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let q = s.quartiles();
                let body = Json::obj(vec![
                    ("unit", Json::str(&s.unit)),
                    ("n", Json::Num(q.n as f64)),
                    ("q1", Json::Num(q.q1)),
                    ("median", Json::Num(q.median)),
                    ("q3", Json::Num(q.q3)),
                    ("values", Json::Arr(s.values.iter().map(|&v| Json::Num(v)).collect())),
                ]);
                (name.clone(), body)
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("metrics", Json::Obj(metrics)),
            ("ops_attempted", Json::Num(self.ops_attempted as f64)),
            ("ops_failed", Json::Num(self.ops_failed as f64)),
            ("sim_digest", Json::str(&self.sim_digest)),
            ("model_changed", self.model_changed.map_or(Json::Null, |c| Json::Num(c as u8 as f64))),
            ("checks", Json::Obj(self.checks.iter().map(|(k, ok)| (k.clone(), Json::Bool(*ok))).collect())),
            ("flags", Json::Arr(self.flags.iter().map(Json::str).collect())),
            (
                "layers",
                Json::Obj(self.layers.iter().map(|(k, unit, v)| (k.clone(), Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(unit))]))).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Row, String> {
        let text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string).ok_or_else(|| format!("row.{k}: expected a string"));
        let count = |k: &str| v.get(k).and_then(Json::as_u64).ok_or_else(|| format!("row.{k}: expected a whole number"));
        let object = |k: &str| v.get(k).and_then(Json::as_object).ok_or_else(|| format!("row.{k}: expected an object"));
        let mut metrics = Vec::new();
        for (name, m) in object("metrics")? {
            let unit = m.get("unit").and_then(Json::as_str).ok_or_else(|| format!("metric {name}: no unit"))?.to_string();
            let values: Option<Vec<f64>> = m.get("values").and_then(Json::as_array).map(|a| a.iter().map(Json::as_f64).collect()).unwrap_or(None);
            let values = values.filter(|v| !v.is_empty()).ok_or_else(|| format!("metric {name}: no values"))?;
            metrics.push((name.clone(), Samples { unit, values }));
        }
        let mut layers = Vec::new();
        for (name, l) in object("layers")? {
            let value = l.get("value").and_then(Json::as_f64).ok_or_else(|| format!("layer {name}: no value"))?;
            layers.push((name.clone(), l.get("unit").and_then(Json::as_str).unwrap_or("").to_string(), value));
        }
        Ok(Row {
            workload: text("workload")?,
            seed: count("seed")?,
            metrics,
            ops_attempted: count("ops_attempted")?,
            ops_failed: count("ops_failed")?,
            sim_digest: text("sim_digest")?,
            model_changed: v.get("model_changed").and_then(Json::as_u64).map(|c| c != 0),
            checks: object("checks")?.iter().map(|(k, ok)| (k.clone(), matches!(ok, Json::Bool(true)))).collect(),
            flags: v.get("flags").and_then(Json::as_array).map(|a| a.iter().filter_map(Json::as_str).map(str::to_string).collect()).unwrap_or_default(),
            layers,
        })
    }
}

/// A whole result file: environment, one row per workload, and no claim.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub env: Env,
    pub scale: String,
    pub rows: Vec<Row>,
}

impl ResultFile {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Num(SCHEMA as f64)),
            ("env", self.env.to_json()),
            ("scale", Json::str(&self.scale)),
            ("rows", Json::Arr(self.rows.iter().map(Row::to_json).collect())),
            // The benchmark is the ruler: it claims no gain.
            ("claim", Json::Null),
        ])
    }

    pub fn from_json(v: &Json) -> Result<ResultFile, String> {
        match v.get("schema").and_then(Json::as_u64) {
            Some(SCHEMA) => {}
            other => return Err(format!("schema {other:?}, this build reads schema {SCHEMA}")),
        }
        let rows = v.get("rows").and_then(Json::as_array).ok_or("no rows")?.iter().map(Row::from_json).collect::<Result<_, _>>()?;
        Ok(ResultFile { env: Env::from_json(v.get("env").ok_or("no env")?)?, scale: v.get("scale").and_then(Json::as_str).unwrap_or("full").to_string(), rows })
    }

    pub fn read(path: &str) -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        ResultFile::from_json(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub fn sample_row(workload: &str, wall: &[f64]) -> Row {
        Row {
            workload: workload.into(),
            seed: 1000,
            metrics: vec![
                ("wall_s".into(), Samples { unit: "s".into(), values: wall.to_vec() }),
                ("events_per_s".into(), Samples { unit: "1/s".into(), values: wall.iter().map(|w| 9.2e7 / w).collect() }),
                ("sim_fct_avg_ms".into(), Samples { unit: "ms".into(), values: vec![19.230_123_456_789] }),
            ],
            ops_attempted: 7168,
            ops_failed: 0,
            sim_digest: "00c0ffee00c0ffee".into(),
            model_changed: Some(false),
            checks: vec![("reps_identical".into(), true)],
            flags: vec!["degraded_single_cpu".into()],
            layers: vec![("sim.events_popped".into(), "count".into(), 40_123_456.0), ("trace.timer_ns".into(), "ns".into(), 23.5)],
        }
    }

    pub fn sample_env() -> Env {
        Env {
            nproc: 2,
            cpu_model: "Test CPU @ 2.10GHz".into(),
            rustc: "rustc 1.95.0".into(),
            git_commit: "abc123".into(),
            git_dirty: true,
            loadavg_before: 0.25,
            loadavg_after: 1.5,
        }
    }

    #[test]
    fn result_file_round_trips_through_the_schema_compare_reads() {
        let mut no_golden = sample_row("incast_fanin", &[5.5, 5.6]);
        no_golden.model_changed = None;
        let file = ResultFile { env: sample_env(), scale: "full".into(), rows: vec![sample_row("websearch_asym", &[8.1, 8.3, 8.2, 8.6, 8.0]), no_golden] };
        let text = file.to_json().render_pretty();
        assert!(text.trim_end().ends_with("\"claim\": null\n}"), "a result ends with \"claim\": null: {text}");
        let back = ResultFile::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, file);
        // Quartiles are written next to the samples they summarise.
        let wall = Json::parse(&text).unwrap();
        let wall = wall.get("rows").unwrap().as_array().unwrap()[0].get("metrics").unwrap().get("wall_s").unwrap().clone();
        assert_eq!(wall.get("n").unwrap().as_u64(), Some(5));
        assert_eq!(wall.get("median").unwrap().as_f64(), Some(8.2));
    }

    #[test]
    fn unreadable_results_are_errors() {
        assert!(ResultFile::from_json(&Json::parse("{\"schema\": 99}").unwrap()).is_err());
        assert!(ResultFile::from_json(&Json::parse("{\"schema\": 1, \"env\": {}, \"rows\": []}").unwrap()).is_err());
        let mut row = sample_row("w", &[1.0]).to_json();
        if let Json::Obj(fields) = &mut row {
            fields.retain(|(k, _)| k != "ops_failed");
        }
        assert!(Row::from_json(&row).unwrap_err().contains("ops_failed"));
    }

    #[test]
    fn metric_table_is_contract_shaped() {
        assert_eq!(END_TO_END.map(|m| m.name), ["setup_s", "wall_s", "events_per_s", "peak_rss_mib", "sim_fct_avg_ms", "sim_fct_p99_ms", "sim_goodput_gbps"]);
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == "lower");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25 && (m.better == "lower" || m.better == "higher"));
            assert!(m.driver_bound.is_none_or(|b| b > 0.0 && b <= 0.25 && b <= setup.driver_bound.unwrap()), "setup_s carries the largest bound");
        }
    }
}
