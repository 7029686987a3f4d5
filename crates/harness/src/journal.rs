//! Checkpoint/resume journal for experiment matrices, plus atomic file
//! writes for every artifact the harness produces.
//!
//! A full-scale figure pass is minutes to hours of independent cells, and
//! it must survive being killed half-way. The journal records
//! each completed cell under `results/.journal/<scope>/<hash>.json`, keyed by
//! a content string covering everything that determines the cell's result
//! (scenario parameters, seed, the relevant [`ExpConfig`] knobs). A resumed
//! run loads journaled cells instead of re-executing them; because values are
//! encoded losslessly (f64 via shortest-roundtrip rendering, [`Summary`]
//! samples in insertion order so Welford state reconstructs bit-identically),
//! a resumed run's folds — and therefore its CSVs — are byte-identical to an
//! uninterrupted run at any `--jobs` width.
//!
//! All writes (journal entries and result files alike) go through
//! [`write_atomic`]: content lands in a uniquely named temp file in the
//! destination directory, then a `rename` makes it visible. A killed run can
//! leave stray `.tmp` files but never a torn CSV or a half-written entry.
//!
//! [`ExpConfig`]: crate::experiments::ExpConfig
//! [`Summary`]: clove_sim::stats::Summary

use crate::json::Json;
use clove_sim::stats::Summary;
use clove_telemetry::Histogram;
use clove_workload::FctSummary;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Write `contents` to `path` atomically: temp file in the same directory,
/// then rename. Creates parent directories as needed.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_else(|| "out".into());
    let tmp = path.with_file_name(format!(".{}.{}.{}.tmp", name, std::process::id(), COUNTER.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(&tmp, contents)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// FNV-1a 64-bit hash of a key string; names journal entry files.
fn fnv1a64(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A value that can round-trip through the journal losslessly.
///
/// `from_journal(to_journal(v))` must reconstruct `v` exactly enough that
/// every downstream fold produces bit-identical numbers — for floats that
/// means exact bit equality, which the hand-rolled JSON renderer guarantees
/// (shortest-roundtrip `f64` formatting).
pub trait JournalValue: Sized {
    /// Encode for storage.
    fn to_journal(&self) -> Json;
    /// Decode from storage; `Err` means the entry is unusable (treated as a
    /// miss, the cell re-executes).
    fn from_journal(v: &Json) -> Result<Self, String>;
}

/// A directory of completed-cell records under `results/.journal/`.
///
/// `Journal` is `Sync`: worker threads load and store entries concurrently.
/// Distinct cells hash to distinct files, and each file is written atomically,
/// so no locking is needed.
#[derive(Debug)]
pub struct Journal {
    root: PathBuf,
    hits: AtomicU64,
    stores: AtomicU64,
}

impl Journal {
    /// Open a journal rooted at `root`. With `resume = false` any existing
    /// entries are wiped (a fresh run must not see stale cells); with
    /// `resume = true` existing entries are kept and served.
    pub fn open(root: impl Into<PathBuf>, resume: bool) -> std::io::Result<Journal> {
        let root = root.into();
        if !resume && root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Journal { root, hits: AtomicU64::new(0), stores: AtomicU64::new(0) })
    }

    /// Where this journal lives.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Entries served from disk so far (resume hits).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries written so far.
    pub fn stores(&self) -> u64 {
        self.stores.load(Ordering::Relaxed)
    }

    fn entry_path(&self, scope: &str, key: &str) -> PathBuf {
        self.root.join(scope).join(format!("{:016x}.json", fnv1a64(key)))
    }

    /// Load the journaled value for `key`, or `None` if absent, corrupt, or
    /// a hash collision (the stored full key is verified before decoding).
    pub fn load<V: JournalValue>(&self, scope: &str, key: &str) -> Option<V> {
        let text = std::fs::read_to_string(self.entry_path(scope, key)).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.get("key")?.as_str()? != key {
            return None;
        }
        let value = V::from_journal(doc.get("value")?).ok()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Record `value` for `key`. Best-effort: an I/O failure is reported to
    /// stderr but does not abort the run — journaling is an optimization,
    /// never a correctness dependency.
    pub fn store<V: JournalValue>(&self, scope: &str, key: &str, value: &V) {
        let doc = Json::Obj(vec![("key".into(), Json::Str(key.into())), ("value".into(), value.to_journal())]);
        let path = self.entry_path(scope, key);
        match write_atomic(&path, &doc.render()) {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
            }
            // clove-lint: allow(stdout-in-lib): best-effort I/O warning to stderr; journal entries are an optimization and never part of the byte-identical result output
            Err(e) => eprintln!("warning: journal write failed for {}: {e}", path.display()),
        }
    }
}

pub(crate) fn num(v: f64) -> Json {
    // The renderer cannot represent non-finite numbers; encode them as
    // tagged strings so a (defensive) NaN survives the round trip.
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Str(format!("{v}"))
    }
}

pub(crate) fn denum(v: &Json) -> Result<f64, String> {
    match v {
        Json::Num(n) => Ok(*n),
        Json::Str(s) => s.parse::<f64>().map_err(|_| format!("bad float '{s}'")),
        other => Err(format!("expected number, got {other:?}")),
    }
}

pub(crate) fn deu64(v: &Json) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("expected unsigned integer, got {v:?}"))
}

pub(crate) fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// Encode a [`Summary`]. A sample-retaining summary encodes as its sample
/// list in the summary's current sample order (callers must encode before
/// any quantile/CDF call sorts it if they need the reconstructed Welford
/// state to match a fresh run — in practice every journaled summary comes
/// straight out of `summarize()`). A streaming-mode summary encodes as an
/// object carrying the exact Welford moments plus the sparse histogram
/// buckets; the histogram's `u128` sum travels as a decimal string because
/// the JSON number path is `f64`-backed.
pub fn summary_to_json(s: &Summary) -> Json {
    match s.export_streaming() {
        None => Json::Arr(s.samples().iter().map(|&x| num(x)).collect()),
        Some((count, mean, m2, min, max, hist)) => Json::Obj(vec![(
            "streaming".into(),
            Json::Obj(vec![
                ("count".into(), Json::Num(count as f64)),
                ("mean".into(), num(mean)),
                ("m2".into(), num(m2)),
                ("min".into(), num(min)),
                ("max".into(), num(max)),
                ("hist_sum".into(), Json::Str(hist.sum().to_string())),
                ("hist_min".into(), Json::Str(hist.min().to_string())),
                ("hist_max".into(), Json::Str(hist.max().to_string())),
                (
                    "buckets".into(),
                    Json::Arr(hist.nonzero_indexed().into_iter().map(|(i, c)| Json::Arr(vec![Json::Num(i as f64), Json::Num(c as f64)])).collect()),
                ),
            ]),
        )]),
    }
}

/// Rebuild a [`Summary`]: re-add stored samples in order (retained form) or
/// reassemble the streaming parts (streaming form).
pub fn summary_from_json(v: &Json) -> Result<Summary, String> {
    if let Some(st) = v.get("streaming") {
        let parse_u64_str = |key: &str| -> Result<u64, String> {
            let s = field(st, key)?.as_str().ok_or_else(|| format!("'{key}' must be a string"))?;
            s.parse::<u64>().map_err(|_| format!("bad integer '{s}' in '{key}'"))
        };
        let sum = {
            let s = field(st, "hist_sum")?.as_str().ok_or("'hist_sum' must be a string")?;
            s.parse::<u128>().map_err(|_| format!("bad integer '{s}' in 'hist_sum'"))?
        };
        let mut buckets = Vec::new();
        for pair in field(st, "buckets")?.as_array().ok_or("'buckets' must be an array")? {
            let pair = pair.as_array().ok_or("bucket must be an [index, count] pair")?;
            if pair.len() != 2 {
                return Err("bucket must be an [index, count] pair".into());
            }
            buckets.push((deu64(&pair[0])? as usize, deu64(&pair[1])?));
        }
        let hist = Histogram::from_parts(&buckets, sum, parse_u64_str("hist_min")?, parse_u64_str("hist_max")?);
        return Ok(Summary::from_streaming_parts(
            deu64(field(st, "count")?)?,
            denum(field(st, "mean")?)?,
            denum(field(st, "m2")?)?,
            denum(field(st, "min")?)?,
            denum(field(st, "max")?)?,
            hist,
        ));
    }
    let items = v.as_array().ok_or("summary must be an array")?;
    let mut s = Summary::new();
    for item in items {
        s.add(denum(item)?);
    }
    Ok(s)
}

impl JournalValue for f64 {
    fn to_journal(&self) -> Json {
        num(*self)
    }
    fn from_journal(v: &Json) -> Result<f64, String> {
        denum(v)
    }
}

impl JournalValue for u64 {
    fn to_journal(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_journal(v: &Json) -> Result<u64, String> {
        deu64(v)
    }
}

impl JournalValue for String {
    fn to_journal(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_journal(v: &Json) -> Result<String, String> {
        v.as_str().map(str::to_owned).ok_or_else(|| format!("expected string, got {v:?}"))
    }
}

impl JournalValue for FctSummary {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![
            ("all".into(), summary_to_json(&self.all)),
            ("mice".into(), summary_to_json(&self.mice)),
            ("elephants".into(), summary_to_json(&self.elephants)),
            ("incomplete".into(), Json::Num(self.incomplete as f64)),
        ])
    }
    fn from_journal(v: &Json) -> Result<FctSummary, String> {
        Ok(FctSummary {
            all: summary_from_json(field(v, "all")?)?,
            mice: summary_from_json(field(v, "mice")?)?,
            elephants: summary_from_json(field(v, "elephants")?)?,
            incomplete: deu64(field(v, "incomplete")?)? as usize,
        })
    }
}

impl JournalValue for (FctSummary, u64) {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![("fct".into(), self.0.to_journal()), ("events".into(), self.1.to_journal())])
    }
    fn from_journal(v: &Json) -> Result<(FctSummary, u64), String> {
        Ok((FctSummary::from_journal(field(v, "fct")?)?, deu64(field(v, "events")?)?))
    }
}

/// Encode an optional duration as nanoseconds (or null).
pub fn opt_duration_to_json(d: Option<clove_sim::Duration>) -> Json {
    match d {
        Some(d) => Json::Num(d.as_nanos() as f64),
        None => Json::Null,
    }
}

/// Decode an optional nanosecond duration.
pub fn opt_duration_from_json(v: &Json) -> Result<Option<clove_sim::Duration>, String> {
    match v {
        Json::Null => Ok(None),
        other => Ok(Some(clove_sim::Duration::from_nanos(deu64(other)?))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!("clove-journal-{tag}-{}-{}", std::process::id(), N.fetch_add(1, Ordering::Relaxed)))
    }

    #[test]
    fn write_atomic_creates_parents_and_no_temp_residue() {
        let root = tmp_root("atomic");
        let path = root.join("deep/nested/out.csv");
        write_atomic(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        let dir: Vec<_> = std::fs::read_dir(path.parent().unwrap()).unwrap().collect();
        assert_eq!(dir.len(), 1, "temp file must not remain after rename");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn journal_round_trips_values_and_counts_hits() {
        let root = tmp_root("roundtrip");
        let j = Journal::open(&root, false).unwrap();
        assert!(j.load::<f64>("s", "k").is_none());
        j.store("s", "k", &1.25f64);
        assert_eq!(j.load::<f64>("s", "k"), Some(1.25));
        assert_eq!(j.hits(), 1);
        assert_eq!(j.stores(), 1);
        // A different key must not alias (and the stored key is verified).
        assert!(j.load::<f64>("s", "other").is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fresh_open_wipes_resume_keeps() {
        let root = tmp_root("wipe");
        {
            let j = Journal::open(&root, false).unwrap();
            j.store("s", "k", &2.0f64);
        }
        {
            let j = Journal::open(&root, true).unwrap();
            assert_eq!(j.load::<f64>("s", "k"), Some(2.0));
        }
        {
            let j = Journal::open(&root, false).unwrap();
            assert!(j.load::<f64>("s", "k").is_none());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn summary_reconstructs_welford_state_exactly() {
        let mut s = Summary::new();
        // Deliberately awkward floats: order-dependent Welford accumulation
        // must survive the round trip bit-for-bit.
        for x in [0.1, 0.7, 1e-9, 3.7415926535, 0.2, 123456.789] {
            s.add(x);
        }
        let back = summary_from_json(&Json::parse(&summary_to_json(&s).render()).unwrap()).unwrap();
        assert_eq!(back.count(), s.count());
        assert_eq!(back.mean().to_bits(), s.mean().to_bits());
        assert_eq!(back.std_dev().to_bits(), s.std_dev().to_bits());
        assert_eq!(back.min().to_bits(), s.min().to_bits());
        assert_eq!(back.max().to_bits(), s.max().to_bits());
    }

    #[test]
    fn streaming_summary_round_trips_exactly() {
        let mut s = Summary::new();
        for x in [0.1, 0.7, 1e-9, 3.7415926535, 0.2, 123456.789] {
            s.add(x);
        }
        s.spill_to_streaming();
        let back = summary_from_json(&Json::parse(&summary_to_json(&s).render()).unwrap()).unwrap();
        assert!(back.is_streaming());
        assert_eq!(back.count(), s.count());
        assert_eq!(back.mean().to_bits(), s.mean().to_bits());
        assert_eq!(back.std_dev().to_bits(), s.std_dev().to_bits());
        assert_eq!(back.min().to_bits(), s.min().to_bits());
        assert_eq!(back.max().to_bits(), s.max().to_bits());
        let (mut back, mut s) = (back, s);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(back.quantile(q).to_bits(), s.quantile(q).to_bits());
        }
    }

    #[test]
    fn fct_summary_round_trips_through_disk() {
        let root = tmp_root("fct");
        let j = Journal::open(&root, false).unwrap();
        let mut fct = FctSummary { all: Summary::new(), mice: Summary::new(), elephants: Summary::new(), incomplete: 3 };
        for x in [0.25, 0.5, 0.125] {
            fct.all.add(x);
            fct.mice.add(x / 2.0);
        }
        j.store("rpc", "cell-1", &(fct.clone(), 42u64));
        let (back, events) = j.load::<(FctSummary, u64)>("rpc", "cell-1").unwrap();
        assert_eq!(events, 42);
        assert_eq!(back.incomplete, 3);
        assert_eq!(back.all.mean().to_bits(), fct.all.mean().to_bits());
        assert_eq!(back.mice.count(), 3);
        assert_eq!(back.elephants.count(), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
