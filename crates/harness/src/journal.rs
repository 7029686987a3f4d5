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

use crate::json::Json;
use clove_workload::fct::Summary;
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
pub(crate) fn fnv1a64(key: &str) -> u64 {
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
            #[expect(
                clippy::print_stderr,
                reason = "best-effort I/O warning to stderr; journal entries are an optimization and never part of the byte-identical result output"
            )]
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
    v.as_u64().ok_or_else(|| format!("expected unsigned integer below 2^53, got {v:?}"))
}

pub(crate) fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// Encode a [`Summary`] as its sample list in the summary's current sample
/// order (callers must encode before any quantile/CDF call sorts it if they
/// need the reconstructed mean to match a fresh run — in practice every
/// journaled summary comes straight out of `summarize()`).
pub fn summary_to_json(s: &Summary) -> Json {
    Json::Arr(s.samples().iter().map(|&x| num(x)).collect())
}

/// Rebuild a [`Summary`] by re-adding the stored samples in order.
pub fn summary_from_json(v: &Json) -> Result<Summary, String> {
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
pub(crate) mod tests {
    use super::*;
    use clove_sim::SimRng;

    /// Decode `value`'s entry and a few hundred corruptions of it as `V`:
    /// the rendered entry with one bit flipped, and the entry with random
    /// subtrees swapped for values no encoder writes (negative,
    /// fractional, past `u64`, of the wrong type). Each must decode to a
    /// value or to an `Err` — a journal miss — and never panic.
    pub(crate) fn assert_corruptions_decode_or_miss<V: JournalValue>(value: &V) {
        let entry = value.to_journal();
        assert!(V::from_journal(&entry).is_ok(), "an intact entry decodes");
        let text = entry.render();
        let mut rng = SimRng::new(fnv1a64(&text));
        for _ in 0..400 {
            let mut bytes = text.clone().into_bytes();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 << rng.below(8);
            if let Ok(flipped) = Json::parse(&String::from_utf8_lossy(&bytes)) {
                let _ = V::from_journal(&flipped);
            }
            let _ = V::from_journal(&corrupt(&entry, &mut rng));
        }
    }

    fn corrupt(v: &Json, rng: &mut SimRng) -> Json {
        const HOSTILE: [f64; 5] = [-1.0, 2.5, 1e19, 1e300, f64::MAX];
        if rng.chance(0.1) {
            return match rng.below(4) {
                0 => Json::Num(HOSTILE[rng.below(HOSTILE.len() as u64) as usize]),
                1 => Json::Str("x".into()),
                2 => Json::Null,
                _ => Json::Arr(Vec::new()),
            };
        }
        match v {
            Json::Arr(items) => Json::Arr(items.iter().map(|x| corrupt(x, rng)).collect()),
            Json::Obj(fields) => Json::Obj(fields.iter().map(|(k, x)| (k.clone(), corrupt(x, rng))).collect()),
            leaf => leaf.clone(),
        }
    }

    fn fct_sample() -> FctSummary {
        let mut fct = FctSummary { all: Summary::new(), mice: Summary::new(), elephants: Summary::new(), incomplete: 2 };
        for x in [0.25, 0.5, 0.125] {
            fct.all.add(x);
            fct.mice.add(x / 2.0);
        }
        fct.elephants.add(3.0);
        fct
    }

    #[test]
    fn corrupt_entries_decode_or_miss() {
        assert_corruptions_decode_or_miss(&1.25f64);
        assert_corruptions_decode_or_miss(&42u64);
        assert_corruptions_decode_or_miss(&"cell".to_string());
        assert_corruptions_decode_or_miss(&fct_sample());
        assert_corruptions_decode_or_miss(&(fct_sample(), 7u64));
    }

    /// A summary is journaled one way, as its sample array: the histogram
    /// form earlier builds wrote past 65,536 samples no longer decodes, so
    /// such an entry is a miss and its cell re-executes.
    #[test]
    fn a_streaming_form_entry_is_a_miss() {
        let all = r#"{"streaming":{"count":2,"mean":0.5,"m2":0,"min":0.5,"max":0.5,"hist_sum":"1","hist_min":"1","hist_max":"1","buckets":[[1,1],[2,1]]}}"#;
        let entry = Json::parse(&format!(r#"{{"all":{all},"mice":[],"elephants":[],"incomplete":0}}"#)).expect("test JSON");
        assert!(FctSummary::from_journal(&entry).is_err());
        assert!(summary_from_json(&Json::parse(all).expect("test JSON")).is_err());
    }

    /// The wire form of a cell's `(FctSummary, events)` entry, pinned: a
    /// journal written by an earlier build resumes under this one only
    /// while this text stays the same.
    #[test]
    fn a_cell_entry_renders_as_pinned() {
        let mut fct = FctSummary { all: Summary::new(), mice: Summary::new(), elephants: Summary::new(), incomplete: 1 };
        for x in [0.5, 1e-9, 0.1, 12.375] {
            fct.all.add(x);
        }
        fct.mice.add(1e-9);
        fct.elephants.add(12.375);
        assert_eq!(
            (fct, 42u64).to_journal().render(),
            r#"{"fct":{"all":[0.5,0.000000001,0.1,12.375],"mice":[0.000000001],"elephants":[12.375],"incomplete":1},"events":42}"#
        );
    }

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
        let mut back = summary_from_json(&Json::parse(&summary_to_json(&s).render()).unwrap()).unwrap();
        assert_eq!(back.count(), s.count());
        assert_eq!(back.mean().to_bits(), s.mean().to_bits());
        assert_eq!(back.samples(), s.samples());
        for q in [0.0, 0.5, 0.99, 1.0] {
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
