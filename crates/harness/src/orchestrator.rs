//! Fault-tolerant execution of experiment matrices.
//!
//! [`run_matrix`] hands back plain results and lets a panic in any cell
//! poison the whole pool — acceptable for ten-second smoke runs, fatal for
//! the hour-scale matrices the ROADMAP's 1024-host experiments need. This
//! module wraps the same fan-out with a job-level fault model:
//!
//! * **Panic isolation.** Each cell runs under `catch_unwind`; a panicking
//!   cell yields [`CellOutcome::Panicked`] and the rest of the matrix keeps
//!   going. The catch happens *inside* the worker closure — the vendored
//!   rayon facade (like real rayon) otherwise propagates worker panics at
//!   scope join, which is exactly the abort this module exists to prevent.
//! * **Retry, then quarantine.** A panicked cell is re-run up to
//!   [`ExecPolicy::retries`] extra attempts (covering rare
//!   environment-induced failures); a cell that keeps panicking is
//!   quarantined and reported, never silently dropped.
//! * **Stall watchdog.** Every attempt gets a fresh
//!   [`RunControl`](clove_sim::RunControl) that the simulator's event loop
//!   publishes progress through. A watchdog thread snapshots the counters;
//!   a cell whose counters stop advancing for
//!   [`ExecPolicy::stall_timeout`] gets a cooperative stop request, and the
//!   cell is quarantined as [`CellOutcome::TimedOut`]. Timeouts are not
//!   retried: the simulator is deterministic, so a wedged cell wedges again.
//! * **Checkpoint/resume.** [`run_journaled`] consults a
//!   [`Journal`](crate::journal::Journal) before executing a cell and
//!   records each completed cell after, so an interrupted matrix re-executes
//!   only what is missing.
//!
//! Quarantine is deliberately *visible*: drivers render quarantined cells in
//! their tables and binaries exit non-zero, because a figure silently missing
//! a cell is worse than a run that fails loudly.
//!
//! [`run_matrix`]: crate::experiments::run_matrix

use crate::journal::{Journal, JournalValue};
use clove_sim::RunControl;
use rustc_hash::FxHashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How one cell of a fault-tolerant matrix ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<R> {
    /// The cell completed and produced a result.
    Ok(R),
    /// Every attempt panicked; the cell is quarantined.
    Panicked {
        /// The final attempt's panic payload, stringified.
        msg: String,
        /// Total attempts made (1 + retries).
        attempts: u32,
    },
    /// The stall watchdog cancelled the cell; it is quarantined.
    TimedOut {
        /// Attempts made when the stall was detected (always 1 today —
        /// deterministic stalls are not retried).
        attempts: u32,
    },
}

impl<R> CellOutcome<R> {
    /// The result, if the cell completed.
    pub fn ok(&self) -> Option<&R> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Consume into the result, if the cell completed.
    pub fn into_ok(self) -> Option<R> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// Whether the cell was quarantined (panicked or timed out).
    pub fn is_quarantined(&self) -> bool {
        !matches!(self, CellOutcome::Ok(_))
    }

    /// Human-readable description of a quarantined outcome (empty for Ok).
    pub fn describe(&self) -> String {
        match self {
            CellOutcome::Ok(_) => String::new(),
            CellOutcome::Panicked { msg, attempts } => format!("panicked after {attempts} attempt(s): {msg}"),
            CellOutcome::TimedOut { .. } => "timed out (no progress past stall deadline)".into(),
        }
    }
}

/// Cell execution policy: isolation, retry budget, stall deadline.
#[derive(Debug, Clone, Copy)]
pub struct ExecPolicy {
    /// Catch panics per cell instead of letting them abort the matrix.
    pub isolate: bool,
    /// Extra attempts for a panicking cell before quarantine.
    pub retries: u32,
    /// Wall-clock deadline without progress before a cell is cancelled.
    /// `None` disables the watchdog.
    pub stall_timeout: Option<Duration>,
}

impl Default for ExecPolicy {
    fn default() -> ExecPolicy {
        ExecPolicy { isolate: true, retries: 1, stall_timeout: None }
    }
}

impl ExecPolicy {
    /// The same policy with a stall deadline installed.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> ExecPolicy {
        self.stall_timeout = Some(timeout);
        self
    }
}

/// Bookkeeping from one fault-tolerant matrix run: counts only, so the
/// stats of one matrix are equal at any `--jobs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatrixStats {
    /// Total cells in the matrix.
    pub cells: usize,
    /// Cells actually executed (not served from the journal).
    pub executed: usize,
    /// Cells served from the journal.
    pub journal_hits: usize,
    /// Panicked attempts that were retried.
    pub retries: usize,
    /// Cells quarantined as panicked.
    pub panicked: usize,
    /// Cells quarantined as timed out.
    pub timed_out: usize,
}

impl MatrixStats {
    /// Total quarantined cells.
    pub fn quarantined(&self) -> usize {
        self.panicked + self.timed_out
    }
}

#[derive(Default)]
struct AtomicStats {
    executed: AtomicUsize,
    journal_hits: AtomicUsize,
    retries: AtomicUsize,
    panicked: AtomicUsize,
    timed_out: AtomicUsize,
}

impl AtomicStats {
    fn into_stats(self, cells: usize) -> MatrixStats {
        MatrixStats {
            cells,
            executed: self.executed.into_inner(),
            journal_hits: self.journal_hits.into_inner(),
            retries: self.retries.into_inner(),
            panicked: self.panicked.into_inner(),
            timed_out: self.timed_out.into_inner(),
        }
    }
}

struct Watched {
    control: Arc<RunControl>,
    last: (u64, u64),
    since: Instant,
}

struct WatchdogInner {
    timeout: Duration,
    shutdown: AtomicBool,
    cells: Mutex<FxHashMap<usize, Watched>>,
}

impl WatchdogInner {
    fn scan(&self) {
        let now = Instant::now();
        let mut cells = self.cells.lock().expect("watchdog registry poisoned");
        for w in cells.values_mut() {
            let snap = w.control.snapshot();
            if snap != w.last {
                w.last = snap;
                w.since = now;
            } else if now.duration_since(w.since) >= self.timeout {
                w.control.request_stop();
            }
        }
    }
}

/// A background thread that cancels runs whose progress counters freeze.
struct Watchdog {
    inner: Arc<WatchdogInner>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn new(timeout: Duration) -> Watchdog {
        let inner = Arc::new(WatchdogInner { timeout, shutdown: AtomicBool::new(false), cells: Mutex::new(FxHashMap::default()) });
        let poll = (timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
        let thread_inner = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("clove-stall-watchdog".into())
            .spawn(move || {
                // Acquire/Release on the shutdown flag: it is a control
                // signal, not a counter (clove-lint `relaxed-atomic`).
                while !thread_inner.shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(poll);
                    thread_inner.scan();
                }
            })
            .expect("spawn watchdog thread");
        Watchdog { inner, handle: Some(handle) }
    }

    fn watch(&self, idx: usize, control: Arc<RunControl>) -> WatchGuard<'_> {
        let last = control.snapshot();
        self.inner.cells.lock().expect("watchdog registry poisoned").insert(idx, Watched { control, last, since: Instant::now() });
        WatchGuard { watchdog: self, idx }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Unregisters a cell from the watchdog on drop (including panic unwind).
struct WatchGuard<'a> {
    watchdog: &'a Watchdog,
    idx: usize,
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        self.watchdog.inner.cells.lock().expect("watchdog registry poisoned").remove(&self.idx);
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Run one cell under the policy: watchdog registration, panic capture,
/// bounded retry, quarantine classification.
fn execute_cell<R>(policy: ExecPolicy, watchdog: Option<&Watchdog>, idx: usize, stats: &AtomicStats, run: impl Fn(&Arc<RunControl>) -> R) -> CellOutcome<R> {
    stats.executed.fetch_add(1, Ordering::Relaxed);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let control = Arc::new(RunControl::new());
        let result = {
            let _guard = watchdog.map(|w| w.watch(idx, Arc::clone(&control)));
            if policy.isolate {
                // AssertUnwindSafe: each attempt builds its own simulation
                // world from scratch, so no shared state survives a panic in
                // a form later attempts or cells can observe.
                catch_unwind(AssertUnwindSafe(|| run(&control)))
            } else {
                Ok(run(&control))
            }
        };
        let timed_out = control.stop_requested();
        match result {
            Ok(r) if !timed_out => return CellOutcome::Ok(r),
            Ok(_) => {
                stats.timed_out.fetch_add(1, Ordering::Relaxed);
                return CellOutcome::TimedOut { attempts };
            }
            Err(payload) => {
                if timed_out {
                    // A cancelled run that panicked on the way out is a
                    // stall, not a bug in the cell.
                    stats.timed_out.fetch_add(1, Ordering::Relaxed);
                    return CellOutcome::TimedOut { attempts };
                }
                let msg = panic_message(payload);
                if attempts > policy.retries {
                    stats.panicked.fetch_add(1, Ordering::Relaxed);
                    return CellOutcome::Panicked { msg, attempts };
                }
                stats.retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Execution schedule for a matrix: cell indices sorted most-expensive
/// first (descending estimated cost; ties keep cell order, and `None`
/// preserves cell order exactly). Workers claim cells in schedule order, so
/// the longest cells start earliest and the matrix tail is a short cell
/// rather than a long one — the classic longest-processing-time heuristic.
/// Cost estimates only need to *rank* cells, not predict wall time.
fn schedule(costs: Option<&[f64]>, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if let Some(costs) = costs {
        debug_assert_eq!(costs.len(), n, "one cost estimate per cell");
        order.sort_by(|&a, &b| costs[b].partial_cmp(&costs[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b)));
    }
    order
}

/// Scatter schedule-order outcomes back into cell order.
fn unschedule<R>(order: Vec<usize>, raw: Vec<CellOutcome<R>>) -> Vec<CellOutcome<R>> {
    let mut slots: Vec<Option<CellOutcome<R>>> = raw.into_iter().map(Some).collect();
    let mut by_cell: Vec<usize> = vec![0; slots.len()];
    for (pos, &idx) in order.iter().enumerate() {
        by_cell[idx] = pos;
    }
    by_cell.into_iter().map(|pos| slots[pos].take().expect("every cell scheduled exactly once")).collect()
}

/// Run a matrix with panic isolation, retry/quarantine and the stall
/// watchdog, returning per-cell outcomes **in cell order**.
///
/// `costs`, when given, holds one wall-time estimate per cell; execution is
/// scheduled most-expensive-first (see [`schedule`]) while results are
/// scattered back into cell order, so outputs are byte-identical whether or
/// not estimates are supplied.
///
/// The cell closure receives a shared [`RunControl`] it should hand to the
/// simulation (clone the `Arc` into `Scenario::control`) so the watchdog
/// can observe progress; cells that ignore it simply cannot be
/// stall-cancelled early (they are still marked `TimedOut` if the deadline
/// passes by the time they finish).
pub fn run_isolated<K, R, F>(cells: &[K], jobs: usize, policy: ExecPolicy, costs: Option<&[f64]>, run: F) -> (Vec<CellOutcome<R>>, MatrixStats)
where
    K: Sync,
    R: Send,
    F: Fn(&K, &Arc<RunControl>) -> R + Send + Sync,
{
    let stats = AtomicStats::default();
    let watchdog = policy.stall_timeout.map(Watchdog::new);
    let indices = schedule(costs, cells.len());
    let raw = crate::experiments::run_matrix(&indices, jobs, |&idx| execute_cell(policy, watchdog.as_ref(), idx, &stats, |control| run(&cells[idx], control)));
    drop(watchdog);
    (unschedule(indices, raw), stats.into_stats(cells.len()))
}

/// [`run_isolated`] plus checkpoint/resume: completed cells are recorded in
/// `journal` under `scope`, keyed by `key(cell)`, and served from the
/// journal on a resumed run instead of re-executing.
///
/// Only `Ok` outcomes are journaled — quarantined cells re-execute on
/// resume, so a transient environment failure does not permanently poison a
/// cell. With `journal = None` this is exactly [`run_isolated`].
pub fn run_journaled<K, R, F>(
    cells: &[K],
    jobs: usize,
    policy: ExecPolicy,
    costs: Option<&[f64]>,
    journal: Option<(&Journal, &str)>,
    key: impl Fn(&K) -> String + Send + Sync,
    run: F,
) -> (Vec<CellOutcome<R>>, MatrixStats)
where
    K: Sync,
    R: Send + JournalValue,
    F: Fn(&K, &Arc<RunControl>) -> R + Send + Sync,
{
    let Some((journal, scope)) = journal else {
        return run_isolated(cells, jobs, policy, costs, run);
    };
    let stats = AtomicStats::default();
    let watchdog = policy.stall_timeout.map(Watchdog::new);
    let indices = schedule(costs, cells.len());
    let raw = crate::experiments::run_matrix(&indices, jobs, |&idx| {
        let cell = &cells[idx];
        let cell_key = key(cell);
        if let Some(value) = journal.load::<R>(scope, &cell_key) {
            stats.journal_hits.fetch_add(1, Ordering::Relaxed);
            return CellOutcome::Ok(value);
        }
        let outcome = execute_cell(policy, watchdog.as_ref(), idx, &stats, |control| run(cell, control));
        if let CellOutcome::Ok(value) = &outcome {
            journal.store(scope, &cell_key, value);
        }
        outcome
    });
    drop(watchdog);
    (unschedule(indices, raw), stats.into_stats(cells.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ok_cells_pass_through_in_order() {
        let cells: Vec<u32> = (0..10).collect();
        let (outcomes, stats) = run_isolated(&cells, 4, ExecPolicy::default(), None, |&c, _| c * 2);
        let values: Vec<u32> = outcomes.into_iter().map(|o| o.into_ok().expect("ok")).collect();
        assert_eq!(values, (0..10).map(|c| c * 2).collect::<Vec<_>>());
        assert_eq!(stats.executed, 10);
        assert_eq!(stats.quarantined(), 0);
    }

    #[test]
    fn panicking_cell_is_quarantined_matrix_completes() {
        let cells: Vec<u32> = (0..8).collect();
        let policy = ExecPolicy { retries: 1, ..ExecPolicy::default() };
        let (outcomes, stats) = run_isolated(&cells, 4, policy, None, |&c, _| {
            if c == 3 {
                panic!("cell {c} exploded");
            }
            c
        });
        assert_eq!(outcomes.len(), 8);
        for (i, o) in outcomes.iter().enumerate() {
            if i == 3 {
                match o {
                    CellOutcome::Panicked { msg, attempts } => {
                        assert!(msg.contains("cell 3 exploded"));
                        assert_eq!(*attempts, 2, "one retry then quarantine");
                    }
                    other => panic!("expected Panicked, got {other:?}"),
                }
            } else {
                assert_eq!(o.ok(), Some(&(i as u32)));
            }
        }
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.retries, 1);
    }

    #[test]
    fn retry_recovers_flaky_cell() {
        let flaked = AtomicUsize::new(0);
        let (outcomes, stats) = run_isolated(&[7u32], 1, ExecPolicy::default(), None, |&c, _| {
            if flaked.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient");
            }
            c
        });
        assert_eq!(outcomes[0].ok(), Some(&7));
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.panicked, 0);
    }

    #[test]
    fn isolate_off_propagates_panics() {
        let policy = ExecPolicy { isolate: false, ..ExecPolicy::default() };
        let res = catch_unwind(AssertUnwindSafe(|| run_isolated(&[1u32], 1, policy, None, |_, _| -> u32 { panic!("loud") })));
        assert!(res.is_err());
    }

    #[test]
    fn stalled_cell_is_cancelled_and_timed_out() {
        let policy = ExecPolicy::default().with_stall_timeout(Duration::from_millis(60));
        let cells: Vec<u32> = vec![0, 1, 2];
        let (outcomes, stats) = run_isolated(&cells, 3, policy, None, |&c, control| {
            if c == 1 {
                // A wedged cell: no progress published, but it honors the
                // cooperative stop like the real event loop does.
                while !control.stop_requested() {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            c
        });
        assert_eq!(outcomes[0].ok(), Some(&0));
        assert!(matches!(outcomes[1], CellOutcome::TimedOut { .. }), "got {:?}", outcomes[1]);
        assert_eq!(outcomes[2].ok(), Some(&2));
        assert_eq!(stats.timed_out, 1);
    }

    #[test]
    fn progressing_cell_is_not_stall_cancelled() {
        let policy = ExecPolicy::default().with_stall_timeout(Duration::from_millis(80));
        let (outcomes, stats) = run_isolated(&[5u32], 1, policy, None, |&c, control| {
            // Slower than the stall deadline end-to-end, but always advancing.
            for i in 0..40 {
                control.advance(1, clove_sim::Time::from_nanos(i));
                std::thread::sleep(Duration::from_millis(5));
            }
            c
        });
        assert_eq!(outcomes[0].ok(), Some(&5));
        assert_eq!(stats.timed_out, 0);
    }

    #[test]
    fn journaled_cells_resume_without_reexecution() {
        let root = std::env::temp_dir().join(format!("clove-orch-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cells: Vec<u64> = (0..6).collect();
        let key = |c: &u64| format!("cell-{c}");
        {
            let journal = Journal::open(&root, false).expect("open journal");
            let (outcomes, stats) = run_journaled(&cells, 2, ExecPolicy::default(), None, Some((&journal, "test")), key, |&c, _| c as f64 * 1.5);
            assert!(outcomes.iter().all(|o| !o.is_quarantined()));
            assert_eq!(stats.executed, 6);
            assert_eq!(journal.stores(), 6);
        }
        {
            let journal = Journal::open(&root, true).expect("reopen journal");
            let executed = AtomicUsize::new(0);
            let (outcomes, stats) = run_journaled(&cells, 4, ExecPolicy::default(), None, Some((&journal, "test")), key, |&c, _| {
                executed.fetch_add(1, Ordering::Relaxed);
                c as f64 * 1.5
            });
            assert_eq!(executed.load(Ordering::Relaxed), 0, "all cells must come from the journal");
            assert_eq!(stats.journal_hits, 6);
            let values: Vec<f64> = outcomes.into_iter().map(|o| o.into_ok().expect("ok")).collect();
            assert_eq!(values, (0..6).map(|c| c as f64 * 1.5).collect::<Vec<_>>());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_are_equal_at_any_jobs_and_resume_moves_only_executed_to_hits() {
        let root = std::env::temp_dir().join(format!("clove-orch-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cells: Vec<u64> = (0..9).collect();
        let policy = ExecPolicy { retries: 1, ..ExecPolicy::default() };
        // Cell 4 panics on every attempt: one retry, then quarantine.
        let run = |&c: &u64, _: &Arc<RunControl>| if c == 4 { panic!("cell {c} exploded") } else { c as f64 };
        let (_, serial) = run_isolated(&cells, 1, policy, None, run);
        let (_, parallel) = run_isolated(&cells, 4, policy, None, run);
        assert_eq!(serial, parallel);
        assert_eq!(serial, MatrixStats { cells: 9, executed: 9, journal_hits: 0, retries: 1, panicked: 1, timed_out: 0 });

        let key = |c: &u64| format!("cell-{c}");
        let journal = Journal::open(&root, false).expect("open journal");
        let (_, fresh) = run_journaled(&cells, 4, policy, None, Some((&journal, "t")), key, run);
        assert_eq!(fresh, serial);
        let journal = Journal::open(&root, true).expect("reopen journal");
        let (_, resumed) = run_journaled(&cells, 1, policy, None, Some((&journal, "t")), key, run);
        // Only the quarantined cell re-executes; everything else is a hit.
        assert_eq!(resumed, MatrixStats { executed: 1, journal_hits: 8, ..fresh });
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantined_cells_are_not_journaled() {
        let root = std::env::temp_dir().join(format!("clove-orch-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let journal = Journal::open(&root, false).expect("open journal");
        let policy = ExecPolicy { retries: 0, ..ExecPolicy::default() };
        let (outcomes, _) = run_journaled(&[1u64], 1, policy, None, Some((&journal, "t")), |c| format!("{c}"), |_, _| -> f64 { panic!("nope") });
        assert!(outcomes[0].is_quarantined());
        assert_eq!(journal.stores(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn schedule_sorts_by_descending_cost_with_stable_ties() {
        assert_eq!(schedule(None, 4), vec![0, 1, 2, 3]);
        assert_eq!(schedule(Some(&[1.0, 3.0, 2.0, 3.0]), 4), vec![1, 3, 2, 0]);
        // NaN costs compare as equal: cell order preserved among them.
        assert_eq!(schedule(Some(&[f64::NAN, 1.0, f64::NAN]), 3), vec![0, 1, 2]);
    }

    #[test]
    fn cost_estimates_reorder_execution_but_not_outcomes() {
        // Serial run (jobs = 1): the worker claims cells in schedule order,
        // so the observed execution sequence is exactly descending cost.
        let cells: Vec<u32> = (0..5).collect();
        let costs = [2.0, 9.0, 1.0, 9.0, 5.0];
        let executed = std::sync::Mutex::new(Vec::new());
        let (outcomes, stats) = run_isolated(&cells, 1, ExecPolicy::default(), Some(&costs), |&c, _| {
            executed.lock().expect("lock").push(c);
            c * 10
        });
        assert_eq!(*executed.lock().expect("lock"), vec![1, 3, 4, 0, 2], "longest cells must start first");
        let values: Vec<u32> = outcomes.into_iter().map(|o| o.into_ok().expect("ok")).collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40], "outcomes must stay in cell order");
        assert_eq!(stats.executed, 5);
    }

    #[test]
    fn journaled_run_honors_cost_schedule() {
        let root = std::env::temp_dir().join(format!("clove-orch-cost-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let journal = Journal::open(&root, false).expect("open journal");
        let cells: Vec<u64> = (0..4).collect();
        let costs = [1.0, 4.0, 3.0, 2.0];
        let (outcomes, _) = run_journaled(&cells, 1, ExecPolicy::default(), Some(&costs), Some((&journal, "t")), |c| format!("{c}"), |&c, _| c as f64);
        let values: Vec<f64> = outcomes.into_iter().map(|o| o.into_ok().expect("ok")).collect();
        assert_eq!(values, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(journal.stores(), 4);
        let _ = std::fs::remove_dir_all(&root);
    }
}
