//! The one fan-out, and fault-tolerant execution of experiment matrices.
//!
//! [`run_matrix`] runs N independent cells on J scoped threads and hands
//! plain results back in cell order; a panic in any cell aborts the whole
//! matrix — acceptable for ten-second smoke runs and the chaos fuzzer (which
//! classifies its own panics), fatal for a full-scale figure matrix with
//! minutes of finished cells to lose. The rest of this module wraps that
//! fan-out with the one fault a deterministic cell has — it panics, every
//! time:
//!
//! * **Panic isolation, then quarantine.** Each cell runs once under
//!   `catch_unwind`; a panicking cell yields [`CellOutcome::Panicked`] and
//!   the rest of the matrix keeps going. The catch happens *inside* the
//!   worker closure — [`run_matrix`] otherwise re-raises a worker's panic
//!   once its threads are joined, which is exactly the abort this module
//!   exists to prevent. There is no retry (a cell is a pure function of its
//!   description, so a second attempt panics the same way) and no
//!   wall-clock deadline (tables must not depend on host time).
//! * **Checkpoint/resume.** [`run_journaled`] consults a
//!   [`Journal`] before executing a cell and
//!   records each completed cell after, so an interrupted matrix re-executes
//!   only what is missing.
//!
//! Quarantine is deliberately *visible*: drivers render quarantined cells in
//! their tables and binaries exit non-zero, because a figure silently missing
//! a cell is worse than a run that fails loudly.
//!
//! This is the only module in the workspace that spawns a thread, and it
//! sits below every driver: `experiments` / `config` / `chaos` →
//! `orchestrator` → `journal`.

use crate::journal::{Journal, JournalValue};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// How one cell of a fault-tolerant matrix ended.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<R> {
    /// The cell completed and produced a result.
    Ok(R),
    /// The cell panicked; it is quarantined.
    Panicked {
        /// The panic payload, stringified.
        msg: String,
    },
}

impl<R> CellOutcome<R> {
    /// The result, if the cell completed.
    pub fn ok(&self) -> Option<&R> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            CellOutcome::Panicked { .. } => None,
        }
    }

    /// Consume into the result, if the cell completed.
    pub fn into_ok(self) -> Option<R> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            CellOutcome::Panicked { .. } => None,
        }
    }

    /// Whether the cell was quarantined.
    pub fn is_quarantined(&self) -> bool {
        !matches!(self, CellOutcome::Ok(_))
    }

    /// Human-readable description of a quarantined outcome (empty for Ok).
    pub fn describe(&self) -> String {
        match self {
            CellOutcome::Ok(_) => String::new(),
            CellOutcome::Panicked { msg } => format!("panicked: {msg}"),
        }
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

/// Run every cell of an experiment matrix, on `jobs` worker threads, and
/// return the results **in cell order** (never completion order).
///
/// This is the raw fan-out primitive: no panic isolation, no journal — a
/// panicking cell aborts the matrix with its own panic payload, once the
/// other workers have drained the remaining cells. Each cell must be an
/// independent simulation run — the per-run determinism contract makes that
/// safe — and because results come back in input order, any fold written
/// against the serial runner produces identical bytes against the parallel
/// one. Threads are spawned per call: cells are whole simulation runs
/// (milliseconds to minutes), so spawn cost is noise.
pub fn run_matrix<K, R, F>(cells: &[K], jobs: usize, run: F) -> Vec<R>
where
    K: Sync,
    R: Send,
    F: Fn(&K) -> R + Sync,
{
    if jobs <= 1 || cells.len() < 2 {
        return cells.iter().map(run).collect();
    }
    // The lock covers only the claim, never a cell, so no panic poisons it.
    let next = Mutex::new(0usize);
    let worker = || {
        let mut local = Vec::new();
        loop {
            let i = {
                let mut next = next.lock().expect("claim counter is never held across a cell");
                *next += 1;
                *next - 1
            };
            let Some(cell) = cells.get(i) else { return local };
            local.push((i, run(cell)));
        }
    };
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(cells.len())).map(|_| scope.spawn(worker)).collect();
        workers.into_iter().flat_map(|w| w.join().unwrap_or_else(|payload| resume_unwind(payload))).collect()
    });
    results.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(results.len(), cells.len());
    results.into_iter().map(|(_, r)| r).collect()
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
        order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
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

/// Run a matrix, each cell once under panic isolation, returning per-cell
/// outcomes **in cell order**.
///
/// `costs`, when given, holds one wall-time estimate per cell; execution is
/// scheduled most-expensive-first (see `schedule`) while results are
/// scattered back into cell order, so outputs are byte-identical whether or
/// not estimates are supplied.
pub fn run_isolated<K, R, F>(cells: &[K], jobs: usize, costs: Option<&[f64]>, run: F) -> Vec<CellOutcome<R>>
where
    K: Sync,
    R: Send,
    F: Fn(&K) -> R + Send + Sync,
{
    let indices = schedule(costs, cells.len());
    // AssertUnwindSafe: each cell builds its own simulation world from
    // scratch, so no shared state survives a panic in a form other cells
    // can observe.
    let raw = run_matrix(&indices, jobs, |&idx| match catch_unwind(AssertUnwindSafe(|| run(&cells[idx]))) {
        Ok(r) => CellOutcome::Ok(r),
        Err(payload) => CellOutcome::Panicked { msg: panic_message(payload) },
    });
    unschedule(indices, raw)
}

/// [`run_isolated`] plus checkpoint/resume: completed cells are recorded in
/// `journal` under `scope`, keyed by `key(cell)`, and served from the
/// journal on a resumed run instead of re-executing.
///
/// Only completed cells are journaled — a cell that panics never reaches
/// the store, so quarantined cells re-execute on resume. With
/// `journal = None` this is exactly [`run_isolated`].
pub fn run_journaled<K, R, F>(
    cells: &[K],
    jobs: usize,
    costs: Option<&[f64]>,
    journal: Option<(&Journal, &str)>,
    key: impl Fn(&K) -> String + Send + Sync,
    run: F,
) -> Vec<CellOutcome<R>>
where
    K: Sync,
    R: Send + JournalValue,
    F: Fn(&K) -> R + Send + Sync,
{
    let Some((journal, scope)) = journal else {
        return run_isolated(cells, jobs, costs, run);
    };
    run_isolated(cells, jobs, costs, |cell| {
        let cell_key = key(cell);
        journal.load::<R>(scope, &cell_key).unwrap_or_else(|| {
            let value = run(cell);
            journal.store(scope, &cell_key, &value);
            value
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_matrix_keeps_input_order_at_any_width() {
        let cells: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = cells.iter().map(|&c| c * 2).collect();
        for jobs in [0, 1, 2, 8] {
            assert_eq!(run_matrix(&cells, jobs, |&c| c * 2), doubled, "jobs = {jobs}");
        }
        // More workers than cells, and the degenerate matrices.
        assert_eq!(run_matrix(&[1u8, 2], 16, |&c| c), vec![1, 2]);
        assert_eq!(run_matrix(&[7u8], 4, |&c| c), vec![7]);
        assert_eq!(run_matrix(&[] as &[u8], 4, |&c| c), Vec::<u8>::new());
    }

    #[test]
    fn run_matrix_claims_each_cell_once_on_at_most_jobs_workers() {
        let cells: Vec<usize> = (0..64).collect();
        let claimed: Vec<AtomicUsize> = cells.iter().map(|_| AtomicUsize::new(0)).collect();
        let me = std::thread::current().id();
        let ran_on = run_matrix(&cells, 4, |&c| {
            claimed[c].fetch_add(1, Ordering::SeqCst);
            std::thread::current().id()
        });
        assert!(claimed.iter().all(|n| n.load(Ordering::SeqCst) == 1), "every cell runs exactly once");
        assert!(!ran_on.contains(&me), "at jobs > 1 cells run on the scoped workers");
        let mut workers = Vec::new();
        for id in ran_on {
            if !workers.contains(&id) {
                workers.push(id);
            }
        }
        assert!(workers.len() <= 4, "at most `jobs` workers, got {}", workers.len());
        assert!(run_matrix(&cells, 1, |_| std::thread::current().id()).iter().all(|&id| id == me), "jobs = 1 spawns nothing");
    }

    #[test]
    fn run_matrix_resurfaces_a_cells_own_panic() {
        let cells: Vec<u32> = (0..64).collect();
        let finished = AtomicUsize::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            run_matrix(&cells, 4, |&c| {
                if c == 13 {
                    panic!("cell {c} exploded");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                c
            })
        }))
        .expect_err("a panicking cell aborts the raw fan-out");
        assert_eq!(panic_message(payload), "cell 13 exploded", "the caller sees the cell's payload, not the scope's");
        assert_eq!(finished.load(Ordering::SeqCst), 63, "the other workers drain the matrix before the panic resurfaces");
    }

    #[test]
    fn all_ok_cells_pass_through_in_order() {
        let cells: Vec<u32> = (0..10).collect();
        let outcomes = run_isolated(&cells, 4, None, |&c| c * 2);
        let values: Vec<u32> = outcomes.into_iter().map(|o| o.into_ok().expect("ok")).collect();
        assert_eq!(values, (0..10).map(|c| c * 2).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_cell_is_quarantined_matrix_completes() {
        let cells: Vec<u32> = (0..8).collect();
        let run_at = |jobs: usize| {
            let attempts = AtomicUsize::new(0);
            let outcomes = run_isolated(&cells, jobs, None, |&c| {
                if c == 3 {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    panic!("cell {c} exploded");
                }
                c
            });
            assert_eq!(attempts.load(Ordering::SeqCst), 1, "a deterministic cell is executed exactly once (jobs = {jobs})");
            outcomes
        };
        let outcomes = run_at(1);
        assert_eq!(outcomes, run_at(4), "outcomes must be equal at any jobs");
        assert_eq!(outcomes.len(), 8);
        for (i, o) in outcomes.iter().enumerate() {
            if i == 3 {
                assert_eq!(*o, CellOutcome::Panicked { msg: "cell 3 exploded".into() });
                assert_eq!(o.describe(), "panicked: cell 3 exploded");
            } else {
                assert_eq!(o.ok(), Some(&(i as u32)));
            }
        }
    }

    #[test]
    fn journaled_cells_resume_without_reexecution() {
        let root = std::env::temp_dir().join(format!("clove-orch-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cells: Vec<u64> = (0..6).collect();
        let key = |c: &u64| format!("cell-{c}");
        {
            let journal = Journal::open(&root, false).expect("open journal");
            let outcomes = run_journaled(&cells, 2, None, Some((&journal, "test")), key, |&c| c as f64 * 1.5);
            assert!(outcomes.iter().all(|o| !o.is_quarantined()));
            assert_eq!(journal.stores(), 6);
        }
        {
            let journal = Journal::open(&root, true).expect("reopen journal");
            let executed = AtomicUsize::new(0);
            let outcomes = run_journaled(&cells, 4, None, Some((&journal, "test")), key, |&c| {
                executed.fetch_add(1, Ordering::SeqCst);
                c as f64 * 1.5
            });
            assert_eq!(executed.load(Ordering::SeqCst), 0, "all cells must come from the journal");
            assert_eq!(journal.hits(), 6);
            let values: Vec<f64> = outcomes.into_iter().map(|o| o.into_ok().expect("ok")).collect();
            assert_eq!(values, (0..6).map(|c| c as f64 * 1.5).collect::<Vec<_>>());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn quarantined_cells_are_not_journaled() {
        let root = std::env::temp_dir().join(format!("clove-orch-quar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let journal = Journal::open(&root, false).expect("open journal");
        let outcomes = run_journaled(&[1u64], 1, None, Some((&journal, "t")), |c| format!("{c}"), |_| -> f64 { panic!("nope") });
        assert!(outcomes[0].is_quarantined());
        assert_eq!(journal.stores(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn schedule_sorts_by_descending_cost_with_stable_ties() {
        assert_eq!(schedule(None, 4), vec![0, 1, 2, 3]);
        assert_eq!(schedule(Some(&[1.0, 3.0, 2.0, 3.0]), 4), vec![1, 3, 2, 0]);
        // The order is total: NaN sorts above every cost, cell order
        // preserved among the NaNs.
        assert_eq!(schedule(Some(&[f64::NAN, 1.0, f64::NAN]), 3), vec![0, 2, 1]);
    }

    #[test]
    fn cost_estimates_reorder_execution_but_not_outcomes() {
        // Serial run (jobs = 1): the worker claims cells in schedule order,
        // so the observed execution sequence is exactly descending cost.
        let cells: Vec<u32> = (0..5).collect();
        let costs = [2.0, 9.0, 1.0, 9.0, 5.0];
        let executed = std::sync::Mutex::new(Vec::new());
        let outcomes = run_isolated(&cells, 1, Some(&costs), |&c| {
            executed.lock().expect("lock").push(c);
            c * 10
        });
        assert_eq!(*executed.lock().expect("lock"), vec![1, 3, 4, 0, 2], "longest cells must start first");
        let values: Vec<u32> = outcomes.into_iter().map(|o| o.into_ok().expect("ok")).collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40], "outcomes must stay in cell order");
    }

    #[test]
    fn journaled_run_honors_cost_schedule() {
        let root = std::env::temp_dir().join(format!("clove-orch-cost-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let journal = Journal::open(&root, false).expect("open journal");
        let cells: Vec<u64> = (0..4).collect();
        let costs = [1.0, 4.0, 3.0, 2.0];
        let outcomes = run_journaled(&cells, 1, Some(&costs), Some((&journal, "t")), |c| format!("{c}"), |&c| c as f64);
        let values: Vec<f64> = outcomes.into_iter().map(|o| o.into_ok().expect("ok")).collect();
        assert_eq!(values, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(journal.stores(), 4);
        let _ = std::fs::remove_dir_all(&root);
    }
}
