//! Cross-thread progress heartbeat: a long-running search publishes
//! monotone, live snapshots through a shared `ProgressHandle`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sufsat_sat::{ProgressHandle, SolveResult, Solver, Var};

/// Pigeonhole principle PHP(holes+1, holes): unsat with exponential-size
/// resolution proofs, so CDCL grinds through conflicts for a long time —
/// the shape of instance a heartbeat exists for.
fn pigeonhole(holes: usize) -> Solver {
    let pigeons = holes + 1;
    let mut s = Solver::new();
    let grid: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| s.new_var()).collect())
        .collect();
    for row in &grid {
        s.add_clause(row.iter().map(|v| v.positive()));
    }
    for h in 0..holes {
        for (p1, row1) in grid.iter().enumerate() {
            for row2 in &grid[p1 + 1..] {
                s.add_clause([row1[h].negative(), row2[h].negative()]);
            }
        }
    }
    s
}

#[test]
fn heartbeat_shows_monotone_live_conflicts() {
    let handle = ProgressHandle::new();
    let solver_handle = handle.clone();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            // Big enough that the search outlives the timeout by orders
            // of magnitude; the timeout bounds test runtime.
            let mut solver = pigeonhole(10);
            solver.set_progress_handle(Some(solver_handle));
            solver.set_timeout(Some(Duration::from_millis(1500)));
            let result = solver.solve();
            // PHP(11,10) cannot finish in 1.5 s; only the deadline stops it.
            assert!(
                matches!(result, SolveResult::Unknown(_)),
                "expected an interrupted search, got {result:?}"
            );
            done.store(true, Ordering::SeqCst);
        });

        // Sample the handle from this thread while the search runs.
        let mut samples = Vec::new();
        while !done.load(Ordering::SeqCst) {
            let snap = handle.snapshot();
            if snap.seq > 0 {
                samples.push(snap);
            }
            std::thread::sleep(Duration::from_millis(20));
        }

        assert!(
            samples.len() >= 3,
            "expected several live snapshots over a 1.5 s search, got {}",
            samples.len()
        );
        for pair in samples.windows(2) {
            assert!(
                pair[1].conflicts >= pair[0].conflicts,
                "conflict count regressed: {} -> {}",
                pair[0].conflicts,
                pair[1].conflicts
            );
            assert!(pair[1].seq >= pair[0].seq, "seq must never regress");
            assert!(
                pair[1].elapsed_us >= pair[0].elapsed_us,
                "elapsed time regressed"
            );
        }
        let last = samples.last().unwrap();
        assert!(
            last.seq > samples[0].seq,
            "publication must advance over the sampling interval"
        );
        assert!(last.conflicts > 0, "PHP search must conflict");
        assert!(last.decisions > 0);
        assert!(last.learnt_clauses > 0, "learnt DB must be non-empty");
        assert!(last.arena_bytes > 0);
    });
}
