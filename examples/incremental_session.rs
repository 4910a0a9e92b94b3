//! Incremental solving with persistent sessions: push/pop scoping and
//! unsat-core extraction over a small scheduling problem.
//!
//! One `Session` keeps its SAT solver, elimination tables and encodings
//! alive across checks; `push`/`pop` scope assertions with activation
//! literals, so retracting a bad constraint costs no re-encoding, and an
//! unsatisfiable check names the live assertions that caused it.
//!
//! ```text
//! cargo run --release --example incremental_session
//! ```

use sufsat::incremental::Session;
use sufsat::{DecideOptions, Outcome};

fn main() {
    let mut session = Session::new(DecideOptions::default());

    // Three pipeline stages with a shared clock-domain crossing: fetch
    // must finish before decode, decode before execute, and the crossing
    // `sync` sits strictly between fetch and execute.
    let (fd, de, fs, se) = {
        let tm = session.term_manager_mut();
        let fetch = tm.int_var("fetch");
        let decode = tm.int_var("decode");
        let exec = tm.int_var("exec");
        let sync = tm.int_var("sync");
        (
            tm.mk_lt(fetch, decode),
            tm.mk_lt(decode, exec),
            tm.mk_lt(fetch, sync),
            tm.mk_lt(sync, exec),
        )
    };
    let base: Vec<_> = [fd, de, fs, se]
        .into_iter()
        .map(|t| (session.assert(t), t))
        .collect();

    let r = session.check();
    match &r.outcome {
        Outcome::Invalid(model) => {
            // `Invalid` means the *negated conjunction* is falsifiable,
            // i.e. the asserted constraints are jointly satisfiable; the
            // assignment is a concrete schedule.
            let mut vals: Vec<_> = session
                .term_manager()
                .int_var_syms()
                .map(|v| {
                    let name = session.term_manager().int_var_name(v).to_string();
                    (name, model.ints.get(&v).copied().unwrap_or(0))
                })
                .collect();
            vals.sort();
            println!("base schedule is feasible:");
            for (name, value) in vals {
                println!("  {name} = {value}");
            }
        }
        other => panic!("the base constraints are satisfiable: {other:?}"),
    }

    // Scope a what-if: force the crossing before fetch. The frame makes
    // the experiment disposable.
    session.push();
    let bad = {
        let tm = session.term_manager_mut();
        let fetch = tm.int_var("fetch");
        let sync = tm.int_var("sync");
        tm.mk_lt(sync, fetch)
    };
    let bad_id = session.assert(bad);

    let r = session.check();
    assert!(matches!(r.outcome, Outcome::Valid), "expected unsat");
    // The check returns the solver's raw failed-assumption core; shrinking
    // it costs extra solves, so it happens only on request.
    let raw = r.unsat_core.expect("unsat answers carry a core");
    let core = session.minimize_core(&raw, 24);
    println!("\nwhat-if `sync < fetch` is infeasible; minimized unsat core:");
    for id in &core {
        // The core names live assertions; the clashing base constraint
        // (`fetch < sync`) must appear, the unrelated decode/execute
        // ordering need not.
        let tag = base
            .iter()
            .find(|(bid, _)| bid == id)
            .map_or("what-if", |_| "base");
        println!("  assertion #{} ({tag})", id.index());
    }
    assert!(core.contains(&bad_id), "the what-if itself must be in the core");
    assert!(core.len() < 5, "the core must drop some of the 5 live assertions");

    // Pop the frame: the experiment and everything learnt strictly from
    // it are retracted, and the base schedule is feasible again —
    // without rebuilding solver or encodings.
    session.pop();
    let r = session.check();
    assert!(
        matches!(r.outcome, Outcome::Invalid(_)),
        "pop retracts the what-if"
    );
    println!("\nafter pop the base schedule is feasible again");

    let stats = session.stats();
    println!(
        "\nsession totals: {} checks, {} re-encodes, {} reused / {} fresh encodings, {} conflicts",
        stats.checks, stats.reencodes, stats.reused_roots, stats.fresh_roots, stats.conflicts
    );
}
