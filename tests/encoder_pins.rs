//! Pins the structural output of both encoders on the whole benchmark
//! suite, and the search trajectory it leads to, so that any change to
//! what the encoders build shows as a failing figure instead of going
//! unnoticed.
//!
//! * For every suite member in SD, EIJ and HYBRID(700) mode: the
//!   one-shot encoder's [`EncodeStats`] (SD classes, EIJ classes,
//!   transitivity clauses, predicate variables, gates) and the number of
//!   CNF clauses loaded into the solver, or that EIJ transitivity
//!   generation overran [`TRANS_BUDGET`].
//! * For every system of `system_suite()`: the incremental BMC verdict,
//!   the session's check, re-encode, reused-root, fresh-root and loaded
//!   CNF clause counts, and its conflict, decision and propagation counts.
//! * For a few suite members across families and their negations in
//!   HYBRID(700) mode: the one-shot search itself, that is the loaded CNF
//!   size and the conflict, decision, propagation, learnt-literal,
//!   reduction and restart counts, and for some rows the DRAT proof's
//!   step count or a search after [`Solver::preprocess`].
//! * For the lightest suite members and their negations: two decides of
//!   the same formula in one process load the same number of clauses and
//!   take the same number of conflicts, decisions and propagations.
//!
//! These figures are the same in every process and in every run within
//! one. The encoder's maps hash with a fixed-seed hasher and its graphs
//! iterate in insertion order, so the transitivity clauses, the solver's
//! variable numbering and the order of its input depend only on the
//! formula (DESIGN §3.4).
//!
//! The `EncodeStats`, SD CNF sizes and BMC session counts were recorded
//! from the encoders before the one-shot and incremental encoders came to
//! share one lowering (`encode/src/lower.rs`); the EIJ and HYBRID CNF
//! sizes and the BMC search counts once the encoder's output order became
//! fixed. A change to any of them is a change of encoder output and needs
//! a reason.

use sufsat::encode::{encode, load_into_solver, EncodeOptions, EncodeStats};
use sufsat::incremental::check_bounded_incremental_report;
use sufsat::sat::{SolveResult, Solver};
use sufsat::seplog::SepAnalysis;
use sufsat::suf::eliminate;
use sufsat::workloads::{suite, system_suite};
use sufsat::{decide, BmcResult, DecideOptions, EncodingMode};

/// Transitivity budget of the encoder runs. Below the 2,000,000 default,
/// so that the densest EIJ classes (ooo-9d2 and up, 201,369 clauses and
/// more) stop early and the file stays fast in a debug build.
const TRANS_BUDGET: usize = 60_000;

/// The modes of the encoder table's three columns.
const MODES: [EncodingMode; 3] = [
    EncodingMode::Sd,
    EncodingMode::Eij,
    EncodingMode::Hybrid(700),
];

/// `[sd_classes, eij_classes, trans_clauses, pred_vars, gates,
/// cnf_clauses]`, or `None` when transitivity generation overran
/// [`TRANS_BUDGET`]; `cnf_clauses` counts the CNF clauses loaded into the
/// solver.
type Stats = Option<[u64; 6]>;

/// Per suite member, in suite order: the figures in each of [`MODES`].
#[rustfmt::skip]
const ENCODINGS: &[(&str, [Stats; 3])] = &[
    ("dlx-3x2", [Some([3, 0, 0, 0, 688, 1855]), Some([0, 3, 102, 37, 201, 592]), Some([0, 3, 102, 37, 201, 592])]),
    ("dlx-4x3", [Some([5, 0, 0, 0, 1423, 3898]), Some([0, 5, 222, 76, 444, 1324]), Some([0, 5, 222, 76, 444, 1324])]),
    ("dlx-6x3", [Some([7, 0, 0, 0, 2593, 7138]), Some([0, 7, 405, 124, 744, 2263]), Some([0, 7, 405, 124, 744, 2263])]),
    ("dlx-8x4", [Some([9, 0, 0, 0, 6298, 17677]), Some([0, 9, 1305, 276, 1837, 5986]), Some([0, 9, 1305, 276, 1837, 5986])]),
    ("dlx-10x4", [Some([11, 0, 0, 0, 7999, 22534]), Some([0, 11, 1689, 338, 2440, 7993]), Some([0, 11, 1689, 338, 2440, 7993])]),
    ("dlx-12x4", [Some([13, 0, 0, 0, 10215, 28855]), Some([0, 13, 2280, 425, 3161, 10486]), Some([0, 13, 2280, 425, 3161, 10486])]),
    ("dlx-14x5", [Some([15, 0, 0, 0, 20505, 58477]), Some([0, 15, 5175, 759, 5827, 20377]), Some([0, 15, 5175, 759, 5827, 20377])]),
    ("dlx-16x5", [Some([17, 0, 0, 0, 24318, 69472]), Some([0, 17, 6429, 892, 7038, 24865]), Some([0, 17, 6429, 892, 7038, 24865])]),
    ("tv-30", [Some([1, 0, 0, 0, 3902, 11128]), Some([0, 1, 2376, 199, 2703, 9730]), Some([0, 1, 2376, 199, 2703, 9730])]),
    ("tv-50", [Some([1, 0, 0, 0, 8867, 25429]), Some([0, 1, 7017, 443, 7616, 28240]), Some([0, 1, 7017, 443, 7616, 28240])]),
    ("tv-70", [Some([1, 0, 0, 0, 10353, 29617]), Some([0, 1, 5532, 425, 7210, 25437]), Some([0, 1, 5532, 425, 7210, 25437])]),
    ("tv-100", [Some([1, 0, 0, 0, 14798, 42436]), Some([0, 1, 8592, 571, 9886, 35971]), Some([0, 1, 8592, 571, 9886, 35971])]),
    ("tv-130", [Some([1, 0, 0, 0, 13979, 39733]), Some([0, 1, 6216, 411, 9477, 32108]), Some([0, 1, 6216, 411, 9477, 32108])]),
    ("tv-160", [Some([1, 0, 0, 0, 21555, 61723]), Some([0, 1, 9228, 619, 14791, 50346]), Some([0, 1, 9228, 619, 14791, 50346])]),
    ("tv-190", [Some([1, 0, 0, 0, 17392, 49258]), Some([0, 1, 7044, 441, 11744, 38987]), Some([0, 1, 7044, 441, 11744, 38987])]),
    ("tv-220", [Some([1, 0, 0, 0, 24018, 68413]), Some([0, 1, 10776, 594, 16623, 56512]), Some([0, 1, 10776, 594, 16623, 56512])]),
    ("driver-16", [Some([3, 0, 0, 0, 744, 2008]), Some([0, 3, 17, 29, 237, 637]), Some([0, 3, 17, 29, 237, 637])]),
    ("driver-28", [Some([3, 0, 0, 0, 1335, 3571]), Some([0, 3, 34, 52, 523, 1443]), Some([0, 3, 34, 52, 523, 1443])]),
    ("driver-44", [Some([4, 0, 0, 0, 2205, 5923]), Some([0, 4, 37, 72, 689, 1884]), Some([0, 4, 37, 72, 689, 1884])]),
    ("driver-64", [Some([3, 0, 0, 0, 3705, 9799]), Some([0, 3, 50, 107, 1101, 3028]), Some([0, 3, 50, 107, 1101, 3028])]),
    ("driver-90", [Some([3, 0, 0, 0, 5321, 14071]), Some([0, 3, 117, 169, 1724, 4778]), Some([0, 3, 117, 169, 1724, 4778])]),
    ("driver-130", [Some([3, 0, 0, 0, 8324, 21940]), Some([0, 3, 490, 310, 2585, 7311]), Some([0, 3, 490, 310, 2585, 7311])]),
    ("driver-190", [Some([3, 0, 0, 0, 12868, 33748]), Some([0, 3, 526, 402, 3092, 8592]), Some([0, 3, 526, 402, 3092, 8592])]),
    ("driver-280", [Some([4, 0, 0, 0, 19086, 50023]), Some([0, 4, 386, 514, 5383, 14989]), Some([0, 4, 386, 514, 5383, 14989])]),
    ("cache-4s4", [Some([2, 0, 0, 0, 820, 2122]), Some([0, 2, 66, 19, 237, 625]), Some([0, 2, 66, 19, 237, 625])]),
    ("cache-6s8", [Some([2, 0, 0, 0, 1804, 4618]), Some([0, 2, 241, 38, 804, 2252]), Some([0, 2, 241, 38, 804, 2252])]),
    ("cache-10s12", [Some([2, 0, 0, 0, 3816, 8275]), Some([0, 2, 795, 80, 1854, 5212]), Some([0, 2, 795, 80, 1854, 5212])]),
    ("cache-14s18", [Some([2, 0, 0, 0, 6969, 13882]), Some([0, 2, 2031, 142, 4110, 11725]), Some([0, 2, 2031, 142, 4110, 11725])]),
    ("cache-16s20", [Some([2, 0, 0, 0, 8757, 15790]), Some([0, 2, 2860, 177, 5183, 14783]), Some([0, 2, 2860, 177, 5183, 14783])]),
    ("cache-18s24", [Some([2, 0, 0, 0, 11168, 19780]), Some([0, 2, 4083, 220, 7342, 21106]), Some([0, 2, 4083, 220, 7342, 21106])]),
    ("cache-20s26", [Some([2, 0, 0, 0, 13184, 22135]), Some([0, 2, 5368, 263, 8807, 25304]), Some([0, 2, 5368, 263, 8807, 25304])]),
    ("lsu-3", [Some([2, 0, 0, 0, 121, 295]), Some([0, 2, 17, 11, 38, 86]), Some([0, 2, 17, 11, 38, 86])]),
    ("lsu-5", [Some([2, 0, 0, 0, 346, 901]), Some([0, 2, 71, 26, 86, 196]), Some([0, 2, 71, 26, 86, 196])]),
    ("lsu-7", [Some([2, 0, 0, 0, 576, 1543]), Some([0, 2, 185, 45, 154, 358]), Some([0, 2, 185, 45, 154, 358])]),
    ("lsu-9", [Some([2, 0, 0, 0, 1110, 3040]), Some([0, 2, 383, 68, 233, 545]), Some([0, 2, 383, 68, 233, 545])]),
    ("lsu-12", [Some([2, 0, 0, 0, 1805, 5035]), Some([0, 2, 890, 110, 397, 947]), Some([0, 2, 890, 110, 397, 947])]),
    ("lsu-15", [Some([2, 0, 0, 0, 2662, 7516]), Some([0, 2, 1721, 161, 597, 1439]), Some([0, 2, 1721, 161, 597, 1439])]),
    ("lsu-19", [Some([2, 0, 0, 0, 4969, 14200]), Some([0, 2, 3473, 243, 929, 2263]), Some([0, 2, 3473, 243, 929, 2263])]),
    ("lsu-24", [Some([2, 0, 0, 0, 7584, 21865]), Some([0, 2, 6968, 368, 1414, 3458]), Some([0, 2, 6968, 368, 1414, 3458])]),
    ("ooo-6d2", [Some([1, 0, 0, 0, 2394, 6679]), Some([0, 1, 3882, 266, 432, 1880]), Some([0, 1, 3882, 266, 432, 1880])]),
    ("ooo-7d2", [Some([1, 0, 0, 0, 2996, 8398]), Some([0, 1, 13892, 524, 754, 5344]), Some([0, 1, 13892, 524, 754, 5344])]),
    ("ooo-8d2", [Some([1, 0, 0, 0, 3639, 10240]), Some([0, 1, 52115, 1038, 1344, 17537]), Some([0, 1, 52115, 1038, 1344, 17537])]),
    ("ooo-9d2", [Some([1, 0, 0, 0, 4365, 12325]), None, None]),
    ("ooo-10d2", [Some([1, 0, 0, 0, 5132, 14533]), None, None]),
    ("ooo-10d1", [Some([1, 0, 0, 0, 6182, 17533]), None, None]),
    ("ooo-11d1", [Some([1, 0, 0, 0, 7242, 20584]), None, None]),
    ("ooo-12d1", [Some([1, 0, 0, 0, 8385, 23878]), None, None]),
    ("ooo-13d1", [Some([1, 0, 0, 0, 11235, 32203]), None, None]),
    ("ooo-14d1", [Some([1, 0, 0, 0, 12765, 36640]), None, None]),
];

/// Per `system_suite()` member, in suite order: the verdict and
/// `[checks, reencodes, reused_roots, fresh_roots, cnf_clauses, conflicts,
/// decisions, propagations]`, where `cnf_clauses` counts every clause the
/// session's one solver loaded (re-encodes included, transitivity only for
/// each check's live cone) and the last three total the session's search.
#[rustfmt::skip]
const BMC: &[(&str, &str, [u64; 8])] = &[
    ("toggle-01", "Bounded(6)", [7, 1, 5, 9, 92, 5, 0, 58]),
    ("toggle-03", "Bounded(6)", [7, 1, 5, 9, 291, 15, 35, 586]),
    ("counter-03", "CounterexampleAt(3)", [4, 0, 3, 5, 16, 0, 0, 30]),
    ("counter-05", "CounterexampleAt(5)", [6, 0, 5, 7, 24, 0, 0, 53]),
    ("ufdp-01", "Bounded(4)", [5, 3, 1, 9, 2329, 13, 39, 2079]),
    ("ufdp-02", "Bounded(4)", [5, 3, 1, 9, 7216, 38, 57, 13187]),
    ("ring-02", "Bounded(6)", [7, 0, 6, 8, 314, 0, 0, 326]),
    ("ring-04", "Bounded(10)", [11, 0, 10, 12, 704, 0, 0, 997]),
];

/// How a search row is solved.
#[derive(Debug, Clone, Copy)]
enum Search {
    /// Load, then solve.
    Plain,
    /// Enable DRAT proof logging, load, then solve.
    Proof,
    /// Load, run [`Solver::preprocess`], then solve.
    Preprocessed,
}

/// Conflict budget of the search rows. Above the 4,000 learnt clauses at
/// which the default `Config` first reduces the learnt database, so the
/// rows cover `reduce_db`: cache-14s18 reduces once on its way to 5,696
/// conflicts. The other rows finish far below it.
const SEARCH_CONFLICTS: u64 = 6_000;

/// Per row: the suite member, whether its negation is decided, how it is
/// solved, the verdict of the loaded CNF (`unsat` for a valid formula) and
/// `[cnf_clauses, conflicts, decisions, propagations, learnt_literals,
/// reductions, restarts, proof_steps]`, with `proof_steps` 0 when the row
/// logs no proof. Every row runs in HYBRID(700) mode.
#[rustfmt::skip]
const SEARCH: &[(&str, bool, Search, &str, [u64; 8])] = &[
    ("cache-14s18", false, Search::Plain, "unsat", [11725, 5696, 13834, 2071973, 160188, 1, 29, 0]),
    ("cache-14s18", false, Search::Proof, "unsat", [11725, 5696, 13834, 2071973, 160188, 1, 29, 7713]),
    ("cache-14s18", true, Search::Plain, "sat", [15700, 211, 725, 86991, 4639, 0, 2, 0]),
    ("cache-10s12", false, Search::Plain, "unsat", [5212, 2658, 5297, 592687, 52384, 0, 14, 0]),
    ("cache-10s12", false, Search::Preprocessed, "unsat", [5212, 1556, 5171, 54145, 16710, 0, 9, 0]),
    ("cache-10s12", true, Search::Plain, "sat", [7018, 8, 176, 4649, 50, 0, 0, 0]),
    ("dlx-12x4", false, Search::Plain, "unsat", [10486, 985, 12212, 242031, 6750, 0, 6, 0]),
    ("dlx-12x4", true, Search::Plain, "sat", [41506, 54, 2375, 44785, 209, 0, 0, 0]),
    ("driver-130", false, Search::Plain, "unsat", [7311, 1279, 9443, 182464, 6941, 0, 7, 0]),
    ("driver-130", false, Search::Proof, "unsat", [7311, 1279, 9443, 182464, 6941, 0, 7, 1280]),
    ("driver-130", true, Search::Plain, "sat", [7313, 181, 3091, 37577, 669, 0, 1, 0]),
    ("tv-100", false, Search::Plain, "unsat", [35971, 899, 2727, 994872, 11291, 0, 6, 0]),
    ("tv-100", true, Search::Plain, "sat", [49495, 4, 815, 26474, 11, 0, 0, 0]),
];

/// Conflict budget of the trajectory check. tv-30 under SD stops at it
/// (12,628 conflicts to finish); the other decides finish below it.
const TRAJECTORY_CONFLICTS: u64 = 2_000;

/// How many of the lightest suite members (by DAG size) the trajectory
/// check decides.
const TRAJECTORY_MEMBERS: usize = 8;

fn row(stats: &EncodeStats, cnf_clauses: u64) -> [u64; 6] {
    [
        stats.sd_classes as u64,
        stats.eij_classes as u64,
        stats.trans_clauses as u64,
        stats.pred_vars as u64,
        stats.gates as u64,
        cnf_clauses,
    ]
}

#[test]
fn one_shot_encodings_match_the_pinned_figures() {
    let suite = suite();
    assert_eq!(suite.len(), ENCODINGS.len(), "suite size");
    let mut mismatches = Vec::new();
    for (bench, &(name, pinned)) in suite.iter().zip(ENCODINGS) {
        assert_eq!(bench.name, name, "suite order");
        let mut tm = bench.tm.clone();
        let elim = eliminate(&mut tm, bench.formula);
        let analysis = SepAnalysis::new(&tm, elim.formula, &elim.p_vars);
        for (mode, want) in MODES.into_iter().zip(pinned) {
            let options = EncodeOptions {
                mode,
                trans_budget: TRANS_BUDGET,
                ..EncodeOptions::default()
            };
            let got = encode(&tm, elim.formula, &analysis, &options)
                .ok()
                .map(|e| {
                    let mut solver = Solver::new();
                    load_into_solver(
                        &e.circuit,
                        &[!e.formula],
                        &e.trans_clauses,
                        options.cnf,
                        &mut solver,
                    );
                    row(&e.stats, solver.stats().original_clauses)
                });
            if got != want {
                mismatches.push(format!("{name} {mode:?}: got {got:?}, pinned {want:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "encoder output moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn incremental_bmc_matches_the_pinned_figures() {
    let systems = system_suite();
    assert_eq!(systems.len(), BMC.len(), "system suite size");
    let mut mismatches = Vec::new();
    for (system, &(name, pinned_verdict, pinned)) in systems.iter().zip(BMC) {
        assert_eq!(system.name, name, "system suite order");
        let mut tm = system.tm.clone();
        let (result, report) = check_bounded_incremental_report(
            &mut tm,
            &system.system,
            system.bound,
            &DecideOptions::default(),
        );
        let verdict = match result {
            BmcResult::Bounded(bound) => format!("Bounded({bound})"),
            BmcResult::CounterexampleAt { step, .. } => format!("CounterexampleAt({step})"),
            BmcResult::Unknown { step, reason } => format!("Unknown({step}, {reason:?})"),
        };
        let got = [
            report.checks,
            report.reencodes,
            report.reused_roots,
            report.fresh_roots,
            report.cnf_clauses,
            report.conflicts,
            report.decisions,
            report.propagations,
        ];
        if verdict != pinned_verdict || got != pinned {
            mismatches.push(format!(
                "{name}: got {verdict} {got:?}, pinned {pinned_verdict} {pinned:?}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "incremental BMC moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn one_shot_searches_match_the_pinned_figures() {
    let suite = suite();
    let options = EncodeOptions {
        mode: EncodingMode::Hybrid(700),
        ..EncodeOptions::default()
    };
    let mut mismatches = Vec::new();
    for &(name, negate, search, pinned_verdict, pinned) in SEARCH {
        let bench = suite
            .iter()
            .find(|b| b.name == name)
            .expect("a suite member");
        let mut tm = bench.tm.clone();
        let phi = if negate {
            tm.mk_not(bench.formula)
        } else {
            bench.formula
        };
        let elim = eliminate(&mut tm, phi);
        let analysis = SepAnalysis::new(&tm, elim.formula, &elim.p_vars);
        let encoded =
            encode(&tm, elim.formula, &analysis, &options).expect("within the translation budget");
        let mut solver = Solver::new();
        if matches!(search, Search::Proof) {
            solver.enable_proof();
        }
        load_into_solver(
            &encoded.circuit,
            &[!encoded.formula],
            &encoded.trans_clauses,
            options.cnf,
            &mut solver,
        );
        if matches!(search, Search::Preprocessed) {
            solver.preprocess();
        }
        solver.set_conflict_budget(Some(SEARCH_CONFLICTS));
        let verdict = match solver.solve() {
            SolveResult::Sat => "sat",
            SolveResult::Unsat => "unsat",
            SolveResult::Unknown(_) => "budget",
        };
        let s = solver.stats();
        let got = [
            s.original_clauses,
            s.conflicts,
            s.decisions,
            s.propagations,
            s.learnt_literals,
            s.reductions,
            s.restarts,
            solver.proof().map_or(0, |p| p.steps().len() as u64),
        ];
        if verdict != pinned_verdict || got != pinned {
            let name = if negate {
                format!("not {name}")
            } else {
                name.to_owned()
            };
            mismatches.push(format!(
                "{name} {search:?}: got {verdict} {got:?}, pinned {pinned_verdict} {pinned:?}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "one-shot search moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn decides_repeat_their_trajectory_within_a_process() {
    let mut light = suite();
    light.sort_by_key(|b| b.tm.dag_size(b.formula));
    light.truncate(TRAJECTORY_MEMBERS);
    let mut moved = Vec::new();
    for bench in &light {
        for negate in [false, true] {
            for mode in MODES {
                let options = DecideOptions {
                    conflict_budget: Some(TRAJECTORY_CONFLICTS),
                    ..DecideOptions::with_mode(mode)
                };
                let run = || {
                    let mut tm = bench.tm.clone();
                    let phi = if negate {
                        tm.mk_not(bench.formula)
                    } else {
                        bench.formula
                    };
                    let stats = decide(&mut tm, phi, &options).stats;
                    [
                        stats.cnf_clauses,
                        stats.conflict_clauses,
                        stats.decisions,
                        stats.propagations,
                    ]
                };
                let (first, second) = (run(), run());
                if first != second {
                    let name = if negate {
                        format!("not {}", bench.name)
                    } else {
                        bench.name.clone()
                    };
                    moved.push(format!(
                        "{name} {mode:?}: [cnf, conflicts, decisions, propagations] {first:?} then {second:?}"
                    ));
                }
            }
        }
    }
    assert!(
        moved.is_empty(),
        "a repeated decide took another trajectory:\n{}",
        moved.join("\n")
    );
}
