//! Pins the structural output of both encoders on the whole benchmark
//! suite, so that any change to what the encoders build shows as a
//! failing figure instead of going unnoticed.
//!
//! * For every suite member in SD, EIJ and HYBRID(700) mode: the
//!   one-shot encoder's [`EncodeStats`] (SD classes, EIJ classes,
//!   transitivity clauses, predicate variables, gates), or that EIJ
//!   transitivity generation overran [`TRANS_BUDGET`]; in SD mode also
//!   the number of CNF clauses loaded into the solver.
//! * For every system of `system_suite()`: the incremental BMC verdict and
//!   the session's check, re-encode, reused-root, fresh-root and loaded
//!   CNF clause counts.
//!
//! These figures are the same in every process. Conflict counts and the
//! loaded CNF size of EIJ and HYBRID encodings are not: the transitivity
//! clauses come out in hash-seeded order, so the solver's input changes
//! from process to process, and they are left out.
//!
//! The figures were recorded from the encoders before the one-shot and
//! incremental encoders came to share one lowering (`encode/src/lower.rs`);
//! a change to any of them is a change of encoder output and needs a reason.

use sufsat::encode::{encode, load_into_solver, EncodeOptions, EncodeStats};
use sufsat::incremental::check_bounded_incremental_report;
use sufsat::sat::Solver;
use sufsat::seplog::SepAnalysis;
use sufsat::suf::eliminate;
use sufsat::workloads::{suite, system_suite};
use sufsat::{BmcResult, DecideOptions, EncodingMode};

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

/// `[sd_classes, eij_classes, trans_clauses, pred_vars, gates]`, or `None`
/// when transitivity generation overran [`TRANS_BUDGET`].
type Stats = Option<[usize; 5]>;

/// Per suite member, in suite order: the stats in each of [`MODES`] and
/// the CNF clauses loaded in SD mode.
#[rustfmt::skip]
const ENCODINGS: &[(&str, [Stats; 3], u64)] = &[
    ("dlx-3x2", [Some([3, 0, 0, 0, 688]), Some([0, 3, 102, 37, 201]), Some([0, 3, 102, 37, 201])], 1855),
    ("dlx-4x3", [Some([5, 0, 0, 0, 1423]), Some([0, 5, 222, 76, 444]), Some([0, 5, 222, 76, 444])], 3898),
    ("dlx-6x3", [Some([7, 0, 0, 0, 2593]), Some([0, 7, 405, 124, 744]), Some([0, 7, 405, 124, 744])], 7138),
    ("dlx-8x4", [Some([9, 0, 0, 0, 6298]), Some([0, 9, 1305, 276, 1837]), Some([0, 9, 1305, 276, 1837])], 17677),
    ("dlx-10x4", [Some([11, 0, 0, 0, 7999]), Some([0, 11, 1689, 338, 2440]), Some([0, 11, 1689, 338, 2440])], 22534),
    ("dlx-12x4", [Some([13, 0, 0, 0, 10215]), Some([0, 13, 2280, 425, 3161]), Some([0, 13, 2280, 425, 3161])], 28855),
    ("dlx-14x5", [Some([15, 0, 0, 0, 20505]), Some([0, 15, 5175, 759, 5827]), Some([0, 15, 5175, 759, 5827])], 58477),
    ("dlx-16x5", [Some([17, 0, 0, 0, 24318]), Some([0, 17, 6429, 892, 7038]), Some([0, 17, 6429, 892, 7038])], 69472),
    ("tv-30", [Some([1, 0, 0, 0, 3902]), Some([0, 1, 2376, 199, 2703]), Some([0, 1, 2376, 199, 2703])], 11128),
    ("tv-50", [Some([1, 0, 0, 0, 8867]), Some([0, 1, 7017, 443, 7616]), Some([0, 1, 7017, 443, 7616])], 25429),
    ("tv-70", [Some([1, 0, 0, 0, 10353]), Some([0, 1, 5532, 425, 7210]), Some([0, 1, 5532, 425, 7210])], 29617),
    ("tv-100", [Some([1, 0, 0, 0, 14798]), Some([0, 1, 8592, 571, 9886]), Some([0, 1, 8592, 571, 9886])], 42436),
    ("tv-130", [Some([1, 0, 0, 0, 13979]), Some([0, 1, 6216, 411, 9477]), Some([0, 1, 6216, 411, 9477])], 39733),
    ("tv-160", [Some([1, 0, 0, 0, 21555]), Some([0, 1, 9228, 619, 14791]), Some([0, 1, 9228, 619, 14791])], 61723),
    ("tv-190", [Some([1, 0, 0, 0, 17392]), Some([0, 1, 7044, 441, 11744]), Some([0, 1, 7044, 441, 11744])], 49258),
    ("tv-220", [Some([1, 0, 0, 0, 24018]), Some([0, 1, 10776, 594, 16623]), Some([0, 1, 10776, 594, 16623])], 68413),
    ("driver-16", [Some([3, 0, 0, 0, 744]), Some([0, 3, 17, 29, 237]), Some([0, 3, 17, 29, 237])], 2008),
    ("driver-28", [Some([3, 0, 0, 0, 1335]), Some([0, 3, 34, 52, 523]), Some([0, 3, 34, 52, 523])], 3571),
    ("driver-44", [Some([4, 0, 0, 0, 2205]), Some([0, 4, 37, 72, 689]), Some([0, 4, 37, 72, 689])], 5923),
    ("driver-64", [Some([3, 0, 0, 0, 3705]), Some([0, 3, 50, 107, 1101]), Some([0, 3, 50, 107, 1101])], 9799),
    ("driver-90", [Some([3, 0, 0, 0, 5321]), Some([0, 3, 117, 169, 1724]), Some([0, 3, 117, 169, 1724])], 14071),
    ("driver-130", [Some([3, 0, 0, 0, 8324]), Some([0, 3, 490, 310, 2585]), Some([0, 3, 490, 310, 2585])], 21940),
    ("driver-190", [Some([3, 0, 0, 0, 12868]), Some([0, 3, 526, 402, 3092]), Some([0, 3, 526, 402, 3092])], 33748),
    ("driver-280", [Some([4, 0, 0, 0, 19086]), Some([0, 4, 386, 514, 5383]), Some([0, 4, 386, 514, 5383])], 50023),
    ("cache-4s4", [Some([2, 0, 0, 0, 820]), Some([0, 2, 66, 19, 237]), Some([0, 2, 66, 19, 237])], 2122),
    ("cache-6s8", [Some([2, 0, 0, 0, 1804]), Some([0, 2, 241, 38, 804]), Some([0, 2, 241, 38, 804])], 4618),
    ("cache-10s12", [Some([2, 0, 0, 0, 3816]), Some([0, 2, 795, 80, 1854]), Some([0, 2, 795, 80, 1854])], 8275),
    ("cache-14s18", [Some([2, 0, 0, 0, 6969]), Some([0, 2, 2031, 142, 4110]), Some([0, 2, 2031, 142, 4110])], 13882),
    ("cache-16s20", [Some([2, 0, 0, 0, 8757]), Some([0, 2, 2860, 177, 5183]), Some([0, 2, 2860, 177, 5183])], 15790),
    ("cache-18s24", [Some([2, 0, 0, 0, 11168]), Some([0, 2, 4083, 220, 7342]), Some([0, 2, 4083, 220, 7342])], 19780),
    ("cache-20s26", [Some([2, 0, 0, 0, 13184]), Some([0, 2, 5368, 263, 8807]), Some([0, 2, 5368, 263, 8807])], 22135),
    ("lsu-3", [Some([2, 0, 0, 0, 121]), Some([0, 2, 17, 11, 38]), Some([0, 2, 17, 11, 38])], 295),
    ("lsu-5", [Some([2, 0, 0, 0, 346]), Some([0, 2, 71, 26, 86]), Some([0, 2, 71, 26, 86])], 901),
    ("lsu-7", [Some([2, 0, 0, 0, 576]), Some([0, 2, 185, 45, 154]), Some([0, 2, 185, 45, 154])], 1543),
    ("lsu-9", [Some([2, 0, 0, 0, 1110]), Some([0, 2, 383, 68, 233]), Some([0, 2, 383, 68, 233])], 3040),
    ("lsu-12", [Some([2, 0, 0, 0, 1805]), Some([0, 2, 890, 110, 397]), Some([0, 2, 890, 110, 397])], 5035),
    ("lsu-15", [Some([2, 0, 0, 0, 2662]), Some([0, 2, 1721, 161, 597]), Some([0, 2, 1721, 161, 597])], 7516),
    ("lsu-19", [Some([2, 0, 0, 0, 4969]), Some([0, 2, 3473, 243, 929]), Some([0, 2, 3473, 243, 929])], 14200),
    ("lsu-24", [Some([2, 0, 0, 0, 7584]), Some([0, 2, 6968, 368, 1414]), Some([0, 2, 6968, 368, 1414])], 21865),
    ("ooo-6d2", [Some([1, 0, 0, 0, 2394]), Some([0, 1, 3882, 266, 432]), Some([0, 1, 3882, 266, 432])], 6679),
    ("ooo-7d2", [Some([1, 0, 0, 0, 2996]), Some([0, 1, 13892, 524, 754]), Some([0, 1, 13892, 524, 754])], 8398),
    ("ooo-8d2", [Some([1, 0, 0, 0, 3639]), Some([0, 1, 52115, 1038, 1344]), Some([0, 1, 52115, 1038, 1344])], 10240),
    ("ooo-9d2", [Some([1, 0, 0, 0, 4365]), None, None], 12325),
    ("ooo-10d2", [Some([1, 0, 0, 0, 5132]), None, None], 14533),
    ("ooo-10d1", [Some([1, 0, 0, 0, 6182]), None, None], 17533),
    ("ooo-11d1", [Some([1, 0, 0, 0, 7242]), None, None], 20584),
    ("ooo-12d1", [Some([1, 0, 0, 0, 8385]), None, None], 23878),
    ("ooo-13d1", [Some([1, 0, 0, 0, 11235]), None, None], 32203),
    ("ooo-14d1", [Some([1, 0, 0, 0, 12765]), None, None], 36640),
];

/// Per `system_suite()` member, in suite order: the verdict and
/// `[checks, reencodes, reused_roots, fresh_roots, cnf_clauses]`, where
/// `cnf_clauses` counts every clause the session's one solver loaded
/// (re-encodes included, transitivity only for each check's live cone).
#[rustfmt::skip]
const BMC: &[(&str, &str, [u64; 5])] = &[
    ("toggle-01", "Bounded(6)", [7, 1, 5, 9, 92]),
    ("toggle-03", "Bounded(6)", [7, 1, 5, 9, 291]),
    ("counter-03", "CounterexampleAt(3)", [4, 0, 3, 5, 16]),
    ("counter-05", "CounterexampleAt(5)", [6, 0, 5, 7, 24]),
    ("ufdp-01", "Bounded(4)", [5, 3, 1, 9, 2329]),
    ("ufdp-02", "Bounded(4)", [5, 3, 1, 9, 7216]),
    ("ring-02", "Bounded(6)", [7, 0, 6, 8, 314]),
    ("ring-04", "Bounded(10)", [11, 0, 10, 12, 704]),
];

fn row(stats: &EncodeStats) -> [usize; 5] {
    [
        stats.sd_classes,
        stats.eij_classes,
        stats.trans_clauses,
        stats.pred_vars,
        stats.gates,
    ]
}

#[test]
fn one_shot_encodings_match_the_pinned_figures() {
    let suite = suite();
    assert_eq!(suite.len(), ENCODINGS.len(), "suite size");
    let mut mismatches = Vec::new();
    for (bench, &(name, pinned, pinned_sd_cnf)) in suite.iter().zip(ENCODINGS) {
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
            let encoded = encode(&tm, elim.formula, &analysis, &options).ok();
            let got = encoded.as_ref().map(|e| row(&e.stats));
            if got != want {
                mismatches.push(format!("{name} {mode:?}: got {got:?}, pinned {want:?}"));
            }
            if let (EncodingMode::Sd, Some(e)) = (mode, encoded) {
                let mut solver = Solver::new();
                load_into_solver(
                    &e.circuit,
                    &[!e.formula],
                    &e.trans_clauses,
                    options.cnf,
                    &mut solver,
                );
                let cnf = solver.stats().original_clauses;
                if cnf != pinned_sd_cnf {
                    mismatches.push(format!(
                        "{name} Sd: {cnf} CNF clauses, pinned {pinned_sd_cnf}"
                    ));
                }
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
