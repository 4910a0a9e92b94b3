//! # sufsat
//!
//! A from-scratch Rust reproduction of *"A Hybrid SAT-Based Decision
//! Procedure for Separation Logic with Uninterpreted Functions"*
//! (Seshia, Lahiri, Bryant — DAC 2003).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sat`] — a CDCL SAT solver (the zChaff stand-in)
//! * [`suf`] — SUF terms, parsing, polarity analysis, function elimination
//! * [`seplog`] — separation-logic analyses, difference logic, oracles
//! * [`encode`] — the SD, EIJ and HYBRID eager encodings
//! * [`core`] — the end-to-end decision procedure ([`decide`])
//! * [`baselines`] — lazy (CVC-style) and case-splitting (SVC-style)
//!   comparison procedures
//! * [`incremental`] — persistent solving sessions with push/pop,
//!   unsat cores and incremental bounded model checking
//! * [`serve`] — a resident solver daemon with a worker pool, bounded
//!   admission queue and deadline propagation (`sufsat serve`)
//! * [`workloads`] — the synthetic 49-benchmark suite
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use sufsat::{decide, DecideOptions, TermManager};
//!
//! let mut tm = TermManager::new();
//! let f = tm.declare_fun("f", 1);
//! let x = tm.int_var("x");
//! let y = tm.int_var("y");
//! let fx = tm.mk_app(f, vec![x]);
//! let fy = tm.mk_app(f, vec![y]);
//! // Functional consistency: x = y  =>  f(x) = f(y).
//! let hyp = tm.mk_eq(x, y);
//! let conc = tm.mk_eq(fx, fy);
//! let phi = tm.mk_implies(hyp, conc);
//! let decision = decide(&mut tm, phi, &DecideOptions::default());
//! assert!(decision.outcome.is_valid());
//! ```

#![warn(missing_docs)]

pub use sufsat_baselines as baselines;
pub use sufsat_core as core;
pub use sufsat_encode as encode;
pub use sufsat_incremental as incremental;
pub use sufsat_sat as sat;
pub use sufsat_seplog as seplog;
pub use sufsat_serve as serve;
pub use sufsat_suf as suf;
pub use sufsat_workloads as workloads;

pub use sufsat_core::{
    check_bounded, decide, select_threshold, BmcResult, Certificate, CnfMode, DecideOptions,
    DecideStats, Decision, EncodingMode, Outcome, StopReason, ThresholdSample, TransitionSystem,
    DEFAULT_SEP_THOLD,
};
pub use sufsat_suf::{
    parse_problem, print_problem, print_term, Sort, Term, TermId, TermManager, VarSym,
};
