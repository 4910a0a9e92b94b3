//! The hybrid SAT-based decision procedure for SUF — the paper's primary
//! contribution.
//!
//! `sufsat-core` ties the whole stack together: function elimination
//! (`sufsat-suf`), separation-logic analyses (`sufsat-seplog`), the
//! SD/EIJ/HYBRID encoders (`sufsat-encode`) and the CDCL SAT solver
//! (`sufsat-sat`) become one call, [`decide`], that answers validity of an
//! SUF formula and reports the measurements the paper's evaluation uses.
//!
//! The automatic `SEP_THOLD` selection of paper §4.1 is provided by
//! [`select_threshold`].
//!
//! # Examples
//!
//! ```
//! use sufsat_core::{decide, DecideOptions, EncodingMode};
//! use sufsat_suf::TermManager;
//!
//! let mut tm = TermManager::new();
//! let x = tm.int_var("x");
//! let y = tm.int_var("y");
//! let lt = tm.mk_lt(x, y);
//! let ge = tm.mk_ge(x, y);
//! let phi = tm.mk_or(lt, ge); // totality of the order: valid
//! for mode in [EncodingMode::Sd, EncodingMode::Eij, EncodingMode::Hybrid(700)] {
//!     let d = decide(&mut tm, phi, &DecideOptions::with_mode(mode));
//!     assert!(d.outcome.is_valid());
//! }
//! ```

#![warn(missing_docs)]

mod bmc;
mod cache;
mod certify;
mod decide;
mod threshold;

pub use bmc::{check_bounded, check_bounded_with_stats, BmcResult, TransitionSystem};
pub use cache::{CacheHandle, CacheStatus};
pub use certify::{
    counterexample_falsifies_original, counterexample_interpretation,
    interpretation_from_instances, Certificate,
};
pub use decide::{
    decide, DecideOptions, DecideStats, Decision, Outcome, StopReason, DEFAULT_SEP_THOLD,
};
pub use threshold::{select_threshold, ThresholdSample};

// Re-exported so downstream users can configure runs without depending on
// the encoder crate directly.
pub use sufsat_encode::{CnfMode, EncodingMode};
// Re-exported so cache-aware callers can rebuild counterexamples without
// depending on the seplog crate directly.
pub use sufsat_seplog::SepAssignment;
