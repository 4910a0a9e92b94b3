//! Persistent incremental solving sessions.
//!
//! The one-shot pipeline ([`sufsat_core::decide`]) rebuilds everything —
//! elimination tables, separation analysis, encoding, CNF, solver — for
//! every query. Clients that ask many *related* queries (bounded model
//! checking unrolls one system to increasing depths; lazy refinement
//! re-solves one abstraction under growing constraint sets) throw away
//! nearly all of that work, and with it the SAT solver's learnt clauses.
//!
//! A [`Session`] keeps the whole stack alive across queries:
//!
//! * one persistent [`sufsat_suf::TermManager`] and
//!   [`sufsat_suf::IncrementalElim`], so function applications eliminate
//!   once and stay functionally consistent across assertions;
//! * one [`sufsat_encode::IncrementalEncoder`] that encodes only terms and
//!   atoms not seen before, extending committed small domains and
//!   transitivity tables monotonically — with a sound fallback to
//!   re-encoding the live assertions in place when a new assertion cannot
//!   be hosted under the committed decisions;
//! * one [`sufsat_sat::Solver`] for the session's whole life, with
//!   assertion scoping via activation literals over
//!   `solve_with_assumptions`, so conflict clauses survive
//!   [`Session::push`]/[`Session::pop`] and re-encodes.
//!
//! A check costs what its live assertions cost: transitivity and decode
//! metadata cover only their circuit cone, whatever retracted assertions
//! left behind. [`Session::check`] answers with the same
//! [`Outcome`]/[`Certificate`] surface as [`sufsat_core::decide`], plus an
//! unsat core of [`AssertionId`]s taken from the solver's failed
//! assumptions, which [`Session::minimize_core`] shrinks on request.
//!
//! The [`bmc`] module rewires bounded model checking on top of a session:
//! one solver across all depths, each depth's obligation pushed under an
//! assumption and popped afterwards.
//!
//! # Examples
//!
//! ```
//! use sufsat_core::Outcome;
//! use sufsat_incremental::Session;
//!
//! let mut session = Session::default();
//! let (x, y, z) = {
//!     let tm = session.term_manager_mut();
//!     (tm.int_var("x"), tm.int_var("y"), tm.int_var("z"))
//! };
//! let xy = session.term_manager_mut().mk_lt(x, y);
//! let yz = session.term_manager_mut().mk_lt(y, z);
//! let zx = session.term_manager_mut().mk_lt(z, x);
//! session.assert(xy);
//! session.assert(yz);
//! assert!(matches!(session.check().outcome, Outcome::Invalid(_))); // satisfiable
//! session.push();
//! session.assert(zx); // closes the cycle
//! assert!(session.check().outcome.is_valid()); // unsatisfiable
//! session.pop();
//! assert!(matches!(session.check().outcome, Outcome::Invalid(_))); // retracted
//! ```

#![warn(missing_docs)]

pub mod bmc;
mod session;

pub use bmc::{check_bounded_incremental, check_bounded_incremental_report, IncrementalBmcReport};
pub use session::{conjuncts_of, AssertionId, CheckResult, Session, SessionStats};

// Re-exported so session clients can name the answer surface without
// depending on the core crate directly.
pub use sufsat_core::{Certificate, DecideOptions, Outcome, StopReason};
pub use sufsat_encode::ReencodeReason;
