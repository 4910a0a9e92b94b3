//! Answer checks made apart from the program under test.
//!
//! Every expected answer is planted by construction, never copied from an
//! earlier run: the `sufsat-workloads` families build valid formulas, the
//! negation of a valid formula is false under every interpretation, and
//! each transition system states its own verdict. A wrong or missing answer
//! counts as a failed operation; a wrong one also makes the run incorrect.

use sufsat_core::{BmcResult, Certificate, Outcome};

/// Why one operation did not produce a right answer.
#[derive(Debug)]
pub enum Failure {
    /// The program answered, and the answer is wrong.
    Wrong(String),
    /// The program gave no answer (unknown, error, no reply).
    Missing(String),
}

/// Attempted, failed and wrong operations of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// The first failure, for the run's record.
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, result: Result<(), Failure>) {
        self.attempted += 1;
        let message = match result {
            Ok(()) => return,
            Err(Failure::Wrong(m)) => {
                self.wrong += 1;
                m
            }
            Err(Failure::Missing(m)) => m,
        };
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(format!("{what}: {message}"));
        }
    }

    /// Whether every answer the program gave was right.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }
}

/// A decide answer against its planted validity.
pub fn outcome(expect_valid: bool, got: &Outcome) -> Result<(), Failure> {
    match (expect_valid, got) {
        (true, Outcome::Valid) | (false, Outcome::Invalid(_)) => Ok(()),
        (_, Outcome::Unknown(reason)) => Err(Failure::Missing(format!("unknown ({reason:?})"))),
        (true, Outcome::Invalid(_)) => Err(Failure::Wrong("invalid, expected valid".to_owned())),
        (false, Outcome::Valid) => Err(Failure::Wrong("valid, expected invalid".to_owned())),
    }
}

/// A certified decide answer: the verdict, plus a certificate that holds.
pub fn certified(
    expect_valid: bool,
    got: &Outcome,
    certificate: Option<&Certificate>,
) -> Result<(), Failure> {
    outcome(expect_valid, got)?;
    match certificate {
        Some(c) if c.holds() => Ok(()),
        Some(c) => Err(Failure::Wrong(format!("certificate does not hold: {c:?}"))),
        None => Err(Failure::Wrong(
            "definitive answer without a certificate".to_owned(),
        )),
    }
}

/// A bounded-model-checking result against the system's planted verdict:
/// safe to `bound`, or the first counterexample at `cex_at`.
pub fn bmc(bound: usize, cex_at: Option<usize>, got: &BmcResult) -> Result<(), Failure> {
    match (cex_at, got) {
        (_, BmcResult::Unknown { step, reason }) => Err(Failure::Missing(format!(
            "unknown at step {step} ({reason:?})"
        ))),
        (None, BmcResult::Bounded(b)) if *b == bound => Ok(()),
        (Some(at), BmcResult::CounterexampleAt { step, .. }) if *step == at => Ok(()),
        (None, _) => Err(Failure::Wrong(format!(
            "expected safe to {bound}, got {got:?}"
        ))),
        (Some(at), _) => Err(Failure::Wrong(format!(
            "expected the first counterexample at step {at}, got {got:?}"
        ))),
    }
}

/// A daemon reply's `status`/`verdict` pair against the planted validity.
pub fn verdict(expect_valid: bool, status: &str, verdict: &str) -> Result<(), Failure> {
    match (status, verdict, expect_valid) {
        ("ok", "valid", true) | ("ok", "invalid", false) => Ok(()),
        ("ok", "valid" | "invalid", _) => Err(Failure::Wrong(format!(
            "{verdict}, expected {}",
            if expect_valid { "valid" } else { "invalid" }
        ))),
        _ => Err(Failure::Missing(format!(
            "status {status}, verdict {verdict}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_fails_the_run() {
        let mut tally = Tally::default();
        tally.record("ok", outcome(true, &Outcome::Valid));
        tally.record("flipped", outcome(false, &Outcome::Valid));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(!tally.correct());
    }

    #[test]
    fn a_missing_answer_is_failed_but_not_wrong() {
        let mut tally = Tally::default();
        let unknown = Outcome::Unknown(sufsat_core::StopReason::TranslationBudget);
        tally.record("budget", outcome(true, &unknown));
        assert_eq!(tally.failed, 1);
        assert!(tally.correct());
        assert!(verdict(true, "overloaded", "?").is_err());
    }

    #[test]
    fn a_certificate_that_does_not_hold_fails_the_run() {
        let bad = Certificate::Refutation {
            steps: 12,
            checked: false,
        };
        let mut tally = Tally::default();
        tally.record("bad", certified(true, &Outcome::Valid, Some(&bad)));
        tally.record("none", certified(true, &Outcome::Valid, None));
        assert_eq!(tally.wrong, 2);
        assert!(!tally.correct());
        let good = Certificate::Refutation {
            steps: 12,
            checked: true,
        };
        assert!(certified(true, &Outcome::Valid, Some(&good)).is_ok());
    }

    #[test]
    fn a_flipped_daemon_verdict_fails_the_run() {
        assert!(verdict(true, "ok", "valid").is_ok());
        assert!(matches!(
            verdict(false, "ok", "valid"),
            Err(Failure::Wrong(_))
        ));
    }
}
