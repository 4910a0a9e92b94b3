//! DIMACS CNF parsing and emission.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

use crate::lit::{Lit, Var};

/// A CNF formula in memory: a variable count plus clauses of literals.
///
/// # Examples
///
/// ```
/// use sufsat_sat::dimacs::Cnf;
///
/// let cnf = Cnf::parse("p cnf 2 2\n1 -2 0\n2 0\n".as_bytes())?;
/// assert_eq!(cnf.num_vars, 2);
/// assert_eq!(cnf.clauses.len(), 2);
/// # Ok::<(), sufsat_sat::dimacs::ParseDimacsError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// Number of variables declared in the problem line.
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Vec<Lit>>,
}

/// Error produced when DIMACS input is malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    line: usize,
    message: String,
}

impl ParseDimacsError {
    fn new(line: usize, message: impl Into<String>) -> ParseDimacsError {
        ParseDimacsError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dimacs parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseDimacsError {}

impl Cnf {
    /// Creates an empty CNF.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Parses DIMACS CNF text from a reader.
    ///
    /// Accepts comment lines (`c ...`), requires a `p cnf <vars> <clauses>`
    /// problem line before any clause, and clauses terminated by `0`.
    /// The declared clause count is checked against the actual count.
    ///
    /// The input is consumed in one read and scanned byte-by-byte: no
    /// per-line `String`, per-token slice, or UTF-8 validation is performed
    /// on the hot path (literal digits are plain ASCII arithmetic).
    ///
    /// # Errors
    ///
    /// Returns [`ParseDimacsError`] on malformed input (missing or duplicate
    /// problem line, bad integers, out-of-range variables, unterminated
    /// clauses, or count mismatches).
    pub fn parse<R: BufRead>(mut reader: R) -> Result<Cnf, ParseDimacsError> {
        /// Reads an unsigned integer on the current line, skipping leading
        /// spaces/tabs. `None` if the next token is not a whole number.
        fn read_uint_same_line(b: &[u8], at: &mut usize) -> Option<u64> {
            let len = b.len();
            while *at < len && matches!(b[*at], b' ' | b'\t' | b'\r') {
                *at += 1;
            }
            let start = *at;
            let mut val = 0u64;
            while *at < len && b[*at].is_ascii_digit() {
                val = val.checked_mul(10)?.checked_add(u64::from(b[*at] - b'0'))?;
                *at += 1;
            }
            if *at == start || (*at < len && !b[*at].is_ascii_whitespace()) {
                return None;
            }
            Some(val)
        }

        let mut buf = Vec::new();
        reader
            .read_to_end(&mut buf)
            .map_err(|e| ParseDimacsError::new(0, format!("io error: {e}")))?;
        let b = buf.as_slice();
        let len = b.len();
        let mut at = 0usize;
        let mut line = 1usize;
        // Comment and problem lines are only recognized as the first token
        // of a line, exactly like the old per-line parser.
        let mut line_has_token = false;

        let mut num_vars: Option<usize> = None;
        let mut declared_clauses = 0usize;
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        let mut current: Vec<Lit> = Vec::new();

        loop {
            // Skip whitespace and line-initial comment lines.
            loop {
                while at < len {
                    match b[at] {
                        b' ' | b'\t' | b'\r' => at += 1,
                        b'\n' => {
                            at += 1;
                            line += 1;
                            line_has_token = false;
                        }
                        _ => break,
                    }
                }
                if at < len && !line_has_token && (b[at] == b'c' || b[at] == b'%') {
                    while at < len && b[at] != b'\n' {
                        at += 1;
                    }
                    continue;
                }
                break;
            }
            if at >= len {
                break;
            }

            if !line_has_token && b[at] == b'p' {
                if num_vars.is_some() {
                    return Err(ParseDimacsError::new(line, "duplicate problem line"));
                }
                line_has_token = true;
                at += 1;
                while at < len && matches!(b[at], b' ' | b'\t' | b'\r') {
                    at += 1;
                }
                let cnf_tag = b.get(at..at + 3) == Some(b"cnf")
                    && (at + 3 == len || b[at + 3].is_ascii_whitespace());
                if !cnf_tag {
                    return Err(ParseDimacsError::new(line, "expected `p cnf`"));
                }
                at += 3;
                let nv = read_uint_same_line(b, &mut at)
                    .ok_or_else(|| ParseDimacsError::new(line, "bad variable count"))?;
                let nc = read_uint_same_line(b, &mut at)
                    .ok_or_else(|| ParseDimacsError::new(line, "bad clause count"))?;
                while at < len && matches!(b[at], b' ' | b'\t' | b'\r') {
                    at += 1;
                }
                if at < len && b[at] != b'\n' {
                    return Err(ParseDimacsError::new(
                        line,
                        "trailing tokens on problem line",
                    ));
                }
                num_vars = Some(nv as usize);
                declared_clauses = nc as usize;
                continue;
            }

            // A literal token.
            line_has_token = true;
            let Some(nv) = num_vars else {
                return Err(ParseDimacsError::new(line, "clause before problem line"));
            };
            let start = at;
            let negative = b[at] == b'-';
            if negative {
                at += 1;
            }
            let digits_start = at;
            let mut magnitude = 0u64;
            let mut overflow = false;
            while at < len && b[at].is_ascii_digit() {
                magnitude = match magnitude
                    .checked_mul(10)
                    .and_then(|m| m.checked_add(u64::from(b[at] - b'0')))
                {
                    Some(m) => m,
                    None => {
                        overflow = true;
                        0
                    }
                };
                at += 1;
            }
            if at == digits_start || overflow || (at < len && !b[at].is_ascii_whitespace()) {
                while at < len && !b[at].is_ascii_whitespace() {
                    at += 1;
                }
                let tok = String::from_utf8_lossy(&b[start..at]);
                return Err(ParseDimacsError::new(line, format!("bad literal `{tok}`")));
            }
            if magnitude == 0 {
                clauses.push(std::mem::take(&mut current));
            } else {
                let v = magnitude as usize;
                if v > nv {
                    return Err(ParseDimacsError::new(
                        line,
                        format!("variable {v} exceeds declared count {nv}"),
                    ));
                }
                current.push(Lit::new(Var::from_index(v - 1), !negative));
            }
        }
        if !current.is_empty() {
            return Err(ParseDimacsError::new(0, "unterminated final clause"));
        }
        let num_vars = num_vars.ok_or_else(|| ParseDimacsError::new(0, "missing problem line"))?;
        if clauses.len() != declared_clauses {
            return Err(ParseDimacsError::new(
                0,
                format!(
                    "declared {declared_clauses} clauses but found {}",
                    clauses.len()
                ),
            ));
        }
        Ok(Cnf { num_vars, clauses })
    }

    /// Writes this CNF in DIMACS format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(writer, "p cnf {} {}", self.num_vars, self.clauses.len())?;
        for clause in &self.clauses {
            for &l in clause {
                let v = l.var().index() as i64 + 1;
                let x = if l.is_positive() { v } else { -v };
                write!(writer, "{x} ")?;
            }
            writeln!(writer, "0")?;
        }
        Ok(())
    }

    /// Loads this CNF into a fresh [`Solver`](crate::Solver).
    pub fn to_solver(&self) -> crate::Solver {
        let mut solver = crate::Solver::new();
        solver.reserve_vars(self.num_vars);
        for clause in &self.clauses {
            solver.add_clause(clause.iter().copied());
        }
        solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Cnf, ParseDimacsError> {
        Cnf::parse(s.as_bytes())
    }

    #[test]
    fn parses_simple_cnf() {
        let cnf = parse("c a comment\np cnf 3 2\n1 -2 0\n3 0\n").unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses.len(), 2);
        assert_eq!(cnf.clauses[0].len(), 2);
        assert!(cnf.clauses[0][0].is_positive());
        assert!(!cnf.clauses[0][1].is_positive());
    }

    #[test]
    fn clause_may_span_lines() {
        let cnf = parse("p cnf 3 1\n1 2\n3 0\n").unwrap();
        assert_eq!(cnf.clauses[0].len(), 3);
    }

    #[test]
    fn rejects_missing_problem_line() {
        assert!(parse("1 2 0\n").is_err());
    }

    #[test]
    fn rejects_unterminated_clause() {
        assert!(parse("p cnf 2 1\n1 2\n").is_err());
    }

    #[test]
    fn rejects_out_of_range_variable() {
        assert!(parse("p cnf 1 1\n2 0\n").is_err());
    }

    #[test]
    fn rejects_count_mismatch() {
        assert!(parse("p cnf 2 2\n1 0\n").is_err());
    }

    #[test]
    fn rejects_duplicate_problem_line() {
        assert!(parse("p cnf 1 0\np cnf 1 0\n").is_err());
    }

    #[test]
    fn comments_allowed_between_clause_lines() {
        let cnf = parse("p cnf 3 1\n1 2\nc interrupting comment\n% another\n3 0\n").unwrap();
        assert_eq!(cnf.clauses[0].len(), 3);
    }

    #[test]
    fn rejects_comment_marker_mid_line() {
        // `c` is a comment only as the first token of a line; mid-line it
        // is a bad literal, as in the old per-line parser.
        assert!(parse("p cnf 2 1\n1 c 2 0\n").is_err());
    }

    #[test]
    fn handles_crlf_and_tabs() {
        let cnf = parse("c crlf\r\np cnf 2 2\r\n1\t-2 0\r\n2 0\r\n").unwrap();
        assert_eq!(cnf.num_vars, 2);
        assert_eq!(
            cnf.clauses,
            vec![
                vec![
                    Lit::new(Var::from_index(0), true),
                    Lit::new(Var::from_index(1), false)
                ],
                vec![Lit::new(Var::from_index(1), true)],
            ]
        );
    }

    #[test]
    fn rejects_malformed_literals() {
        assert!(parse("p cnf 2 1\n1a 2 0\n").is_err());
        assert!(parse("p cnf 2 1\n- 1 0\n").is_err());
        assert!(parse("p cnf 2 1\n99999999999999999999999 0\n").is_err());
    }

    #[test]
    fn error_reports_line_numbers() {
        let err = parse("c one\np cnf 1 1\n2 0\n").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn round_trips() {
        let cnf = parse("p cnf 4 3\n1 -2 0\n-3 4 0\n2 0\n").unwrap();
        let mut out = Vec::new();
        cnf.write(&mut out).unwrap();
        let again = Cnf::parse(out.as_slice()).unwrap();
        assert_eq!(cnf, again);
    }

    #[test]
    fn to_solver_solves() {
        let cnf = parse("p cnf 2 2\n1 0\n-1 2 0\n").unwrap();
        let mut s = cnf.to_solver();
        assert_eq!(s.solve(), crate::SolveResult::Sat);
        assert_eq!(s.model_value(crate::Var::from_index(0)), Some(true));
        assert_eq!(s.model_value(crate::Var::from_index(1)), Some(true));
    }
}
