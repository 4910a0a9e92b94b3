//! Trace-file analysis: schema validation, figure reconstruction and
//! stage aggregation over `sufsat-obs` JSON-lines traces.
//!
//! A trace produced with `SUFSAT_TRACE=out.jsonl` (or `--trace`) is a
//! complete flight recording of a harness run. This module turns it back
//! into the paper's artifacts without re-running anything:
//!
//! * [`check_trace`] — validates the wire schema (`paper-eval
//!   check-trace`): every line parses as a JSON object carrying `ts`,
//!   `kind`, `name` and `thread`, and span open/close records nest
//!   properly per thread. CI fails on any drift.
//! * [`report_rows`]/[`render_report`] — rebuilds the Figure-2-style
//!   benchmark × method table (CNF clauses, conflict clauses, encode
//!   time, SAT time, verdict) from `bench.result` events, which carry the
//!   live [`DecideStats`](sufsat_core::DecideStats) values verbatim.
//! * [`stage_summary`] — aggregates span durations and counters into the
//!   `BENCH_stages.json` document (`sufsat-stages-v1` schema).

use std::collections::HashMap;

use sufsat_obs::json::{escape_into, parse, Json};

/// Tallies from a validated trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total (non-empty) records.
    pub records: usize,
    /// `span_open`/`span_close` pairs.
    pub spans: usize,
    /// Point events.
    pub events: usize,
    /// Final counter records.
    pub counters: usize,
}

const KINDS: [&str; 4] = ["span_open", "span_close", "event", "counter"];

/// Validates the JSON-lines wire schema of a trace.
///
/// Checks, per line: the line parses as a JSON object; `ts` is a number;
/// `kind` is one of the four record kinds; `name` is a string; `thread`
/// is a number. Span records must carry a `span` id, closes must carry
/// `dur_us` and match the innermost open span of their thread, and every
/// opened span must be closed by the end of the trace.
///
/// Returns the tallies on success, or every violation found (with its
/// 1-based line number) on failure.
pub fn check_trace(text: &str) -> Result<TraceCheck, Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let mut check = TraceCheck::default();
    // Innermost-first open spans, per thread: (span id, line number).
    let mut open: HashMap<u64, Vec<(u64, usize)>> = HashMap::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let json = match parse(line) {
            Ok(json) => json,
            Err(e) => {
                errors.push(format!("line {lineno}: not valid JSON: {e}"));
                continue;
            }
        };
        if !matches!(json, Json::Obj(_)) {
            errors.push(format!("line {lineno}: record is not a JSON object"));
            continue;
        }
        check.records += 1;
        if json.get("ts").and_then(Json::as_f64).is_none() {
            errors.push(format!("line {lineno}: missing numeric `ts`"));
        }
        if json.get("name").and_then(Json::as_str).is_none() {
            errors.push(format!("line {lineno}: missing string `name`"));
        }
        let thread = json.get("thread").and_then(Json::as_u64);
        if thread.is_none() {
            errors.push(format!("line {lineno}: missing numeric `thread`"));
        }
        let Some(kind) = json.get("kind").and_then(Json::as_str) else {
            errors.push(format!("line {lineno}: missing string `kind`"));
            continue;
        };
        if !KINDS.contains(&kind) {
            errors.push(format!("line {lineno}: unknown kind `{kind}`"));
            continue;
        }
        match kind {
            "span_open" => {
                match json.get("span").and_then(Json::as_u64) {
                    Some(span) => {
                        if let Some(thread) = thread {
                            open.entry(thread).or_default().push((span, lineno));
                        }
                    }
                    None => errors.push(format!("line {lineno}: span_open without `span` id")),
                }
            }
            "span_close" => {
                check.spans += 1;
                if json.get("dur_us").and_then(Json::as_u64).is_none() {
                    errors.push(format!("line {lineno}: span_close without `dur_us`"));
                }
                match json.get("span").and_then(Json::as_u64) {
                    Some(span) => {
                        let stack = thread.and_then(|t| open.get_mut(&t));
                        match stack.and_then(Vec::pop) {
                            Some((top, _)) if top == span => {}
                            Some((top, open_line)) => errors.push(format!(
                                "line {lineno}: span_close {span} does not match innermost \
                                 open span {top} (opened line {open_line})"
                            )),
                            None => errors.push(format!(
                                "line {lineno}: span_close {span} with no open span on its thread"
                            )),
                        }
                    }
                    None => errors.push(format!("line {lineno}: span_close without `span` id")),
                }
            }
            "event" => {
                check.events += 1;
                check_event_fields(&json, lineno, &mut errors);
            }
            "counter" => check.counters += 1,
            _ => unreachable!(),
        }
    }
    for stack in open.values() {
        for (span, lineno) in stack {
            errors.push(format!("line {lineno}: span {span} opened but never closed"));
        }
    }
    if errors.is_empty() {
        Ok(check)
    } else {
        Err(errors)
    }
}

/// Field schemas of the known introspection events. Unknown event names
/// pass unchecked — the trace format is open — but once a producer emits
/// a `sat.progress`, `serve.slow_request` or `cache.*` record it must
/// carry the full field set consumers (dashboards, `sufsat top`, scrape
/// pipelines) rely on.
fn check_event_fields(json: &Json, lineno: usize, errors: &mut Vec<String>) {
    let Some(name) = json.get("name").and_then(Json::as_str) else {
        return;
    };
    let (numeric, strings): (&[&str], &[&str]) = match name {
        "sat.progress" => (
            &[
                "conflicts",
                "decisions",
                "propagations",
                "restarts",
                "trail_depth",
                "learnt_clauses",
                "arena_bytes",
                "conflicts_per_s",
            ],
            &[],
        ),
        "serve.slow_request" => (
            &["conn", "latency_us", "queue_wait_us", "conflicts"],
            &["op", "status"],
        ),
        "cache.hit" => (&["bytes"], &["fingerprint"]),
        "cache.miss" => (&[], &["fingerprint"]),
        "cache.insert" => (&["bytes", "entries"], &["fingerprint", "verdict"]),
        "cache.evict" => (&["bytes", "entries"], &["fingerprint"]),
        _ => return,
    };
    let fields = json.get("fields");
    for key in numeric {
        if fields.and_then(|f| f.get(key)).and_then(Json::as_u64).is_none() {
            errors.push(format!(
                "line {lineno}: `{name}` event missing numeric field `{key}`"
            ));
        }
    }
    for key in strings {
        if fields.and_then(|f| f.get(key)).and_then(Json::as_str).is_none() {
            errors.push(format!(
                "line {lineno}: `{name}` event missing string field `{key}`"
            ));
        }
    }
}

/// One row of the reconstructed benchmark × method table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportRow {
    /// Benchmark name.
    pub bench: String,
    /// Method column label (`SD`, `EIJ`, `HYBRID(700)`, …).
    pub method: String,
    /// `valid`, `invalid` or `unknown`.
    pub verdict: String,
    /// CNF clause count (Figure 2, exactly `DecideStats::cnf_clauses`).
    pub cnf_clauses: u64,
    /// Conflict clauses learnt (exactly `DecideStats::conflict_clauses`).
    pub conflict_clauses: u64,
    /// Translation/encode time in microseconds.
    pub encode_us: u64,
    /// SAT search time in microseconds.
    pub sat_us: u64,
}

/// Extracts the `bench.result` events of a trace, in emission order.
///
/// A (benchmark, method) pair measured more than once keeps its last
/// measurement, like a re-run overwriting a CSV row.
pub fn report_rows(text: &str) -> Result<Vec<ReportRow>, String> {
    let mut rows: Vec<ReportRow> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        if json.get("kind").and_then(Json::as_str) != Some("event")
            || json.get("name").and_then(Json::as_str) != Some("bench.result")
        {
            continue;
        }
        let fields = json
            .get("fields")
            .ok_or_else(|| format!("line {}: bench.result without fields", idx + 1))?;
        let get_str = |key: &str| -> Result<String, String> {
            fields
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("line {}: bench.result missing `{key}`", idx + 1))
        };
        let get_u64 = |key: &str| -> Result<u64, String> {
            fields
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {}: bench.result missing `{key}`", idx + 1))
        };
        let row = ReportRow {
            bench: get_str("bench")?,
            method: get_str("method")?,
            verdict: get_str("verdict")?,
            cnf_clauses: get_u64("cnf_clauses")?,
            conflict_clauses: get_u64("conflict_clauses")?,
            encode_us: get_u64("translate_us")?,
            sat_us: get_u64("sat_us")?,
        };
        match rows
            .iter_mut()
            .find(|r| r.bench == row.bench && r.method == row.method)
        {
            Some(slot) => *slot = row,
            None => rows.push(row),
        }
    }
    Ok(rows)
}

/// Renders the reconstructed rows as the paper's Figure-2-style table.
pub fn render_report(rows: &[ReportRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>14} {:>12} | {:>10} {:>10} | {:>10} {:>10} | {:>8}\n",
        "benchmark", "method", "CNF cls", "confl cls", "encode s", "SAT s", "verdict"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:>14} {:>12} | {:>10} {:>10} | {:>10.3} {:>10.3} | {:>8}\n",
            row.bench,
            row.method,
            row.cnf_clauses,
            row.conflict_clauses,
            row.encode_us as f64 / 1e6,
            row.sat_us as f64 / 1e6,
            row.verdict
        ));
    }
    out.push_str(&format!(
        "{} runs across {} benchmarks\n",
        rows.len(),
        rows.iter()
            .map(|r| r.bench.as_str())
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    ));
    out
}

/// Aggregated timing of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageAgg {
    /// How many spans of this name closed.
    pub count: u64,
    /// Sum of their durations, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

/// Aggregates a trace's span durations and final counters into the
/// `BENCH_stages.json` document (schema `sufsat-stages-v1`):
///
/// ```json
/// {"schema":"sufsat-stages-v1",
///  "spans":{"encode":{"count":5,"total_us":1200,"max_us":700}},
///  "counters":{"sat.conflicts":42}}
/// ```
///
/// Span names sort alphabetically, so the document is byte-stable for a
/// given trace. Counters keep the last record per name (counter records
/// are cumulative snapshots).
pub fn stage_summary(text: &str) -> Result<String, String> {
    let mut spans: Vec<(String, StageAgg)> = Vec::new();
    let mut counters: Vec<(String, f64)> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let json = parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let (Some(kind), Some(name)) = (
            json.get("kind").and_then(Json::as_str),
            json.get("name").and_then(Json::as_str),
        ) else {
            continue;
        };
        match kind {
            "span_close" => {
                let dur = json.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
                let agg = match spans.iter_mut().find(|(n, _)| n == name) {
                    Some((_, agg)) => agg,
                    None => {
                        spans.push((name.to_owned(), StageAgg::default()));
                        &mut spans.last_mut().expect("just pushed").1
                    }
                };
                agg.count += 1;
                agg.total_us += dur;
                agg.max_us = agg.max_us.max(dur);
            }
            "counter" => {
                let value = json
                    .get("fields")
                    .and_then(|f| f.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                match counters.iter_mut().find(|(n, _)| n == name) {
                    Some((_, v)) => *v = value,
                    None => counters.push((name.to_owned(), value)),
                }
            }
            _ => {}
        }
    }
    spans.sort_by(|a, b| a.0.cmp(&b.0));
    counters.sort_by(|a, b| a.0.cmp(&b.0));

    let mut out = String::from("{\"schema\":\"sufsat-stages-v1\",\"spans\":{");
    for (i, (name, agg)) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(&mut out, name);
        out.push_str(&format!(
            ":{{\"count\":{},\"total_us\":{},\"max_us\":{}}}",
            agg.count, agg.total_us, agg.max_us
        ));
    }
    out.push_str("},\"counters\":{");
    for (i, (name, value)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(&mut out, name);
        // Counters are integral; render without a fractional part.
        out.push_str(&format!(":{}", *value as i64));
    }
    out.push_str("}}\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        "{\"ts\":1,\"kind\":\"span_open\",\"name\":\"a\",\"span\":1,\"parent\":0,\"thread\":1}\n",
        "{\"ts\":2,\"kind\":\"event\",\"name\":\"e\",\"span\":1,\"thread\":1,\"fields\":{}}\n",
        "{\"ts\":3,\"kind\":\"span_close\",\"name\":\"a\",\"span\":1,\"parent\":0,\"thread\":1,\
         \"dur_us\":2}\n",
        "{\"ts\":4,\"kind\":\"counter\",\"name\":\"c\",\"thread\":1,\"fields\":{\"value\":7}}\n",
    );

    #[test]
    fn accepts_wellformed_trace() {
        let check = check_trace(GOOD).expect("valid trace");
        assert_eq!(
            check,
            TraceCheck {
                records: 4,
                spans: 1,
                events: 1,
                counters: 1
            }
        );
    }

    #[test]
    fn rejects_missing_keys_and_bad_nesting() {
        let missing = "{\"kind\":\"event\",\"name\":\"e\",\"thread\":1}\n";
        let errs = check_trace(missing).expect_err("ts missing");
        assert!(errs.iter().any(|e| e.contains("`ts`")), "{errs:?}");

        let unbalanced =
            "{\"ts\":1,\"kind\":\"span_open\",\"name\":\"a\",\"span\":1,\"thread\":1}\n";
        let errs = check_trace(unbalanced).expect_err("never closed");
        assert!(errs.iter().any(|e| e.contains("never closed")), "{errs:?}");

        let crossed = concat!(
            "{\"ts\":1,\"kind\":\"span_open\",\"name\":\"a\",\"span\":1,\"thread\":1}\n",
            "{\"ts\":2,\"kind\":\"span_open\",\"name\":\"b\",\"span\":2,\"thread\":1}\n",
            "{\"ts\":3,\"kind\":\"span_close\",\"name\":\"a\",\"span\":1,\"thread\":1,\
             \"dur_us\":2}\n",
            "{\"ts\":4,\"kind\":\"span_close\",\"name\":\"b\",\"span\":2,\"thread\":1,\
             \"dur_us\":2}\n",
        );
        let errs = check_trace(crossed).expect_err("crossed nesting");
        assert!(
            errs.iter().any(|e| e.contains("does not match innermost")),
            "{errs:?}"
        );

        let garbage = "not json at all\n";
        let errs = check_trace(garbage).expect_err("not JSON");
        assert!(errs.iter().any(|e| e.contains("not valid JSON")), "{errs:?}");
    }

    #[test]
    fn validates_introspection_event_schemas() {
        let good = concat!(
            "{\"ts\":1,\"kind\":\"event\",\"name\":\"sat.progress\",\"span\":0,\"thread\":1,\
             \"fields\":{\"conflicts\":10,\"decisions\":20,\"propagations\":99,\"restarts\":1,\
             \"trail_depth\":5,\"learnt_clauses\":3,\"arena_bytes\":4096,\"conflicts_per_s\":800}}\n",
            "{\"ts\":2,\"kind\":\"event\",\"name\":\"serve.slow_request\",\"span\":0,\"thread\":1,\
             \"fields\":{\"op\":\"decide\",\"status\":\"ok\",\"conn\":1,\"latency_us\":5000,\
             \"queue_wait_us\":10,\"conflicts\":42}}\n",
        );
        let check = check_trace(good).expect("both events validate");
        assert_eq!(check.events, 2);

        let truncated = "{\"ts\":1,\"kind\":\"event\",\"name\":\"sat.progress\",\"span\":0,\
                         \"thread\":1,\"fields\":{\"conflicts\":10}}\n";
        let errs = check_trace(truncated).expect_err("missing progress fields");
        assert!(errs.iter().any(|e| e.contains("`decisions`")), "{errs:?}");

        let untyped = "{\"ts\":1,\"kind\":\"event\",\"name\":\"serve.slow_request\",\"span\":0,\
                       \"thread\":1,\"fields\":{\"op\":7,\"status\":\"ok\",\"conn\":1,\
                       \"latency_us\":5,\"queue_wait_us\":1,\"conflicts\":0}}\n";
        let errs = check_trace(untyped).expect_err("op must be a string");
        assert!(errs.iter().any(|e| e.contains("`op`")), "{errs:?}");
    }

    #[test]
    fn validates_cache_event_schemas() {
        let good = concat!(
            "{\"ts\":1,\"kind\":\"event\",\"name\":\"cache.miss\",\"span\":0,\"thread\":1,\
             \"fields\":{\"fingerprint\":\"00ff\"}}\n",
            "{\"ts\":2,\"kind\":\"event\",\"name\":\"cache.insert\",\"span\":0,\"thread\":1,\
             \"fields\":{\"fingerprint\":\"00ff\",\"verdict\":\"valid\",\"bytes\":256,\
             \"entries\":1}}\n",
            "{\"ts\":3,\"kind\":\"event\",\"name\":\"cache.hit\",\"span\":0,\"thread\":1,\
             \"fields\":{\"fingerprint\":\"00ff\",\"bytes\":256}}\n",
            "{\"ts\":4,\"kind\":\"event\",\"name\":\"cache.evict\",\"span\":0,\"thread\":1,\
             \"fields\":{\"fingerprint\":\"00ff\",\"bytes\":256,\"entries\":0}}\n",
        );
        let check = check_trace(good).expect("all four cache events validate");
        assert_eq!(check.events, 4);

        let bare_hit = "{\"ts\":1,\"kind\":\"event\",\"name\":\"cache.hit\",\"span\":0,\
                        \"thread\":1,\"fields\":{\"bytes\":256}}\n";
        let errs = check_trace(bare_hit).expect_err("hit without fingerprint");
        assert!(errs.iter().any(|e| e.contains("`fingerprint`")), "{errs:?}");

        let bare_insert = "{\"ts\":1,\"kind\":\"event\",\"name\":\"cache.insert\",\"span\":0,\
                           \"thread\":1,\"fields\":{\"fingerprint\":\"00ff\",\"bytes\":256,\
                           \"entries\":1}}\n";
        let errs = check_trace(bare_insert).expect_err("insert without verdict");
        assert!(errs.iter().any(|e| e.contains("`verdict`")), "{errs:?}");
    }

    #[test]
    fn report_rows_keep_last_measurement() {
        let mk = |cnf: u64| {
            format!(
                "{{\"ts\":1,\"kind\":\"event\",\"name\":\"bench.result\",\"span\":0,\
                 \"thread\":1,\"fields\":{{\"bench\":\"b1\",\"method\":\"SD\",\
                 \"verdict\":\"valid\",\"completed\":true,\"total_us\":10,\
                 \"translate_us\":4,\"sat_us\":6,\"cnf_clauses\":{cnf},\
                 \"conflict_clauses\":2,\"sep_predicates\":3,\"dag_size\":9}}}}\n"
            )
        };
        let text = format!("{}{}", mk(100), mk(200));
        let rows = report_rows(&text).expect("parses");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].cnf_clauses, 200);
        assert_eq!(rows[0].encode_us, 4);
        let rendered = render_report(&rows);
        assert!(rendered.contains("b1"));
        assert!(rendered.contains("200"));
        assert!(rendered.contains("valid"));
    }

    #[test]
    fn stage_summary_aggregates_and_is_stable() {
        let text = concat!(
            "{\"ts\":1,\"kind\":\"span_open\",\"name\":\"z\",\"span\":1,\"thread\":1}\n",
            "{\"ts\":2,\"kind\":\"span_close\",\"name\":\"z\",\"span\":1,\"thread\":1,\
             \"dur_us\":5}\n",
            "{\"ts\":3,\"kind\":\"span_open\",\"name\":\"z\",\"span\":2,\"thread\":1}\n",
            "{\"ts\":4,\"kind\":\"span_close\",\"name\":\"z\",\"span\":2,\"thread\":1,\
             \"dur_us\":11}\n",
            "{\"ts\":5,\"kind\":\"counter\",\"name\":\"k\",\"thread\":1,\
             \"fields\":{\"value\":3}}\n",
        );
        let summary = stage_summary(text).expect("aggregates");
        let json = parse(&summary).expect("summary is valid JSON");
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("sufsat-stages-v1")
        );
        let z = json.get("spans").and_then(|s| s.get("z")).expect("span z");
        assert_eq!(z.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(z.get("total_us").and_then(Json::as_u64), Some(16));
        assert_eq!(z.get("max_us").and_then(Json::as_u64), Some(11));
        assert_eq!(
            json.get("counters").and_then(|c| c.get("k")).and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(stage_summary(text).expect("deterministic"), summary);
    }
}
