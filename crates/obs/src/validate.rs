//! Structural validation of the observability artifacts — the checker
//! behind the `trace-check` binary, the CI trace-smoke job, and the
//! golden trace-format tests. Three document kinds are understood:
//! Chrome trace-event JSON, the metrics exposition (schema
//! `pipemap-metrics-v1`), and the solve report (schema
//! `pipemap-solve-report-v1`); [`validate_document`] dispatches on the
//! `schema` field.
//!
//! A trace passes when:
//!
//! * the document is valid JSON with a `traceEvents` array (or is
//!   itself a bare array of events);
//! * every event carries `ph`, `pid`, `tid`, and a non-negative `ts`
//!   (metadata `M` events excepted from the `ts` requirement);
//! * per `tid`, duration events balance: every `E` closes the `B` of
//!   the same name in LIFO order, and no span is left open.

use crate::json::{parse, Value};
use crate::metrics::METRICS_SCHEMA;
use crate::report::REPORT_SCHEMA;

/// Summary of a validated trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total events in the document.
    pub events: usize,
    /// Completed `B`/`E` span pairs.
    pub spans: usize,
    /// Instant (`i`) events.
    pub instants: usize,
    /// Counter (`C`) samples.
    pub counters: usize,
    /// Distinct lanes (`tid` values).
    pub lanes: usize,
    /// Deepest span nesting observed on any lane.
    pub max_depth: usize,
    /// Wall-clock covered by the events, in microseconds.
    pub wall_us: u64,
}

/// Validate a Chrome trace-event JSON document.
///
/// # Errors
///
/// Returns a message naming the first structural violation.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = match (&doc, doc.get("traceEvents")) {
        (_, Some(Value::Arr(evs))) => evs.as_slice(),
        (Value::Arr(evs), _) => evs.as_slice(),
        _ => return Err("no traceEvents array".into()),
    };

    let mut check = TraceCheck {
        events: events.len(),
        ..TraceCheck::default()
    };
    // (tid, name, ts) per event, grouped for the nesting check.
    let mut lanes: std::collections::BTreeMap<i64, Vec<(String, String)>> =
        std::collections::BTreeMap::new();
    let (mut ts_min, mut ts_max) = (u64::MAX, 0u64);
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?
            .to_string();
        let tid = ev
            .get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as i64;
        ev.get("pid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        if ph != "M" {
            let ts = ev
                .get("ts")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing ts"))?;
            if !(ts.is_finite() && ts >= 0.0) {
                return Err(format!("event {i}: bad ts {ts}"));
            }
            ts_min = ts_min.min(ts as u64);
            ts_max = ts_max.max(ts as u64);
        }
        match ph.as_str() {
            "B" | "E" => lanes.entry(tid).or_default().push((ph, name)),
            "i" => {
                check.instants += 1;
                lanes.entry(tid).or_default();
            }
            "C" => {
                check.counters += 1;
                lanes.entry(tid).or_default();
            }
            "M" => {}
            other => return Err(format!("event {i}: unsupported ph {other:?}")),
        }
    }

    check.lanes = lanes.len();
    check.wall_us = if ts_min == u64::MAX {
        0
    } else {
        ts_max - ts_min
    };
    for (tid, evs) in &lanes {
        // Events arrive in per-lane chronological order (the recorder's
        // thread-local buffers guarantee it), so a plain stack suffices.
        let mut stack: Vec<&str> = Vec::new();
        for (ph, name) in evs {
            match ph.as_str() {
                "B" => {
                    stack.push(name);
                    check.max_depth = check.max_depth.max(stack.len());
                }
                "E" => match stack.pop() {
                    Some(open) if open == name => check.spans += 1,
                    Some(open) => {
                        return Err(format!(
                            "tid {tid}: E {name:?} closes B {open:?} (misnested)"
                        ))
                    }
                    None => return Err(format!("tid {tid}: E {name:?} without a B")),
                },
                _ => unreachable!("only B/E buffered"),
            }
        }
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: span {open:?} never closed"));
        }
    }
    Ok(check)
}

/// Which artifact a document turned out to be, with its summary.
#[derive(Debug, Clone, PartialEq)]
pub enum DocumentCheck {
    /// A Chrome trace-event document.
    Trace(TraceCheck),
    /// A `pipemap-metrics-v1` exposition: `(metrics, histograms)`.
    Metrics(usize, usize),
    /// A `pipemap-solve-report-v1` document: `(phases, features)`.
    Report(usize, usize),
}

/// Validate any observability artifact, dispatching on its `schema`
/// field (documents without one are treated as Chrome traces).
///
/// # Errors
///
/// Returns a message naming the first structural violation.
pub fn validate_document(text: &str) -> Result<DocumentCheck, String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(s) if s == METRICS_SCHEMA => {
            let (m, h) = validate_metrics_value(&doc)?;
            Ok(DocumentCheck::Metrics(m, h))
        }
        Some(s) if s == REPORT_SCHEMA => {
            let (p, f) = validate_report_value(&doc)?;
            Ok(DocumentCheck::Report(p, f))
        }
        Some(other) => Err(format!("unknown schema {other:?}")),
        None => validate_chrome_trace(text).map(DocumentCheck::Trace),
    }
}

/// Validate a `pipemap-metrics-v1` exposition. Returns
/// `(metric count, histogram count)`.
///
/// # Errors
///
/// Returns a message naming the first structural violation.
pub fn validate_metrics_json(text: &str) -> Result<(usize, usize), String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(METRICS_SCHEMA) {
        return Err(format!("schema is not {METRICS_SCHEMA:?}"));
    }
    validate_metrics_value(&doc)
}

fn validate_metrics_value(doc: &Value) -> Result<(usize, usize), String> {
    let Some(Value::Obj(metrics)) = doc.get("metrics") else {
        return Err("no metrics object".into());
    };
    let mut hists = 0usize;
    for (name, m) in metrics {
        let ty = m
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("metric {name:?}: missing type"))?;
        match ty {
            "counter" => {
                let v = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("counter {name:?}: missing value"))?;
                if v < 0.0 {
                    return Err(format!("counter {name:?}: negative value {v}"));
                }
            }
            "gauge" => {
                if m.get("value").is_none() {
                    return Err(format!("gauge {name:?}: missing value"));
                }
            }
            "histogram" => {
                hists += 1;
                let count = m
                    .get("count")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("histogram {name:?}: missing count"))?;
                if count < 0.0 {
                    return Err(format!("histogram {name:?}: negative count"));
                }
                let Some(buckets) = m.get("buckets").and_then(Value::as_arr) else {
                    return Err(format!("histogram {name:?}: missing buckets"));
                };
                let mut prev = f64::NEG_INFINITY;
                let mut total = 0.0;
                for (i, b) in buckets.iter().enumerate() {
                    let Some(pair) = b.as_arr().filter(|p| p.len() == 2) else {
                        return Err(format!(
                            "histogram {name:?}: bucket {i} is not a [bound, count] pair"
                        ));
                    };
                    // A null bound is the overflow (+Inf) bucket.
                    if let Some(bound) = pair[0].as_f64() {
                        if bound <= prev {
                            return Err(format!(
                                "histogram {name:?}: bucket bounds not ascending at {i}"
                            ));
                        }
                        prev = bound;
                    } else {
                        prev = f64::INFINITY;
                    }
                    let c = pair[1]
                        .as_f64()
                        .ok_or_else(|| format!("histogram {name:?}: bucket {i} count"))?;
                    if c < 0.0 {
                        return Err(format!("histogram {name:?}: negative bucket count"));
                    }
                    total += c;
                }
                if (total - count).abs() > 0.5 {
                    return Err(format!(
                        "histogram {name:?}: bucket counts sum to {total}, count says {count}"
                    ));
                }
            }
            other => return Err(format!("metric {name:?}: unknown type {other:?}")),
        }
    }
    Ok((metrics.len(), hists))
}

/// Validate a `pipemap-solve-report-v1` document: required fields
/// present, phase times non-negative, phase sum within tolerance of the
/// reported wall clock. Returns `(phase count, feature count)`.
///
/// # Errors
///
/// Returns a message naming the first structural violation.
pub fn validate_solve_report(text: &str) -> Result<(usize, usize), String> {
    let doc = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some(REPORT_SCHEMA) {
        return Err(format!("schema is not {REPORT_SCHEMA:?}"));
    }
    validate_report_value(&doc)
}

fn validate_report_value(doc: &Value) -> Result<(usize, usize), String> {
    let wall = doc
        .get("wall_us")
        .and_then(Value::as_f64)
        .ok_or("missing wall_us")?;
    if wall < 0.0 {
        return Err(format!("negative wall_us {wall}"));
    }
    let mut phase_count = 0usize;
    for key in ["phases", "solve_phases"] {
        let Some(phases) = doc.get(key).and_then(Value::as_arr) else {
            return Err(format!("missing {key} array"));
        };
        let mut sum = 0.0;
        for (i, p) in phases.iter().enumerate() {
            if p.get("name").and_then(Value::as_str).is_none() {
                return Err(format!("{key}[{i}]: missing name"));
            }
            let t = p
                .get("total_us")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{key}[{i}]: missing total_us"))?;
            if t < 0.0 {
                return Err(format!("{key}[{i}]: negative total_us {t}"));
            }
            sum += t;
        }
        if key == "phases" {
            phase_count = phases.len();
            // Phase attribution must reconcile with the wall clock:
            // 5% + a fixed slack for timestamp rounding on tiny solves.
            if sum > wall * 1.05 + 1000.0 {
                return Err(format!(
                    "phases sum to {sum} us, exceeding wall {wall} us by more than 5%"
                ));
            }
        }
    }
    let Some(features) = doc.get("features").and_then(Value::as_arr) else {
        return Err("missing features array".into());
    };
    for (i, f) in features.iter().enumerate() {
        if f.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("features[{i}]: missing name"));
        }
        if f.get("value").is_none() {
            return Err(format!("features[{i}]: missing value"));
        }
    }
    for key in ["workers", "cut_rounds", "incumbents", "diagnosis"] {
        if doc.get(key).and_then(Value::as_arr).is_none() {
            return Err(format!("missing {key} array"));
        }
    }
    for (i, c) in doc
        .get("cut_rounds")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .enumerate()
    {
        if !matches!(c.get("warm"), Some(Value::Bool(_))) {
            return Err(format!("cut_rounds[{i}]: warm is not a boolean"));
        }
        if !c
            .get("lp_iters")
            .and_then(Value::as_f64)
            .is_some_and(|n| n >= 0.0)
        {
            return Err(format!("cut_rounds[{i}]: missing or negative lp_iters"));
        }
    }
    let dropped = doc
        .get("dropped_events")
        .and_then(Value::as_f64)
        .ok_or("missing dropped_events")?;
    if dropped < 0.0 {
        return Err("negative dropped_events".into());
    }
    Ok((phase_count, features.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_balanced_trace() {
        let t = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":1,"tid":0,"ts":0},
            {"name":"b","ph":"B","pid":1,"tid":0,"ts":1},
            {"name":"b","ph":"E","pid":1,"tid":0,"ts":2},
            {"name":"m","ph":"i","pid":1,"tid":1,"ts":2,"s":"t"},
            {"name":"a","ph":"E","pid":1,"tid":0,"ts":3},
            {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"main"}}
        ]}"#;
        let c = validate_chrome_trace(t).expect("valid");
        assert_eq!(c.spans, 2);
        assert_eq!(c.instants, 1);
        assert_eq!(c.lanes, 2);
        assert_eq!(c.max_depth, 2);
        assert_eq!(c.wall_us, 3);
    }

    #[test]
    fn rejects_misnesting_and_orphans() {
        let misnested = r#"[{"name":"a","ph":"B","pid":1,"tid":0,"ts":0},
            {"name":"b","ph":"E","pid":1,"tid":0,"ts":1}]"#;
        assert!(validate_chrome_trace(misnested).is_err());
        let unclosed = r#"[{"name":"a","ph":"B","pid":1,"tid":0,"ts":0}]"#;
        assert!(validate_chrome_trace(unclosed).is_err());
        let orphan = r#"[{"name":"a","ph":"E","pid":1,"tid":0,"ts":0}]"#;
        assert!(validate_chrome_trace(orphan).is_err());
        assert!(validate_chrome_trace("not json").is_err());
    }

    #[test]
    fn metrics_schema_checks() {
        let good = r#"{"schema": "pipemap-metrics-v1", "metrics": {
            "a.count": {"type": "counter", "value": 3},
            "a.gauge": {"type": "gauge", "value": 1.5},
            "a.hist": {"type": "histogram", "count": 3, "sum": 6.0,
                       "buckets": [[2.0, 1], [4.0, 2]]}}}"#;
        assert_eq!(validate_metrics_json(good), Ok((3, 1)));
        assert!(matches!(
            validate_document(good),
            Ok(DocumentCheck::Metrics(3, 1))
        ));
        let neg = r#"{"schema": "pipemap-metrics-v1", "metrics": {
            "c": {"type": "counter", "value": -1}}}"#;
        assert!(validate_metrics_json(neg).is_err());
        let mismatch = r#"{"schema": "pipemap-metrics-v1", "metrics": {
            "h": {"type": "histogram", "count": 5, "sum": 1.0,
                  "buckets": [[2.0, 1]]}}}"#;
        assert!(validate_metrics_json(mismatch)
            .unwrap_err()
            .contains("sum to"));
        let unordered = r#"{"schema": "pipemap-metrics-v1", "metrics": {
            "h": {"type": "histogram", "count": 2, "sum": 1.0,
                  "buckets": [[4.0, 1], [2.0, 1]]}}}"#;
        assert!(validate_metrics_json(unordered).is_err());
    }

    #[test]
    fn report_schema_checks() {
        let good = r#"{"schema": "pipemap-solve-report-v1", "wall_us": 1000,
            "phases": [{"name": "solve", "total_us": 990, "count": 1}],
            "solve_phases": [], "features": [{"name": "branching", "value": 2.0}],
            "workers": [], "cut_rounds": [], "incumbents": [],
            "dropped_events": 0, "diagnosis": []}"#;
        assert_eq!(validate_solve_report(good), Ok((1, 1)));
        assert!(matches!(
            validate_document(good),
            Ok(DocumentCheck::Report(1, 1))
        ));
        let over = good.replace("\"total_us\": 990", "\"total_us\": 99000");
        assert!(validate_solve_report(&over).unwrap_err().contains("5%"));
        let neg = good.replace("\"total_us\": 990", "\"total_us\": -5");
        assert!(validate_solve_report(&neg).is_err());
        let rounds = good.replace(
            "\"cut_rounds\": []",
            "\"cut_rounds\": [{\"round\": 1, \"warm\": true, \"lp_iters\": 12}]",
        );
        assert_eq!(validate_solve_report(&rounds), Ok((1, 1)));
        let no_warm = rounds.replace("\"warm\": true", "\"warm\": 1");
        assert!(validate_solve_report(&no_warm)
            .unwrap_err()
            .contains("warm"));
        let negative = rounds.replace("\"lp_iters\": 12", "\"lp_iters\": -1");
        assert!(validate_solve_report(&negative)
            .unwrap_err()
            .contains("lp_iters"));
        let missing = good.replace("\"features\"", "\"featurez\"");
        assert!(validate_solve_report(&missing).is_err());
    }
}
