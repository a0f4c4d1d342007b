//! Tiny-size runs of every workload: every metric `BENCHMARK.json` names
//! is emitted with its unit, and a failed check is counted in
//! `error_rate` instead of aborting the run.

use pipemap_obs::json::{self, Value};
use pipemap_perfbench::metrics::{end_to_end, per_layer, per_layer_values, MetricDef};
use pipemap_perfbench::prove::Prove;
use pipemap_perfbench::search::Search;
use pipemap_perfbench::sweep::Sweep;
use pipemap_perfbench::{measure, result_json, run, Bench, Size, Workload};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

type Declared = Vec<(String, String, String)>;

fn declared(section: &str) -> Declared {
    let doc = benchmark_json();
    let list = doc.get(section).and_then(Value::as_arr).expect(section);
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn triples(defs: &[MetricDef]) -> Declared {
    defs.iter()
        .map(|d| (d.name.clone(), d.unit.to_string(), d.better.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    assert_eq!(declared("end_to_end"), triples(&end_to_end()));
    assert_eq!(declared("per_layer"), triples(&per_layer()));
    let doc = benchmark_json();
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}

/// Parse a result line and return its metrics by name, checking the
/// envelope and that exactly `defs` are present with their units.
fn check_line(line: &str, defs: &[MetricDef]) -> Value {
    let v = json::parse(line).expect("result line is JSON");
    let Value::Obj(top) = &v else {
        panic!("result is not an object: {line}")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let Some(Value::Obj(metrics)) = v.get("metrics") else {
        panic!("no metrics object")
    };
    assert_eq!(metrics.len(), defs.len(), "{line}");
    for d in defs {
        let m = metrics
            .get(&d.name)
            .unwrap_or_else(|| panic!("metric {} missing", d.name));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(d.unit),
            "{}",
            d.name
        );
        assert!(
            m.get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite),
            "{} has no finite value",
            d.name
        );
    }
    v
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for traced in [false, true] {
            let out = run(w, Size::Tiny, 7, 0.0, traced).expect("set-up");
            assert!(out.problems.is_empty(), "{}: {:?}", w.name(), out.problems);
            let defs = if traced { per_layer() } else { end_to_end() };
            let v = check_line(&result_json(&out, traced), &defs);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)), "{}", w.name());
            assert!(v.get("attempted").and_then(Value::as_f64) >= Some(1.0));
            if !traced {
                // Times and memory are never zero. (Area can be: tiny
                // designs fit one stage and need no registers.)
                for name in ["setup_s", "wall_s", "peak_rss_mb"] {
                    let x = v
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(Value::as_f64);
                    assert!(x > Some(0.0), "{}: {name} is {x:?}", w.name());
                }
            }
        }
    }
}

/// Run one traced round plus one untraced one and return the error rate.
fn error_rate(bench: &mut dyn Bench) -> (f64, u64) {
    let out = measure(bench, 0.0, true, &mut |_| {});
    let rate = per_layer_values(&out)["error_rate"];
    let line = result_json(&out, true);
    let v = check_line(&line, &per_layer());
    assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
    (rate, out.failed)
}

#[test]
fn wrong_expected_objective_counts_as_an_error() {
    let mut prove = Prove::setup(Size::Tiny, 3).expect("set-up");
    prove.designs[0].expected += 0.5;
    let (rate, failed) = error_rate(&mut prove);
    // Both rounds ran; the design failed its objective check in each,
    // the sweep passed.
    assert_eq!(failed, 2);
    assert!((rate - 0.5).abs() < 1e-12, "error rate {rate}");

    let mut sweep = Sweep::setup(Size::Tiny, 3).expect("set-up");
    sweep.expected[0] += 1.0;
    let (rate, _) = error_rate(&mut sweep);
    assert!(rate > 0.0);

    let mut search = Search::setup(Size::Tiny, 3).expect("set-up");
    // A "best known" objective below the proven bound is a failed check.
    search.designs[0].best_known = -1.0;
    let (rate, _) = error_rate(&mut search);
    assert!(rate > 0.0);
}
