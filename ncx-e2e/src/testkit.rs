//! What the smoke tests of both binaries check about a run's output.

use crate::json::Json;
use crate::spec::MetricSpec;

/// Panics unless `text` is what a correct run of `workload` prints for
/// `section` of `BENCHMARK.json`: one line per listed metric, in order,
/// with the listed unit and finite numbers; an operations line with no
/// failure; and last the result object with exactly the contract's keys.
/// End-to-end metrics must be positive; a layer count may be 0.
pub fn assert_reports(text: &str, workload: &str, section: &[MetricSpec], positive: bool) {
    let lines: Vec<Json> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("line `{l}` is not JSON: {e}")))
        .collect();
    let (result, rest) = lines.split_last().expect("a result line");
    let (ops, metric_lines) = rest.split_last().expect("an operations line");
    assert_eq!(ops.get("ops_failed").and_then(Json::as_f64), Some(0.0));
    assert!(ops.get("ops_attempted").and_then(Json::as_f64).unwrap() >= 1.0);

    let printed: Vec<(String, String)> = metric_lines
        .iter()
        .map(|m| {
            assert_eq!(m.get("workload").and_then(Json::as_str), Some(workload));
            for field in ["value", "min", "max", "samples"] {
                let v = m.get(field).and_then(Json::as_f64).expect("numeric field");
                assert!(v.is_finite(), "{workload}: {m:?}");
            }
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();
    let listed: Vec<(String, String)> = section
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    assert_eq!(printed, listed, "{workload}");

    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = result.get("metrics").expect("metrics object");
    assert_eq!(
        metrics.keys(),
        listed.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
    );
    for (name, unit) in &listed {
        let m = metrics.get(name).unwrap();
        assert_eq!(m.keys(), ["value", "unit"]);
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        let value = m.get("value").and_then(Json::as_f64).unwrap();
        assert!(!positive || value > 0.0, "{workload} {name} = {value}");
    }
}
