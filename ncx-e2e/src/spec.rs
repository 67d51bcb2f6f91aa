//! `BENCHMARK.json` is the one list of workloads, metric names and units.
//! It is compiled in; [`Report`] refuses a name it does not list and
//! reports a listed name that was never measured, so what this binary
//! prints cannot drift from what the driver expects.

use crate::json::Json;
use crate::stats::Summary;
use std::fmt::Write;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        let root = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names = |key: &str, field: &str| -> Vec<String> {
            root.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json has an array `{key}`"))
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| panic!("`{key}` entries have a string `{field}`"))
                        .to_string()
                })
                .collect()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            for better in names(key, "better") {
                assert!(
                    better == "higher" || better == "lower",
                    "`better` is `{better}`, not higher or lower"
                );
            }
            names(key, "name")
                .into_iter()
                .zip(names(key, "unit"))
                .map(|(name, unit)| MetricSpec { name, unit })
                .collect()
        };
        Spec {
            workloads: names("workloads", "name"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// Collects one run's metrics and operation counts and renders them.
pub struct Report<'s> {
    workload: String,
    section: &'s [MetricSpec],
    rows: Vec<(usize, Summary)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl<'s> Report<'s> {
    pub fn new(workload: &str, section: &'s [MetricSpec]) -> Self {
        Self {
            workload: workload.to_string(),
            section,
            rows: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records a metric. A name `BENCHMARK.json` does not list, or one
    /// recorded twice, is a bug in this binary.
    pub fn put(&mut self, name: &str, summary: Summary) {
        let idx = self
            .section
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in BENCHMARK.json"));
        assert!(
            self.rows.iter().all(|(i, _)| *i != idx),
            "metric `{name}` recorded twice"
        );
        self.rows.push((idx, summary));
    }

    /// Records the median of a timed metric's repetitions; none is a
    /// counted failure.
    pub fn put_median(&mut self, name: &str, reps: &[f64]) {
        if reps.is_empty() {
            self.fail(format!("`{name}`: no repetition completed correctly"));
        } else {
            self.put(name, Summary::median_of(reps));
        }
    }

    /// Counts one attempted operation (or check) that went wrong.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Counts `n` attempted operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{bad} of {n} {what} failed"));
        }
    }

    /// Counts an untimed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what());
        }
    }

    /// Renders one line per metric, one operations line, and the result
    /// line the driver reads last. Returns the text and whether the run
    /// is correct: nothing failed, every listed metric is present, and
    /// every value is a finite number.
    pub fn render(mut self) -> (String, bool) {
        self.rows.sort_by_key(|(i, _)| *i);
        for (i, spec) in self.section.iter().enumerate() {
            if self.rows.iter().all(|(j, _)| *j != i) {
                self.fail(format!("metric `{}` was not measured", spec.name));
            }
        }
        for (i, s) in &self.rows {
            if !s.value.is_finite() {
                let name = &self.section[*i].name;
                self.failed += 1;
                self.failures.push(format!("metric `{name}` is not finite"));
            }
        }
        let correct = self.failed == 0;
        let mut out = String::new();
        let mut metrics = String::new();
        for (i, s) in &self.rows {
            let MetricSpec { name, unit } = &self.section[*i];
            writeln!(
                out,
                "{{\"workload\": \"{}\", \"name\": \"{name}\", \"value\": {}, \"unit\": \"{unit}\", \
                 \"samples\": {}, \"min\": {}, \"max\": {}}}",
                self.workload,
                num(s.value),
                s.samples,
                num(s.min),
                num(s.max)
            )
            .unwrap();
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(s.value)
            )
            .unwrap();
        }
        writeln!(
            out,
            "{{\"workload\": \"{}\", \"ops_attempted\": {}, \"ops_failed\": {}}}",
            self.workload, self.attempted, self.failed
        )
        .unwrap();
        writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
        .unwrap();
        (out, correct)
    }
}

/// A JSON number with all of the value's digits; a non-finite value
/// (already counted as a failure) prints as -1.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}
