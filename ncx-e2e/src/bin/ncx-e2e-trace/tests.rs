//! Smoke test of the traced run: every workload at 500 articles and one
//! repetition reports exactly the per-layer metrics `BENCHMARK.json`
//! lists, and writes its span file.

use crate::traced;
use ncx_e2e::cli::{work_root, Args};
use ncx_e2e::inputs::Params;
use ncx_e2e::spec::Spec;
use ncx_e2e::testkit::assert_reports;
use ncx_e2e::workload::{fresh_dir, Reps, Workload, WORKLOADS};

#[test]
fn every_workload_reports_exactly_the_listed_layer_metrics() {
    let spec = Spec::load();
    for wl in &WORKLOADS {
        let args = Args {
            workload: wl.name.to_string(),
            seed: 7,
            seconds: 1.0,
            trace: true,
        };
        let once = Workload {
            reps: Reps::ONE,
            ..*wl
        };
        let work = fresh_dir(&work_root().join(format!("test-trace-{}", wl.name)));
        let (text, correct) =
            traced(&args, &Params::smoke(), &spec, &once, &work).expect("run starts");
        let _ = std::fs::remove_dir_all(&work);
        assert!(correct, "{} is not correct:\n{text}", wl.name);
        assert_reports(&text, wl.name, &spec.per_layer, false);

        let spans = work_root().join(format!("trace-{}-7.jsonl", wl.name));
        let written = std::fs::read_to_string(&spans).expect("the span file is written");
        let _ = std::fs::remove_file(&spans);
        assert!(written.lines().count() > 100, "{}: few spans", wl.name);
        assert!(written.contains("\"name\": \"serve.rollup\""));
    }
}
