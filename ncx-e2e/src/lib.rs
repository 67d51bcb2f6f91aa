//! The repo benchmark. See `README.md` beside this package and
//! `BENCHMARK.json` at the repo root.
//!
//! ```text
//! bash ncx-e2e/run.sh --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the `ncx-e2e` binary: [`end_to_end`] measures the
//! gated metrics and records no span. `--trace 1` runs `ncx-e2e-trace`,
//! which replays the same workload with spans on, runs the layer probes
//! and reports the per-layer metrics. The last line of standard output is
//! the result object the driver reads; the exit code is non-zero when any
//! operation or correctness check failed.
//!
//! This library is what the two binaries share: input generation, the
//! workloads and their phases, the span recorder and the report. It calls
//! the product through the facade only (see `workload.rs`).

pub mod cli;
pub mod inputs;
pub mod json;
pub mod spans;
pub mod spec;
pub mod stats;
#[doc(hidden)]
pub mod testkit;
#[cfg(test)]
mod tests;
pub mod workload;

use cli::Args;
use inputs::Params;
use spans::Recorder;
use spec::{Report, Spec};
use stats::Summary;
use std::path::Path;
use workload::{nproc, set_up, thread_rule, Run, SetUp, Workload};

/// The `#` line every run starts with.
pub fn preface(wl: &Workload, seed: u64, setup: &SetUp, nproc: usize) -> String {
    format!(
        "# {} seed {seed}: corpus fingerprint {:016x}, {} pool queries, {nproc} cores\n",
        wl.name,
        setup.inputs.fingerprint,
        setup.pool.len()
    )
}

/// Runs one workload untraced and returns what to print and whether it is
/// correct.
pub fn end_to_end(
    args: &Args,
    params: &Params,
    spec: &Spec,
    wl: &Workload,
    work: &Path,
) -> Result<(String, bool), String> {
    let nproc = nproc();
    thread_rule(wl.generators(nproc), wl.explore_par.workers(), nproc)?;

    let mut report = Report::new(wl.name, &spec.end_to_end);
    let mut rec = Recorder::new(false);
    let (setup, setup_seconds) = set_up(args.seed, params, wl, work, &mut report, &mut rec);
    let mut run = Run {
        wl,
        params,
        setup: &setup,
        work,
        seed: args.seed,
        nproc,
        report: &mut report,
        rec: &mut rec,
        after_request: None,
        numbers: Default::default(),
        layer: Default::default(),
    };
    run.measure(args.seconds);
    let notes = format!(
        "# timed phases: {:.1} s of --seconds {}\n",
        run.numbers.timed_s, args.seconds
    ) + &layer_notes(wl, run.layer);

    report.put("setup_s", Summary::median_of(&setup_seconds));
    // Not finite (a counted failure) where /proc/self/status has no VmHWM.
    report.put("peak_rss_mb", Summary::exact(setup.facts.first_pass_hwm_mb));
    for why in &report.failures {
        eprintln!("FAILED: {why}");
    }
    let (text, correct) = report.render();
    Ok((
        preface(wl, args.seed, &setup, nproc) + &notes + &text,
        correct,
    ))
}

/// `#` lines with what the untraced run saw of the layers, for a reader;
/// the per-layer metrics themselves come from the traced run.
fn layer_notes(wl: &Workload, mut layer: workload::LayerReadings) -> String {
    let mut notes = String::new();
    if wl.cached && !layer.cache_hit_rate.is_empty() {
        notes += &format!(
            "# cache hit share, median of repetitions: {:.3}\n",
            Summary::median_of(&layer.cache_hit_rate).value
        );
    }
    if !layer.ingest_latency_ns.is_empty() {
        notes += &format!(
            "# open-loop ingest beside the session: {} articles, due -> queryable p50 {:.0} us, p95 {:.0} us\n",
            layer.ingest_latency_ns.len(),
            stats::percentile_us(&mut layer.ingest_latency_ns, 50.0),
            stats::percentile_us(&mut layer.ingest_latency_ns, 95.0),
        );
    }
    notes
}
