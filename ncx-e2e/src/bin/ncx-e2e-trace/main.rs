//! The traced run: replays one workload at the same size with spans on,
//! runs one probe per layer metric, prints a self-time table, writes the
//! spans to `ncx-e2e/work/trace-<workload>-<seed>.jsonl` and reports the
//! per-layer metrics. No gated number comes from this binary, and every
//! call that reaches past the product's facade lives in `probes.rs`.

mod probes;
#[cfg(test)]
mod tests;

use ncx_e2e::cli::{work_root, Args};
use ncx_e2e::inputs::Params;
use ncx_e2e::spans::Recorder;
use ncx_e2e::spec::{Report, Spec};
use ncx_e2e::workload::{nproc, set_up, thread_rule, Run, Workload};
use std::path::Path;

/// Runs one workload traced and returns what to print and whether it is
/// correct.
fn traced(
    args: &Args,
    params: &Params,
    spec: &Spec,
    wl: &Workload,
    work: &Path,
) -> Result<(String, bool), String> {
    let nproc = nproc();
    thread_rule(wl.generators(nproc), wl.explore_par.workers(), nproc)?;

    // The replay's end-to-end numbers land here and are not reported.
    let mut replay = Report::new(wl.name, &spec.end_to_end);
    let mut rec = Recorder::new(true);
    let (setup, _) = set_up(args.seed, params, wl, work, &mut replay, &mut rec);
    let mut run = Run {
        wl,
        params,
        setup: &setup,
        work,
        seed: args.seed,
        nproc,
        report: &mut replay,
        rec: &mut rec,
        after_request: Some(probes::record_query_trace),
        numbers: Default::default(),
        layer: Default::default(),
    };
    run.measure(args.seconds);
    if !wl.open_loop_ingest {
        // The write path unloaded, so every workload has ingest readings.
        run.ingest_rep(true);
    }
    let (numbers, layer) = (run.numbers, run.layer);

    let mut layers = Report::new(wl.name, &spec.per_layer);
    (layers.attempted, layers.failed) = (replay.attempted, replay.failed);
    layers.failures = std::mem::take(&mut replay.failures);
    probes::run_all(
        &probes::ProbeInput {
            wl,
            params,
            setup: &setup,
            work,
            seed: args.seed,
            nproc,
            layer: &layer,
            spans: &rec,
            traced_qps: &numbers.queries_per_s,
            end_to_end: &spec.end_to_end,
        },
        &mut layers,
    );

    let path = work_root().join(format!("trace-{}-{}.jsonl", wl.name, args.seed));
    rec.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let mut preface = ncx_e2e::preface(wl, args.seed, &setup, nproc);
    preface += &format!(
        "# {} spans written to {}\n",
        rec.count_spans(),
        path.display()
    );
    for line in rec.self_time_table().lines() {
        preface += &format!("# {line}\n");
    }
    for why in &layers.failures {
        eprintln!("FAILED: {why}");
    }
    let (text, correct) = layers.render();
    Ok((preface + &text, correct))
}

fn main() -> std::process::ExitCode {
    ncx_e2e::cli::main_with(traced, true)
}
