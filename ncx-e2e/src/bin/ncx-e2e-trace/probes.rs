//! Per-layer probes of the traced run. Each probe is its own function,
//! timed from outside around public calls or read from counters the
//! program already exposes, so a later benchmark change can re-point one
//! probe when a refactor removes its target.

use ncexplorer::core::persist::LoadedSnapshot;
use ncexplorer::core::relevance::context::split_entities;
use ncexplorer::core::relevance::estimator::pair_seed;
use ncexplorer::core::relevance::{ConnEstimator, MemberSetCache};
use ncexplorer::core::{NcExplorer, NcxConfig, Parallelism, Pool};
use ncexplorer::kg::DocId;
use ncexplorer::obs::{Phase, QueryTrace};
use ncexplorer::reach::TargetDistanceOracle;
use ncexplorer::serve::{NcxServe, ServeConfig, ServeSession};
use ncx_e2e::inputs::Params;
use ncx_e2e::spans::Recorder;
use ncx_e2e::spec::{MetricSpec, Report};
use ncx_e2e::stats::{nearest_rank, percentile_us, Summary};
use ncx_e2e::workload::{
    copy_dir, proc_status_mb, LayerReadings, Run, SetUp, Workload, K, WORKLOADS,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct ProbeInput<'a> {
    pub wl: &'a Workload,
    pub params: &'a Params,
    pub setup: &'a SetUp,
    pub work: &'a Path,
    pub seed: u64,
    pub nproc: usize,
    /// What the traced replay saw.
    pub layer: &'a LayerReadings,
    pub spans: &'a Recorder,
    pub traced_qps: &'a [f64],
    /// Names and units of the end-to-end section, for the probes that
    /// replay a phase into a scratch report.
    pub end_to_end: &'a [MetricSpec],
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// After each answered request of the traced replay: the program's own
/// `QueryTrace` of it, as counts on the span just recorded.
pub fn record_query_trace(session: &ServeSession<'_>, spans: &mut Recorder) {
    let Some(trace) = session.last_trace() else {
        return;
    };
    for (key, phase) in [
        ("queue_wait_ns", Phase::QueueWait),
        ("cache_lookup_ns", Phase::CacheLookup),
        ("matching_ns", Phase::Matching),
        ("merge_rank_ns", Phase::MergeRank),
    ] {
        spans.count(key, trace.phase_nanos(phase) as f64);
    }
    if let Some(hit) = trace.cache_hit() {
        spans.count("cache_hit", f64::from(u8::from(hit)));
    }
}

/// Median over repetitions, or a counted failure when none completed.
fn put_reps(report: &mut Report, name: &str, reps: &[f64]) {
    if reps.is_empty() {
        report.fail(format!("`{name}`: the traced replay produced no reading"));
    } else {
        report.put(name, Summary::median_of(reps));
    }
}

impl ProbeInput<'_> {
    fn open(&self, par: Parallelism) -> NcExplorer {
        NcExplorer::open(
            &self.setup.snapshot,
            self.setup.inputs.kg.clone(),
            Workload::engine_config(par),
        )
        .expect("the set-up snapshot reopens")
    }

    fn build(&self, par: Parallelism) -> (NcExplorer, f64) {
        let store = self.setup.inputs.base.clone();
        let kg = self.setup.inputs.kg.clone();
        timed(|| NcExplorer::build(kg, store, Workload::engine_config(par)))
    }

    fn serve(&self, par: Parallelism, cache_capacity: usize) -> NcxServe {
        NcxServe::open_replicas(
            &self.setup.snapshot,
            self.setup.inputs.kg.clone(),
            Workload::engine_config(par),
            1,
            ServeConfig {
                cache_capacity,
                ..ServeConfig::default()
            },
        )
        .expect("the set-up snapshot serves")
    }

    /// Replays the explore phase of `wl` untraced, `reps` repetitions,
    /// into a scratch report and returns the median `queries_per_s`.
    fn explore_qps(&self, wl: &Workload, reps: usize, report: &mut Report) -> f64 {
        let mut scratch = Report::new(wl.name, self.end_to_end);
        let mut off = Recorder::new(false);
        let mut run = Run {
            wl,
            params: self.params,
            setup: self.setup,
            work: self.work,
            seed: self.seed,
            nproc: self.nproc,
            report: &mut scratch,
            rec: &mut off,
            after_request: None,
            numbers: Default::default(),
            layer: LayerReadings::default(),
        };
        let qps = run.measure_explore_only(reps);
        report.ops(scratch.attempted, scratch.failed, "probe replay operations");
        qps
    }
}

/// `text.link_us_per_doc`: `NlpPipeline::process` over the first 2 000
/// articles, one thread.
fn probe_text(p: &ProbeInput, report: &mut Report) {
    let nlp = p.setup.reference.nlp();
    let texts: Vec<String> = p
        .setup
        .inputs
        .base
        .iter()
        .take(2_000)
        .map(|a| a.full_text())
        .collect();
    let ((), seconds) = timed(|| {
        for text in &texts {
            black_box(nlp.process(black_box(text)));
        }
    });
    report.put(
        "text.link_us_per_doc",
        Summary::exact(us(seconds) / texts.len() as f64),
    );
}

/// `index.*`: the two passes of three warm builds (`IndexTiming` sums
/// CPU time over workers; medians), and the cold build of set-up with the
/// `VmRSS` growth across it. Returns the last engine built, for the probes
/// that read a built engine's counters.
fn probe_index(p: &ProbeInput, report: &mut Report) -> NcExplorer {
    let docs = p.params.articles as f64;
    let (mut link, mut score, mut wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..3 {
        drop(built.take());
        let (engine, _) = p.build(Parallelism::Auto);
        let timing = engine.index().timing;
        link.push(timing.entity_linking.as_secs_f64());
        score.push(timing.relevance_scoring.as_secs_f64());
        wall.push(timing.total_wall.as_secs_f64());
        built = Some(engine);
    }
    let built = built.expect("three builds ran");
    let link = Summary::median_of(&link).value;
    let score = Summary::median_of(&score).value;
    let wall = Summary::median_of(&wall).value;
    let width = Parallelism::Auto.workers() as f64;
    report.put("index.link_share", Summary::exact(link / (link + score)));
    report.put("index.score_us_per_doc", Summary::exact(us(score) / docs));
    report.put(
        "index.parallel_efficiency",
        Summary::exact((link + score) / (width * wall)),
    );
    report.put(
        "index.cold_build_docs_per_s",
        Summary::exact(docs / p.setup.facts.cold_build_s),
    );
    report.put(
        "index.rss_mb_per_1k_docs",
        Summary::exact(p.setup.facts.cold_build_rss_mb / (docs / 1e3)),
    );
    report.put(
        "index.postings_per_doc",
        Summary::exact(built.index().num_postings() as f64 / docs),
    );
    built
}

/// `walker.walks_per_s`: `ConnEstimator::estimate_conn_concept` over the
/// first 5 000 (document, concept) postings, one thread, after one
/// untimed pass that fills the distance oracle. The per-document counts
/// come from the built engine's `diagnostics()` and repeat exactly.
fn probe_walker(p: &ProbeInput, built: &NcExplorer, report: &mut Report) {
    let kg = &*p.setup.inputs.kg;
    let config = NcxConfig::default();
    let index = built.index();
    let mut pairs = Vec::with_capacity(5_000);
    'docs: for d in 0..index.num_docs() {
        let doc = DocId::from_index(d);
        for &(concept, _) in index.concepts_of_doc(doc) {
            let context = split_entities(kg, concept, index.entity_index.entities_of(doc)).context;
            pairs.push((doc, concept, context));
            if pairs.len() == 5_000 {
                break 'docs;
            }
        }
    }
    let oracle = Arc::new(TargetDistanceOracle::with_shards(
        config.tau,
        config.oracle_cache,
        config.oracle_shards,
    ));
    let estimator =
        ConnEstimator::with_budget(config.tau, config.beta, true, oracle, config.walk_budget)
            .with_member_cache(Arc::new(MemberSetCache::new()));
    let pass = || -> u64 {
        pairs
            .iter()
            .map(|(doc, concept, context)| {
                let seed = pair_seed(config.seed, doc.index() as u32, concept.raw());
                estimator
                    .estimate_conn_concept(kg, *concept, context, 25, seed)
                    .1
                    .walks
            })
            .sum()
    };
    pass();
    let (walks, seconds) = timed(pass);
    report.put("walker.walks_per_s", Summary::exact(walks as f64 / seconds));

    let stats = built.diagnostics().walk_stats;
    report.put(
        "walker.walks_per_doc",
        Summary::exact(stats.walks as f64 / p.params.articles as f64),
    );
    report.put(
        "walker.early_stop_share",
        Summary::exact(stats.early_stop_fraction()),
    );
}

/// `reach.bfs_us`: `TargetDistanceOracle::distances` on a cold oracle for
/// the first 500 instances. The hit rate is the built engine's.
fn probe_reach(p: &ProbeInput, built: &NcExplorer, report: &mut Report) {
    let kg = &*p.setup.inputs.kg;
    let config = NcxConfig::default();
    let oracle =
        TargetDistanceOracle::with_shards(config.tau, config.oracle_cache, config.oracle_shards);
    let targets: Vec<_> = kg.instances().take(500).collect();
    let ((), seconds) = timed(|| {
        for &t in &targets {
            black_box(oracle.distances(kg, t));
        }
    });
    report.put(
        "reach.bfs_us",
        Summary::exact(us(seconds) / targets.len() as f64),
    );
    report.put(
        "reach.oracle_hit_rate",
        Summary::exact(built.diagnostics().oracle.hit_rate()),
    );
}

/// `par.dispatch_us`: `Pool::run_batched` with a no-op closure over
/// 4 × width items on a pool as wide as the machine. `par.build_speedup`
/// and `par.query_speedup`: `Fixed(1)` wall over `Auto` wall, for a build
/// and for the explore-solo request stream.
fn probe_par(p: &ProbeInput, report: &mut Report) {
    let pool = Pool::new(p.nproc);
    let n = 4 * p.nproc;
    let rounds = 2_000;
    let ((), seconds) = timed(|| {
        for _ in 0..rounds {
            black_box(pool.run_batched(n, p.nproc, 1, black_box));
        }
    });
    report.put(
        "par.dispatch_us",
        Summary::exact(us(seconds) / rounds as f64),
    );

    let (_, sequential) = p.build(Parallelism::Fixed(1));
    let (_, parallel) = p.build(Parallelism::Auto);
    report.put("par.build_speedup", Summary::exact(sequential / parallel));

    // The explore-solo request stream on both pool widths.
    let solo = |par| Workload {
        explore_par: par,
        ..WORKLOADS[1]
    };
    let qps_sequential = p.explore_qps(&solo(Parallelism::Fixed(1)), 3, report);
    let qps_parallel = p.explore_qps(&solo(Parallelism::Auto), 3, report);
    report.put(
        "par.query_speedup",
        Summary::exact(qps_parallel / qps_sequential),
    );
}

/// `rollup.*`, `drilldown.*`, `progressive.*`: every pool query once,
/// after one untimed pass, on an engine with the workload's explore
/// parallelism. Matching and ranking are the two phases the program's own
/// `QueryTrace` times inside `NcExplorer::rollup_deadline_traced`.
fn probe_operators(p: &ProbeInput, report: &mut Report) {
    let engine = p.open(p.wl.explore_par);
    let pool = &p.setup.pool;
    let queries = pool.len() as f64;
    let (mut match_ns, mut rank_ns, mut classic_ns, mut progressive_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut postings, mut us_per_matched, mut candidates, mut walks) = (0usize, 0.0, 0usize, 0u64);
    for warm in [true, false] {
        for q in pool {
            let matched = engine.matched_docs(q);
            let trace = QueryTrace::new();
            let (_, t_rollup) =
                timed(|| black_box(engine.rollup_deadline_traced(q, K, None, &trace)));
            let (_, t_drill) = timed(|| black_box(engine.drilldown(q, K)));
            let (racing, t_progressive) = timed(|| engine.rollup_progressive(q, K, None));
            if warm {
                continue;
            }
            match_ns.push(trace.phase_nanos(Phase::Matching));
            rank_ns.push(trace.phase_nanos(Phase::MergeRank));
            classic_ns.push((t_rollup * 1e9) as u64);
            progressive_ns.push((t_progressive * 1e9) as u64);
            postings += q
                .concepts()
                .iter()
                .map(|&c| engine.index().postings(c).len())
                .sum::<usize>();
            us_per_matched += us(t_drill) / matched.len().max(1) as f64;
            candidates += engine.drilldown_progressive(q, K, None).candidates;
            walks += racing.walks;
        }
    }
    let classic = percentile_us(&mut classic_ns, 50.0);
    let progressive = percentile_us(&mut progressive_ns, 50.0);
    report.put(
        "rollup.match_us_p50",
        Summary::exact(percentile_us(&mut match_ns, 50.0)),
    );
    report.put(
        "rollup.rank_us_p50",
        Summary::exact(percentile_us(&mut rank_ns, 50.0)),
    );
    report.put(
        "rollup.postings_per_query",
        Summary::exact(postings as f64 / queries),
    );
    report.put(
        "drilldown.us_per_matched_doc",
        Summary::exact(us_per_matched / queries),
    );
    report.put(
        "drilldown.candidates_per_query",
        Summary::exact(candidates as f64 / queries),
    );
    report.put("progressive.rollup_p50_us", Summary::exact(progressive));
    report.put(
        "progressive.walks_per_query",
        Summary::exact(walks as f64 / queries),
    );
    report.put(
        "progressive.over_classic",
        Summary::exact(progressive / classic),
    );
}

/// `serve.hit_ns_p50`: `ServeSession::rollup` on a key cached by the call
/// before. `serve.miss_overhead_us`: with the cache off, the served
/// roll-up minus the engine's own roll-up of the same query, median over
/// the pool. The cache and queue readings are the replay's.
fn probe_serve(p: &ProbeInput, report: &mut Report) {
    let pool = &p.setup.pool;
    let cached = p.serve(p.wl.explore_par, ServeConfig::default().cache_capacity);
    let session = cached.session();
    let mut hit_ns = Vec::with_capacity(pool.len());
    for q in pool {
        let filled = session.rollup(q, K).is_ok();
        let (hit, seconds) = timed(|| session.rollup(q, K));
        report.ops(
            2,
            u64::from(!filled) + u64::from(hit.is_err()),
            "probe roll-ups",
        );
        hit_ns.push((seconds * 1e9) as u64);
    }
    hit_ns.sort_unstable();
    report.put(
        "serve.hit_ns_p50",
        Summary::exact(nearest_rank(&hit_ns, 50.0) as f64),
    );

    let uncached = p.serve(p.wl.explore_par, 0);
    let session = uncached.session();
    let mut overhead_us = Vec::with_capacity(pool.len());
    for warm in [true, false] {
        for q in pool {
            let (served, t_served) = timed(|| session.rollup(q, K));
            let (_, t_engine) = timed(|| uncached.with_engine(|e| black_box(e.rollup(q, K))));
            if !warm {
                report.ops(1, u64::from(served.is_err()), "probe roll-ups");
                overhead_us.push(us(t_served - t_engine));
            }
        }
    }
    report.put(
        "serve.miss_overhead_us",
        Summary::exact(Summary::median_of(&overhead_us).value),
    );

    let mut queue_wait: Vec<u64> = p
        .spans
        .counts_of("queue_wait_ns")
        .map(|ns| ns as u64)
        .collect();
    if queue_wait.is_empty() {
        report.fail("`serve.queue_wait_us_p95`: the traced replay recorded no request");
    } else {
        report.put(
            "serve.queue_wait_us_p95",
            Summary::exact(percentile_us(&mut queue_wait, 95.0)),
        );
    }
    put_reps(report, "serve.cache_hit_rate", &p.layer.cache_hit_rate);
    put_reps(report, "serve.cache_evictions", &p.layer.cache_evictions);
    put_reps(
        report,
        "serve.cache_invalidations",
        &p.layer.cache_invalidations,
    );
}

/// `ingest.link_us`, `ingest.score_us`: `IndexTiming` deltas across each
/// `NcExplorer::ingest_article` of the held-out stream, medians.
/// `serve.ingest_p50_us`/`p95`: due time → return of
/// `NcxServe::ingest_article` over every article the replay sent (beside
/// the reader on `explore-ingest`, back to back elsewhere).
/// `serve.ingest_lock_wait_us_p50`: the replay's median call minus the
/// median engine call.
fn probe_ingest(p: &ProbeInput, report: &mut Report) {
    let mut engine = p.open(p.wl.explore_par);
    let held_out = &p.setup.inputs.held_out;
    let (mut link, mut score, mut call) = (Vec::new(), Vec::new(), Vec::new());
    for a in held_out {
        let before = engine.index().timing;
        let ((), seconds) = timed(|| {
            engine.ingest_article(a.source, a.title.clone(), a.body.clone(), a.published);
        });
        let after = engine.index().timing;
        link.push(us(
            (after.entity_linking - before.entity_linking).as_secs_f64()
        ));
        score.push(us(
            (after.relevance_scoring - before.relevance_scoring).as_secs_f64()
        ));
        call.push(us(seconds));
    }
    report.put(
        "ingest.link_us",
        Summary::exact(Summary::median_of(&link).value),
    );
    report.put(
        "ingest.score_us",
        Summary::exact(Summary::median_of(&score).value),
    );

    let (mut latency, mut served, mut lateness) = (
        p.layer.ingest_latency_ns.clone(),
        p.layer.ingest_call_ns.clone(),
        p.layer.ingest_lateness_ns.clone(),
    );
    if latency.is_empty() {
        report.fail("`serve.ingest_*`: the traced replay ingested nothing");
        return;
    }
    report.put(
        "serve.ingest_p50_us",
        Summary::exact(percentile_us(&mut latency, 50.0)),
    );
    report.put(
        "serve.ingest_p95_us",
        Summary::exact(percentile_us(&mut latency, 95.0)),
    );
    report.put(
        "serve.ingest_lock_wait_us_p50",
        Summary::exact(percentile_us(&mut served, 50.0) - Summary::median_of(&call).value),
    );
    report.put(
        "gen.ingest_lateness_us_p95",
        Summary::exact(percentile_us(&mut lateness, 95.0)),
    );
}

/// `store.*`: save (set-up's own), the two halves of an eager open, a
/// lazy open to its first answer, delta flushes of one checkpoint's worth
/// of articles, and the compaction that folds them.
fn probe_store(p: &ProbeInput, report: &mut Report) {
    let kg = &p.setup.inputs.kg;
    let save_s = Summary::median_of(&p.setup.facts.save_s).value;
    report.put("store.save_ms", Summary::exact(ms(save_s)));
    report.put(
        "store.save_mb_per_s",
        Summary::exact(p.setup.facts.snapshot_bytes as f64 / 1e6 / save_s),
    );

    let (mut load, mut decode, mut lazy_open, mut lazy_answer) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let (loaded, t_load) = timed(|| LoadedSnapshot::load(&p.setup.snapshot, kg));
        let decoded = loaded.and_then(|l| {
            let (parts, t_decode) = timed(|| l.decode());
            parts.map(|_| t_decode)
        });
        report.ops(1, u64::from(decoded.is_err()), "probe snapshot loads");
        load.push(ms(t_load));
        decode.push(ms(decoded.unwrap_or(f64::NAN)));

        let config = Workload::engine_config(p.wl.explore_par);
        let (lazy, t_open) = timed(|| NcExplorer::open_lazy(&p.setup.snapshot, kg.clone(), config));
        let answered = lazy.ok().and_then(|engine| {
            let (hits, t_answer) = timed(|| engine.rollup(&p.setup.pool[0], K));
            (!hits.is_empty()).then_some(t_answer)
        });
        report.ops(1, u64::from(answered.is_none()), "probe lazy opens");
        lazy_open.push(ms(t_open));
        lazy_answer.push(ms(t_open + answered.unwrap_or(f64::NAN)));
    }
    report.put("store.load_ms", Summary::median_of(&load));
    report.put("store.decode_ms", Summary::median_of(&decode));
    report.put("store.lazy_open_ms", Summary::median_of(&lazy_open));
    report.put(
        "store.lazy_first_answer_ms",
        Summary::median_of(&lazy_answer),
    );

    let dir = p.work.join("probe-store");
    copy_dir(&p.setup.snapshot, &dir);
    let mut engine = NcExplorer::open(&dir, kg.clone(), Workload::engine_config(Parallelism::Auto))
        .expect("the copied snapshot reopens");
    let mut flush = Vec::new();
    for chunk in p
        .setup
        .inputs
        .held_out
        .chunks(p.params.checkpoint_every)
        .take(4)
    {
        for a in chunk {
            engine.ingest_article(a.source, a.title.clone(), a.body.clone(), a.published);
        }
        let (outcome, seconds) = timed(|| engine.flush_delta(&dir));
        report.ops(1, u64::from(outcome.is_err()), "probe flushes");
        flush.push(ms(seconds));
    }
    report.put("store.flush_ms_per_125_docs", Summary::median_of(&flush));
    let (compacted, seconds) = timed(|| NcExplorer::compact(&dir, kg));
    report.ops(
        1,
        u64::from(!compacted.is_ok_and(|c| c.compacted)),
        "probe compactions",
    );
    report.put("store.compact_ms", Summary::exact(ms(seconds)));

    put_reps(
        report,
        "store.checkpoint_stall_ms_max",
        &p.layer.checkpoint_ms_max,
    );
    put_reps(report, "store.write_amp", &p.layer.write_amp);
}

/// `obs.trace_overhead_pct`: `queries_per_s` of the workload's explore
/// phase replayed with the recorder off, against the traced replay's —
/// medians over the same number of repetitions.
fn probe_trace_overhead(p: &ProbeInput, report: &mut Report) {
    if p.traced_qps.is_empty() {
        report.fail("`obs.trace_overhead_pct`: the traced replay completed no explore repetition");
        return;
    }
    let traced = Summary::median_of(p.traced_qps).value;
    let untraced = p.explore_qps(p.wl, p.traced_qps.len(), report);
    report.put(
        "obs.trace_overhead_pct",
        Summary::exact((untraced - traced) / untraced * 100.0),
    );
}

/// `proc.exit_hwm_mb`: `VmHWM` when everything has run — what the issue
/// called `peak_rss_mb`. It is not gated: it moves by a third between
/// runs of one seed with which allocator arena served which build.
fn probe_process(report: &mut Report) {
    match proc_status_mb("VmHWM:") {
        Some(mb) => report.put("proc.exit_hwm_mb", Summary::exact(mb)),
        None => report.fail("VmHWM is not readable from /proc/self/status"),
    }
}

pub fn run_all(p: &ProbeInput, report: &mut Report) {
    probe_text(p, report);
    let built = probe_index(p, report);
    probe_walker(p, &built, report);
    probe_reach(p, &built, report);
    drop(built);
    probe_par(p, report);
    probe_operators(p, report);
    probe_serve(p, report);
    probe_ingest(p, report);
    probe_store(p, report);
    probe_trace_overhead(p, report);
    probe_process(report);
}
