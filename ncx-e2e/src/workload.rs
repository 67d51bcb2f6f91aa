//! The four workloads, the set-up they share, and the four timed phases.
//!
//! Every run must report every end-to-end metric, so every workload runs
//! every phase — but a workload spends its time on the phases it exists
//! to measure ([`Reps`]) and gives the others a few repetitions only.
//! What else a workload chooses is the explore phase's inputs: the pool
//! width behind `NcxServe`, how many sessions explore, whether the cache
//! is on, the request mix, and whether articles arrive beside the queries.
//! Each phase is a warm-up plus a fixed number of repetitions that replay
//! the same inputs from the same starting state; a metric is the median
//! over repetitions.
//!
//! This file calls the product only through the facade the ROADMAP keeps
//! (`NcExplorer::{build, save, open, checkpoint, ingest_article, query,
//! rollup, drilldown}`, `NcxServe::{open_replicas, session,
//! ingest_article, stats}`, `ServeSession::{rollup, drilldown}`) and a few
//! size accessors for the correctness checks. Whatever reaches deeper
//! lives in the `ncx-e2e-trace` binary.

use crate::inputs::{query_pool, skewed_stream, uniform_stream, Inputs, Op, Params, Request, Rng};
use crate::spans::{Recorder, SpanId};
use crate::spec::Report;
use crate::stats::{percentile_us, Summary};
use ncexplorer::core::drilldown::Subtopic;
use ncexplorer::core::rollup::RollupHit;
use ncexplorer::core::{ConceptQuery, NcExplorer, NcxConfig, Parallelism};
use ncexplorer::index::NewsArticle;
use ncexplorer::serve::{NcxServe, ServeConfig, ServeSession, ServeStats};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Result size of every roll-up and drill-down.
pub const K: usize = 10;

/// Requests generated per session beside the open-loop ingest: the
/// session runs until the ingest schedule ends, and this never runs out
/// first.
const BESIDE_INGEST_STREAM: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sessions {
    One,
    /// One closed-loop session per available core.
    PerCore,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Uniform,
    Skewed,
}

/// Timed repetitions of each phase in one run. The counts are fixed: a
/// median over a count that depended on how fast the machine or the code
/// under test is would tie every metric to every other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reps {
    pub build: usize,
    pub open: usize,
    pub durable: usize,
    pub explore: usize,
}

impl Reps {
    /// The smoke tests' size.
    pub const ONE: Reps = Reps {
        build: 1,
        open: 1,
        durable: 1,
        explore: 1,
    };

    fn most(&self) -> usize {
        self.build
            .max(self.open)
            .max(self.durable)
            .max(self.explore)
    }

    /// Whether a phase with `r` repetitions runs in cycle `i` of `cycles`:
    /// in `r` of them, evenly spaced, the first of them cycle 0.
    pub fn due(r: usize, i: usize, cycles: usize) -> bool {
        (i * r).div_ceil(cycles) < ((i + 1) * r).div_ceil(cycles)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Pool width of the engine behind `NcxServe`. Build, open and durable
    /// ingest always run the shipped default (`Auto`).
    pub explore_par: Parallelism,
    pub sessions: Sessions,
    pub cached: bool,
    pub mix: Mix,
    /// Articles arrive on a fixed schedule beside the queries.
    pub open_loop_ingest: bool,
    pub reps: Reps,
}

/// Why each exists is in `BENCHMARK.json` and the README. The repetition
/// counts are sized so that the timed part of a run fits `run_seconds`
/// (20 s) on the two cores this was written on; see the README's budget.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "build-open",
        // Serving is not what this workload measures; the explore numbers
        // it has to report are the sequential reference: one session, no
        // cache, no fan-out.
        explore_par: Parallelism::Fixed(1),
        sessions: Sessions::One,
        cached: false,
        mix: Mix::Uniform,
        open_loop_ingest: false,
        reps: Reps {
            build: 9,
            open: 15,
            durable: 15,
            explore: 3,
        },
    },
    Workload {
        name: "explore-solo",
        explore_par: Parallelism::Auto,
        sessions: Sessions::One,
        cached: false,
        mix: Mix::Uniform,
        open_loop_ingest: false,
        reps: Reps {
            build: 3,
            open: 3,
            durable: 3,
            explore: 7,
        },
    },
    Workload {
        name: "explore-shared",
        explore_par: Parallelism::Fixed(1),
        sessions: Sessions::PerCore,
        cached: true,
        mix: Mix::Skewed,
        open_loop_ingest: false,
        reps: Reps {
            build: 3,
            open: 3,
            durable: 3,
            explore: 9,
        },
    },
    Workload {
        name: "explore-ingest",
        explore_par: Parallelism::Fixed(1),
        sessions: Sessions::One,
        cached: true,
        mix: Mix::Skewed,
        open_loop_ingest: true,
        reps: Reps {
            build: 3,
            open: 3,
            durable: 3,
            explore: 5,
        },
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn session_count(&self, nproc: usize) -> usize {
        match self.sessions {
            Sessions::One => 1,
            Sessions::PerCore => nproc,
        }
    }

    /// Threads that generate load during the explore phase.
    pub fn generators(&self, nproc: usize) -> usize {
        self.session_count(nproc) + usize::from(self.open_loop_ingest)
    }

    /// Shipped defaults except `samples: 25` and the stated pool width.
    pub fn engine_config(par: Parallelism) -> NcxConfig {
        NcxConfig {
            samples: 25,
            parallelism: par,
            ..NcxConfig::default()
        }
    }

    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            cache_capacity: if self.cached {
                ServeConfig::default().cache_capacity
            } else {
                0
            },
            ..ServeConfig::default()
        }
    }
}

/// Rule 1: load generators plus the pool's extra workers must fit the
/// cores, or the numbers measure the scheduler.
pub fn thread_rule(generators: usize, pool_width: usize, nproc: usize) -> Result<(), String> {
    let threads = generators + pool_width.saturating_sub(1);
    if threads <= nproc {
        Ok(())
    } else {
        Err(format!(
            "thread rule: {generators} generator thread(s) + pool width {pool_width} needs \
             {threads} cores, this machine has {nproc}"
        ))
    }
}

/// Rule 5: a percentile that sits near the share of requests served from
/// the cache flips between a hit's cost and a miss's cost from run to
/// run. Both reported ranks must keep ten points from that boundary.
pub fn hit_boundary_rule(hit_share: f64) -> Result<(), String> {
    let boundary = hit_share * 100.0;
    for rank in [50.0, 95.0] {
        if (boundary - rank).abs() < 10.0 {
            return Err(format!(
                "hit/miss boundary at {boundary:.1} % is within 10 points of p{rank:.0}"
            ));
        }
    }
    Ok(())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------
// Answers and the reference they must equal.

/// One answer reduced to what is compared: per item an id, the score and
/// a count (roll-up: document, score, number of matches; drill-down:
/// concept, score, matching documents).
#[derive(Debug, Clone, PartialEq)]
pub struct Answer(Vec<(u64, f64, u64)>);

impl Answer {
    pub fn of_rollup(hits: &[RollupHit]) -> Answer {
        Answer(
            hits.iter()
                .map(|h| (h.doc.index() as u64, h.score, h.matches.len() as u64))
                .collect(),
        )
    }

    pub fn of_drilldown(subtopics: &[Subtopic]) -> Answer {
        Answer(
            subtopics
                .iter()
                .map(|s| (u64::from(s.concept.raw()), s.score, s.matching_docs as u64))
                .collect(),
        )
    }

    /// Ids, counts and order must be identical. Roll-up scores must agree
    /// in every bit. Drill-down scores are sums whose order follows the
    /// pool width, so across widths the program promises (and
    /// `tests/scale.rs` asserts) 1e-9 relative, which is what is checked.
    pub fn same(&self, other: &Answer, op: Op) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| {
                let score = match op {
                    Op::Rollup => a.1.to_bits() == b.1.to_bits(),
                    Op::Drilldown => (a.1 - b.1).abs() <= 1e-9 * a.1.abs().max(1.0),
                };
                a.0 == b.0 && a.2 == b.2 && score
            })
    }
}

/// The answer of an engine called directly; with the `Fixed(1)` engine
/// opened from the set-up snapshot it is the reference every served
/// answer must equal.
pub fn engine_answer(engine: &NcExplorer, pool: &[ConceptQuery], (op, q): Request) -> Answer {
    match op {
        Op::Rollup => Answer::of_rollup(&engine.rollup(&pool[q], K)),
        Op::Drilldown => Answer::of_drilldown(&engine.drilldown(&pool[q], K)),
    }
}

fn served_answer(
    session: &ncexplorer::serve::ServeSession,
    pool: &[ConceptQuery],
    (op, q): Request,
) -> Option<Answer> {
    match op {
        Op::Rollup => session
            .rollup(&pool[q], K)
            .ok()
            .map(|h| Answer::of_rollup(&h)),
        Op::Drilldown => session
            .drilldown(&pool[q], K)
            .ok()
            .map(|s| Answer::of_drilldown(&s)),
    }
}

/// Reference answers, computed on first need and kept.
struct Verifier<'a> {
    reference: &'a NcExplorer,
    pool: &'a [ConceptQuery],
    memo: Mutex<HashMap<Request, Answer>>,
}

impl Verifier<'_> {
    fn matches(&self, request: Request, answer: &Answer) -> bool {
        let mut memo = self.memo.lock().expect("no verifier panicked");
        memo.entry(request)
            .or_insert_with(|| engine_answer(self.reference, self.pool, request))
            .same(answer, request.0)
    }
}

// ---------------------------------------------------------------------
// Set-up.

/// Readings taken while setting up. Never an end-to-end metric (rule 3);
/// the traced run reports some of them as per-layer numbers.
#[derive(Debug, Clone, Default)]
pub struct SetUpFacts {
    pub cold_build_s: f64,
    /// `VmRSS` growth across the first build, while the process is still
    /// small enough for the growth to be the build's.
    pub cold_build_rss_mb: f64,
    pub save_s: Vec<f64>,
    pub snapshot_bytes: u64,
    /// `VmHWM` when the first set-up pass ended: `peak_rss_mb`. What the
    /// process peaks at later depends on which thread's allocator arena
    /// served which build, and differs by a third between runs of one
    /// seed; up to here the sequence is fixed and the reading repeats to
    /// a tenth of a percent.
    pub first_pass_hwm_mb: f64,
}

pub struct SetUp {
    pub inputs: Inputs,
    pub snapshot: PathBuf,
    pub pool: Vec<ConceptQuery>,
    /// `Fixed(1)` engine opened from the snapshot.
    pub reference: NcExplorer,
    /// Label of the pool's first concept: the open phase's first query.
    pub first_label: String,
    pub facts: SetUpFacts,
}

/// A field of `/proc/self/status` in MB (`VmRSS:`, `VmHWM:`).
pub fn proc_status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn vm_rss_mb() -> f64 {
    proc_status_mb("VmRSS:").unwrap_or(f64::NAN)
}

pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn file_sizes(dir: &Path) -> HashMap<std::ffi::OsString, u64> {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| {
            let e = e.ok()?;
            Some((e.file_name(), e.metadata().ok()?.len()))
        })
        .collect()
}

pub fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("work directory can be created");
    dir.to_path_buf()
}

pub fn copy_dir(from: &Path, to: &Path) {
    fresh_dir(to);
    for entry in std::fs::read_dir(from).expect("snapshot directory lists") {
        let entry = entry.expect("snapshot entry reads");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("snapshot file copies");
    }
}

/// Twenty queries spread over the pool, both operators.
fn check_sample(pool: &[ConceptQuery]) -> Vec<Request> {
    let step = (pool.len() / 20).max(1);
    (0..pool.len())
        .step_by(step)
        .take(20)
        .flat_map(|q| [(Op::Rollup, q), (Op::Drilldown, q)])
        .collect()
}

/// One set-up pass: generate the inputs, build (cold on the first pass),
/// save the snapshot every later phase starts from, derive the query
/// pool, and check — untimed by any metric but `setup_s` — that the
/// reopened engine and the serving tier answer exactly like the built one.
fn set_up_once(
    seed: u64,
    params: &Params,
    wl: &Workload,
    work: &Path,
    report: &mut Report,
    rec: &mut Recorder,
    facts: &mut SetUpFacts,
) -> SetUp {
    let t0 = Instant::now();
    let inputs = Inputs::generate(seed, params);
    let t_gen = Instant::now();
    rec.span("setup.generate", 0, 0, t0, t_gen);

    let first_pass = facts.save_s.is_empty();
    let rss_before = if first_pass { vm_rss_mb() } else { 0.0 };
    let built = NcExplorer::build(
        inputs.kg.clone(),
        inputs.base.clone(),
        Workload::engine_config(Parallelism::Auto),
    );
    let t_built = Instant::now();
    rec.span("setup.build", 0, 0, t_gen, t_built);
    if first_pass {
        facts.cold_build_s = (t_built - t_gen).as_secs_f64();
        facts.cold_build_rss_mb = vm_rss_mb() - rss_before;
    }
    report.check(built.index().num_docs() == params.articles, || {
        "set-up build lost documents".into()
    });

    let snapshot = fresh_dir(&work.join("base"));
    let saved = built.save(&snapshot);
    let t_saved = Instant::now();
    rec.span("setup.save", 0, 0, t_built, t_saved);
    report.check(saved.is_ok(), || format!("set-up save: {saved:?}"));
    facts.save_s.push((t_saved - t_built).as_secs_f64());
    facts.snapshot_bytes = dir_bytes(&snapshot);

    let pool = query_pool(&built);
    assert!(!pool.is_empty(), "the corpus indexes no concept");
    let first_label = inputs.kg.concept_label(pool[0].concepts()[0]).to_string();

    let reference = NcExplorer::open(
        &snapshot,
        inputs.kg.clone(),
        Workload::engine_config(Parallelism::Fixed(1)),
    )
    .expect("the snapshot just saved reopens");
    let served = NcxServe::open_replicas(
        &snapshot,
        inputs.kg.clone(),
        Workload::engine_config(wl.explore_par),
        1,
        wl.serve_config(),
    )
    .expect("the snapshot just saved serves");
    let session = served.session();
    report.check(
        reference.index().num_docs() == built.index().num_docs()
            && reference.index().num_postings() == built.index().num_postings(),
        || "reopened engine differs in size from the built one".into(),
    );
    for request in check_sample(&pool) {
        let expect = engine_answer(&reference, &pool, request);
        report.check(
            engine_answer(&built, &pool, request).same(&expect, request.0),
            || format!("reopened engine answers {request:?} differently from the built one"),
        );
        let got = served_answer(&session, &pool, request);
        report.check(got.is_some_and(|a| a.same(&expect, request.0)), || {
            format!("NcxServe answers {request:?} differently from the Fixed(1) engine")
        });
    }
    rec.span("setup.checks", 0, 0, t_saved, Instant::now());
    SetUp {
        inputs,
        snapshot,
        pool,
        reference,
        first_label,
        facts: facts.clone(),
    }
}

/// Sets up `params.setup_passes` times and keeps the last pass. Returns
/// the seconds each pass took; `setup_s` is their median, so one slow
/// first touch of memory does not decide it.
pub fn set_up(
    seed: u64,
    params: &Params,
    wl: &Workload,
    work: &Path,
    report: &mut Report,
    rec: &mut Recorder,
) -> (SetUp, Vec<f64>) {
    let mut facts = SetUpFacts::default();
    let mut seconds = Vec::new();
    let mut kept = None;
    for _ in 0..params.setup_passes.max(1) {
        // Free the previous pass first: peak memory is one set-up's.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(set_up_once(seed, params, wl, work, report, rec, &mut facts));
        seconds.push(t.elapsed().as_secs_f64());
        if seconds.len() == 1 {
            facts.first_pass_hwm_mb = proc_status_mb("VmHWM:").unwrap_or(f64::NAN);
        }
    }
    let mut kept = kept.expect("at least one set-up pass");
    kept.facts = facts;
    (kept, seconds)
}

// ---------------------------------------------------------------------
// Timed phases.

/// What the traced binary does after each answered request, on the
/// session's own thread: it reads the program's trace of that request
/// into the span just recorded. The end-to-end binary passes none.
pub type AfterRequest = fn(&ServeSession<'_>, &mut Recorder);

/// Everything a phase needs, and where its numbers go.
pub struct Run<'a, 's> {
    pub wl: &'a Workload,
    pub params: &'a Params,
    pub setup: &'a SetUp,
    pub work: &'a Path,
    pub seed: u64,
    pub nproc: usize,
    pub report: &'a mut Report<'s>,
    pub rec: &'a mut Recorder,
    pub after_request: Option<AfterRequest>,
    /// End-to-end numbers, one value per repetition.
    pub numbers: Numbers,
    /// Per-layer readings the traced run reports.
    pub layer: LayerReadings,
}

#[derive(Debug, Clone, Default)]
pub struct Numbers {
    /// How long the timed phases took, warm-up cycle included.
    pub timed_s: f64,
    pub build_docs_per_s: Vec<f64>,
    pub open_first_answer_ms: Vec<f64>,
    pub ingest_durable_docs_per_s: Vec<f64>,
    pub queries_per_s: Vec<f64>,
    pub rollup_p50_us: Vec<f64>,
    pub rollup_p95_us: Vec<f64>,
    pub drilldown_p50_us: Vec<f64>,
    pub drilldown_p95_us: Vec<f64>,
}

/// What the phases see of the layers while they run. One value per
/// repetition, except the three `ingest_*_ns` vectors, which pool every
/// article of every timed repetition.
#[derive(Debug, Clone, Default)]
pub struct LayerReadings {
    pub cache_hit_rate: Vec<f64>,
    pub cache_evictions: Vec<f64>,
    pub cache_invalidations: Vec<f64>,
    /// Due time → return of `NcxServe::ingest_article`.
    pub ingest_latency_ns: Vec<u64>,
    /// Call → return.
    pub ingest_call_ns: Vec<u64>,
    /// Due time → call: how late the generator ran.
    pub ingest_lateness_ns: Vec<u64>,
    pub checkpoint_ms_max: Vec<f64>,
    pub write_amp: Vec<f64>,
}

/// Which pool query holds which rank of the skewed mix: a fixed stride
/// through the pool, so that cheap and dear queries (single concepts come
/// first in the pool, pairs after) alternate down the ranks. The seed
/// draws the ranks; were it to draw this order too, whether the few
/// queries that take most requests are cheap or dear would differ from
/// seed to seed, and with it every latency of the skewed workloads.
fn hot_order(pool_len: usize) -> Vec<usize> {
    let stride = (1..pool_len)
        .rev()
        .find(|s| s * 8 <= pool_len * 3 && gcd(*s, pool_len) == 1)
        .unwrap_or(1);
    (0..pool_len).map(|rank| rank * stride % pool_len).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// What the explore phase keeps between repetitions.
struct Explore<'a> {
    streams: Vec<Vec<Request>>,
    verifier: Verifier<'a>,
    /// When each open-loop article is due, from the repetition's start.
    arrivals: Vec<Duration>,
    /// Read-only repetitions share one server, warm; repetitions that
    /// ingest mutate the corpus and each open a fresh one instead.
    shared: Option<NcxServe>,
}

impl<'a> Run<'a, '_> {
    /// Build, open and durable ingest run the shipped default.
    fn engine_config(&self) -> NcxConfig {
        Workload::engine_config(Parallelism::Auto)
    }

    /// The timed part of a run: one warm-up cycle, then as many cycles as
    /// the workload's most-repeated phase has repetitions. A cycle runs
    /// one repetition of every phase that is due, so each metric's
    /// repetitions are spread evenly over the whole run and a burst of
    /// interference from a neighbour lands on one repetition of several
    /// metrics instead of on every repetition of one.
    ///
    /// The counts are fixed and sized to fit `seconds`. Past that the run
    /// is not cut short — a median over fewer repetitions on a slow day
    /// would be another estimator — but a run that takes more than twice
    /// as long says so on standard error.
    pub fn measure(&mut self, seconds: f64) {
        let explore = self.explore_state();
        let reps = self.wl.reps;
        let cycles = reps.most();
        let start = Instant::now();
        self.cycle(None, &explore);
        for i in 0..cycles {
            self.cycle(Some((i, cycles)), &explore);
        }
        let took = start.elapsed().as_secs_f64();
        self.numbers.timed_s = took;
        if took > 2.0 * seconds {
            eprintln!(
                "ncx-e2e: the timed phases took {took:.1} s, sized for {seconds} s: \
                 this machine is much slower than the one the counts were chosen on"
            );
        }
        drop(explore);
        self.check_durable_directory();
        self.report.put(
            "snapshot_bytes_per_doc",
            Summary::exact(dir_bytes(&self.setup.snapshot) as f64 / self.params.articles as f64),
        );
        let n = &self.numbers;
        for (name, reps) in [
            ("build_docs_per_s", &n.build_docs_per_s),
            ("open_first_answer_ms", &n.open_first_answer_ms),
            ("ingest_durable_docs_per_s", &n.ingest_durable_docs_per_s),
            ("queries_per_s", &n.queries_per_s),
            ("rollup_p50_us", &n.rollup_p50_us),
            ("rollup_p95_us", &n.rollup_p95_us),
            ("drilldown_p50_us", &n.drilldown_p50_us),
            ("drilldown_p95_us", &n.drilldown_p95_us),
        ] {
            self.report.put_median(name, reps);
        }
    }

    /// One warm-up and `reps` repetitions of the explore phase alone;
    /// returns the median `queries_per_s`. For the probes that compare
    /// two configurations of it.
    pub fn measure_explore_only(&mut self, reps: usize) -> f64 {
        let explore = self.explore_state();
        self.explore_rep(false, &explore);
        for _ in 0..reps {
            self.explore_rep(true, &explore);
        }
        Summary::median_of(&self.numbers.queries_per_s).value
    }

    /// `at` is `None` for the warm-up cycle, which runs every phase once
    /// untimed (the set-up passes already built in this process, so the
    /// build needs no warm-up of its own unless set-up ran once only), and
    /// `(i, cycles)` for timed cycle `i`.
    fn cycle(&mut self, at: Option<(usize, usize)>, explore: &Explore) {
        let reps = self.wl.reps;
        let timed = at.is_some();
        let due = |r: usize| at.is_none_or(|(i, cycles)| Reps::due(r, i, cycles));
        if due(reps.build) && (timed || self.params.setup_passes < 2) {
            self.build_rep(timed);
        }
        if due(reps.open) {
            self.open_rep(timed);
        }
        if due(reps.durable) {
            self.durable_rep(timed);
        }
        if due(reps.explore) {
            self.explore_rep(timed, explore);
        }
    }

    /// `build_docs_per_s`: articles / wall of `NcExplorer::build`.
    fn build_rep(&mut self, timed: bool) {
        let articles = self.params.articles;
        let store = self.setup.inputs.base.clone();
        let kg = self.setup.inputs.kg.clone();
        let config = self.engine_config();
        let t = Instant::now();
        let engine = NcExplorer::build(kg, store, config);
        let end = Instant::now();
        let ok = engine.index().num_docs() == articles;
        self.report.ops(1, u64::from(!ok), "builds");
        if timed && ok {
            self.numbers
                .build_docs_per_s
                .push(articles as f64 / (end - t).as_secs_f64());
            self.rec.span("core.build", 0, 0, t, end);
            self.rec.count("docs", articles as f64);
            self.rec
                .count("postings", engine.index().num_postings() as f64);
        }
    }

    /// `open_first_answer_ms`: eager `NcExplorer::open` + `query` + the
    /// first `rollup`, checked against the reference.
    fn open_rep(&mut self, timed: bool) {
        let setup = self.setup;
        let expect = engine_answer(&setup.reference, &setup.pool, (Op::Rollup, 0));
        let kg = setup.inputs.kg.clone();
        let config = self.engine_config();
        let t = Instant::now();
        let opened = NcExplorer::open(&setup.snapshot, kg, config);
        let t_open = Instant::now();
        let answer = opened.as_ref().ok().and_then(|engine| {
            let query = engine.query(&[setup.first_label.as_str()]).ok()?;
            let t_query = Instant::now();
            let hits = engine.rollup(&query, K);
            Some((t_query, Instant::now(), Answer::of_rollup(&hits)))
        });
        let ok = matches!(&answer, Some((_, _, a)) if a.same(&expect, Op::Rollup));
        self.report.ops(1, u64::from(!ok), "opens");
        if let (true, true, Some((t_query, end, _))) = (timed, ok, answer) {
            self.numbers
                .open_first_answer_ms
                .push((end - t).as_secs_f64() * 1e3);
            let parent = self.rec.span("open.first_answer", 0, 0, t, end);
            self.rec.span("core.open", parent, 0, t, t_open);
            self.rec.span("core.query", parent, 0, t_open, t_query);
            self.rec.span("core.rollup", parent, 0, t_query, end);
        }
    }

    fn durable_dir(&self) -> PathBuf {
        self.work.join("durable")
    }

    /// `ingest_durable_docs_per_s`: an engine opened on a private copy of
    /// the base snapshot ingests the held-out stream and checkpoints at a
    /// fixed cadence, so every repetition holds the same flushes and the
    /// same compaction.
    fn durable_rep(&mut self, timed: bool) {
        let dir = self.durable_dir();
        let held_out = &self.setup.inputs.held_out;
        copy_dir(&self.setup.snapshot, &dir);
        let kg = self.setup.inputs.kg.clone();
        let Ok(mut engine) = NcExplorer::open(&dir, kg, self.engine_config()) else {
            self.report
                .fail("durable ingest: private snapshot does not open");
            return;
        };
        let mut bad = 0;
        let mut stall = Duration::ZERO;
        // Traced run only: bytes of every file a checkpoint created or
        // resized, for `store.write_amp`.
        let mut files = self.rec.is_on().then(|| file_sizes(&dir));
        let base_bytes = dir_bytes(&dir);
        let mut written = 0u64;
        let t = Instant::now();
        for (i, a) in held_out.iter().enumerate() {
            engine.ingest_article(a.source, a.title.clone(), a.body.clone(), a.published);
            if (i + 1) % self.params.checkpoint_every == 0 {
                let t_cp = Instant::now();
                let outcome = engine.checkpoint(&dir);
                let cp_end = Instant::now();
                stall = stall.max(cp_end - t_cp);
                bad += u64::from(outcome.is_err());
                self.rec.span("core.checkpoint", 0, 0, t_cp, cp_end);
                if let Ok(o) = outcome {
                    self.rec.count("flushed_docs", o.flushed_docs as f64);
                    self.rec
                        .count("compacted", f64::from(u8::from(o.compacted)));
                }
                if let Some(before) = files.as_mut() {
                    let now = file_sizes(&dir);
                    written += now
                        .iter()
                        .filter(|(name, size)| before.get(*name) != Some(size))
                        .map(|(_, size)| size)
                        .sum::<u64>();
                    *before = now;
                }
            }
        }
        let end = Instant::now();
        self.report
            .ops(held_out.len() as u64, bad, "durable ingest checkpoints");
        if timed && bad == 0 {
            self.numbers
                .ingest_durable_docs_per_s
                .push(held_out.len() as f64 / (end - t).as_secs_f64());
            self.rec.span("durable.repetition", 0, 0, t, end);
            self.rec.count("docs", held_out.len() as f64);
            self.layer.checkpoint_ms_max.push(stall.as_secs_f64() * 1e3);
            if files.is_some() {
                let kept = dir_bytes(&dir).saturating_sub(base_bytes).max(1);
                self.layer.write_amp.push(written as f64 / kept as f64);
            }
        }
    }

    /// After the last durable repetition the directory must reopen with
    /// every document, and the last article that mentions a concept must
    /// be returned for it.
    fn check_durable_directory(&mut self) {
        let total = self.params.articles + self.setup.inputs.held_out.len();
        let reopened = NcExplorer::open(
            self.durable_dir(),
            self.setup.inputs.kg.clone(),
            Workload::engine_config(Parallelism::Fixed(1)),
        );
        let Ok(engine) = reopened else {
            self.report.fail("durable directory does not reopen");
            return;
        };
        let docs = engine.index().num_docs();
        self.report.check(docs == total, || {
            format!("durable directory reopened with {docs} documents, expected {total}")
        });
        let last = (self.params.articles..docs)
            .rev()
            .map(ncexplorer::kg::DocId::from_index)
            .find(|&d| !engine.index().concepts_of_doc(d).is_empty());
        let found = last.is_some_and(|doc| {
            let (concept, _) = engine.index().concepts_of_doc(doc)[0];
            engine
                .rollup(&ConceptQuery::new([concept]), docs)
                .iter()
                .any(|hit| hit.doc == doc)
        });
        self.report.check(found, || {
            "the last ingested article is not returned for its own concept".into()
        });
    }

    fn open_serve(&self) -> Option<NcxServe> {
        NcxServe::open_replicas(
            &self.setup.snapshot,
            self.setup.inputs.kg.clone(),
            Workload::engine_config(self.wl.explore_par),
            1,
            self.wl.serve_config(),
        )
        .ok()
    }

    fn explore_state(&self) -> Explore<'a> {
        let setup = self.setup;
        let pool_len = setup.pool.len();
        let hot_order = hot_order(pool_len);
        let streams = (0..self.wl.session_count(self.nproc))
            .map(|s| {
                let mut rng = Rng::new(self.seed, 16 + s as u64);
                match (self.wl.mix, self.wl.open_loop_ingest) {
                    (Mix::Uniform, _) => {
                        uniform_stream(&mut rng, pool_len, self.params.uniform_samples_per_op)
                    }
                    (Mix::Skewed, false) => {
                        skewed_stream(&mut rng, &hot_order, self.params.skewed_requests)
                    }
                    // Runs until the ingest schedule ends; sized never to
                    // run out first.
                    (Mix::Skewed, true) => {
                        skewed_stream(&mut rng, &hot_order, BESIDE_INGEST_STREAM)
                    }
                }
            })
            .collect();
        // A fixed beat: article `i` is due `i / rate` after the start.
        let gap = Duration::from_secs_f64(1.0 / self.params.ingest_rate_per_s);
        let arrivals = (0..self
            .params
            .open_loop_ingests
            .min(setup.inputs.held_out.len()))
            .map(|i| gap * i as u32)
            .collect();
        Explore {
            streams,
            arrivals,
            verifier: Verifier {
                reference: &setup.reference,
                pool: &setup.pool,
                memo: Mutex::new(HashMap::new()),
            },
            shared: if self.wl.open_loop_ingest {
                None
            } else {
                self.open_serve()
            },
        }
    }

    /// `queries_per_s` and the four per-operator latencies: closed-loop
    /// sessions over `NcxServe`. Where the workload says so, one more
    /// thread ingests the held-out stream on a fixed schedule (open
    /// loop), each repetition from a fresh `NcxServe` on the set-up
    /// snapshot; the session has no think time and runs until the
    /// writer's schedule ends. What the writer saw goes to the layer
    /// readings (the latencies are timed from the moment each article was
    /// due).
    fn explore_rep(&mut self, timed: bool, explore: &Explore) {
        let fresh = if self.wl.open_loop_ingest {
            self.open_serve()
        } else {
            None
        };
        let Some(serve) = fresh.as_ref().or(explore.shared.as_ref()) else {
            self.report
                .fail("explore: the set-up snapshot does not serve");
            return;
        };
        // The warm-up's every answer is compared with the reference —
        // except beside ingest, where answers change as articles arrive.
        let verify = (!timed && !self.wl.open_loop_ingest).then_some(&explore.verifier);
        let streams = &explore.streams;

        let before = serve.stats();
        let stop = AtomicBool::new(false);
        let with_ingest = self.wl.open_loop_ingest;
        let barrier = Barrier::new(streams.len() + usize::from(with_ingest));
        let pool = &self.setup.pool;
        let held_out = &self.setup.inputs.held_out[..];
        let schedule = Schedule::OpenLoop {
            offsets: &explore.arrivals,
        };
        let after_request = self.after_request;
        let rec = &*self.rec;
        let (mut sessions, ingest) = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(lane, stream)| {
                    let (stop, barrier) = (&stop, &barrier);
                    let spans = rec.fork(lane as u64);
                    scope.spawn(move || {
                        let until = with_ingest.then_some(stop);
                        let tap = Tap {
                            spans,
                            after_request,
                        };
                        drive_session(serve, pool, stream, until, barrier, verify, tap)
                    })
                })
                .collect();
            let ingest = with_ingest.then(|| {
                let spans = rec.fork(streams.len() as u64);
                let (stop, barrier) = (&stop, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let done = drive_ingest(serve, held_out, schedule, spans);
                    stop.store(true, Ordering::Release);
                    done
                })
            });
            let sessions: Vec<SessionOut> = handles
                .into_iter()
                .map(|h| h.join().expect("session thread panicked"))
                .collect();
            let ingest = ingest.map(|h| h.join().expect("ingest thread panicked"));
            (sessions, ingest)
        });

        let requests: u64 = sessions.iter().map(|s| s.done).sum();
        let failed: u64 = sessions.iter().map(|s| s.failed).sum();
        self.report.ops(requests, failed, "queries");
        let start = sessions
            .iter()
            .map(|s| s.start)
            .min()
            .expect("a session ran");
        let end = sessions.iter().map(|s| s.end).max().expect("a session ran");
        let mut rollups: Vec<u64> = Vec::new();
        let mut drilldowns: Vec<u64> = Vec::new();
        for s in &mut sessions {
            rollups.append(&mut s.rollup_ns);
            drilldowns.append(&mut s.drilldown_ns);
        }
        for s in sessions {
            self.rec.absorb(s.spans);
        }

        let after = serve.stats();
        let mut valid = failed == 0 && !rollups.is_empty() && !drilldowns.is_empty();
        let hits = after.cache_hits - before.cache_hits;
        let lookups = hits + (after.cache_misses - before.cache_misses);
        let hit_share = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        if timed && self.wl.cached {
            if let Err(why) = hit_boundary_rule(hit_share) {
                self.report.fail(why);
                valid = false;
            }
        }
        if let Some(ingest) = ingest {
            valid &= self.account_ingest(serve, &before, &after, ingest, timed);
        }
        if timed && valid {
            let n = &mut self.numbers;
            n.queries_per_s
                .push((requests - failed) as f64 / (end - start).as_secs_f64());
            n.rollup_p50_us.push(percentile_us(&mut rollups, 50.0));
            n.rollup_p95_us.push(percentile_us(&mut rollups, 95.0));
            n.drilldown_p50_us
                .push(percentile_us(&mut drilldowns, 50.0));
            n.drilldown_p95_us
                .push(percentile_us(&mut drilldowns, 95.0));
            self.layer.cache_hit_rate.push(hit_share);
            self.layer
                .cache_evictions
                .push((after.cache_evictions - before.cache_evictions) as f64);
            self.layer
                .cache_invalidations
                .push((after.cache_invalidations - before.cache_invalidations) as f64);
        }
    }

    /// Books one ingest stream: failures, the schedule check, latencies.
    /// Returns whether the repetition may be reported.
    fn account_ingest(
        &mut self,
        serve: &NcxServe,
        before: &ServeStats,
        after: &ServeStats,
        mut ingest: IngestOut,
        timed: bool,
    ) -> bool {
        let sent = ingest.latency_ns.len() as u64;
        let docs = serve.with_engine(|e| e.index().num_docs());
        let on_schedule = after.ingested - before.ingested == sent
            && docs == self.params.articles + sent as usize;
        self.report.ops(sent, 0, "ingests");
        self.report.check(on_schedule, || {
            format!(
                "after {sent} ingests ServeStats::ingested rose by {} and num_docs is {docs}",
                after.ingested - before.ingested
            )
        });
        self.report.check(!ingest.backlog, || {
            "the ingest thread ended a repetition behind its schedule".into()
        });
        self.rec.absorb(ingest.spans);
        let valid = on_schedule && !ingest.backlog && sent > 0;
        if timed && valid {
            self.layer.ingest_latency_ns.append(&mut ingest.latency_ns);
            self.layer.ingest_call_ns.append(&mut ingest.call_ns);
            self.layer
                .ingest_lateness_ns
                .append(&mut ingest.lateness_ns);
        }
        valid
    }

    /// The write path with no query beside it, for the traced run of the
    /// workloads that do not ingest while they explore: the held-out
    /// stream through `NcxServe::ingest_article`, back to back (each
    /// article is due when the previous one returns), on a fresh server.
    pub fn ingest_rep(&mut self, timed: bool) {
        let Some(serve) = self.open_serve() else {
            self.report
                .fail("ingest: the set-up snapshot does not serve");
            return;
        };
        let before = serve.stats();
        let spans = self.rec.fork(0);
        let done = drive_ingest(
            &serve,
            &self.setup.inputs.held_out,
            Schedule::BackToBack,
            spans,
        );
        let after = serve.stats();
        self.account_ingest(&serve, &before, &after, done, timed);
    }
}

struct SessionOut {
    start: Instant,
    end: Instant,
    done: u64,
    failed: u64,
    rollup_ns: Vec<u64>,
    drilldown_ns: Vec<u64>,
    spans: Recorder,
}

/// The traced run's view of a session: a recorder forked for its thread
/// and what to do after each answered request. Off in the end-to-end run.
struct Tap {
    spans: Recorder,
    after_request: Option<AfterRequest>,
}

/// One closed-loop session with no think time: the next request goes out
/// when the previous answer is back. It ends with its stream, or — beside
/// the open-loop writer — when `until` is raised. Latencies land in
/// vectors sized before the clock starts. A refused, errored or (while
/// verifying) wrong answer counts as failed and contributes no latency.
fn drive_session(
    serve: &NcxServe,
    pool: &[ConceptQuery],
    stream: &[Request],
    until: Option<&AtomicBool>,
    barrier: &Barrier,
    verify: Option<&Verifier>,
    mut tap: Tap,
) -> SessionOut {
    let session = serve.session();
    let mut rollup_ns = Vec::with_capacity(stream.len() / 2 + 1);
    let mut drilldown_ns = Vec::with_capacity(stream.len() / 2 + 1);
    let (mut done, mut failed) = (0u64, 0u64);
    barrier.wait();
    let start = Instant::now();
    for &(op, q) in stream {
        if until.is_some_and(|stop| stop.load(Ordering::Acquire)) {
            break;
        }
        let query = &pool[q];
        let t = Instant::now();
        // The answer is reduced for comparison only while verifying, so
        // timed repetitions pay for nothing but the call.
        let reduce = verify.is_some();
        let (end, answer) = match op {
            Op::Rollup => {
                let hits = session.rollup(query, K);
                let end = Instant::now();
                (end, hits.map(|h| reduce.then(|| Answer::of_rollup(&h))))
            }
            Op::Drilldown => {
                let subs = session.drilldown(query, K);
                let end = Instant::now();
                (end, subs.map(|s| reduce.then(|| Answer::of_drilldown(&s))))
            }
        };
        done += 1;
        let ok = match (&answer, verify) {
            (Ok(Some(a)), Some(v)) => v.matches((op, q), a),
            (Ok(_), _) => true,
            (Err(_), _) => false,
        };
        if !ok {
            failed += 1;
            continue;
        }
        let ns = (end - t).as_nanos() as u64;
        match op {
            Op::Rollup => rollup_ns.push(ns),
            Op::Drilldown => drilldown_ns.push(ns),
        }
        if tap.spans.is_on() {
            let name = match op {
                Op::Rollup => "serve.rollup",
                Op::Drilldown => "serve.drilldown",
            };
            tap.spans.span(name, 0, done, t, end);
            if let Some(after) = tap.after_request {
                after(&session, &mut tap.spans);
            }
        }
    }
    SessionOut {
        start,
        end: Instant::now(),
        done,
        failed,
        rollup_ns,
        drilldown_ns,
        spans: tap.spans,
    }
}

const SPIN_BEFORE_DUE: Duration = Duration::from_micros(500);

/// The open-loop writer is behind its schedule when its last article
/// goes out later than the whole schedule is long after it was due.
/// Beside a reader with no think time single ingests wait tenths of a
/// second for the replica's lock (see the README); that is a latency,
/// and at the rate the workload sends, the queue drains after each such
/// wait. A server that cannot keep the rate ends a repetition with the
/// schedule's worth of articles still queued.
const BACKLOG_SHARE: f64 = 1.0;

#[derive(Debug, Clone, Copy)]
pub enum Schedule<'a> {
    /// Closed loop: an article is due when the previous one returned.
    BackToBack,
    /// Open loop: article `i` is due `offsets[i]` after the start, whether
    /// or not the server kept up.
    OpenLoop { offsets: &'a [Duration] },
}

pub struct IngestOut {
    /// Due time → return of `NcxServe::ingest_article`.
    pub latency_ns: Vec<u64>,
    /// Call → return.
    pub call_ns: Vec<u64>,
    /// Due time → call: how late the generator ran.
    pub lateness_ns: Vec<u64>,
    /// The last article went out later than [`BACKLOG_SHARE`] allows.
    pub backlog: bool,
    pub spans: Recorder,
}

/// Sends articles through `NcxServe::ingest_article` on `schedule`.
pub fn drive_ingest(
    serve: &NcxServe,
    articles: &[NewsArticle],
    schedule: Schedule,
    mut spans: Recorder,
) -> IngestOut {
    let count = match schedule {
        Schedule::BackToBack => articles.len(),
        Schedule::OpenLoop { offsets, .. } => offsets.len().min(articles.len()),
    };
    let mut latency_ns = Vec::with_capacity(count);
    let mut call_ns = Vec::with_capacity(count);
    let mut lateness_ns = Vec::with_capacity(count);
    let mut backlog = false;
    let start = Instant::now();
    let mut previous_return = start;
    for (i, a) in articles[..count].iter().enumerate() {
        let due = match schedule {
            Schedule::BackToBack => previous_return,
            Schedule::OpenLoop { offsets, .. } => start + offsets[i],
        };
        // Sleep to just short of the due time, then spin: a bare sleep
        // wakes 0.1–0.3 ms late, which would be charged to the server.
        if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN_BEFORE_DUE) {
            std::thread::sleep(wait);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let sent = Instant::now();
        serve.ingest_article(a.source, &a.title, &a.body, a.published);
        let returned = Instant::now();
        latency_ns.push((returned - due).as_nanos() as u64);
        call_ns.push((returned - sent).as_nanos() as u64);
        lateness_ns.push((sent - due).as_nanos() as u64);
        if spans.is_on() {
            let request: SpanId = spans.span("ingest.request", 0, i as u64 + 1, due, returned);
            spans.span(
                "serve.ingest_article",
                request,
                i as u64 + 1,
                sent,
                returned,
            );
        }
        if let Schedule::OpenLoop { offsets, .. } = schedule {
            backlog = sent > due + offsets[count - 1].mul_f64(BACKLOG_SHARE);
        }
        previous_return = returned;
    }
    IngestOut {
        latency_ns,
        call_ns,
        lateness_ns,
        backlog,
        spans,
    }
}
