//! Everything the program is fed, generated from the seed: knowledge
//! graph, corpus, held-out ingest stream, query pool and request streams.
//! The same seed gives the same inputs; the program sees only these.

use ncexplorer::core::{ConceptQuery, NcExplorer};
use ncexplorer::datagen::{generate_corpus, generate_kg, CorpusConfig, KgGenConfig};
use ncexplorer::index::{DocumentStore, NewsArticle};
use ncexplorer::kg::KnowledgeGraph;
use std::sync::Arc;

/// SplitMix64: small, seedable, and good enough to shuffle and sample.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, lane)`.
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Sizes of one run. [`Params::full`] is what the benchmark measures;
/// the smoke tests shrink it through [`Params::smoke`] — there is no
/// command-line knob, so two reported runs always did the same work. How
/// often each phase repeats is the workload's (`workload::Reps`).
#[derive(Debug, Clone)]
pub struct Params {
    /// Articles in the built corpus.
    pub articles: usize,
    /// Held-out articles: the durable-ingest and serve-ingest streams.
    pub held_out: usize,
    /// Durable ingest checkpoints after this many articles, so every
    /// repetition holds the same flushes and the same compaction.
    pub checkpoint_every: usize,
    /// Set-up passes; `setup_s` is their median.
    pub setup_passes: usize,
    /// Uniform stream: samples per operator per repetition (rounded up to
    /// whole passes over the pool).
    pub uniform_samples_per_op: usize,
    /// Skewed stream: requests per session per repetition.
    pub skewed_requests: usize,
    /// Open-loop ingest: articles per second and per repetition. Beside
    /// a session with no think time a single `NcxServe::ingest_article`
    /// waits about 0.1 s on average for the replica's lock (median
    /// 30–70 ms, p95 0.2–0.4 s, up to 0.6 s), so the writer saturates
    /// near 10 articles/s; 2/s loads it to a fifth of that, and leaves
    /// the cache's hit share (0.76) well inside rule 5's safe band. See
    /// the README.
    pub ingest_rate_per_s: f64,
    pub open_loop_ingests: usize,
}

impl Params {
    pub fn full() -> Self {
        Self {
            articles: 8_000,
            held_out: 1_000,
            checkpoint_every: 125,
            setup_passes: 3,
            uniform_samples_per_op: 1_000,
            skewed_requests: 12_000,
            ingest_rate_per_s: 2.0,
            open_loop_ingests: 6,
        }
    }

    /// The smoke tests' sizes.
    pub fn smoke() -> Self {
        Self {
            articles: 500,
            held_out: 80,
            checkpoint_every: 10,
            setup_passes: 1,
            uniform_samples_per_op: 200,
            skewed_requests: 3_000,
            ingest_rate_per_s: 20.0,
            open_loop_ingests: 10,
        }
    }
}

pub struct Inputs {
    pub kg: Arc<KnowledgeGraph>,
    pub base: DocumentStore,
    pub held_out: Vec<NewsArticle>,
    /// FNV-1a over every generated article: two seeds must differ here.
    pub fingerprint: u64,
}

impl Inputs {
    /// The medium knowledge graph of `tests/scale.rs` and one corpus,
    /// split into the part that is built and the part that is streamed.
    pub fn generate(seed: u64, params: &Params) -> Inputs {
        let kg = Arc::new(generate_kg(&KgGenConfig {
            seed: Rng::new(seed, 1).next_u64(),
            synth_per_group: 200,
            orphan_entities: 500,
            ..KgGenConfig::default()
        }));
        let corpus = generate_corpus(
            &kg,
            &CorpusConfig {
                seed: Rng::new(seed, 2).next_u64(),
                articles: params.articles + params.held_out,
                ..CorpusConfig::default()
            },
        );
        let mut base = DocumentStore::new();
        let mut held_out = Vec::with_capacity(params.held_out);
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        for (i, article) in corpus.store.iter().enumerate() {
            for byte in article.title.bytes().chain(article.body.bytes()) {
                fingerprint = (fingerprint ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
            if i < params.articles {
                base.add(
                    article.source,
                    article.title.clone(),
                    article.body.clone(),
                    article.published,
                );
            } else {
                held_out.push(article.clone());
            }
        }
        Inputs {
            kg,
            base,
            held_out,
            fingerprint,
        }
    }
}

/// Every concept with postings, alone and in every pair that matches at
/// least one document. Order is deterministic (concept-id order).
pub fn query_pool(engine: &NcExplorer) -> Vec<ConceptQuery> {
    let mut concepts: Vec<_> = engine.index().indexed_concepts().collect();
    concepts.sort_unstable();
    let mut pool: Vec<ConceptQuery> = concepts.iter().map(|&c| ConceptQuery::new([c])).collect();
    for (i, &a) in concepts.iter().enumerate() {
        for &b in &concepts[i + 1..] {
            let pair = ConceptQuery::new([a, b]);
            if !engine.rollup(&pair, 1).is_empty() {
                pool.push(pair);
            }
        }
    }
    pool
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Rollup,
    Drilldown,
}

/// One request: an operator and an index into the query pool.
pub type Request = (Op, usize);

/// Uniform over the pool, exactly: each operator visits every pool query
/// the same number of times, in a seeded order, roll-up and drill-down
/// alternating. Percentiles then vary with timing only, not with which
/// queries a random draw happened to pick.
pub fn uniform_stream(rng: &mut Rng, pool_len: usize, samples_per_op: usize) -> Vec<Request> {
    let passes = samples_per_op.div_ceil(pool_len).max(1);
    let mut per_op = |op: Op| -> Vec<Request> {
        let mut ids: Vec<Request> = (0..passes)
            .flat_map(|_| (0..pool_len).map(move |q| (op, q)))
            .collect();
        rng.shuffle(&mut ids);
        ids
    };
    let rollups = per_op(Op::Rollup);
    let drilldowns = per_op(Op::Drilldown);
    rollups
        .into_iter()
        .zip(drilldowns)
        .flat_map(|(r, d)| [r, d])
        .collect()
}

/// Repeats with a cubic skew: rank `⌊u³·len⌋` of `hot_order`, operators
/// alternating. A few queries take most requests while
/// the working set (two cache keys per pool query) stays larger than the
/// default cache, so hits, misses and evictions all occur.
pub fn skewed_stream(rng: &mut Rng, hot_order: &[usize], requests: usize) -> Vec<Request> {
    (0..requests)
        .map(|i| {
            let u = rng.unit();
            let rank = ((u * u * u) * hot_order.len() as f64) as usize;
            let op = if i % 2 == 0 {
                Op::Rollup
            } else {
                Op::Drilldown
            };
            (op, hot_order[rank.min(hot_order.len() - 1)])
        })
        .collect()
}
