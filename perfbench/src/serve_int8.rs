//! `serve_int8`: closed-loop serving of compressed vectors. Deep-like
//! 96-d f32 data, a Vamana graph, int8 codes in SSD DRAM and the default
//! exact-rerank depth. A fixed set of clients each submit their next
//! distinct query as soon as a poll after `ServeEngine::step_round`
//! shows the previous one terminal; the next arrival is the simulated
//! clock at that round boundary. Traversal scores DRAM codes, so NAND
//! is read only at rerank.

use ndsearch_anns::index::GraphAnnsIndex;
use ndsearch_anns::trace::BatchTrace;
use ndsearch_anns::vamana::{Vamana, VamanaParams};
use ndsearch_core::serve::SessionState;
use ndsearch_core::{NdsConfig, Prepared, QueryRequest, ServeConfig, ServeEngine, ServeReport};
use ndsearch_vector::synthetic::DatasetSpec;
use ndsearch_vector::{ground_truth, recall_at_k, Dataset, DistanceKind, QuantSpec, VectorId};

use crate::harness::{percentile, Opts, Outcome, Spans, Workload};
use crate::metrics;
use crate::trace::Tracer;

const K: usize = 10;

/// The workload's sizes.
pub struct ServeInt8 {
    spec: DatasetSpec,
    clients: usize,
}

/// Set-up output.
pub struct Staged {
    base: Dataset,
    queries: Dataset,
    index: Vamana,
    config: NdsConfig,
    prepared: Prepared,
    serve: ServeConfig,
}

impl ServeInt8 {
    /// Sizes for `opts` (n = 10k, 16,384 distinct queries, 64 clients).
    pub fn new(opts: &Opts) -> Self {
        let mut spec = DatasetSpec::deep_scaled(opts.scale(10_000, 600), opts.scale(16_384, 128));
        spec.seed = opts.seed;
        Self {
            spec,
            clients: opts.scale(64, 8),
        }
    }

    fn engine<'a>(&self, s: &'a Staged) -> ServeEngine<'a> {
        ServeEngine::new(
            &s.config,
            s.serve.clone(),
            &s.prepared,
            &s.base,
            s.index.base_graph(),
        )
    }
}

impl Workload for ServeInt8 {
    type Staged = Staged;
    type Run = ServeReport;

    fn setup(&self, t: &Tracer) -> Staged {
        let (base, queries) = t.span("vector.gen", || self.spec.build_pair());
        let index = t.span("anns.build", || {
            Vamana::build(&base, VamanaParams::default())
        });
        let config = NdsConfig {
            quantization: QuantSpec::Int8,
            ..NdsConfig::scaled_for(base.len(), base.stored_vector_bytes())
        };
        let prepared = t.span("core.stage", || {
            Prepared::stage(&config, index.base_graph(), &base, &BatchTrace::default())
        });
        let s = Staged {
            base,
            queries,
            index,
            config,
            prepared,
            serve: ServeConfig {
                k: K,
                ..ServeConfig::default()
            },
        };
        // Engine construction trains the int8 quantizer: part of staging.
        let codes = t.span("core.stage", || {
            self.engine(&s)
                .deployment()
                .codes()
                .map(|c| c.total_bytes())
        });
        assert!(codes.is_some(), "int8 quantization must be in force");
        s
    }

    fn same_setup(a: &Staged, b: &Staged) -> bool {
        a.base == b.base && a.queries == b.queries && a.index.base_graph() == b.index.base_graph()
    }

    fn rep(&self, s: &Staged, t: &Tracer, _first: bool) -> (f64, ServeReport) {
        let mut engine = self.engine(s);
        let total = s.queries.len();
        let entry = vec![s.index.medoid()];
        let submit = |engine: &mut ServeEngine, q: usize| {
            let v = s.queries.vector(q as VectorId).to_vec();
            engine.submit(QueryRequest::at(engine.now_ns(), v, entry.clone()))
        };
        let start = std::time::Instant::now();
        let mut next = self.clients.min(total);
        let mut current: Vec<usize> = (0..next).map(|q| submit(&mut engine, q)).collect();
        loop {
            let more = t.span("core.serve.round", || engine.step_round());
            let mut submitted = false;
            for slot in current.iter_mut() {
                if next < total && is_terminal(engine.poll(*slot)) {
                    *slot = submit(&mut engine, next);
                    next += 1;
                    submitted = true;
                }
            }
            if !more && !submitted {
                break;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        (secs, engine.report())
    }

    fn same_run(a: &ServeReport, b: &ServeReport) -> bool {
        a == b
    }

    fn check(&self, s: &Staged, r: &ServeReport, t: &Tracer, out: &mut Outcome) {
        let gt = t.span("vector.ground_truth", || {
            ground_truth(&s.base, &s.queries, K, DistanceKind::L2)
        });
        let found: Vec<Vec<VectorId>> = r
            .outcomes
            .iter()
            .map(|o| o.results.iter().map(|n| n.id).collect())
            .collect();
        metrics::check_recall(out, recall_at_k(&gt, &found, K));
        serve_metrics(out, r, s.queries.len());

        let arrivals = r.outcomes.iter().map(|o| o.arrival_ns);
        let span = arrivals.clone().max().unwrap_or(0) - arrivals.min().unwrap_or(0);
        out.set(
            "core.serve.backlog_ms",
            r.makespan_ns.saturating_sub(span) as f64 / 1e6,
        );
    }

    fn layer_host_metrics(&self, s: &Staged, spans: &Spans, out: &mut Outcome) {
        let n = s.base.len() as f64;
        out.set(
            "anns.build_us_per_point",
            spans.setup_median("anns.build", false) / n * 1e6,
        );
        let rounds: Vec<f64> = spans
            .named("core.serve.round")
            .map(|r| r.secs() * 1e6)
            .collect();
        out.set("core.serve.round_us_p50", percentile(&rounds, 50.0));
        out.set("core.serve.round_us_p99", percentile(&rounds, 99.0));
        let hops = out
            .values
            .get("anns.hops_per_query")
            .copied()
            .unwrap_or(0.0)
            * s.queries.len() as f64;
        out.set(
            "core.serve.host_ns_per_hop",
            spans.rep_median("core.serve.round") / hops.max(1.0) * 1e9,
        );
        out.set(
            "vector.ns_per_distance",
            spans.check_secs("vector.ground_truth") / (n * s.queries.len() as f64) * 1e9,
        );
    }
}

/// Whether a session state is final.
pub fn is_terminal(state: SessionState) -> bool {
    matches!(
        state,
        SessionState::Completed | SessionState::Rejected | SessionState::Expired
    )
}

/// Simulated serving metrics and the terminal-state check of one
/// single-device serving report.
fn serve_metrics(out: &mut Outcome, r: &ServeReport, submitted: usize) {
    let terminal = r.outcomes.iter().filter(|o| is_terminal(o.state)).count();
    let failed = r.outcomes.len() - r.completed() + (submitted - r.outcomes.len());
    out.attempted += submitted as u64;
    out.failed += failed as u64;
    out.check(
        "every_query_terminal",
        terminal == submitted && r.outcomes.len() == submitted,
        format!("{terminal} of {submitted} queries reached a terminal state"),
    );
    out.set("failed_frac", failed as f64 / submitted.max(1) as f64);
    out.set("sim_qps", r.qps());
    let lat: Vec<Option<u64>> = r
        .outcomes
        .iter()
        .map(|o| (o.state == SessionState::Completed).then(|| o.latency_ns()))
        .collect();
    metrics::set_latency(out, &lat);

    let hops: usize = r.outcomes.iter().map(|o| o.hops).sum();
    out.set("anns.hops_per_query", hops as f64 / submitted.max(1) as f64);
    out.set("core.serve.rounds", r.rounds as f64);
    out.set("core.serve.peak_inflight", r.peak_inflight as f64);
    let waits: Vec<f64> = r
        .outcomes
        .iter()
        .map(|o| o.queue_wait_ns() as f64 / 1e3)
        .collect();
    out.set("core.serve.queue_wait_p99_us", percentile(&waits, 99.0));
    metrics::set_flash(out, &r.stats);
    metrics::set_breakdown(out, &r.breakdown, r.makespan_ns);
}
