//! `batch_paper`: the paper's §VII method. Sift-like 128-d u8 data, a
//! Vamana graph, one recorded batch-search trace, LUNCSR staging, and the
//! NDSEARCH engine with the full scheduling stack replaying the batch;
//! then the baseline platforms replay the same trace. Every hop pays
//! NAND and ECC; no serving, quantization or write path runs.

use ndsearch_anns::index::{GraphAnnsIndex, SearchParams};
use ndsearch_anns::trace::BatchTrace;
use ndsearch_anns::vamana::{Vamana, VamanaParams};
use ndsearch_baselines::{
    CpuPlatform, DeepStorePlatform, GpuPlatform, Platform, Scenario, SmartSsdPlatform,
};
use ndsearch_core::{NdsConfig, NdsEngine, NdsReport, Prepared, SchedulingConfig};
use ndsearch_vector::synthetic::DatasetSpec;
use ndsearch_vector::{ground_truth, recall_at_k, Dataset, DistanceKind, VectorId};

use crate::harness::{Opts, Outcome, Spans, Workload};
use crate::metrics;
use crate::trace::Tracer;

const K: usize = 10;

/// The workload's sizes.
pub struct BatchPaper {
    spec: DatasetSpec,
    /// The baseline ordering is the paper's claim at its scale; a smoke
    /// corpus fits the SmartSSD FPGA's DRAM, so it is not checked there.
    check_ordering: bool,
}

/// Set-up output.
pub struct Staged {
    base: Dataset,
    queries: Dataset,
    graph: ndsearch_anns::vamana::Vamana,
    found: Vec<Vec<VectorId>>,
    trace: BatchTrace,
    config: NdsConfig,
    prepared: Prepared,
}

impl BatchPaper {
    /// Sizes for `opts` (n = 10k base vectors, a 1,024-query batch).
    pub fn new(opts: &Opts) -> Self {
        let mut spec = DatasetSpec::sift_scaled(opts.scale(10_000, 600), opts.scale(1024, 64));
        spec.seed = opts.seed;
        Self {
            spec,
            check_ordering: !opts.smoke,
        }
    }
}

impl Workload for BatchPaper {
    type Staged = Staged;
    type Run = NdsReport;

    fn setup(&self, t: &Tracer) -> Staged {
        let (base, queries) = t.span("vector.gen", || self.spec.build_pair());
        let index = t.span("anns.build", || {
            Vamana::build(&base, VamanaParams::default())
        });
        let params = SearchParams::new(K, (K * 8).max(64), DistanceKind::L2);
        let out = t.span("anns.search_batch", || {
            index.search_batch(&base, &queries, &params)
        });
        let config = NdsConfig {
            scheduling: SchedulingConfig::full(),
            ..NdsConfig::scaled_for(base.len(), base.stored_vector_bytes())
        };
        let prepared = t.span("core.stage", || {
            Prepared::stage(&config, index.base_graph(), &base, &out.trace)
        });
        Staged {
            found: out.id_lists(),
            trace: out.trace,
            base,
            queries,
            graph: index,
            config,
            prepared,
        }
    }

    fn same_setup(a: &Staged, b: &Staged) -> bool {
        a.base == b.base
            && a.graph.base_graph() == b.graph.base_graph()
            && a.trace == b.trace
            && a.found == b.found
    }

    fn rep(&self, s: &Staged, t: &Tracer, _first: bool) -> (f64, NdsReport) {
        let engine = NdsEngine::new(&s.config);
        let start = std::time::Instant::now();
        let report = t.span("core.engine.run", || engine.run(&s.prepared));
        (start.elapsed().as_secs_f64(), report)
    }

    fn same_run(a: &NdsReport, b: &NdsReport) -> bool {
        a == b
    }

    fn check(&self, s: &Staged, r: &NdsReport, t: &Tracer, out: &mut Outcome) {
        let gt = t.span("vector.ground_truth", || {
            ground_truth(&s.base, &s.queries, K, DistanceKind::L2)
        });
        metrics::check_recall(out, recall_at_k(&gt, &s.found, K));

        // The batch returns its results together: every query's
        // arrival -> results latency is the batch makespan.
        out.set("sim_qps", r.qps());
        metrics::set_latency(out, &vec![Some(r.total_ns); r.queries]);
        out.attempted += r.queries as u64;
        out.check(
            "all_queries_replayed",
            r.queries == s.queries.len(),
            format!("{} of {} queries replayed", r.queries, s.queries.len()),
        );
        out.set("failed_frac", 0.0);

        let hops: usize = s.trace.queries.iter().map(|q| q.iterations.len()).sum();
        out.set("anns.hops_per_query", hops as f64 / r.queries.max(1) as f64);
        out.set("graph.page_access_ratio", r.page_access_ratio());
        out.set("core.engine.iterations", r.iterations as f64);
        out.set("core.engine.sub_batches", r.sub_batches as f64);
        out.set("core.speculative.hit_ratio", r.speculation.hit_rate());
        metrics::set_flash(out, &r.stats);
        metrics::set_breakdown(out, &r.breakdown, r.total_ns);

        let scenario = Scenario {
            benchmark: self.spec.benchmark,
            base: &s.base,
            graph: s.graph.base_graph(),
            trace: &s.trace,
            config: &s.config,
            k: K,
        };
        let platforms: [(&str, &str, &str, Box<dyn Platform>); 5] = [
            (
                "baselines.cpu",
                "baselines.cpu_ms",
                "baselines.speedup_vs_cpu",
                Box::new(CpuPlatform::paper_default()),
            ),
            (
                "baselines.gpu",
                "baselines.gpu_ms",
                "baselines.speedup_vs_gpu",
                Box::new(GpuPlatform::paper_default()),
            ),
            (
                "baselines.smartssd",
                "baselines.smartssd_ms",
                "baselines.speedup_vs_smartssd",
                Box::new(SmartSsdPlatform::paper_default()),
            ),
            (
                "baselines.deepstore_c",
                "baselines.deepstore_c_ms",
                "baselines.speedup_vs_deepstore_c",
                Box::new(DeepStorePlatform::channel_level()),
            ),
            (
                "baselines.deepstore_cp",
                "baselines.deepstore_cp_ms",
                "baselines.speedup_vs_deepstore_cp",
                Box::new(DeepStorePlatform::chip_level()),
            ),
        ];
        let mut slowest_margin = f64::INFINITY;
        for (span, ms_name, speedup_name, platform) in platforms {
            let p = t.span(span, || platform.report(&scenario));
            let speedup = r.qps() / p.qps();
            out.set(ms_name, p.total_ns as f64 / 1e6);
            out.set(speedup_name, speedup);
            slowest_margin = slowest_margin.min(speedup);
        }
        if self.check_ordering {
            out.check(
                "ndsearch_beats_every_baseline",
                slowest_margin > 1.0,
                format!("smallest NDSEARCH speedup over a baseline {slowest_margin:.3}x > 1"),
            );
        }
    }

    fn layer_host_metrics(&self, s: &Staged, spans: &Spans, out: &mut Outcome) {
        let n = s.base.len() as f64;
        out.set(
            "anns.build_us_per_point",
            spans.setup_median("anns.build", false) / n * 1e6,
        );
        out.set(
            "core.engine.host_us_per_query",
            spans.rep_median("core.engine.run") / s.queries.len() as f64 * 1e6,
        );
        out.set(
            "vector.ns_per_distance",
            spans.check_secs("vector.ground_truth") / (n * s.queries.len() as f64) * 1e9,
        );
    }
}
