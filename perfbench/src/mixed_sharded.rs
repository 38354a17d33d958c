//! `mixed_sharded`: open-loop mixed traffic on a 4-shard × 1-replica
//! cluster over sift-like data. Poisson arrivals at a fixed rate, 20%
//! updates (a quarter of them deletes), Zipf-0.9 query skew. Arrivals
//! are simulated timestamps handed to the cluster up front, so they never
//! wait on replies and the generator is never late; latency includes
//! queueing. The only workload with writes and scatter–gather.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use ndsearch_anns::index::{GraphAnnsIndex, MutableIndex};
use ndsearch_anns::vamana::{Vamana, VamanaParams};
use ndsearch_core::serve::SessionState;
use ndsearch_core::traffic::EventKind;
use ndsearch_core::{
    ArrivalModel, ClusterEngine, ClusterQueryRequest, ClusterReport, LatencyBreakdown, NdsConfig,
    QueryMix, Scenario, ServeConfig, Submitted, TenantProfile, TrafficTrace,
};
use ndsearch_flash::stats::FlashStats;
use ndsearch_vector::synthetic::DatasetSpec;
use ndsearch_vector::topk::{Neighbor, TopK};
use ndsearch_vector::{recall_at_k, Dataset, DistanceKind, ShardPlan, ShardPolicy, VectorId};

use crate::harness::{percentile, Opts, Outcome, Spans, Workload};
use crate::metrics;
use crate::serve_int8::is_terminal;
use crate::trace::Tracer;

const K: usize = 10;
const SHARDS: usize = 4;
/// Offered load, events per simulated second.
const RATE_PER_S: f64 = 8_000.0;

/// The workload's sizes.
pub struct MixedSharded {
    spec: DatasetSpec,
    /// Query-pool rows; the rest of the generated query set is the
    /// ingest pool, so inserts follow the base distribution.
    pool: usize,
    events: usize,
    seed: u64,
}

/// Set-up output.
pub struct Staged {
    base: Dataset,
    queries: Dataset,
    ingest: Dataset,
    traffic: TrafficTrace,
    plan: ShardPlan,
    /// Each shard's built index and entry vertex, in shard order.
    shards: Vec<(Vamana, VectorId)>,
    config: NdsConfig,
    serve: ServeConfig,
}

/// One repetition's output.
pub struct Run {
    report: ClusterReport,
    submitted: Vec<Submitted>,
    /// First repetition only: for each completed insert, its global id,
    /// its ingest-pool row and the top-k of a follow-up query for it.
    followups: Vec<(VectorId, VectorId, Vec<Neighbor>)>,
}

impl MixedSharded {
    /// Sizes for `opts` (n = 10k, 2,048 events at 8k/s).
    pub fn new(opts: &Opts) -> Self {
        let pool = opts.scale(1024, 64);
        let mut spec = DatasetSpec::sift_scaled(opts.scale(10_000, 800), 2 * pool);
        spec.seed = opts.seed;
        Self {
            spec,
            pool,
            events: opts.scale(2048, 256),
            seed: opts.seed,
        }
    }

    fn stage<'a>(&self, s: &'a Staged) -> ClusterEngine<'a> {
        let next = Cell::new(0);
        ClusterEngine::stage(&s.config, s.serve.clone(), s.plan.clone(), &s.base, |ds| {
            let (index, entry) = &s.shards[next.get()];
            next.set(next.get() + 1);
            assert_eq!(
                index.base_graph().num_vertices(),
                ds.len(),
                "shard order changed"
            );
            (Box::new(index.clone()) as Box<dyn MutableIndex>, *entry)
        })
    }
}

impl Workload for MixedSharded {
    type Staged = Staged;
    type Run = Run;

    fn setup(&self, t: &Tracer) -> Staged {
        let (base, queries, ingest) = t.span("vector.gen", || {
            let (base, generated) = self.spec.build_pair();
            let (queries, ingest) = split_rows(&generated, self.pool);
            (base, queries, ingest)
        });
        let scenario = Scenario {
            arrivals: ArrivalModel::Poisson {
                rate_qps: RATE_PER_S,
            },
            mix: QueryMix {
                zipf_theta: 0.9,
                delete_fraction: 0.25,
                tenants: vec![TenantProfile::new(0).update_fraction(0.2)],
            },
            events: self.events,
            start_ns: 0,
            seed: self.seed,
        };
        let traffic = t.span("core.traffic.generate", || {
            scenario.generate(queries.len(), ingest.len(), 0..base.len() as VectorId)
        });
        let plan = ShardPlan::partition(base.len(), SHARDS, ShardPolicy::BalancedSize, self.seed);
        let config = NdsConfig::scaled_for(base.len() * 2, base.stored_vector_bytes());
        let serve = ServeConfig {
            k: K,
            ..ServeConfig::default()
        };
        let built = RefCell::new(Vec::new());
        t.span("core.stage", || {
            ClusterEngine::stage(&config, serve.clone(), plan.clone(), &base, |ds| {
                let index = t.span("anns.build", || Vamana::build(ds, VamanaParams::default()));
                let entry = index.medoid();
                built.borrow_mut().push((index.clone(), entry));
                (Box::new(index) as Box<dyn MutableIndex>, entry)
            })
        });
        Staged {
            base,
            queries,
            ingest,
            traffic,
            plan,
            shards: built.into_inner(),
            config,
            serve,
        }
    }

    fn same_setup(a: &Staged, b: &Staged) -> bool {
        a.base == b.base
            && a.traffic == b.traffic
            && a.plan == b.plan
            && a.shards.len() == b.shards.len()
            && a.shards
                .iter()
                .zip(&b.shards)
                .all(|(x, y)| x.1 == y.1 && x.0.base_graph() == y.0.base_graph())
    }

    fn rep(&self, s: &Staged, t: &Tracer, first: bool) -> (f64, Run) {
        let mut cluster = self.stage(s);
        let submitted = s
            .traffic
            .submit_cluster(&mut cluster, &s.queries, &s.ingest);
        let start = std::time::Instant::now();
        let report = t.span("core.cluster.run", || cluster.run_to_completion());
        let secs = start.elapsed().as_secs_f64();

        let mut followups = Vec::new();
        if first {
            // After the run drains: query each completed insert's vector.
            let inserted: Vec<(VectorId, VectorId)> = s
                .traffic
                .events
                .iter()
                .zip(&submitted)
                .filter_map(|(e, sub)| match (&e.kind, sub) {
                    (EventKind::Insert { pool_id }, Submitted::Update(u)) => {
                        let o = &report.update_outcomes[*u];
                        (o.state == SessionState::Completed)
                            .then(|| (o.assigned.expect("completed insert has an id"), *pool_id))
                    }
                    _ => None,
                })
                .collect();
            let first_followup = report.outcomes.len();
            for &(_, row) in &inserted {
                cluster.submit(ClusterQueryRequest::at(0, s.ingest.vector(row).to_vec()));
            }
            let after = cluster.run_to_completion();
            followups = inserted
                .into_iter()
                .zip(&after.outcomes[first_followup..])
                .map(|((id, row), o)| (id, row, o.results.clone()))
                .collect();
        }
        (
            secs,
            Run {
                report,
                submitted,
                followups,
            },
        )
    }

    fn same_run(a: &Run, b: &Run) -> bool {
        a.report == b.report && a.submitted == b.submitted
    }

    fn check(&self, s: &Staged, run: &Run, t: &Tracer, out: &mut Outcome) {
        let r = &run.report;
        let events = &s.traffic.events;
        out.notes.push(format!(
            "open loop: {} events over {:.3} ms simulated; arrivals are precomputed simulated \
             timestamps, so generator lateness is 0 by construction",
            events.len(),
            s.traffic.span_ns() as f64 / 1e6
        ));

        // ---- Terminal states and failures. ----
        let queries_total = r.outcomes.len();
        let updates_total = r.update_outcomes.len();
        let terminal = r.outcomes.iter().filter(|o| is_terminal(o.state)).count()
            + r.update_outcomes
                .iter()
                .filter(|o| is_terminal(o.state))
                .count();
        let failed = (queries_total - r.completed()) + (updates_total - r.updates_completed());
        out.attempted += (queries_total + updates_total) as u64;
        out.failed += failed as u64;
        out.check(
            "every_operation_terminal",
            terminal == events.len() && queries_total + updates_total == events.len(),
            format!(
                "{terminal} of {} queries and updates reached a terminal state",
                events.len()
            ),
        );
        out.set("failed_frac", failed as f64 / events.len().max(1) as f64);

        // ---- Simulated end-to-end metrics. ----
        out.set("sim_qps", r.qps());
        let lat: Vec<Option<u64>> = r
            .outcomes
            .iter()
            .map(|o| (o.state == SessionState::Completed).then(|| o.latency_ns()))
            .collect();
        metrics::set_latency(out, &lat);
        let upd: Vec<f64> = r
            .update_outcomes
            .iter()
            .map(|o| {
                if o.state == SessionState::Completed {
                    o.latency_ns() as f64 / 1e3
                } else {
                    metrics::INFINITELY_LATE_US
                }
            })
            .collect();
        out.set("sim_update_p99_us", percentile(&upd, 99.0));

        // ---- Deletes: no completed query returns an id whose delete
        // completed before the query arrived. ----
        let mut deleted_at: HashMap<VectorId, u64> = HashMap::new();
        let mut insert_done: HashMap<VectorId, (u64, VectorId)> = HashMap::new();
        for (e, sub) in events.iter().zip(&run.submitted) {
            let Submitted::Update(u) = sub else { continue };
            let o = &r.update_outcomes[*u];
            if o.state != SessionState::Completed {
                continue;
            }
            match e.kind {
                EventKind::Delete { id } => {
                    deleted_at.insert(id, o.completed_ns);
                }
                EventKind::Insert { pool_id } => {
                    let id = o.assigned.expect("completed insert has an id");
                    insert_done.insert(id, (o.completed_ns, pool_id));
                }
                _ => {}
            }
        }
        let stale = r
            .outcomes
            .iter()
            .filter(|o| o.state == SessionState::Completed)
            .flat_map(|o| o.results.iter().map(move |n| (o.arrival_ns, n.id)))
            .filter(|(arrival, id)| deleted_at.get(id).is_some_and(|&d| d <= *arrival))
            .count();
        out.check(
            "no_deleted_id_returned",
            stale == 0,
            format!("{stale} results name an id deleted before the query arrived"),
        );

        // ---- Inserts: a follow-up query finds each one at rank 1 (an
        // identical vector inserted twice may take rank 1 instead). ----
        let missed = run
            .followups
            .iter()
            .filter(|(id, row, results)| {
                results.first().is_none_or(|top| {
                    top.id != *id
                        && !(top.distance == 0.0
                            && insert_done.get(&top.id).is_some_and(|&(_, r)| r == *row))
                })
            })
            .count();
        out.attempted += run.followups.len() as u64;
        out.failed += missed as u64;
        out.check(
            "inserted_id_at_rank_1",
            missed == 0 && run.followups.len() == insert_done.len(),
            format!(
                "{} of {} inserts found at rank 1 by a follow-up query",
                run.followups.len() - missed,
                insert_done.len()
            ),
        );

        // ---- Recall against brute force over the live corpus as of each
        // query's arrival (base minus completed deletes plus completed
        // inserts). ----
        let (gt, found) = t.span("vector.ground_truth", || {
            live_ground_truth(s, r, &deleted_at, &insert_done)
        });
        out.set("recall_at_10", recall_at_k(&gt, &found, K));

        // ---- Per-layer simulated metrics, summed over shards. ----
        let (mut stats, mut breakdown) = (FlashStats::new(), LatencyBreakdown::default());
        let (mut rounds, mut peak, mut waits) = (0u64, 0usize, Vec::new());
        let mut shard_hops: Vec<Vec<usize>> = Vec::new();
        for shard in &r.shards {
            for rep in &shard.replicas {
                let sr = &rep.report;
                stats.merge(&sr.stats);
                breakdown.merge(&sr.breakdown);
                rounds += sr.rounds;
                peak = peak.max(sr.peak_inflight);
                waits.extend(sr.outcomes.iter().map(|o| o.queue_wait_ns() as f64 / 1e3));
                shard_hops.push(sr.outcomes.iter().map(|o| o.hops).collect());
            }
        }
        metrics::set_flash(out, &stats);
        metrics::set_breakdown(out, &breakdown, r.makespan_ns);
        out.set("core.serve.rounds", rounds as f64);
        out.set("core.serve.peak_inflight", peak as f64);
        out.set("core.serve.queue_wait_p99_us", percentile(&waits, 99.0));
        out.set(
            "core.serve.backlog_ms",
            r.makespan_ns.saturating_sub(s.traffic.span_ns()) as f64 / 1e6,
        );
        let hops: usize = r.outcomes.iter().map(|o| o.hops).sum();
        out.set(
            "anns.hops_per_query",
            hops as f64 / queries_total.max(1) as f64,
        );
        out.set("core.cluster.load_imbalance", r.load_imbalance());
        // With one replica and no hedging, shard session j is cluster
        // query j on every shard.
        let straggler: Vec<f64> = (0..queries_total)
            .filter_map(|q| {
                let per: Vec<usize> = shard_hops
                    .iter()
                    .filter_map(|h| h.get(q).copied())
                    .collect();
                let mean = per.iter().sum::<usize>() as f64 / per.len().max(1) as f64;
                (mean > 0.0).then(|| *per.iter().max().expect("non-empty") as f64 / mean)
            })
            .collect();
        out.set(
            "core.cluster.straggler_ratio",
            straggler.iter().sum::<f64>() / straggler.len().max(1) as f64,
        );
        let totals = r.update_totals();
        out.set(
            "core.deploy.pages_programmed",
            totals.pages_programmed as f64,
        );
        out.set("flash.write_amp", totals.write_amplification());
        let inserts = r
            .update_outcomes
            .iter()
            .filter(|o| o.state == SessionState::Completed && o.assigned.is_some());
        let (count, repaired) =
            inserts.fold((0usize, 0usize), |(c, rp), o| (c + 1, rp + o.repaired));
        out.set(
            "core.deploy.repaired_per_insert",
            repaired as f64 / count.max(1) as f64,
        );
    }

    fn layer_host_metrics(&self, s: &Staged, spans: &Spans, out: &mut Outcome) {
        let n = s.base.len() as f64;
        out.set(
            "anns.build_us_per_point",
            spans.setup_median("anns.build", false) / n * 1e6,
        );
        let run = spans.rep_median("core.cluster.run");
        out.set(
            "core.cluster.host_us_per_event",
            run / s.traffic.len().max(1) as f64 * 1e6,
        );
        let hops = out
            .values
            .get("anns.hops_per_query")
            .copied()
            .unwrap_or(0.0)
            * s.traffic.queries() as f64;
        out.set("core.serve.host_ns_per_hop", run / hops.max(1.0) * 1e9);
        // The live corpus is the base give or take a few hundred updates.
        let pairs = s.traffic.queries() as f64 * n;
        out.set(
            "vector.ns_per_distance",
            spans.check_secs("vector.ground_truth") / pairs.max(1.0) * 1e9,
        );
    }
}

/// Rows `..at` and `at..` of `ds` as two datasets.
fn split_rows(ds: &Dataset, at: usize) -> (Dataset, Dataset) {
    let cut = at * ds.dim();
    let part = |flat: &[f32]| {
        let mut d = Dataset::from_flat(ds.dim(), flat.to_vec());
        d.set_stored_vector_bytes(ds.stored_vector_bytes());
        d
    };
    (part(&ds.as_flat()[..cut]), part(&ds.as_flat()[cut..]))
}

/// Ground truth and found ids for every completed query, over the
/// corpus live at its arrival.
fn live_ground_truth(
    s: &Staged,
    r: &ClusterReport,
    deleted_at: &HashMap<VectorId, u64>,
    insert_done: &HashMap<VectorId, (u64, VectorId)>,
) -> (Vec<Vec<VectorId>>, Vec<Vec<VectorId>>) {
    let mut inserted: Vec<(VectorId, u64, &[f32])> = insert_done
        .iter()
        .map(|(&id, &(done, row))| (id, done, s.ingest.vector(row)))
        .collect();
    inserted.sort_by_key(|&(id, _, _)| id);
    let kind = DistanceKind::L2;
    let (mut gt, mut found) = (Vec::new(), Vec::new());
    let mut query_rows = s.traffic.events.iter().filter_map(|e| match e.kind {
        EventKind::Query { pool_id, .. } => Some(pool_id),
        _ => None,
    });
    for o in &r.outcomes {
        let row = query_rows.next().expect("one pool row per query");
        if o.state != SessionState::Completed {
            continue;
        }
        let q = s.queries.vector(row);
        let mut top = TopK::new(K);
        for (id, v) in s.base.iter() {
            if deleted_at.get(&id).is_none_or(|&d| d > o.arrival_ns) {
                top.push(Neighbor::new(kind.eval(q, v), id));
            }
        }
        for &(id, done, v) in &inserted {
            if done <= o.arrival_ns {
                top.push(Neighbor::new(kind.eval(q, v), id));
            }
        }
        gt.push(top.into_sorted_vec().iter().map(|n| n.id).collect());
        found.push(o.results.iter().map(|n| n.id).collect());
    }
    (gt, found)
}
