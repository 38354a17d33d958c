//! The production-day battery: hours of simulated mixed traffic —
//! Zipfian multi-tenant queries, online inserts/deletes, a compaction,
//! an evening load spike and a replica kill — over a sharded replicated
//! cluster, gated on recall, SLO attainment, zero lost queries, write
//! amplification and bit-identical replay across reruns; plus a
//! single-engine overload burst showing `ShedDoomed` improves the
//! survivors' on-time completion without silently dropping anything.

use std::collections::BTreeMap;

use ndsearch::anns::index::{GraphAnnsIndex, MutableIndex};
use ndsearch::anns::vamana::{Vamana, VamanaParams};
use ndsearch::core::cluster::{
    ClusterEngine, ClusterQueryRequest, FailureSchedule, ReplicationConfig,
};
use ndsearch::core::config::NdsConfig;
use ndsearch::core::deploy::CompactionReport;
use ndsearch::core::pipeline::Prepared;
use ndsearch::core::traffic::{
    ArrivalModel, EventKind, QueryMix, Scenario, TenantProfile, TrafficEvent,
};
use ndsearch::core::ClusterReport;
use ndsearch::flash::timing::Nanos;
use ndsearch::serve::{
    QueryRequest, ServeConfig, ServeEngine, ServeReport, SessionState, SloPolicy,
};
use ndsearch::vector::recall::{ground_truth, recall_at_k};
use ndsearch::vector::shard::{ShardPlan, ShardPolicy};
use ndsearch::vector::synthetic::DatasetSpec;
use ndsearch::vector::{Dataset, DistanceKind, VectorId};

const HOUR: Nanos = 3_600_000_000_000;
const N_BASE: usize = 600;

fn vamana_builder(ds: &Dataset) -> (Box<dyn MutableIndex>, VectorId) {
    let index = Vamana::build(ds, VamanaParams::default());
    let entry = index.medoid();
    (Box::new(index), entry)
}

fn is_terminal(s: SessionState) -> bool {
    matches!(
        s,
        SessionState::Completed | SessionState::Expired | SessionState::Rejected
    )
}

/// Splits the 700-row corpus into the staged base (rows `0..600`) and the
/// ingest pool (rows `600..700`) that the day's inserts draw from.
fn split(all: &Dataset) -> (Dataset, Dataset) {
    let mut base = Dataset::new(all.dim());
    let mut ingest = Dataset::new(all.dim());
    for (id, v) in all.iter() {
        if (id as usize) < N_BASE {
            base.try_push(v).unwrap();
        } else {
            ingest.try_push(v).unwrap();
        }
    }
    base.set_stored_vector_bytes(all.stored_vector_bytes());
    ingest.set_stored_vector_bytes(all.stored_vector_bytes());
    (base, ingest)
}

fn tenants() -> Vec<TenantProfile> {
    vec![
        // The latency-sensitive tenant: two thirds of the traffic, 20 ms
        // deadlines (unloaded cluster latency is ~3 ms), pure reads.
        TenantProfile::new(0).weight(2.0).deadline_ns(20_000_000),
        // The churn tenant: best-effort, half its events are updates,
        // smaller top-k.
        TenantProfile::new(1).update_fraction(0.5).k(5),
    ]
}

/// One full simulated production day over a 2-shard × 2-replica cluster.
/// Returns the cumulative cluster report, the midday compaction reports,
/// and the generated trace events (phase A then phase B, each in
/// submission order).
fn run_day() -> (ClusterReport, Vec<CompactionReport>, Vec<TrafficEvent>) {
    let (all, audit) = DatasetSpec::sift_scaled(N_BASE + 100, 24).build_pair();
    let (base, ingest) = split(&all);
    let mut config = NdsConfig::scaled_for(all.len(), all.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;

    let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0x5A);
    // Shard 0's replica 0 dies 1 ms into the evening spike, with sessions
    // in flight on it.
    let kill_at = HOUR + 1_000_000;
    let replication =
        ReplicationConfig::replicated(2).with_failures(FailureSchedule::new().kill(kill_at, 0, 0));
    let serve = ServeConfig {
        k: 10,
        beam_width: 80,
        slo: SloPolicy::ShedDoomed { min_slack_ns: 0 },
        ..ServeConfig::default()
    };
    let mut cluster =
        ClusterEngine::stage_replicated(&config, serve, plan, replication, &base, vamana_builder);

    // ---- Phase A: the steady morning (~45 simulated minutes). ----
    let morning = Scenario {
        arrivals: ArrivalModel::Poisson { rate_qps: 0.05 },
        mix: QueryMix {
            zipf_theta: 0.9,
            delete_fraction: 0.4,
            tenants: tenants(),
        },
        events: 140,
        start_ns: 0,
        seed: 0xDA7,
    };
    let trace_a = morning.generate(audit.len(), ingest.len(), 0..120);
    trace_a.submit_cluster(&mut cluster, &audit, &ingest);
    cluster.run_to_completion();

    // ---- Midday maintenance: compact every live replica. ----
    let compactions = cluster.compact_all();

    // ---- Phase B: the evening — a 2 ms spike at hour 1, then tail. ----
    let evening = Scenario {
        arrivals: ArrivalModel::Bursty {
            base_rate_qps: 0.05,
            spike_rate_qps: 50_000.0,
            spike_windows: vec![(0, 2_000_000)],
        },
        mix: QueryMix {
            zipf_theta: 0.9,
            delete_fraction: 0.4,
            tenants: tenants(),
        },
        events: 180,
        start_ns: HOUR,
        seed: 0xE5E,
    };
    let trace_b = evening.generate(audit.len(), ingest.len(), 120..240);
    trace_b.submit_cluster(&mut cluster, &audit, &ingest);
    cluster.run_to_completion();

    // ---- Phase C: the closing audit — every benchmark query, no
    // deadline, after all churn has drained. ----
    for (i, (_, q)) in audit.iter().enumerate() {
        cluster.submit(ClusterQueryRequest::at(
            3 * HOUR + i as Nanos * 50_000,
            q.to_vec(),
        ));
    }
    let report = cluster.run_to_completion();

    let mut events = trace_a.events;
    events.extend(trace_b.events);
    (report, compactions, events)
}

/// Replays the day's completed updates over the staged base to recover
/// the live corpus: global id → vector, for the recall ground truth.
fn live_corpus(
    base: &Dataset,
    ingest: &Dataset,
    events: &[TrafficEvent],
    report: &ClusterReport,
) -> BTreeMap<VectorId, Vec<f32>> {
    let mut live: BTreeMap<VectorId, Vec<f32>> = (0..base.len() as VectorId)
        .map(|g| (g, base.vector(g).to_vec()))
        .collect();
    let mut u = 0;
    for e in events {
        match &e.kind {
            EventKind::Query { .. } => {}
            EventKind::Insert { pool_id } => {
                let o = &report.update_outcomes[u];
                u += 1;
                if o.state == SessionState::Completed {
                    let gid = o.assigned.expect("completed insert has a global id");
                    let prev = live.insert(gid, ingest.vector(*pool_id).to_vec());
                    assert!(prev.is_none(), "insert reused live global id {gid}");
                }
            }
            EventKind::Delete { id } => {
                let o = &report.update_outcomes[u];
                u += 1;
                if o.state == SessionState::Completed {
                    assert!(live.remove(id).is_some(), "deleted unknown id {id}");
                }
            }
        }
    }
    assert_eq!(u, report.update_outcomes.len(), "update accounting drifted");
    live
}

#[test]
fn production_day_survives_churn_spike_and_replica_loss() {
    let (all, audit) = DatasetSpec::sift_scaled(N_BASE + 100, 24).build_pair();
    let (base, ingest) = split(&all);
    let (report, compactions, events) = run_day();

    // -- Zero lost work: every event reached a terminal state. --
    let trace_queries = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Query { .. }))
        .count();
    assert_eq!(report.outcomes.len(), trace_queries + audit.len());
    assert_eq!(report.update_outcomes.len(), events.len() - trace_queries);
    for o in &report.outcomes {
        assert!(is_terminal(o.state), "query {} not terminal", o.id);
        if o.shed {
            assert_ne!(o.state, SessionState::Completed, "shed query completed");
        }
    }
    for o in &report.update_outcomes {
        assert!(is_terminal(o.state), "update {} not terminal", o.id);
    }
    assert_eq!(
        report.completed() + report.expired() + report.rejected(),
        report.outcomes.len()
    );

    // -- The day really spans hours of simulated time. --
    let last = report
        .outcomes
        .iter()
        .map(|o| o.completed_ns)
        .max()
        .unwrap();
    assert!(last > 3 * HOUR, "day ended at {last} ns");

    // -- SLO accounting: attainment in (0, 1], both tenants reported. --
    let attainment = report.slo_attainment();
    assert!(
        attainment > 0.0 && attainment <= 1.0,
        "attainment {attainment}"
    );
    let tenants = report.tenant_summaries();
    assert_eq!(
        tenants.iter().map(|t| t.tenant).collect::<Vec<_>>(),
        vec![0, 1]
    );
    assert_eq!(
        tenants.iter().map(|t| t.submitted).sum::<usize>(),
        report.outcomes.len()
    );
    assert!(report.tenant_p99_fairness() >= 1.0);

    // -- Writes were charged and compaction really ran on all 4 devices. --
    let totals = report.update_totals();
    assert!(totals.pages_programmed > 0, "no pages programmed");
    assert!(totals.write_amplification() > 0.0);
    assert_eq!(compactions.len(), 4, "one compaction per live replica");
    for c in &compactions {
        assert!(c.pages_programmed > 0 && c.duration_ns > 0);
    }

    // -- The kill landed: shard 0 lost replica 0 mid-spike and failed
    //    over; every other shard stayed whole. --
    let s0 = &report.shards[0];
    assert!(!s0.replicas[0].alive);
    assert_eq!(s0.replicas[0].killed_ns, Some(HOUR + 1_000_000));
    assert!(s0.replicas[1].alive);
    assert!(s0.availability < 1.0 && s0.availability > 0.0);
    assert!(
        report.failovers() > 0,
        "mid-spike kill must re-seed sessions"
    );
    assert_eq!(report.shards[1].availability, 1.0);

    // -- Closing audit: recall over the *live* corpus (base − completed
    //    deletes + completed inserts) at the 0.80 gate. --
    let live = live_corpus(&base, &ingest, &events, &report);
    let mut live_ids = Vec::with_capacity(live.len());
    let mut live_ds = Dataset::new(all.dim());
    for (gid, v) in &live {
        live_ids.push(*gid);
        live_ds.try_push(v).unwrap();
    }
    let gt = ground_truth(&live_ds, &audit, 10, DistanceKind::L2);
    let gt_gids: Vec<Vec<VectorId>> = gt
        .iter()
        .map(|row| row.iter().map(|&r| live_ids[r as usize]).collect())
        .collect();
    let audit_outcomes = &report.outcomes[report.outcomes.len() - audit.len()..];
    for o in audit_outcomes {
        assert_eq!(
            o.state,
            SessionState::Completed,
            "audit query {} lost",
            o.id
        );
        for n in &o.results {
            assert!(
                live.contains_key(&n.id),
                "audit query {} surfaced dead id {}",
                o.id,
                n.id
            );
        }
    }
    let merged: Vec<Vec<VectorId>> = audit_outcomes
        .iter()
        .map(|o| o.results.iter().map(|n| n.id).collect())
        .collect();
    let recall = recall_at_k(&gt_gids, &merged, 10);
    assert!(recall >= 0.80, "post-churn recall {recall} below 0.80");
}

#[test]
fn production_day_is_bit_identical_across_reruns_and_thread_counts() {
    let (r1, c1, e1) = run_day();
    let (r2, c2, e2) = run_day();
    assert_eq!(e1, e2, "trace generation must replay bit-identically");
    assert_eq!(r1, r2, "independent rerun diverged");
    assert_eq!(c1, c2);
}

// ---------------------------------------------------------------------
// Single-engine overload burst: ShedDoomed on vs off.
// ---------------------------------------------------------------------

struct Overload {
    config: NdsConfig,
    base: Dataset,
    graph: ndsearch::graph::Csr,
    queries: Dataset,
    medoid: VectorId,
}

fn overload_fixture() -> Overload {
    let (base, queries) = DatasetSpec::sift_scaled(500, 16).build_pair();
    let index = Vamana::build(&base, VamanaParams::default());
    let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
    config.ecc.hard_decision_failure_prob = 0.0;
    Overload {
        config,
        graph: index.base_graph().clone(),
        medoid: index.medoid(),
        base,
        queries,
    }
}

fn overload_run(fx: &Overload, slo: SloPolicy, gap_ns: Nanos, deadline_ns: Nanos) -> ServeReport {
    let prepared = Prepared::stage(
        &fx.config,
        &fx.graph,
        &fx.base,
        &ndsearch::anns::trace::BatchTrace::default(),
    );
    let serve = ServeConfig {
        max_inflight: 4,
        slo,
        ..ServeConfig::default()
    };
    let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
    for i in 0..60 {
        let q = fx
            .queries
            .vector((i % fx.queries.len()) as VectorId)
            .to_vec();
        let arrival = i as Nanos * gap_ns;
        let mut req = QueryRequest::at(arrival, q, vec![fx.medoid]);
        req.deadline_ns = Some(arrival + deadline_ns);
        engine.submit(req);
    }
    engine.run_to_completion()
}

#[test]
fn shed_doomed_saves_survivors_under_overload() {
    let fx = overload_fixture();
    // Calibrate: one query alone, no deadline.
    let solo = overload_run(&fx, SloPolicy::None, Nanos::MAX / 128, Nanos::MAX / 2);
    let l = solo.outcomes[0].latency_ns();
    assert!(l > 0);
    // 60 queries at 8 arrivals per unloaded-latency against 4 slots is a
    // sustained ~2× overload; deadlines at 4× the unloaded latency.
    let off = overload_run(&fx, SloPolicy::None, l / 8, 4 * l);
    let on = overload_run(&fx, SloPolicy::ShedDoomed { min_slack_ns: 0 }, l / 8, 4 * l);

    // Shedding really triggered, and nothing was silently dropped: every
    // shed query is reported Rejected (from the queue) or Expired (from
    // flight), and every submitted query reached a terminal state.
    assert!(on.sheds() > 0, "2x overload must shed");
    assert_eq!(on.outcomes.len(), 60);
    assert_eq!(off.outcomes.len(), 60);
    for o in &on.outcomes {
        assert!(is_terminal(o.state), "query {} not terminal", o.id);
        if o.shed {
            assert!(
                o.state == SessionState::Rejected || o.state == SessionState::Expired,
                "shed query {} reported {:?}",
                o.id,
                o.state
            );
        }
    }
    assert_eq!(off.sheds(), 0, "SloPolicy::None must never shed");

    // The point of shedding: capacity stops being burned on doomed
    // sessions, so more of the survivors complete on time...
    let on_time_on = on.outcomes.iter().filter(|o| o.on_time()).count();
    let on_time_off = off.outcomes.iter().filter(|o| o.on_time()).count();
    assert!(
        on_time_on > on_time_off,
        "shedding must improve on-time completions: {on_time_on} vs {on_time_off}"
    );
    // ...and the overall SLO attainment improves with it.
    assert!(
        on.slo_attainment() > off.slo_attainment(),
        "attainment: shed {} vs unshed {}",
        on.slo_attainment(),
        off.slo_attainment()
    );
}
