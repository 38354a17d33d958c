//! Concurrent multi-query serving on the SearSSD model.
//!
//! The batch engine ([`crate::engine::NdsEngine`]) replays one recorded
//! trace to completion — the regime the paper evaluates. A production
//! deployment instead sees an *open stream* of queries: they arrive at
//! arbitrary times, each wants its own top-k back as fast as possible, and
//! the device should keep every channel and die busy by interleaving work
//! from many in-flight searches. This module provides that layer:
//!
//! * [`QueryRequest`] / [`QueryOutcome`] — a query session with arrival
//!   time, optional absolute deadline, and per-query top-k state;
//! * [`ServeEngine`] — submit / poll / step / complete. Each scheduling
//!   round takes **one beam-search hop from every in-flight query** (a
//!   live [`BeamSearcher`] per session, relabeled into the reordered id
//!   space via [`Prepared::relabel_hop`]) and executes the merged work on
//!   the SearSSD model through the same round executor as the batch
//!   engine, so static scheduling (reorder + multi-plane placement, baked
//!   into [`Prepared`]) and dynamic allocating (alloc-stage overlap) apply
//!   unchanged;
//! * [`ServeConfig`] — admission and backpressure: in-flight sessions are
//!   capped by the configured limit, the device's batch resource cap, and
//!   the number of query-property records the internal DRAM budget holds
//!   ([`QueryPropertyTable::max_resident`]); arrivals beyond the wait-queue
//!   capacity are rejected. [`SloPolicy`] layers deadline-aware
//!   scheduling on top: shedding work that cannot meet its deadline
//!   (`ShedDoomed`) and per-tenant in-flight fairness (`TenantFair`),
//!   with per-tenant roll-ups, [`ServeReport::slo_attainment`] and shed
//!   counts on the report;
//! * [`UpdateRequest`] / [`UpdateOutcome`] — online inserts and
//!   tombstone deletes as *update sessions* over a mutable
//!   [`Deployment`]: they arrive, wait in a bounded write queue
//!   (rejection = ingest backpressure), and are applied in admission
//!   order between search rounds, capped per round
//!   ([`ServeConfig::max_updates_per_round`]). Inserts link through the
//!   index's construction kernel, extend the LUNCSR delta segment and
//!   charge the flash program path. Updates mutate the deployment only
//!   after a round's searches, so mixed query+update serving replays
//!   bit-identically;
//! * [`ServeReport`] — QPS over the makespan, per-query latency order
//!   statistics ([`LatencySummary`]), wall-clock simulation
//!   throughput (`wall_s` / [`ServeReport::sim_ns_per_wall_s`]), and the
//!   update stream's outcomes, throughput
//!   ([`ServeReport::update_qps`]) and write amplification.
//!
//! Each scheduling round runs inline on the calling thread: the hops in
//! admission order, then the merged per-LUN work through the batch
//! engine's round executor, folded in stable LUN order — so every report
//! replays bit-identically.
//!
//! Because every hop is produced by the same expansion kernel as
//! [`beam_search`](ndsearch_anns::beam::beam_search), a query served
//! concurrently returns exactly the result list it would get from a
//! sequential run — concurrency changes *when* work happens, never *what*
//! is computed. Speculative searching is not modeled here: it keys off the
//! recorded next-iteration entry, which a live search does not know.
//!
//! # Example
//!
//! ```
//! use ndsearch_core::config::NdsConfig;
//! use ndsearch_core::pipeline::Prepared;
//! use ndsearch_core::serve::{QueryRequest, ServeConfig, ServeEngine};
//! use ndsearch_anns::trace::BatchTrace;
//! use ndsearch_anns::vamana::{Vamana, VamanaParams};
//! use ndsearch_anns::index::GraphAnnsIndex;
//! use ndsearch_vector::synthetic::DatasetSpec;
//!
//! let (base, queries) = DatasetSpec::sift_scaled(400, 8).build_pair();
//! let index = Vamana::build(&base, VamanaParams::default());
//! let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
//! let prepared = Prepared::stage(&config, index.base_graph(), &base, &BatchTrace::default());
//! let mut engine = ServeEngine::new(
//!     &config,
//!     ServeConfig::default(),
//!     &prepared,
//!     &base,
//!     index.base_graph(),
//! );
//! for (_, q) in queries.iter() {
//!     engine.submit(QueryRequest::at(0, q.to_vec(), vec![index.medoid()]));
//! }
//! let report = engine.run_to_completion();
//! assert_eq!(report.completed(), 8);
//! assert!(report.qps() > 0.0);
//! ```

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use ndsearch_anns::beam::BeamSearcher;
use ndsearch_anns::trace::IterationTrace;
use ndsearch_flash::ecc::EccEngine;
use ndsearch_flash::stats::FlashStats;
use ndsearch_flash::timing::Nanos;
use ndsearch_graph::csr::Csr;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::{DistanceKind, VectorId};

use crate::config::NdsConfig;
use crate::deploy::{Deployment, UpdateTotals};
use crate::engine::{execute_round, sorting_tail, RoundSinks};
use crate::pipeline::Prepared;
use crate::qpt::QueryPropertyTable;
use crate::report::{LatencyBreakdown, LatencySummary};

/// Identifier of a submitted query session (dense, in submission order).
pub type QueryId = usize;

/// Admission, backpressure and search knobs of the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Maximum concurrently executing sessions. The effective cap is also
    /// bounded by [`NdsConfig::max_batch_inflight`] and by how many QPT
    /// records fit in `qpt_dram_budget_bytes`.
    pub max_inflight: usize,
    /// Arrived-but-not-admitted sessions the wait queue holds; arrivals
    /// beyond this are rejected (backpressure to the caller).
    pub queue_capacity: usize,
    /// Beam width (`ef`) each session searches with.
    pub beam_width: usize,
    /// Top-k entries returned per query.
    pub k: usize,
    /// Distance function (must match graph construction).
    pub distance: DistanceKind,
    /// Internal-DRAM budget for the query property table; divides by the
    /// per-session record size to bound residency.
    pub qpt_dram_budget_bytes: u64,
    /// Updates applied per scheduling round (admission cap of the write
    /// path: the embedded cores apply updates in admission order between
    /// search rounds, so a burst of inserts cannot starve queries).
    pub max_updates_per_round: usize,
    /// Arrived-but-not-applied updates the write queue holds; arrivals
    /// beyond this are rejected (ingest backpressure).
    pub update_queue_capacity: usize,
    /// Deadline-aware admission policy. [`SloPolicy::None`] preserves the
    /// legacy FIFO behavior bit-for-bit.
    pub slo: SloPolicy,
    /// Compressed-vector search only: how many of the best approximate
    /// candidates are rescored with exact distances at completion, each
    /// paying a modeled flash read ([`LatencyBreakdown::rerank_ns`]).
    /// Clamped up to the session's top-k; ignored when
    /// [`NdsConfig::quantization`] is off.
    pub rerank_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_inflight: 64,
            queue_capacity: 4096,
            beam_width: 64,
            k: 10,
            distance: DistanceKind::L2,
            qpt_dram_budget_bytes: 64 << 20,
            max_updates_per_round: 4,
            update_queue_capacity: 4096,
            slo: SloPolicy::None,
            rerank_depth: 32,
        }
    }
}

/// Deadline-aware scheduling policy of the serving layer.
///
/// All decisions run on the simulated clock and on counters derived from
/// the simulation alone, so every policy keeps reports bit-identical
/// from run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloPolicy {
    /// Pure FIFO admission (the legacy behavior): nothing is shed, no
    /// per-tenant caps.
    None,
    /// Shed work that cannot meet its deadline, instead of letting it
    /// burn device time and slow everyone else down.
    ///
    /// The estimator (documented, pinned by `tests/scheduling_invariants.rs`):
    /// the per-hop cost is the observed mean duration of rounds that
    /// executed at least one hop (`0` until the first such round — the
    /// engine starts optimistic and sheds nothing); the expected hop count
    /// is the mean hops of sessions that finished their search (prior:
    /// [`ServeConfig::beam_width`] before any finish). A session with
    /// `hops_done` hops behind it is estimated to finish at
    /// `now + max(expected_hops - hops_done, 1) × per_hop_ns`; it is shed
    /// at the round boundary iff it carries a deadline and
    /// `estimate + min_slack_ns > deadline`. The estimate excludes the
    /// completion tail (PCIe/sorting), which `min_slack_ns` exists to
    /// cover. Queued doomed sessions are `Rejected` before paying the
    /// transfer-in; in-flight doomed sessions are cut off `Expired` with
    /// best-so-far results. Both are flagged [`QueryOutcome::shed`] —
    /// shed work is reported, never silently dropped.
    ShedDoomed {
        /// Safety margin added to the estimated finish before comparing
        /// against the deadline.
        min_slack_ns: Nanos,
    },
    /// Per-tenant in-flight fairness: no tenant may hold more than this
    /// many of the in-flight slots, so an aggressive tenant queues behind
    /// its own cap instead of starving everyone else. Admission stays
    /// FIFO *within* each tenant; capped-out requests are skipped, not
    /// rejected, and admitted once their tenant drains.
    TenantFair {
        /// Maximum concurrently executing sessions per tenant.
        max_inflight_per_tenant: usize,
    },
}

/// One query submitted to the serving engine.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The query feature vector (construction-order id space).
    pub query: Vec<f32>,
    /// Entry vertices to seed the beam search from (construction-order
    /// ids, e.g. the index medoid or entry point).
    pub entries: Vec<VectorId>,
    /// Simulated arrival time.
    pub arrival_ns: Nanos,
    /// Optional absolute deadline. The pinned boundary semantic: a query
    /// is `Completed` **iff its results are back by the deadline**
    /// (`completed_ns <= deadline_ns`); otherwise it is `Expired` with
    /// best-so-far results. The scheduler cuts a session off at the first
    /// round boundary where the clock has *reached* the deadline
    /// (`now_ns >= deadline_ns` — a deadline exactly equal to `now` does
    /// not buy an extra round), and a session that finishes its search in
    /// the very round the deadline passes is still reported `Expired`,
    /// because its completion necessarily lands after the deadline.
    pub deadline_ns: Option<Nanos>,
    /// Tenant the query belongs to (0 = the default tenant). Carried onto
    /// the outcome, rolled up by [`ServeReport::tenant_summaries`] and
    /// enforced by [`SloPolicy::TenantFair`].
    pub tenant: u32,
    /// Per-query top-k override; `None` uses [`ServeConfig::k`].
    pub k: Option<usize>,
}

impl QueryRequest {
    /// A request arriving at `arrival_ns` with no deadline, tenant 0 and
    /// the engine's default top-k.
    pub fn at(arrival_ns: Nanos, query: Vec<f32>, entries: Vec<VectorId>) -> Self {
        Self {
            query,
            entries,
            arrival_ns,
            deadline_ns: None,
            tenant: 0,
            k: None,
        }
    }

    /// Set the tenant id.
    pub fn tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// Set the absolute deadline.
    pub fn deadline(mut self, deadline_ns: Nanos) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Set the per-query top-k.
    pub fn top_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }
}

/// Identifier of a submitted update session (dense, in submission order;
/// a separate space from [`QueryId`]).
pub type UpdateId = usize;

/// The mutation an [`UpdateRequest`] carries.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Ingest one vector: append it to the dataset, link it into the live
    /// graph, and program its page through the FTL.
    Insert(Vec<f32>),
    /// Tombstone a construction-order vertex.
    Delete(VectorId),
}

/// One update submitted to the serving engine. Updates are sessions like
/// queries: they arrive, wait in a bounded queue, and are applied by the
/// scheduler in admission order between search rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// The mutation to apply.
    pub op: UpdateOp,
    /// Simulated arrival time.
    pub arrival_ns: Nanos,
}

impl UpdateRequest {
    /// An insert arriving at `arrival_ns`.
    pub fn insert_at(arrival_ns: Nanos, vector: Vec<f32>) -> Self {
        Self {
            op: UpdateOp::Insert(vector),
            arrival_ns,
        }
    }

    /// A delete arriving at `arrival_ns`.
    pub fn delete_at(arrival_ns: Nanos, id: VectorId) -> Self {
        Self {
            op: UpdateOp::Delete(id),
            arrival_ns,
        }
    }
}

/// Final record of one update session, reported by [`ServeReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Update id (submission order).
    pub id: UpdateId,
    /// Terminal state: `Completed`, or `Rejected` (queue overflow, shape
    /// mismatch, delete of a missing/tombstoned vertex, or an immutable
    /// deployment).
    pub state: SessionState,
    /// When the update arrived.
    pub arrival_ns: Nanos,
    /// When the scheduler started applying it.
    pub admitted_ns: Nanos,
    /// When its effects were durable.
    pub completed_ns: Nanos,
    /// Construction-order id assigned (inserts) or deleted.
    pub assigned: Option<VectorId>,
    /// Vertices whose adjacency was rewritten by backlink repair.
    pub repaired: usize,
    /// NAND pages this update programmed.
    pub pages_programmed: u64,
}

impl UpdateOutcome {
    /// End-to-end latency the ingesting client observed.
    pub fn latency_ns(&self) -> Nanos {
        self.completed_ns.saturating_sub(self.arrival_ns)
    }
}

/// Lifecycle of a query session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Submitted; simulated arrival time not reached yet.
    Pending,
    /// Arrived; waiting in the admission queue for an execution slot.
    Queued,
    /// Admitted; its beam-search hops are being interleaved.
    Running,
    /// Finished; final top-k available.
    Completed,
    /// Dropped at arrival because the admission queue was full or the
    /// request was malformed (see [`ServeEngine::submit`]).
    Rejected,
    /// Terminated at its deadline with partial (best-so-far) results.
    Expired,
}

/// Final record of one session, reported by [`ServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Session id (submission order).
    pub id: QueryId,
    /// Terminal state ([`SessionState::Completed`], `Rejected` or
    /// `Expired`).
    pub state: SessionState,
    /// When the query arrived.
    pub arrival_ns: Nanos,
    /// When it was admitted into execution (equals `completed_ns` for
    /// rejected sessions, which never ran).
    pub admitted_ns: Nanos,
    /// When its results were back at the host.
    pub completed_ns: Nanos,
    /// Beam-search hops it executed.
    pub hops: usize,
    /// Scheduling rounds it spent in flight. Fairness: the round-robin
    /// scheduler advances every in-flight session once per round, so for a
    /// session that ran to completion this exceeds `hops` by at most one
    /// (a final drain round, when the remaining candidates turn out to be
    /// fully visited) — a session never starves in flight.
    pub rounds_inflight: usize,
    /// Top-k neighbors, ascending by distance (partial if `Expired`,
    /// empty if `Rejected`).
    pub results: Vec<Neighbor>,
    /// Tenant the query belonged to.
    pub tenant: u32,
    /// The deadline it carried, if any.
    pub deadline_ns: Option<Nanos>,
    /// Whether a [`SloPolicy::ShedDoomed`] decision produced the terminal
    /// state (a shed session is `Rejected` from the queue or `Expired`
    /// from flight — never silently dropped).
    pub shed: bool,
}

impl QueryOutcome {
    /// Whether this query met its SLO: completed, and by its deadline if
    /// it carried one (completion at the deadline already implies that —
    /// the scheduler never reports `Completed` past the deadline).
    pub fn on_time(&self) -> bool {
        self.state == SessionState::Completed
    }

    /// End-to-end latency the client observed (arrival → results).
    pub fn latency_ns(&self) -> Nanos {
        self.completed_ns.saturating_sub(self.arrival_ns)
    }

    /// Time spent waiting for admission.
    pub fn queue_wait_ns(&self) -> Nanos {
        self.admitted_ns.saturating_sub(self.arrival_ns)
    }
}

/// Result of serving a stream of query sessions.
///
/// Equality ignores the host-side `wall_s` measurement: two runs of the
/// same simulation are equal even though host timing jitters (the
/// determinism tests rely on this).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One record per submitted session, in submission order.
    pub outcomes: Vec<QueryOutcome>,
    /// One record per submitted update, in submission order.
    pub update_outcomes: Vec<UpdateOutcome>,
    /// Write-path totals (programs, erases, amplification inputs).
    pub updates: UpdateTotals,
    /// First arrival → last completion.
    pub makespan_ns: Nanos,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// Most sessions concurrently in flight.
    pub peak_inflight: usize,
    /// Most sessions concurrently in flight *per tenant*, ascending by
    /// tenant id. Under [`SloPolicy::TenantFair`] no entry ever exceeds
    /// the configured cap (pinned by `tests/scheduling_invariants.rs`).
    pub peak_tenant_inflight: Vec<(u32, usize)>,
    /// Where the device time went (accumulated across rounds).
    pub breakdown: LatencyBreakdown,
    /// Flash access statistics (accumulated across rounds).
    pub stats: FlashStats,
    /// Distinct LUNs touched / total LUNs.
    pub lun_coverage: f64,
    /// Host wall-clock seconds spent inside scheduling rounds — how long
    /// the *simulator* took, as opposed to the simulated `makespan_ns`.
    pub wall_s: f64,
}

impl PartialEq for ServeReport {
    fn eq(&self, other: &Self) -> bool {
        // `wall_s` is deliberately excluded (host timing, not simulation
        // output).
        self.outcomes == other.outcomes
            && self.update_outcomes == other.update_outcomes
            && self.updates == other.updates
            && self.makespan_ns == other.makespan_ns
            && self.rounds == other.rounds
            && self.peak_inflight == other.peak_inflight
            && self.peak_tenant_inflight == other.peak_tenant_inflight
            && self.breakdown == other.breakdown
            && self.stats == other.stats
            && self.lun_coverage == other.lun_coverage
    }
}

impl ServeReport {
    /// Wall-clock simulation throughput: simulated nanoseconds advanced
    /// per host second spent simulating (0 when nothing was measured).
    pub fn sim_ns_per_wall_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.makespan_ns as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Sessions that ran to normal completion.
    pub fn completed(&self) -> usize {
        self.count(SessionState::Completed)
    }

    /// Sessions rejected by backpressure.
    pub fn rejected(&self) -> usize {
        self.count(SessionState::Rejected)
    }

    /// Sessions cut off at their deadline.
    pub fn expired(&self) -> usize {
        self.count(SessionState::Expired)
    }

    fn count(&self, s: SessionState) -> usize {
        self.outcomes.iter().filter(|o| o.state == s).count()
    }

    /// Goodput: normally completed queries per second of makespan.
    pub fn qps(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.completed() as f64 / (self.makespan_ns as f64 / 1e9)
        }
    }

    /// Updates applied to completion.
    pub fn updates_completed(&self) -> usize {
        self.update_outcomes
            .iter()
            .filter(|o| o.state == SessionState::Completed)
            .count()
    }

    /// Updates rejected (backpressure, shape mismatch, missing vertex).
    pub fn updates_rejected(&self) -> usize {
        self.update_outcomes
            .iter()
            .filter(|o| o.state == SessionState::Rejected)
            .count()
    }

    /// Update throughput: completed updates per second of makespan.
    pub fn update_qps(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.updates_completed() as f64 / (self.makespan_ns as f64 / 1e9)
        }
    }

    /// Write amplification of the update stream (flash bytes programmed
    /// per user byte ingested).
    pub fn write_amplification(&self) -> f64 {
        self.updates.write_amplification()
    }

    /// Latency order statistics over normally completed sessions, plus
    /// the wall-clock simulation-throughput fields.
    pub fn latency(&self) -> LatencySummary {
        let samples: Vec<Nanos> = self
            .outcomes
            .iter()
            .filter(|o| o.state == SessionState::Completed)
            .map(|o| o.latency_ns())
            .collect();
        let mut summary = LatencySummary::from_samples(&samples);
        summary.wall_s = self.wall_s;
        summary.sim_ns_per_wall_s = self.sim_ns_per_wall_s();
        summary
    }

    /// Sessions terminated by a [`SloPolicy::ShedDoomed`] decision.
    pub fn sheds(&self) -> usize {
        self.outcomes.iter().filter(|o| o.shed).count()
    }

    /// SLO attainment: the fraction of deadline-carrying sessions that
    /// completed on time; `1.0` when no session carried a deadline.
    pub fn slo_attainment(&self) -> f64 {
        slo_attainment_of(self.outcomes.iter().map(|o| (o.deadline_ns, o.state)))
    }

    /// Per-tenant roll-ups (counts, attainment, latency), ascending by
    /// tenant id.
    pub fn tenant_summaries(&self) -> Vec<crate::report::TenantSummary> {
        crate::report::summarize_tenants(&tenant_samples(self.outcomes.iter().map(outcome_sample)))
    }

    /// Fairness metric: max over mean of the per-tenant p99 latencies
    /// (see [`crate::report::tenant_p99_fairness`]).
    pub fn tenant_p99_fairness(&self) -> f64 {
        crate::report::tenant_p99_fairness(&self.tenant_summaries())
    }
}

/// Shared attainment arithmetic for serve and cluster reports.
pub(crate) fn slo_attainment_of(
    outcomes: impl Iterator<Item = (Option<Nanos>, SessionState)>,
) -> f64 {
    let (mut with_deadline, mut met) = (0usize, 0usize);
    for (deadline, state) in outcomes {
        if deadline.is_some() {
            with_deadline += 1;
            met += usize::from(state == SessionState::Completed);
        }
    }
    if with_deadline == 0 {
        1.0
    } else {
        met as f64 / with_deadline as f64
    }
}

/// Lowers `(tenant, state, shed, deadline, latency)` tuples into
/// [`crate::report::TenantSample`]s.
pub(crate) fn tenant_samples(
    rows: impl Iterator<Item = (u32, SessionState, bool, Option<Nanos>, Nanos)>,
) -> Vec<crate::report::TenantSample> {
    rows.map(
        |(tenant, state, shed, deadline_ns, latency_ns)| crate::report::TenantSample {
            tenant,
            completed: state == SessionState::Completed,
            expired: state == SessionState::Expired,
            rejected: state == SessionState::Rejected,
            shed,
            has_deadline: deadline_ns.is_some(),
            latency_ns,
        },
    )
    .collect()
}

fn outcome_sample(o: &QueryOutcome) -> (u32, SessionState, bool, Option<Nanos>, Nanos) {
    (o.tenant, o.state, o.shed, o.deadline_ns, o.latency_ns())
}

/// Internal per-session state. The searcher (which owns a dataset-sized
/// visited set) exists only while the session is `Running`: it is built at
/// admission from the stored request and dropped at completion/expiry, so
/// resident search memory is bounded by the in-flight cap, not by the
/// total number of submissions.
#[derive(Debug, Clone)]
struct Session {
    arrival_ns: Nanos,
    deadline_ns: Option<Nanos>,
    /// Query vector; moved into the searcher at admission.
    query: Vec<f32>,
    /// Entry vertices; moved into the searcher at admission.
    entries: Vec<VectorId>,
    searcher: Option<BeamSearcher>,
    state: SessionState,
    admitted_ns: Nanos,
    completed_ns: Nanos,
    /// Hop count, snapshotted when the searcher is dropped.
    hops: usize,
    rounds_inflight: usize,
    results: Vec<Neighbor>,
    tenant: u32,
    /// Resolved top-k (the per-query override or the engine default).
    k: usize,
    /// Set when a shed decision produced the terminal state.
    shed: bool,
}

impl Session {
    /// Tears down the searcher, snapshotting its hop count and best-`k`
    /// results into the session record. Tombstoned vertices are filtered
    /// out of the reported list: a deleted vector may still have routed
    /// the search, but it must never be returned to a client.
    fn finish(
        &mut self,
        state: SessionState,
        completed_ns: Nanos,
        deleted: &dyn Fn(VectorId) -> bool,
    ) {
        self.state = state;
        self.completed_ns = completed_ns;
        if let Some(searcher) = self.searcher.take() {
            self.hops = searcher.hops();
            self.results = searcher.found();
            self.results.retain(|n| !deleted(n.id));
            self.results.truncate(self.k);
        }
    }
}

/// Internal per-update state (the op is taken when applied).
#[derive(Debug, Clone)]
struct UpdateSession {
    arrival_ns: Nanos,
    op: Option<UpdateOp>,
    state: SessionState,
    admitted_ns: Nanos,
    completed_ns: Nanos,
    assigned: Option<VectorId>,
    repaired: usize,
    pages_programmed: u64,
}

/// The concurrent serving engine: an event-synchronous scheduler that
/// interleaves beam-search hops from many in-flight query sessions across
/// the SearSSD's flash channels, and applies admitted updates between
/// rounds. See the [module docs](self) for the execution model.
pub struct ServeEngine<'a> {
    config: &'a NdsConfig,
    serve: ServeConfig,
    /// The (possibly mutable) deployment being served.
    deploy: Deployment,
    qpt: QueryPropertyTable,
    sessions: Vec<Session>,
    /// Not-yet-arrived sessions, ordered by (arrival, id).
    arrivals: BinaryHeap<Reverse<(Nanos, QueryId)>>,
    /// Arrived sessions awaiting an execution slot (FIFO).
    queue: VecDeque<QueryId>,
    /// Admitted sessions, in admission order.
    inflight: Vec<QueryId>,
    /// Update sessions, in submission order.
    update_sessions: Vec<UpdateSession>,
    /// Not-yet-arrived updates, ordered by (arrival, id).
    update_arrivals: BinaryHeap<Reverse<(Nanos, UpdateId)>>,
    /// Arrived updates awaiting application (FIFO, bounded).
    update_queue: VecDeque<UpdateId>,
    now_ns: Nanos,
    first_arrival_ns: Option<Nanos>,
    last_completion_ns: Nanos,
    prev_shadow: Nanos,
    rounds: u64,
    peak_inflight: usize,
    /// Peak concurrent in-flight sessions per tenant.
    peak_tenant_inflight: std::collections::BTreeMap<u32, usize>,
    /// Simulated time spent in rounds that executed at least one hop
    /// (numerator of the shed estimator's per-hop cost).
    hop_round_ns_total: Nanos,
    /// Number of rounds that executed at least one hop.
    hop_rounds: u64,
    /// Total hops of sessions whose search ran to completion (numerator
    /// of the estimator's expected hop count).
    finished_hops_total: u64,
    /// Number of sessions whose search ran to completion.
    finished_searches: u64,
    ecc: EccEngine,
    stats: FlashStats,
    breakdown: LatencyBreakdown,
    luns_touched: HashSet<u32>,
    /// Host time spent inside [`step_round`](Self::step_round).
    wall: std::time::Duration,
}

impl<'a> ServeEngine<'a> {
    /// Creates a query-only serving engine over a staged layout (the
    /// legacy path: the borrowed views are cloned into an immutable
    /// [`Deployment`], and update submissions are rejected). `dataset`
    /// and `graph` are the construction-order views the live beam
    /// searches run against; `prepared` carries the reordered physical
    /// layout the hardware model replays.
    ///
    /// # Panics
    /// Panics if the dataset, graph and staged layout disagree on vertex
    /// count.
    pub fn new(
        config: &'a NdsConfig,
        serve: ServeConfig,
        prepared: &Prepared,
        dataset: &Dataset,
        graph: &Csr,
    ) -> Self {
        Self::with_deployment(
            config,
            serve,
            Deployment::from_parts(config, prepared.clone(), dataset.clone(), graph.clone()),
        )
    }

    /// Creates a serving engine over a [`Deployment`]. A deployment
    /// staged with a live index ([`Deployment::stage`]) accepts
    /// [`UpdateRequest`] sessions alongside queries; one built
    /// [`Deployment::from_parts`] is query-only.
    ///
    /// # Panics
    /// Panics if the deployment's dataset, graph and staged layout
    /// disagree on vertex count.
    pub fn with_deployment(config: &'a NdsConfig, serve: ServeConfig, deploy: Deployment) -> Self {
        assert_eq!(
            deploy.graph().num_vertices(),
            deploy.dataset().len(),
            "graph and dataset must agree on vertex count"
        );
        assert_eq!(
            deploy.prepared().luncsr.num_vertices(),
            deploy.dataset().len(),
            "staged layout must cover the dataset"
        );
        // QPT DRAM accounting: under quantization the per-session record
        // stores the compressed code, not the full-precision row, so the
        // same DRAM budget admits more residents.
        let qpt_vector_bytes = deploy
            .codes()
            .map_or(deploy.prepared().vector_bytes, |c| c.code_bytes());
        let qpt = QueryPropertyTable::new(
            serve.max_inflight,
            qpt_vector_bytes,
            config.result_list_entries,
        );
        Self {
            config,
            serve,
            deploy,
            qpt,
            sessions: Vec::new(),
            arrivals: BinaryHeap::new(),
            queue: VecDeque::new(),
            inflight: Vec::new(),
            update_sessions: Vec::new(),
            update_arrivals: BinaryHeap::new(),
            update_queue: VecDeque::new(),
            now_ns: 0,
            first_arrival_ns: None,
            last_completion_ns: 0,
            prev_shadow: 0,
            rounds: 0,
            peak_inflight: 0,
            peak_tenant_inflight: std::collections::BTreeMap::new(),
            hop_round_ns_total: 0,
            hop_rounds: 0,
            finished_hops_total: 0,
            finished_searches: 0,
            ecc: EccEngine::new(&config.geometry, config.ecc),
            stats: FlashStats::new(),
            breakdown: LatencyBreakdown::default(),
            luns_touched: HashSet::new(),
            wall: std::time::Duration::ZERO,
        }
    }

    /// The deployment being served (live overlay state, wear, totals).
    pub fn deployment(&self) -> &Deployment {
        &self.deploy
    }

    /// Consumes the engine, returning the deployment (e.g. to compact it
    /// offline or stage a successor engine).
    pub fn into_deployment(self) -> Deployment {
        self.deploy
    }

    /// The effective in-flight cap: the configured limit, clamped by the
    /// device's batch resource cap and by QPT DRAM residency.
    pub fn max_inflight(&self) -> usize {
        self.serve
            .max_inflight
            .min(self.config.max_batch_inflight)
            .min(self.qpt.max_resident(self.serve.qpt_dram_budget_bytes))
            .max(1)
    }

    /// Registers a query session and returns its id. Arrival times in the
    /// past are clamped to the current simulated time.
    ///
    /// A malformed request — a query whose dimension differs from the
    /// dataset's or that holds a non-finite value, no entry vertex, an
    /// entry id outside the dataset, or a top-k of zero — is `Rejected`
    /// at its arrival time without ever being searched, like an arrival
    /// that finds the queue full; it does not count toward the makespan.
    pub fn submit(&mut self, req: QueryRequest) -> QueryId {
        let id = self.sessions.len();
        let arrival = req.arrival_ns.max(self.now_ns);
        let k = req.k.unwrap_or(self.serve.k);
        let dataset = self.deploy.dataset();
        let malformed = req.query.len() != dataset.dim()
            || req.query.iter().any(|x| !x.is_finite())
            || req.entries.is_empty()
            || req.entries.iter().any(|&e| e as usize >= dataset.len())
            || k == 0;
        self.sessions.push(Session {
            arrival_ns: arrival,
            deadline_ns: req.deadline_ns,
            query: req.query,
            entries: req.entries,
            searcher: None,
            state: SessionState::Pending,
            admitted_ns: 0,
            completed_ns: 0,
            hops: 0,
            rounds_inflight: 0,
            results: Vec::new(),
            tenant: req.tenant,
            k,
            shed: false,
        });
        if malformed {
            let s = &mut self.sessions[id];
            s.state = SessionState::Rejected;
            s.admitted_ns = arrival;
            s.completed_ns = arrival;
        } else {
            self.arrivals.push(Reverse((arrival, id)));
            self.first_arrival_ns = Some(self.first_arrival_ns.map_or(arrival, |f| f.min(arrival)));
        }
        id
    }

    /// Registers an update session and returns its id. Arrival times in
    /// the past are clamped to the current simulated time. Updates on a
    /// query-only deployment are rejected immediately.
    pub fn submit_update(&mut self, req: UpdateRequest) -> UpdateId {
        let id = self.update_sessions.len();
        let arrival = req.arrival_ns.max(self.now_ns);
        let state = if self.deploy.is_mutable() {
            SessionState::Pending
        } else {
            SessionState::Rejected
        };
        self.update_sessions.push(UpdateSession {
            arrival_ns: arrival,
            op: Some(req.op),
            state,
            admitted_ns: arrival,
            completed_ns: arrival,
            assigned: None,
            repaired: 0,
            pages_programmed: 0,
        });
        if state == SessionState::Pending {
            self.update_arrivals.push(Reverse((arrival, id)));
            self.first_arrival_ns = Some(self.first_arrival_ns.map_or(arrival, |f| f.min(arrival)));
        }
        id
    }

    /// Current state of a session.
    pub fn poll(&self, id: QueryId) -> SessionState {
        self.sessions[id].state
    }

    /// Current state of an update session.
    pub fn poll_update(&self, id: UpdateId) -> SessionState {
        self.update_sessions[id].state
    }

    /// Final (or partial, if expired) results of a terminal session;
    /// `None` while it is still pending/queued/running.
    pub fn results(&self, id: QueryId) -> Option<&[Neighbor]> {
        match self.sessions[id].state {
            SessionState::Completed | SessionState::Expired | SessionState::Rejected => {
                Some(&self.sessions[id].results)
            }
            _ => None,
        }
    }

    /// Current simulated time.
    pub fn now_ns(&self) -> Nanos {
        self.now_ns
    }

    /// The ECC hard-decision failure probability currently in force.
    pub fn ecc_failure_prob(&self) -> f64 {
        self.ecc.config().hard_decision_failure_prob
    }

    /// Degradation trigger: changes the device's injected ECC
    /// hard-decision failure probability mid-run (an *ECC storm* — every
    /// failed hard decode falls back to a ~10 µs soft decode on the FTL,
    /// slowing each subsequent round). Deterministic: fault injection
    /// stays counter-indexed per plane, so the decisions drawn after the
    /// ramp depend only on the decode counters.
    pub fn inject_ecc_failure_prob(&mut self, p: f64) {
        self.ecc.set_hard_decision_failure_prob(p);
    }

    /// Degradation trigger: bulk-ages every block of the deployment's
    /// wear model by `cycles` P/E cycles (a *wear-out* event). The caller
    /// maps the aged device's raw BER to an ECC failure probability via
    /// [`inject_ecc_failure_prob`](Self::inject_ecc_failure_prob).
    pub fn age_wear(&mut self, cycles: u32) {
        self.deploy.age_wear(cycles);
    }

    /// Moves sessions whose arrival time has passed into the admission
    /// queues (queries and updates alike), rejecting them if full.
    fn process_arrivals(&mut self) {
        while let Some(&Reverse((t, id))) = self.arrivals.peek() {
            if t > self.now_ns {
                break;
            }
            self.arrivals.pop();
            let s = &mut self.sessions[id];
            if self.queue.len() >= self.serve.queue_capacity {
                s.state = SessionState::Rejected;
                s.admitted_ns = t;
                s.completed_ns = t;
            } else {
                s.state = SessionState::Queued;
                self.queue.push_back(id);
            }
        }
        while let Some(&Reverse((t, id))) = self.update_arrivals.peek() {
            if t > self.now_ns {
                break;
            }
            self.update_arrivals.pop();
            let s = &mut self.update_sessions[id];
            if self.update_queue.len() >= self.serve.update_queue_capacity {
                s.state = SessionState::Rejected;
                s.admitted_ns = t;
                s.completed_ns = t;
            } else {
                s.state = SessionState::Queued;
                self.update_queue.push_back(id);
            }
        }
    }

    /// Terminates queued and in-flight sessions whose deadline the clock
    /// has reached (`now >= deadline` — see [`QueryRequest::deadline_ns`]
    /// for the pinned boundary semantic), returning their best-so-far
    /// top-k.
    fn expire_due(&mut self) {
        let now = self.now_ns;
        let due = |s: &Session| s.deadline_ns.is_some_and(|d| d <= now);
        let expired_inflight: Vec<QueryId> = self
            .inflight
            .iter()
            .copied()
            .filter(|&id| due(&self.sessions[id]))
            .collect();
        self.inflight.retain(|&id| !due(&self.sessions[id]));
        for id in expired_inflight {
            // Partial results still travel the full Sorting-stage path.
            let tail = self.completion_tail_ns();
            let deploy = &self.deploy;
            self.sessions[id].finish(SessionState::Expired, now + tail, &|v| deploy.is_deleted(v));
            self.last_completion_ns = self.last_completion_ns.max(now + tail);
        }
        let sessions = &mut self.sessions;
        let mut newly_expired = Vec::new();
        self.queue.retain(|&id| {
            if sessions[id].deadline_ns.is_some_and(|d| d <= now) {
                newly_expired.push(id);
                false
            } else {
                true
            }
        });
        for id in newly_expired {
            let s = &mut self.sessions[id];
            s.state = SessionState::Expired;
            s.admitted_ns = now;
            s.completed_ns = now;
        }
        self.last_completion_ns = self.last_completion_ns.max(now);
    }

    /// The [`SloPolicy::ShedDoomed`] estimator: when a session with
    /// `hops_done` hops behind it is expected to finish, from the observed
    /// mean duration of hop-executing rounds and the observed mean hop
    /// count of finished searches ([`ServeConfig::beam_width`] before any
    /// search finishes). Returns `now` until the first hop round has been
    /// observed — the engine starts optimistic and sheds nothing.
    fn estimated_finish_ns(&self, hops_done: usize) -> Nanos {
        let per_hop_ns = self
            .hop_round_ns_total
            .checked_div(self.hop_rounds)
            .unwrap_or(0);
        let expected_hops = self
            .finished_hops_total
            .checked_div(self.finished_searches)
            .map_or(self.serve.beam_width as u64, |h| h.max(1));
        let remaining = expected_hops.saturating_sub(hops_done as u64).max(1);
        self.now_ns
            .saturating_add(remaining.saturating_mul(per_hop_ns))
    }

    /// [`SloPolicy::ShedDoomed`]: terminates deadline-carrying sessions
    /// whose estimated finish (plus the configured slack) misses their
    /// deadline. Queued sessions are `Rejected` before paying transfer-in;
    /// in-flight sessions are cut off `Expired` with best-so-far results
    /// through the same Sorting-stage tail as a deadline expiry. Every
    /// decision sets [`QueryOutcome::shed`].
    fn shed_doomed(&mut self) {
        let SloPolicy::ShedDoomed { min_slack_ns } = self.serve.slo else {
            return;
        };
        let now = self.now_ns;
        let doomed = |est: Nanos, deadline: Option<Nanos>| {
            deadline.is_some_and(|d| est.saturating_add(min_slack_ns) > d)
        };
        let doomed_inflight: Vec<QueryId> = self
            .inflight
            .iter()
            .copied()
            .filter(|&id| {
                let s = &self.sessions[id];
                let hops_done = s.searcher.as_ref().map_or(s.hops, |b| b.hops());
                doomed(self.estimated_finish_ns(hops_done), s.deadline_ns)
            })
            .collect();
        self.inflight.retain(|&id| !doomed_inflight.contains(&id));
        for id in doomed_inflight {
            let tail = self.completion_tail_ns();
            let deploy = &self.deploy;
            self.sessions[id].finish(SessionState::Expired, now + tail, &|v| deploy.is_deleted(v));
            self.sessions[id].shed = true;
            self.last_completion_ns = self.last_completion_ns.max(now + tail);
        }
        let queued_estimate = self.estimated_finish_ns(0);
        let sessions = &mut self.sessions;
        let mut shed_queued = Vec::new();
        self.queue.retain(|&id| {
            if doomed(queued_estimate, sessions[id].deadline_ns) {
                shed_queued.push(id);
                false
            } else {
                true
            }
        });
        for id in shed_queued {
            let s = &mut self.sessions[id];
            s.state = SessionState::Rejected;
            s.admitted_ns = now;
            s.completed_ns = now;
            s.shed = true;
        }
        self.last_completion_ns = self.last_completion_ns.max(now);
    }

    /// Simulated duration of one quantized scheduling round: the hops'
    /// distance evaluations read codes from internal DRAM and run on the
    /// embedded cores/accelerator — no NAND access. Derived from the
    /// hop traces alone, in slot order.
    fn quantized_round_ns(&mut self, hops: &[(u32, IterationTrace)]) -> Nanos {
        let codes = self
            .deploy
            .codes()
            .expect("a quantized round has a code table");
        let timing = &self.config.timing;
        let active = hops.len();
        let new_distances: u64 = hops.iter().map(|(_, it)| it.visited.len() as u64).sum();
        // Code fetches for scoring + the usual QPT gathering traffic.
        let code_traffic = new_distances * codes.code_bytes() as u64;
        let dram_ns = timing
            .dram_transfer_ns(code_traffic + self.qpt.gather_traffic_bytes(active, new_distances));
        // Decode+MAC on the accelerator: dim elements per eval over the
        // configured MAC lanes.
        let dim = codes.quantizer().dim() as u64;
        let lanes = u64::from(self.config.mac_lanes()).max(1);
        let compute_ns = timing.accel_cycles_ns(new_distances * dim.div_ceil(lanes));
        let embedded_ns = active as u64 * timing.t_embedded_op_ns;
        self.breakdown.dram_ns += dram_ns;
        self.breakdown.compute_ns += compute_ns;
        self.breakdown.embedded_ns += embedded_ns;
        self.stats.distance_evals += new_distances;
        self.stats.search_ops += active as u64;
        dram_ns + compute_ns + embedded_ns
    }

    /// Exact-rerank tail of one completing quantized session: rescores
    /// the best [`ServeConfig::rerank_depth`] approximate candidates
    /// against the full-precision dataset, charging one NAND page read
    /// per distinct page the candidates occupy plus the channel
    /// transfer of their rows.
    fn rerank_tail_ns(&mut self, id: QueryId) -> Nanos {
        let depth = self.serve.rerank_depth.max(self.sessions[id].k);
        let Some(searcher) = self.sessions[id].searcher.as_mut() else {
            return 0;
        };
        let ids = searcher.rerank(self.deploy.dataset(), depth);
        if ids.is_empty() {
            return 0;
        }
        let prepared = self.deploy.prepared();
        let pages: std::collections::BTreeSet<u64> = ids
            .iter()
            .map(|&v| {
                prepared
                    .luncsr
                    .physical_addr(prepared.perm.new_of(v))
                    .page_key(&self.config.geometry)
            })
            .collect();
        let timing = &self.config.timing;
        let read_ns = pages.len() as u64 * timing.t_read_page_ns
            + timing.channel_transfer_ns(ids.len() as u64 * prepared.vector_bytes as u64);
        self.stats.page_reads += pages.len() as u64;
        self.stats.distance_evals += ids.len() as u64;
        self.breakdown.rerank_ns += read_ns;
        read_ns
    }

    /// Per-query Sorting-stage tail: result list over the private FPGA
    /// link, one bitonic sort wave, top-k back over the host link (the
    /// same [`sorting_tail`] model the batch engine uses, for one query).
    /// The tail overlaps subsequent search rounds (§V), so it extends the
    /// query's completion time but not the scheduler clock.
    fn completion_tail_ns(&mut self) -> Nanos {
        let tail = sorting_tail(self.config, 1, self.serve.k);
        self.stats.pcie_bytes += tail.pcie_bytes;
        self.breakdown.bitonic_ns += tail.sort_ns;
        self.breakdown.pcie_ns += tail.fpga_ns + tail.out_ns;
        tail.total_ns()
    }

    /// Executes one scheduling round: process arrivals, expire deadlines,
    /// admit from the queue, take one hop from every in-flight session,
    /// run the merged work on the SearSSD model, complete finished
    /// sessions and apply queued updates. Returns `false` once every
    /// submitted session is terminal.
    pub fn step_round(&mut self) -> bool {
        let wall_start = std::time::Instant::now();
        let more = self.step_round_inner();
        self.wall += wall_start.elapsed();
        more
    }

    fn step_round_inner(&mut self) -> bool {
        // Updates applied at the end of the previous round become visible
        // here — one graph re-snapshot per round, not per update (and the
        // snapshot is fresh even when this call ends up idle-returning).
        self.deploy.refresh_graph();
        self.process_arrivals();
        if self.inflight.is_empty() && self.queue.is_empty() && self.update_queue.is_empty() {
            // Idle: fast-forward to the next arrival (query or update).
            let next_query = self.arrivals.peek().map(|&Reverse((t, _))| t);
            let next_update = self.update_arrivals.peek().map(|&Reverse((t, _))| t);
            let next = match (next_query, next_update) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let Some(t) = next else {
                return false;
            };
            self.now_ns = self.now_ns.max(t);
            self.process_arrivals();
        }
        self.expire_due();
        self.shed_doomed();
        let t_in = self.admit();

        // ---- One hop per in-flight session, in admission order. Every
        // hop reads the deployment as the previous round left it. ----
        let mut hops: Vec<(u32, IterationTrace)> = Vec::new();
        let mut finished: Vec<QueryId> = Vec::new();
        let deploy = &self.deploy;
        for (slot, &id) in self.inflight.iter().enumerate() {
            let s = &mut self.sessions[id];
            s.rounds_inflight += 1;
            let searcher = s.searcher.as_mut().expect("running session has a searcher");
            let hop = match deploy.codes() {
                Some(codes) => searcher.step(codes, deploy.graph()),
                None => searcher.step(deploy.dataset(), deploy.graph()),
            }
            .map(|h| deploy.prepared().relabel_hop(&h));
            if hop.is_none() || searcher.is_finished() {
                finished.push(id);
            }
            if let Some(hop) = hop {
                hops.push((slot as u32, hop));
            }
        }

        // ---- Execute the merged round on the hardware model. Quantized
        // rounds never touch flash: every distance comes from the
        // DRAM-resident code table, so the round costs DRAM traffic and
        // embedded-core compute instead of NAND sensing — flash is paid
        // only by the exact rerank at completion. ----
        let quantized = self.deploy.codes().is_some();
        let mut round_exec: Nanos = 0;
        if !hops.is_empty() {
            round_exec = if quantized {
                self.quantized_round_ns(&hops)
            } else {
                let entries: Vec<(u32, VectorId, &[VectorId])> = hops
                    .iter()
                    .map(|(q, it)| (*q, it.entry, it.visited.as_slice()))
                    .collect();
                let round = execute_round(
                    self.config,
                    &self.deploy.prepared().luncsr,
                    &self.qpt,
                    &entries,
                    RoundSinks {
                        ecc: &mut self.ecc,
                        stats: &mut self.stats,
                        luns_touched: &mut self.luns_touched,
                    },
                );
                let overlap = self.config.scheduling.dynamic_allocating && self.rounds > 0;
                round.apply(&mut self.breakdown, &mut self.prev_shadow, overlap)
            };
            self.rounds += 1;
        }
        let advance = round_exec.max(t_in);
        self.now_ns += advance;
        if !hops.is_empty() {
            // Feed the shed estimator: mean duration of hop-executing
            // rounds (simulated values only).
            self.hop_round_ns_total += advance;
            self.hop_rounds += 1;
        }

        // ---- Complete sessions that terminated this round. A session
        // whose results land past its deadline — it finished its search in
        // the very round the deadline passed — is `Expired`, not
        // `Completed`: the deadline check at the round *start* cannot see
        // this round's clock advance, so completion re-checks it. ----
        for id in finished {
            self.inflight.retain(|&x| x != id);
            let mut tail = self.completion_tail_ns();
            if quantized {
                // Exact rerank: the final candidates' full-precision rows
                // are read from flash and rescored before sorting. The
                // read extends this query's completion tail (overlapping
                // subsequent rounds, like the sorting tail), and counts
                // against its deadline below.
                tail += self.rerank_tail_ns(id);
            }
            let done_ns = self.now_ns + tail;
            let state = match self.sessions[id].deadline_ns {
                Some(d) if done_ns > d => SessionState::Expired,
                _ => SessionState::Completed,
            };
            let deploy = &self.deploy;
            self.sessions[id].finish(state, done_ns, &|v| deploy.is_deleted(v));
            // Feed the shed estimator's expected-hops prior: this session
            // ran its search to the end (even if it expired at the tail).
            self.finished_hops_total += self.sessions[id].hops as u64;
            self.finished_searches += 1;
            self.last_completion_ns = self.last_completion_ns.max(done_ns);
        }

        // ---- Apply admitted updates, in admission order, after the
        // round's searches. The next round's hops see the mutations. ----
        for _ in 0..self.serve.max_updates_per_round {
            let Some(uid) = self.update_queue.pop_front() else {
                break;
            };
            self.apply_update(uid);
        }

        !self.inflight.is_empty()
            || !self.queue.is_empty()
            || !self.arrivals.is_empty()
            || !self.update_queue.is_empty()
            || !self.update_arrivals.is_empty()
    }

    /// Admits queued sessions into flight up to the in-flight cap (and,
    /// under [`SloPolicy::TenantFair`], the per-tenant cap), building each
    /// one's searcher. Returns the PCIe transfer-in time the admissions
    /// charge.
    fn admit(&mut self) -> Nanos {
        // ---- Admission: PCIe-in DMA overlaps the round's search. The
        // searcher (and its dataset-sized visited set) is built here, not
        // at submit, so resident memory tracks the in-flight cap. ----
        let mut t_in: Nanos = 0;
        let (num_vertices, beam_width, distance) = (
            self.deploy.dataset().len(),
            self.serve.beam_width,
            self.serve.distance,
        );
        let in_bytes = self.deploy.prepared().vector_bytes as u64 + 16;
        // Per-tenant cap: unbounded unless `TenantFair` is in force, so
        // every other policy admits exactly as the legacy FIFO loop did.
        let tenant_cap = match self.serve.slo {
            SloPolicy::TenantFair {
                max_inflight_per_tenant,
            } => max_inflight_per_tenant.max(1),
            _ => usize::MAX,
        };
        let mut tenant_inflight: std::collections::BTreeMap<u32, usize> =
            std::collections::BTreeMap::new();
        for &id in &self.inflight {
            *tenant_inflight.entry(self.sessions[id].tenant).or_default() += 1;
        }
        // Capped-out requests are skipped, not rejected: they go back to
        // the queue front afterwards, preserving FIFO within each tenant.
        let mut skipped: Vec<QueryId> = Vec::new();
        while self.inflight.len() < self.max_inflight() {
            let Some(id) = self.queue.pop_front() else {
                break;
            };
            let tenant = self.sessions[id].tenant;
            let held = tenant_inflight.entry(tenant).or_default();
            if *held >= tenant_cap {
                skipped.push(id);
                continue;
            }
            *held += 1;
            let s = &mut self.sessions[id];
            s.state = SessionState::Running;
            s.admitted_ns = self.now_ns;
            s.searcher = Some(BeamSearcher::new(
                num_vertices,
                std::mem::take(&mut s.query),
                std::mem::take(&mut s.entries),
                beam_width,
                distance,
            ));
            t_in += self.config.host_link.transfer_ns(in_bytes);
            self.stats.pcie_bytes += in_bytes;
            self.inflight.push(id);
        }
        for id in skipped.into_iter().rev() {
            self.queue.push_front(id);
        }
        self.peak_inflight = self.peak_inflight.max(self.inflight.len());
        for (tenant, held) in tenant_inflight {
            if held > 0 {
                let peak = self.peak_tenant_inflight.entry(tenant).or_default();
                *peak = (*peak).max(held);
            }
        }
        self.breakdown.pcie_ns += t_in;
        t_in
    }

    /// Applies one update session: mutates the deployment, charges the
    /// flash write path (program latency, wear, stats) and advances the
    /// clock by the update's device occupancy.
    fn apply_update(&mut self, uid: UpdateId) {
        let s = &mut self.update_sessions[uid];
        s.admitted_ns = self.now_ns;
        let op = s.op.take().expect("queued update still has its op");
        let applied = match op {
            UpdateOp::Insert(vector) => self.deploy.insert(self.config, &vector).ok(),
            UpdateOp::Delete(id) => self.deploy.delete(self.config, id),
        };
        let s = &mut self.update_sessions[uid];
        match applied {
            Some(applied) => {
                self.now_ns += applied.duration_ns;
                self.breakdown.program_ns += applied.program_ns;
                self.breakdown.embedded_ns +=
                    applied.duration_ns.saturating_sub(applied.program_ns);
                self.stats.page_programs += applied.pages_programmed;
                s.state = SessionState::Completed;
                s.assigned = Some(applied.id);
                s.repaired = applied.repaired;
                s.pages_programmed = applied.pages_programmed;
            }
            None => {
                s.state = SessionState::Rejected;
            }
        }
        s.completed_ns = self.now_ns;
        self.last_completion_ns = self.last_completion_ns.max(self.now_ns);
    }

    /// Drives the scheduler until every session is terminal and returns
    /// the report.
    pub fn run_to_completion(&mut self) -> ServeReport {
        while self.step_round() {}
        self.report()
    }

    /// Compacts the deployment in place, charging the rewrite's
    /// erase/program time to the simulated clock and the report's
    /// breakdown. Returns `None` for query-only deployments.
    pub fn compact(&mut self) -> Option<crate::deploy::CompactionReport> {
        if !self.deploy.is_mutable() {
            return None;
        }
        let report = self.deploy.compact(self.config);
        self.now_ns += report.duration_ns;
        self.breakdown.program_ns += report.duration_ns;
        self.stats.page_programs += report.pages_programmed;
        self.stats.block_erases += report.blocks_erased;
        self.last_completion_ns = self.last_completion_ns.max(self.now_ns);
        Some(report)
    }

    /// Snapshot of the serving outcome so far (complete once
    /// [`run_to_completion`](Self::run_to_completion) or repeated
    /// [`step_round`](Self::step_round) calls have drained every session).
    pub fn report(&self) -> ServeReport {
        let outcomes = self
            .sessions
            .iter()
            .enumerate()
            .map(|(id, s)| QueryOutcome {
                id,
                state: s.state,
                arrival_ns: s.arrival_ns,
                admitted_ns: s.admitted_ns,
                completed_ns: s.completed_ns,
                hops: s.searcher.as_ref().map_or(s.hops, |b| b.hops()),
                rounds_inflight: s.rounds_inflight,
                results: s.results.clone(),
                tenant: s.tenant,
                deadline_ns: s.deadline_ns,
                shed: s.shed,
            })
            .collect();
        let update_outcomes = self
            .update_sessions
            .iter()
            .enumerate()
            .map(|(id, s)| UpdateOutcome {
                id,
                state: s.state,
                arrival_ns: s.arrival_ns,
                admitted_ns: s.admitted_ns,
                completed_ns: s.completed_ns,
                assigned: s.assigned,
                repaired: s.repaired,
                pages_programmed: s.pages_programmed,
            })
            .collect();
        ServeReport {
            outcomes,
            update_outcomes,
            updates: self.deploy.totals(),
            makespan_ns: self
                .now_ns
                .max(self.last_completion_ns)
                .saturating_sub(self.first_arrival_ns.unwrap_or(0)),
            rounds: self.rounds,
            peak_inflight: self.peak_inflight,
            peak_tenant_inflight: self
                .peak_tenant_inflight
                .iter()
                .map(|(&t, &p)| (t, p))
                .collect(),
            breakdown: self.breakdown,
            stats: self.stats,
            lun_coverage: self.luns_touched.len() as f64
                / f64::from(self.config.geometry.total_luns()),
            wall_s: self.wall.as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_anns::beam::{beam_search, VisitedSet};
    use ndsearch_anns::index::GraphAnnsIndex;
    use ndsearch_anns::trace::BatchTrace;
    use ndsearch_anns::vamana::{Vamana, VamanaParams};
    use ndsearch_vector::synthetic::DatasetSpec;

    struct Fixture {
        base: Dataset,
        queries: Dataset,
        graph: Csr,
        medoid: VectorId,
        config: NdsConfig,
    }

    fn fixture(n: usize, q: usize) -> Fixture {
        let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
        let index = Vamana::build(&base, VamanaParams::default());
        let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        config.ecc.hard_decision_failure_prob = 0.0;
        Fixture {
            base,
            queries,
            medoid: index.medoid(),
            graph: index.base_graph().clone(),
            config,
        }
    }

    fn stage(fx: &Fixture) -> Prepared {
        Prepared::stage(&fx.config, &fx.graph, &fx.base, &BatchTrace::default())
    }

    fn submit_all(engine: &mut ServeEngine<'_>, fx: &Fixture, arrival: impl Fn(usize) -> Nanos) {
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            engine.submit(QueryRequest::at(arrival(i), q.to_vec(), vec![fx.medoid]));
        }
    }

    #[test]
    fn concurrent_results_match_sequential_beam_search() {
        let fx = fixture(500, 24);
        let prepared = stage(&fx);
        let serve = ServeConfig {
            max_inflight: 8,
            ..ServeConfig::default()
        };
        let mut engine =
            ServeEngine::new(&fx.config, serve.clone(), &prepared, &fx.base, &fx.graph);
        submit_all(&mut engine, &fx, |_| 0);
        let report = engine.run_to_completion();
        assert_eq!(report.completed(), fx.queries.len());

        let mut vs = VisitedSet::new(fx.base.len());
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            let seq = beam_search(
                &fx.base,
                &fx.graph,
                q,
                &[fx.medoid],
                serve.beam_width,
                serve.distance,
                &mut vs,
            );
            let mut want = seq.found;
            want.truncate(serve.k);
            assert_eq!(report.outcomes[i].results, want, "query {i} diverged");
        }
    }

    #[test]
    fn serving_is_deterministic() {
        let fx = fixture(400, 16);
        let prepared = stage(&fx);
        let run = || {
            let serve = ServeConfig {
                max_inflight: 4,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
            submit_all(&mut engine, &fx, |i| i as Nanos * 1_000);
            engine.run_to_completion()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn serving_reports_bit_identical_across_thread_counts() {
        // Two independent engines over the same config must agree
        // bit-for-bit.
        let mut fx = fixture(400, 16);
        // Keep ECC fault injection on — its counter-indexed streams are
        // what must replay identically.
        fx.config.ecc.hard_decision_failure_prob = 0.05;
        let prepared = stage(&fx);
        let run = || {
            let serve = ServeConfig {
                max_inflight: 8,
                ..ServeConfig::default()
            };
            let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
            submit_all(&mut engine, &fx, |i| i as Nanos * 500);
            engine.run_to_completion()
        };
        let first = run();
        assert!(first.wall_s > 0.0, "wall clock must be measured");
        assert!(first.sim_ns_per_wall_s() > 0.0);
        assert_eq!(
            first,
            run(),
            "serve report diverged between independent runs"
        );
    }

    #[test]
    fn round_robin_never_starves_a_session() {
        let fx = fixture(400, 16);
        let prepared = stage(&fx);
        let serve = ServeConfig {
            max_inflight: 4,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
        submit_all(&mut engine, &fx, |_| 0);
        let report = engine.run_to_completion();
        for o in &report.outcomes {
            assert_eq!(o.state, SessionState::Completed);
            // Every round a session spends in flight advances it one hop,
            // except at most one final drain round.
            assert!(
                o.rounds_inflight >= o.hops && o.rounds_inflight <= o.hops + 1,
                "session {} stalled: {} rounds for {} hops",
                o.id,
                o.rounds_inflight,
                o.hops
            );
            assert!(o.hops > 0);
        }
        // FIFO admission: same-arrival sessions admitted in submission order.
        let admitted: Vec<Nanos> = report.outcomes.iter().map(|o| o.admitted_ns).collect();
        assert!(admitted.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(report.peak_inflight, 4);
    }

    #[test]
    fn queue_overflow_rejects_and_deadlines_expire() {
        let fx = fixture(400, 16);
        let prepared = stage(&fx);
        let serve = ServeConfig {
            max_inflight: 2,
            queue_capacity: 4,
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
        submit_all(&mut engine, &fx, |_| 0);
        let report = engine.run_to_completion();
        assert_eq!(
            report.rejected(),
            12,
            "queue holds 4 of 16 same-instant arrivals"
        );
        assert_eq!(report.completed(), 4);
        for o in report
            .outcomes
            .iter()
            .filter(|o| o.state == SessionState::Rejected)
        {
            assert!(o.results.is_empty());
        }

        // A deadline in the past expires a session with partial results.
        let mut engine2 = ServeEngine::new(
            &fx.config,
            ServeConfig::default(),
            &prepared,
            &fx.base,
            &fx.graph,
        );
        let mut req = QueryRequest::at(0, fx.queries.vector(0).to_vec(), vec![fx.medoid]);
        req.deadline_ns = Some(1);
        engine2.submit(req);
        let r2 = engine2.run_to_completion();
        assert_eq!(r2.expired(), 1);
    }

    /// Submits one malformed request (a valid one edited by `edit`, which
    /// also gets the dataset size) before a valid query, and checks the
    /// malformed one is `Rejected` at its arrival, never searched, and
    /// invisible to the valid session and to the device.
    fn assert_rejected_as_malformed(edit: impl Fn(&mut QueryRequest, usize)) {
        let fx = fixture(300, 2);
        let prepared = stage(&fx);
        let engine = || {
            ServeEngine::new(
                &fx.config,
                ServeConfig::default(),
                &prepared,
                &fx.base,
                &fx.graph,
            )
        };
        let request = |i: u32, at: Nanos| {
            QueryRequest::at(at, fx.queries.vector(i).to_vec(), vec![fx.medoid])
        };
        let mut alone = engine();
        alone.submit(request(0, 1_000));
        let want = alone.run_to_completion();

        let mut mixed = engine();
        let mut bad = request(1, 500);
        edit(&mut bad, fx.base.len());
        let bad_id = mixed.submit(bad);
        assert_eq!(mixed.poll(bad_id), SessionState::Rejected);
        assert_eq!(mixed.results(bad_id), Some(&[][..]));
        let ok_id = mixed.submit(request(0, 1_000));
        let got = mixed.run_to_completion();
        let bad = &got.outcomes[bad_id];
        assert_eq!((bad.admitted_ns, bad.completed_ns, bad.hops), (500, 500, 0));
        assert!(bad.results.is_empty() && !bad.shed);
        let mut ok = got.outcomes[ok_id].clone();
        ok.id = 0;
        assert_eq!(ok, want.outcomes[0]);
        assert_eq!(got.makespan_ns, want.makespan_ns);
        assert_eq!(got.stats, want.stats);
        assert_eq!(got.breakdown, want.breakdown);
    }

    #[test]
    fn wrong_dimension_query_is_rejected() {
        assert_rejected_as_malformed(|req, _| {
            req.query.pop();
        });
    }

    #[test]
    fn out_of_range_entry_is_rejected() {
        assert_rejected_as_malformed(|req, n| req.entries.push(n as VectorId));
    }

    #[test]
    fn nan_query_is_rejected() {
        assert_rejected_as_malformed(|req, _| req.query.fill(f32::NAN));
    }

    #[test]
    fn zero_top_k_is_rejected() {
        assert_rejected_as_malformed(|req, _| req.k = Some(0));
    }

    #[test]
    fn empty_entry_list_is_rejected() {
        assert_rejected_as_malformed(|req, _| req.entries.clear());
    }

    #[test]
    fn qpt_budget_caps_inflight() {
        let fx = fixture(400, 8);
        let prepared = stage(&fx);
        let serve = ServeConfig {
            max_inflight: 64,
            // Room for exactly 2 QPT records.
            qpt_dram_budget_bytes: 2 * QueryPropertyTable::new(
                64,
                prepared.vector_bytes,
                fx.config.result_list_entries,
            )
            .record_bytes(),
            ..ServeConfig::default()
        };
        let mut engine = ServeEngine::new(&fx.config, serve, &prepared, &fx.base, &fx.graph);
        assert_eq!(engine.max_inflight(), 2);
        submit_all(&mut engine, &fx, |_| 0);
        let report = engine.run_to_completion();
        assert_eq!(report.peak_inflight, 2);
        assert_eq!(report.completed(), 8);
    }

    #[test]
    fn submit_poll_step_lifecycle() {
        let fx = fixture(400, 4);
        let prepared = stage(&fx);
        let mut engine = ServeEngine::new(
            &fx.config,
            ServeConfig::default(),
            &prepared,
            &fx.base,
            &fx.graph,
        );
        let id = engine.submit(QueryRequest::at(
            5_000,
            fx.queries.vector(0).to_vec(),
            vec![fx.medoid],
        ));
        assert_eq!(engine.poll(id), SessionState::Pending);
        assert!(engine.results(id).is_none());
        assert!(engine.step_round()); // fast-forwards to the arrival
        assert_eq!(engine.poll(id), SessionState::Running);
        while engine.step_round() {}
        assert_eq!(engine.poll(id), SessionState::Completed);
        assert_eq!(engine.results(id).unwrap().len(), 10);
        let report = engine.report();
        // Makespan is measured from the first arrival, not from t=0: the
        // idle prefix before the query arrived must not dilute QPS.
        assert_eq!(report.makespan_ns, report.outcomes[0].completed_ns - 5_000);
        assert!(report.latency().p50_ns > 0);
        assert!(report.lun_coverage > 0.0);
    }

    fn mutable_engine(
        fx: &Fixture,
        serve: ServeConfig,
    ) -> (ServeEngine<'_>, ndsearch_vector::Dataset) {
        let index = Vamana::build(&fx.base, VamanaParams::default());
        let deploy = crate::deploy::Deployment::stage(&fx.config, Box::new(index), fx.base.clone());
        (
            ServeEngine::with_deployment(&fx.config, serve, deploy),
            fx.queries.clone(),
        )
    }

    #[test]
    fn mixed_query_update_serving_completes_and_charges_flash() {
        let mut fx = fixture(400, 16);
        // Headroom for the inserts.
        fx.config = NdsConfig::scaled_for(800, fx.base.stored_vector_bytes());
        fx.config.ecc.hard_decision_failure_prob = 0.0;
        let (mut engine, extra) = mutable_engine(
            &fx,
            ServeConfig {
                max_inflight: 4,
                ..ServeConfig::default()
            },
        );
        // Interleave 16 queries with 16 inserts and 4 deletes.
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            engine.submit(QueryRequest::at(
                i as Nanos * 1_000,
                q.to_vec(),
                vec![fx.medoid],
            ));
        }
        for (i, (_, v)) in extra.iter().enumerate() {
            engine.submit_update(UpdateRequest::insert_at(i as Nanos * 1_500, v.to_vec()));
        }
        for i in 0..4u32 {
            engine.submit_update(UpdateRequest::delete_at(20_000 + Nanos::from(i), i));
        }
        let report = engine.run_to_completion();
        assert_eq!(report.completed(), 16);
        assert_eq!(report.updates_completed(), 20);
        assert_eq!(report.updates_rejected(), 0);
        assert!(report.update_qps() > 0.0);
        // The write path demonstrably charged flash program latency, wear
        // and stats.
        assert!(report.updates.inserts == 16 && report.updates.deletes == 4);
        assert!(report.updates.pages_programmed > 0, "no page programmed");
        assert!(report.stats.page_programs > 0);
        assert!(report.breakdown.program_ns > 0, "tPROG not charged");
        assert!(report.write_amplification() > 0.0);
        assert!(engine.deployment().wear().max_wear_ratio() > 0.0);
        // The deployment grew and the deletes tombstoned.
        assert_eq!(engine.deployment().dataset().len(), 416);
        assert_eq!(engine.deployment().live_count(), 412);
        // Inserted ids are reported in submission order.
        for (i, o) in report.update_outcomes.iter().take(16).enumerate() {
            assert_eq!(o.state, SessionState::Completed);
            assert_eq!(o.assigned, Some(400 + i as u32));
        }
    }

    #[test]
    fn deleted_vertices_never_surface_in_results() {
        let fx = fixture(400, 8);
        let (mut engine, _) = mutable_engine(&fx, ServeConfig::default());
        // Find the true top-1 of query 0, delete it, then serve the query.
        let mut vs = VisitedSet::new(fx.base.len());
        let top = beam_search(
            &fx.base,
            &fx.graph,
            fx.queries.vector(0),
            &[fx.medoid],
            64,
            DistanceKind::L2,
            &mut vs,
        )
        .found[0]
            .id;
        let del = engine.submit_update(UpdateRequest::delete_at(0, top));
        let q = engine.submit(QueryRequest::at(
            1_000_000,
            fx.queries.vector(0).to_vec(),
            vec![fx.medoid],
        ));
        let report = engine.run_to_completion();
        assert_eq!(engine.poll_update(del), SessionState::Completed);
        assert_eq!(engine.poll(q), SessionState::Completed);
        assert!(
            !report.outcomes[q].results.iter().any(|n| n.id == top),
            "tombstoned vertex leaked into results"
        );
        assert!(!report.outcomes[q].results.is_empty());
    }

    #[test]
    fn update_queue_overflow_rejects() {
        let fx = fixture(300, 1);
        let (mut engine, _) = mutable_engine(
            &fx,
            ServeConfig {
                update_queue_capacity: 2,
                max_updates_per_round: 1,
                ..ServeConfig::default()
            },
        );
        for _ in 0..6 {
            engine.submit_update(UpdateRequest::delete_at(0, 5));
        }
        let report = engine.run_to_completion();
        // Two fit the queue; the other four bounce. Of the two applied,
        // the first completes, the second is a duplicate delete.
        assert_eq!(report.updates_rejected(), 5);
        assert_eq!(report.updates_completed(), 1);
    }

    #[test]
    fn updates_on_immutable_deployment_are_rejected() {
        let fx = fixture(300, 1);
        let prepared = stage(&fx);
        let mut engine = ServeEngine::new(
            &fx.config,
            ServeConfig::default(),
            &prepared,
            &fx.base,
            &fx.graph,
        );
        let id = engine.submit_update(UpdateRequest::delete_at(0, 3));
        assert_eq!(engine.poll_update(id), SessionState::Rejected);
        let report = engine.run_to_completion();
        assert_eq!(report.updates_rejected(), 1);
        assert_eq!(report.updates.deletes, 0);
    }

    #[test]
    fn serving_compaction_charges_erases_and_keeps_results() {
        let mut fx = fixture(400, 8);
        fx.config = NdsConfig::scaled_for(800, fx.base.stored_vector_bytes());
        fx.config.ecc.hard_decision_failure_prob = 0.0;
        let (mut engine, extra) = mutable_engine(&fx, ServeConfig::default());
        for (_, v) in extra.iter().take(8) {
            engine.submit_update(UpdateRequest::insert_at(0, v.to_vec()));
        }
        engine.run_to_completion();
        let before = engine.deployment().prepared().luncsr.delta_vertices();
        assert!(before > 0);
        let compaction = engine.compact().expect("mutable deployment compacts");
        assert!(compaction.blocks_erased > 0);
        assert_eq!(engine.deployment().prepared().luncsr.delta_vertices(), 0);

        // Query results over the compacted deployment match the overlay.
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            engine.submit(QueryRequest::at(0, q.to_vec(), vec![fx.medoid]));
            let _ = i;
        }
        let report = engine.run_to_completion();
        assert!(report.stats.block_erases > 0);
        let mut vs = VisitedSet::new(engine.deployment().dataset().len());
        for (i, (_, q)) in fx.queries.iter().enumerate() {
            let mut want = beam_search(
                engine.deployment().dataset(),
                engine.deployment().graph(),
                q,
                &[fx.medoid],
                ServeConfig::default().beam_width,
                DistanceKind::L2,
                &mut vs,
            )
            .found;
            want.truncate(ServeConfig::default().k);
            assert_eq!(report.outcomes[i].results, want, "query {i} diverged");
        }
    }

    #[test]
    fn empty_engine_reports_zero() {
        let fx = fixture(200, 1);
        let prepared = stage(&fx);
        let mut engine = ServeEngine::new(
            &fx.config,
            ServeConfig::default(),
            &prepared,
            &fx.base,
            &fx.graph,
        );
        let report = engine.run_to_completion();
        assert!(report.outcomes.is_empty());
        assert_eq!(report.qps(), 0.0);
        assert_eq!(report.makespan_ns, 0);
    }
}
