//! Sharded multi-device serving: a scatter–gather cluster of SearSSDs,
//! with per-shard replication, failover and hedged routing.
//!
//! The paper evaluates one in-NAND accelerator; production DiskANN-family
//! deployments shard billion-point corpora across many SSDs and merge
//! per-shard top-k (Subramanya et al., NeurIPS'19; FreshDiskANN, Singh
//! et al., 2021). This module is that scale-out tier over the existing
//! single-device stack:
//!
//! * a [`ShardPlan`] (hash or
//!   balanced-size policy) splits the dataset into per-shard
//!   sub-datasets, each staged as one or more replica [`Deployment`]s —
//!   each replica its own index build, LUNCSR staging, FTL, ECC engine
//!   and wear model, i.e. its own simulated device;
//! * [`ClusterEngine`] **scatters** every query session to all shards
//!   (one [`ServeEngine`] session on one replica per shard, seeded at
//!   that shard's entry vertex) and steps every alive replica engine
//!   once per cluster round, in shard order;
//! * per-shard top-k lists come back in shard-local ids, are translated
//!   to global ids through the plan, and are **gathered** by a
//!   deterministic stable merge — ascending `(distance, global id)`,
//!   exactly the order [`Neighbor`]'s `Ord` defines — truncated to `k`;
//! * [`UpdateRequest`]s route to their *owning* shard (deletes via the
//!   plan's assignment, inserts via the policy's routing rule) and fan
//!   out to **every alive replica** of that shard, so replicas stay
//!   bit-identical copies and online insert/delete keeps working under
//!   sharding and replication;
//! * [`ClusterReport`] carries the merged per-query outcomes plus
//!   per-shard breakdowns ([`ShardBreakdown`]: per-replica device
//!   reports, availability, failover and hedge counters) and the
//!   cluster's load-imbalance factor.
//!
//! # Replication & failover
//!
//! [`ReplicationConfig`] stages `replicas` copies of every shard. Each
//! replica is a full independent device (same sub-dataset, same
//! deterministic index build, its own flash stack), so any replica can
//! answer any query for its shard. Queries route to one replica per
//! shard by [`ReplicaPolicy`]:
//!
//! * `RoundRobin` — cycle through alive replicas per shard;
//! * `LeastLoaded` — the alive replica with the fewest outstanding
//!   routed sessions at submission time (ties → lowest index);
//! * `Hedged { delay_ns }` — round-robin primary, plus a backup copy of
//!   the session fired on the *next* alive replica once the primary has
//!   been outstanding for `delay_ns` without finishing; the first
//!   completion wins the gather (the classic tail-at-scale hedge).
//!
//! A [`FailureSchedule`] degrades or kills replicas mid-run at simulated
//! timestamps: [`FailureKind::EccStorm`] ramps the device's
//! hard-decision LDPC failure probability (every read pays the
//! soft-decode penalty), [`FailureKind::WearOut`] bulk-ages every block
//! of the wear model and re-derives the failure probability from the
//! worn raw BER, and [`FailureKind::Kill`] drops the device: its
//! in-flight and queued sessions are **re-seeded on a surviving
//! replica** (counted in [`ShardBreakdown::failovers`]) and it receives
//! no further traffic. A shard whose replicas have all been killed
//! freezes its sessions (the cluster outcome stays non-terminal); events
//! scheduled after the last completion never fire.
//!
//! # Determinism and parity
//!
//! Replicas share **no** mutable state: each replica engine owns its
//! deployment, device model and simulated clock, and every per-replica
//! report replays bit-identically (see [`crate::serve`]). Failure events
//! and hedges fire at round boundaries, in schedule/submission order,
//! from simulated clocks only — never from host time. The gather step is
//! a pure sort by `(distance, global id)`. Hence the cluster report
//! replays bit-identically *and* is invariant under the order shards are
//! stepped in ([`ClusterEngine::run_to_completion_ordered`]) — pinned by
//! `tests/exec_determinism.rs`, failure schedules included.
//!
//! Because replicas of a shard are identical deterministic devices, a
//! no-failure replicated cluster returns **element-identical** results
//! to the single-replica cluster under every policy (only timing
//! changes with load splitting) — pinned by `tests/cluster_parity.rs`.
//!
//! When every shard's search is exhaustive over its sub-corpus (beam
//! width at least the shard size on a connected shard graph), the merge
//! is *provably* lossless: `top_k(S) = top_k(∪ᵢ top_k(Sᵢ))` for any
//! partition `S = ∪ᵢ Sᵢ`, because each of the true top-k lives in
//! exactly one shard and survives that shard's exact top-k. The parity
//! proptest (`tests/cluster_parity.rs`) exercises exactly this regime —
//! sharded results element-identical to the unsharded engine across
//! shard counts and both policies, tombstones included. At production
//! beam widths per-shard search is approximate and the merged recall is
//! gated in `tests/end_to_end.rs` at the single-device thresholds.
//!
//! # Example
//!
//! ```
//! use ndsearch_core::cluster::{
//!     ClusterEngine, ClusterQueryRequest, FailureSchedule, ReplicaPolicy,
//!     ReplicationConfig,
//! };
//! use ndsearch_core::config::NdsConfig;
//! use ndsearch_core::serve::ServeConfig;
//! use ndsearch_anns::index::MutableIndex;
//! use ndsearch_anns::vamana::{Vamana, VamanaParams};
//! use ndsearch_vector::shard::{ShardPlan, ShardPolicy};
//! use ndsearch_vector::synthetic::DatasetSpec;
//!
//! let (base, queries) = DatasetSpec::sift_scaled(300, 4).build_pair();
//! let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
//! let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 7);
//! // Two replicas per shard; kill shard 0's first replica mid-run.
//! let replication = ReplicationConfig::replicated(2)
//!     .with_policy(ReplicaPolicy::RoundRobin)
//!     .with_failures(FailureSchedule::new().kill(2_000_000, 0, 0));
//! let mut cluster = ClusterEngine::stage_replicated(
//!     &config,
//!     ServeConfig::default(),
//!     plan,
//!     replication,
//!     &base,
//!     |shard| {
//!         let index = Vamana::build(shard, VamanaParams::default());
//!         let entry = index.medoid();
//!         (Box::new(index) as Box<dyn MutableIndex>, entry)
//!     },
//! );
//! for (_, q) in queries.iter() {
//!     cluster.submit(ClusterQueryRequest::at(0, q.to_vec()));
//! }
//! let report = cluster.run_to_completion();
//! assert_eq!(report.completed(), 4);
//! assert!(report.availability() > 0.0 && report.availability() <= 1.0);
//! ```

use ndsearch_anns::index::MutableIndex;
use ndsearch_flash::timing::Nanos;
use ndsearch_vector::dataset::Dataset;
use ndsearch_vector::shard::ShardPlan;
use ndsearch_vector::topk::Neighbor;
use ndsearch_vector::VectorId;

use crate::config::NdsConfig;
use crate::deploy::{Deployment, UpdateTotals};
use crate::report::LatencySummary;
use crate::serve::{
    QueryId, QueryOutcome, QueryRequest, ServeConfig, ServeEngine, ServeReport, SessionState,
    UpdateId, UpdateOp, UpdateOutcome, UpdateRequest,
};

/// Identifier of a cluster query session (dense, submission order).
pub type ClusterQueryId = usize;

/// Identifier of a cluster update session (dense, submission order; a
/// separate space from [`ClusterQueryId`]).
pub type ClusterUpdateId = usize;

/// How queries pick a replica within their shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaPolicy {
    /// Cycle through alive replicas in index order, one per scattered
    /// session.
    RoundRobin,
    /// The alive replica with the fewest outstanding (non-terminal)
    /// routed sessions at submission time; ties break to the lowest
    /// index. With submit-then-run usage this balances outstanding
    /// counts; it diverges from round-robin once failovers or
    /// interleaved submission skew the queues.
    LeastLoaded,
    /// Round-robin primary plus a *hedge*: if the primary session is
    /// still unfinished `delay_ns` after its arrival, an identical
    /// backup session fires on the next alive replica and the first
    /// completion wins the gather. Bounds tail latency when one replica
    /// degrades (e.g. an ECC storm) at the cost of duplicated work.
    Hedged {
        /// How long the primary may run before the backup fires.
        delay_ns: Nanos,
    },
}

/// What a [`FailureEvent`] does to its target replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureKind {
    /// The device drops out entirely: it stops stepping, receives no
    /// further traffic, and its unfinished sessions are re-seeded on a
    /// surviving replica of the same shard (a *failover*).
    Kill,
    /// The device's hard-decision LDPC failure probability jumps to
    /// `failure_prob` (see
    /// [`EccEngine::set_hard_decision_failure_prob`](ndsearch_flash::ecc::EccEngine::set_hard_decision_failure_prob)):
    /// reads start paying the soft-decode penalty and the replica turns
    /// into a straggler without going down.
    EccStorm {
        /// New hard-decision failure probability, clamped to `[0, 1]`.
        failure_prob: f64,
    },
    /// Every block of the device ages by `cycles` P/E cycles at once
    /// ([`WearModel::age_uniform`](ndsearch_flash::wear::WearModel::age_uniform));
    /// the hard-decision failure probability is re-derived from the
    /// worn mean raw BER, so an end-of-life device degrades like a
    /// physically aged one rather than by a hand-picked constant.
    WearOut {
        /// P/E cycles added to every block.
        cycles: u32,
    },
}

/// One scheduled degradation: at simulated time `at_ns`, `kind` happens
/// to replica `replica` of shard `shard`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// Simulated timestamp the event fires at (checked against the
    /// target replica's clock at round boundaries).
    pub at_ns: Nanos,
    /// Target shard index.
    pub shard: usize,
    /// Target replica index within the shard.
    pub replica: usize,
    /// What happens.
    pub kind: FailureKind,
}

/// A deterministic script of mid-run failures (builder-style).
///
/// Events fire at round boundaries once the target replica's simulated
/// clock reaches `at_ns`, in schedule order — host time never enters,
/// so a run with a failure schedule is exactly as reproducible as one
/// without. Events targeting an already-dead replica, an empty shard,
/// or a time past the last completion never fire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureSchedule {
    events: Vec<FailureEvent>,
}

impl FailureSchedule {
    /// An empty schedule (no failures).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary event.
    #[must_use]
    pub fn push(mut self, event: FailureEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Adds a [`FailureKind::Kill`] of `shard`/`replica` at `at_ns`.
    #[must_use]
    pub fn kill(self, at_ns: Nanos, shard: usize, replica: usize) -> Self {
        self.push(FailureEvent {
            at_ns,
            shard,
            replica,
            kind: FailureKind::Kill,
        })
    }

    /// Adds a [`FailureKind::EccStorm`] on `shard`/`replica` at `at_ns`.
    #[must_use]
    pub fn ecc_storm(self, at_ns: Nanos, shard: usize, replica: usize, failure_prob: f64) -> Self {
        self.push(FailureEvent {
            at_ns,
            shard,
            replica,
            kind: FailureKind::EccStorm { failure_prob },
        })
    }

    /// Adds a [`FailureKind::WearOut`] of `shard`/`replica` at `at_ns`.
    #[must_use]
    pub fn wear_out(self, at_ns: Nanos, shard: usize, replica: usize, cycles: u32) -> Self {
        self.push(FailureEvent {
            at_ns,
            shard,
            replica,
            kind: FailureKind::WearOut { cycles },
        })
    }

    /// The scheduled events, in schedule (= firing) order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Replication knobs for [`ClusterEngine::stage_replicated`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationConfig {
    /// Replicas per shard (≥ 1; 1 reproduces the unreplicated cluster).
    pub replicas: usize,
    /// How queries pick a replica.
    pub policy: ReplicaPolicy,
    /// Scripted mid-run degradations.
    pub failures: FailureSchedule,
}

impl Default for ReplicationConfig {
    /// One replica per shard, round-robin (degenerate: the single
    /// replica), no failures — the pre-replication cluster.
    fn default() -> Self {
        Self {
            replicas: 1,
            policy: ReplicaPolicy::RoundRobin,
            failures: FailureSchedule::new(),
        }
    }
}

impl ReplicationConfig {
    /// `replicas` copies of every shard, round-robin, no failures.
    pub fn replicated(replicas: usize) -> Self {
        Self {
            replicas,
            ..Self::default()
        }
    }

    /// Replaces the routing policy.
    #[must_use]
    pub fn with_policy(mut self, policy: ReplicaPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the failure schedule.
    #[must_use]
    pub fn with_failures(mut self, failures: FailureSchedule) -> Self {
        self.failures = failures;
        self
    }
}

/// One query submitted to the cluster. Unlike the single-device
/// [`QueryRequest`] it carries no entry vertices: the scatter seeds each
/// shard's session at that shard's own entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterQueryRequest {
    /// The query feature vector.
    pub query: Vec<f32>,
    /// Simulated arrival time.
    pub arrival_ns: Nanos,
    /// Optional absolute deadline, applied on every shard (and on every
    /// hedge/failover copy of the session).
    pub deadline_ns: Option<Nanos>,
    /// Tenant the query belongs to (0 = the default tenant); carried to
    /// every per-shard session, so [`crate::serve::SloPolicy::TenantFair`]
    /// and the per-tenant roll-ups apply cluster-wide.
    pub tenant: u32,
    /// Per-query top-k override for the gather; `None` uses the cluster's
    /// [`ServeConfig::k`]. Each shard still returns its own full top-k;
    /// the override bounds the merged list.
    pub k: Option<usize>,
}

impl ClusterQueryRequest {
    /// A request arriving at `arrival_ns` with no deadline, tenant 0 and
    /// the cluster's default top-k.
    pub fn at(arrival_ns: Nanos, query: Vec<f32>) -> Self {
        Self {
            query,
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

/// Final record of one cluster query: the gather of its per-shard
/// sessions (per shard, the winning copy — see
/// [`ReplicaPolicy::Hedged`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterQueryOutcome {
    /// Cluster query id (submission order).
    pub id: ClusterQueryId,
    /// Merged terminal state: `Completed` only if every shard session
    /// completed; `Rejected` if any shard rejected the session;
    /// otherwise `Expired` if any shard cut it off at the deadline.
    pub state: SessionState,
    /// The submitted arrival time.
    pub arrival_ns: Nanos,
    /// Latest winning per-shard completion — the gather cannot merge
    /// before the slowest shard has answered.
    pub completed_ns: Nanos,
    /// Beam-search hops executed across all shards, **including** work
    /// spent on hedges and on sessions abandoned by a failover.
    pub hops: usize,
    /// Merged top-k in **global** ids, ascending `(distance, id)`.
    pub results: Vec<Neighbor>,
    /// Tenant the query belonged to.
    pub tenant: u32,
    /// The deadline it carried, if any.
    pub deadline_ns: Option<Nanos>,
    /// Whether any winning shard session was terminated by a
    /// [`crate::serve::SloPolicy::ShedDoomed`] decision.
    pub shed: bool,
}

impl ClusterQueryOutcome {
    /// End-to-end latency the client observed (arrival → merged top-k).
    pub fn latency_ns(&self) -> Nanos {
        self.completed_ns.saturating_sub(self.arrival_ns)
    }
}

/// One replica's slice of a [`ShardBreakdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaBreakdown {
    /// Replica index within the shard.
    pub replica: usize,
    /// Whether the device was still up at the end of the run.
    pub alive: bool,
    /// When the device was killed (`None` if it survived).
    pub killed_ns: Option<Nanos>,
    /// Beam-search hops this device executed.
    pub hops: usize,
    /// The replica engine's full device report (its `wall_s` is the host
    /// time this device's rounds took).
    pub report: ServeReport,
}

/// Per-shard slice of a [`ClusterReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardBreakdown {
    /// Shard index in the plan.
    pub shard: usize,
    /// Vectors the shard currently owns.
    pub vertices: usize,
    /// Beam-search hops the shard executed, summed over replicas.
    pub hops: usize,
    /// Sessions re-seeded on a survivor after a replica was killed.
    pub failovers: usize,
    /// Hedge (backup) sessions fired on this shard.
    pub hedges: usize,
    /// Hedges that beat their primary to completion.
    pub hedge_wins: usize,
    /// Fraction of the run's span (first arrival → last completion) the
    /// shard's replicas were up, averaged over replicas: 1.0 with no
    /// kills, in `(0, 1]` otherwise (a replica killed at time `t`
    /// contributes `t / span`).
    pub availability: f64,
    /// Per-replica device reports.
    pub replicas: Vec<ReplicaBreakdown>,
}

/// Result of serving a stream of sessions on the cluster.
///
/// Equality inherits [`ServeReport`]'s convention: host wall-clock
/// fields are excluded, everything else — merged outcomes, update
/// outcomes, every per-shard and per-replica breakdown — must match
/// bit-for-bit for two reports to compare equal.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// One record per submitted cluster query, in submission order.
    pub outcomes: Vec<ClusterQueryOutcome>,
    /// One record per submitted cluster update, in submission order
    /// (`assigned` ids are global).
    pub update_outcomes: Vec<UpdateOutcome>,
    /// Per-shard breakdowns, one per staged shard.
    pub shards: Vec<ShardBreakdown>,
    /// Earliest arrival → latest completion across the whole cluster.
    pub makespan_ns: Nanos,
    /// Host wall-clock seconds spent inside `run_to_completion*`,
    /// measured once across the whole cluster (failure and hedge
    /// bookkeeping included). Excluded from equality.
    pub wall_s: f64,
}

impl PartialEq for ClusterReport {
    fn eq(&self, other: &Self) -> bool {
        // `wall_s` is deliberately excluded (host timing, not simulation
        // output).
        self.outcomes == other.outcomes
            && self.update_outcomes == other.update_outcomes
            && self.shards == other.shards
            && self.makespan_ns == other.makespan_ns
    }
}

impl ClusterReport {
    /// Cluster queries that completed on every shard.
    pub fn completed(&self) -> usize {
        self.count(SessionState::Completed)
    }

    /// Cluster queries rejected by at least one shard's backpressure.
    pub fn rejected(&self) -> usize {
        self.count(SessionState::Rejected)
    }

    /// Cluster queries cut off at their deadline on at least one shard.
    pub fn expired(&self) -> usize {
        self.count(SessionState::Expired)
    }

    fn count(&self, s: SessionState) -> usize {
        self.outcomes.iter().filter(|o| o.state == s).count()
    }

    /// Goodput: fully completed queries per second of cluster makespan.
    pub fn qps(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.completed() as f64 / (self.makespan_ns as f64 / 1e9)
        }
    }

    /// Wall-clock simulation throughput: simulated nanoseconds advanced
    /// per host second spent simulating (0 when nothing was measured).
    pub fn sim_ns_per_wall_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.makespan_ns as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Sessions re-seeded on a survivor after a kill, cluster-wide.
    pub fn failovers(&self) -> usize {
        self.shards.iter().map(|s| s.failovers).sum()
    }

    /// Hedge (backup) sessions fired, cluster-wide.
    pub fn hedges(&self) -> usize {
        self.shards.iter().map(|s| s.hedges).sum()
    }

    /// Hedges that beat their primary to completion, cluster-wide.
    pub fn hedge_wins(&self) -> usize {
        self.shards.iter().map(|s| s.hedge_wins).sum()
    }

    /// Fraction of fired hedges that won their race (0 if none fired).
    pub fn hedge_win_rate(&self) -> f64 {
        let fired = self.hedges();
        if fired == 0 {
            0.0
        } else {
            self.hedge_wins() as f64 / fired as f64
        }
    }

    /// Mean shard availability (1.0 with no kills; see
    /// [`ShardBreakdown::availability`]).
    pub fn availability(&self) -> f64 {
        if self.shards.is_empty() {
            return 1.0;
        }
        self.shards.iter().map(|s| s.availability).sum::<f64>() / self.shards.len() as f64
    }

    /// Updates applied to completion.
    pub fn updates_completed(&self) -> usize {
        self.update_outcomes
            .iter()
            .filter(|o| o.state == SessionState::Completed)
            .count()
    }

    /// Updates rejected (routing, backpressure or shard-level rejection).
    pub fn updates_rejected(&self) -> usize {
        self.update_outcomes
            .iter()
            .filter(|o| o.state == SessionState::Rejected)
            .count()
    }

    /// Latency order statistics over fully completed cluster queries,
    /// plus the wall-clock simulation-throughput fields.
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

    /// Cluster queries whose winning session on some shard was shed by a
    /// [`crate::serve::SloPolicy::ShedDoomed`] decision.
    pub fn sheds(&self) -> usize {
        self.outcomes.iter().filter(|o| o.shed).count()
    }

    /// SLO attainment: the fraction of deadline-carrying cluster queries
    /// that completed on time on every shard; `1.0` when none carried a
    /// deadline.
    pub fn slo_attainment(&self) -> f64 {
        crate::serve::slo_attainment_of(self.outcomes.iter().map(|o| (o.deadline_ns, o.state)))
    }

    /// Per-tenant roll-ups over the merged cluster outcomes, ascending by
    /// tenant id.
    pub fn tenant_summaries(&self) -> Vec<crate::report::TenantSummary> {
        crate::report::summarize_tenants(&crate::serve::tenant_samples(
            self.outcomes
                .iter()
                .map(|o| (o.tenant, o.state, o.shed, o.deadline_ns, o.latency_ns())),
        ))
    }

    /// Fairness metric: max over mean of the per-tenant p99 latencies
    /// (see [`crate::report::tenant_p99_fairness`]).
    pub fn tenant_p99_fairness(&self) -> f64 {
        crate::report::tenant_p99_fairness(&self.tenant_summaries())
    }

    /// Write-path totals summed across **every replica device** of every
    /// shard — fleet-level flash wear, not logical update volume:
    /// updates fan out to all replicas, so R replicas program ~R× the
    /// pages of the unreplicated cluster for the same update stream.
    pub fn update_totals(&self) -> UpdateTotals {
        let mut total = UpdateTotals::default();
        for s in &self.shards {
            for r in &s.replicas {
                total.merge(&r.report.updates);
            }
        }
        total
    }

    /// Load-imbalance factor: the busiest shard's beam-search hop count
    /// over the mean (1.0 = perfectly balanced). Falls back to vertex
    /// counts when no search work ran; 0 without shards.
    pub fn load_imbalance(&self) -> f64 {
        let over = |f: fn(&ShardBreakdown) -> usize| -> f64 {
            let max = self.shards.iter().map(f).max().unwrap_or(0) as f64;
            let sum: usize = self.shards.iter().map(f).sum();
            let mean = sum as f64 / self.shards.len().max(1) as f64;
            if mean > 0.0 {
                max / mean
            } else {
                0.0
            }
        };
        if self.shards.is_empty() {
            return 0.0;
        }
        let by_hops = over(|s| s.hops);
        if by_hops > 0.0 {
            by_hops
        } else {
            over(|s| s.vertices)
        }
    }
}

/// One replica device of a shard: a full single-device serving stack
/// plus its local entry vertex and liveness.
struct Replica<'a> {
    engine: ServeEngine<'a>,
    entry: VectorId,
    alive: bool,
    killed_ns: Option<Nanos>,
    /// Every query session ever routed here (primaries, hedges and
    /// failover re-seeds) — the load signal for `LeastLoaded`.
    routed: Vec<QueryId>,
}

/// One staged shard: its replica set plus routing state.
struct Shard<'a> {
    replicas: Vec<Replica<'a>>,
    /// Round-robin position (advances per routed primary).
    cursor: usize,
    failovers: usize,
    hedges: usize,
}

impl Shard<'_> {
    fn has_alive(&self) -> bool {
        self.replicas.iter().any(|r| r.alive)
    }

    /// The next alive replica cyclically after `r` (excluding `r`).
    fn next_alive_after(&self, r: usize) -> Option<usize> {
        let n = self.replicas.len();
        (1..n)
            .map(|i| (r + i) % n)
            .find(|&i| self.replicas[i].alive)
    }

    /// Picks the replica a new primary session routes to, or `None` when
    /// every replica is dead.
    fn route_query(&mut self, policy: ReplicaPolicy) -> Option<usize> {
        let alive: Vec<usize> = (0..self.replicas.len())
            .filter(|&r| self.replicas[r].alive)
            .collect();
        if alive.is_empty() {
            return None;
        }
        match policy {
            ReplicaPolicy::RoundRobin | ReplicaPolicy::Hedged { .. } => {
                let pick = alive[self.cursor % alive.len()];
                self.cursor += 1;
                Some(pick)
            }
            ReplicaPolicy::LeastLoaded => alive.into_iter().min_by_key(|&r| {
                let rep = &self.replicas[r];
                let outstanding = rep
                    .routed
                    .iter()
                    .filter(|&&q| !is_terminal(rep.engine.poll(q)))
                    .count();
                (outstanding, r)
            }),
        }
    }
}

/// Where a cluster update went.
enum Route {
    /// Forwarded to `shard`, fanned out to every replica alive at
    /// submission (`locals` pairs replica index with that replica's
    /// update session id; `delete` carries the global id for translation
    /// back).
    Shard {
        shard: usize,
        locals: Vec<(usize, UpdateId)>,
        delete: Option<VectorId>,
    },
    /// Rejected at the cluster router (unroutable id or shard).
    Cluster { arrival_ns: Nanos },
}

/// One copy of a scattered session on one replica.
#[derive(Debug, Clone, Copy)]
struct ShardSession {
    replica: usize,
    query: QueryId,
}

/// A scattered query's state on one shard: the primary copy, an
/// optional hedge, and any copies abandoned by failovers.
struct ScatterShard {
    primary: ShardSession,
    hedge: Option<ShardSession>,
    /// A hedge was already fired (or deliberately skipped); never fire
    /// another — unless the hedge itself died, which re-arms this.
    hedge_spent: bool,
    /// Copies left frozen on killed replicas (their partial hop work
    /// still counts toward the outcome).
    abandoned: Vec<ShardSession>,
}

/// One scattered query: the request (kept for re-seeding) plus the
/// per-shard session state.
struct Scatter {
    query: Vec<f32>,
    arrival_ns: Nanos,
    deadline_ns: Option<Nanos>,
    tenant: u32,
    /// Per-query top-k override for the gather.
    k: Option<usize>,
    sessions: Vec<Option<ScatterShard>>,
}

/// The scatter–gather cluster engine (see the [module docs](self)).
pub struct ClusterEngine<'a> {
    serve: ServeConfig,
    plan: ShardPlan,
    replication: ReplicationConfig,
    /// `None` for shards the plan left empty (possible under the hash
    /// policy on tiny datasets); they serve no traffic.
    shards: Vec<Option<Shard<'a>>>,
    queries: Vec<Scatter>,
    routes: Vec<Route>,
    /// Inserts routed to each shard but not yet resolved into the plan.
    inflight_inserts: Vec<usize>,
    /// Cluster update outcomes resolved so far (prefix of `routes`).
    resolved: Vec<UpdateOutcome>,
    /// Which failure-schedule events already fired.
    fired: Vec<bool>,
    /// Host wall-clock spent inside `run_to_completion*`.
    wall: std::time::Duration,
}

impl<'a> ClusterEngine<'a> {
    /// Stages an unreplicated cluster (one replica per shard, no
    /// failures) — see [`stage_replicated`](Self::stage_replicated).
    pub fn stage(
        config: &'a NdsConfig,
        serve: ServeConfig,
        plan: ShardPlan,
        dataset: &Dataset,
        build: impl Fn(&Dataset) -> (Box<dyn MutableIndex>, VectorId),
    ) -> Self {
        Self::stage_replicated(
            config,
            serve,
            plan,
            ReplicationConfig::default(),
            dataset,
            build,
        )
    }

    /// Stages a replicated cluster: splits `dataset` per the plan and,
    /// for every non-empty shard, builds `replication.replicas` replica
    /// devices — each its own index build and [`Deployment`] (own flash
    /// stack) via `build`, which returns the shard's index and its entry
    /// vertex in shard-local ids (e.g. the Vamana medoid or HNSW entry
    /// point). `build` is deterministic per sub-dataset, so replicas of
    /// a shard start as bit-identical copies.
    ///
    /// Every replica serves with the same `config` (homogeneous devices)
    /// and the same `serve` admission/search knobs.
    ///
    /// # Panics
    /// Panics if the plan's base length differs from the dataset length,
    /// the dataset is empty, `replication.replicas` is 0, or the failure
    /// schedule references a shard/replica outside the staged ranges (or
    /// an [`FailureKind::EccStorm`] probability outside `[0, 1]`).
    pub fn stage_replicated(
        config: &'a NdsConfig,
        serve: ServeConfig,
        plan: ShardPlan,
        replication: ReplicationConfig,
        dataset: &Dataset,
        build: impl Fn(&Dataset) -> (Box<dyn MutableIndex>, VectorId),
    ) -> Self {
        assert!(!dataset.is_empty(), "cluster needs at least one vector");
        assert!(
            replication.replicas >= 1,
            "every shard needs at least one replica"
        );
        let num_shards = plan.num_shards();
        for ev in replication.failures.events() {
            assert!(
                ev.shard < num_shards,
                "failure event targets shard {} of {num_shards}",
                ev.shard
            );
            assert!(
                ev.replica < replication.replicas,
                "failure event targets replica {} of {}",
                ev.replica,
                replication.replicas
            );
            if let FailureKind::EccStorm { failure_prob } = ev.kind {
                assert!(
                    (0.0..=1.0).contains(&failure_prob),
                    "ECC storm probability {failure_prob} outside [0, 1]"
                );
            }
        }
        let shards = plan
            .extract(dataset)
            .into_iter()
            .map(|shard_ds| {
                if shard_ds.is_empty() {
                    return None;
                }
                let replicas = (0..replication.replicas)
                    .map(|_| {
                        let (index, entry) = build(&shard_ds);
                        let deploy = Deployment::stage(config, index, shard_ds.clone());
                        Replica {
                            engine: ServeEngine::with_deployment(config, serve.clone(), deploy),
                            entry,
                            alive: true,
                            killed_ns: None,
                            routed: Vec::new(),
                        }
                    })
                    .collect();
                Some(Shard {
                    replicas,
                    cursor: 0,
                    failovers: 0,
                    hedges: 0,
                })
            })
            .collect();
        let fired = vec![false; replication.failures.events().len()];
        Self {
            serve,
            plan,
            replication,
            shards,
            queries: Vec::new(),
            routes: Vec::new(),
            inflight_inserts: vec![0; num_shards],
            resolved: Vec::new(),
            fired,
            wall: std::time::Duration::ZERO,
        }
    }

    /// The id plan (ground truth of global ↔ shard-local mapping,
    /// including resolved online inserts).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards in the plan (staged or empty).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Replicas staged per shard.
    pub fn num_replicas(&self) -> usize {
        self.replication.replicas
    }

    /// A staged shard's serving engine — the lowest-index alive replica
    /// (or replica 0 if the whole shard is down); `None` for empty
    /// shards. With the default single-replica staging this is *the*
    /// shard engine.
    pub fn shard_engine(&self, shard: usize) -> Option<&ServeEngine<'a>> {
        self.shards[shard].as_ref().map(|s| {
            let r = s.replicas.iter().position(|r| r.alive).unwrap_or(0);
            &s.replicas[r].engine
        })
    }

    /// A specific replica's serving engine; `None` for empty shards or
    /// out-of-range replica indices.
    pub fn replica_engine(&self, shard: usize, replica: usize) -> Option<&ServeEngine<'a>> {
        self.shards[shard]
            .as_ref()
            .and_then(|s| s.replicas.get(replica))
            .map(|r| &r.engine)
    }

    /// Scatters one query session to every staged shard — on the replica
    /// the policy picks — and returns the cluster id. Shards whose
    /// replicas are all dead are skipped (the cluster outcome then never
    /// completes, mirroring a real partial outage).
    pub fn submit(&mut self, req: ClusterQueryRequest) -> ClusterQueryId {
        let id = self.queries.len();
        let policy = self.replication.policy;
        let sessions = self
            .shards
            .iter_mut()
            .map(|slot| {
                let shard = slot.as_mut()?;
                let replica = shard.route_query(policy)?;
                let rep = &mut shard.replicas[replica];
                let query = rep.engine.submit(QueryRequest {
                    query: req.query.clone(),
                    entries: vec![rep.entry],
                    arrival_ns: req.arrival_ns,
                    deadline_ns: req.deadline_ns,
                    tenant: req.tenant,
                    k: req.k,
                });
                rep.routed.push(query);
                Some(ScatterShard {
                    primary: ShardSession { replica, query },
                    hedge: None,
                    hedge_spent: false,
                    abandoned: Vec::new(),
                })
            })
            .collect();
        self.queries.push(Scatter {
            query: req.query,
            arrival_ns: req.arrival_ns,
            deadline_ns: req.deadline_ns,
            tenant: req.tenant,
            k: req.k,
            sessions,
        });
        id
    }

    /// Routes one update to its owning shard — fanned out to every alive
    /// replica so copies stay identical — and returns the cluster id.
    /// Deletes carry **global** ids and must reference a vector the plan
    /// already maps (run the cluster to completion to resolve pending
    /// inserts first); inserts are placed by the plan's policy. Updates
    /// that cannot be routed — an out-of-range delete, or a route to an
    /// empty or fully-dead shard — are rejected at the cluster router.
    pub fn submit_update(&mut self, req: UpdateRequest) -> ClusterUpdateId {
        let id = self.routes.len();
        let route = match &req.op {
            UpdateOp::Delete(g) => {
                if (*g as usize) < self.plan.len() {
                    let shard = self.plan.shard_of(*g);
                    let local = self.plan.local_of(*g);
                    Some((shard, UpdateOp::Delete(local), Some(*g)))
                } else {
                    None
                }
            }
            UpdateOp::Insert(v) => {
                // Route only among shards that can still accept writes: a
                // plan can leave a shard empty (no engine) and a failure
                // schedule can kill a whole replica set; the policy must
                // skip both rather than reject inserts forever.
                let live: Vec<bool> = self
                    .shards
                    .iter()
                    .map(|s| s.as_ref().is_some_and(Shard::has_alive))
                    .collect();
                self.plan
                    .route_insert(&self.inflight_inserts, &live)
                    .map(|shard| (shard, UpdateOp::Insert(v.clone()), None))
            }
        };
        let route = match route {
            Some((shard, op, delete))
                if self.shards[shard].as_ref().is_some_and(Shard::has_alive) =>
            {
                if delete.is_none() {
                    self.inflight_inserts[shard] += 1;
                }
                let replicas = &mut self.shards[shard].as_mut().expect("checked").replicas;
                let locals = replicas
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, r)| r.alive)
                    .map(|(ri, r)| {
                        let local = r.engine.submit_update(UpdateRequest {
                            op: op.clone(),
                            arrival_ns: req.arrival_ns,
                        });
                        (ri, local)
                    })
                    .collect();
                Route::Shard {
                    shard,
                    locals,
                    delete,
                }
            }
            _ => Route::Cluster {
                arrival_ns: req.arrival_ns,
            },
        };
        self.routes.push(route);
        id
    }

    /// Merged state of a cluster query: `Completed` only once every
    /// shard delivered an answer (on any replica — a completed hedge
    /// counts for its shard).
    pub fn poll(&self, id: ClusterQueryId) -> SessionState {
        let states: Vec<SessionState> = self.queries[id]
            .sessions
            .iter()
            .enumerate()
            .filter_map(|(s, session)| {
                session.as_ref().map(|sc| {
                    let shard = self.shards[s].as_ref().expect("session on staged shard");
                    let primary = shard.replicas[sc.primary.replica]
                        .engine
                        .poll(sc.primary.query);
                    let hedge = sc
                        .hedge
                        .map(|h| shard.replicas[h.replica].engine.poll(h.query));
                    if primary == SessionState::Completed || hedge == Some(SessionState::Completed)
                    {
                        SessionState::Completed
                    } else {
                        primary
                    }
                })
            })
            .collect();
        merge_states(&states)
    }

    /// State of a cluster update: `Completed` once applied on every
    /// replica that is still alive (cluster-rejected updates report
    /// `Rejected` immediately).
    pub fn poll_update(&self, id: ClusterUpdateId) -> SessionState {
        match &self.routes[id] {
            Route::Cluster { .. } => SessionState::Rejected,
            Route::Shard { shard, locals, .. } => {
                let shard = self.shards[*shard]
                    .as_ref()
                    .expect("routed to staged shard");
                let alive: Vec<SessionState> = locals
                    .iter()
                    .filter(|(ri, _)| shard.replicas[*ri].alive)
                    .map(|(ri, l)| shard.replicas[*ri].engine.poll_update(*l))
                    .collect();
                if alive.is_empty() {
                    // Every replica that received it died: surface the
                    // most advanced state any copy reached.
                    let any = locals
                        .iter()
                        .map(|(ri, l)| shard.replicas[*ri].engine.poll_update(*l))
                        .find(is_terminal_ref);
                    return any.unwrap_or(SessionState::Rejected);
                }
                merge_states(&alive)
            }
        }
    }

    /// Drives every shard to completion, stepping shards in index order
    /// each round, and returns the gathered report.
    pub fn run_to_completion(&mut self) -> ClusterReport {
        let order: Vec<usize> = (0..self.shards.len()).collect();
        self.run_to_completion_ordered(&order)
    }

    /// [`run_to_completion`](Self::run_to_completion) stepping shards in
    /// the given order each round. Shards share no state, and failure
    /// events and hedges fire at round boundaries in fixed
    /// schedule/submission order, so the report is **invariant** under
    /// the order (pinned by `tests/exec_determinism.rs`); the knob
    /// exists to prove exactly that.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..num_shards()`.
    pub fn run_to_completion_ordered(&mut self, order: &[usize]) -> ClusterReport {
        let mut seen = vec![false; self.shards.len()];
        for &s in order {
            assert!(s < seen.len() && !seen[s], "order must be a permutation");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "order must cover every shard");

        let wall_start = std::time::Instant::now();
        loop {
            // Failure events fire at the round boundary, before the round
            // they degrade (an event at t=0 hits a device that has served
            // nothing).
            let mut more = self.fire_due_failures();
            for &s in order {
                let Some(shard) = self.shards[s].as_mut() else {
                    continue;
                };
                for rep in shard.replicas.iter_mut().filter(|r| r.alive) {
                    more |= rep.engine.step_round();
                }
            }
            more |= self.fire_hedges();
            if !more {
                break;
            }
        }
        self.wall += wall_start.elapsed();
        self.report()
    }

    /// Compacts every **alive** replica of every staged shard in place
    /// (dead devices are skipped; surviving twins stay identical because
    /// compaction is deterministic), charging each device's rewrite to
    /// its simulated clock. Returns the per-device reports in
    /// `(shard, replica)` order; empty for query-only deployments.
    ///
    /// Call between traffic phases (after a
    /// [`run_to_completion`](Self::run_to_completion) drain) — the
    /// production-day maintenance window.
    pub fn compact_all(&mut self) -> Vec<crate::deploy::CompactionReport> {
        let mut reports = Vec::new();
        for shard in self.shards.iter_mut().flatten() {
            for rep in shard.replicas.iter_mut().filter(|r| r.alive) {
                if let Some(report) = rep.engine.compact() {
                    reports.push(report);
                }
            }
        }
        reports
    }

    /// Fires every not-yet-fired failure event whose target replica's
    /// simulated clock has reached the event time. Returns whether new
    /// work was created (failover re-seeds).
    fn fire_due_failures(&mut self) -> bool {
        let mut new_work = false;
        for ei in 0..self.fired.len() {
            if self.fired[ei] {
                continue;
            }
            let ev = self.replication.failures.events()[ei];
            let due = match self.shards[ev.shard].as_ref() {
                // Empty shard: nothing to degrade, retire the event.
                None => {
                    self.fired[ei] = true;
                    continue;
                }
                Some(shard) => {
                    let rep = &shard.replicas[ev.replica];
                    if !rep.alive {
                        // Already dead: the event can never bite.
                        self.fired[ei] = true;
                        continue;
                    }
                    rep.engine.now_ns() >= ev.at_ns
                }
            };
            if !due {
                continue;
            }
            self.fired[ei] = true;
            new_work |= self.apply_failure(ev);
        }
        new_work
    }

    fn apply_failure(&mut self, ev: FailureEvent) -> bool {
        match ev.kind {
            FailureKind::Kill => return self.kill_replica(ev.shard, ev.replica, ev.at_ns),
            FailureKind::EccStorm { failure_prob } => {
                let rep = self.replica_mut(ev.shard, ev.replica);
                rep.engine.inject_ecc_failure_prob(failure_prob);
            }
            FailureKind::WearOut { cycles } => {
                let rep = self.replica_mut(ev.shard, ev.replica);
                rep.engine.age_wear(cycles);
                // Couple the aged cells back into the ECC engine: scale
                // the failure probability by the raw-BER growth factor
                // (floor 1e-3 so a zero-fault baseline still degrades).
                let wear = rep.engine.deployment().wear();
                let factor = wear.mean_raw_ber() / wear.fresh_ber;
                let prob = (rep.engine.ecc_failure_prob().max(1e-3) * factor).min(1.0);
                rep.engine.inject_ecc_failure_prob(prob);
            }
        }
        false
    }

    fn replica_mut(&mut self, shard: usize, replica: usize) -> &mut Replica<'a> {
        &mut self.shards[shard]
            .as_mut()
            .expect("failure event on staged shard")
            .replicas[replica]
    }

    /// Kills `replica` of `shard` at `at_ns`: the device stops stepping,
    /// and every unfinished session routed to it is re-seeded on the
    /// next alive replica (arriving at the kill time — the failover
    /// detection latency is the round granularity). With no survivor the
    /// sessions stay frozen on the dead device.
    fn kill_replica(&mut self, s: usize, r: usize, at_ns: Nanos) -> bool {
        let shard = self.shards[s].as_mut().expect("kill on staged shard");
        shard.replicas[r].alive = false;
        shard.replicas[r].killed_ns = Some(at_ns);
        let survivor = shard.next_alive_after(r);
        let mut new_work = false;
        for scatter in &mut self.queries {
            let Some(sc) = scatter.sessions[s].as_mut() else {
                continue;
            };
            if let Some(h) = sc.hedge {
                if h.replica == r && !is_terminal(shard.replicas[r].engine.poll(h.query)) {
                    // The backup died mid-race: drop it and re-arm so a
                    // fresh hedge may fire on a survivor later.
                    sc.abandoned.push(h);
                    sc.hedge = None;
                    sc.hedge_spent = false;
                }
            }
            if sc.primary.replica == r
                && !is_terminal(shard.replicas[r].engine.poll(sc.primary.query))
            {
                let Some(surv) = survivor else { continue };
                let rep = &mut shard.replicas[surv];
                let query = rep.engine.submit(QueryRequest {
                    query: scatter.query.clone(),
                    entries: vec![rep.entry],
                    // A session that had not even arrived yet keeps its
                    // original arrival time on the survivor.
                    arrival_ns: at_ns.max(scatter.arrival_ns),
                    deadline_ns: scatter.deadline_ns,
                    tenant: scatter.tenant,
                    k: scatter.k,
                });
                rep.routed.push(query);
                let old = std::mem::replace(
                    &mut sc.primary,
                    ShardSession {
                        replica: surv,
                        query,
                    },
                );
                sc.abandoned.push(old);
                shard.failovers += 1;
                new_work = true;
            }
        }
        new_work
    }

    /// Fires due hedges (policy [`ReplicaPolicy::Hedged`]): for every
    /// scattered session whose primary has been outstanding for the
    /// hedge delay, submit an identical backup on the next alive
    /// replica. Runs after the round's stepping, in submission order, so
    /// the decision depends only on simulated clocks.
    fn fire_hedges(&mut self) -> bool {
        let ReplicaPolicy::Hedged { delay_ns } = self.replication.policy else {
            return false;
        };
        let mut new_work = false;
        for scatter in &mut self.queries {
            let fire_at = scatter.arrival_ns.saturating_add(delay_ns);
            for (s, session) in scatter.sessions.iter_mut().enumerate() {
                let Some(sc) = session else { continue };
                if sc.hedge.is_some() || sc.hedge_spent {
                    continue;
                }
                let shard = self.shards[s].as_mut().expect("session on staged shard");
                let primary = &shard.replicas[sc.primary.replica];
                if !primary.alive || primary.engine.now_ns() < fire_at {
                    continue;
                }
                if is_terminal(primary.engine.poll(sc.primary.query)) {
                    // Finished inside the delay: no hedge ever needed.
                    sc.hedge_spent = true;
                    continue;
                }
                let Some(backup) = shard.next_alive_after(sc.primary.replica) else {
                    sc.hedge_spent = true;
                    continue;
                };
                let rep = &mut shard.replicas[backup];
                let query = rep.engine.submit(QueryRequest {
                    query: scatter.query.clone(),
                    entries: vec![rep.entry],
                    arrival_ns: fire_at,
                    deadline_ns: scatter.deadline_ns,
                    tenant: scatter.tenant,
                    k: scatter.k,
                });
                rep.routed.push(query);
                sc.hedge = Some(ShardSession {
                    replica: backup,
                    query,
                });
                sc.hedge_spent = true;
                shard.hedges += 1;
                new_work = true;
            }
        }
        new_work
    }

    /// Resolves terminal update sessions (in cluster submission order)
    /// into cluster outcomes, extending the plan with the global id of
    /// every completed insert. Stops at the first still-running update
    /// so global ids are always assigned in submission order.
    ///
    /// The *reference replica* — the lowest-index replica still alive
    /// among those the update fanned out to — supplies the outcome; an
    /// update resolves once every alive copy is terminal (replicas are
    /// deterministic twins, so copies agree on state and assigned slot).
    /// If every copy's replica died, the first terminal copy resolves
    /// it, and with none the update is reported rejected (lost with the
    /// devices).
    fn resolve_updates(&mut self, reports: &[Option<Vec<ServeReport>>]) {
        while self.resolved.len() < self.routes.len() {
            let id = self.resolved.len();
            let outcome = match &self.routes[id] {
                Route::Cluster { arrival_ns } => UpdateOutcome {
                    id,
                    state: SessionState::Rejected,
                    arrival_ns: *arrival_ns,
                    admitted_ns: *arrival_ns,
                    completed_ns: *arrival_ns,
                    assigned: None,
                    repaired: 0,
                    pages_programmed: 0,
                },
                Route::Shard {
                    shard,
                    locals,
                    delete,
                } => {
                    let shard_state = self.shards[*shard]
                        .as_ref()
                        .expect("routed to staged shard");
                    let reps = reports[*shard].as_ref().expect("routed to staged shard");
                    let outcome_of = |ri: usize, l: UpdateId| &reps[ri].update_outcomes[l];
                    let alive: Vec<(usize, UpdateId)> = locals
                        .iter()
                        .copied()
                        .filter(|&(ri, _)| shard_state.replicas[ri].alive)
                        .collect();
                    let picked = if alive.is_empty() {
                        // Lost with its devices: any copy that reached a
                        // terminal state before the kill still counts.
                        locals
                            .iter()
                            .copied()
                            .find(|&(ri, l)| is_terminal(outcome_of(ri, l).state))
                    } else {
                        if !alive
                            .iter()
                            .all(|&(ri, l)| is_terminal(outcome_of(ri, l).state))
                        {
                            break; // still pending on an alive replica
                        }
                        debug_assert!(
                            alive.iter().all(|&(ri, l)| {
                                let o = outcome_of(ri, l);
                                let first = outcome_of(alive[0].0, alive[0].1);
                                o.state == first.state && o.assigned == first.assigned
                            }),
                            "replica copies of update {id} diverged"
                        );
                        Some(alive[0])
                    };
                    let Some((ri, l)) = picked else {
                        // Every copy died non-terminal.
                        let o = outcome_of(locals[0].0, locals[0].1);
                        if delete.is_none() {
                            self.inflight_inserts[*shard] -= 1;
                        }
                        self.resolved.push(UpdateOutcome {
                            id,
                            state: SessionState::Rejected,
                            arrival_ns: o.arrival_ns,
                            admitted_ns: o.arrival_ns,
                            completed_ns: o.arrival_ns,
                            assigned: None,
                            repaired: 0,
                            pages_programmed: 0,
                        });
                        continue;
                    };
                    let o = outcome_of(ri, l);
                    let assigned = match (o.state, delete) {
                        (SessionState::Completed, Some(g)) => Some(*g),
                        (SessionState::Completed, None) => {
                            self.inflight_inserts[*shard] -= 1;
                            // Bind the *shard-reported* local slot: the
                            // shard applies updates in arrival order,
                            // which need not match cluster submission
                            // order, so the slot cannot be inferred.
                            let local = o.assigned.expect("completed insert reports its local id");
                            Some(self.plan.push_at(*shard, local))
                        }
                        (_, None) => {
                            self.inflight_inserts[*shard] -= 1;
                            None
                        }
                        _ => None,
                    };
                    UpdateOutcome {
                        id,
                        state: o.state,
                        arrival_ns: o.arrival_ns,
                        admitted_ns: o.admitted_ns,
                        completed_ns: o.completed_ns,
                        assigned,
                        repaired: o.repaired,
                        pages_programmed: o.pages_programmed,
                    }
                }
            };
            self.resolved.push(outcome);
        }
    }

    /// Gathers the cluster report: resolves updates, picks each shard's
    /// winning session copy (primary vs hedge — earliest completion),
    /// translates every result list into global ids, and stable-merges
    /// each query's lists by `(distance, global id)`.
    ///
    /// Meaningful once [`run_to_completion`](Self::run_to_completion)
    /// has drained every session (a mid-stream snapshot only covers the
    /// resolved prefix of updates).
    ///
    /// # Panics
    /// Panics if a result references an insert that is not yet resolved
    /// (only possible mid-stream).
    pub fn report(&mut self) -> ClusterReport {
        let reports: Vec<Option<Vec<ServeReport>>> = self
            .shards
            .iter()
            .map(|slot| {
                slot.as_ref()
                    .map(|shard| shard.replicas.iter().map(|r| r.engine.report()).collect())
            })
            .collect();
        self.resolve_updates(&reports);

        let default_k = self.serve.k;
        let mut hedge_wins = vec![0usize; self.shards.len()];
        let outcomes: Vec<ClusterQueryOutcome> = self
            .queries
            .iter()
            .enumerate()
            .map(|(id, scatter)| {
                let k = scatter.k.unwrap_or(default_k);
                let mut states = Vec::new();
                let mut merged: Vec<Neighbor> = Vec::new();
                let mut completed = 0;
                let mut hops = 0;
                let mut shed = false;
                for (s, session) in scatter.sessions.iter().enumerate() {
                    let Some(sc) = session else { continue };
                    let reps = reports[s].as_ref().expect("session on staged shard");
                    let outcome_of = |ss: &ShardSession| &reps[ss.replica].outcomes[ss.query];
                    let primary = outcome_of(&sc.primary);
                    let hedge = sc.hedge.as_ref().map(&outcome_of);
                    let (winner, hedge_won) = pick_winner(primary, hedge);
                    if hedge_won {
                        hedge_wins[s] += 1;
                    }
                    states.push(winner.state);
                    shed |= winner.shed;
                    completed = completed.max(winner.completed_ns);
                    hops += primary.hops
                        + hedge.map_or(0, |o| o.hops)
                        + sc.abandoned
                            .iter()
                            .map(|a| outcome_of(a).hops)
                            .sum::<usize>();
                    merged.extend(
                        winner
                            .results
                            .iter()
                            .map(|n| Neighbor::new(n.distance, self.plan.global_of(s, n.id))),
                    );
                }
                // The gather: a deterministic stable merge — Neighbor's
                // total order is (distance, id), ties broken by global id.
                merged.sort_unstable();
                merged.truncate(k);
                ClusterQueryOutcome {
                    id,
                    state: merge_states(&states),
                    arrival_ns: scatter.arrival_ns,
                    completed_ns: completed,
                    hops,
                    results: merged,
                    tenant: scatter.tenant,
                    deadline_ns: scatter.deadline_ns,
                    shed,
                }
            })
            .collect();

        let first_arrival = outcomes
            .iter()
            .map(|o| o.arrival_ns)
            .chain(self.resolved.iter().map(|o| o.arrival_ns))
            .min();
        let last_completion = outcomes
            .iter()
            .map(|o| o.completed_ns)
            .chain(self.resolved.iter().map(|o| o.completed_ns))
            .max()
            .unwrap_or(0);

        let shards: Vec<ShardBreakdown> = reports
            .into_iter()
            .enumerate()
            .filter_map(|(s, reps)| {
                let reps = reps?;
                let shard = self.shards[s].as_ref().expect("breakdown of staged shard");
                let replicas: Vec<ReplicaBreakdown> = reps
                    .into_iter()
                    .enumerate()
                    .map(|(ri, report)| ReplicaBreakdown {
                        replica: ri,
                        alive: shard.replicas[ri].alive,
                        killed_ns: shard.replicas[ri].killed_ns,
                        hops: report.outcomes.iter().map(|o| o.hops).sum(),
                        report,
                    })
                    .collect();
                let availability = if last_completion == 0 {
                    1.0
                } else {
                    replicas
                        .iter()
                        .map(|r| match r.killed_ns {
                            None => 1.0,
                            Some(t) => t.min(last_completion) as f64 / last_completion as f64,
                        })
                        .sum::<f64>()
                        / replicas.len() as f64
                };
                Some(ShardBreakdown {
                    shard: s,
                    vertices: self.plan.shard_len(s),
                    hops: replicas.iter().map(|r| r.hops).sum(),
                    failovers: shard.failovers,
                    hedges: shard.hedges,
                    hedge_wins: hedge_wins[s],
                    availability,
                    replicas,
                })
            })
            .collect();

        ClusterReport {
            outcomes,
            update_outcomes: self.resolved.clone(),
            shards,
            makespan_ns: last_completion.saturating_sub(first_arrival.unwrap_or(0)),
            wall_s: self.wall.as_secs_f64(),
        }
    }
}

/// Whether a session state is final.
fn is_terminal(state: SessionState) -> bool {
    matches!(
        state,
        SessionState::Completed | SessionState::Rejected | SessionState::Expired
    )
}

fn is_terminal_ref(state: &SessionState) -> bool {
    is_terminal(*state)
}

/// Picks the copy of a shard session that answers for its shard: a
/// completed hedge wins iff the primary did not complete or completed
/// later (ties go to the primary). Returns the winner and whether the
/// hedge won.
fn pick_winner<'o>(
    primary: &'o QueryOutcome,
    hedge: Option<&'o QueryOutcome>,
) -> (&'o QueryOutcome, bool) {
    let Some(hedge) = hedge else {
        return (primary, false);
    };
    match (
        primary.state == SessionState::Completed,
        hedge.state == SessionState::Completed,
    ) {
        (true, true) if hedge.completed_ns < primary.completed_ns => (hedge, true),
        (false, true) => (hedge, true),
        _ => (primary, false),
    }
}

/// Merges per-shard session states into the cluster-level state.
fn merge_states(states: &[SessionState]) -> SessionState {
    if states.is_empty() {
        return SessionState::Rejected;
    }
    if states.contains(&SessionState::Rejected) {
        return SessionState::Rejected;
    }
    if states.contains(&SessionState::Expired) {
        return SessionState::Expired;
    }
    if states.iter().all(|&s| s == SessionState::Completed) {
        return SessionState::Completed;
    }
    // Mixed non-terminal states: report the least-advanced stage.
    for s in [
        SessionState::Pending,
        SessionState::Queued,
        SessionState::Running,
    ] {
        if states.contains(&s) {
            return s;
        }
    }
    unreachable!("the probes above cover every SessionState variant")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndsearch_anns::vamana::{Vamana, VamanaParams};
    use ndsearch_vector::shard::ShardPolicy;
    use ndsearch_vector::synthetic::DatasetSpec;

    fn vamana_builder(ds: &Dataset) -> (Box<dyn MutableIndex>, VectorId) {
        let index = Vamana::build(ds, VamanaParams::default());
        let entry = index.medoid();
        (Box::new(index), entry)
    }

    fn fixture(n: usize, q: usize) -> (NdsConfig, Dataset, Dataset) {
        let (base, queries) = DatasetSpec::sift_scaled(n, q).build_pair();
        let mut config = NdsConfig::scaled_for(n * 2, base.stored_vector_bytes());
        config.ecc.hard_decision_failure_prob = 0.0;
        (config, base, queries)
    }

    #[test]
    fn cluster_serves_and_merges_globally() {
        let (config, base, queries) = fixture(400, 8);
        let plan = ShardPlan::partition(base.len(), 4, ShardPolicy::Hash, 11);
        let mut cluster =
            ClusterEngine::stage(&config, ServeConfig::default(), plan, &base, vamana_builder);
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(ClusterQueryRequest::at(i as Nanos * 500, q.to_vec()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 8);
        assert_eq!(report.shards.len(), 4);
        for o in &report.outcomes {
            assert_eq!(o.results.len(), ServeConfig::default().k);
            // Global ids, sorted by (distance, id), no duplicates.
            assert!(o.results.iter().all(|n| (n.id as usize) < base.len()));
            assert!(o.results.windows(2).all(|w| w[0] < w[1]));
            assert!(o.hops > 0);
        }
        assert!(report.load_imbalance() >= 1.0);
        assert!(report.qps() > 0.0);
        assert!(report.latency().p50_ns > 0);
        // No replication: full availability, no failovers or hedges.
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.failovers(), 0);
        assert_eq!(report.hedges(), 0);
        assert!(report.wall_s > 0.0, "cluster wall clock must be measured");
        assert!(report.sim_ns_per_wall_s() > 0.0);
        for s in &report.shards {
            assert_eq!(s.replicas.len(), 1);
            // Each device measures its own rounds, inside the cluster's run.
            let replica_wall = s.replicas[0].report.wall_s;
            assert!(replica_wall > 0.0 && replica_wall <= report.wall_s);
        }
    }

    #[test]
    fn malformed_queries_are_rejected_without_disturbing_valid_traffic() {
        let (config, base, queries) = fixture(400, 8);
        let run = |malformed: bool| {
            let plan = ShardPlan::partition(base.len(), 4, ShardPolicy::Hash, 11);
            let mut cluster =
                ClusterEngine::stage(&config, ServeConfig::default(), plan, &base, vamana_builder);
            let mut valid = Vec::new();
            for (i, (_, q)) in queries.iter().enumerate() {
                let at = i as Nanos * 500;
                valid.push(cluster.submit(ClusterQueryRequest::at(at, q.to_vec())));
                if malformed {
                    let short = q[1..].to_vec();
                    let nan = vec![f32::NAN; q.len()];
                    cluster.submit(ClusterQueryRequest::at(at + 100, short));
                    cluster.submit(ClusterQueryRequest::at(at + 200, nan));
                    cluster.submit(ClusterQueryRequest::at(at + 300, q.to_vec()).top_k(0));
                }
            }
            let report = cluster.run_to_completion();
            (valid, report)
        };
        let (valid_ids, want) = run(false);
        let (mixed_ids, got) = run(true);
        assert_eq!(got.rejected(), 3 * queries.len());
        assert_eq!(got.completed(), queries.len());
        for (&w, &g) in valid_ids.iter().zip(&mixed_ids) {
            let mut outcome = got.outcomes[g].clone();
            outcome.id = w;
            assert_eq!(outcome, want.outcomes[w], "valid query {w} changed");
        }
        for o in got
            .outcomes
            .iter()
            .filter(|o| o.state == SessionState::Rejected)
        {
            assert!(o.results.is_empty() && o.hops == 0);
        }
    }

    #[test]
    fn updates_route_to_owning_shards() {
        let (config, base, extra) = fixture(300, 30);
        let plan = ShardPlan::partition(base.len(), 3, ShardPolicy::BalancedSize, 0);
        let mut cluster =
            ClusterEngine::stage(&config, ServeConfig::default(), plan, &base, vamana_builder);
        // Deletes by global id; inserts routed by the balanced policy.
        let d0 = cluster.submit_update(UpdateRequest::delete_at(0, 5));
        let d1 = cluster.submit_update(UpdateRequest::delete_at(0, 250));
        let bad = cluster.submit_update(UpdateRequest::delete_at(0, 9_999));
        let mut ins = Vec::new();
        for (_, v) in extra.iter() {
            ins.push(cluster.submit_update(UpdateRequest::insert_at(10, v.to_vec())));
        }
        let report = cluster.run_to_completion();
        assert_eq!(cluster.poll_update(d0), SessionState::Completed);
        assert_eq!(cluster.poll_update(d1), SessionState::Completed);
        assert_eq!(cluster.poll_update(bad), SessionState::Rejected);
        assert_eq!(report.updates_completed(), 2 + extra.len());
        assert_eq!(report.updates_rejected(), 1);
        // Completed inserts got consecutive global ids in submission
        // order, and the plan now maps them.
        for (i, &u) in ins.iter().enumerate() {
            let o = &report.update_outcomes[u];
            assert_eq!(o.state, SessionState::Completed);
            assert_eq!(o.assigned, Some((300 + i) as VectorId));
            let g = o.assigned.unwrap();
            let s = cluster.plan().shard_of(g);
            assert_eq!(cluster.plan().global_of(s, cluster.plan().local_of(g)), g);
            // The owning shard's deployment actually grew.
            let deploy = cluster.shard_engine(s).unwrap().deployment();
            assert!(deploy.dataset().len() > 100);
        }
        // Balanced routing kept shard sizes within one of each other.
        let sizes: Vec<usize> = (0..3).map(|s| cluster.plan().shard_len(s)).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(hi - lo <= 1, "sizes {sizes:?}");
        // Deletes tombstoned on the owning shard.
        let s5 = cluster.plan().shard_of(5);
        assert!(cluster
            .shard_engine(s5)
            .unwrap()
            .deployment()
            .is_deleted(cluster.plan().local_of(5)));
        // Flash write path charged somewhere.
        assert!(report.update_totals().pages_programmed > 0);
        assert!(report.update_totals().write_amplification() > 0.0);
    }

    #[test]
    fn single_shard_cluster_matches_unsharded_engine() {
        let (config, base, queries) = fixture(300, 6);
        // Unsharded reference.
        let index = Vamana::build(&base, VamanaParams::default());
        let deploy = Deployment::stage(&config, Box::new(index.clone()), base.clone());
        let mut flat = ServeEngine::with_deployment(&config, ServeConfig::default(), deploy);
        for (i, (_, q)) in queries.iter().enumerate() {
            flat.submit(QueryRequest::at(
                i as Nanos * 1_000,
                q.to_vec(),
                vec![index.medoid()],
            ));
        }
        let flat_report = flat.run_to_completion();

        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let mut cluster =
            ClusterEngine::stage(&config, ServeConfig::default(), plan, &base, vamana_builder);
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(ClusterQueryRequest::at(i as Nanos * 1_000, q.to_vec()));
        }
        let report = cluster.run_to_completion();
        // One shard holding everything is the unsharded engine: same
        // results, same timing.
        for (c, f) in report.outcomes.iter().zip(&flat_report.outcomes) {
            assert_eq!(c.results, f.results);
            assert_eq!(c.completed_ns, f.completed_ns);
        }
    }

    #[test]
    fn out_of_order_arrivals_keep_global_ids_consistent() {
        // Shards apply updates in *arrival* order; the cluster assigns
        // global ids in *submission* order. A later-submitted insert
        // with an earlier arrival therefore lands in an earlier local
        // slot — the plan must bind each global id to the slot that
        // actually holds that insert's vector.
        let (config, base, extra) = fixture(200, 4);
        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let mut cluster =
            ClusterEngine::stage(&config, ServeConfig::default(), plan, &base, vamana_builder);
        let va = extra.vector(0).to_vec();
        let vb = extra.vector(1).to_vec();
        let a = cluster.submit_update(UpdateRequest::insert_at(1_000_000, va.clone()));
        let b = cluster.submit_update(UpdateRequest::insert_at(0, vb.clone()));
        let report = cluster.run_to_completion();
        assert_eq!(report.updates_completed(), 2);
        let (ga, gb) = (
            report.update_outcomes[a].assigned.unwrap(),
            report.update_outcomes[b].assigned.unwrap(),
        );
        assert_eq!((ga, gb), (200, 201), "dense global ids, submission order");
        let dataset = cluster.shard_engine(0).unwrap().deployment().dataset();
        let plan = cluster.plan();
        assert_eq!(
            dataset.vector(plan.local_of(ga)),
            &va[..],
            "global id A dereferences B's vector"
        );
        assert_eq!(dataset.vector(plan.local_of(gb)), &vb[..]);
    }

    #[test]
    fn hash_routing_survives_empty_shards() {
        // 12 vectors over 8 hash shards leaves some shards empty; insert
        // routing must probe past them instead of rejecting forever.
        let (config, _, extra) = fixture(200, 40);
        let small = {
            let mut ds = Dataset::new(extra.dim());
            ds.set_stored_vector_bytes(extra.stored_vector_bytes());
            for (_, v) in extra.iter().take(12) {
                ds.try_push(v).unwrap();
            }
            ds
        };
        let plan = ShardPlan::partition(small.len(), 8, ShardPolicy::Hash, 3);
        assert!(
            (0..8).any(|s| plan.shard_len(s) == 0),
            "fixture should leave at least one shard empty"
        );
        let mut cluster = ClusterEngine::stage(
            &config,
            ServeConfig::default(),
            plan,
            &small,
            vamana_builder,
        );
        for (_, v) in extra.iter() {
            cluster.submit_update(UpdateRequest::insert_at(0, v.to_vec()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.updates_completed(), 40, "inserts livelocked");
        assert_eq!(report.updates_rejected(), 0);
        assert_eq!(cluster.plan().len(), 52);
    }

    #[test]
    fn deadline_expiry_and_mixed_states_merge() {
        let (config, base, queries) = fixture(250, 1);
        let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
        let mut cluster =
            ClusterEngine::stage(&config, ServeConfig::default(), plan, &base, vamana_builder);
        let mut req = ClusterQueryRequest::at(0, queries.vector(0).to_vec());
        req.deadline_ns = Some(1);
        let id = cluster.submit(req);
        let report = cluster.run_to_completion();
        assert_eq!(report.outcomes[id].state, SessionState::Expired);
        assert_eq!(report.expired(), 1);
    }

    #[test]
    fn replicated_cluster_matches_single_replica_results() {
        // Replicas are deterministic twins, so a no-failure replicated
        // cluster returns element-identical results under every policy —
        // only timing shifts with the load split.
        let (config, base, queries) = fixture(300, 8);
        let reference = {
            let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
            let mut cluster =
                ClusterEngine::stage(&config, ServeConfig::default(), plan, &base, vamana_builder);
            for (i, (_, q)) in queries.iter().enumerate() {
                cluster.submit(ClusterQueryRequest::at(i as Nanos * 2_000, q.to_vec()));
            }
            cluster.run_to_completion()
        };
        for policy in [
            ReplicaPolicy::RoundRobin,
            ReplicaPolicy::LeastLoaded,
            ReplicaPolicy::Hedged { delay_ns: 50_000 },
        ] {
            let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
            let replication = ReplicationConfig::replicated(2).with_policy(policy);
            let mut cluster = ClusterEngine::stage_replicated(
                &config,
                ServeConfig::default(),
                plan,
                replication,
                &base,
                vamana_builder,
            );
            for (i, (_, q)) in queries.iter().enumerate() {
                cluster.submit(ClusterQueryRequest::at(i as Nanos * 2_000, q.to_vec()));
            }
            let report = cluster.run_to_completion();
            assert_eq!(report.completed(), 8, "{policy:?}");
            for (r, f) in report.outcomes.iter().zip(&reference.outcomes) {
                assert_eq!(r.results, f.results, "{policy:?} diverged from R=1");
            }
            assert_eq!(report.availability(), 1.0);
            assert_eq!(report.failovers(), 0);
        }
    }

    #[test]
    fn round_robin_spreads_sessions_across_replicas() {
        let (config, base, queries) = fixture(250, 8);
        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let mut cluster = ClusterEngine::stage_replicated(
            &config,
            ServeConfig::default(),
            plan,
            ReplicationConfig::replicated(2),
            &base,
            vamana_builder,
        );
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(ClusterQueryRequest::at(i as Nanos * 2_000, q.to_vec()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 8);
        let shard = &report.shards[0];
        assert_eq!(shard.replicas.len(), 2);
        for r in &shard.replicas {
            assert_eq!(
                r.report.outcomes.len(),
                4,
                "round robin must split 8 evenly"
            );
            assert!(r.hops > 0);
        }
    }

    #[test]
    fn least_loaded_balances_outstanding_sessions() {
        let (config, base, queries) = fixture(250, 9);
        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let replication = ReplicationConfig::replicated(3).with_policy(ReplicaPolicy::LeastLoaded);
        let mut cluster = ClusterEngine::stage_replicated(
            &config,
            ServeConfig::default(),
            plan,
            replication,
            &base,
            vamana_builder,
        );
        for (_, q) in queries.iter() {
            cluster.submit(ClusterQueryRequest::at(0, q.to_vec()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 9);
        for r in &report.shards[0].replicas {
            assert_eq!(
                r.report.outcomes.len(),
                3,
                "outstanding counts must balance"
            );
        }
    }

    #[test]
    fn kill_fails_over_inflight_sessions_to_survivor() {
        let (config, base, queries) = fixture(300, 10);
        let make = |base: &Dataset| {
            let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
            let replication = ReplicationConfig::replicated(2)
                .with_failures(FailureSchedule::new().kill(1, 0, 0));
            ClusterEngine::stage_replicated(
                &config,
                ServeConfig::default(),
                plan,
                replication,
                base,
                vamana_builder,
            )
        };
        let run = |mut cluster: ClusterEngine| {
            for (i, (_, q)) in queries.iter().enumerate() {
                cluster.submit(ClusterQueryRequest::at(i as Nanos * 1_000, q.to_vec()));
            }
            cluster.run_to_completion()
        };
        let report = run(make(&base));
        // The kill fires at the first round boundary: every session the
        // dead replica had was re-seeded and the whole stream completed.
        assert_eq!(report.completed(), 10, "failover lost sessions");
        assert!(report.failovers() > 0, "kill must trigger failovers");
        let s0 = &report.shards[0];
        assert!(!s0.replicas[0].alive);
        assert_eq!(s0.replicas[0].killed_ns, Some(1));
        assert!(s0.replicas[1].alive);
        assert!(s0.availability < 1.0 && s0.availability > 0.0);
        assert_eq!(report.shards[1].availability, 1.0);
        assert!(report.availability() > 0.0 && report.availability() <= 1.0);
        // Bit-identical reruns, failure schedule included.
        assert_eq!(
            report,
            run(make(&base)),
            "failover run must be deterministic"
        );
    }

    #[test]
    fn whole_shard_outage_freezes_its_sessions() {
        let (config, base, queries) = fixture(300, 4);
        let plan = ShardPlan::partition(base.len(), 2, ShardPolicy::BalancedSize, 0);
        let replication = ReplicationConfig::replicated(2)
            .with_failures(FailureSchedule::new().kill(1, 0, 0).kill(1, 0, 1));
        let mut cluster = ClusterEngine::stage_replicated(
            &config,
            ServeConfig::default(),
            plan,
            replication,
            &base,
            vamana_builder,
        );
        for (_, q) in queries.iter() {
            cluster.submit(ClusterQueryRequest::at(0, q.to_vec()));
        }
        // Must terminate (dead devices stop stepping) without completing
        // any cluster query: shard 0 can never answer.
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 0);
        for o in &report.outcomes {
            assert!(!is_terminal(o.state), "outage must leave queries pending");
        }
        assert!(report.shards[0].availability < 1.0);
        // New submissions skip the dead shard entirely (and keep the
        // cluster outcome non-terminal rather than panicking).
        let id = cluster.submit(ClusterQueryRequest::at(0, queries.vector(0).to_vec()));
        assert!(!is_terminal(cluster.poll(id)));
    }

    #[test]
    fn hedged_routing_duplicates_slow_sessions_and_wins() {
        let (config, base, queries) = fixture(300, 10);
        // Replica 0 of the only shard is hit by an ECC storm before it
        // serves anything; hedges fired on the healthy replica 1 should
        // win their races.
        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let replication = ReplicationConfig::replicated(2)
            .with_policy(ReplicaPolicy::Hedged { delay_ns: 100_000 })
            .with_failures(FailureSchedule::new().ecc_storm(0, 0, 0, 0.95));
        let mut cluster = ClusterEngine::stage_replicated(
            &config,
            ServeConfig::default(),
            plan,
            replication,
            &base,
            vamana_builder,
        );
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(ClusterQueryRequest::at(i as Nanos * 1_000, q.to_vec()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 10);
        assert!(report.hedges() > 0, "storm must trigger hedges");
        assert!(report.hedge_wins() > 0, "healthy replica must win races");
        assert!(report.hedge_win_rate() > 0.0 && report.hedge_win_rate() <= 1.0);
        assert_eq!(report.shards[0].hedge_wins, report.hedge_wins());
        // The storm replica actually paid soft-decode penalties.
        let stormed = &report.shards[0].replicas[0].report;
        assert!(stormed.stats.ecc_soft_fallbacks > 0);
    }

    #[test]
    fn wear_out_event_degrades_the_device() {
        let (config, base, queries) = fixture(250, 6);
        let plan = ShardPlan::partition(base.len(), 1, ShardPolicy::BalancedSize, 0);
        let replication = ReplicationConfig::replicated(2)
            .with_failures(FailureSchedule::new().wear_out(0, 0, 0, 20_000));
        let mut cluster = ClusterEngine::stage_replicated(
            &config,
            ServeConfig::default(),
            plan,
            replication,
            &base,
            vamana_builder,
        );
        for (i, (_, q)) in queries.iter().enumerate() {
            cluster.submit(ClusterQueryRequest::at(i as Nanos * 1_000, q.to_vec()));
        }
        let report = cluster.run_to_completion();
        assert_eq!(report.completed(), 6);
        let worn = cluster.replica_engine(0, 0).unwrap();
        let fresh = cluster.replica_engine(0, 1).unwrap();
        assert!(
            worn.ecc_failure_prob() > fresh.ecc_failure_prob(),
            "wear-out must raise the failure probability ({} vs {})",
            worn.ecc_failure_prob(),
            fresh.ecc_failure_prob()
        );
        assert!(worn.deployment().wear().max_wear_ratio() >= 2.0);
    }
}
