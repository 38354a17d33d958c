//! # NDSEARCH — a reproduction of the ISCA'24 near-data ANNS accelerator
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`vector`] | `ndsearch-vector` | vectors, distances, synthetic datasets, recall |
//! | [`flash`] | `ndsearch-flash` | NAND flash simulator: geometry, commands, timing, FTL, ECC |
//! | [`graph`] | `ndsearch-graph` | CSR, LUNCSR, reordering, multi-plane placement |
//! | [`anns`] | `ndsearch-anns` | HNSW, DiskANN/Vamana, HCNNG, TOGG, bitonic sort, traces |
//! | [`core`] | `ndsearch-core` | SearSSD engine: Vgenerator, Allocator, SiN, scheduling, energy |
//! | [`baselines`] | `ndsearch-baselines` | CPU, CPU-T, GPU, SmartSSD, DeepStore models |
//!
//! ## Quickstart
//!
//! ```
//! use ndsearch::anns::hnsw::{Hnsw, HnswParams};
//! use ndsearch::anns::index::{GraphAnnsIndex, SearchParams};
//! use ndsearch::core::{config::NdsConfig, engine::NdsEngine, pipeline::Prepared};
//! use ndsearch::vector::synthetic::DatasetSpec;
//!
//! // 1. Build a dataset and an ANNS graph, and record search traces.
//! let (base, queries) = DatasetSpec::sift_scaled(500, 16).build_pair();
//! let index = Hnsw::build(&base, HnswParams::default());
//! let out = index.search_batch(&base, &queries, &SearchParams::default());
//!
//! // 2. Stage it on the simulated SearSSD and run the NDP engine.
//! let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
//! let prepared = Prepared::stage(&config, index.base_graph(), &base, &out.trace);
//! let report = NdsEngine::new(&config).run(&prepared);
//! println!("QPS = {:.0}", report.qps());
//! # assert!(report.qps() > 0.0);
//! ```
//!
//! ## Serving concurrent queries
//!
//! The batch engine above replays one recorded trace to completion. The
//! serving layer ([`serve`], re-exported from `ndsearch-core`) instead
//! accepts an open stream of query sessions — submit/poll/complete with
//! per-query deadlines, admission and backpressure — and interleaves one
//! beam-search hop from every in-flight query across the flash channels
//! each scheduling round, reporting QPS and p50/p99 latency. See
//! `examples/serving_concurrent.rs` and the `serve_sweep` bench binary.
//!
//! ## Compressed-vector search (codes in DRAM + exact flash rerank)
//!
//! Setting [`core::config::NdsConfig::quantization`] to a
//! [`vector::quant::QuantSpec`] (`Int8` or `Pq { m, bits }`) switches
//! serving to the DiskANN recipe: the deployment trains a
//! [`vector::quant::QuantCodes`] table at staging, beam traversal
//! scores the DRAM-resident codes through the [`vector::quant::ScoreSource`]
//! seam (no NAND access per hop), and only the final
//! `ServeConfig::rerank_depth` candidates pay modeled flash page reads
//! for exact full-precision distances, charged to the dedicated
//! `rerank_ns` latency bucket. Inserts encode through the same trained
//! quantizer, compaction re-packs the table, the QPT DRAM budget admits
//! more residents (records shrink to code bytes), and quantized runs
//! replay bit-identically under any shard order. Opt out
//! at runtime with `NDSEARCH_NO_QUANT=1`. See the "Compressed-vector
//! search & exact rerank" section of `docs/ARCHITECTURE.md` and the
//! `quant_sweep` bench binary.
//!
//! ```
//! use ndsearch::anns::index::GraphAnnsIndex;
//! use ndsearch::anns::vamana::{Vamana, VamanaParams};
//! use ndsearch::core::config::NdsConfig;
//! use ndsearch::core::deploy::Deployment;
//! use ndsearch::core::serve::{QueryRequest, ServeConfig, ServeEngine};
//! use ndsearch::vector::synthetic::DatasetSpec;
//! use ndsearch::vector::QuantSpec;
//!
//! let (base, queries) = DatasetSpec::sift_scaled(300, 4).build_pair();
//! let index = Vamana::build(&base, VamanaParams::default());
//! let medoid = index.medoid();
//! let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
//! config.quantization = QuantSpec::Int8; // 1 byte/dim codes in DRAM
//! let serve = ServeConfig { rerank_depth: 24, ..ServeConfig::default() };
//! let deploy = Deployment::stage(&config, Box::new(index), base);
//! let mut engine = ServeEngine::with_deployment(&config, serve, deploy);
//! for (_, q) in queries.iter() {
//!     engine.submit(QueryRequest::at(0, q.to_vec(), vec![medoid]));
//! }
//! let report = engine.run_to_completion();
//! assert_eq!(report.completed(), queries.len());
//! # assert!(report.breakdown.rerank_ns > 0);
//! # assert_eq!(report.breakdown.nand_read_ns, 0);
//! ```
//!
//! ## Sharded multi-device serving
//!
//! The cluster tier (`core::cluster`, with the
//! [`vector::shard::ShardPlan`] partitioner) scales serving out across
//! many simulated devices: per-shard deployments (own index, LUNCSR
//! staging and flash device), queries scattered to every shard and
//! stepped in shard order, per-shard top-k gathered by a deterministic
//! `(distance, global id)` merge, and updates routed to their owning
//! shard. See the "Sharded serving" section of `docs/ARCHITECTURE.md`
//! and the `cluster_sweep` bench binary.
//!
//! ## Replication & failover
//!
//! A `core::cluster::ReplicationConfig` turns each shard into a replica
//! set of deterministic device twins: queries route per shard by
//! round-robin, least-loaded or hedged policy (backup session after a
//! delay, earlier completion wins), a `FailureSchedule` kills, storms or
//! wears out replicas mid-run from their *simulated* clocks, in-flight
//! sessions fail over to the surviving twin, and updates fan out to all
//! alive replicas. Degraded runs replay bit-identically. See the
//! "Replication & failover" section of `docs/ARCHITECTURE.md` and the
//! `replica_sweep` bench binary.
//!
//! ## Traffic scenarios & SLO scheduling
//!
//! `core::traffic` generates deterministic production-day workloads: a
//! seeded [`core::traffic::Scenario`] composes an arrival model
//! (closed-loop, Poisson, bursty spike windows or a diurnal profile)
//! with a query mix (Zipfian hotspots, multi-tenant streams carrying
//! per-tenant rate/deadline/top-k profiles and an update fraction) into
//! a replayable trace for any engine tier. On the serving side,
//! [`serve::SloPolicy`] makes the scheduler deadline-aware: `ShedDoomed`
//! evicts sessions whose estimated finish misses their deadline instead
//! of letting them burn capacity, and `TenantFair` bounds each tenant's
//! in-flight share; reports roll up per-tenant latency summaries, SLO
//! attainment, shed counts and a max/mean p99 fairness ratio. The same
//! seed replays a whole day — churn, compaction, a load spike, a replica
//! kill — bit-identically. See the "Traffic
//! scenarios & SLO scheduling" section of `docs/ARCHITECTURE.md` and the
//! `scenario_sweep` bench binary.
//!
//! ```
//! use ndsearch::core::traffic::{ArrivalModel, QueryMix, Scenario, TenantProfile};
//!
//! let scenario = Scenario {
//!     arrivals: ArrivalModel::Poisson { rate_qps: 10_000.0 },
//!     mix: QueryMix {
//!         zipf_theta: 0.99,
//!         delete_fraction: 0.3,
//!         tenants: vec![
//!             TenantProfile::new(0).weight(3.0).deadline_ns(500_000),
//!             TenantProfile::new(1).update_fraction(0.2),
//!         ],
//!     },
//!     events: 100,
//!     start_ns: 0,
//!     seed: 7,
//! };
//! let trace = scenario.generate(32, 16, 0..64);
//! assert_eq!(trace.len(), 100);
//! # assert!(trace.queries() + trace.updates() == 100);
//! ```
//!
//! See `examples/` for full scenarios and `crates/bench` for the binaries
//! that regenerate every table and figure of the paper.

pub use ndsearch_anns as anns;
pub use ndsearch_baselines as baselines;
pub use ndsearch_core as core;
pub use ndsearch_core::serve;
pub use ndsearch_flash as flash;
pub use ndsearch_graph as graph;
pub use ndsearch_vector as vector;
