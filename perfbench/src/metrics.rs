//! Every metric the benchmark prints, with its unit, and the helpers
//! that turn the device model's reports into them. The names here must
//! match `BENCHMARK.json` (checked by `tests/names.rs`).

use ndsearch_core::report::LatencyBreakdown;
use ndsearch_flash::stats::FlashStats;

use crate::harness::Outcome;

/// End-to-end metrics (the `--trace 0` result).
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_qps", "queries/s"),
    ("sim_p50_us", "us"),
    ("sim_p99_us", "us"),
    ("recall_at_10", "fraction"),
    ("setup_s", "s"),
    ("host_run_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (the `--trace 1` result). A metric a workload does
/// not exercise reads 0; `perfbench/README.md` maps each one to the
/// end-to-end metric and workload it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim_latency_samples", "count"),
    ("sim_update_p99_us", "us"),
    ("failed_frac", "fraction"),
    ("trace.overhead_s", "s"),
    ("host.run_raw_s", "s"),
    ("host.reference_ms", "ms"),
    ("layer.vector.self_s", "s"),
    ("layer.anns.self_s", "s"),
    ("layer.core.self_s", "s"),
    ("layer.baselines.self_s", "s"),
    ("vector.gen_s", "s"),
    ("vector.ns_per_distance", "ns"),
    ("anns.build_s", "s"),
    ("anns.build_us_per_point", "us"),
    ("anns.trace_s", "s"),
    ("anns.hops_per_query", "count"),
    ("core.stage_s", "s"),
    ("graph.page_access_ratio", "ratio"),
    ("core.engine.host_us_per_query", "us"),
    ("core.engine.iterations", "count"),
    ("core.engine.sub_batches", "count"),
    ("core.speculative.hit_ratio", "fraction"),
    ("core.serve.round_us_p50", "us"),
    ("core.serve.round_us_p99", "us"),
    ("core.serve.rounds", "count"),
    ("core.serve.host_ns_per_hop", "ns"),
    ("core.serve.queue_wait_p99_us", "us"),
    ("core.serve.peak_inflight", "count"),
    ("core.serve.backlog_ms", "ms"),
    ("core.cluster.host_us_per_event", "us"),
    ("core.cluster.load_imbalance", "ratio"),
    ("core.cluster.straggler_ratio", "ratio"),
    ("core.deploy.repaired_per_insert", "count"),
    ("core.deploy.pages_programmed", "count"),
    ("flash.write_amp", "ratio"),
    ("flash.page_reads", "count"),
    ("flash.page_buffer_hit_ratio", "fraction"),
    ("flash.distance_evals", "count"),
    ("flash.ecc_soft_fallbacks", "count"),
    ("flash.bus_bytes", "bytes"),
    ("flash.pcie_bytes", "bytes"),
    ("flash.block_erases", "count"),
    ("sim.nand_read_ms", "ms"),
    ("sim.ecc_ms", "ms"),
    ("sim.compute_ms", "ms"),
    ("sim.dram_ms", "ms"),
    ("sim.embedded_ms", "ms"),
    ("sim.allocating_ms", "ms"),
    ("sim.bus_ms", "ms"),
    ("sim.bitonic_ms", "ms"),
    ("sim.pcie_ms", "ms"),
    ("sim.program_ms", "ms"),
    ("sim.rerank_ms", "ms"),
    ("sim.ledger_over_makespan", "ratio"),
    ("baselines.cpu_ms", "ms"),
    ("baselines.gpu_ms", "ms"),
    ("baselines.smartssd_ms", "ms"),
    ("baselines.deepstore_c_ms", "ms"),
    ("baselines.deepstore_cp_ms", "ms"),
    ("baselines.speedup_vs_cpu", "x"),
    ("baselines.speedup_vs_gpu", "x"),
    ("baselines.speedup_vs_smartssd", "x"),
    ("baselines.speedup_vs_deepstore_c", "x"),
    ("baselines.speedup_vs_deepstore_cp", "x"),
];

/// Simulated latency of a query that was rejected or expired: it counts
/// as infinitely late, printed as this many µs (JSON has no infinity).
pub const INFINITELY_LATE_US: f64 = 1e300;

/// Records `sim_p50_us`, `sim_p99_us` and the sample count from
/// per-query simulated latencies (ns); `None` marks a query that did
/// not complete.
pub fn set_latency(out: &mut Outcome, latencies_ns: &[Option<u64>]) {
    let us: Vec<f64> = latencies_ns
        .iter()
        .map(|l| l.map_or(INFINITELY_LATE_US, |ns| ns as f64 / 1e3))
        .collect();
    out.set("sim_p50_us", crate::harness::percentile(&us, 50.0));
    out.set("sim_p99_us", crate::harness::percentile(&us, 99.0));
    out.set("sim_latency_samples", us.len() as f64);
}

/// Records the flash counters.
pub fn set_flash(out: &mut Outcome, s: &FlashStats) {
    out.set("flash.page_reads", s.page_reads as f64);
    let loads = s.page_reads + s.page_buffer_hits;
    out.set(
        "flash.page_buffer_hit_ratio",
        if loads == 0 {
            0.0
        } else {
            s.page_buffer_hits as f64 / loads as f64
        },
    );
    out.set("flash.distance_evals", s.distance_evals as f64);
    out.set("flash.ecc_soft_fallbacks", s.ecc_soft_fallbacks as f64);
    out.set("flash.bus_bytes", s.bus_bytes as f64);
    out.set("flash.pcie_bytes", s.pcie_bytes as f64);
    out.set("flash.block_erases", s.block_erases as f64);
}

/// Records the latency-breakdown buckets (ms) and the ledger ratio: the
/// sum of the buckets over the makespan.
pub fn set_breakdown(out: &mut Outcome, b: &LatencyBreakdown, makespan_ns: u64) {
    let ms = |ns: u64| ns as f64 / 1e6;
    out.set("sim.nand_read_ms", ms(b.nand_read_ns));
    out.set("sim.ecc_ms", ms(b.ecc_ns));
    out.set("sim.compute_ms", ms(b.compute_ns));
    out.set("sim.dram_ms", ms(b.dram_ns));
    out.set("sim.embedded_ms", ms(b.embedded_ns));
    out.set("sim.allocating_ms", ms(b.allocating_ns));
    out.set("sim.bus_ms", ms(b.bus_ns));
    out.set("sim.bitonic_ms", ms(b.bitonic_ns));
    out.set("sim.pcie_ms", ms(b.pcie_ns));
    out.set("sim.program_ms", ms(b.program_ns));
    out.set("sim.rerank_ms", ms(b.rerank_ns));
    out.set(
        "sim.ledger_over_makespan",
        b.total_ns() as f64 / makespan_ns.max(1) as f64,
    );
}

/// Records the recall gate shared by the workloads that have one.
pub fn check_recall(out: &mut Outcome, recall: f64) {
    out.set("recall_at_10", recall);
    out.check(
        "recall_gate",
        recall >= RECALL_GATE,
        format!("recall@10 {recall:.4} >= {RECALL_GATE}"),
    );
}

/// The repository's recall gate.
pub const RECALL_GATE: f64 = 0.85;
