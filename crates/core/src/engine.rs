//! The NDP processing model of Algorithm 1, executed event-synchronously.
//!
//! Each engine round is one search iteration for every still-active query
//! in the batch:
//!
//! 1. **Allocating** — the Vgenerator fetches each active query's entry
//!    vertex neighbor/LUN lists, and the Allocator dispatches (query,
//!    neighbor) pairs per LUN with direct LUNCSR address generation. With
//!    dynamic scheduling enabled, this stage is overlapped with the
//!    previous round's Searching + Gathering (Fig. 12), so only its
//!    *overhang* lands on the critical path.
//! 2. **Searching** — every LUN accelerator processes its work in parallel
//!    ([`crate::sin::process_lun_work`]); the round's searching latency is
//!    the slowest LUN plus the busiest channel's data-out serialization.
//!    With speculative searching on, the prefetched second-order neighbors
//!    of the previous round have already been computed off the critical
//!    path, shrinking this round's work (hits) at the price of extra page
//!    accesses (misses).
//! 3. **Gathering** — the Apply operator updates the query property table
//!    (embedded cores + DRAM traffic).
//! 4. **Sorting** — once every query terminates, result lists stream over
//!    the private PCIe ×4 link to the FPGA bitonic sorter and top-k goes
//!    back to the host.

use std::collections::HashSet;

use ndsearch_anns::bitonic::BitonicStats;
use ndsearch_anns::trace::QueryTrace;
use ndsearch_flash::ecc::EccEngine;
use ndsearch_flash::stats::FlashStats;
use ndsearch_flash::timing::Nanos;
use ndsearch_graph::luncsr::LunCsr;
use ndsearch_vector::VectorId;

use crate::alloc::{Allocator, LunWork};
use crate::config::NdsConfig;
use crate::pipeline::Prepared;
use crate::qpt::QueryPropertyTable;
use crate::report::{LatencyBreakdown, NdsReport};
use crate::sin::{process_lun_work, LunOutcome};
use crate::speculative::{select_prefetch, SpeculationStats};
use crate::vgen::Vgenerator;

/// The engine-wide mutable accumulators one round commits into — per-LUN
/// outcome deltas merge into these, in stable LUN order, once every unit
/// of the round has been evaluated.
pub(crate) struct RoundSinks<'a> {
    /// Engine-wide ECC state (failure-stream cursors advance per round).
    pub ecc: &'a mut EccEngine,
    /// Engine-wide flash statistics.
    pub stats: &'a mut FlashStats,
    /// Distinct LUNs touched so far (LUN-coverage reporting).
    pub luns_touched: &'a mut HashSet<u32>,
}

/// Evaluates a round's per-LUN work units against the round-start ECC
/// state, returning outcomes in stable LUN order.
fn run_lun_units(
    config: &NdsConfig,
    luncsr: &LunCsr,
    ecc: &EccEngine,
    work: &[LunWork],
) -> Vec<LunOutcome> {
    work.iter()
        .map(|w| process_lun_work(w, luncsr, config, ecc))
        .collect()
}

/// Latency contributions of one Allocating → Searching → Gathering round.
///
/// `allocating_ns` is the *raw* stage latency; whether it lands on the
/// critical path (or is hidden behind the previous round's shadow under
/// dynamic allocating) is the caller's decision, because the batch engine
/// and the serving scheduler overlap rounds differently.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundOutcome {
    /// Vgenerator + Allocator latency (pre-overlap).
    pub allocating_ns: Nanos,
    /// Slowest LUN busy time + busiest channel data-out.
    pub searching_ns: Nanos,
    /// QPT update traffic + embedded-core bookkeeping.
    pub gathering_ns: Nanos,
    /// Busiest channel data-out (the `bus` breakdown bucket).
    pub bus_ns: Nanos,
    /// Gathering DRAM traffic.
    pub dram_ns: Nanos,
    /// Gathering embedded-core time.
    pub embedded_ns: Nanos,
    /// Slowest LUN: NAND sensing.
    pub nand_read_ns: Nanos,
    /// Slowest LUN: ECC decode.
    pub ecc_ns: Nanos,
    /// Slowest LUN: page-buffer streaming + MAC compute.
    pub compute_ns: Nanos,
    /// Global plane of every dispatched task, concatenated in stable LUN
    /// order (the engine's refresh path replays these through the FTL).
    pub touched_planes: Vec<u32>,
}

impl RoundOutcome {
    /// Folds this round into the latency breakdown and the
    /// dynamic-allocating shadow, returning the round's critical-path
    /// time. With `overlap` set, the Allocating stage hides behind the
    /// previous round's Searching+Gathering shadow (§VI-B1) and only its
    /// overhang lands on the path; `prev_shadow` is updated to this
    /// round's shadow either way.
    pub fn apply(
        &self,
        breakdown: &mut LatencyBreakdown,
        prev_shadow: &mut Nanos,
        overlap: bool,
    ) -> Nanos {
        let alloc_on_path = if overlap {
            self.allocating_ns.saturating_sub(*prev_shadow)
        } else {
            self.allocating_ns
        };
        *prev_shadow = self.searching_ns + self.gathering_ns;
        breakdown.allocating_ns += alloc_on_path;
        breakdown.bus_ns += self.bus_ns;
        breakdown.dram_ns += self.dram_ns;
        breakdown.embedded_ns += self.embedded_ns;
        // Decompose the slowest LUN's busy time.
        breakdown.nand_read_ns += self.nand_read_ns;
        breakdown.ecc_ns += self.ecc_ns;
        breakdown.compute_ns += self.compute_ns;
        alloc_on_path + self.searching_ns + self.gathering_ns
    }
}

/// Executes one engine round — the Allocating, Searching and Gathering
/// stages of Algorithm 1 — for `entries` = (query slot, entry vertex,
/// unvisited neighbors), against the staged LUNCSR.
///
/// This is the hot path shared by the run-to-completion batch engine
/// ([`NdsEngine`]) and the interleaved multi-query scheduler
/// ([`crate::serve::ServeEngine`]). The Searching stage evaluates every
/// per-LUN work unit — a pure function of the round-start state — then
/// folds the outcomes back in stable LUN order.
pub(crate) fn execute_round(
    config: &NdsConfig,
    luncsr: &LunCsr,
    qpt: &QueryPropertyTable,
    entries: &[(u32, VectorId, &[VectorId])],
    sinks: RoundSinks<'_>,
) -> RoundOutcome {
    let timing = &config.timing;

    // ---- Allocating stage. ----
    let vgen_out = Vgenerator.run(luncsr, timing, entries);
    let alloc_out = Allocator.dispatch(luncsr, timing, &vgen_out.triples, false);
    let allocating_ns = vgen_out.latency_ns + alloc_out.latency_ns;

    // ---- Searching stage: all LUN accelerators in parallel on the
    // simulated clock; each work unit reads only the round-start state. ----
    let outcomes = run_lun_units(config, luncsr, sinks.ecc, &alloc_out.work);

    // ---- Merge in stable LUN order (determinism: every reduction sees
    // the same operand sequence on every run). ----
    let channels = config.geometry.channels as usize;
    let mut channel_out: Vec<Nanos> = vec![0; channels];
    let mut max_busy: Nanos = 0;
    let mut max_busy_rep = crate::sin::SinReport::default();
    let mut touched_planes = Vec::new();
    for out in outcomes {
        sinks.luns_touched.insert(out.lun);
        sinks.ecc.apply(&out.ecc);
        sinks.stats.merge(&out.stats);
        touched_planes.extend_from_slice(&out.touched_planes);
        let rep = out.report;
        let ch = config.geometry.lun_channel(out.lun) as usize;
        channel_out[ch] +=
            timing.channel_transfer_ns(rep.result_bytes) + rep.sense_ops * timing.t_command_ns;
        if rep.busy_ns > max_busy {
            max_busy = rep.busy_ns;
            max_busy_rep = rep;
        }
    }
    let max_channel = channel_out.iter().copied().max().unwrap_or(0);
    let searching_ns = max_busy + max_channel;

    // ---- Gathering stage. ----
    let active = entries.len();
    let new_distances: u64 = entries.iter().map(|(_, _, v)| v.len() as u64).sum();
    let g_dram = timing.dram_transfer_ns(qpt.gather_traffic_bytes(active, new_distances));
    let g_emb = active as u64 * timing.t_embedded_op_ns;

    RoundOutcome {
        allocating_ns,
        searching_ns,
        gathering_ns: g_dram + g_emb,
        bus_ns: max_channel,
        dram_ns: g_dram,
        embedded_ns: g_emb,
        nand_read_ns: max_busy_rep.sense_ns,
        ecc_ns: max_busy_rep.ecc_ns,
        compute_ns: max_busy_rep.compute_ns,
        touched_planes,
    }
}

/// Sorting-stage cost for shipping `nq` result lists to the FPGA sorter
/// and the top-k back to the host (§V, shared by the batch engine's batch
/// tail and the serving engine's per-query completion tail).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SortingTail {
    /// Result lists over the private SSD↔FPGA link.
    pub fpga_ns: Nanos,
    /// Bitonic sorting waves on the FPGA.
    pub sort_ns: Nanos,
    /// Top-k back over the host link.
    pub out_ns: Nanos,
    /// PCIe bytes moved (result lists + top-k out).
    pub pcie_bytes: u64,
}

impl SortingTail {
    /// Total tail latency.
    pub fn total_ns(&self) -> Nanos {
        self.fpga_ns + self.sort_ns + self.out_ns
    }
}

/// Computes the Sorting-stage tail for `nq` queries returning `k` results
/// each: result lists cross the FPGA link, sort in
/// `ceil(nq / sorters)` bitonic waves, and `k` (id, distance) pairs per
/// query return over the host link.
pub(crate) fn sorting_tail(config: &NdsConfig, nq: u64, k: usize) -> SortingTail {
    let list_bytes = nq * config.result_list_entries as u64 * u64::from(config.result_entry_bytes);
    let fpga_ns = config.fpga_link.transfer_ns(list_bytes);
    let stages = BitonicStats::stages_for(config.result_list_entries.next_power_of_two());
    let period_ns = (1e9 / config.fpga_clock_hz).ceil() as u64;
    let waves = nq.div_ceil(u64::from(config.fpga_sorters.max(1)));
    let sort_ns = waves * u64::from(stages) * period_ns;
    let out_bytes = nq * k as u64 * 8;
    let out_ns = config.host_link.transfer_ns(out_bytes);
    SortingTail {
        fpga_ns,
        sort_ns,
        out_ns,
        pcie_bytes: list_bytes + out_bytes,
    }
}

/// The NDSEARCH batch engine.
#[derive(Debug, Clone)]
pub struct NdsEngine<'a> {
    config: &'a NdsConfig,
}

impl<'a> NdsEngine<'a> {
    /// Creates an engine over a configuration.
    pub fn new(config: &'a NdsConfig) -> Self {
        Self { config }
    }

    /// Simulates a full batch (splitting into sub-batches when it exceeds
    /// the resource cap, §VII-B "Batch size") and returns the merged
    /// report.
    pub fn run(&self, prepared: &Prepared) -> NdsReport {
        // A zero cap means "no batching resources": clamp once, here, to
        // the smallest legal sub-batch.
        let cap = self.config.max_batch_inflight.max(1);
        let queries = &prepared.trace.queries;
        let mut merged = NdsReport {
            queries: queries.len(),
            ..NdsReport::default()
        };
        let mut luns_touched: HashSet<u32> = HashSet::new();
        let mut sub_batches = 0;
        for chunk in queries.chunks(cap) {
            sub_batches += 1;
            let sub = self.run_sub(prepared, chunk, &mut luns_touched);
            merged.total_ns += sub.total_ns;
            merged.trace_len += sub.trace_len;
            merged.breakdown.merge(&sub.breakdown);
            merged.stats.merge(&sub.stats);
            merged.speculation.hits += sub.speculation.hits;
            merged.speculation.misses += sub.speculation.misses;
            merged.iterations += sub.iterations;
            merged.refreshes += sub.refreshes;
        }
        if queries.is_empty() {
            sub_batches = 0;
        }
        merged.sub_batches = sub_batches;
        merged.lun_coverage =
            luns_touched.len() as f64 / f64::from(self.config.geometry.total_luns());
        merged
    }

    fn run_sub(
        &self,
        prepared: &Prepared,
        traces: &[QueryTrace],
        luns_touched: &mut HashSet<u32>,
    ) -> NdsReport {
        let config = self.config;
        // Online block-level refresh needs a mutable LUNCSR (the FTL
        // rewrites the BLK array mid-run, §II-B2 / Fig. 5b).
        let refresh_on = config.refresh_read_threshold > 0;
        let mut luncsr_owned = refresh_on.then(|| prepared.luncsr.clone());
        let mut ftl = refresh_on.then(|| {
            let mut f = ndsearch_flash::ftl::Ftl::new(config.geometry, config.seed ^ 0xF7);
            f.refresh_read_threshold = config.refresh_read_threshold;
            f
        });
        let timing = &config.timing;
        let nq = traces.len();
        let max_iters = traces.iter().map(|t| t.iterations.len()).max().unwrap_or(0);

        let mut stats = FlashStats::new();
        let mut breakdown = LatencyBreakdown::default();
        let mut speculation = SpeculationStats::default();
        let mut ecc = EccEngine::new(&config.geometry, config.ecc);
        let mut total: Nanos = 0;

        // Host → SSD: query vectors + descriptors over PCIe.
        let in_bytes = nq as u64 * (prepared.vector_bytes as u64 + 16);
        let t_in = config.host_link.transfer_ns(in_bytes);
        stats.pcie_bytes += in_bytes;
        breakdown.pcie_ns += t_in;
        total += t_in;

        let qpt = QueryPropertyTable::new(nq, prepared.vector_bytes, config.result_list_entries);
        let mut prefetched: Vec<HashSet<VectorId>> = vec![HashSet::new(); nq];
        // Per-query visited sets, as the query property table tracks them;
        // the Pref Unit consults these to avoid guaranteed-miss prefetches.
        let mut seen: Vec<HashSet<VectorId>> = vec![HashSet::new(); nq];
        let mut prev_shadow: Nanos = 0; // searching+gathering of previous round

        let mut refreshes = 0u64;
        for r in 0..max_iters {
            let luncsr = luncsr_owned.as_ref().unwrap_or(&prepared.luncsr);
            // ---- Collect this round's work from the traces. ----
            let mut filtered: Vec<(u32, VectorId, Vec<VectorId>)> = Vec::new();
            for (qi, t) in traces.iter().enumerate() {
                let Some(it) = t.iterations.get(r) else {
                    continue;
                };
                let mut visited = Vec::with_capacity(it.visited.len());
                for &v in &it.visited {
                    if config.scheduling.speculative && prefetched[qi].remove(&v) {
                        speculation.hits += 1; // distance already computed
                    } else {
                        visited.push(v);
                    }
                }
                // Anything left prefetched from last round was wasted.
                if config.scheduling.speculative {
                    speculation.misses += prefetched[qi].len() as u64;
                    prefetched[qi].clear();
                    seen[qi].insert(it.entry);
                    seen[qi].extend(it.visited.iter().copied());
                }
                filtered.push((qi as u32, it.entry, visited));
            }
            if filtered.is_empty() {
                continue;
            }

            // ---- Allocating + Searching + Gathering (the shared round
            // executor, also driven per-hop by `crate::serve`). ----
            let entries: Vec<(u32, VectorId, &[VectorId])> = filtered
                .iter()
                .map(|(q, e, v)| (*q, *e, v.as_slice()))
                .collect();

            // ---- Speculative prefetch for the next round (overlapped). ----
            let mut spec_triples: Vec<(u32, VectorId, u32)> = Vec::new();
            if config.scheduling.speculative && r + 1 < max_iters {
                for (qi, t) in traces.iter().enumerate() {
                    if t.iterations.get(r).is_none() || t.iterations.get(r + 1).is_none() {
                        continue;
                    }
                    let entry = t.iterations[r].entry;
                    let budget = (luncsr.neighbors(entry).len() as f64 * config.spec_budget_factor)
                        .round() as usize;
                    let picks = select_prefetch(luncsr, entry, budget, &seen[qi]);
                    for v in picks {
                        prefetched[qi].insert(v);
                        spec_triples.push((qi as u32, v, luncsr.lun_of(v)));
                    }
                }
            }

            let round = execute_round(
                config,
                luncsr,
                &qpt,
                &entries,
                RoundSinks {
                    ecc: &mut ecc,
                    stats: &mut stats,
                    luns_touched,
                },
            );

            // Speculative work executes off the critical path but consumes
            // pages and MACs (visible in the statistics). Its deltas commit
            // after the main round's, so the per-plane ECC streams stay in
            // program order.
            if !spec_triples.is_empty() {
                let spec_alloc = Allocator.dispatch(luncsr, timing, &spec_triples, true);
                let spec_outcomes = run_lun_units(config, luncsr, &ecc, &spec_alloc.work);
                for out in spec_outcomes {
                    luns_touched.insert(out.lun);
                    ecc.apply(&out.ecc);
                    stats.merge(&out.stats);
                }
            }

            // ---- Compose the round's critical path and attribute it to
            // the breakdown buckets. ----
            let overlap = config.scheduling.dynamic_allocating && r > 0;
            total += round.apply(&mut breakdown, &mut prev_shadow, overlap);

            // ---- Online block-level refresh (read disturb). ----
            if let (Some(f), Some(owned)) = (ftl.as_mut(), luncsr_owned.as_mut()) {
                let mut moves = 0u64;
                for &plane in &round.touched_planes {
                    for ev in f.note_read(plane) {
                        owned.apply_refresh(&ev);
                        moves += 1;
                    }
                }
                if moves > 0 {
                    refreshes += moves / 2; // two block moves per swap
                                            // A block move rewrites every page (read + program).
                    let t_move =
                        u64::from(config.geometry.pages_per_block) * 4 * timing.t_read_page_ns;
                    let t = moves * t_move;
                    total += t;
                    breakdown.embedded_ns += t;
                }
            }
        }

        // ---- Sorting stage: SSD → FPGA → host (top-10 returned). ----
        let tail = sorting_tail(config, nq as u64, 10);
        stats.pcie_bytes += tail.pcie_bytes;
        breakdown.bitonic_ns += tail.sort_ns;
        breakdown.pcie_ns += tail.fpga_ns + tail.out_ns;
        total += tail.total_ns();

        NdsReport {
            queries: nq,
            trace_len: traces.iter().map(|t| t.len() as u64).sum(),
            total_ns: total,
            breakdown,
            stats,
            speculation,
            lun_coverage: 0.0, // filled by `run`
            iterations: max_iters,
            sub_batches: 1,
            refreshes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulingConfig;
    use ndsearch_anns::hnsw::{Hnsw, HnswParams};
    use ndsearch_anns::index::{GraphAnnsIndex, SearchParams};
    use ndsearch_anns::trace::BatchTrace;
    use ndsearch_vector::synthetic::DatasetSpec;

    fn fixture() -> (ndsearch_vector::Dataset, ndsearch_graph::Csr, BatchTrace) {
        let (base, queries) = DatasetSpec::sift_scaled(600, 32).build_pair();
        let index = Hnsw::build(&base, HnswParams::default());
        let out = index.search_batch(&base, &queries, &SearchParams::default());
        (base, index.base_graph().clone(), out.trace)
    }

    fn run_with(
        sched: SchedulingConfig,
        base: &ndsearch_vector::Dataset,
        graph: &ndsearch_graph::Csr,
        trace: &BatchTrace,
    ) -> NdsReport {
        let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        config.scheduling = sched;
        config.ecc.hard_decision_failure_prob = 0.0;
        let prepared = Prepared::stage(&config, graph, base, trace);
        NdsEngine::new(&config).run(&prepared)
    }

    #[test]
    fn engine_produces_consistent_report() {
        let (base, graph, trace) = fixture();
        let r = run_with(SchedulingConfig::full(), &base, &graph, &trace);
        assert_eq!(r.queries, 32);
        assert!(r.total_ns > 0);
        assert!(r.qps() > 0.0);
        assert_eq!(r.trace_len, trace.total_visited());
        assert!(r.stats.page_reads > 0);
        assert!(r.iterations > 0);
        assert!(r.lun_coverage > 0.0 && r.lun_coverage <= 1.0);
        // Breakdown accounts for the whole critical path exactly.
        assert_eq!(r.breakdown.total_ns(), r.total_ns);
    }

    #[test]
    fn dynamic_allocating_reduces_page_reads_and_time() {
        // Use the dense `tiny` geometry so planes hold several hot pages
        // and cross-query interleaving actually thrashes the page buffers
        // without dynamic allocating.
        let (base, graph, trace) = fixture();
        let run_tiny = |sched: SchedulingConfig| {
            let mut config = NdsConfig {
                geometry: ndsearch_flash::geometry::FlashGeometry::tiny(),
                scheduling: sched,
                ..NdsConfig::default()
            };
            config.ecc.hard_decision_failure_prob = 0.0;
            let prepared = Prepared::stage(&config, &graph, &base, &trace);
            NdsEngine::new(&config).run(&prepared)
        };
        let mut without = SchedulingConfig::full();
        without.dynamic_allocating = false;
        without.speculative = false;
        let mut with_da = without;
        with_da.dynamic_allocating = true;
        let a = run_tiny(without);
        let b = run_tiny(with_da);
        assert!(
            b.stats.page_reads < a.stats.page_reads,
            "da should dedup page loads: {} vs {}",
            b.stats.page_reads,
            a.stats.page_reads
        );
        assert!(b.total_ns < a.total_ns, "da should be faster");
    }

    #[test]
    fn speculation_adds_page_reads_but_not_latency() {
        let (base, graph, trace) = fixture();
        let mut da_only = SchedulingConfig::full();
        da_only.speculative = false;
        let a = run_with(da_only, &base, &graph, &trace);
        let b = run_with(SchedulingConfig::full(), &base, &graph, &trace);
        assert!(
            b.stats.page_reads > a.stats.page_reads,
            "speculation must cost extra page accesses"
        );
        assert!(b.total_ns <= a.total_ns, "speculation must not slow down");
        assert!(b.speculation.hits > 0, "some prefetches should hit");
        assert!(b.speculation.misses > 0, "not all prefetches hit");
    }

    #[test]
    fn reordering_improves_page_access_ratio() {
        let (base, graph, trace) = fixture();
        let bare = run_with(SchedulingConfig::bare(), &base, &graph, &trace);
        let mut re = SchedulingConfig::bare();
        re.reorder = ndsearch_graph::reorder::ReorderMethod::DegreeAscendingBfs;
        re.placement = ndsearch_graph::mapping::PlacementPolicy::MultiPlaneAware;
        let ours = run_with(re, &base, &graph, &trace);
        assert!(
            ours.page_access_ratio() <= bare.page_access_ratio(),
            "reordering should not worsen locality: {} vs {}",
            ours.page_access_ratio(),
            bare.page_access_ratio()
        );
    }

    #[test]
    fn determinism() {
        let (base, graph, trace) = fixture();
        let a = run_with(SchedulingConfig::full(), &base, &graph, &trace);
        let b = run_with(SchedulingConfig::full(), &base, &graph, &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_max_batch_inflight_clamps_to_one_query_sub_batches() {
        let (base, graph, trace) = fixture();
        let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        config.max_batch_inflight = 0;
        config.ecc.hard_decision_failure_prob = 0.0;
        let prepared = Prepared::stage(&config, &graph, &base, &trace);
        let r = NdsEngine::new(&config).run(&prepared);
        // The cap clamps to 1, so every query becomes its own sub-batch —
        // and the degenerate config must behave exactly like cap = 1.
        assert_eq!(r.sub_batches, 32);
        assert_eq!(r.queries, 32);
        assert!(r.total_ns > 0);
        config.max_batch_inflight = 1;
        let one = NdsEngine::new(&config).run(&prepared);
        assert_eq!(r, one);
    }

    #[test]
    fn reports_bit_identical_across_thread_counts() {
        // Two independent runs (separate staging, separate engines) of the
        // same config must agree bit-for-bit.
        let (base, graph, trace) = fixture();
        let run = || {
            let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
            config.scheduling = SchedulingConfig::full();
            // Keep fault injection on: the counter-indexed ECC streams are
            // exactly the state that must replay identically.
            config.ecc.hard_decision_failure_prob = 0.05;
            let prepared = Prepared::stage(&config, &graph, &base, &trace);
            NdsEngine::new(&config).run(&prepared)
        };
        let first = run();
        assert_eq!(first, run(), "report diverged between independent runs");
        assert!(first.stats.ecc_soft_fallbacks > 0);
    }

    #[test]
    fn sub_batch_splitting_kicks_in() {
        let (base, graph, trace) = fixture();
        let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        config.max_batch_inflight = 10;
        config.ecc.hard_decision_failure_prob = 0.0;
        let prepared = Prepared::stage(&config, &graph, &base, &trace);
        let r = NdsEngine::new(&config).run(&prepared);
        assert_eq!(r.sub_batches, 4); // 32 queries / 10
    }

    #[test]
    fn online_refresh_fires_and_stays_consistent() {
        let (base, graph, trace) = fixture();
        let mut config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        config.ecc.hard_decision_failure_prob = 0.0;
        config.refresh_read_threshold = 200;
        let prepared = Prepared::stage(&config, &graph, &base, &trace);
        let with_refresh = NdsEngine::new(&config).run(&prepared);
        assert!(
            with_refresh.refreshes > 0,
            "the threshold should trigger refreshes"
        );
        config.refresh_read_threshold = 0;
        let without = NdsEngine::new(&config).run(&prepared);
        assert_eq!(without.refreshes, 0);
        assert!(
            with_refresh.total_ns > without.total_ns,
            "block moves must cost time"
        );
        // Deterministic under refresh too.
        config.refresh_read_threshold = 200;
        let again = NdsEngine::new(&config).run(&prepared);
        assert_eq!(with_refresh, again);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (base, graph, _) = fixture();
        let config = NdsConfig::scaled_for(base.len(), base.stored_vector_bytes());
        let prepared = Prepared::stage(&config, &graph, &base, &BatchTrace::default());
        let r = NdsEngine::new(&config).run(&prepared);
        assert_eq!(r.queries, 0);
        assert_eq!(r.total_ns, 0);
    }
}
