//! SiN engines — LUN-level accelerators (Fig. 8).
//!
//! Each LUN accelerator owns a query queue, a Vaddr queue, an accelerator
//! controller issuing multi-plane read sequences, per-plane hard-decision
//! LDPC decoders, and MAC groups computing distances directly out of the
//! page buffers. The model replays one iteration's [`LunWork`]:
//!
//! * tasks targeting the same page share one page load when dynamic
//!   allocating is on (temporal locality, `pageLocBit`); without it, each
//!   query's accesses are served independently (the "w/o ds" baseline
//!   re-reads pages another query just had);
//! * page loads whose (block, page) addresses coincide across the LUN's
//!   planes merge into one multi-plane sense (whether that happens is
//!   decided by the *placement* policy — the `mp` knob);
//! * the MAC groups stream needed vectors out of the page buffer at the
//!   internal bandwidth and compute `dim` MACs per vector across the
//!   configured lanes.

use ndsearch_flash::ecc::{EccDelta, EccEngine};
use ndsearch_flash::geometry::{LunId, PlaneId};
use ndsearch_flash::stats::FlashStats;
use ndsearch_flash::timing::Nanos;
use ndsearch_graph::luncsr::LunCsr;
use std::collections::BTreeMap;

use crate::alloc::LunWork;
use crate::config::NdsConfig;

/// Result of one LUN accelerator processing one iteration's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinReport {
    /// NAND sense operations issued (multi-plane groups).
    pub sense_ops: u64,
    /// Pages loaded from the array (each sense op loads 1..planes pages).
    pub page_loads: u64,
    /// Page loads avoided by sharing a resident page across tasks.
    pub page_hits: u64,
    /// Distance computations performed.
    pub distances: u64,
    /// Time the accelerator is busy.
    pub busy_ns: Nanos,
    /// Of which: NAND sensing.
    pub sense_ns: Nanos,
    /// Of which: ECC decoding (hard + injected soft fallbacks).
    pub ecc_ns: Nanos,
    /// Of which: page-buffer streaming + MAC compute.
    pub compute_ns: Nanos,
    /// Result bytes produced (distances + ids) for data-out.
    pub result_bytes: u64,
    /// Soft-decision LDPC fallbacks that paused the pipeline.
    pub soft_fallbacks: u64,
}

/// Everything one LUN accelerator's iteration produces, as a *delta*
/// against engine-wide state: the timing report, flash-statistics and ECC
/// increments, and the planes the work touched (for the FTL's read-disturb
/// replay). Pure data — the caller merges outcomes in stable LUN order
/// ([`crate::engine`]) and commits the deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LunOutcome {
    /// The LUN that executed the work.
    pub lun: LunId,
    /// Timing/counters of the accelerator run.
    pub report: SinReport,
    /// Flash-statistics increments (merge into the engine-wide
    /// [`FlashStats`]).
    pub stats: FlashStats,
    /// ECC decode increments (apply to the engine-wide [`EccEngine`]).
    pub ecc: EccDelta,
    /// Global plane of every task, in task order (the FTL replays these
    /// for read-disturb accounting). Only collected when online refresh
    /// is enabled (`refresh_read_threshold > 0`) — empty otherwise, so
    /// the hot path never pays for it.
    pub touched_planes: Vec<PlaneId>,
}

/// Executes one iteration's work on one LUN accelerator.
///
/// Pure: reads only immutable snapshots (`luncsr`, `config`, the ECC
/// engine's counter cursors) and returns every effect as a mergeable
/// [`LunOutcome`], so every LUN of a round sees the same round-start
/// state and the stable LUN-order merge alone fixes the result.
pub fn process_lun_work(
    work: &LunWork,
    luncsr: &LunCsr,
    config: &NdsConfig,
    ecc: &EccEngine,
) -> LunOutcome {
    let geom = &config.geometry;
    let timing = &config.timing;
    let dim_bytes = u64::from(luncsr.mapping().slot_bytes());
    let dynamic = config.scheduling.dynamic_allocating;

    // 1. Page-load accounting.
    //    With dynamic allocating the Dispatcher groups all tasks of a page
    //    together, so each needed page is sensed once per iteration. Without
    //    it, tasks arrive in query order and a plane's single page buffer
    //    only serves *consecutive* tasks on the same page — switching pages
    //    flushes the buffer, and a later query needing the old page pays a
    //    fresh sense (§VI-B1's "may be flushed and need to be read from the
    //    NAND arrays again by another query later").
    let accesses = work.tasks.len() as u64;
    let pages_per_plane = u64::from(geom.blocks_per_plane) * u64::from(geom.pages_per_block);
    let decompose = |page_key: u64| {
        let plane = (page_key / pages_per_plane) as u32;
        let within = page_key % pages_per_plane;
        let block = (within / u64::from(geom.pages_per_block)) as u32;
        let page = (within % u64::from(geom.pages_per_block)) as u32;
        (plane, block, page)
    };
    // Load events: (plane, block, page) with a multiplicity.
    let mut load_events: BTreeMap<(u32, u32, u32), u64> = BTreeMap::new();
    if dynamic {
        let mut distinct: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for t in &work.tasks {
            distinct.insert(t.addr.page_key(geom));
        }
        for page_key in distinct {
            *load_events.entry(decompose(page_key)).or_default() += 1;
        }
    } else {
        let mut buffered: BTreeMap<u32, u64> = BTreeMap::new(); // plane → page
        for t in &work.tasks {
            let page_key = t.addr.page_key(geom);
            let (plane, _, _) = decompose(page_key);
            if buffered.get(&plane) != Some(&page_key) {
                buffered.insert(plane, page_key);
                *load_events.entry(decompose(page_key)).or_default() += 1;
            }
        }
    }
    let page_loads: u64 = load_events.values().sum();
    let page_hits = accesses.saturating_sub(page_loads);

    // 2. Multi-plane sense merging: load events whose (block, page) row
    //    addresses coincide across distinct planes of this LUN fire as one
    //    multi-plane sequence — a hardware capability independent of the
    //    scheduling. Repeated loads of the same plane serialize, so the
    //    sense rounds for one (block, page) address equal the busiest
    //    plane's load count.
    let mut plane_loads: BTreeMap<(u32, u32), BTreeMap<u32, u64>> = BTreeMap::new();
    for (&(plane, block, page), &count) in &load_events {
        *plane_loads
            .entry((block, page))
            .or_default()
            .entry(plane)
            .or_default() += count;
    }
    let mut sense_ops = 0u64;
    let mut merged_multi_plane = 0u64;
    for per_plane in plane_loads.values() {
        sense_ops += per_plane.values().copied().max().unwrap_or(0);
        if per_plane.len() > 1 {
            merged_multi_plane += 1;
        }
        debug_assert!(per_plane.len() <= geom.planes_per_lun as usize);
    }

    // 3. Timing. The per-plane LDPC decoders, page-buffer read paths and
    //    MAC groups operate in parallel (Fig. 8: one hard-decision decoder
    //    and one MAC group pipeline per plane), so the LUN's ECC/compute
    //    time is the *busiest plane's*, while array senses serialize at the
    //    die (one multi-plane command sequence at a time).
    let sense_ns = sense_ops * timing.t_read_page_ns;
    let mut ecc_pass = ecc.begin_lun_pass();
    let mut plane_ecc: BTreeMap<u32, Nanos> = BTreeMap::new();
    let mut soft_fallbacks = 0u64;
    for (&(plane, _, _), &count) in &load_events {
        let before = ecc_pass.hard_failures();
        let mut t = 0;
        for _ in 0..count {
            debug_assert!(plane < geom.total_planes());
            t += ecc_pass.decode_page(plane);
        }
        soft_fallbacks += ecc_pass.hard_failures() - before;
        *plane_ecc.entry(plane).or_default() += t;
    }
    let ecc_ns = plane_ecc.values().copied().max().unwrap_or(0);
    // Per plane: distance computations (one per task) and *unique* vectors
    // streamed out of the page buffer — a vector crosses the buffer once
    // and the switch feeds it to the MAC groups serving all queued queries
    // (Fig. 8).
    let mut plane_distances: BTreeMap<u32, u64> = BTreeMap::new();
    let mut plane_vertices: BTreeMap<u32, std::collections::BTreeSet<u32>> = BTreeMap::new();
    for t in &work.tasks {
        let (plane, _, _) = decompose(t.addr.page_key(geom));
        *plane_distances.entry(plane).or_default() += 1;
        plane_vertices.entry(plane).or_default().insert(t.vertex);
    }
    let distances = work.tasks.len() as u64;
    let lanes_per_plane = (u64::from(config.mac_lanes()) / u64::from(geom.planes_per_lun)).max(1);
    let compute_ns = plane_distances
        .iter()
        .map(|(plane, &d)| {
            let unique = plane_vertices.get(plane).map_or(0, |s| s.len() as u64);
            let stream = timing.page_buffer_stream_ns(unique * dim_bytes);
            let mac = timing.accel_cycles_ns(d * dim_bytes.max(1) / lanes_per_plane);
            stream.max(mac)
        })
        .max()
        .unwrap_or(0);
    let busy_ns = sense_ns + ecc_ns + compute_ns;

    // 4. Stats — accumulated into a fresh delta, not engine-wide state.
    let non_spec = work.tasks.iter().filter(|t| !t.speculative).count() as u64;
    let result_bytes = non_spec * u64::from(config.result_entry_bytes);
    let stats_delta = FlashStats {
        page_reads: page_loads,
        search_ops: sense_ops,
        page_buffer_hits: page_hits,
        distance_evals: distances,
        multi_plane_ops: merged_multi_plane,
        ecc_soft_fallbacks: soft_fallbacks,
        bus_bytes: result_bytes,
        ..FlashStats::new()
    };

    LunOutcome {
        lun: work.lun,
        report: SinReport {
            sense_ops,
            page_loads,
            page_hits,
            distances,
            busy_ns,
            sense_ns,
            ecc_ns,
            compute_ns,
            result_bytes,
            soft_fallbacks,
        },
        stats: stats_delta,
        ecc: ecc_pass.into_delta(),
        touched_planes: if config.refresh_read_threshold > 0 {
            work.tasks
                .iter()
                .map(|t| t.addr.global_plane(geom))
                .collect()
        } else {
            Vec::new()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{Allocator, VertexTask};
    use ndsearch_flash::ecc::EccConfig;
    use ndsearch_flash::geometry::FlashGeometry;
    use ndsearch_flash::timing::FlashTiming;
    use ndsearch_graph::csr::Csr;
    use ndsearch_graph::mapping::{PlacementPolicy, VertexMapping};
    use ndsearch_vector::VectorId;

    fn setup(policy: PlacementPolicy, dynamic: bool) -> (LunCsr, NdsConfig) {
        let n = 1024;
        let lists: Vec<Vec<VectorId>> = (0..n as u32).map(|_| Vec::new()).collect();
        let csr = Csr::from_adjacency(&lists).unwrap();
        let mapping = VertexMapping::place(FlashGeometry::tiny(), n, 128, policy);
        let luncsr = LunCsr::new(csr, mapping);
        let mut config = NdsConfig {
            geometry: FlashGeometry::tiny(),
            timing: FlashTiming::default(),
            ecc: EccConfig {
                hard_decision_failure_prob: 0.0,
                ..EccConfig::default()
            },
            ..NdsConfig::default()
        };
        config.scheduling.dynamic_allocating = dynamic;
        (luncsr, config)
    }

    fn work_for(luncsr: &LunCsr, config: &NdsConfig, tasks: &[(u32, VectorId)]) -> Vec<LunWork> {
        let triples: Vec<_> = tasks
            .iter()
            .map(|&(q, v)| (q, v, luncsr.lun_of(v)))
            .collect();
        Allocator
            .dispatch(luncsr, &config.timing, &triples, false)
            .work
    }

    #[test]
    fn shared_pages_load_once_with_dynamic_allocating() {
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, true);
        // Vertices 0..16 share one page (tiny geometry, 128 B slots).
        let tasks: Vec<(u32, VectorId)> = (0..8u32).map(|q| (q, q)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        assert_eq!(work.len(), 1);
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let rep = process_lun_work(&work[0], &lc, &cfg, &ecc).report;
        assert_eq!(rep.page_loads, 1);
        assert_eq!(rep.page_hits, 7);
        assert_eq!(rep.distances, 8);
    }

    #[test]
    fn without_dynamic_allocating_interleaved_queries_reload() {
        // Vertices 0 and 256 sit on two different pages of the *same plane*
        // (tiny geometry: 16 page-slots stride between same-plane pages).
        // Interleaved queries flush each other's page buffer; the dynamic
        // allocator would group them and load each page once.
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, false);
        assert_eq!(lc.mapping().plane_of(0), lc.mapping().plane_of(256));
        assert_eq!(lc.lun_of(0), lc.lun_of(256));
        let tasks: Vec<(u32, VectorId)> = (0..8u32)
            .map(|q| (q, if q % 2 == 0 { 0 } else { 256 }))
            .collect();
        let work = work_for(&lc, &cfg, &tasks);
        assert_eq!(work.len(), 1);
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let rep = process_lun_work(&work[0], &lc, &cfg, &ecc).report;
        assert_eq!(rep.page_loads, 8, "every task switches the page buffer");
        assert_eq!(rep.page_hits, 0);

        // With dynamic allocating the same tasks load each page once.
        let (lc2, cfg2) = setup(PlacementPolicy::MultiPlaneAware, true);
        let work2 = work_for(&lc2, &cfg2, &tasks);
        let ecc2 = EccEngine::new(&cfg2.geometry, cfg2.ecc);
        let rep2 = process_lun_work(&work2[0], &lc2, &cfg2, &ecc2).report;
        assert_eq!(rep2.page_loads, 2);
        assert_eq!(rep2.page_hits, 6);
    }

    #[test]
    fn without_dynamic_allocating_consecutive_tasks_still_share() {
        // Consecutive tasks on one page reuse the resident buffer even
        // without da (the stream-order reuse of a single page register).
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, false);
        let tasks: Vec<(u32, VectorId)> = (0..8u32).map(|q| (q, q)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let rep = process_lun_work(&work[0], &lc, &cfg, &ecc).report;
        assert_eq!(rep.page_loads, 1);
        assert_eq!(rep.page_hits, 7);
    }

    #[test]
    fn multiplane_placement_merges_senses() {
        let (lc, cfg) = setup(PlacementPolicy::MultiPlaneAware, true);
        // Vertices 0..32 cover two pages in planes 0 and 1 of LUN 0 with
        // the same (block, page) address → one multi-plane sense.
        let tasks: Vec<(u32, VectorId)> = (0..32u32).map(|v| (0, v)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        assert_eq!(work.len(), 1);
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let out = process_lun_work(&work[0], &lc, &cfg, &ecc);
        assert_eq!(out.report.page_loads, 2);
        assert_eq!(out.report.sense_ops, 1, "two planes, one multi-plane op");
        assert_eq!(out.stats.multi_plane_ops, 1);
    }

    #[test]
    fn linear_placement_cannot_merge() {
        let (lc, cfg) = setup(PlacementPolicy::Linear, true);
        let tasks: Vec<(u32, VectorId)> = (0..32u32).map(|v| (0, v)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        let mut ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let mut stats = FlashStats::new();
        let mut loads = 0;
        let mut senses = 0;
        for w in &work {
            let out = process_lun_work(w, &lc, &cfg, &ecc);
            ecc.apply(&out.ecc);
            stats.merge(&out.stats);
            loads += out.report.page_loads;
            senses += out.report.sense_ops;
        }
        assert_eq!(loads, 2);
        assert_eq!(
            senses, 2,
            "linear placement stripes consecutive pages to different LUNs \
             with no multi-plane alignment"
        );
        assert_eq!(stats.multi_plane_ops, 0);
    }

    #[test]
    fn ecc_failures_add_latency() {
        let (lc, mut cfg) = setup(PlacementPolicy::MultiPlaneAware, true);
        let tasks: Vec<(u32, VectorId)> = (0..64u32).map(|v| (0, v)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        let run = |cfg: &NdsConfig, work: &[LunWork]| {
            let mut ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
            work.iter()
                .map(|w| {
                    let out = process_lun_work(w, &lc, cfg, &ecc);
                    ecc.apply(&out.ecc);
                    out.report.busy_ns
                })
                .sum::<u64>()
        };
        let clean = run(&cfg, &work);
        cfg.ecc.hard_decision_failure_prob = 1.0;
        let dirty = run(&cfg, &work);
        assert!(dirty > clean, "soft fallbacks must slow the LUN down");
    }

    #[test]
    fn speculative_tasks_produce_no_result_bytes() {
        let (lc, mut cfg) = setup(PlacementPolicy::MultiPlaneAware, true);
        // Touched planes are only collected for the refresh path.
        cfg.refresh_read_threshold = 1;
        let work = LunWork {
            lun: lc.lun_of(0),
            tasks: vec![VertexTask {
                query: 0,
                vertex: 0,
                addr: lc.physical_addr(0),
                speculative: true,
            }],
        };
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let out = process_lun_work(&work, &lc, &cfg, &ecc);
        assert_eq!(out.report.result_bytes, 0);
        assert_eq!(
            out.report.page_loads, 1,
            "speculative loads still cost pages"
        );
        assert_eq!(out.touched_planes.len(), 1);
        assert_eq!(out.ecc.decodes, 1);
    }

    #[test]
    fn outcome_is_a_pure_delta() {
        // Processing the same work twice against the same engine snapshot
        // yields identical outcomes — nothing engine-wide was mutated.
        let (lc, mut cfg) = setup(PlacementPolicy::MultiPlaneAware, true);
        cfg.refresh_read_threshold = 1; // collect touched planes too
        let tasks: Vec<(u32, VectorId)> = (0..32u32).map(|v| (v % 4, v)).collect();
        let work = work_for(&lc, &cfg, &tasks);
        let ecc = EccEngine::new(&cfg.geometry, cfg.ecc);
        let a = process_lun_work(&work[0], &lc, &cfg, &ecc);
        let b = process_lun_work(&work[0], &lc, &cfg, &ecc);
        assert_eq!(a, b);
        assert_eq!(ecc.decode_count(), 0, "the engine snapshot is untouched");
        // The delta accounts for exactly the work's tasks and pages.
        assert_eq!(a.touched_planes.len(), work[0].tasks.len());
        assert_eq!(a.stats.page_reads, a.report.page_loads);
        assert_eq!(a.ecc.decodes, a.report.page_loads);

        // With refresh disabled the plane list is skipped (hot path).
        cfg.refresh_read_threshold = 0;
        let hot = process_lun_work(&work[0], &lc, &cfg, &ecc);
        assert!(hot.touched_planes.is_empty());
        assert_eq!(hot.report, a.report);
    }
}
