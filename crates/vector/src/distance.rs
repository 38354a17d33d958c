//! Distance kernels.
//!
//! The `<SearchPage>` instruction carries a 2-bit "Distance" field selecting
//! Euclidean, angular or inner-product distance (Fig. 9b). [`DistanceKind`]
//! is the software mirror of that field; [`DistanceKind::encode`] /
//! [`DistanceKind::decode`] round-trip the 2-bit encoding used by the flash
//! command model.
//!
//! # Kernel tiers
//!
//! Three implementations of each reduction coexist:
//!
//! - **scalar** ([`l2_squared_scalar`], [`dot_scalar`]): the original
//!   single-accumulator loops. Kept as the reference semantics for
//!   equivalence proptests and as the benchmark baseline.
//! - **unrolled** ([`l2_squared_unrolled`], [`dot_unrolled`]): portable
//!   8-lane kernels with four independent accumulator groups (32 floats per
//!   iteration). The layout breaks the sequential float dependency chain so
//!   stable rustc auto-vectorizes it; no `unsafe`, no target features.
//! - **avx2** (`x86_64` only): explicit AVX2/FMA intrinsics behind
//!   `is_x86_feature_detected!`, same four-accumulator shape with
//!   `_mm256_fmadd_ps`.
//!
//! The public entry points ([`l2_squared`], [`dot`], [`angular`],
//! [`neg_inner_product`], [`DistanceKind::eval`], the batched variants)
//! dispatch **once per process**: the first call probes the CPU and the
//! `NDSEARCH_NO_SIMD` environment variable and caches the decision, so
//! every call in a run uses the *same* kernel. That is what keeps reports
//! bit-identical from run to run — nothing after start-up changes which
//! kernel scores a vector. Setting
//! `NDSEARCH_NO_SIMD=1` pins the portable unrolled kernel, which is
//! deterministic across x86-64 hosts (no FMA contraction); results differ
//! from the AVX2 path only by summation-order ulps, never structurally.
//!
//! # Length contract
//!
//! Batch entry points ([`DistanceKind::eval_batch`],
//! [`DistanceKind::eval_batch_ids`]) and [`DistanceKind::eval`] validate
//! slice lengths once up front. The raw kernels below them only
//! `debug_assert!` equal lengths: in release builds a mismatch yields an
//! unspecified (but memory-safe) value computed over the common prefix —
//! they never read out of bounds.

use crate::dataset::Dataset;
use crate::VectorId;
use std::sync::OnceLock;

/// The distance family computed by a MAC group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DistanceKind {
    /// Squared Euclidean distance (monotone in L2; the sqrt is never needed
    /// for ranking so hardware skips it).
    #[default]
    L2,
    /// Angular (cosine) distance: `1 - cos(a, b)`.
    Angular,
    /// Negative inner product (so that *smaller is closer*, like the other
    /// two kinds).
    InnerProduct,
}

impl DistanceKind {
    /// All supported kinds, in encoding order.
    pub const ALL: [DistanceKind; 3] = [
        DistanceKind::L2,
        DistanceKind::Angular,
        DistanceKind::InnerProduct,
    ];

    /// Evaluates the distance between two equal-length vectors.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn eval(self, a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dimension mismatch");
        match self {
            DistanceKind::L2 => l2_squared(a, b),
            DistanceKind::Angular => angular(a, b),
            DistanceKind::InnerProduct => neg_inner_product(a, b),
        }
    }

    /// Convenience: distance between two dataset vectors.
    ///
    /// # Panics
    /// Panics if either id is out of bounds.
    pub fn eval_ids(self, ds: &Dataset, a: VectorId, b: VectorId) -> f32 {
        self.eval(ds.vector(a), ds.vector(b))
    }

    /// Evaluates the distance from `query` to every slice in `points`,
    /// writing results into `out` element-wise.
    ///
    /// Results are **bit-identical** to calling [`DistanceKind::eval`] on
    /// each pair: the batch runs the same dispatched per-pair kernel, it
    /// only hoists the length validation (and, for [`DistanceKind::Angular`],
    /// the query-norm computation — which is itself bit-identical because it
    /// reruns the same reduction on the same data) out of the loop.
    ///
    /// # Panics
    /// Panics if `points.len() != out.len()` or any point's length differs
    /// from `query.len()`.
    pub fn eval_batch(self, query: &[f32], points: &[&[f32]], out: &mut [f32]) {
        assert_eq!(
            points.len(),
            out.len(),
            "eval_batch: output length mismatch"
        );
        for p in points {
            assert_eq!(p.len(), query.len(), "dimension mismatch");
        }
        match self {
            DistanceKind::L2 => {
                for (o, p) in out.iter_mut().zip(points) {
                    *o = l2_squared(query, p);
                }
            }
            DistanceKind::Angular => {
                let nq = dot(query, query).sqrt();
                for (o, p) in out.iter_mut().zip(points) {
                    *o = angular_prenormed(nq, query, p);
                }
            }
            DistanceKind::InnerProduct => {
                for (o, p) in out.iter_mut().zip(points) {
                    *o = neg_inner_product(query, p);
                }
            }
        }
    }

    /// Batched scoring of dataset rows: clears `out` and appends the
    /// distance from `query` to `ds.vector(id)` for each id, in order.
    ///
    /// This is the beam-expansion hot path: a vertex's whole neighbor list
    /// is scored in one call, with the dimension check done once instead of
    /// per edge. Results match per-pair [`DistanceKind::eval`] bit-for-bit
    /// (see [`DistanceKind::eval_batch`]).
    ///
    /// # Panics
    /// Panics if `query.len() != ds.dim()` or any id is out of bounds.
    pub fn eval_batch_ids(self, query: &[f32], ds: &Dataset, ids: &[VectorId], out: &mut Vec<f32>) {
        assert_eq!(query.len(), ds.dim(), "dimension mismatch");
        out.clear();
        out.reserve(ids.len());
        match self {
            DistanceKind::L2 => {
                for &id in ids {
                    out.push(l2_squared(query, ds.vector(id)));
                }
            }
            DistanceKind::Angular => {
                let nq = dot(query, query).sqrt();
                for &id in ids {
                    out.push(angular_prenormed(nq, query, ds.vector(id)));
                }
            }
            DistanceKind::InnerProduct => {
                for &id in ids {
                    out.push(neg_inner_product(query, ds.vector(id)));
                }
            }
        }
    }

    /// Encodes into the 2-bit "Distance" field of `<SearchPage>`.
    pub fn encode(self) -> u8 {
        match self {
            DistanceKind::L2 => 0b00,
            DistanceKind::Angular => 0b01,
            DistanceKind::InnerProduct => 0b10,
        }
    }

    /// Decodes the 2-bit "Distance" field. Returns `None` for the reserved
    /// encoding `0b11`.
    pub fn decode(bits: u8) -> Option<Self> {
        match bits & 0b11 {
            0b00 => Some(DistanceKind::L2),
            0b01 => Some(DistanceKind::Angular),
            0b10 => Some(DistanceKind::InnerProduct),
            _ => None,
        }
    }

    /// Number of multiply-accumulate operations one evaluation costs, used
    /// by the MAC-group timing model (`dim` MACs for L2/IP, `3*dim` for
    /// angular which needs dot, |a|² and |b|²).
    pub fn mac_ops(self, dim: usize) -> usize {
        match self {
            DistanceKind::L2 | DistanceKind::InnerProduct => dim,
            DistanceKind::Angular => 3 * dim,
        }
    }
}

impl std::fmt::Display for DistanceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DistanceKind::L2 => "l2",
            DistanceKind::Angular => "angular",
            DistanceKind::InnerProduct => "inner-product",
        };
        f.write_str(s)
    }
}

/// Whether the AVX2/FMA kernels are in force for this process.
///
/// Decided once on first use and cached: true iff the CPU reports AVX2+FMA
/// and `NDSEARCH_NO_SIMD` is unset/empty/`0` under the workspace-wide
/// [`crate::env::env_flag`] rule (trimmed, `"0"` means unset). Exposed so
/// benches and the `kernel_sweep` bin can record which kernel produced a
/// measurement.
pub fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if crate::env::env_flag("NDSEARCH_NO_SIMD") {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Squared Euclidean distance (dispatched kernel).
#[inline]
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: simd_enabled() verified avx2+fma via is_x86_feature_detected!.
        return unsafe { x86::l2_squared_avx2(a, b) };
    }
    l2_squared_unrolled(a, b)
}

/// Dot product (dispatched kernel).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: simd_enabled() verified avx2+fma via is_x86_feature_detected!.
        return unsafe { x86::dot_avx2(a, b) };
    }
    dot_unrolled(a, b)
}

/// Angular distance `1 - cos(a,b)`; zero vectors are treated as maximally
/// distant (distance 1).
#[inline]
pub fn angular(a: &[f32], b: &[f32]) -> f32 {
    angular_prenormed(dot(a, a).sqrt(), a, b)
}

/// Angular distance with `|a|` already computed (batch path hoists the
/// query norm; bit-identical to [`angular`] because the norm is the same
/// reduction on the same data).
#[inline]
fn angular_prenormed(na: f32, a: &[f32], b: &[f32]) -> f32 {
    let d = dot(a, b);
    let nb = dot(b, b).sqrt();
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - (d / (na * nb)).clamp(-1.0, 1.0)
}

/// Negative inner product (smaller = more similar).
#[inline]
pub fn neg_inner_product(a: &[f32], b: &[f32]) -> f32 {
    -dot(a, b)
}

/// Reference scalar squared-L2: the original single-accumulator loop.
///
/// Kept as the semantic baseline for the equivalence proptests and the
/// `kernel_sweep` speedup denominator; hot paths use [`l2_squared`].
#[inline]
pub fn l2_squared_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Reference scalar dot product (see [`l2_squared_scalar`]).
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Folds the four 8-lane accumulator groups down to one f32 with a fixed
/// pairwise tree, so the reduction order is identical on every host.
#[inline]
fn reduce_groups(g0: [f32; 8], g1: [f32; 8], g2: [f32; 8], g3: [f32; 8]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for l in 0..8 {
        lanes[l] = (g0[l] + g1[l]) + (g2[l] + g3[l]);
    }
    let lo = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    let hi = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
    lo + hi
}

/// Portable unrolled squared-L2: 8 lanes × 4 independent accumulator
/// groups (32 floats per iteration), auto-vectorizable on stable Rust.
///
/// Length contract: `debug_assert!`s equal lengths; in release a mismatch
/// is memory-safe but computes over the common prefix only.
#[inline]
pub fn l2_squared_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut g0 = [0.0f32; 8];
    let mut g1 = [0.0f32; 8];
    let mut g2 = [0.0f32; 8];
    let mut g3 = [0.0f32; 8];
    let mut ca = a.chunks_exact(32);
    let mut cb = b.chunks_exact(32);
    for (ka, kb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..8 {
            let d0 = ka[l] - kb[l];
            let d1 = ka[l + 8] - kb[l + 8];
            let d2 = ka[l + 16] - kb[l + 16];
            let d3 = ka[l + 24] - kb[l + 24];
            g0[l] += d0 * d0;
            g1[l] += d1 * d1;
            g2[l] += d2 * d2;
            g3[l] += d3 * d3;
        }
    }
    let mut ha = ca.remainder().chunks_exact(8);
    let mut hb = cb.remainder().chunks_exact(8);
    for (ka, kb) in ha.by_ref().zip(hb.by_ref()) {
        for l in 0..8 {
            let d = ka[l] - kb[l];
            g0[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ha.remainder().iter().zip(hb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    reduce_groups(g0, g1, g2, g3) + tail
}

/// Portable unrolled dot product (see [`l2_squared_unrolled`]).
#[inline]
pub fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut g0 = [0.0f32; 8];
    let mut g1 = [0.0f32; 8];
    let mut g2 = [0.0f32; 8];
    let mut g3 = [0.0f32; 8];
    let mut ca = a.chunks_exact(32);
    let mut cb = b.chunks_exact(32);
    for (ka, kb) in ca.by_ref().zip(cb.by_ref()) {
        for l in 0..8 {
            g0[l] += ka[l] * kb[l];
            g1[l] += ka[l + 8] * kb[l + 8];
            g2[l] += ka[l + 16] * kb[l + 16];
            g3[l] += ka[l + 24] * kb[l + 24];
        }
    }
    let mut ha = ca.remainder().chunks_exact(8);
    let mut hb = cb.remainder().chunks_exact(8);
    for (ka, kb) in ha.by_ref().zip(hb.by_ref()) {
        for l in 0..8 {
            g0[l] += ka[l] * kb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ha.remainder().iter().zip(hb.remainder()) {
        tail += x * y;
    }
    reduce_groups(g0, g1, g2, g3) + tail
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! AVX2/FMA kernels, same 8-lane × 4-group shape as the portable
    //! unrolled variants but with fused multiply-add (one rounding per MAC
    //! instead of two — this is the source of the ulp-level difference vs
    //! the portable path).
    #![deny(unsafe_op_in_unsafe_fn)]

    use std::arch::x86_64::*;

    /// Horizontal sum of four 8-lane accumulators (fixed tree order).
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn reduce4(a0: __m256, a1: __m256, a2: __m256, a3: __m256) -> f32 {
        let s = _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3));
        let lo = _mm256_castps256_ps128(s);
        let hi = _mm256_extractf128_ps(s, 1);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let r = _mm_add_ss(d, _mm_shuffle_ps(d, d, 1));
        _mm_cvtss_f32(r)
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA (checked by `simd_enabled`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn l2_squared_avx2(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        unsafe {
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 32 <= n {
                let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
                let d1 = _mm256_sub_ps(
                    _mm256_loadu_ps(pa.add(i + 8)),
                    _mm256_loadu_ps(pb.add(i + 8)),
                );
                let d2 = _mm256_sub_ps(
                    _mm256_loadu_ps(pa.add(i + 16)),
                    _mm256_loadu_ps(pb.add(i + 16)),
                );
                let d3 = _mm256_sub_ps(
                    _mm256_loadu_ps(pa.add(i + 24)),
                    _mm256_loadu_ps(pb.add(i + 24)),
                );
                a0 = _mm256_fmadd_ps(d0, d0, a0);
                a1 = _mm256_fmadd_ps(d1, d1, a1);
                a2 = _mm256_fmadd_ps(d2, d2, a2);
                a3 = _mm256_fmadd_ps(d3, d3, a3);
                i += 32;
            }
            while i + 8 <= n {
                let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
                a0 = _mm256_fmadd_ps(d, d, a0);
                i += 8;
            }
            let mut sum = reduce4(a0, a1, a2, a3);
            while i < n {
                let d = *pa.add(i) - *pb.add(i);
                sum += d * d;
                i += 1;
            }
            sum
        }
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA (checked by `simd_enabled`).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
        let n = a.len().min(b.len());
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        unsafe {
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i + 32 <= n {
                a0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), a0);
                a1 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(pa.add(i + 8)),
                    _mm256_loadu_ps(pb.add(i + 8)),
                    a1,
                );
                a2 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(pa.add(i + 16)),
                    _mm256_loadu_ps(pb.add(i + 16)),
                    a2,
                );
                a3 = _mm256_fmadd_ps(
                    _mm256_loadu_ps(pa.add(i + 24)),
                    _mm256_loadu_ps(pb.add(i + 24)),
                    a3,
                );
                i += 32;
            }
            while i + 8 <= n {
                a0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), a0);
                i += 8;
            }
            let mut sum = reduce4(a0, a1, a2, a3);
            while i < n {
                sum += *pa.add(i) * *pb.add(i);
                i += 1;
            }
            sum
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_matches_hand_math() {
        assert_eq!(l2_squared(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(DistanceKind::L2.eval(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn angular_of_parallel_vectors_is_zero() {
        let d = angular(&[1.0, 2.0], &[2.0, 4.0]);
        assert!(d.abs() < 1e-6, "d = {d}");
    }

    #[test]
    fn angular_of_orthogonal_vectors_is_one() {
        let d = angular(&[1.0, 0.0], &[0.0, 5.0]);
        assert!((d - 1.0).abs() < 1e-6);
    }

    #[test]
    fn angular_of_opposite_vectors_is_two() {
        let d = angular(&[1.0, 0.0], &[-3.0, 0.0]);
        assert!((d - 2.0).abs() < 1e-6);
    }

    #[test]
    fn angular_handles_zero_vector() {
        assert_eq!(angular(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
        assert_eq!(angular(&[1.0, 1.0], &[0.0, 0.0]), 1.0);
    }

    #[test]
    fn inner_product_prefers_aligned() {
        let q = [1.0, 1.0];
        let close = [2.0, 2.0];
        let far = [-1.0, 0.5];
        assert!(neg_inner_product(&q, &close) < neg_inner_product(&q, &far));
    }

    #[test]
    fn encode_decode_round_trip() {
        for kind in DistanceKind::ALL {
            assert_eq!(DistanceKind::decode(kind.encode()), Some(kind));
        }
        assert_eq!(DistanceKind::decode(0b11), None);
    }

    #[test]
    fn mac_ops_scale_with_dim() {
        assert_eq!(DistanceKind::L2.mac_ops(128), 128);
        assert_eq!(DistanceKind::Angular.mac_ops(128), 384);
        assert_eq!(DistanceKind::InnerProduct.mac_ops(10), 10);
    }

    #[test]
    fn eval_ids_reads_dataset() {
        let ds = Dataset::from_rows(2, vec![vec![0.0, 0.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(DistanceKind::L2.eval_ids(&ds, 0, 1), 25.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn eval_rejects_mismatched_dims() {
        DistanceKind::L2.eval(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn eval_batch_rejects_mismatched_points() {
        let mut out = [0.0f32; 1];
        DistanceKind::L2.eval_batch(&[1.0, 2.0], &[&[1.0][..]], &mut out);
    }

    fn sample(dim: usize, seed: u32) -> Vec<f32> {
        // Deterministic LCG; values in [-1, 1).
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..dim)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 8) as f32 / (1u32 << 23) as f32 - 1.0
            })
            .collect()
    }

    fn ulp_diff(a: f32, b: f32) -> u32 {
        if a == b {
            return 0;
        }
        let ia = a.to_bits() as i64;
        let ib = b.to_bits() as i64;
        // Map to a monotone integer line (works for same-sign finite floats).
        let ma = if ia < 0 { i32::MIN as i64 - ia } else { ia };
        let mb = if ib < 0 { i32::MIN as i64 - ib } else { ib };
        (ma - mb).unsigned_abs().min(u32::MAX as u64) as u32
    }

    #[test]
    fn kernel_tiers_agree_within_ulps() {
        for dim in [1usize, 7, 8, 31, 32, 33, 64, 127, 128, 257] {
            let a = sample(dim, 1 + dim as u32);
            let b = sample(dim, 1000 + dim as u32);
            assert!(
                ulp_diff(l2_squared_scalar(&a, &b), l2_squared_unrolled(&a, &b)) <= 16,
                "l2 dim {dim}"
            );
            assert!(
                ulp_diff(l2_squared_scalar(&a, &b), l2_squared(&a, &b)) <= 16,
                "l2 dispatch dim {dim}"
            );
            assert!(
                ulp_diff(dot_scalar(&a, &a), dot_unrolled(&a, &a)) <= 16,
                "dot dim {dim}"
            );
            assert!(
                ulp_diff(dot_scalar(&a, &a), dot(&a, &a)) <= 16,
                "dot dispatch dim {dim}"
            );
        }
    }

    #[test]
    fn eval_batch_matches_eval_bitwise() {
        let dim = 67;
        let q = sample(dim, 9);
        let rows: Vec<Vec<f32>> = (0..13).map(|i| sample(dim, 100 + i)).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        for kind in DistanceKind::ALL {
            let mut out = vec![0.0f32; refs.len()];
            kind.eval_batch(&q, &refs, &mut out);
            for (p, got) in refs.iter().zip(&out) {
                assert_eq!(got.to_bits(), kind.eval(&q, p).to_bits(), "{kind}");
            }
        }
    }

    #[test]
    fn eval_batch_ids_matches_eval_bitwise() {
        let dim = 33;
        let rows: Vec<Vec<f32>> = (0..10).map(|i| sample(dim, 500 + i)).collect();
        let ds = Dataset::from_rows(dim, rows).unwrap();
        let q = sample(dim, 77);
        let ids: Vec<VectorId> = vec![3, 0, 9, 3, 5];
        for kind in DistanceKind::ALL {
            let mut out = Vec::new();
            kind.eval_batch_ids(&q, &ds, &ids, &mut out);
            assert_eq!(out.len(), ids.len());
            for (&id, got) in ids.iter().zip(&out) {
                assert_eq!(got.to_bits(), kind.eval(&q, ds.vector(id)).to_bits());
            }
        }
    }
}
