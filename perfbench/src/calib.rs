//! Host-speed reference: a fixed amount of work independent of the
//! repository's code, timed next to each measured region.

use std::sync::OnceLock;
use std::time::Instant;

const ROWS: usize = 16_384;
const DIM: usize = 128;
const PAIRS: usize = 600_000;

/// Nominal reference time: normalized host times are wall seconds on a
/// host where [`reference_secs`] reads this (it read 0.028–0.040 s on
/// the 2-core x86-64 avx2+fma host the bounds were set on).
pub const NOMINAL_SECS: f64 = 0.030;

/// Seconds one fixed reference workload takes right now: L2 distances
/// between pseudo-randomly chosen rows of an 8 MiB table (gathers plus
/// floating-point work, the shape of a graph-search hop). The table is
/// built once and stays resident, so it adds a constant to peak RSS.
pub fn reference_secs() -> f64 {
    static TABLE: OnceLock<Vec<f32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        (0..ROWS * DIM)
            .map(|i| ((i * 2_654_435_761) % 1000) as f32 * 1e-3)
            .collect()
    });
    let start = Instant::now();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f32;
    for _ in 0..PAIRS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let a = (state as usize % ROWS) * DIM;
        let b = ((state >> 32) as usize % ROWS) * DIM;
        let mut d = 0.0f32;
        for k in 0..DIM {
            let x = table[a + k] - table[b + k];
            d += x * x;
        }
        acc += d;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}
