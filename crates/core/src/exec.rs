//! Host execution model: every simulation round runs on the calling
//! thread.
//!
//! The paper's concurrency is hardware concurrency — a SiN accelerator in
//! every LUN working simultaneously (§V, Fig. 8) — and the engines model
//! it on the *simulated* clock: a round costs its slowest LUN plus its
//! busiest channel ([`crate::engine`]). Host threads therefore never
//! change a simulated number, and measured on a 2-core host, fanning a
//! round's per-LUN units and beam hops over worker threads made serving
//! slower, not faster (rounds are ~10–500 µs, too short to amortize the
//! hand-off). So the engines evaluate each round inline, and determinism
//! rests on the stable LUN-order merge alone.

/// Host worker threads the engines run a round on: always `1`, because
/// every round executes on the calling thread (see the module docs).
pub fn default_threads() -> usize {
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert_eq!(default_threads(), 1);
    }
}
