//! The fuzzer's deterministic random stream.
//!
//! The same `sedspec_workloads::splitmix64` core fault injection uses:
//! no wall clock, no OS entropy, every draw a pure function of the
//! seed, so a campaign is bit-for-bit replayable from `(seed, corpus)`.

use sedspec_workloads::splitmix64;

/// Deterministic generator over a splitmix64 walk.
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Seeds the stream. Equal seeds yield equal streams forever.
    pub fn new(seed: u64) -> Self {
        FuzzRng { state: splitmix64(seed ^ 0x5ed5_9ec5_ed59_ec01) }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Uniform draw in `[0, n)`; `n = 0` yields 0.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }

    /// Uniform usize index into a slice of length `n`; `n = 0` yields 0.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = FuzzRng::new(42);
        let mut b = FuzzRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FuzzRng::new(1);
        let mut b = FuzzRng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn below_respects_bound() {
        let mut r = FuzzRng::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        assert_eq!(r.below(0), 0);
    }
}
