//! Scan-row conventions and the tour matrix (§IV.a).
//!
//! A scan row holds 8 slots per agent. For LEM it is the *sorted*
//! candidate list the initial calculation produces — `(distance,
//! neighbour index)` pairs in ascending distance order, invalid slots at
//! the tail. For ACO it holds the eq. (2) numerator for each neighbour
//! `k`, zero for unavailable cells. The host engine computes each row in
//! place; only simt's kernel pipeline stores the `(N+1) × 8` matrix, in
//! its device buffers.

/// Neighbour-index sentinel for an invalid scan slot.
pub const SCAN_INVALID: u8 = u8::MAX;

/// Per-agent accumulated tour lengths (`N + 1` entries, row 0 scratch) —
/// the paper's tour matrix, feeding eq. (5)'s `1/L_k` deposit.
#[derive(Debug, Clone, PartialEq)]
pub struct TourLengths {
    /// Accumulated Euclidean path length per agent.
    pub len: Vec<f32>,
}

impl TourLengths {
    /// Zeroed tour lengths for `n_agents`.
    pub fn new(n_agents: usize) -> Self {
        Self {
            len: vec![0.0; n_agents + 1],
        }
    }

    /// Accumulated length of agent `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> f32 {
        self.len[idx]
    }

    /// Add a step of `d` to agent `idx`.
    #[inline]
    pub fn add(&mut self, idx: usize, d: f32) {
        self.len[idx] += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tour_accumulates() {
        let mut t = TourLengths::new(3);
        t.add(2, 1.0);
        t.add(2, std::f32::consts::SQRT_2);
        assert!((t.get(2) - 2.4142135).abs() < 1e-6);
        assert_eq!(t.get(1), 0.0);
    }
}
