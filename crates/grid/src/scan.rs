//! The scan matrix (§IV.a): one row per agent plus the 0th scratch row.
//!
//! For LEM the row holds the *sorted* candidate list the initial-calculation
//! kernel produces — `(distance, neighbour index)` pairs in ascending
//! distance order, invalid slots at the tail. For ACO the row holds the
//! eq. (2) numerator for each neighbour `k`, zero for unavailable cells.
//!
//! The paper gives the matrix `N + 1` rows so threads on empty cells can
//! dump their (ignored) results into row 0 instead of diverging; the same
//! row-0 convention is kept.

/// Neighbour-index sentinel for an invalid scan slot.
pub const SCAN_INVALID: u8 = u8::MAX;

/// `(N+1) × 8` scan values plus the parallel neighbour-index matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanMatrix {
    /// Scan values, row-major, 8 per row.
    pub vals: Vec<f32>,
    /// Neighbour index (0–7) per slot; [`SCAN_INVALID`] marks unused slots.
    pub idxs: Vec<u8>,
    rows: usize,
}

impl ScanMatrix {
    /// A scan matrix for `n_agents` agents.
    pub fn new(n_agents: usize) -> Self {
        let rows = n_agents + 1;
        Self {
            vals: vec![0.0; rows * 8],
            idxs: vec![SCAN_INVALID; rows * 8],
            rows,
        }
    }

    /// Rows including the scratch row.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The 8 values of agent `idx`'s row.
    #[inline]
    pub fn row_vals(&self, idx: usize) -> &[f32] {
        &self.vals[idx * 8..idx * 8 + 8]
    }

    /// The 8 neighbour indices of agent `idx`'s row.
    #[inline]
    pub fn row_idxs(&self, idx: usize) -> &[u8] {
        &self.idxs[idx * 8..idx * 8 + 8]
    }

    /// Write slot `slot` of agent `idx`'s row.
    #[inline]
    pub fn set(&mut self, idx: usize, slot: usize, val: f32, nbr: u8) {
        debug_assert!(slot < 8);
        self.vals[idx * 8 + slot] = val;
        self.idxs[idx * 8 + slot] = nbr;
    }
}

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
    fn rows_and_scratch() {
        let s = ScanMatrix::new(5);
        assert_eq!(s.rows(), 6);
        assert_eq!(s.row_vals(0), &[0.0; 8]);
        assert!(s.row_idxs(3).iter().all(|&i| i == SCAN_INVALID));
    }

    #[test]
    fn set_writes_one_slot() {
        let mut s = ScanMatrix::new(2);
        s.set(1, 0, 3.5, 4);
        assert_eq!(s.row_vals(1)[0], 3.5);
        assert_eq!(s.row_idxs(1)[0], 4);
        assert_eq!(s.row_vals(1)[1], 0.0);
        assert_eq!(s.row_idxs(1)[1], SCAN_INVALID);
    }

    #[test]
    fn tour_accumulates() {
        let mut t = TourLengths::new(3);
        t.add(2, 1.0);
        t.add(2, std::f32::consts::SQRT_2);
        assert!((t.get(2) - 2.4142135).abs() < 1e-6);
        assert_eq!(t.get(1), 0.0);
    }
}
