//! The per-agent property table (paper Table I, §IV.a).
//!
//! The paper stores one row per pedestrian plus a 0th sentinel row "to
//! avoid warp divergence within the simulation steps": threads assigned to
//! empty cells read index 0 from the index matrix and harmlessly operate on
//! row 0 instead of branching. The same convention is kept here.
//!
//! The layout is struct-of-arrays rather than the paper's array-of-rows:
//! each simulation kernel then reads and writes *disjoint* field vectors
//! (e.g. the movement kernel reads `future_*` and writes `row`/`col`),
//! which is what lets the Rust engines run the kernels in parallel without
//! locks. The paper's EMPTY column (unused) is dropped; its INDEX NO column
//! is implicit (an agent's index *is* its row number). Its FRONT CELL
//! column is per-step scratch: simt keeps it in a device buffer between
//! kernels, and the host engine computes it where it is used.

/// Sentinel for "no future cell chosen" in `future_row`/`future_col`.
///
/// The paper initialises FUTURE ROW/COLUMN to 0, which is ambiguous with
/// the real cell (0,0); a `u16::MAX` sentinel removes the ambiguity.
pub const NO_FUTURE: u16 = u16::MAX;

/// Struct-of-arrays agent records; index 0 is the sentinel row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyTable {
    /// Group label (1 top, 2 bottom); 0 in the sentinel row.
    pub id: Vec<u8>,
    /// Current row per agent.
    pub row: Vec<u16>,
    /// Current column per agent.
    pub col: Vec<u16>,
    /// Chosen next row ([`NO_FUTURE`] when none).
    pub future_row: Vec<u16>,
    /// Chosen next column ([`NO_FUTURE`] when none).
    pub future_col: Vec<u16>,
}

impl PropertyTable {
    /// A table for `n_agents` agents (rows `1..=n_agents` live, row 0
    /// sentinel).
    pub fn new(n_agents: usize) -> Self {
        let n = n_agents + 1;
        Self {
            id: vec![0; n],
            row: vec![0; n],
            col: vec![0; n],
            future_row: vec![NO_FUTURE; n],
            future_col: vec![NO_FUTURE; n],
        }
    }

    /// Number of live agents (excludes the sentinel row).
    #[inline]
    pub fn agent_count(&self) -> usize {
        self.id.len() - 1
    }

    /// Total rows including the sentinel.
    #[inline]
    pub fn rows(&self) -> usize {
        self.id.len()
    }

    /// Register agent `idx` (1-based) at `(r, c)` with `label`.
    pub fn place(&mut self, idx: usize, label: u8, r: u16, c: u16) {
        debug_assert!(idx >= 1 && idx < self.rows(), "agent index out of range");
        self.id[idx] = label;
        self.row[idx] = r;
        self.col[idx] = c;
        self.future_row[idx] = NO_FUTURE;
        self.future_col[idx] = NO_FUTURE;
    }

    /// Current position of agent `idx`.
    #[inline]
    pub fn position(&self, idx: usize) -> (u16, u16) {
        (self.row[idx], self.col[idx])
    }

    /// Whether agent `idx` has a pending future cell.
    #[inline]
    pub fn has_future(&self, idx: usize) -> bool {
        self.future_row[idx] != NO_FUTURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_row_exists() {
        let t = PropertyTable::new(10);
        assert_eq!(t.rows(), 11);
        assert_eq!(t.agent_count(), 10);
        assert_eq!(t.id[0], 0);
    }

    #[test]
    fn place_and_query() {
        let mut t = PropertyTable::new(3);
        t.place(2, 1, 5, 7);
        assert_eq!(t.position(2), (5, 7));
        assert_eq!(t.id[2], 1);
        assert!(!t.has_future(2));
        t.future_row[2] = 6;
        t.future_col[2] = 7;
        assert!(t.has_future(2));
    }
}
