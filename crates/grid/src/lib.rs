//! # pedsim-grid — the simulation environment substrate
//!
//! Everything the paper's *data preparation stage* (§IV.a) builds, as plain
//! host data structures:
//!
//! * [`matrix::Matrix`] — the row-major 2-D container behind the
//!   environment (`mat`), index, and pheromone matrices;
//! * [`cell`] — cell labels (empty / per-group / wall), directional groups
//!   (up to [`cell::MAX_GROUPS`]), headings, and the paper's Figure-1
//!   neighbourhood numbering;
//! * [`property::PropertyTable`] — the per-agent record of the paper's
//!   Table I (ID, ROW, COLUMN, FUTURE ROW, FUTURE COLUMN) with the 0th
//!   sentinel row, stored struct-of-arrays so each kernel touches
//!   disjoint fields;
//! * [`scan`] — the scan-slot sentinel and the per-agent tour lengths;
//! * [`distance::DistanceTables`] — the pre-computed constant-memory
//!   distance and move-length tables, behind the [`distance::DistanceField`]
//!   abstraction;
//! * [`flowfield::GridDistanceField`] — per-group Dijkstra flow fields for
//!   worlds with interior obstacles and arbitrary target regions;
//! * [`pheromone::PheromoneField`] — the per-group pheromone matrices;
//! * [`placement`] / [`environment`] — random confined placement and the
//!   assembled [`environment::Environment`].

#![warn(missing_docs)]

pub mod cell;
pub mod distance;
pub mod environment;
pub mod flowfield;
pub mod matrix;
pub mod pheromone;
pub mod placement;
pub mod property;
pub mod scan;

pub use cell::{
    Group, Heading, CELL_BOTTOM, CELL_EMPTY, CELL_TOP, CELL_WALL, MAX_GROUPS, MOVE_LEN,
    NEIGHBOR_OFFSETS,
};
pub use distance::{DistRef, DistanceData, DistanceField, DistanceKind, DistanceTables};
pub use environment::{EnvConfig, Environment};
pub use flowfield::GridDistanceField;
pub use matrix::Matrix;
pub use pheromone::PheromoneField;
pub use placement::place_in_cells;
pub use property::{PropertyTable, NO_FUTURE};
