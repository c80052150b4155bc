//! Output checks: state fingerprints, population conservation, and the
//! dense `simt` oracle replay.

use std::sync::Arc;

use pedsim_core::engine::{Backend, Engine};
use pedsim_core::params::{IterationMode, SimConfig};
use pedsim_core::world::CompiledWorld;
use pedsim_grid::cell::{CELL_EMPTY, CELL_WALL};
use pedsim_obs::hash::Fnv64;

/// FNV-1a fingerprint of an engine's state: step count, every cell
/// label, and every slot's position.
pub fn fingerprint(e: &dyn Engine) -> u64 {
    let mat = e.mat_snapshot();
    let (row, col) = e.positions();
    let mut h = Fnv64::new()
        .u64(e.steps_done())
        .usize(mat.width())
        .bytes(mat.as_slice());
    for (r, c) in row.iter().zip(&col) {
        h = h.bytes(&r.to_le_bytes()).bytes(&c.to_le_bytes());
    }
    h.finish()
}

/// Population conservation: the live count equals the number of
/// occupied cells. On closed worlds every slot is live and every
/// position holds its own group's label; on open worlds every occupied
/// cell holds a label of one of the world's groups.
pub fn conservation(e: &dyn Engine, closed: bool) -> Result<(), String> {
    let m = e.metrics().ok_or("metrics are off")?;
    let geom = m.geometry();
    let mat = e.mat_snapshot();
    let cells = mat.as_slice();
    let occupied = cells
        .iter()
        .filter(|&&v| v != CELL_EMPTY && v != CELL_WALL)
        .count();
    if occupied != m.live_count() {
        return Err(format!(
            "{occupied} occupied cells but {} live agents",
            m.live_count()
        ));
    }
    if !closed {
        let groups = geom.n_groups();
        return match cells
            .iter()
            .find(|&&v| v != CELL_EMPTY && v != CELL_WALL && v as usize > groups)
        {
            Some(v) => Err(format!("cell label {v} names no group")),
            None => Ok(()),
        };
    }
    let (row, col) = e.positions();
    if m.live_count() != geom.total_agents() {
        return Err(format!(
            "closed world holds {} of {} agents",
            m.live_count(),
            geom.total_agents()
        ));
    }
    for i in 1..row.len() {
        let label = mat.get(row[i] as usize, col[i] as usize);
        let own = geom.group_of(i).label();
        if label != own {
            return Err(format!(
                "agent {i} at ({}, {}) sits on label {label}, not its group's {own}",
                row[i], col[i]
            ));
        }
    }
    Ok(())
}

/// Replay `steps` steps of `cfg` on the `simt` backend forced to the
/// dense one-thread-per-cell traversal and return its state
/// fingerprint: the oracle every measured backend must match.
pub fn oracle(world: &Arc<CompiledWorld>, cfg: &SimConfig, steps: u64) -> Result<u64, String> {
    let dense = cfg.clone().with_iteration_mode(IterationMode::Dense);
    let mut e = Backend::simt()
        .build_from_world(world, dense)
        .map_err(|e| e.to_string())?;
    e.run(steps);
    Ok(fingerprint(&*e))
}
