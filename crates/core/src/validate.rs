//! Cross-engine validation (the strong form of the paper's §VI check).
//!
//! The paper compares CPU and GPU runs statistically ("Comparing the
//! solution obtained from CPU and GPU is a viable way to begin to establish
//! consistency of the implementation"). Counter-based randomness lets this
//! reproduction do better: for one configuration the CPU reference and the
//! virtual GPU's sparse mapping must agree **exactly**, cell for cell,
//! with the virtual GPU's dense one-thread-per-cell mapping (the paper's
//! kernel layout), on a sequential or parallel device.
//! [`engines_agree`] asserts that; the
//! Figure-6b harness then layers the paper's GLM analysis on top using
//! different seeds per repeat.

use simt::exec::ExecPolicy;
use simt::Device;

use crate::engine::gpu::GpuEngine;
use crate::engine::pooled::PooledEngine;
use crate::engine::Engine;
use crate::params::{IterationMode, SimConfig};

/// Where two engine runs first disagreed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Step at which the disagreement was detected.
    pub step: u64,
    /// Human-readable description.
    pub detail: String,
}

/// Run the CPU reference and the virtual GPU (with `workers` host
/// threads; 0 = sequential policy) in both kernel mappings side by side
/// for `steps`, comparing snapshots every `check_every` steps. The oracle
/// is simt's dense one-thread-per-cell mapping: the CPU reference and
/// simt's sparse mapping, whatever `cfg.iteration` says, are each checked
/// against it. Returns the first divergence, or `None` when the
/// trajectories are identical.
pub fn engines_agree(
    cfg: SimConfig,
    steps: u64,
    check_every: u64,
    workers: usize,
) -> Option<Divergence> {
    let policy = if workers == 0 {
        ExecPolicy::Sequential
    } else {
        ExecPolicy::Parallel { workers }
    };
    let device = Device::builder().policy(policy).build();
    let mut oracle = GpuEngine::new(
        cfg.clone().with_iteration_mode(IterationMode::Dense),
        device.clone(),
    );
    let mut cpu = PooledEngine::new(cfg.clone(), 1);
    let mut sparse = GpuEngine::new(cfg.with_iteration_mode(IterationMode::Sparse), device);
    let check_every = check_every.max(1);
    let mut done = 0u64;
    while done < steps {
        let burst = check_every.min(steps - done);
        oracle.run(burst);
        cpu.run(burst);
        sparse.run(burst);
        done += burst;
        if let Some(detail) = first_difference(&oracle, &cpu) {
            return Some(Divergence {
                step: done,
                detail: format!("cpu vs simt dense: {detail}"),
            });
        }
        if let Some(detail) = first_difference(&oracle, &sparse) {
            return Some(Divergence {
                step: done,
                detail: format!("simt sparse vs simt dense: {detail}"),
            });
        }
    }
    None
}

/// The first observable difference between the oracle and `other`.
fn first_difference(oracle: &impl Engine, other: &impl Engine) -> Option<String> {
    if oracle.mat_snapshot() != other.mat_snapshot() {
        return Some("environment matrices differ".into());
    }
    if oracle.positions() != other.positions() {
        return Some("agent positions differ".into());
    }
    if let (Some(mo), Some(m)) = (oracle.metrics(), other.metrics()) {
        if mo.throughput() != m.throughput() {
            return Some(format!(
                "throughput differs: oracle {} vs {}",
                mo.throughput(),
                m.throughput()
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelKind;
    use pedsim_grid::EnvConfig;

    #[test]
    fn cpu_matches_gpu_sequential_lem() {
        let cfg = SimConfig::new(EnvConfig::small(32, 32, 30).with_seed(21), ModelKind::lem())
            .with_checked(true);
        assert_eq!(engines_agree(cfg, 30, 5, 0), None);
    }

    #[test]
    fn cpu_matches_gpu_parallel_aco() {
        let cfg = SimConfig::new(EnvConfig::small(32, 32, 30).with_seed(22), ModelKind::aco())
            .with_checked(true);
        assert_eq!(engines_agree(cfg, 30, 5, 4), None);
    }
}
