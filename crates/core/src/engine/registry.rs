//! The runtime-selectable backend registry.
//!
//! Every engine implementation registers itself here as an
//! [`EngineBackend`] descriptor — a name, a one-line summary, and a
//! constructor producing a boxed [`Engine`]. Callers (the runner, the
//! benches, the CLI flags) select a backend **by name** through
//! [`Backend`], so a new backend drops in by adding one descriptor to
//! [`BACKENDS`] without touching any engine or any call site.
//!
//! Three backends ship today:
//!
//! | name     | engine                      | execution                                  |
//! |----------|-----------------------------|--------------------------------------------|
//! | `scalar` | [`pooled::PooledEngine`]    | one thread: row-bucket tasks run inline    |
//! | `pooled` | [`pooled::PooledEngine`]    | `threads` workers: row buckets on a pool   |
//! | `simt`   | [`gpu::GpuEngine`]          | virtual-GPU kernel pipeline                |
//!
//! `scalar` is the host engine pinned to one thread (the paper's
//! single-threaded CPU counterpart); it keeps its own registry key so
//! results series recorded under it continue. The host engine steps
//! agent-driven only; `simt` honours
//! [`SimConfig::iteration`] — `Dense` is the paper's one thread per cell
//! and the oracle the others are checked against. All three are
//! bit-identical in trajectory for equal configurations (the
//! cross-backend golden parity tests), so the choice is purely a
//! performance/instrumentation trade.
//!
//! [`pooled::PooledEngine`]: super::pooled::PooledEngine
//! [`gpu::GpuEngine`]: super::gpu::GpuEngine

use std::sync::Arc;

use simt::exec::ExecPolicy;
use simt::Device;

use crate::params::SimConfig;
use crate::world::CompiledWorld;

use super::gpu::GpuEngine;
use super::pooled::PooledEngine;
use super::Engine;

/// A registered engine backend: the unit of extension for new execution
/// strategies.
#[derive(Debug)]
pub struct EngineBackend {
    /// Registry key (`scalar` / `pooled` / `simt` / …), stable across
    /// releases — recorded verbatim in results provenance.
    pub name: &'static str,
    /// One-line human summary for `--help` style listings.
    pub summary: &'static str,
    /// Whether `threads` changes this backend's execution (parallel
    /// backends); serial backends ignore the thread count.
    pub parallel: bool,
    /// Build per-replica engine state over a shared compiled world with
    /// `threads` workers — every backend flows through its engine's
    /// `from_world` constructor, so there is exactly one setup path and
    /// no backend-specific drift.
    pub build: fn(&Arc<CompiledWorld>, SimConfig, usize) -> Box<dyn Engine + Send>,
}

impl EngineBackend {
    /// Construct this backend's engine from a shared compiled world.
    pub fn build(
        &self,
        world: &Arc<CompiledWorld>,
        cfg: SimConfig,
        threads: usize,
    ) -> Box<dyn Engine + Send> {
        (self.build)(world, cfg, threads)
    }

    /// Compile-then-construct convenience for callers without a shared
    /// world at hand.
    pub fn build_cold(&self, cfg: SimConfig, threads: usize) -> Box<dyn Engine + Send> {
        let world = CompiledWorld::compile(&cfg);
        self.build(&world, cfg, threads)
    }
}

fn build_scalar(
    world: &Arc<CompiledWorld>,
    cfg: SimConfig,
    _threads: usize,
) -> Box<dyn Engine + Send> {
    Box::new(PooledEngine::from_world(world, cfg, 1))
}

fn build_pooled(
    world: &Arc<CompiledWorld>,
    cfg: SimConfig,
    threads: usize,
) -> Box<dyn Engine + Send> {
    Box::new(PooledEngine::from_world(world, cfg, threads))
}

fn build_simt(
    world: &Arc<CompiledWorld>,
    cfg: SimConfig,
    threads: usize,
) -> Box<dyn Engine + Send> {
    let policy = if threads <= 1 {
        ExecPolicy::Sequential
    } else {
        ExecPolicy::Parallel { workers: threads }
    };
    let device = Device::builder().policy(policy).build();
    Box::new(GpuEngine::from_world(world, cfg, device))
}

/// Every registered backend, in presentation order.
pub const BACKENDS: &[EngineBackend] = &[
    EngineBackend {
        name: "scalar",
        summary: "host engine on one thread (inline, no pool)",
        parallel: false,
        build: build_scalar,
    },
    EngineBackend {
        name: "pooled",
        summary: "host engine on a worker pool (row-bucket tasks)",
        parallel: true,
        build: build_pooled,
    },
    EngineBackend {
        name: "simt",
        summary: "virtual-GPU kernel pipeline (sequential or parallel policy)",
        parallel: true,
        build: build_simt,
    },
];

/// Look up a backend descriptor by registry key.
pub fn lookup(name: &str) -> Result<&'static EngineBackend, UnknownBackend> {
    BACKENDS
        .iter()
        .find(|b| b.name == name)
        .ok_or_else(|| UnknownBackend {
            requested: name.to_string(),
        })
}

/// All registered backend names, in presentation order.
pub fn names() -> Vec<&'static str> {
    BACKENDS.iter().map(|b| b.name).collect()
}

/// The requested backend name is not in the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend {
    /// The name the caller asked for.
    pub requested: String,
}

impl std::fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown backend {:?}; known backends: {}",
            self.requested,
            names().join(", ")
        )
    }
}

impl std::error::Error for UnknownBackend {}

/// A backend *selection*: a registry key plus a worker thread count —
/// the value jobs and benches carry around and record in provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backend {
    /// Registry key to resolve at build time.
    pub name: String,
    /// Worker threads for parallel backends (serial backends ignore it;
    /// clamped to at least 1 at build time).
    pub threads: usize,
}

impl Backend {
    /// Select a backend by name with a thread count.
    pub fn named(name: impl Into<String>, threads: usize) -> Self {
        Self {
            name: name.into(),
            threads: threads.max(1),
        }
    }

    /// The host engine on one thread (inline dispatch, no pool).
    pub fn scalar() -> Self {
        Self::named("scalar", 1)
    }

    /// The host engine on a pool of `threads` workers.
    pub fn pooled(threads: usize) -> Self {
        Self::named("pooled", threads)
    }

    /// The virtual-GPU engine (sequential policy).
    pub fn simt() -> Self {
        Self::named("simt", 1)
    }

    /// Resolve the selection against the registry (the runner's
    /// validation hook — fails with the typed error before any run
    /// starts).
    pub fn resolve(&self) -> Result<&'static EngineBackend, UnknownBackend> {
        lookup(&self.name)
    }

    /// Resolve and construct the engine (compiles the world itself; use
    /// [`Backend::build_from_world`] to share a compiled artifact).
    pub fn build(&self, cfg: SimConfig) -> Result<Box<dyn Engine + Send>, UnknownBackend> {
        Ok(self.resolve()?.build_cold(cfg, self.threads))
    }

    /// Resolve and construct the engine over a shared compiled world —
    /// the runner's per-replica path.
    pub fn build_from_world(
        &self,
        world: &Arc<CompiledWorld>,
        cfg: SimConfig,
    ) -> Result<Box<dyn Engine + Send>, UnknownBackend> {
        Ok(self.resolve()?.build(world, cfg, self.threads))
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/t{}", self.name, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ModelKind;
    use pedsim_grid::EnvConfig;

    fn small_cfg() -> SimConfig {
        SimConfig::new(EnvConfig::small(16, 16, 8).with_seed(3), ModelKind::lem())
    }

    #[test]
    fn registry_lists_three_backends() {
        assert_eq!(names(), vec!["scalar", "pooled", "simt"]);
        assert!(!lookup("scalar").unwrap().parallel);
        assert!(lookup("pooled").unwrap().parallel);
    }

    #[test]
    fn unknown_backend_is_a_typed_error() {
        let err = lookup("cuda").unwrap_err();
        assert_eq!(err.requested, "cuda");
        let msg = err.to_string();
        assert!(msg.contains("cuda") && msg.contains("pooled"), "{msg}");
        let err2 = Backend::named("opencl", 2).resolve().unwrap_err();
        assert_eq!(err2.requested, "opencl");
    }

    #[test]
    fn every_backend_builds_and_steps() {
        for b in BACKENDS {
            let mut e = b.build_cold(small_cfg(), 2);
            e.run(3);
            assert_eq!(e.steps_done(), 3, "{}", b.name);
        }
    }

    #[test]
    fn all_backends_share_one_compiled_world_bit_for_bit() {
        // One compilation serves every backend; trajectories match a
        // backend that compiled its own world.
        let world = CompiledWorld::compile(&small_cfg());
        let mut reference = Backend::scalar().build(small_cfg()).expect("known");
        reference.run(12);
        for b in BACKENDS {
            let mut e = b.build(&world, small_cfg(), 2);
            e.run(12);
            assert_eq!(e.mat_snapshot(), reference.mat_snapshot(), "{}", b.name);
            assert_eq!(e.positions(), reference.positions(), "{}", b.name);
        }
    }

    #[test]
    fn selections_agree_bit_for_bit() {
        let mut snaps = Vec::new();
        for sel in [
            Backend::scalar(),
            Backend::pooled(1),
            Backend::pooled(4),
            Backend::simt(),
            Backend::named("simt", 3),
        ] {
            let mut e = sel.build(small_cfg()).expect("known backend");
            e.run(12);
            snaps.push((sel.to_string(), e.mat_snapshot(), e.positions()));
        }
        for (name, mat, pos) in &snaps[1..] {
            assert_eq!(mat, &snaps[0].1, "{name} diverged from scalar");
            assert_eq!(pos, &snaps[0].2, "{name} positions diverged");
        }
    }

    #[test]
    fn thread_count_floors_at_one() {
        let b = Backend::named("pooled", 0);
        assert_eq!(b.threads, 1);
        assert_eq!(b.to_string(), "pooled/t1");
    }
}
