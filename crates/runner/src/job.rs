//! Job descriptions: one independent replica per [`Job`].

use pedsim_core::engine::{Backend, InvalidStopCondition, StopCondition, UnknownBackend};
use pedsim_core::params::SimConfig;
use simt::Device;

/// Why a [`Job`] is rejected before execution.
///
/// Caught at batch construction — the alternative is a panic deep inside
/// a `WorkerPool` worker mid-batch, long after the configuration mistake
/// was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job's stop condition can never be evaluated.
    InvalidStop {
        /// The offending job's label.
        label: String,
        /// What is wrong with the condition.
        source: InvalidStopCondition,
    },
    /// The job names a backend the registry does not know.
    UnknownBackend {
        /// The offending job's label.
        label: String,
        /// The registry's typed lookup error (lists the known names).
        source: UnknownBackend,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidStop { label, source } => {
                write!(f, "job {label:?}: {source}")
            }
            Self::UnknownBackend { label, source } => {
                write!(f, "job {label:?}: {source}")
            }
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidStop { source, .. } => Some(source),
            Self::UnknownBackend { source, .. } => Some(source),
        }
    }
}

/// Which engine executes a job.
///
/// Batch parallelism comes from running many replicas concurrently, so
/// the default GPU selection is a **sequential** device — nesting a
/// parallel device inside every batch worker would oversubscribe the
/// host without changing any trajectory (engines are schedule-
/// independent). Pass an explicit parallel device (e.g. for a
/// single-job timing batch) via [`EngineSel::Gpu`]; sharing one
/// parallel device across concurrent jobs is safe (its pool serializes
/// launches) but makes them take turns.
#[derive(Debug, Clone)]
pub enum EngineSel {
    /// The single-threaded reference engine.
    Cpu,
    /// The virtual-GPU engine on the given device.
    Gpu(Device),
    /// A registry backend selected by name (`scalar` / `pooled` / `simt`),
    /// resolved at validation time — an unknown name is a typed
    /// [`JobError::UnknownBackend`], never a worker panic.
    Backend(Backend),
}

impl EngineSel {
    /// Stable name for reports ("cpu" / "gpu", or the registry key for
    /// [`EngineSel::Backend`] jobs).
    pub fn name(&self) -> &'static str {
        match self {
            EngineSel::Cpu => "cpu",
            EngineSel::Gpu(_) => "gpu",
            // Resolve to the registry's static name; validation catches
            // unknown names before any report is written.
            EngineSel::Backend(b) => b.resolve().map_or("unknown", |d| d.name),
        }
    }

    /// Backend provenance for results: the registry key and thread count
    /// actually executing this job. The legacy selectors map onto their
    /// registry equivalents (`Cpu` → `scalar`/1, `Gpu` → `simt` with the
    /// device's worker count); a serial backend runs on one thread
    /// whatever thread count was requested.
    pub fn backend_sel(&self) -> (&'static str, usize) {
        match self {
            EngineSel::Cpu => ("scalar", 1),
            EngineSel::Gpu(device) => ("simt", device.worker_count()),
            EngineSel::Backend(b) => match b.resolve() {
                Ok(d) if !d.parallel => (d.name, 1),
                Ok(d) => (d.name, b.threads),
                Err(_) => ("unknown", b.threads),
            },
        }
    }
}

/// One replica: a configuration (scenario × model × seed), an engine, and
/// a stop condition.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-chosen label grouping related replicas in reports (e.g.
    /// `"density07/ACO"`). Need not be unique: the canonical result
    /// order falls back to world/model/engine/seed within a label.
    pub label: String,
    /// Full simulation configuration. Metric-based stop conditions and
    /// per-run metrics in the report require `track_metrics` (on by
    /// default); timing protocols may switch it off and stop on
    /// [`StopCondition::Steps`] alone.
    pub cfg: SimConfig,
    /// Engine selection.
    pub engine: EngineSel,
    /// When this replica is done.
    pub stop: StopCondition,
    /// Untimed warmup steps executed before the measured loop starts.
    /// The reported `steps`, `wall`, and `stages` cover the measured
    /// phase only; caches are hot and allocators settled by the time the
    /// clock starts. Step-counting stop conditions see the engine's
    /// *total* step count, so a warmup-`w` job stopping on
    /// [`StopCondition::Steps`]`(w + n)` measures exactly `n` steps.
    pub warmup: u64,
}

impl Job {
    /// A GPU job on a fresh **sequential** device (the batch default; see
    /// [`EngineSel`]).
    pub fn gpu(label: impl Into<String>, cfg: SimConfig, stop: StopCondition) -> Self {
        Self {
            label: label.into(),
            cfg,
            engine: EngineSel::Gpu(Device::sequential()),
            stop,
            warmup: 0,
        }
    }

    /// A GPU job on an explicit device (shared pools, parallel policies,
    /// profiling devices).
    pub fn on_device(
        label: impl Into<String>,
        cfg: SimConfig,
        device: Device,
        stop: StopCondition,
    ) -> Self {
        Self {
            label: label.into(),
            cfg,
            engine: EngineSel::Gpu(device),
            stop,
            warmup: 0,
        }
    }

    /// A CPU-reference job.
    pub fn cpu(label: impl Into<String>, cfg: SimConfig, stop: StopCondition) -> Self {
        Self {
            label: label.into(),
            cfg,
            engine: EngineSel::Cpu,
            stop,
            warmup: 0,
        }
    }

    /// A job on a registry backend selected by name and thread count.
    pub fn backend(
        label: impl Into<String>,
        cfg: SimConfig,
        backend: Backend,
        stop: StopCondition,
    ) -> Self {
        Self {
            label: label.into(),
            cfg,
            engine: EngineSel::Backend(backend),
            stop,
            warmup: 0,
        }
    }

    /// Builder: run `steps` untimed warmup steps before the measured
    /// loop (see [`Job::warmup`]). Remember that step-counting stop
    /// conditions count warmup steps too.
    pub fn with_warmup(mut self, steps: u64) -> Self {
        self.warmup = steps;
        self
    }

    /// Check the job's run description without executing it — the batch
    /// runner validates every job up front so a misconfigured stop
    /// condition surfaces as a typed error on the calling thread, never a
    /// worker panic mid-batch. Covers both the condition's parameters and
    /// its fit with this job's engine configuration: a metric-based stop
    /// on a `track_metrics`-off config can never fire.
    pub fn validate(&self) -> Result<(), JobError> {
        self.stop
            .validate_for(self.cfg.track_metrics)
            .map_err(|source| JobError::InvalidStop {
                label: self.label.clone(),
                source,
            })?;
        if let EngineSel::Backend(b) = &self.engine {
            b.resolve().map_err(|source| JobError::UnknownBackend {
                label: self.label.clone(),
                source,
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedsim_core::params::ModelKind;
    use pedsim_grid::EnvConfig;

    #[test]
    fn constructors_select_engines() {
        let cfg = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem());
        let g = Job::gpu("g", cfg.clone(), StopCondition::Steps(1));
        let c = Job::cpu("c", cfg.clone(), StopCondition::Steps(1));
        assert_eq!(g.engine.name(), "gpu");
        assert_eq!(c.engine.name(), "cpu");
        let d = Job::on_device("d", cfg, Device::parallel(), StopCondition::Steps(1));
        assert_eq!(d.engine.name(), "gpu");
    }

    #[test]
    fn backend_jobs_resolve_and_report_provenance() {
        let cfg = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem());
        // A serial backend reports the one thread it runs on, whatever
        // thread count the selection carries.
        for (backend, name, threads) in [
            (Backend::pooled(4), "pooled", 4),
            (Backend::named("scalar", 4), "scalar", 1),
        ] {
            let j = Job::backend("p", cfg.clone(), backend, StopCondition::Steps(1));
            assert_eq!(j.engine.name(), name);
            assert_eq!(j.engine.backend_sel(), (name, threads));
            assert!(j.validate().is_ok());
        }
        // The legacy selectors map onto their registry equivalents.
        assert_eq!(EngineSel::Cpu.backend_sel(), ("scalar", 1));
        let (name, _) = Job::gpu("g", cfg, StopCondition::Steps(1))
            .engine
            .backend_sel();
        assert_eq!(name, "simt");
    }

    #[test]
    fn unknown_backend_is_a_typed_job_error() {
        let cfg = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem());
        let j = Job::backend(
            "mystery",
            cfg,
            Backend::named("cuda", 2),
            StopCondition::Steps(1),
        );
        let err = j.validate().unwrap_err();
        assert!(matches!(err, JobError::UnknownBackend { ref label, .. } if label == "mystery"));
        let msg = err.to_string();
        assert!(msg.contains("cuda") && msg.contains("scalar"), "{msg}");
    }

    #[test]
    fn validate_flags_oversized_gridlock_patience() {
        use pedsim_core::metrics::MAX_GRIDLOCK_PATIENCE;
        let cfg = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem());
        let ok = Job::gpu(
            "ok",
            cfg.clone(),
            StopCondition::settled_or_steps(100, 1, 32),
        );
        assert_eq!(ok.validate(), Ok(()));
        let bad = Job::cpu(
            "too-patient",
            cfg,
            StopCondition::Gridlocked {
                threshold: 1,
                patience: MAX_GRIDLOCK_PATIENCE + 7,
            },
        );
        let err = bad.validate().unwrap_err();
        assert!(matches!(err, JobError::InvalidStop { ref label, .. } if label == "too-patient"));
        assert!(err.to_string().contains("gridlock patience"));
    }

    #[test]
    fn validate_flags_metric_stop_on_metrics_off_config() {
        // The old failure mode was a documented "caller bug" panic deep in
        // StopCondition::check, raised on a worker thread mid-batch; the
        // job check now rejects the description up front.
        let cfg = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem()).with_metrics(false);
        for stop in [
            StopCondition::AllArrived,
            StopCondition::settled_or_steps(100, 1, 8),
            StopCondition::steady_or_steps(100, 0.5, 8),
        ] {
            let job = Job::cpu("dark", cfg.clone(), stop);
            let err = job.validate().unwrap_err();
            assert!(err.to_string().contains("track_metrics"), "{err}");
        }
        // A pure step budget needs no metrics; metrics-on configs accept
        // metric-based stops as before.
        assert!(Job::cpu("ok", cfg.clone(), StopCondition::Steps(10))
            .validate()
            .is_ok());
        let tracked = SimConfig::new(EnvConfig::small(16, 16, 4), ModelKind::lem());
        assert!(Job::cpu("ok", tracked, StopCondition::AllArrived)
            .validate()
            .is_ok());
    }
}
