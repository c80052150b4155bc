//! The three workloads and what one pass of each does.
//!
//! A pass runs a workload end to end from scratch with a fixed step
//! budget: scenario build, world compile, engine build, warmup, measured
//! steps, report and registry row. A run repeats passes of identical
//! work, so every deterministic count and fingerprint must repeat
//! exactly between passes. Output checks run outside the timed segments.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use pedsim_core::engine::{Backend, Engine, Stage, StepTimings, StopCondition, StopReason};
use pedsim_core::metrics::{band_count, lane_index, segregation_index};
use pedsim_core::params::{IterationMode, ModelKind, SimConfig};
use pedsim_core::world::{CacheStats, CompiledWorld, WorldCache};
use pedsim_grid::EnvConfig;
use pedsim_obs::hash::Fnv64;
use pedsim_runner::{Batch, BatchReport, Job, RunResult, FLUX_REPORT_WINDOW};
use pedsim_scenario::registry as scenarios;

use crate::check;
use crate::trace::Tracer;

/// Registry `bench` column of every row the benchmark appends.
const REGISTRY_BENCH: &str = "perfbench";

/// A closed `paper_corridor` driven one `Engine::step` at a time on the
/// `scalar` backend.
pub struct Corridor {
    /// Workload name.
    pub name: &'static str,
    /// Grid side.
    pub side: usize,
    /// Agents per group.
    pub per_side: usize,
    /// ACO (true) or LEM (false).
    pub aco: bool,
    /// Untimed-for-throughput warmup steps (the oracle prefix).
    pub warmup: u64,
    /// Measured steps per pass.
    pub steps: u64,
}

/// One `Batch::new(1)` over seed-varied `open_crossing` replicas ×
/// {LEM, ACO} on `pooled` with one thread.
pub struct OpenBatch {
    /// Plaza side.
    pub side: usize,
    /// Slot capacity per stream.
    pub slots: usize,
    /// Inflow per stream, agents per step.
    pub rate: f64,
    /// Seed-varied replicas per model.
    pub seeds: usize,
    /// Warmup steps per job.
    pub warmup: u64,
    /// Measured steps per job.
    pub steps: u64,
    /// Step at which the check replay is compared with the oracle,
    /// inside the measured steps so that agents interact.
    pub oracle_at: u64,
}

/// The paper's headline model on the paper's 480×480 geometry.
pub const CORRIDOR_ACO: Corridor = Corridor {
    name: "corridor_aco",
    side: 480,
    per_side: 12_800,
    aco: true,
    warmup: 10,
    steps: 150,
};

/// A jammed 256×256 corridor at 49% occupancy.
pub const JAM_LEM: Corridor = Corridor {
    name: "jam_lem",
    side: 256,
    per_side: 16_000,
    aco: false,
    warmup: 10,
    steps: 200,
};

/// The open-boundary batch.
pub const OPEN_BATCH: OpenBatch = OpenBatch {
    side: 256,
    slots: 3_000,
    rate: 8.0,
    seeds: 2,
    warmup: 10,
    steps: 400,
    oracle_at: 100,
};

/// Deterministic work counts of one pass (measured steps only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Measured steps.
    pub steps: u64,
    /// Σ live agents at the start of each measured step.
    pub agent_steps: u64,
    /// Cell changes.
    pub moves: u64,
    /// Target arrivals (crossing events on open worlds).
    pub crossings: u64,
    /// Items the kernels traverse: cells per step for dense, live
    /// agents per step for sparse.
    pub kernel_items: u64,
    /// World-cache traffic.
    pub cache: CacheStats,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.steps += o.steps;
        self.agent_steps += o.agent_steps;
        self.moves += o.moves;
        self.crossings += o.crossings;
        self.kernel_items += o.kernel_items;
    }
}

/// Timings, counts and check results of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Timed wall of the pass, output checks excluded.
    pub wall: f64,
    /// Scenario build + world compile or fetch + engine build (engine
    /// build happens inside the batch on `open_batch`).
    pub setup: f64,
    /// Scenario construction (`scenarios::*`, i.e. `ScenarioBuilder::build`).
    pub scenario: f64,
    /// World compile or cache fetch.
    pub world: f64,
    /// Engine build (`Backend::build_from_world`).
    pub engine_build: f64,
    /// Warmup steps.
    pub warmup: f64,
    /// Measured steps.
    pub steps: u64,
    /// Wall time of the measured steps.
    pub step_wall: f64,
    /// `step_timings()` over the measured steps, s per stage in
    /// `Stage::ALL` order.
    pub stages: [f64; Stage::COUNT],
    /// Run phase: the `Batch::try_run` call, or the benchmark's own step
    /// loop on the stepped workloads.
    pub batch: f64,
    /// Run-phase time outside what the engines report: `batch` minus
    /// Σ(setup + wall) of the results, or the step loop minus its stage
    /// time.
    pub overhead: f64,
    /// Building and writing the report JSON.
    pub report_json: f64,
    /// Report size.
    pub report_bytes: u64,
    /// Registry append.
    pub registry: f64,
    /// Deterministic counts.
    pub counts: Counts,
    /// Final state fingerprint (stepped) or deterministic report hash
    /// (batch).
    pub fingerprint: u64,
    /// State fingerprint after the warmup prefix (stepped workloads).
    pub prefix: u64,
    /// Per-step wall times of traced steps, ms.
    pub step_ms: Vec<f64>,
    /// Output-check failures found inside the pass.
    pub failures: Vec<String>,
    /// The batch's results (batch workload), for the replay check.
    pub results: Vec<RunResult>,
    /// Root span of the pass in the trace.
    pub span: usize,
}

/// Per-run check output.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Failures that apply to every pass whose fingerprint matches the
    /// first pass.
    pub failures: Vec<String>,
    /// Replicas per pass.
    pub replicas: u64,
    /// Counts measured by the replay (batch workload).
    pub counts: Option<Counts>,
    /// Engine builds timed by the replay, s.
    pub engine_build: Vec<f64>,
    /// Warmups timed by the replay, s.
    pub warmup: Vec<f64>,
    /// Per-step wall times timed by the replay, ms.
    pub step_ms: Vec<f64>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn model(aco: bool) -> ModelKind {
    if aco {
        ModelKind::aco()
    } else {
        ModelKind::lem()
    }
}

/// One `Engine::step`, with a span and the stage split as children when
/// tracing. Returns the step's wall time in ms when traced or `timed`.
fn step(engine: &mut dyn Engine, tr: &mut Tracer, timed: bool) -> Option<f64> {
    if !tr.on() {
        if !timed {
            engine.step();
            return None;
        }
        let t = Instant::now();
        engine.step();
        return Some(secs(t) * 1e3);
    }
    let before = engine.step_timings().clone();
    let id = tr.open("step", "pedsim-core::engine");
    engine.step();
    tr.close(id);
    let split = engine.step_timings().delta(&before);
    tr.stages(id, &split);
    Some(tr.dur(id).as_secs_f64() * 1e3)
}

/// Run `n` measured steps, counting live agents and kernel items; step
/// wall times go to `samples` when traced or `timed`.
fn measured_steps(
    engine: &mut dyn Engine,
    n: u64,
    tr: &mut Tracer,
    timed: bool,
    samples: &mut Vec<f64>,
) -> Counts {
    let m0 = engine
        .metrics()
        .map_or((0, 0), |m| (m.total_moves, m.throughput()));
    let mut c = Counts {
        steps: n,
        ..Counts::default()
    };
    for _ in 0..n {
        c.agent_steps += engine.metrics().map_or(0, |m| m.live_count()) as u64;
        if let Some(ms) = step(engine, tr, timed) {
            samples.push(ms);
        }
    }
    if let Some(m) = engine.metrics() {
        c.moves = m.total_moves - m0.0;
        c.crossings = (m.throughput() - m0.1) as u64;
    }
    c.kernel_items = match engine.iteration_mode() {
        IterationMode::Dense => {
            let mat = engine.mat_snapshot();
            (mat.width() * mat.height()) as u64 * n
        }
        _ => c.agent_steps,
    };
    c
}

/// Write the report JSON and append registry rows, timing both.
fn write_outputs(
    report: &BatchReport,
    out: &Path,
    tr: &mut Tracer,
    p: &mut Pass,
) -> Result<(), String> {
    let s = tr.open("runner.report_json", "pedsim-runner");
    let t = Instant::now();
    let json = report.to_json_with_timing();
    fs::write(out.join("report.json"), &json).map_err(|e| format!("write report: {e}"))?;
    p.report_json = secs(t);
    p.report_bytes = json.len() as u64;
    tr.close(s);

    let s = tr.open("obs.registry_append", "pedsim-obs");
    let t = Instant::now();
    let rows: Vec<_> = report
        .results
        .iter()
        .map(|r| r.registry_row(REGISTRY_BENCH, &r.label, "checkout"))
        .collect();
    pedsim_obs::registry::append(&out.join("registry.csv"), &rows)
        .map_err(|e| format!("append registry: {e}"))?;
    p.registry = secs(t);
    tr.close(s);
    Ok(())
}

/// Run `f` as an untimed check span; its duration is returned so the
/// caller can take it out of the pass wall.
fn untimed<R>(tr: &mut Tracer, f: impl FnOnce() -> R) -> (R, Duration) {
    let s = tr.open("check", "check");
    let t = Instant::now();
    let r = f();
    let d = t.elapsed();
    tr.close(s);
    (r, d)
}

impl Corridor {
    fn config(&self, seed: u64) -> SimConfig {
        let env = EnvConfig::small(self.side, self.side, self.per_side).with_seed(seed);
        SimConfig::from_scenario(&scenarios::paper_corridor(&env), model(self.aco))
    }

    /// One pass over `seed`, writing outputs into `out`.
    pub fn pass(&self, seed: u64, tr: &mut Tracer, out: &Path) -> Result<Pass, String> {
        let _ = fs::remove_file(out.join("registry.csv"));
        let mut p = Pass {
            span: tr.open("pass", "bench"),
            ..Pass::default()
        };
        let t_pass = Instant::now();
        let mut skipped = Duration::ZERO;

        let s = tr.open("scenario.build", "pedsim-scenario");
        let t = Instant::now();
        let cfg = self.config(seed);
        p.scenario = secs(t);
        tr.close(s);

        let s = tr.open("world.get_or_compile", "pedsim-core::world");
        let t = Instant::now();
        let cache = WorldCache::default();
        let world = cache.get_or_compile(&cfg);
        p.world = secs(t);
        tr.close(s);
        p.counts.cache = cache.stats();

        let s = tr.open("engine.build", "pedsim-core::engine::registry");
        let t = Instant::now();
        let mut engine = Backend::scalar()
            .build_from_world(&world, cfg.clone())
            .map_err(|e| e.to_string())?;
        p.engine_build = secs(t);
        tr.close(s);
        p.setup = p.scenario + p.world + p.engine_build;

        let s = tr.open("engine.warmup", "pedsim-core::engine");
        let t = Instant::now();
        for _ in 0..self.warmup {
            step(&mut *engine, tr, false);
        }
        p.warmup = secs(t);
        tr.close(s);

        let (prefix, d) = untimed(tr, || check::fingerprint(&*engine));
        p.prefix = prefix;
        skipped += d;

        let s = tr.open("run", "bench");
        let before = engine.step_timings().clone();
        let t = Instant::now();
        let counts = measured_steps(&mut *engine, self.steps, tr, false, &mut p.step_ms);
        p.step_wall = secs(t);
        tr.close(s);
        let stages = engine.step_timings().delta(&before);
        p.stages = stage_secs(&stages);
        p.steps = self.steps;
        p.batch = p.step_wall;
        p.overhead = p.step_wall - stages.total().as_secs_f64();
        p.counts = Counts {
            cache: p.counts.cache,
            ..counts
        };

        let (checked, d) = untimed(tr, || {
            (
                check::conservation(&*engine, true),
                check::fingerprint(&*engine),
            )
        });
        skipped += d;
        if let Err(e) = checked.0 {
            p.failures.push(format!("conservation: {e}"));
        }
        p.fingerprint = checked.1;

        // The report the runner would write for this replica: the same
        // fields `Batch` fills in, aggregated by `BatchReport`.
        let s = tr.open("runner.result", "pedsim-runner");
        let t = Instant::now();
        let m = engine.metrics().ok_or("metrics are off")?;
        let mat = engine.mat_snapshot();
        let result = RunResult {
            label: self.name.to_string(),
            world: "paper_corridor".to_string(),
            model: engine.model().name().to_string(),
            engine: "scalar",
            backend: "scalar",
            threads: 1,
            mode: engine.iteration_mode().name(),
            config: world.fingerprint(),
            seed,
            agents: 2 * self.per_side,
            steps: self.steps,
            stop: StopReason::StepBudget,
            throughput: Some(m.throughput()),
            flux: m.windowed_flux(FLUX_REPORT_WINDOW),
            live: Some(m.live_count()),
            total_moves: Some(m.total_moves),
            lane_index: Some(lane_index(&mat)),
            bands: Some(band_count(&mat)),
            segregation: Some(segregation_index(&mat)),
            gridlock_risk: m.gridlock_warning(FLUX_REPORT_WINDOW),
            setup: Duration::from_secs_f64(p.setup),
            wall: Duration::from_secs_f64(p.step_wall),
            stages,
        };
        let report = BatchReport::from_results(vec![result]);
        let result_s = secs(t);
        tr.close(s);
        write_outputs(&report, out, tr, &mut p)?;
        p.report_json += result_s;

        p.wall = t_pass.elapsed().saturating_sub(skipped).as_secs_f64();
        tr.close(p.span);
        Ok(p)
    }

    /// Once per run: replay the warmup prefix on the dense `simt`
    /// oracle and compare with the prefix every pass saw.
    pub fn check(&self, seed: u64, first: &Pass, tr: &mut Tracer) -> Verdict {
        let mut v = Verdict {
            replicas: 1,
            ..Verdict::default()
        };
        let s = tr.open("check.oracle", "check");
        let cfg = self.config(seed);
        let world = CompiledWorld::compile(&cfg);
        match check::oracle(&world, &cfg, self.warmup) {
            Ok(fp) if fp == first.prefix => {}
            Ok(fp) => v.failures.push(format!(
                "step {}: scalar fingerprint {:016x} != dense simt oracle {fp:016x}",
                self.warmup, first.prefix
            )),
            Err(e) => v.failures.push(format!("oracle: {e}")),
        }
        tr.close(s);
        v
    }
}

impl OpenBatch {
    fn jobs(&self, seeds: &[u64]) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (k, &seed) in seeds.iter().enumerate() {
            let scenario =
                scenarios::open_crossing(self.side, self.slots, self.rate).with_seed(seed);
            for aco in [false, true] {
                let cfg = SimConfig::from_scenario(&scenario, model(aco));
                let label = format!("s{k}/{}", cfg.model.name());
                jobs.push(
                    Job::backend(
                        label,
                        cfg,
                        Backend::pooled(1),
                        StopCondition::Steps(self.warmup + self.steps),
                    )
                    .with_warmup(self.warmup),
                );
            }
        }
        jobs
    }

    /// One pass over the replica seeds, writing outputs into `out`.
    pub fn pass(&self, seeds: &[u64], tr: &mut Tracer, out: &Path) -> Result<Pass, String> {
        let _ = fs::remove_file(out.join("registry.csv"));
        let mut p = Pass {
            span: tr.open("pass", "bench"),
            ..Pass::default()
        };
        let t_pass = Instant::now();

        let s = tr.open("scenario.build", "pedsim-scenario");
        let t = Instant::now();
        let jobs = self.jobs(seeds);
        p.scenario = secs(t);
        tr.close(s);

        let s = tr.open("runner.batch", "pedsim-runner");
        let t = Instant::now();
        let batch = Batch::new(1);
        let report = batch.try_run(&jobs).map_err(|e| e.to_string())?;
        p.counts.cache = batch.cache_stats();
        drop(batch);
        p.batch = secs(t);
        tr.close(s);
        self.trace_jobs(tr, s, p.batch, &jobs, &report);

        let rs = &report.results;
        p.world = rs.iter().map(|r| r.setup.as_secs_f64()).sum();
        p.setup = p.scenario + p.world;
        p.steps = rs.iter().map(|r| r.steps).sum();
        p.step_wall = rs.iter().map(|r| r.wall.as_secs_f64()).sum();
        p.overhead = p.batch - p.world - p.step_wall;
        for r in rs {
            for (sum, s) in p.stages.iter_mut().zip(stage_secs(&r.stages)) {
                *sum += s;
            }
        }
        p.counts.steps = p.steps;
        p.fingerprint = Fnv64::new().str(&report.to_json()).finish();

        write_outputs(&report, out, tr, &mut p)?;
        p.wall = secs(t_pass);
        p.results = report.results;
        tr.close(p.span);
        Ok(p)
    }

    /// Lay the batch's per-job world fetches and runs out as derived
    /// children of the batch span, in job order: world fetches first (the
    /// batch resolves them serially before dispatch), then each job's run
    /// with its stage split, the unreported remainder (engine build,
    /// warmup, dispatch) spread evenly before each run.
    fn trace_jobs(
        &self,
        tr: &mut Tracer,
        span: usize,
        batch_s: f64,
        jobs: &[Job],
        report: &BatchReport,
    ) {
        if !tr.on() {
            return;
        }
        let rs: Vec<&RunResult> = jobs
            .iter()
            .filter_map(|j| report.results.iter().find(|r| r.label == j.label))
            .collect();
        let mut at = Duration::ZERO;
        for r in &rs {
            tr.derived(span, "job.world", "pedsim-core::world", at, r.setup);
            at += r.setup;
        }
        let busy: Duration = rs.iter().map(|r| r.setup + r.wall).sum();
        let gap = Duration::from_secs_f64(batch_s).saturating_sub(busy) / rs.len().max(1) as u32;
        for r in &rs {
            at += gap;
            let id = tr.derived(span, "job.run", "pedsim-runner", at, r.wall);
            tr.stages(id, &r.stages);
            at += r.wall;
        }
    }

    /// Once per run: replay every job of the batch one step at a time on
    /// its own backend, compare what it reports with the batch's result,
    /// check conservation, and compare the state at step `oracle_at`
    /// with the dense `simt` oracle. The replay also times engine build, warmup and
    /// single steps, which the batch does not report.
    pub fn check(&self, seeds: &[u64], first: &Pass, tr: &mut Tracer) -> Verdict {
        let jobs = self.jobs(seeds);
        let mut v = Verdict {
            replicas: jobs.len() as u64,
            ..Verdict::default()
        };
        let mut total = Counts::default();
        for job in &jobs {
            let s = tr.open("check.replay", "check");
            if let Err(e) = self.replay(job, first, tr, &mut v, &mut total) {
                v.failures.push(format!("{}: {e}", job.label));
            }
            tr.close(s);
        }
        v.counts = Some(total);
        v
    }

    fn replay(
        &self,
        job: &Job,
        first: &Pass,
        tr: &mut Tracer,
        v: &mut Verdict,
        total: &mut Counts,
    ) -> Result<(), String> {
        let r = first
            .results
            .iter()
            .find(|r| r.label == job.label)
            .ok_or("no batch result")?;
        let world = CompiledWorld::compile(&job.cfg);

        let s = tr.open("engine.build", "pedsim-core::engine::registry");
        let t = Instant::now();
        let mut engine = Backend::pooled(1)
            .build_from_world(&world, job.cfg.clone())
            .map_err(|e| e.to_string())?;
        v.engine_build.push(secs(t));
        tr.close(s);

        let s = tr.open("engine.warmup", "pedsim-core::engine");
        let t = Instant::now();
        for _ in 0..self.warmup {
            step(&mut *engine, tr, false);
        }
        v.warmup.push(secs(t));
        tr.close(s);

        let s = tr.open("run", "bench");
        let first = self.oracle_at - self.warmup;
        let mut c = measured_steps(&mut *engine, first, tr, true, &mut v.step_ms);
        let prefix = check::fingerprint(&*engine);
        c.add(&measured_steps(
            &mut *engine,
            self.steps - first,
            tr,
            true,
            &mut v.step_ms,
        ));
        tr.close(s);
        total.add(&c);

        let m = engine.metrics().ok_or("metrics are off")?;
        let got = (
            self.steps,
            Some(m.total_moves),
            Some(m.throughput()),
            Some(m.live_count()),
        );
        let want = (r.steps, r.total_moves, r.throughput, r.live);
        if got != want {
            return Err(format!(
                "replay (steps, moves, throughput, live) {got:?} != batch result {want:?}"
            ));
        }
        check::conservation(&*engine, false)?;
        let spawned = m.throughput() + m.live_count();
        if c.crossings == 0
            || spawned <= job.cfg.scenario.as_ref().map_or(0, |s| s.total_capacity())
        {
            return Err(format!(
                "workload did not recycle slots: {} crossings, {spawned} spawns",
                c.crossings
            ));
        }
        let oracle = check::oracle(&world, &job.cfg, self.oracle_at)?;
        if oracle != prefix {
            return Err(format!(
                "step {}: pooled fingerprint {prefix:016x} != dense simt oracle {oracle:016x}",
                self.oracle_at
            ));
        }
        Ok(())
    }
}

/// Per-stage seconds of a timing record, in `Stage::ALL` order.
fn stage_secs(t: &StepTimings) -> [f64; Stage::COUNT] {
    Stage::ALL.map(|stage| t.of(stage).as_secs_f64())
}
