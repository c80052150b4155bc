//! Step throughput of the unified engine pipeline: per-stage wall time,
//! steps/second, and the scalar-over-simt ratio — the repo's perf
//! trajectory.
//!
//! The paper's headline result is per-kernel speedup of the four-stage
//! pipeline over its single-threaded CPU counterpart; the unified
//! `StepCore` times every stage of **both** sides of that comparison
//! (the one-thread host engine `scalar` and the virtual GPU `simt`)
//! through one code path, so it is measurable end-to-end instead of
//! modelled. This harness runs a closed and an open registry world on
//! both backends ([`PAIR_BACKENDS`]), aggregates the per-stage
//! [`pedsim_core::engine::StepTimings`] that `pedsim_runner` surfaces on
//! every [`RunResult`](pedsim_runner::RunResult), and writes
//! `results/step_throughput_<scale>.{csv,json}` plus the repo-root
//! `BENCH_step_throughput.json` record that every subsequent optimisation
//! PR is judged against.
//!
//! Every number here is wall-clock and therefore non-deterministic; the
//! record captures *shape* (which stages dominate, how far apart the
//! backends sit), not bit-stable bytes.
//!
//! The **scale ladder** rides alongside the world×backend matrix: the
//! classic corridor at growing grid sides (96 → 1024 → 4096; roughly
//! 10³ → 10⁵ → 10⁶ agents, the larger rungs behind the default/paper
//! scales) swept across every backend-registry configuration
//! ([`LADDER_BACKENDS`]). Ladder rows land in the same JSON record and
//! registry, keyed by backend and thread count.

use std::collections::BTreeSet;

use pedsim_core::engine::{Backend, Stage};
use pedsim_core::prelude::*;
use pedsim_runner::{Batch, BatchReport, Job, RunResult};
use pedsim_scenario::registry;

use crate::report::Table;
use crate::scale::Scale;

/// Step-throughput protocol parameters.
#[derive(Debug, Clone)]
pub struct StConfig {
    /// Grid side (square worlds).
    pub side: usize,
    /// Initial agents per side of the closed corridor.
    pub closed_per_side: usize,
    /// Recyclable slot capacity per side of the open corridor.
    pub open_capacity: usize,
    /// Open-corridor inflow rate (expected arrivals per step per group).
    pub open_rate: f64,
    /// Steps per replica (a pure step budget — timing runs never stop
    /// early, so every replica times exactly this many steps).
    pub steps: u64,
    /// Repeats per (world, backend); timings aggregate across them.
    pub repeats: u64,
    /// Base seed; repeat `k` uses `seed + k`.
    pub seed: u64,
}

impl StConfig {
    /// Protocol for `scale`.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            // The paper's geometry at its mid population (25,600 agents on
            // 480×480). The step budget is a timing sample, not the
            // paper's 25,000-step evaluation budget — per-stage means
            // stabilise within a few hundred steps.
            Scale::Paper => Self {
                side: 480,
                closed_per_side: 12_800,
                open_capacity: 10_000,
                open_rate: 16.0,
                steps: 400,
                repeats: 2,
                seed: 9_300,
            },
            Scale::Default => Self {
                side: 96,
                closed_per_side: 600,
                open_capacity: 500,
                open_rate: 4.0,
                steps: 300,
                repeats: 2,
                seed: 9_300,
            },
            Scale::Smoke => Self {
                side: 32,
                closed_per_side: 30,
                open_capacity: 40,
                open_rate: 2.0,
                steps: 120,
                repeats: 1,
                seed: 9_300,
            },
        }
    }

    /// The measured worlds: one closed, one open registry scenario.
    pub fn worlds(&self) -> [(&'static str, bool); 2] {
        [("paper_corridor", false), ("open_corridor", true)]
    }

    fn scenario(&self, world: &str, seed: u64) -> Scenario {
        match world {
            "paper_corridor" => registry::paper_corridor(
                &EnvConfig::small(self.side, self.side, self.closed_per_side).with_seed(seed),
            ),
            "open_corridor" => {
                registry::open_corridor(self.side, self.side, self.open_capacity, self.open_rate)
                    .with_seed(seed)
            }
            other => panic!("unknown step-throughput world {other:?}"),
        }
    }

    /// The job list: every world × [`PAIR_BACKENDS`] entry × repeat,
    /// labelled `<world>/<backend>`, ACO model (the heavier pipeline —
    /// pheromone scan and update on every stage pass), stopping on the
    /// pure step budget.
    pub fn jobs(&self) -> Vec<Job> {
        let mut jobs = Vec::new();
        for (world, _) in self.worlds() {
            for k in 0..self.repeats {
                let cfg = SimConfig::from_scenario(
                    &self.scenario(world, self.seed + k),
                    ModelKind::aco(),
                );
                for backend in PAIR_BACKENDS {
                    jobs.push(Job::backend(
                        format!("{world}/{backend}"),
                        cfg.clone(),
                        Backend::named(backend, 1),
                        StopCondition::Steps(self.steps),
                    ));
                }
            }
        }
        jobs
    }
}

/// The backend pair the world matrix compares, each on one thread: the
/// paper's single-threaded CPU counterpart and its kernel pipeline.
pub const PAIR_BACKENDS: [&str; 2] = ["scalar", "simt"];

/// One (world, backend) cell of the measurement (repeats aggregated).
#[derive(Debug, Clone)]
pub struct StRow {
    /// Registry world name.
    pub world: &'static str,
    /// Whether the world runs the open-boundary lifecycle.
    pub open: bool,
    /// Backend registry key (one of [`PAIR_BACKENDS`]).
    pub backend: &'static str,
    /// Agents (population for closed worlds, slot capacity for open).
    pub agents: usize,
    /// Total steps timed across repeats.
    pub steps: u64,
    /// Simulated steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Mean milliseconds per step per stage ([`Stage::ALL`] order).
    pub stage_ms: [f64; Stage::COUNT],
    /// The kernel stages the backend declares (from its
    /// [`pedsim_core::engine::StepTimings`]).
    pub kernels: &'static [Stage],
    /// Mean milliseconds per step across all stages.
    pub total_ms: f64,
}

/// Scalar-over-simt time ratio for one world (how much slower the
/// single-threaded host engine is per stage; > 1 means the kernel
/// pipeline wins).
#[derive(Debug, Clone)]
pub struct StRatio {
    /// Registry world name.
    pub world: &'static str,
    /// Total-pipeline ratio.
    pub total: f64,
    /// Per-stage ratios ([`Stage::ALL`] order; 0 when either side
    /// measured zero time, as the host does on stages it does not run).
    pub stages: [f64; Stage::COUNT],
}

/// Run the measurement on `workers` pool threads (1 for clean timings —
/// concurrent replicas contend for cores), returning the raw per-replica
/// report — the journal/registry emitters consume this before
/// [`aggregate`] collapses it into the table.
pub fn run_report(cfg: &StConfig, workers: usize) -> BatchReport {
    Batch::new(workers).run(&cfg.jobs())
}

/// [`run_report`] + [`aggregate`] in one call.
pub fn run(cfg: &StConfig, workers: usize) -> Vec<StRow> {
    aggregate(cfg, &run_report(cfg, workers))
}

/// One cell's timing, the reduction the world matrix and the ladder
/// share: every replica carrying one label summed into steps, steps per
/// wall-clock second, and mean milliseconds per step per stage.
struct CellTiming {
    agents: usize,
    steps: u64,
    steps_per_sec: f64,
    stage_ms: [f64; Stage::COUNT],
    kernels: &'static [Stage],
    total_ms: f64,
}

impl CellTiming {
    /// Reduce the replicas labelled `label`; `None` when there are none.
    fn of(report: &BatchReport, label: &str) -> Option<Self> {
        let results: Vec<&RunResult> = report.with_label(label).collect();
        let first = results.first()?;
        let (agents, kernels) = (first.agents, first.stages.kernel_stages());
        let steps: u64 = results.iter().map(|r| r.steps).sum();
        let wall: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
        let mut stage_ms = [0.0; Stage::COUNT];
        if steps > 0 {
            for stage in Stage::ALL {
                let secs: f64 = results
                    .iter()
                    .map(|r| r.stages.of(stage).as_secs_f64())
                    .sum();
                stage_ms[stage.index()] = secs * 1e3 / steps as f64;
            }
        }
        Some(Self {
            agents,
            steps,
            steps_per_sec: if wall > 0.0 { steps as f64 / wall } else { 0.0 },
            stage_ms,
            kernels,
            total_ms: stage_ms.iter().sum(),
        })
    }
}

/// Aggregate a finished measurement per (world, backend) cell.
pub fn aggregate(cfg: &StConfig, report: &BatchReport) -> Vec<StRow> {
    let mut rows = Vec::new();
    for (world, open) in cfg.worlds() {
        for backend in PAIR_BACKENDS {
            let Some(t) = CellTiming::of(report, &format!("{world}/{backend}")) else {
                continue;
            };
            rows.push(StRow {
                world,
                open,
                backend,
                agents: t.agents,
                steps: t.steps,
                steps_per_sec: t.steps_per_sec,
                stage_ms: t.stage_ms,
                kernels: t.kernels,
                total_ms: t.total_ms,
            });
        }
    }
    rows
}

/// Pair each world's scalar and simt rows into time ratios.
pub fn ratios(rows: &[StRow]) -> Vec<StRatio> {
    let worlds: BTreeSet<&'static str> = rows.iter().map(|r| r.world).collect();
    worlds
        .into_iter()
        .filter_map(|world| {
            let find = |backend: &str| {
                rows.iter()
                    .find(|r| r.world == world && r.backend == backend)
            };
            let (scalar, simt) = (find("scalar")?, find("simt")?);
            let ratio = |c: f64, g: f64| if g > 0.0 { c / g } else { 0.0 };
            let mut stages = [0.0; Stage::COUNT];
            for (i, slot) in stages.iter_mut().enumerate() {
                *slot = ratio(scalar.stage_ms[i], simt.stage_ms[i]);
            }
            Some(StRatio {
                world,
                total: ratio(scalar.total_ms, simt.total_ms),
                stages,
            })
        })
        .collect()
}

/// The smoke acceptance gate: every world was measured on **both**
/// [`PAIR_BACKENDS`], every replica ran its full budget, and every stage
/// that does real work reported non-zero time — each kernel stage the
/// backend declares, the metrics stage (tracking is on), and the
/// lifecycle stage on open worlds (a silently-unconstructed lifecycle
/// must fail the gate, not ship a zero column). A kernel stage the
/// backend does not declare must read exactly zero, and the declared set
/// must end in movement.
pub fn covers_both_engines_and_all_stages(rows: &[StRow]) -> bool {
    let worlds: BTreeSet<&'static str> = rows.iter().map(|r| r.world).collect();
    !worlds.is_empty()
        && worlds.iter().all(|w| {
            PAIR_BACKENDS.iter().all(|b| {
                rows.iter().any(|r| {
                    r.world == *w
                        && r.backend == *b
                        && r.steps > 0
                        && r.kernels.last() == Some(&Stage::Movement)
                        && Stage::KERNELS
                            .iter()
                            .all(|s| (r.stage_ms[s.index()] > 0.0) == r.kernels.contains(s))
                        && r.stage_ms[Stage::Metrics.index()] > 0.0
                        && (!r.open || r.stage_ms[Stage::Lifecycle.index()] > 0.0)
                })
            })
        })
}

/// One rung of the scale ladder: a square classic-corridor world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderRung {
    /// Grid side.
    pub side: usize,
    /// Agents per side (total population is twice this).
    pub per_side: usize,
    /// Measured steps per replica (pure step budget).
    pub steps: u64,
    /// Untimed warmup steps discarded before the clock starts.
    pub warmup: u64,
}

impl LadderRung {
    /// Initial occupancy of this rung's world (`agents / cells`).
    pub fn occupancy(&self) -> f64 {
        (self.per_side * 2) as f64 / (self.side * self.side) as f64
    }
}

/// The backend-registry configurations the ladder sweeps, in report
/// order: the host engine at 1/2/4 workers and the virtual-GPU engine.
/// `scalar` has no cell of its own: it is the host engine at one thread,
/// the same code as `("pooled", 1)`.
pub const LADDER_BACKENDS: &[(&str, usize)] =
    &[("pooled", 1), ("pooled", 2), ("pooled", 4), ("simt", 1)];

/// The kernel mappings a ladder backend is measured under, in report
/// order. Host backends have one traversal (agent-driven, reported as
/// `sparse`); `simt` runs both its mappings, so the paper's
/// one-thread-per-cell layout stays a measured series next to the
/// agent-driven one.
pub fn ladder_modes(backend: &str) -> &'static [IterationMode] {
    if backend == "simt" {
        &[IterationMode::Dense, IterationMode::Sparse]
    } else {
        &[IterationMode::Sparse]
    }
}

/// Seed shared by every ladder replica.
pub const LADDER_SEED: u64 = 9_700;

/// The rungs measured at `scale`. Every scale climbs from the smoke
/// rung; the 10⁵-agent rung needs `default`, the 10⁶-agent rung
/// `--paper` (minutes per backend on one core). The big rungs carry a
/// warmup discard and enough measured steps that one slow first step
/// (page faults, cold caches) cannot dominate the mean — at 10/3
/// measured steps with no warmup they used to be noise traps.
pub fn ladder_rungs(scale: Scale) -> Vec<LadderRung> {
    let mut rungs = vec![LadderRung {
        side: 96,
        per_side: 400,
        steps: 40,
        warmup: 5,
    }];
    if scale != Scale::Smoke {
        rungs.push(LadderRung {
            side: 1024,
            per_side: 50_000,
            steps: 30,
            warmup: 3,
        });
    }
    if scale == Scale::Paper {
        rungs.push(LadderRung {
            side: 4096,
            per_side: 500_000,
            steps: 10,
            warmup: 2,
        });
    }
    rungs
}

/// Canonical ladder job label:
/// `ladder/s<side>/<backend>/t<threads>/<mode>`.
pub fn ladder_label(side: usize, backend: &str, threads: usize, mode: IterationMode) -> String {
    format!("ladder/s{side}/{backend}/t{threads}/{}", mode.name())
}

/// The ladder job list over explicit rungs: every rung × backend
/// configuration × its [`ladder_modes`] (restricted to `only`'s backend
/// configuration when given), LEM on the classic corridor with metrics
/// off — the ladder times the kernel pipeline, not the observables. One
/// replica per cell: the registry accumulates repeats across runs, and
/// a 10⁶-agent rung cannot afford in-process repetition.
pub fn ladder_jobs_for(rungs: &[LadderRung], only: Option<(&str, usize)>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for rung in rungs {
        for &(backend, threads) in LADDER_BACKENDS {
            if let Some((b, t)) = only {
                if b != backend || t != threads {
                    continue;
                }
            }
            for &mode in ladder_modes(backend) {
                let env =
                    EnvConfig::small(rung.side, rung.side, rung.per_side).with_seed(LADDER_SEED);
                let cfg =
                    SimConfig::from_scenario(&registry::paper_corridor(&env), ModelKind::lem())
                        .with_metrics(false)
                        .with_iteration_mode(mode);
                jobs.push(
                    Job::backend(
                        ladder_label(rung.side, backend, threads, mode),
                        cfg,
                        Backend::named(backend, threads),
                        // Stop conditions count warmup steps too.
                        StopCondition::Steps(rung.warmup + rung.steps),
                    )
                    .with_warmup(rung.warmup),
                );
            }
        }
    }
    jobs
}

/// [`ladder_jobs_for`] over the rungs of `scale`.
pub fn ladder_jobs(scale: Scale, only: Option<(&str, usize)>) -> Vec<Job> {
    ladder_jobs_for(&ladder_rungs(scale), only)
}

/// One (rung, backend configuration, kernel mapping) cell of the
/// ladder.
#[derive(Debug, Clone)]
pub struct LadderRow {
    /// Grid side of the rung.
    pub side: usize,
    /// Total agents simulated.
    pub agents: usize,
    /// Initial occupancy (`agents / cells`) of the rung's world.
    pub occupancy: f64,
    /// Backend registry key.
    pub backend: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Stage-traversal mode the cell ran under (`"dense"` / `"sparse"`).
    pub mode: &'static str,
    /// Untimed warmup steps discarded before measurement.
    pub warmup: u64,
    /// Steps timed (warmup excluded).
    pub steps: u64,
    /// Simulated steps per wall-clock second.
    pub steps_per_sec: f64,
    /// Mean milliseconds per step per stage ([`Stage::ALL`] order).
    pub stage_ms: [f64; Stage::COUNT],
    /// Mean milliseconds per step in the movement stage (the conflict-
    /// resolution kernel the pooled backend parallelises).
    pub movement_ms: f64,
    /// Mean milliseconds per step across all stages.
    pub total_ms: f64,
}

/// Aggregate a finished ladder batch into per-cell rows (report order:
/// rung-major, then [`LADDER_BACKENDS`], then [`ladder_modes`]).
pub fn aggregate_ladder(rungs: &[LadderRung], report: &BatchReport) -> Vec<LadderRow> {
    let mut out = Vec::new();
    for rung in rungs {
        for &(backend, threads) in LADDER_BACKENDS {
            for &mode in ladder_modes(backend) {
                let label = ladder_label(rung.side, backend, threads, mode);
                let Some(t) = CellTiming::of(report, &label) else {
                    continue;
                };
                out.push(LadderRow {
                    side: rung.side,
                    agents: t.agents,
                    occupancy: rung.occupancy(),
                    backend,
                    threads,
                    mode: mode.name(),
                    warmup: rung.warmup,
                    steps: t.steps,
                    steps_per_sec: t.steps_per_sec,
                    stage_ms: t.stage_ms,
                    movement_ms: t.stage_ms[Stage::Movement.index()],
                    total_ms: t.total_ms,
                });
            }
        }
    }
    out
}

/// Total-step speedup of sparse over dense traversal, per `(side,
/// backend, threads)` cell that ran both (only `simt` does):
/// `dense_total_ms / sparse_total_ms` — how far O(live agents) stepping
/// beats the paper's O(cells) kernel layout as the grid grows.
pub fn sparse_speedups(rows: &[LadderRow]) -> Vec<(usize, &'static str, usize, f64)> {
    let cells: BTreeSet<(usize, &'static str, usize)> = rows
        .iter()
        .map(|r| (r.side, r.backend, r.threads))
        .collect();
    cells
        .into_iter()
        .filter_map(|(side, backend, threads)| {
            let find = |mode: &str| {
                rows.iter().find(|r| {
                    r.side == side && r.backend == backend && r.threads == threads && r.mode == mode
                })
            };
            let (dense, sparse) = (find("dense")?, find("sparse")?);
            if sparse.total_ms > 0.0 {
                Some((side, backend, threads, dense.total_ms / sparse.total_ms))
            } else {
                None
            }
        })
        .collect()
}

/// Pooled thread-scaling efficiency per `(side, mode, threads)`:
/// `steps_per_sec(t) / (steps_per_sec(1) · t)`. 1.0 is perfect linear
/// scaling; a flat thread curve reads as `1/t`.
pub fn thread_scaling(rows: &[LadderRow]) -> Vec<(usize, &'static str, usize, f64)> {
    let mut out = Vec::new();
    let cells: BTreeSet<(usize, &'static str)> = rows
        .iter()
        .filter(|r| r.backend == "pooled")
        .map(|r| (r.side, r.mode))
        .collect();
    for (side, mode) in cells {
        let sps = |threads: usize| {
            rows.iter()
                .find(|r| {
                    r.side == side
                        && r.mode == mode
                        && r.backend == "pooled"
                        && r.threads == threads
                })
                .map(|r| r.steps_per_sec)
        };
        let Some(base) = sps(1) else { continue };
        if base <= 0.0 {
            continue;
        }
        for &(backend, threads) in LADDER_BACKENDS {
            if backend != "pooled" {
                continue;
            }
            if let Some(v) = sps(threads) {
                out.push((side, mode, threads, v / (base * threads as f64)));
            }
        }
    }
    out
}

/// Render the ladder as a table (Markdown/CSV).
pub fn ladder_table(rows: &[LadderRow]) -> Table {
    let mut t = Table::new(vec![
        "side".to_string(),
        "agents".to_string(),
        "occupancy".to_string(),
        "backend".to_string(),
        "threads".to_string(),
        "mode".to_string(),
        "steps".to_string(),
        "steps_per_sec".to_string(),
        "movement_ms".to_string(),
        "total_ms".to_string(),
    ]);
    for r in rows {
        t.push_row(vec![
            r.side.to_string(),
            r.agents.to_string(),
            format!("{:.4}", r.occupancy),
            r.backend.to_string(),
            r.threads.to_string(),
            r.mode.to_string(),
            r.steps.to_string(),
            format!("{:.1}", r.steps_per_sec),
            format!("{:.4}", r.movement_ms),
            format!("{:.4}", r.total_ms),
        ]);
    }
    t
}

/// Render the measurement as a table (Markdown/CSV).
pub fn table(rows: &[StRow]) -> Table {
    let mut headers = vec![
        "world".to_string(),
        "backend".to_string(),
        "agents".to_string(),
        "steps".to_string(),
        "steps_per_sec".to_string(),
    ];
    headers.extend(Stage::ALL.iter().map(|s| format!("{}_ms", s.name())));
    headers.push("total_ms".to_string());
    let mut t = Table::new(headers);
    for r in rows {
        let mut row = vec![
            r.world.to_string(),
            r.backend.to_string(),
            r.agents.to_string(),
            r.steps.to_string(),
            format!("{:.1}", r.steps_per_sec),
        ];
        row.extend(r.stage_ms.iter().map(|ms| format!("{ms:.4}")));
        row.push(format!("{:.4}", r.total_ms));
        t.push_row(row);
    }
    t
}

fn stages_object(values: &[f64; Stage::COUNT], precision: usize) -> String {
    let mut s = String::from("{");
    for stage in Stage::ALL {
        if s.len() > 1 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "\"{}\": {:.precision$}",
            stage.name(),
            values[stage.index()]
        ));
    }
    s.push('}');
    s
}

/// JSON for `results/step_throughput_<scale>.json` and the repo-root
/// `BENCH_step_throughput.json`: per-stage breakdowns for both
/// [`PAIR_BACKENDS`] plus scalar-over-simt ratios, per world, and the
/// backend scale ladder with its sparse-over-dense and
/// thread-scaling-efficiency derived series. v4 keys the world rows by
/// backend and drops the ladder's duplicate `scalar` cell together with
/// its pooled-over-scalar movement series.
pub fn to_json(scale: Scale, cfg: &StConfig, rows: &[StRow], ladder: &[LadderRow]) -> String {
    let ratios = ratios(rows);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"step_throughput\",\n");
    s.push_str("  \"schema\": \"pedsim.step_throughput.v4\",\n");
    s.push_str(&format!("  \"scale\": \"{}\",\n", scale.label()));
    s.push_str(&format!("  \"side\": {},\n", cfg.side));
    s.push_str(&format!("  \"steps_per_replica\": {},\n", cfg.steps));
    s.push_str(&format!("  \"repeats\": {},\n", cfg.repeats));
    s.push_str("  \"worlds\": [\n");
    let worlds = cfg.worlds();
    let present: Vec<_> = worlds
        .iter()
        .filter(|(w, _)| rows.iter().any(|r| r.world == *w))
        .collect();
    for (wi, (world, open)) in present.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"world\": \"{world}\", \"open\": {open}, \"engines\": [\n"
        ));
        let world_rows: Vec<_> = rows.iter().filter(|r| r.world == *world).collect();
        for (i, r) in world_rows.iter().enumerate() {
            let comma = if i + 1 < world_rows.len() { "," } else { "" };
            s.push_str(&format!(
                "      {{\"backend\": \"{}\", \"agents\": {}, \"steps\": {}, \
                 \"steps_per_sec\": {:.1}, \"total_ms_per_step\": {:.4}, \
                 \"stages_ms_per_step\": {}}}{comma}\n",
                r.backend,
                r.agents,
                r.steps,
                r.steps_per_sec,
                r.total_ms,
                stages_object(&r.stage_ms, 4),
            ));
        }
        s.push_str("    ]");
        if let Some(ratio) = ratios.iter().find(|x| x.world == *world) {
            s.push_str(&format!(
                ", \"scalar_over_simt\": {{\"total\": {:.3}, \"stages\": {}}}",
                ratio.total,
                stages_object(&ratio.stages, 3),
            ));
        }
        let comma = if wi + 1 < present.len() { "," } else { "" };
        s.push_str(&format!("}}{comma}\n"));
    }
    s.push_str("  ],\n");
    s.push_str("  \"ladder\": [\n");
    for (i, r) in ladder.iter().enumerate() {
        let comma = if i + 1 < ladder.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"side\": {}, \"agents\": {}, \"occupancy\": {:.4}, \"backend\": \"{}\", \
             \"threads\": {}, \"iteration_mode\": \"{}\", \"warmup\": {}, \"steps\": {}, \
             \"steps_per_sec\": {:.1}, \"movement_ms_per_step\": {:.4}, \
             \"total_ms_per_step\": {:.4}, \"stages_ms_per_step\": {}}}{comma}\n",
            r.side,
            r.agents,
            r.occupancy,
            r.backend,
            r.threads,
            r.mode,
            r.warmup,
            r.steps,
            r.steps_per_sec,
            r.movement_ms,
            r.total_ms,
            stages_object(&r.stage_ms, 4),
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"sparse_over_dense\": [\n");
    let sparse = sparse_speedups(ladder);
    for (i, (side, backend, threads, x)) in sparse.iter().enumerate() {
        let comma = if i + 1 < sparse.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"side\": {side}, \"backend\": \"{backend}\", \"threads\": {threads}, \
             \"total_speedup\": {x:.3}}}{comma}\n"
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"thread_scaling_efficiency\": [\n");
    let scaling = thread_scaling(ladder);
    for (i, (side, mode, threads, eff)) in scaling.iter().enumerate() {
        let comma = if i + 1 < scaling.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"side\": {side}, \"mode\": \"{mode}\", \"threads\": {threads}, \
             \"efficiency\": {eff:.3}}}{comma}\n"
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_protocol_is_small_and_jobs_cover_both_engines_and_worlds() {
        let cfg = StConfig::for_scale(Scale::Smoke);
        assert!(cfg.steps <= 200);
        let jobs = cfg.jobs();
        assert_eq!(jobs.len(), cfg.worlds().len() * 2 * cfg.repeats as usize);
        for job in &jobs {
            assert!(job.validate().is_ok());
        }
        for (world, open) in cfg.worlds() {
            for backend in PAIR_BACKENDS {
                let label = format!("{world}/{backend}");
                let matched: Vec<_> = jobs.iter().filter(|j| j.label == label).collect();
                assert_eq!(matched.len(), cfg.repeats as usize, "{label}");
                for j in matched {
                    assert_eq!(j.backend, Backend::named(backend, 1));
                    let s = j.cfg.scenario.as_ref().expect("registry world");
                    assert_eq!(s.is_open(), open);
                }
            }
        }
    }

    #[test]
    fn tiny_run_covers_all_stages_and_yields_ratios() {
        let cfg = StConfig {
            side: 24,
            closed_per_side: 16,
            open_capacity: 12,
            open_rate: 1.5,
            steps: 25,
            repeats: 1,
            seed: 1,
        };
        let rows = run(&cfg, 2);
        assert_eq!(rows.len(), 4, "2 worlds x 2 backends");
        assert!(covers_both_engines_and_all_stages(&rows));
        for r in &rows {
            assert_eq!(r.steps, cfg.steps);
            assert!(r.steps_per_sec > 0.0, "{}/{} untimed", r.world, r.backend);
            assert!(r.total_ms > 0.0);
            // Open worlds exercise the lifecycle stage for real.
            if r.open {
                assert!(r.stage_ms[Stage::Lifecycle.index()] > 0.0);
            }
        }
        let ratios = ratios(&rows);
        assert_eq!(ratios.len(), 2);
        for x in &ratios {
            assert!(x.total > 0.0, "{}: no total ratio", x.world);
        }
        let json = to_json(Scale::Smoke, &cfg, &rows, &[]);
        assert!(json.contains("\"bench\": \"step_throughput\""));
        assert!(json.contains("\"schema\": \"pedsim.step_throughput.v4\""));
        for stage in Stage::ALL {
            assert!(json.contains(&format!("\"{}\":", stage.name())));
        }
        assert!(json.contains("\"backend\": \"scalar\""));
        assert!(json.contains("\"backend\": \"simt\""));
        assert!(json.contains("scalar_over_simt"));
        assert!(json.contains("\"ladder\": ["));
    }

    #[test]
    fn ladder_jobs_cover_every_backend_and_validate() {
        let cells: usize = LADDER_BACKENDS
            .iter()
            .map(|&(b, _)| ladder_modes(b).len())
            .sum();
        // Host cells run their one traversal; simt runs both mappings.
        assert_eq!(cells, LADDER_BACKENDS.len() + 1);
        let jobs = ladder_jobs(Scale::Smoke, None);
        assert_eq!(jobs.len(), cells);
        for job in &jobs {
            assert!(job.validate().is_ok(), "{}", job.label);
            // Warmup rides inside the step budget, never on top of it.
            assert!(job.warmup > 0, "{}", job.label);
            assert_eq!(job.stop, StopCondition::Steps(job.warmup + 40));
        }
        // Every label is distinct and names its backend configuration
        // and kernel mapping.
        let labels: BTreeSet<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels.len(), jobs.len());
        for &(backend, threads) in LADDER_BACKENDS {
            for &mode in ladder_modes(backend) {
                let label = ladder_label(96, backend, threads, mode);
                let job = jobs.iter().find(|j| j.label == label).expect("cell");
                assert_eq!(job.backend, Backend::named(backend, threads));
                assert_eq!(job.cfg.iteration, mode);
            }
        }
        // Larger scales add rungs without dropping the smoke rung.
        assert_eq!(ladder_jobs(Scale::Default, None).len(), 2 * cells);
        assert_eq!(ladder_jobs(Scale::Paper, None).len(), 3 * cells);
        // `only` restricts to one backend configuration per rung; simt
        // keeps both mappings.
        let pooled4 = ladder_jobs(Scale::Default, Some(("pooled", 4)));
        assert_eq!(pooled4.len(), 2);
        assert!(pooled4.iter().all(|j| j.label.contains("pooled/t4/sparse")));
        assert_eq!(ladder_jobs(Scale::Default, Some(("simt", 1))).len(), 4);
    }

    #[test]
    fn tiny_ladder_run_aggregates_and_reports_speedups() {
        let rungs = [LadderRung {
            side: 24,
            per_side: 20,
            steps: 10,
            warmup: 2,
        }];
        let jobs = ladder_jobs_for(&rungs, None);
        let report = Batch::new(1).run(&jobs);
        let rows = aggregate_ladder(&rungs, &report);
        assert_eq!(rows.len(), LADDER_BACKENDS.len() + 1);
        for r in &rows {
            // Warmup steps are discarded from the timed count.
            assert_eq!(r.steps, 10);
            assert_eq!(r.warmup, 2);
            assert_eq!(r.agents, 40);
            assert!((r.occupancy - 40.0 / (24.0 * 24.0)).abs() < 1e-12);
            assert!(
                r.steps_per_sec > 0.0,
                "{}/t{}/{} untimed",
                r.backend,
                r.threads,
                r.mode
            );
            assert!(r.movement_ms > 0.0);
            assert_eq!(r.movement_ms, r.stage_ms[Stage::Movement.index()]);
        }
        // No duplicate scalar cell: the host engine's one-thread series
        // is pooled t1. Sparse-over-dense for simt alone; pooled scaling
        // per thread count.
        assert!(rows.iter().all(|r| r.backend != "scalar"));
        let sparse = sparse_speedups(&rows);
        assert_eq!(sparse.len(), 1);
        assert!(sparse.iter().all(|(_, b, _, x)| *b == "simt" && *x > 0.0));
        let scaling = thread_scaling(&rows);
        assert_eq!(scaling.len(), 3);
        for (_, mode, threads, eff) in &scaling {
            assert!(*eff > 0.0, "pooled t{threads} {mode} unmeasured");
            if *threads == 1 {
                assert!((eff - 1.0).abs() < 1e-12);
            }
        }
        let json = to_json(Scale::Smoke, &StConfig::for_scale(Scale::Smoke), &[], &rows);
        assert!(json.contains("\"backend\": \"pooled\""));
        assert!(json.contains("\"iteration_mode\": \"sparse\""));
        assert!(json.contains("\"occupancy\":"));
        assert!(json.contains("\"stages_ms_per_step\":"));
        assert!(!json.contains("ladder_movement_speedup"));
        assert!(json.contains("sparse_over_dense"));
        assert!(json.contains("thread_scaling_efficiency"));
    }

    #[test]
    fn coverage_gate_rejects_missing_engines_and_idle_stages() {
        assert!(!covers_both_engines_and_all_stages(&[]));
        // The host decides in its Tour pass; simt runs all four kernels.
        const HOST: &[Stage] = &[Stage::Tour, Stage::Movement];
        let row = |backend: &'static str| {
            let kernels = if backend == "simt" {
                &Stage::KERNELS[..]
            } else {
                HOST
            };
            let mut stage_ms = [1.0; Stage::COUNT];
            for s in Stage::KERNELS.into_iter().filter(|s| !kernels.contains(s)) {
                stage_ms[s.index()] = 0.0;
            }
            StRow {
                world: "paper_corridor",
                open: false,
                backend,
                agents: 10,
                steps: 5,
                steps_per_sec: 1.0,
                stage_ms,
                kernels,
                total_ms: stage_ms.iter().sum(),
            }
        };
        // simt row missing; a row under any other backend key does not
        // stand in for it.
        assert!(!covers_both_engines_and_all_stages(&[row("scalar")]));
        assert!(!covers_both_engines_and_all_stages(&[
            row("scalar"),
            row("pooled")
        ]));
        // Both present: covered.
        assert!(covers_both_engines_and_all_stages(&[
            row("scalar"),
            row("simt")
        ]));
        // A zero declared kernel stage breaks coverage, on either backend.
        let mut dead = row("simt");
        dead.stage_ms[Stage::Tour.index()] = 0.0;
        assert!(!covers_both_engines_and_all_stages(&[row("scalar"), dead]));
        let mut dead = row("scalar");
        dead.stage_ms[Stage::Tour.index()] = 0.0;
        assert!(!covers_both_engines_and_all_stages(&[dead, row("simt")]));
        let mut dead = row("simt");
        dead.stage_ms[Stage::Init.index()] = 0.0;
        assert!(!covers_both_engines_and_all_stages(&[row("scalar"), dead]));
        // Time on a kernel stage the backend does not declare breaks
        // coverage: a host row with non-zero init is mislabelled.
        let mut stray = row("scalar");
        stray.stage_ms[Stage::Init.index()] = 0.5;
        assert!(!covers_both_engines_and_all_stages(&[stray, row("simt")]));
        // A row that declares no kernel stages (or not movement last)
        // covers nothing.
        let mut undeclared = row("scalar");
        undeclared.kernels = &[];
        undeclared.stage_ms = [0.0; Stage::COUNT];
        undeclared.stage_ms[Stage::Metrics.index()] = 1.0;
        assert!(!covers_both_engines_and_all_stages(&[
            undeclared,
            row("simt")
        ]));
        // An open world with an idle lifecycle stage breaks coverage; a
        // closed world is allowed a zero lifecycle column.
        let open_row = |backend: &'static str, lifecycle_ms: f64| {
            let mut r = row(backend);
            r.world = "open_corridor";
            r.open = true;
            r.stage_ms[Stage::Lifecycle.index()] = lifecycle_ms;
            r
        };
        assert!(covers_both_engines_and_all_stages(&[
            open_row("scalar", 0.01),
            open_row("simt", 0.01),
        ]));
        assert!(!covers_both_engines_and_all_stages(&[
            open_row("scalar", 0.01),
            open_row("simt", 0.0),
        ]));
        let mut closed_idle = row("simt");
        closed_idle.stage_ms[Stage::Lifecycle.index()] = 0.0;
        assert!(covers_both_engines_and_all_stages(&[
            row("scalar"),
            closed_idle
        ]));
    }
}
