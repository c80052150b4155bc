//! `perfbench`: runs one workload of the pedsim benchmark in this process
//! and prints one JSON line with its metrics, counts and check results.
//!
//! ```text
//! perfbench --workload corridor_aco|jam_lem|open_batch --seed N \
//!           --seconds S --trace 0|1 --out DIR
//! ```
//!
//! The run repeats passes of the workload (each a fixed step budget from
//! a fresh scenario) until `--seconds` have elapsed, then checks the
//! outputs once more against the dense `simt` oracle. With `--trace 1`
//! every second pass is traced; the untraced ones give the tracing
//! overhead, and the trace is written to `DIR/trace-<workload>-<seed>.json`.
//! Per-run scratch outputs (report JSON, registry CSV) go to a
//! subdirectory of `DIR` that is removed at the end. `run.py` builds
//! this binary and turns its line into the benchmark's result.

mod check;
mod host;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pedsim_core::engine::Stage;

use host::{ProcCounters, RunqSampler};
use trace::Tracer;
use workload::{Corridor, Counts, OpenBatch, Pass, Verdict, CORRIDOR_ACO, JAM_LEM, OPEN_BATCH};

/// Passes a run makes at least, however long they take.
const MIN_PASSES: usize = 4;

enum Workload {
    Stepped(&'static Corridor),
    Batch(&'static OpenBatch),
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: not {what}: {val}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad("a number"))?,
            "--trace" => a.trace = val == "1",
            "--out" => a.out = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// SplitMix64: derives every replica seed from the benchmark seed.
fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond it.
fn tail_pct(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

fn counts_json(c: &Counts) -> String {
    format!(
        "{{\"steps\": {}, \"agent_steps\": {}, \"moves\": {}, \"crossings\": {}, \
         \"kernel_items\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
         \"field_hits\": {}, \"field_misses\": {}}}",
        c.steps,
        c.agent_steps,
        c.moves,
        c.crossings,
        c.kernel_items,
        c.cache.hits,
        c.cache.misses,
        c.cache.field_hits,
        c.cache.field_misses
    )
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = match args.workload.as_str() {
        "corridor_aco" => Workload::Stepped(&CORRIDOR_ACO),
        "jam_lem" => Workload::Stepped(&JAM_LEM),
        "open_batch" => Workload::Batch(&OPEN_BATCH),
        w => return Err(format!("unknown workload {w:?}")),
    };
    let seeds: Vec<u64> = match workload {
        Workload::Stepped(_) => vec![derive_seed(args.seed, 0)],
        Workload::Batch(b) => (0..b.seeds as u64)
            .map(|k| derive_seed(args.seed, k))
            .collect(),
    };
    let run_dir = args
        .out
        .join(format!("run-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;

    // Measured phase: passes until the time budget is spent.
    let mut tr = Tracer::new(false);
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    let proc0 = ProcCounters::now();
    let sampler = RunqSampler::start();
    let t_run = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    while passes.len() < MIN_PASSES || t_run.elapsed() < budget {
        let traced = args.trace && passes.len() % 2 == 1;
        tr.set_on(traced);
        let pass = match workload {
            Workload::Stepped(c) => c.pass(seeds[0], &mut tr, &run_dir),
            Workload::Batch(b) => b.pass(&seeds, &mut tr, &run_dir),
        };
        match pass {
            Ok(p) => passes.push((traced, p)),
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    let measured_s = t_run.elapsed().as_secs_f64();
    let runq_wait_s = sampler.finish();
    let proc = ProcCounters::now().since(&proc0);
    let peak_rss_mb = host::peak_rss_mb();

    // Output checks that run once per run.
    tr.set_on(args.trace);
    let no_pass = Pass::default();
    let first = passes.first().map_or(&no_pass, |(_, p)| p);
    let verdict = match workload {
        _ if passes.is_empty() => Verdict::default(),
        Workload::Stepped(c) => c.check(seeds[0], first, &mut tr),
        Workload::Batch(b) => b.check(&seeds, first, &mut tr),
    };
    let _ = std::fs::remove_dir_all(&run_dir);

    // Failure accounting per replica run.
    let replicas = verdict.replicas.max(1);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures: Vec<String> = errors.clone();
    failures.extend(verdict.failures.iter().cloned());
    for (i, (_, p)) in passes.iter().enumerate() {
        attempted += replicas;
        let diverged = p.fingerprint != first.fingerprint
            || p.prefix != first.prefix
            || p.counts != first.counts;
        if diverged {
            failures.push(format!(
                "pass {i}: fingerprint or counts differ from pass 0"
            ));
            failed += replicas;
        } else {
            failures.extend(p.failures.iter().map(|f| format!("pass {i}: {f}")));
            failed += (p.failures.len() + verdict.failures.len()).min(replicas as usize) as u64;
        }
    }
    if !errors.is_empty() {
        attempted += replicas;
        failed += replicas;
    }
    let attempted = attempted.max(1);
    let counts = Counts {
        steps: first.counts.steps,
        cache: first.counts.cache,
        ..verdict.counts.unwrap_or(first.counts)
    };

    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let walls: Vec<String> = passes
        .iter()
        .map(|(_, p)| format!("{:.3}", p.wall))
        .collect();
    eprintln!("perfbench: pass walls (s): {}", walls.join(" "));
    eprintln!(
        "perfbench: {} seed {}: {} passes in {measured_s:.2}s; host: cpu {:.2}s, runq wait {runq_wait_s:.3}s, \
         steal {} ticks, minor faults {}; fingerprint {:016x}",
        args.workload,
        args.seed,
        passes.len(),
        proc.cpu_s,
        proc.steal_ticks,
        proc.minor_faults,
        first.fingerprint
    );

    let pick = |traced: bool| -> Vec<&Pass> {
        passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| p)
            .collect()
    };
    let untraced = pick(false);
    let mut m = Metrics(Vec::new());
    if !args.trace {
        let med = |f: &dyn Fn(&Pass) -> f64| median(untraced.iter().map(|p| f(p)).collect());
        m.put("wall_s", med(&|p| p.wall), "s");
        m.put("setup_s", med(&|p| p.setup), "s");
        m.put(
            "steps_per_s",
            med(&|p| p.steps as f64 / p.step_wall),
            "steps/s",
        );
        m.put("peak_rss_mb", peak_rss_mb, "MiB");
        m.put(
            "ok_ratio",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        );
    } else {
        let traced = pick(true);
        let med = |f: &dyn Fn(&Pass) -> f64| median(traced.iter().map(|p| f(p)).collect());
        let (build, warmup, mut samples) = match workload {
            Workload::Stepped(_) => (
                med(&|p| p.engine_build),
                med(&|p| p.warmup),
                traced
                    .iter()
                    .flat_map(|p| p.step_ms.iter().copied())
                    .collect(),
            ),
            Workload::Batch(_) => (
                median(verdict.engine_build.clone()),
                median(verdict.warmup.clone()),
                verdict.step_ms.clone(),
            ),
        };
        samples.sort_by(f64::total_cmp);
        let tail = tail_pct(samples.len());
        let c = &counts.cache;
        let selfs = tr.self_times();

        m.put("scenario.build_s", med(&|p| p.scenario), "s");
        m.put("world.compile_s", med(&|p| p.world), "s");
        m.put("world.cache_hits", c.hits as f64, "count");
        m.put("world.cache_misses", c.misses as f64, "count");
        m.put("world.field_hits", c.field_hits as f64, "count");
        m.put("world.field_misses", c.field_misses as f64, "count");
        m.put(
            "world.cache_hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
            "ratio",
        );
        m.put("engine.build_s", build, "s");
        m.put("engine.warmup_s", warmup, "s");
        const STAGE_KEYS: [&str; Stage::COUNT] = [
            "stage.init_ms",
            "stage.initial_calc_ms",
            "stage.tour_ms",
            "stage.movement_ms",
            "stage.lifecycle_ms",
            "stage.metrics_ms",
        ];
        for (i, key) in STAGE_KEYS.into_iter().enumerate() {
            m.put(
                key,
                med(&|p| p.stages[i] * 1e3 / p.steps.max(1) as f64),
                "ms",
            );
        }
        m.put("step.p50_ms", percentile(&samples, 50.0), "ms");
        m.put("step.tail_ms", percentile(&samples, tail), "ms");
        m.put("step.tail_pct", tail, "%");
        m.put("step.samples", samples.len() as f64, "count");
        m.put("work.steps", counts.steps as f64, "count");
        m.put("work.agent_steps", counts.agent_steps as f64, "count");
        m.put("work.moves", counts.moves as f64, "count");
        m.put(
            "work.move_ratio",
            counts.moves as f64 / counts.agent_steps.max(1) as f64,
            "ratio",
        );
        m.put("work.crossings", counts.crossings as f64, "count");
        m.put("work.kernel_items", counts.kernel_items as f64, "count");
        m.put("runner.batch_s", med(&|p| p.batch), "s");
        m.put("runner.overhead_s", med(&|p| p.overhead), "s");
        m.put("runner.report_json_s", med(&|p| p.report_json), "s");
        m.put("runner.report_bytes", first.report_bytes as f64, "bytes");
        m.put("obs.registry_append_s", med(&|p| p.registry), "s");
        m.put("proc.cpu_s", proc.cpu_s, "s");
        m.put("proc.runq_wait_s", runq_wait_s, "s");
        m.put("proc.steal_ticks", proc.steal_ticks as f64, "count");
        m.put("proc.minor_faults", proc.minor_faults as f64, "count");
        m.put(
            "trace.unattributed_s",
            med(&|p| selfs[p.span].as_secs_f64()),
            "s",
        );
        let wall = |ps: &[&Pass]| median(ps.iter().map(|p| p.wall).collect());
        m.put(
            "trace.overhead_pct",
            (wall(&traced) / wall(&untraced) - 1.0) * 100.0,
            "%",
        );
        m.put("trace.spans", tr.spans().len() as f64, "count");

        let path = args
            .out
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, tr.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: trace written to {}", path.display());
        eprintln!(
            "perfbench: {:<48} {:>6} {:>12} {:>12}",
            "layer", "spans", "total_ms", "self_ms"
        );
        for l in tr.by_layer() {
            eprintln!(
                "perfbench: {:<48} {:>6} {:>12.3} {:>12.3}",
                format!("{}/{}", l.cat, l.name),
                l.count,
                l.total.as_secs_f64() * 1e3,
                l.own.as_secs_f64() * 1e3
            );
        }
        eprintln!(
            "perfbench: unattributed (pass self time) median {:.3} ms; tracing overhead {:.2}%",
            med(&|p| selfs[p.span].as_secs_f64()) * 1e3,
            (wall(&traced) / wall(&untraced) - 1.0) * 100.0
        );
    }

    let failures_json: Vec<String> = failures.iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"passes\": {}, \"correct\": {}, \
         \"attempted\": {attempted}, \"failed\": {failed}, \"fingerprint\": \"{:016x}\", \
         \"prefix\": \"{:016x}\", \"counts\": {}, \"metrics\": {}, \"failures\": [{}]}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        passes.len(),
        failed == 0 && !passes.is_empty(),
        first.fingerprint,
        first.prefix,
        counts_json(&counts),
        m.json(),
        failures_json.join(", ")
    );
    Ok(())
}
