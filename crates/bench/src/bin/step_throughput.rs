//! Step throughput of the unified engine pipeline: per-stage wall time,
//! steps/second, and scalar-over-simt ratios on closed and open registry
//! worlds, plus the backend scale ladder (pooled at 1/2/4 threads, simt
//! dense and sparse).
//!
//! ```text
//! cargo run -p pedsim-bench --release --bin step_throughput -- \
//!     [--paper|--smoke] [--workers N] [--journal PATH] \
//!     [--registry PATH | --no-registry] \
//!     [--backend NAME [--threads N]] [--ablation atomic]
//! ```
//!
//! Default mode writes `results/step_throughput_<scale>.{csv,json}` plus
//! the repo-root `BENCH_step_throughput.json` perf-trajectory record
//! (including the backend scale ladder), appends one provenance-stamped
//! row per replica to the results registry (and, with `--journal`, one
//! JSONL record per replica), and prints Markdown tables. Exits non-zero
//! when the smoke-scale measurement does not cover both backends and
//! every stage each backend declares. Progress chatter honors
//! `PEDSIM_LOG`.
//!
//! `--backend NAME [--threads N]` runs only the ladder cell(s) for that
//! backend configuration (threads defaults to 1; `pooled` at 1/2/4 or
//! `simt` at 1) — the CI thread-matrix entry point. Registry rows are
//! appended; the backend-pair record and its coverage gate are skipped.
//! `--workers`, `--threads` and the other count flags exit with status 2
//! on a value that is not a positive integer; `--workers` and `--threads`
//! also above `scale::MAX_THREADS`.
//!
//! `--ablation atomic` instead measures the rejected atomic-CAS movement
//! kernel against the production scatter-to-gather kernel at this scale
//! and exits. The atomic variant's claim order depends on scheduling, so
//! its numbers are **non-deterministic** and never enter the registry.

use pedsim_bench::observe::{self, Sinks};
use pedsim_bench::report;
use pedsim_bench::scale::{arg_value, count_arg_or_exit, Scale};
use pedsim_bench::step_throughput as st;
use pedsim_bench::{ablation, Table};
use pedsim_obs::log_summary;
use pedsim_runner::Batch;

fn run_atomic_ablation(scale: Scale, cfg: &st::StConfig) {
    let reps = match scale {
        Scale::Paper => 20,
        Scale::Default => 10,
        Scale::Smoke => 3,
    };
    let agents = cfg.closed_per_side * 2;
    log_summary!(
        "movement ablation [{}]: gather vs atomic-CAS, {side}x{side}, {agents} agents, \
         {reps} reps…",
        scale.label(),
        side = cfg.side,
    );
    let m = ablation::movement_variants(cfg.side, agents, reps);
    let per_ms = |d: std::time::Duration| d.as_secs_f64() * 1e3 / reps as f64;
    let mut t = Table::new(vec![
        "variant".to_string(),
        "ms_per_launch".to_string(),
        "atomic_ops".to_string(),
        "deterministic".to_string(),
    ]);
    t.push_row(vec![
        "scatter_to_gather".to_string(),
        format!("{:.4}", per_ms(m.gather_time)),
        "0".to_string(),
        "yes".to_string(),
    ]);
    t.push_row(vec![
        "atomic_cas".to_string(),
        format!("{:.4}", per_ms(m.atomic_time)),
        (m.atomic_ops / reps as u64).to_string(),
        "NO (schedule-dependent)".to_string(),
    ]);
    println!("\n## Movement ablation ({} scale)\n", scale.label());
    print!("{}", t.markdown());
    println!("\natomic-CAS results are non-deterministic and excluded from the results registry.");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args_or_exit(&args);
    // Default to one worker: replicas racing for cores would pollute the
    // per-stage wall clocks this harness exists to record.
    let workers = count_arg_or_exit(&args, "--workers", 1);
    let sinks = Sinks::from_args(&args);
    let cfg = st::StConfig::for_scale(scale);
    let base = std::path::Path::new(".");

    if arg_value(&args, "--ablation").as_deref() == Some("atomic") {
        run_atomic_ablation(scale, &cfg);
        return;
    }

    let backend_only = arg_value(&args, "--backend");
    let threads_only = count_arg_or_exit(&args, "--threads", 1);

    // The ladder: classic corridor at growing sides × backend registry
    // configurations. In `--backend` mode this is the whole run.
    let only = backend_only.as_deref().map(|b| (b, threads_only));
    let rungs = st::ladder_rungs(scale);
    let ladder_jobs = st::ladder_jobs_for(&rungs, only);
    if let Some((b, t)) = only {
        if ladder_jobs.is_empty() {
            eprintln!("error: --backend {b} --threads {t} matches no ladder configuration");
            std::process::exit(2);
        }
    }

    let mut pair_rows = Vec::new();
    let mut sinks_ok = true;
    let mut record_written = true;
    let t0 = std::time::Instant::now();

    if only.is_none() {
        log_summary!(
            "step_throughput [{}]: {side}x{side} closed+open corridors, scalar + simt, \
             {} steps x {} repeats, on {workers} workers…",
            scale.label(),
            cfg.steps,
            cfg.repeats,
            side = cfg.side,
        );
        let batch = st::run_report(&cfg, workers);
        pair_rows = st::aggregate(&cfg, &batch);
        if let Err(e) = observe::emit(&sinks, "step_throughput", scale, &batch) {
            eprintln!("could not record observability sinks: {e}");
            sinks_ok = false;
        }
    }

    log_summary!(
        "scale ladder [{}]: {} rungs x {} backend/mode cells…",
        scale.label(),
        rungs.len(),
        ladder_jobs.len() / rungs.len().max(1),
    );
    let ladder_batch = Batch::new(workers).run(&ladder_jobs);
    let ladder_rows = st::aggregate_ladder(&rungs, &ladder_batch);
    if let Err(e) = observe::emit(&sinks, "step_throughput", scale, &ladder_batch) {
        eprintln!("could not record observability sinks: {e}");
        sinks_ok = false;
    }
    let elapsed = t0.elapsed();

    if only.is_none() {
        println!("\n## Step throughput ({} scale)\n", scale.label());
        let table = st::table(&pair_rows);
        print!("{}", table.markdown());
        println!();
        for ratio in st::ratios(&pair_rows) {
            println!(
                "{}: scalar spends {:.2}x the simt pipeline's wall time per step",
                ratio.world, ratio.total
            );
        }
        let name = format!("step_throughput_{}", scale.label());
        match table.save_csv(base, &name) {
            Ok(p) => log_summary!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write {name}.csv: {e}"),
        }
        let json = st::to_json(scale, &cfg, &pair_rows, &ladder_rows);
        match report::save_json(base, &name, &json) {
            Ok(p) => log_summary!("wrote {}", p.display()),
            Err(e) => eprintln!("could not write {name}.json: {e}"),
        }
        let bench_path = base.join("BENCH_step_throughput.json");
        record_written = match std::fs::write(&bench_path, &json) {
            Ok(()) => {
                log_summary!("wrote {}", bench_path.display());
                true
            }
            Err(e) => {
                eprintln!("could not write {}: {e}", bench_path.display());
                false
            }
        };
    }

    println!("\n## Backend scale ladder ({} scale)\n", scale.label());
    print!("{}", st::ladder_table(&ladder_rows).markdown());
    for (side, backend, threads, x) in st::sparse_speedups(&ladder_rows) {
        println!("side {side}: {backend}/t{threads} steps {x:.2}x faster sparse than dense");
    }
    for (side, mode, threads, eff) in st::thread_scaling(&ladder_rows) {
        if threads > 1 {
            println!("side {side} [{mode}]: pooled t{threads} thread-scaling efficiency {eff:.2}");
        }
    }
    log_summary!("wall: {:.2}s on {workers} workers", elapsed.as_secs_f64());

    // Gates. In --backend mode: every requested ladder cell must have
    // timed real steps. In default mode: the backend-pair coverage gate as
    // before, plus the sink/record checks, at smoke scale only.
    let ladder_ok = ladder_rows.len() == ladder_jobs.len()
        && ladder_rows
            .iter()
            .all(|r| r.steps > 0 && r.movement_ms > 0.0);
    if only.is_some() {
        if !ladder_ok || !sinks_ok {
            eprintln!("ladder measurement incomplete");
            std::process::exit(1);
        }
        return;
    }
    let ok = st::covers_both_engines_and_all_stages(&pair_rows);
    println!(
        "\nmeasurement {}",
        if ok && ladder_ok {
            "covers both backends, every declared stage, and every ladder cell"
        } else {
            "is INCOMPLETE: a backend, declared stage, or ladder cell reported no time, \
             or an undeclared kernel stage reported some"
        },
    );
    // The coverage check is the CI acceptance gate at smoke scale; larger
    // scales only report. A failed record or sink write must also fail
    // the gate — otherwise CI would validate whatever stale record is
    // lying around.
    if (!ok || !ladder_ok || !record_written || !sinks_ok) && scale == Scale::Smoke {
        std::process::exit(1);
    }
}
