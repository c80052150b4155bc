//! Scenario sweep: registry worlds × densities × seeds, one batched run,
//! one JSON report.
//!
//! ```text
//! cargo run -p pedsim-bench --release --bin sweep -- \
//!     [--paper|--smoke] [--workers N] [--journal PATH] [--verify-determinism]
//! ```
//!
//! Writes `results/sweep_<scale>.json` (the deterministic serialization —
//! byte-identical for any worker count) plus a Markdown summary on
//! stdout; `--journal` additionally appends one JSONL record per
//! replica. `--verify-determinism` re-runs the whole sweep on 1 worker
//! and asserts the JSON bytes match. Progress chatter honors
//! `PEDSIM_LOG` (off/summary/verbose). `--workers` exits with status 2
//! unless it is a positive integer of at most `scale::MAX_THREADS`.

use pedsim_bench::report;
use pedsim_bench::scale::{arg_value, count_arg_or_exit, Scale};
use pedsim_bench::sweep::SweepProtocol;
use pedsim_obs::log_summary;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args_or_exit(&args);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = count_arg_or_exit(&args, "--workers", cores);
    let proto = SweepProtocol::for_scale(scale);

    log_summary!(
        "sweep [{}]: {} worlds x {} densities x {} seeds x 2 models = {} replicas on {} workers \
         (budget {} steps, early exit on arrival/gridlock)…",
        scale.label(),
        proto.worlds.len(),
        proto.per_sides.len(),
        proto.seeds.len(),
        proto.worlds.len() * proto.per_sides.len() * proto.seeds.len() * 2,
        workers,
        proto.steps,
    );

    let t0 = std::time::Instant::now();
    let batch_report = proto.run(workers);
    let elapsed = t0.elapsed();

    println!("\n## Scenario sweep ({} scale)\n", scale.label());
    print!("{}", proto.summary_table(&batch_report).markdown());
    println!(
        "\n{} replicas: {} arrived, {} gridlocked, {} flux-steady, {} exhausted the \
         budget; {} simulated steps total (mean {:.1}/replica)",
        batch_report.jobs,
        batch_report.arrived,
        batch_report.gridlocked,
        batch_report.steady,
        batch_report.exhausted,
        batch_report.steps_total,
        batch_report.mean_steps,
    );
    log_summary!(
        "wall: {:.2}s on {workers} workers ({:.2} CPU-seconds of simulation; critical path {:.2}s)",
        elapsed.as_secs_f64(),
        batch_report.wall_total.as_secs_f64(),
        batch_report.wall_max.as_secs_f64(),
    );

    let base = std::path::Path::new(".");
    let name = format!("sweep_{}", scale.label());
    match report::save_json(base, &name, &batch_report.to_json()) {
        Ok(p) => log_summary!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write {name}.json: {e}"),
    }

    if let Some(path) = arg_value(&args, "--journal").map(std::path::PathBuf::from) {
        let write_all = || -> std::io::Result<()> {
            let mut journal = pedsim_obs::journal::Journal::open(&path)?;
            for result in &batch_report.results {
                journal.write(&result.journal_record())?;
            }
            Ok(())
        };
        match write_all() {
            Ok(()) => log_summary!(
                "journaled {} runs to {}",
                batch_report.results.len(),
                path.display()
            ),
            Err(e) => eprintln!("could not write journal {}: {e}", path.display()),
        }
    }

    if args.iter().any(|a| a == "--verify-determinism") {
        log_summary!("re-running on 1 worker to verify determinism…");
        let single = proto.run(1);
        assert_eq!(
            single.to_json(),
            batch_report.to_json(),
            "BatchReport diverged between {workers} workers and 1 worker"
        );
        log_summary!("OK: report bytes identical across worker counts");
    }
}
