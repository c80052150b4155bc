//! Fundamental diagram of the open corridor: sweep the inflow rate,
//! measure steady-state flux, density, and steps/second.
//!
//! ```text
//! cargo run -p pedsim-bench --release --bin fundamental_diagram -- \
//!     [--paper|--smoke] [--workers N] [--no-world-cache] [--journal PATH] \
//!     [--registry PATH | --no-registry]
//! ```
//!
//! Writes `results/fundamental_diagram_<scale>.{csv,json}` plus the
//! repo-root `BENCH_fundamental_diagram.json` perf-trajectory record,
//! appends one provenance-stamped row per replica to the results
//! registry (and, with `--journal`, one JSONL record per replica), and
//! prints a Markdown table. With the world cache on (the default), a
//! setup-amortization probe additionally measures how the cache
//! amortizes flow-field compilation across the replicas of one ladder
//! rung and records the cached-arm rows under the `fd_world_cache`
//! bench name; `--no-world-cache` compiles every replica cold and skips
//! the probe — the control arm the CI cache-identity check diffs
//! against. Exits non-zero when the smoke-scale curve fails the
//! rises-then-saturates sanity check (or, with the cache on, when the
//! probe's measured speedup lands under 5x despite a measurable cold
//! arm). Progress chatter honors `PEDSIM_LOG` (off/summary/verbose).
//! `--workers` exits with status 2 unless it is a positive integer of at
//! most `scale::MAX_THREADS`.

use pedsim_bench::fundamental_diagram as fd;
use pedsim_bench::observe::{self, Sinks};
use pedsim_bench::report;
use pedsim_bench::scale::{count_arg_or_exit, Scale};
use pedsim_obs::log_summary;

/// Below this total cold-arm setup time the amortization ratio is mostly
/// timer noise, so the smoke gate does not judge it.
const MEASURABLE_COLD_SETUP_S: f64 = 1e-4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_args_or_exit(&args);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = count_arg_or_exit(&args, "--workers", cores);
    let world_cache = !args.iter().any(|a| a == "--no-world-cache");
    let sinks = Sinks::from_args(&args);
    let cfg = fd::FdConfig::for_scale(scale);
    let base = std::path::Path::new(".");

    log_summary!(
        "fundamental_diagram [{}]: open {side}x{side} corridor, {} rates x {} repeats, \
         budget {} steps, flux window {}, world cache {}, on {workers} workers…",
        scale.label(),
        cfg.rates.len(),
        cfg.repeats,
        cfg.steps,
        cfg.window,
        if world_cache { "on" } else { "off" },
        side = cfg.side,
    );

    let t0 = std::time::Instant::now();
    let batch = fd::run_report(&cfg, workers, world_cache);
    let elapsed = t0.elapsed();
    let rows = fd::aggregate(&cfg, &batch);

    let mut sinks_ok = match observe::emit(&sinks, "fundamental_diagram", scale, &batch) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("could not record observability sinks: {e}");
            false
        }
    };

    // Setup-amortization probe: only meaningful with the cache on.
    let amortization = world_cache.then(|| {
        let (a, warm) = fd::measure_amortization(&cfg, workers);
        log_summary!(
            "world cache amortization over {} replicas of the top rung: \
             cold setup {:.2} ms, cached setup {:.3} ms — {:.1}x",
            a.replicas,
            a.cold_setup_s * 1e3,
            a.cached_setup_s * 1e3,
            a.speedup,
        );
        if let Err(e) = observe::emit(&sinks, fd::AMORTIZATION_BENCH, scale, &warm) {
            eprintln!("could not record amortization probe sinks: {e}");
            sinks_ok = false;
        }
        a
    });

    println!("\n## Fundamental diagram ({} scale)\n", scale.label());
    let table = fd::table(&rows);
    print!("{}", table.markdown());

    let name = format!("fundamental_diagram_{}", scale.label());
    match table.save_csv(base, &name) {
        Ok(p) => log_summary!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write {name}.csv: {e}"),
    }
    match report::save_json(base, &name, &fd::to_json(scale, &cfg, &rows)) {
        Ok(p) => log_summary!("wrote {}", p.display()),
        Err(e) => eprintln!("could not write {name}.json: {e}"),
    }
    let bench_path = base.join("BENCH_fundamental_diagram.json");
    let bench_json = fd::to_bench_json(scale, &cfg, &rows, amortization.as_ref());
    match std::fs::write(&bench_path, bench_json) {
        Ok(()) => log_summary!("wrote {}", bench_path.display()),
        Err(e) => eprintln!("could not write {}: {e}", bench_path.display()),
    }
    log_summary!("wall: {:.2}s on {workers} workers", elapsed.as_secs_f64());

    let ok = fd::curve_rises_then_saturates(&rows);
    println!(
        "\nflux curve {} (low-rate flux {:.3}, high-rate flux {:.3})",
        if ok {
            "rises with inflow then saturates — as expected"
        } else {
            "does NOT show the expected rise-then-saturate shape"
        },
        rows.first().map_or(0.0, |r| r.flux),
        rows.last().map_or(0.0, |r| r.flux),
    );
    let amortized = amortization.is_none_or(|a| {
        let judged = a.cold_setup_s >= MEASURABLE_COLD_SETUP_S;
        if judged && a.speedup < 5.0 {
            eprintln!(
                "world cache amortization {:.1}x is under the expected 5x \
                 (cold {:.3} ms vs cached {:.3} ms)",
                a.speedup,
                a.cold_setup_s * 1e3,
                a.cached_setup_s * 1e3,
            );
            false
        } else {
            true
        }
    });
    // The shape check is the CI acceptance gate, calibrated for the smoke
    // ladder; research-scale ladders may legitimately sit entirely in
    // free flow or entirely congested, so larger scales only report. A
    // failed sink write also fails the gate — a bench whose registry row
    // never landed must not pass. Neither must a world cache that stopped
    // amortizing setup.
    if (!ok || !sinks_ok || !amortized) && scale == Scale::Smoke {
        std::process::exit(1);
    }
}
