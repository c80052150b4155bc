//! Query the append-only results registry and gate on KPI regressions.
//!
//! ```text
//! cargo run -p pedsim-bench --release --bin registry_query -- \
//!     [--registry results/registry.csv] [--kpi steps_per_sec] \
//!     [--last 5] [--check]
//! ```
//!
//! Groups registry rows into series (bench × scale × world × engine ×
//! model × config fingerprint), prints the newest measurement of every
//! series against the mean of its predecessors within the `--last`
//! window, and — with `--check` — exits non-zero when any series
//! drifted beyond the KPI's tolerance (DESIGN.md §12 has the table).
//! The engine column holds the registry backend key (`scalar` /
//! `pooled` / `simt`); rows written under the retired `cpu` / `gpu`
//! names form series of their own. `--last` must be a positive integer
//! (exit status 2 otherwise).

use pedsim_bench::registry_query as rq;
use pedsim_bench::scale::{arg_value, count_arg_or_exit};
use pedsim_obs::registry::KPIS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = std::path::PathBuf::from(
        arg_value(&args, "--registry").unwrap_or_else(|| "results/registry.csv".to_owned()),
    );
    let kpi = arg_value(&args, "--kpi").unwrap_or_else(|| "steps_per_sec".to_owned());
    let last = count_arg_or_exit(&args, "--last", 5);
    let check = args.iter().any(|a| a == "--check");

    if pedsim_obs::registry::tolerance_for(&kpi).is_none() {
        eprintln!(
            "error: unknown KPI {kpi:?}; known KPIs: {}",
            KPIS.join(", ")
        );
        std::process::exit(2);
    }
    let outcomes = match rq::query(&path, &kpi, last) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: could not read registry {}: {e}", path.display());
            std::process::exit(2);
        }
    };
    for outcome in &outcomes {
        println!("{}", outcome.describe());
    }
    println!("{}", rq::summary_line(&kpi, &outcomes));
    if check && rq::any_regression(&outcomes) {
        std::process::exit(1);
    }
}
