//! Cross-crate integration: the CPU reference and the virtual GPU's
//! sparse mapping must reproduce the virtual GPU's dense
//! one-thread-per-cell mapping bit for bit, on sequential and parallel
//! devices (the strong form of the paper's §VI CPU-vs-GPU consistency
//! check). The `_sparse` cases run a lightly occupied grid (40 per side,
//! ~3.5 %), the `_dense` cases a crowded one (400 per side, ~35 %).

use pedsim::prelude::*;

fn config(model: ModelKind, seed: u64, per_side: usize) -> SimConfig {
    SimConfig::new(EnvConfig::small(48, 48, per_side).with_seed(seed), model).with_checked(true)
}

#[test]
fn lem_engines_agree_sparse() {
    assert_eq!(
        engines_agree(config(ModelKind::lem(), 1, 40), 60, 10, 4),
        None
    );
}

#[test]
fn lem_engines_agree_dense() {
    assert_eq!(
        engines_agree(config(ModelKind::lem(), 2, 400), 40, 10, 4),
        None
    );
}

#[test]
fn aco_engines_agree_sparse() {
    assert_eq!(
        engines_agree(config(ModelKind::aco(), 3, 40), 60, 10, 4),
        None
    );
}

#[test]
fn aco_engines_agree_dense() {
    assert_eq!(
        engines_agree(config(ModelKind::aco(), 4, 400), 40, 10, 4),
        None
    );
}

#[test]
fn agreement_holds_with_nondefault_parameters() {
    let model = ModelKind::Aco(AcoParams {
        alpha: 2.0,
        beta: 0.5,
        rho: 0.3,
        q: 2.0,
        tau0: 0.5,
        forward_priority: false,
    });
    assert_eq!(engines_agree(config(model, 5, 150), 40, 10, 3), None);
}

#[test]
fn agreement_holds_with_scan_range_extension() {
    let model = ModelKind::Lem(LemParams {
        scan_range: 3,
        ..LemParams::default()
    });
    assert_eq!(engines_agree(config(model, 6, 150), 40, 10, 3), None);
}

#[test]
fn worker_count_does_not_change_results() {
    // 1, 2, and 7 workers must match the sequential policy.
    for workers in [1usize, 2, 7] {
        assert_eq!(
            engines_agree(config(ModelKind::aco(), 7, 200), 25, 25, workers),
            None,
            "diverged with {workers} workers"
        );
    }
}
