//! Bounded interleaving exploration of the full pooled backend.
//!
//! The pooled backend claims its trajectories are schedule-independent:
//! every write is structurally disjoint (agent-keyed, or a winner's own
//! source/destination cell) and all randomness is counter-based. This
//! suite drives the backend's schedule knob
//! ([`PooledEngine::set_schedule_seed`]) through hundreds of
//! Philox-keyed permutations of every stage launch's band issue order
//! and asserts bit-identity with the simt dense oracle throughout — the
//! explorer's whole-engine acceptance case. Under
//! `--features audit-runtime`, every scatter write in these runs is
//! additionally checked by the write-set race detector.

use pedsim::core::engine::pooled::pooled_engine_small;
use pedsim::core::engine::Backend;
use pedsim::prelude::*;
use pedsim::simt::exec::explore::explore;

/// FNV-1a over the trajectory state (same digest as the parity suites).
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn trajectory_hash(e: &impl Engine) -> u64 {
    let mat = e.mat_snapshot();
    let (row, col) = e.positions();
    let mut bytes: Vec<u8> = mat.as_slice().to_vec();
    for v in row.iter().chain(col.iter()) {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a(bytes)
}

/// simt's one-thread-per-cell dense mapping of the 20×20 test corridor,
/// run 15 steps: the reference every permuted schedule must reproduce.
fn dense_oracle_hash(model: ModelKind) -> u64 {
    let env = EnvConfig::small(20, 20, 24).with_seed(77);
    let cfg = SimConfig::new(env, model)
        .with_checked(true)
        .with_iteration_mode(IterationMode::Dense);
    let mut oracle = Backend::simt().build(cfg).expect("simt");
    oracle.run(15);
    trajectory_hash(&oracle)
}

/// 300 permuted schedules per model, every one bit-identical to the simt
/// dense oracle.
#[test]
fn pooled_is_schedule_independent_across_300_interleavings() {
    for model in [ModelKind::lem(), ModelKind::aco()] {
        let golden = dense_oracle_hash(model);

        let explored = explore(0..150u64, |seed| {
            let mut pooled = pooled_engine_small(20, 20, 24, model, 77, 3);
            pooled.set_schedule_seed(Some(seed));
            pooled.run(15);
            trajectory_hash(&pooled)
        })
        .unwrap_or_else(|d| panic!("{}: schedule divergence: {d}", model.name()));
        assert_eq!(
            explored,
            golden,
            "{}: permuted pooled trajectories diverged from simt/dense",
            model.name()
        );

        // Same budget again at a different thread count: the schedule
        // space depends on `parts`, so this explores fresh interleavings.
        let explored = explore(150..300u64, |seed| {
            let mut pooled = pooled_engine_small(20, 20, 24, model, 77, 5);
            pooled.set_schedule_seed(Some(seed));
            pooled.run(15);
            trajectory_hash(&pooled)
        })
        .unwrap_or_else(|d| panic!("{}: schedule divergence at 5 threads: {d}", model.name()));
        assert_eq!(explored, golden, "{}: 5-thread divergence", model.name());
    }
}

/// The pooled backend's one traversal (bucket-group stages) survives
/// 100 permuted schedules bit-identically to the simt dense oracle, the
/// paper's one-thread-per-cell mapping. Under `--features audit-runtime`
/// this is the whole-engine acceptance case for the agent-keyed
/// scatters: every bucket-group write of every permuted run passes the
/// write-set race detector.
#[test]
fn both_iteration_modes_are_schedule_independent() {
    let golden = dense_oracle_hash(ModelKind::lem());
    let explored = explore(0..100u64, |seed| {
        let mut pooled = pooled_engine_small(20, 20, 24, ModelKind::lem(), 77, 3);
        assert_eq!(pooled.iteration_mode(), IterationMode::Sparse);
        pooled.set_schedule_seed(Some(seed));
        pooled.run(15);
        trajectory_hash(&pooled)
    })
    .unwrap_or_else(|d| panic!("schedule divergence: {d}"));
    assert_eq!(
        explored, golden,
        "permuted pooled trajectories diverged from simt/dense"
    );
}

/// The knob itself is inert: permuted dispatch equals natural dispatch,
/// and switching the seed off mid-run restores natural order cleanly.
#[test]
fn schedule_knob_roundtrip_is_inert() {
    let mut natural = pooled_engine_small(20, 20, 24, ModelKind::lem(), 9, 4);
    natural.run(20);
    let golden = trajectory_hash(&natural);

    let mut toggled = pooled_engine_small(20, 20, 24, ModelKind::lem(), 9, 4);
    toggled.set_schedule_seed(Some(0xA5A5));
    toggled.run(10);
    toggled.set_schedule_seed(None);
    toggled.run(10);
    assert_eq!(trajectory_hash(&toggled), golden);
}
