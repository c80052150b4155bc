//! Shape-level checks of the paper's headline claims at reduced scale.
//! These are the qualitative results EXPERIMENTS.md quantifies at the
//! default/paper scales; here they gate the build at a scale CI can
//! afford.

use pedsim::prelude::*;
use pedsim::stats::BinomialGlm;

/// Throughput of `model` on a square grid after `steps`.
fn throughput(side: usize, per_side: usize, steps: u64, model: ModelKind, seed: u64) -> usize {
    let env = EnvConfig::small(side, side, per_side).with_seed(seed);
    let mut e = GpuEngine::new(SimConfig::new(env, model), simt::Device::parallel());
    e.run(steps);
    e.metrics().expect("metrics").throughput()
}

/// Fig. 6a, low density: LEM and ACO are effectively the same — everyone
/// crosses ("for first 9 simulation scenarios, the throughput for both …
/// is effectively the same").
#[test]
fn low_density_models_equal() {
    let mut lem_total = 0usize;
    let mut aco_total = 0usize;
    for seed in 0..3 {
        lem_total += throughput(64, 120, 700, ModelKind::lem(), seed);
        aco_total += throughput(64, 120, 700, ModelKind::aco(), seed);
    }
    let diff = (lem_total as f64 - aco_total as f64).abs() / lem_total.max(1) as f64;
    assert!(
        diff < 0.15,
        "low-density LEM ({lem_total}) and ACO ({aco_total}) should be close"
    );
    // And most agents actually cross.
    assert!(lem_total as f64 > 0.7 * (3.0 * 240.0), "{lem_total}");
}

/// Fig. 6a, medium density: ACO sustains throughput where LEM degrades
/// (the paper's headline +39.6 %; here we only require a clear win).
#[test]
fn medium_density_aco_wins() {
    let mut lem_total = 0usize;
    let mut aco_total = 0usize;
    for seed in 0..3 {
        // ~30 % fill on a 64x64 grid.
        lem_total += throughput(64, 620, 900, ModelKind::lem(), 100 + seed);
        aco_total += throughput(64, 620, 900, ModelKind::aco(), 100 + seed);
    }
    assert!(
        aco_total as f64 > 1.10 * lem_total as f64,
        "ACO ({aco_total}) should clearly beat LEM ({lem_total}) at medium density"
    );
}

/// Fig. 6a, extreme density: both models gridlock ("when highly congested
/// neither the LEM nor ACO offer a means for pedestrian movement").
#[test]
fn extreme_density_gridlocks_both() {
    for model in [ModelKind::lem(), ModelKind::aco()] {
        // Two 22-row bands at 90 % fill meeting in a 48x48 box: 41 % of
        // the whole grid is occupied, far past the paper's jamming point.
        let env = EnvConfig::small(48, 48, 950)
            .with_seed(7)
            .with_spawn_rows(22);
        let mut e = GpuEngine::new(SimConfig::new(env, model), simt::Device::parallel());
        e.run(400);
        let t = e.metrics().expect("metrics").throughput();
        let frac = t as f64 / 1_900.0;
        assert!(
            frac < 0.10,
            "{} should gridlock at extreme density, crossed {:.0}%",
            model.name(),
            frac * 100.0
        );
    }
}

/// Fig. 6b: CPU and GPU throughput are statistically indistinguishable —
/// the GLM's CPU/GPU indicator is not significant (paper p = 0.6145).
#[test]
fn cpu_gpu_glm_not_significant() {
    let device = simt::Device::parallel();
    let mut glm = BinomialGlm::new();
    for (i, per_side) in [150usize, 250, 350, 450].into_iter().enumerate() {
        for k in 0..2u64 {
            let seed_cpu = 9_000 + i as u64 * 37 + k;
            let seed_gpu = 19_000 + i as u64 * 37 + k;
            let n = 2 * per_side;
            let envc = EnvConfig::small(64, 64, per_side).with_seed(seed_cpu);
            let mut cpu = PooledEngine::new(SimConfig::new(envc, ModelKind::aco()), 1);
            cpu.run(500);
            let envg = EnvConfig::small(64, 64, per_side).with_seed(seed_gpu);
            let mut gpu = GpuEngine::new(SimConfig::new(envg, ModelKind::aco()), device.clone());
            gpu.run(500);
            let x = n as f64 / 100.0;
            glm.push(
                &[x, 0.0],
                cpu.metrics().unwrap().throughput() as u64,
                n as u64,
            );
            glm.push(
                &[x, 1.0],
                gpu.metrics().unwrap().throughput() as u64,
                n as u64,
            );
        }
    }
    let fit = glm.fit().expect("GLM fit");
    assert!(
        fit.p[2] > 0.05,
        "CPU/GPU indicator unexpectedly significant: p = {} (coef {})",
        fit.p[2],
        fit.coef[2]
    );
}

/// Fig. 5a's shape: ACO costs only a modest constant factor over LEM
/// (paper: +11 %). Wall-clock bound kept loose for CI noise.
#[test]
fn aco_overhead_is_modest() {
    use std::time::Instant;
    let env = EnvConfig::small(96, 96, 1_000).with_seed(3);
    let device = simt::Device::parallel();
    let time = |model: ModelKind| {
        let cfg = SimConfig::new(env, model).with_metrics(false);
        let mut e = GpuEngine::new(cfg, device.clone());
        e.run(10); // warm
        let t0 = Instant::now();
        e.run(150);
        t0.elapsed().as_secs_f64()
    };
    let lem = time(ModelKind::lem());
    let aco = time(ModelKind::aco());
    let ratio = aco / lem;
    assert!(
        ratio < 2.5,
        "ACO/LEM time ratio {ratio:.2} is far beyond the paper's ~1.11 shape"
    );
}
