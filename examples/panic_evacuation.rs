//! Panic-alarm scenario (the paper's §VII future work, implemented):
//! a crisis fires mid-run and the crowd's decision behaviour changes.
//! Compares throughput and movement with and without the alarm.
//!
//! ```text
//! cargo run --release --example panic_evacuation
//! ```

use pedsim::core::extensions::{PanicAlarm, PanicParams};
use pedsim::prelude::*;

fn main() {
    let env = EnvConfig::small(64, 64, 400).with_seed(99);
    let steps = 600;
    let trigger = 200;

    // Calm baseline.
    let mut calm = PooledEngine::new(SimConfig::new(env, ModelKind::aco()), 1);
    calm.run(steps);
    let calm_m = calm.metrics().expect("metrics");

    // The alarm fires at step 200: agents stop trusting trails (α → 0)
    // and over-weight the goal (β × 2) — flight behaviour.
    let alarm = PanicAlarm::new(PanicParams {
        trigger_step: trigger,
        sigma_factor: 1.0,
        alpha_factor: 0.0,
        beta_factor: 2.0,
    });
    let mut panicked = PooledEngine::new(SimConfig::new(env, ModelKind::aco()), 1);
    alarm.run(&mut panicked, steps);
    let panic_m = panicked.metrics().expect("metrics");

    println!("ACO crowd of 800 on a 64x64 grid, {steps} steps, alarm at {trigger}:");
    println!(
        "  calm run : {} crossed, {} total moves",
        calm_m.throughput(),
        calm_m.total_moves
    );
    println!(
        "  panic run: {} crossed, {} total moves",
        panic_m.throughput(),
        panic_m.total_moves
    );
    println!(
        "\npanic removes trail-following: the crowd loses the lane structure \
         that bi-directional flow needs, so late-run throughput degrades \
         (compare the two numbers above)."
    );

    // The same alarm applied to a LEM crowd: σ inflation (erratic choices).
    let lem_alarm = PanicAlarm::new(PanicParams {
        trigger_step: trigger,
        sigma_factor: 6.0,
        alpha_factor: 1.0,
        beta_factor: 1.0,
    });
    let mut lem_calm = PooledEngine::new(SimConfig::new(env, ModelKind::lem()), 1);
    lem_calm.run(steps);
    let mut lem_panic = PooledEngine::new(SimConfig::new(env, ModelKind::lem()), 1);
    lem_alarm.run(&mut lem_panic, steps);
    println!(
        "\nLEM comparison — calm: {} crossed, panicked (sigma x6): {} crossed",
        lem_calm.metrics().expect("m").throughput(),
        lem_panic.metrics().expect("m").throughput()
    );
}
