//! Seeded federation run at configurable scale — the 10k-device
//! quick-start and the by-hand phase table of DESIGN.md §5.
//!
//! ```text
//! cargo run --release --example federation_scale -- \
//!     [swarms] [workers_per_swarm] [seconds] [seed] [threads]
//! ```
//!
//! Defaults: 100 swarms × 100 workers (10 000 devices), 10 virtual
//! seconds, seed 1, one thread per core. Prints a run summary and, when
//! `SWING_FED_OUT` is set, writes the federated telemetry rollup JSON
//! there — the same seed at different thread counts writes
//! byte-identical files (`swing-sim/tests/federation.rs` asserts it).

use std::time::Instant;
use swing_core::SECOND_US;
use swing_sim::federation::{Federation, FederationConfig};

fn arg<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let swarms: usize = arg(1, 100);
    let workers: usize = arg(2, 100);
    let seconds: u64 = arg(3, 10);
    let seed: u64 = arg(4, 1);
    let threads: usize = arg(
        5,
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    );

    let config = FederationConfig {
        swarms,
        workers_per_swarm: workers,
        frames_per_source: seconds.saturating_mul(30), // 30 fps for the whole span
        seed,
        threads,
        horizon_us: (seconds + 5) * SECOND_US, // tail room past the last capture
        ..FederationConfig::default()
    };
    let devices = swarms * workers;
    eprintln!(
        "federation: {swarms} swarms x {workers} workers = {devices} devices, \
         {seconds}s virtual @ seed {seed}, {threads} threads"
    );

    let wall = Instant::now();
    let fed = Federation::build(config).expect("federation builds");
    let build = wall.elapsed();
    let wall = Instant::now();
    let report = fed.run();
    let wall_ms = wall.elapsed().as_millis();
    // One evaluation, phase by phase (DESIGN.md section 5 tabulates this line).
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let w = report.wall;
    eprintln!(
        "phases_ms: build={:.1} event_loop={:.1} finish={:.1} member_reads={:.1} \
         rollup={:.1} teardown={:.1} export={:.1}",
        ms(build),
        ms(w.engine),
        ms(w.finish),
        ms(w.status),
        ms(w.rollup),
        ms(w.teardown),
        ms(w.export)
    );

    let sensed = report.federated_counter("swing_source_sensed_total");
    let played = report.federated_counter("swing_sink_played_total");
    let tuples_per_sec = if wall_ms == 0 {
        0.0
    } else {
        sensed as f64 * 1000.0 / wall_ms as f64
    };
    println!(
        "devices={devices} windows={} threads={} wall_ms={wall_ms} \
         sensed={sensed} played={played} gateway_routed={} gateway_ingress={} \
         tuples_per_sec={tuples_per_sec:.0} conserved={}",
        report.windows,
        report.threads,
        report.routed,
        report.federated_ingress(),
        report.all_conserved()
    );
    assert!(
        report.all_conserved(),
        "conservation violated at scale: {:?}",
        report
            .swarms
            .iter()
            .filter(|s| !s.conserved)
            .collect::<Vec<_>>()
    );

    if let Some(path) = std::env::var_os("SWING_FED_OUT") {
        std::fs::write(&path, &report.federated_json).expect("write federated rollup");
        eprintln!(
            "federated rollup written to {}",
            path.as_os_str().to_string_lossy()
        );
    }
}
