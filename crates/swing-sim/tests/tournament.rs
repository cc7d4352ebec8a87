//! The seeded policy tournament as a test: the PR's acceptance bar,
//! enforced. Writes `tournament_summary.json` (to
//! `$SWING_TOURNAMENT_OUT` when set, else into `target/`) so CI can
//! upload it as an artifact.

use std::path::PathBuf;
use swing_core::routing::Policy;
use swing_sim::tournament::{run_cell, run_tournament, ChurnTrace, TournamentConfig};

fn summary_path() -> PathBuf {
    match std::env::var_os("SWING_TOURNAMENT_OUT") {
        Some(p) => PathBuf::from(p),
        None => {
            // target/<profile>/tournament_summary.json next to the test
            // binary, wherever cargo placed it.
            let mut p = std::env::current_exe().expect("test binary path");
            p.pop(); // binary name
            p.pop(); // deps/
            p.push("tournament_summary.json");
            p
        }
    }
}

/// The full acceptance grid: 5 policies × 3 churn traces × 2 seeds, each
/// cell run twice for the replay check. The bar: byte-identical replay
/// everywhere, and at least one energy-aware policy beating LRS on
/// time-to-half-swarm on at least 2 of the 3 traces without regressing
/// p99 by more than 10%.
#[test]
fn tournament_meets_acceptance_bar() {
    let config = TournamentConfig::default();
    assert_eq!(
        config.policies.len() * config.traces.len() * config.seeds.len(),
        30
    );
    let summary = run_tournament(&config);

    let path = summary_path();
    summary.write(&path).expect("write tournament summary");
    eprintln!("tournament summary written to {}", path.display());

    // Every cell of the grid replayed byte-identically.
    let diverged: Vec<String> = summary
        .cells
        .iter()
        .filter(|c| !c.replay_identical)
        .map(|c| format!("{}/{}/seed {}", c.trace, c.policy.name(), c.seed))
        .collect();
    assert!(
        diverged.is_empty(),
        "same-seed replay diverged in {} cells:\n{}",
        diverged.len(),
        diverged.join("\n")
    );

    // Battery cliffs actually fired: LRS loses half the swarm on every
    // trace, so the lifetime metric is measuring real attrition, not a
    // degenerate always-survives run.
    for cell in summary.cells.iter().filter(|c| c.policy == Policy::Lrs) {
        assert!(
            cell.time_to_first_death_s.is_some(),
            "{} seed {}: LRS never hit a battery cliff",
            cell.trace,
            cell.seed
        );
        assert!(
            cell.time_to_half_swarm_s.is_some(),
            "{} seed {}: LRS never lost half the swarm",
            cell.trace,
            cell.seed
        );
    }

    // The headline result, with margin: RSS (correlated-source subset
    // selection, battery-ranked) outlives LRS on every trace and every
    // seed, by at least one full re-selection period.
    let rss_rows: Vec<_> = summary
        .comparisons
        .iter()
        .filter(|c| c.policy == Policy::Rss)
        .collect();
    assert_eq!(rss_rows.len(), 6);
    for row in &rss_rows {
        assert!(
            row.win && row.margin_s >= 1.0,
            "{} seed {}: RSS margin {:.1}s over LRS (p99 {:.1}ms vs {:.1}ms)",
            row.trace,
            row.seed,
            row.margin_s,
            row.p99_ms,
            row.lrs_p99_ms
        );
    }

    assert!(summary.traces_won(Policy::Rss) >= 2, "RSS won < 2 traces");
    assert!(
        summary.acceptance_passed(),
        "acceptance bar failed: winners = {:?}",
        Policy::ENERGY_AWARE
            .iter()
            .map(|&p| (p.name(), summary.traces_won(p)))
            .collect::<Vec<_>>()
    );

    // The artifact is well-formed enough for CI to parse the verdict.
    let json = summary.to_json();
    assert!(json.contains("\"acceptance_passed\":true"));
    assert!(json.contains("\"all_replays_identical\":true"));
}

/// A single cell re-run outside the harness lands on the same numbers —
/// the tournament is a pure function of (trace, policy, seed).
#[test]
fn cell_is_pure_function_of_seed() {
    let a = run_cell(ChurnTrace::BatteryCliff, Policy::Rss, 42, 20_000_000);
    let b = run_cell(ChurnTrace::BatteryCliff, Policy::Rss, 42, 20_000_000);
    assert!(a.replay_identical && b.replay_identical);
    assert_eq!(a.frames_played, b.frames_played);
    assert_eq!(a.p99_ms.to_bits(), b.p99_ms.to_bits());
    assert_eq!(a.time_to_first_death_s, b.time_to_first_death_s);
    assert_eq!(a.time_to_half_swarm_s, b.time_to_half_swarm_s);
}

/// Different seeds genuinely perturb the run (the RNG reaches arrival
/// jitter and service noise), while the structural outcome — RSS keeps
/// the big packs alive — holds across them.
#[test]
fn seeds_perturb_but_structure_holds() {
    let a = run_cell(ChurnTrace::BatteryCliff, Policy::Rss, 1, 30_000_000);
    let b = run_cell(ChurnTrace::BatteryCliff, Policy::Rss, 2, 30_000_000);
    assert_ne!(
        (a.frames_played, a.p99_ms.to_bits()),
        (b.frames_played, b.p99_ms.to_bits()),
        "two seeds produced identical runs"
    );
    assert_eq!(a.battery_deaths, 0);
    assert_eq!(b.battery_deaths, 0);
}

/// The per-trace ranking by mean time-to-half-swarm. Two seeds cannot
/// carry it — RR and RSS sit within a second of each other, as do LRS
/// and ELRS — so it is taken over ten: on every trace
/// RR ≥ RSS > CROWDIO > ELRS ≥ LRS, which is also what the retired
/// single-shape simulator gave over the same ten seeds.
#[test]
fn ranking_over_ten_seeds_holds_on_every_trace() {
    let config = TournamentConfig {
        seeds: (1..=10).collect(),
        ..TournamentConfig::default()
    };
    let duration_s = config.duration_us as f64 / 1e6;
    let summary = run_tournament(&config);
    assert!(summary.all_replays_identical());
    for trace in ChurnTrace::ALL {
        let mean_half_s = |policy: Policy| {
            let halves: Vec<f64> = summary
                .cells
                .iter()
                .filter(|c| c.trace == trace.name() && c.policy == policy)
                .map(|c| c.time_to_half_swarm_s.unwrap_or(duration_s))
                .collect();
            assert_eq!(halves.len(), 10);
            halves.iter().sum::<f64>() / 10.0
        };
        let [rr, lrs, elrs, rss, crowdio] = [
            Policy::Rr,
            Policy::Lrs,
            Policy::EnergyLrs,
            Policy::Rss,
            Policy::Crowdio,
        ]
        .map(mean_half_s);
        assert!(
            rr >= rss && rss > crowdio && crowdio > elrs && elrs >= lrs,
            "{}: RR {rr:.2} RSS {rss:.2} CROWDIO {crowdio:.2} ELRS {elrs:.2} LRS {lrs:.2}",
            trace.name()
        );
    }
}
