//! Seeded policy tournaments: the lifetime-aware selection policies
//! against the paper's LRS, under churn.
//!
//! The paper's §VI evaluates five latency-driven policies but defers the
//! energy question. This harness produces the first result the paper
//! doesn't have: a policy × churn-trace × seed grid of [`Scenario`]s on
//! the one engine (real dispatchers, modeled physics, live [`Battery`]
//! packs),
//! where each cell reports
//!
//! * **frames played** — results that reached the sink,
//! * **p99** — end-to-end latency 99th percentile (ms),
//! * **time-to-first-death** — first battery cliff (s),
//! * **time-to-half-swarm** — when half the swarm was permanently gone,
//!   any cause (s),
//!
//! and every cell runs *twice* to prove the whole tournament is a pure
//! function of its seed (byte-identical replay). The summary serializes
//! to `tournament_summary.json` for CI artifacts, including a
//! challenger-vs-LRS comparison table with explicit lifetime margins.
//!
//! [`Battery`]: swing_device::Battery

use crate::metrics::SwarmReport;
use crate::scenario::Scenario;
use swing_core::config::RouterConfig;
use swing_core::routing::Policy;
use swing_core::SECOND_US;
use swing_device::mobility::MobilityTrace;
use swing_device::profile::{testbed, DeviceProfile, Workload};
use swing_runtime::sim::WorkerSpec;

/// One churn archetype of the tournament grid. Every trace runs five
/// workers; the energy-aware policies win by steering load toward the
/// two big-pack devices (`B`, `C`) and sparing the fast-but-small packs
/// (`G`, `H`, `I`) that pure LRS burns through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnTrace {
    /// Demand spike plus a join wave: the run starts at a gentle rate on
    /// the two big-pack workers, then the input rate triples while three
    /// small-pack devices join in quick succession.
    FlashCrowd,
    /// Asymmetric packs under steady overload: the fast workers start
    /// with small batteries, the slow ones with effectively full packs.
    BatteryCliff,
    /// Mobility-driven RSSI sweep: one worker walks out of range
    /// mid-run (a policy-independent departure) while the small packs
    /// decide who else survives.
    RssiSweep,
}

impl ChurnTrace {
    /// Every trace, in grid order.
    pub const ALL: [ChurnTrace; 3] = [
        ChurnTrace::FlashCrowd,
        ChurnTrace::BatteryCliff,
        ChurnTrace::RssiSweep,
    ];

    /// Stable snake_case name used in the JSON summary.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ChurnTrace::FlashCrowd => "flash_crowd",
            ChurnTrace::BatteryCliff => "battery_cliff",
            ChurnTrace::RssiSweep => "rssi_sweep",
        }
    }

    /// Build the trace's scenario for one `(policy, seed)` cell.
    fn scenario(self, policy: Policy, seed: u64, duration_us: u64) -> (Scenario, Vec<WorkerSpec>) {
        let p = |name: &str| -> DeviceProfile {
            testbed()
                .into_iter()
                .find(|d| d.name == name)
                .expect("testbed profile")
        };
        // Big packs: drain so slowly (in charge-fraction terms) that the
        // battery-ranked policies treat them as always healthy. Small
        // packs: die after ~30 s of sustained full-rate computing.
        let big = 3_000.0;
        let mut config = Scenario::new(Workload::FaceRecognition, RouterConfig::new(policy));
        config.seed = seed;
        config.duration_us = duration_us;
        config.input_fps = 24.0;
        let workers = match self {
            ChurnTrace::FlashCrowd => {
                // Gentle 8 FPS on B+C, then the crowd arrives: rate
                // triples at t=10 s as G, H, I join.
                config.input_fps = 8.0;
                config.rate_schedule = vec![(10 * SECOND_US, 24.0)];
                vec![
                    WorkerSpec::new(p("B")).with_battery_j(big),
                    WorkerSpec::new(p("C")).with_battery_j(big),
                    WorkerSpec::new(p("G"))
                        .with_battery_j(24.0)
                        .joining_at(10 * SECOND_US),
                    WorkerSpec::new(p("H"))
                        .with_battery_j(28.0)
                        .joining_at(12 * SECOND_US),
                    WorkerSpec::new(p("I"))
                        .with_battery_j(32.0)
                        .joining_at(14 * SECOND_US),
                ]
            }
            ChurnTrace::BatteryCliff => vec![
                WorkerSpec::new(p("B")).with_battery_j(big),
                WorkerSpec::new(p("C")).with_battery_j(big),
                WorkerSpec::new(p("G")).with_battery_j(35.0),
                WorkerSpec::new(p("H")).with_battery_j(40.0),
                WorkerSpec::new(p("I")).with_battery_j(45.0),
            ],
            ChurnTrace::RssiSweep => {
                // G walks good -> weak -> out of range and disconnects
                // at t=24 s under every policy; the batteries decide the
                // rest of the attrition order.
                use swing_device::mobility::SignalZone;
                let walk = MobilityTrace::from_steps(vec![
                    (0, SignalZone::Good.rssi_dbm()),
                    (12 * SECOND_US, SignalZone::Weak.rssi_dbm()),
                    (24 * SECOND_US, SignalZone::OutOfRange.rssi_dbm()),
                ]);
                vec![
                    WorkerSpec::new(p("B")).with_battery_j(big),
                    WorkerSpec::new(p("C")).with_battery_j(big),
                    WorkerSpec::new(p("G"))
                        .with_battery_j(60.0)
                        .with_mobility(walk),
                    WorkerSpec::new(p("H")).with_battery_j(40.0),
                    WorkerSpec::new(p("I")).with_battery_j(45.0),
                ]
            }
        };
        (config, workers)
    }
}

/// Tournament shape: which policies, which traces, which seeds.
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    /// Policies to sweep. LRS must be present — it is the baseline every
    /// energy-aware challenger is compared against.
    pub policies: Vec<Policy>,
    /// Churn traces to sweep.
    pub traces: Vec<ChurnTrace>,
    /// Seeds per `(policy, trace)` cell.
    pub seeds: Vec<u64>,
    /// Run length of every cell, microseconds.
    pub duration_us: u64,
}

impl Default for TournamentConfig {
    /// The acceptance grid: RR and LRS baselines plus the three
    /// energy-aware policies, all three churn traces, two seeds.
    fn default() -> Self {
        TournamentConfig {
            policies: vec![
                Policy::Rr,
                Policy::Lrs,
                Policy::EnergyLrs,
                Policy::Rss,
                Policy::Crowdio,
            ],
            traces: ChurnTrace::ALL.to_vec(),
            seeds: vec![42, 7],
            duration_us: 60 * SECOND_US,
        }
    }
}

/// Outcome of one `(trace, policy, seed)` cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Churn trace name.
    pub trace: String,
    /// Policy under test.
    pub policy: Policy,
    /// Seed of the run.
    pub seed: u64,
    /// Results that reached the sink.
    pub frames_played: u64,
    /// End-to-end latency p99, milliseconds.
    pub p99_ms: f64,
    /// First battery cliff, seconds (`None`: no pack emptied).
    pub time_to_first_death_s: Option<f64>,
    /// Half the swarm permanently gone, seconds (`None`: more than half
    /// survived the whole run).
    pub time_to_half_swarm_s: Option<f64>,
    /// Battery cliffs over the run.
    pub battery_deaths: usize,
    /// Workers still alive at the end of the run.
    pub survivors: usize,
    /// A second run of the same seed produced a byte-identical report.
    pub replay_identical: bool,
}

impl Cell {
    fn to_json(&self) -> String {
        format!(
            "{{\"trace\":\"{}\",\"policy\":\"{}\",\"seed\":{},\
             \"frames_played\":{},\"p99_ms\":{:.3},\
             \"time_to_first_death_s\":{},\"time_to_half_swarm_s\":{},\
             \"battery_deaths\":{},\"survivors\":{},\"replay_identical\":{}}}",
            self.trace,
            self.policy.name(),
            self.seed,
            self.frames_played,
            self.p99_ms,
            json_opt(self.time_to_first_death_s),
            json_opt(self.time_to_half_swarm_s),
            self.battery_deaths,
            self.survivors,
            self.replay_identical
        )
    }
}

/// One challenger-vs-LRS row of the comparison table: same trace, same
/// seed, lifetime margin and the p99 guard.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Churn trace name.
    pub trace: String,
    /// Seed of the pair of runs.
    pub seed: u64,
    /// The energy-aware challenger.
    pub policy: Policy,
    /// Challenger's effective time-to-half-swarm, seconds (survival to
    /// the end of the run counts as the full duration).
    pub half_s: f64,
    /// LRS's effective time-to-half-swarm, seconds.
    pub lrs_half_s: f64,
    /// `half_s - lrs_half_s`: positive means the challenger kept half
    /// the swarm alive longer.
    pub margin_s: f64,
    /// Challenger's latency p99, ms.
    pub p99_ms: f64,
    /// LRS's latency p99, ms.
    pub lrs_p99_ms: f64,
    /// Margin positive and p99 within 110% of LRS.
    pub win: bool,
}

impl Comparison {
    fn to_json(&self) -> String {
        format!(
            "{{\"trace\":\"{}\",\"seed\":{},\"policy\":\"{}\",\
             \"half_s\":{:.3},\"lrs_half_s\":{:.3},\"margin_s\":{:.3},\
             \"p99_ms\":{:.3},\"lrs_p99_ms\":{:.3},\"win\":{}}}",
            self.trace,
            self.seed,
            self.policy.name(),
            self.half_s,
            self.lrs_half_s,
            self.margin_s,
            self.p99_ms,
            self.lrs_p99_ms,
            self.win
        )
    }
}

/// The whole tournament's outcome.
#[derive(Debug, Clone)]
pub struct TournamentSummary {
    /// One entry per `(trace, policy, seed)` cell, in sweep order.
    pub cells: Vec<Cell>,
    /// Challenger-vs-LRS rows for every energy-aware cell.
    pub comparisons: Vec<Comparison>,
    /// Run length of every cell, seconds.
    pub duration_s: f64,
}

impl TournamentSummary {
    /// Every cell reproduced byte-identically on its second run.
    #[must_use]
    pub fn all_replays_identical(&self) -> bool {
        self.cells.iter().all(|c| c.replay_identical)
    }

    /// Traces where `challenger` beat LRS on time-to-half-swarm (with
    /// the p99 guard) on **every** seed.
    #[must_use]
    pub fn traces_won(&self, challenger: Policy) -> usize {
        let mut won = 0;
        let mut traces: Vec<&str> = self.comparisons.iter().map(|c| c.trace.as_str()).collect();
        traces.sort_unstable();
        traces.dedup();
        for trace in traces {
            let rows: Vec<&Comparison> = self
                .comparisons
                .iter()
                .filter(|c| c.policy == challenger && c.trace == trace)
                .collect();
            if !rows.is_empty() && rows.iter().all(|c| c.win) {
                won += 1;
            }
        }
        won
    }

    /// The PR's acceptance bar: every replay byte-identical, and at
    /// least one energy-aware policy beating LRS on time-to-half-swarm
    /// on at least two of the three churn traces without regressing p99
    /// by more than 10%.
    #[must_use]
    pub fn acceptance_passed(&self) -> bool {
        self.all_replays_identical()
            && Policy::ENERGY_AWARE
                .iter()
                .any(|&p| self.traces_won(p) >= 2)
    }

    /// Serialize as one JSON document (the `tournament_summary.json` CI
    /// artifact).
    #[must_use]
    pub fn to_json(&self) -> String {
        let winners: Vec<String> = Policy::ENERGY_AWARE
            .iter()
            .map(|&p| {
                format!(
                    "{{\"policy\":\"{}\",\"traces_won\":{}}}",
                    p.name(),
                    self.traces_won(p)
                )
            })
            .collect();
        let cells: Vec<String> = self.cells.iter().map(Cell::to_json).collect();
        let comparisons: Vec<String> = self.comparisons.iter().map(Comparison::to_json).collect();
        format!(
            "{{\"cells\":{},\"duration_s\":{:.0},\"all_replays_identical\":{},\
             \"acceptance_passed\":{},\"winners\":[{}],\"comparisons\":[{}],\
             \"grid\":[{}]}}",
            self.cells.len(),
            self.duration_s,
            self.all_replays_identical(),
            self.acceptance_passed(),
            winners.join(","),
            comparisons.join(","),
            cells.join(",")
        )
    }

    /// Write the JSON summary to `path`.
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.3}"),
        None => "null".to_string(),
    }
}

/// FNV-1a over the report's full observable surface: per-frame records,
/// per-worker stats, latency samples (bit-exact), and the lifetime event
/// logs. Two runs fingerprinting equal are byte-identical in everything
/// the tournament reports.
fn fingerprint(report: &SwarmReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(report.frames_tsv().as_bytes());
    eat(report.workers_tsv().as_bytes());
    eat(format!("{:?}", report.battery_deaths).as_bytes());
    eat(format!("{:?}", report.low_power_events).as_bytes());
    eat(format!("{:?}", report.departures).as_bytes());
    for ms in report.latency_dist.samples() {
        eat(&ms.to_bits().to_le_bytes());
    }
    eat(&report.generated.to_le_bytes());
    eat(&report.completed.to_le_bytes());
    eat(&report.lost.to_le_bytes());
    eat(&report.dropped_at_source.to_le_bytes());
    h
}

fn run_once(trace: ChurnTrace, policy: Policy, seed: u64, duration_us: u64) -> SwarmReport {
    let (config, workers) = trace.scenario(policy, seed, duration_us);
    config.run(workers)
}

/// Run one `(trace, policy, seed)` cell: the scenario once for the
/// metrics, once more for the byte-identical replay check.
#[must_use]
pub fn run_cell(trace: ChurnTrace, policy: Policy, seed: u64, duration_us: u64) -> Cell {
    let a = run_once(trace, policy, seed, duration_us);
    let b = run_once(trace, policy, seed, duration_us);
    let n = a.workers.len();
    Cell {
        trace: trace.name().to_string(),
        policy,
        seed,
        frames_played: a.completed,
        p99_ms: a.latency_percentile_ms(0.99),
        time_to_first_death_s: a.time_to_first_death_s(),
        time_to_half_swarm_s: a.time_to_half_swarm_s(),
        battery_deaths: a.battery_deaths.len(),
        survivors: n - a.departures.len(),
        replay_identical: fingerprint(&a) == fingerprint(&b),
    }
}

/// Sweep the whole tournament grid and build the comparison table.
///
/// # Panics
/// Panics if `config.policies` does not include [`Policy::Lrs`] — the
/// baseline every challenger is measured against.
#[must_use]
pub fn run_tournament(config: &TournamentConfig) -> TournamentSummary {
    assert!(
        config.policies.contains(&Policy::Lrs),
        "the tournament needs the LRS baseline"
    );
    let duration_s = config.duration_us as f64 / SECOND_US as f64;
    let mut cells = Vec::new();
    for &trace in &config.traces {
        for &policy in &config.policies {
            for &seed in &config.seeds {
                cells.push(run_cell(trace, policy, seed, config.duration_us));
            }
        }
    }
    let mut comparisons = Vec::new();
    for cell in &cells {
        if !Policy::ENERGY_AWARE.contains(&cell.policy) {
            continue;
        }
        let Some(lrs) = cells
            .iter()
            .find(|c| c.policy == Policy::Lrs && c.trace == cell.trace && c.seed == cell.seed)
        else {
            continue;
        };
        // Surviving past the end of the run is a lower bound: score it
        // as the full duration so "never lost half the swarm" beats any
        // finite collapse time.
        let half_s = cell.time_to_half_swarm_s.unwrap_or(duration_s);
        let lrs_half_s = lrs.time_to_half_swarm_s.unwrap_or(duration_s);
        let margin_s = half_s - lrs_half_s;
        comparisons.push(Comparison {
            trace: cell.trace.clone(),
            seed: cell.seed,
            policy: cell.policy,
            half_s,
            lrs_half_s,
            margin_s,
            p99_ms: cell.p99_ms,
            lrs_p99_ms: lrs.p99_ms,
            win: margin_s > 0.0 && cell.p99_ms <= lrs.p99_ms * 1.1,
        });
    }
    TournamentSummary {
        cells,
        comparisons,
        duration_s,
    }
}
