//! Seeded chaos campaign over the self-healing runtime.
//!
//! A campaign sweeps a fault grid — crash mid-stream, crash during a
//! deploy wave, cascading crashes, a master outage, an asymmetric
//! partition, a join/leave storm — across seeds, running each scenario
//! on the deterministic [`SimSwarm`] (the real dispatchers under
//! virtual time). Every grid point checks the PR's robustness
//! invariants:
//!
//! 1. **Conservation**: the shed-accounting identity
//!    `sensed = (played + stale) + shed_at_source + shed_in_queue + lost`
//!    holds exactly, with `lost == 0` — retransmission plus unit
//!    re-placement must account for every sensed frame.
//! 2. **Bounded recovery**: crash-to-re-placement latency stays within
//!    the failure-detection bound of the scenario.
//! 3. **Replay**: the same seed reproduces a byte-identical telemetry
//!    export — the whole chaos scenario is a pure function of its seed.
//!
//! The result is a [`CampaignSummary`] that serializes to JSON for CI
//! artifacts (`campaign_summary.json`).

use std::sync::atomic::{AtomicU64, Ordering};
use swing_core::config::{ReorderConfig, RetryConfig};
use swing_core::graph::AppGraph;
use swing_core::timing::CONTROL_PERIOD_US;
use swing_core::unit::{closure_sink, closure_source, PassThrough};
use swing_core::{Tuple, SECOND_US};
use swing_runtime::registry::UnitRegistry;
use swing_runtime::sim::{SimSwarm, SimSwarmConfig};
use swing_telemetry::{names as tn, Telemetry};

/// One fault archetype of the campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An operator host crashes while frames stream.
    CrashMidStream,
    /// A worker crashes at the same instant a join wave deploys units.
    CrashDuringDeploy,
    /// Both operator hosts die in quick succession; the endpoint host
    /// becomes the sole survivor and must absorb the whole pipeline.
    CascadingCrashes,
    /// The master goes dark across a worker crash: eviction and
    /// re-placement defer until it returns.
    MasterOutage,
    /// All traffic toward one worker blackholes for a window, then
    /// heals — no crash, retransmission carries the gap.
    Partition,
    /// Interleaved leaves and rejoins: two crashes, two replacements.
    JoinLeaveStorm,
}

impl FaultKind {
    /// Every archetype, in grid order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::CrashMidStream,
        FaultKind::CrashDuringDeploy,
        FaultKind::CascadingCrashes,
        FaultKind::MasterOutage,
        FaultKind::Partition,
        FaultKind::JoinLeaveStorm,
    ];

    /// Stable snake_case name used in the JSON summary.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::CrashMidStream => "crash_mid_stream",
            FaultKind::CrashDuringDeploy => "crash_during_deploy",
            FaultKind::CascadingCrashes => "cascading_crashes",
            FaultKind::MasterOutage => "master_outage",
            FaultKind::Partition => "partition",
            FaultKind::JoinLeaveStorm => "join_leave_storm",
        }
    }

    /// Upper bound on crash-to-re-placement latency for this scenario,
    /// microseconds. The sim's failure-detection delay is one control
    /// period; a master outage adds its own dark window.
    #[must_use]
    pub fn recovery_bound_us(self) -> u64 {
        match self {
            FaultKind::MasterOutage => 8 * SECOND_US,
            _ => 2 * CONTROL_PERIOD_US,
        }
    }
}

/// Campaign shape: which faults, which seeds, how much traffic.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Fault archetypes to sweep.
    pub kinds: Vec<FaultKind>,
    /// Seeds per archetype (the grid is `kinds × seeds`).
    pub seeds: Vec<u64>,
    /// Frames the source senses per run.
    pub frames: u64,
}

impl Default for CampaignConfig {
    /// The full 6-archetype grid over two seeds: 12 grid points.
    fn default() -> Self {
        CampaignConfig {
            kinds: FaultKind::ALL.to_vec(),
            seeds: vec![11, 23],
            frames: 300,
        }
    }
}

/// Outcome of one `(fault, seed)` grid point.
#[derive(Debug, Clone)]
pub struct GridPoint {
    /// Fault archetype name.
    pub fault: String,
    /// Seed of the run.
    pub seed: u64,
    /// Frames the source sensed.
    pub sensed: u64,
    /// Frames the sink played.
    pub played: u64,
    /// Frames that arrived after playback passed them.
    pub stale: u64,
    /// Frames shed at the source admission gate.
    pub shed_source: u64,
    /// Frames shed from operator mailboxes.
    pub shed_queue: u64,
    /// Frames abandoned by the retransmission layer.
    pub lost: u64,
    /// Final deployment epoch.
    pub epoch: u64,
    /// Units re-placed onto survivors.
    pub replaced_units: u64,
    /// Worst crash-to-re-placement latency observed, microseconds.
    pub recovery_max_us: u64,
    /// Invariant 1: the conservation identity held with zero loss.
    pub conserved: bool,
    /// Invariant 2: recovery stayed within the scenario's bound.
    pub recovery_bounded: bool,
    /// Invariant 3: a second run of the same seed exported
    /// byte-identical telemetry.
    pub replay_identical: bool,
}

impl GridPoint {
    /// All three invariants held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.conserved && self.recovery_bounded && self.replay_identical
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"fault\":\"{}\",\"seed\":{},\"sensed\":{},\"played\":{},\
             \"stale\":{},\"shed_source\":{},\"shed_queue\":{},\"lost\":{},\
             \"epoch\":{},\"replaced_units\":{},\"recovery_max_us\":{},\
             \"conserved\":{},\"recovery_bounded\":{},\"replay_identical\":{},\
             \"passed\":{}}}",
            self.fault,
            self.seed,
            self.sensed,
            self.played,
            self.stale,
            self.shed_source,
            self.shed_queue,
            self.lost,
            self.epoch,
            self.replaced_units,
            self.recovery_max_us,
            self.conserved,
            self.recovery_bounded,
            self.replay_identical,
            self.passed()
        )
    }
}

/// The whole campaign's outcome.
#[derive(Debug, Clone)]
pub struct CampaignSummary {
    /// One entry per `(fault, seed)` grid point, in sweep order.
    pub points: Vec<GridPoint>,
    /// Federated re-run section (the archetypes applied inside members
    /// of a swarm-of-swarms), when the campaign ran one. Attached by
    /// the caller via [`run_federated_chaos`].
    pub federation: Option<FederatedChaosSummary>,
}

impl CampaignSummary {
    /// Grid points whose invariants all held.
    #[must_use]
    pub fn passed(&self) -> usize {
        self.points.iter().filter(|p| p.passed()).count()
    }

    /// Grid points with at least one violated invariant.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.points.len() - self.passed()
    }

    /// Serialize the summary as a single JSON document (the
    /// `campaign_summary.json` CI artifact).
    #[must_use]
    pub fn to_json(&self) -> String {
        let points: Vec<String> = self.points.iter().map(GridPoint::to_json).collect();
        let federation = match &self.federation {
            Some(f) => format!(",\"federation\":{}", f.to_json()),
            None => String::new(),
        };
        format!(
            "{{\"grid_points\":{},\"passed\":{},\"failed\":{},\"points\":[{}]{}}}",
            self.points.len(),
            self.passed(),
            self.failed(),
            points.join(","),
            federation
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

fn graph() -> AppGraph {
    let mut g = AppGraph::new("campaign-app");
    let s = g.add_source("cam");
    let o = g.add_operator("work");
    let k = g.add_sink("out");
    g.connect(s, o).expect("valid edge");
    g.connect(o, k).expect("valid edge");
    g
}

fn registry(frames: u64) -> UnitRegistry {
    let mut r = UnitRegistry::new();
    r.register_source("cam", move || {
        let count = AtomicU64::new(0);
        closure_source(move |_now| {
            if count.fetch_add(1, Ordering::Relaxed) < frames {
                Some(Tuple::new().with("v", 1i64))
            } else {
                None
            }
        })
    });
    r.register_operator("work", || PassThrough);
    r.register_sink("out", || closure_sink(|_, _| ()));
    r
}

pub(crate) fn sim_config(seed: u64) -> SimSwarmConfig {
    let mut c = SimSwarmConfig {
        seed,
        ..SimSwarmConfig::default()
    };
    c.node.input_fps = 30.0;
    c.node.retry = RetryConfig {
        enabled: true,
        deadline_factor: 3.0,
        deadline_floor_us: 50_000,
        deadline_ceiling_us: 400_000,
        backoff_factor: 1.5,
        max_retries: 20,
        dedup_window: 8192,
    };
    c.node.reorder = ReorderConfig {
        span_us: 10 * SECOND_US,
    };
    c.node.telemetry = Telemetry::new();
    c
}

/// One scenario run; returns the final counters plus the telemetry
/// export for the replay comparison.
struct RunOutcome {
    sensed: u64,
    played: u64,
    stale: u64,
    shed_source: u64,
    shed_queue: u64,
    lost: u64,
    epoch: u64,
    replaced_units: u64,
    recovery_count: u64,
    recovery_max_us: u64,
    export: String,
}

fn run_once(kind: FaultKind, seed: u64, frames: u64) -> RunOutcome {
    // Workers A (source + sink host) plus operator hosts. Faults never
    // touch A directly, so the endpoints survive every scenario.
    // CrashMidStream runs with a single operator host to make the crash
    // a *sole-host* loss — the archetype that forces re-placement.
    let mut workers = vec![
        ("A".to_string(), registry(frames)),
        ("B".to_string(), registry(0)),
    ];
    if kind != FaultKind::CrashMidStream {
        workers.push(("C".to_string(), registry(0)));
    }
    let mut swarm =
        SimSwarm::start(graph(), workers, sim_config(seed)).expect("campaign swarm starts");
    let telemetry = swarm.telemetry().clone();

    match kind {
        FaultKind::CrashMidStream => {
            swarm.crash_worker_at("B", 5 * SECOND_US);
        }
        FaultKind::CrashDuringDeploy => {
            // The join wave and the crash land on the same virtual
            // instant: reconcile deploys while a roster entry dies.
            swarm.add_worker_at("D", registry(0), 3 * SECOND_US);
            swarm.crash_worker_at("C", 3 * SECOND_US);
        }
        FaultKind::CascadingCrashes => {
            swarm.crash_worker_at("B", 4 * SECOND_US);
            swarm.crash_worker_at("C", 4 * SECOND_US + SECOND_US / 2);
        }
        FaultKind::MasterOutage => {
            swarm.master_outage(2 * SECOND_US, 8 * SECOND_US);
            swarm.crash_worker_at("C", 3 * SECOND_US);
        }
        FaultKind::Partition => {
            swarm.partition_worker("C", 3 * SECOND_US, 6 * SECOND_US);
        }
        FaultKind::JoinLeaveStorm => {
            swarm.crash_worker_at("C", 2 * SECOND_US);
            swarm.add_worker_at("C2", registry(0), 4 * SECOND_US);
            swarm.crash_worker_at("B", 5 * SECOND_US);
            swarm.add_worker_at("B2", registry(0), 7 * SECOND_US);
        }
    }

    swarm.run_for(60 * SECOND_US);
    let epoch = swarm.epoch();
    let _ = swarm.finish();

    let snap = telemetry.snapshot();
    let recovery = snap.histogram_total(tn::FAILOVER_RECOVERY_US);
    RunOutcome {
        sensed: snap.counter_total(tn::SOURCE_SENSED),
        played: snap.counter_total(tn::SINK_PLAYED),
        stale: snap.counter_total(tn::SINK_STALE),
        shed_source: snap.counter_total(tn::SOURCE_SHED),
        shed_queue: snap.counter_total(tn::EXEC_SHED_IN_QUEUE),
        lost: snap.counter_total(tn::EXEC_LOST),
        epoch,
        replaced_units: snap.counter_total(tn::FAILOVER_REPLACED_UNITS),
        recovery_count: recovery.count,
        recovery_max_us: recovery.max,
        export: telemetry.to_json(),
    }
}

/// Run one `(fault, seed)` grid point: the scenario once for the
/// invariants, once more for the replay comparison.
#[must_use]
pub fn run_grid_point(kind: FaultKind, seed: u64, frames: u64) -> GridPoint {
    let a = run_once(kind, seed, frames);
    let b = run_once(kind, seed, frames);
    let conserved = a.sensed == frames
        && a.lost == 0
        && a.sensed == (a.played + a.stale) + a.shed_source + a.shed_queue + a.lost;
    let recovery_bounded = a.recovery_count == 0 || a.recovery_max_us <= kind.recovery_bound_us();
    GridPoint {
        fault: kind.name().to_string(),
        seed,
        sensed: a.sensed,
        played: a.played,
        stale: a.stale,
        shed_source: a.shed_source,
        shed_queue: a.shed_queue,
        lost: a.lost,
        epoch: a.epoch,
        replaced_units: a.replaced_units,
        recovery_max_us: a.recovery_max_us,
        conserved,
        recovery_bounded,
        replay_identical: a.export == b.export,
    }
}

/// Sweep the whole campaign grid.
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> CampaignSummary {
    let mut points = Vec::new();
    for &kind in &config.kinds {
        for &seed in &config.seeds {
            points.push(run_grid_point(kind, seed, config.frames));
        }
    }
    CampaignSummary {
        points,
        federation: None,
    }
}

// ---------------------------------------------------------------------------
// Federated chaos re-run: the same archetypes at swarm-of-swarms scale.
// ---------------------------------------------------------------------------

/// Shape of the federated chaos re-run: one federation on the sharded
/// parallel engine, with a fault archetype applied round-robin inside
/// every member swarm.
#[derive(Debug, Clone)]
pub struct FederatedChaosConfig {
    /// Member swarms. The default re-runs the campaign at 100-swarm
    /// scale.
    pub swarms: usize,
    /// Devices per member; at least 4 so every archetype has operator
    /// hosts to kill and a survivor to re-place onto.
    pub workers_per_swarm: usize,
    /// Frames each member's source senses.
    pub frames: u64,
    /// Master seed of the federation.
    pub seed: u64,
    /// Engine worker threads (any value reproduces the same schedule).
    pub threads: usize,
}

impl Default for FederatedChaosConfig {
    fn default() -> Self {
        FederatedChaosConfig {
            swarms: 100,
            workers_per_swarm: 4,
            frames: 150,
            seed: 17,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }
}

/// One member's outcome in the federated re-run: which archetype hit
/// it, plus its master-status row (epoch, roster, counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FederatedMember {
    /// Fault archetype applied inside this member.
    pub fault: String,
    /// The member's post-run status.
    pub status: crate::federation::SwarmStatus,
}

/// Outcome of the federated chaos re-run.
#[derive(Debug, Clone)]
pub struct FederatedChaosSummary {
    /// Total devices simulated.
    pub devices: usize,
    /// Synchronization windows the engine executed.
    pub windows: u64,
    /// Engine threads used.
    pub threads: usize,
    /// Gateway frames routed over inter-swarm links.
    pub routed: u64,
    /// Gateway frames consumed by peers.
    pub ingress: u64,
    /// Per-member rows, in shard order.
    pub members: Vec<FederatedMember>,
    /// A second run of the same seed exported a byte-identical
    /// federated telemetry rollup.
    pub replay_identical: bool,
}

impl FederatedChaosSummary {
    /// Members whose shed-accounting identity held with zero loss.
    #[must_use]
    pub fn conserved_members(&self) -> usize {
        self.members.iter().filter(|m| m.status.conserved).count()
    }

    /// Every member conserved and the replay matched.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.replay_identical && self.conserved_members() == self.members.len()
    }

    /// Serialize as one JSON object (the `federation` section of
    /// `campaign_summary.json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .members
            .iter()
            .map(|m| {
                format!(
                    "{{\"fault\":\"{}\",\"status\":{}}}",
                    m.fault,
                    m.status.to_json()
                )
            })
            .collect();
        format!(
            "{{\"swarms\":{},\"devices\":{},\"windows\":{},\"threads\":{},\
             \"routed\":{},\"ingress\":{},\"conserved_members\":{},\
             \"replay_identical\":{},\"passed\":{},\"members\":[{}]}}",
            self.members.len(),
            self.devices,
            self.windows,
            self.threads,
            self.routed,
            self.ingress,
            self.conserved_members(),
            self.replay_identical,
            self.passed(),
            members.join(",")
        )
    }
}

/// Apply one archetype inside a member swarm. Worker `w0` hosts the
/// endpoints and is never touched; the single-swarm campaign's timings
/// are kept so the federated run stresses the same recovery paths.
fn apply_member_fault(swarm: &mut SimSwarm, kind: FaultKind) {
    use crate::federation::member_registry;
    match kind {
        FaultKind::CrashMidStream => {
            swarm.crash_worker_at("w1", 5 * SECOND_US);
        }
        FaultKind::CrashDuringDeploy => {
            swarm.add_worker_at("wj", member_registry(0), 3 * SECOND_US);
            swarm.crash_worker_at("w2", 3 * SECOND_US);
        }
        FaultKind::CascadingCrashes => {
            swarm.crash_worker_at("w1", 4 * SECOND_US);
            swarm.crash_worker_at("w2", 4 * SECOND_US + SECOND_US / 2);
        }
        FaultKind::MasterOutage => {
            swarm.master_outage(2 * SECOND_US, 8 * SECOND_US);
            swarm.crash_worker_at("w2", 3 * SECOND_US);
        }
        FaultKind::Partition => {
            swarm.partition_worker("w1", 3 * SECOND_US, 6 * SECOND_US);
        }
        FaultKind::JoinLeaveStorm => {
            swarm.crash_worker_at("w2", 2 * SECOND_US);
            swarm.add_worker_at("wj", member_registry(0), 4 * SECOND_US);
            swarm.crash_worker_at("w1", 5 * SECOND_US);
            swarm.add_worker_at("wk", member_registry(0), 7 * SECOND_US);
        }
    }
}

fn run_federated_once(config: &FederatedChaosConfig) -> crate::federation::FederationReport {
    let mut fed = crate::federation::Federation::build(crate::federation::FederationConfig {
        swarms: config.swarms,
        workers_per_swarm: config.workers_per_swarm,
        frames_per_source: config.frames,
        seed: config.seed,
        threads: config.threads,
        ..crate::federation::FederationConfig::default()
    })
    .expect("federated campaign builds");
    for i in 0..config.swarms {
        apply_member_fault(fed.swarm_mut(i), FaultKind::ALL[i % FaultKind::ALL.len()]);
    }
    fed.run()
}

/// Re-run the chaos archetypes at federation scale: every member swarm
/// takes a fault from the grid (round-robin), the sharded engine runs
/// them in parallel, and the run repeats once to check that the whole
/// federated schedule is a pure function of its seed. Attach the
/// result to a [`CampaignSummary`] to land it in
/// `campaign_summary.json`.
///
/// # Panics
/// If `workers_per_swarm < 4` — the archetypes need two operator
/// hosts to fault and a survivor.
#[must_use]
pub fn run_federated_chaos(config: &FederatedChaosConfig) -> FederatedChaosSummary {
    assert!(
        config.workers_per_swarm >= 4,
        "federated archetypes need at least 4 workers per swarm"
    );
    let a = run_federated_once(config);
    let b = run_federated_once(config);
    let members = a
        .swarms
        .iter()
        .map(|s| FederatedMember {
            fault: FaultKind::ALL[s.id % FaultKind::ALL.len()]
                .name()
                .to_string(),
            status: s.clone(),
        })
        .collect();
    FederatedChaosSummary {
        devices: a.devices,
        windows: a.windows,
        threads: a.threads,
        routed: a.routed,
        ingress: a.federated_ingress(),
        members,
        replay_identical: a.federated_json == b.federated_json && a.swarms == b.swarms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_grid_point_passes_and_serializes() {
        let p = run_grid_point(FaultKind::CrashMidStream, 7, 150);
        assert!(p.conserved, "conservation violated: {p:?}");
        assert!(p.recovery_bounded, "recovery unbounded: {p:?}");
        assert!(p.replay_identical, "replay diverged: {p:?}");
        let json = p.to_json();
        assert!(json.contains("\"fault\":\"crash_mid_stream\""));
        assert!(json.contains("\"passed\":true"));
    }

    #[test]
    fn federated_chaos_conserves_replays_and_reports_member_status() {
        let cfg = FederatedChaosConfig {
            swarms: 12, // two full passes over the archetype grid
            workers_per_swarm: 4,
            frames: 90,
            seed: 5,
            threads: 2,
        };
        let fed = run_federated_chaos(&cfg);
        assert!(fed.passed(), "federated chaos failed: {fed:?}");
        assert_eq!(fed.devices, 48);
        // Crash archetypes moved their member's epoch; rosters reflect
        // the churn (a lone crash leaves 3, cascading leaves 2, the
        // join/leave storm restores 4).
        for m in &fed.members {
            match m.fault.as_str() {
                "crash_mid_stream" => assert_eq!(m.status.alive_workers, 3),
                "cascading_crashes" => {
                    assert_eq!(m.status.alive_workers, 2);
                    assert!(m.status.epoch > 1);
                }
                "join_leave_storm" => assert_eq!(m.status.alive_workers, 4),
                _ => {}
            }
        }
        // The section lands in the campaign summary JSON with the
        // MasterStatus-style per-member fields.
        let summary = CampaignSummary {
            points: Vec::new(),
            federation: Some(fed),
        };
        let json = summary.to_json();
        assert!(json.contains("\"federation\":{\"swarms\":12"));
        assert!(json.contains("\"epoch\":"));
        assert!(json.contains("\"alive_workers\":"));
    }

    #[test]
    fn summary_json_counts_pass_and_fail() {
        let config = CampaignConfig {
            kinds: vec![FaultKind::Partition],
            seeds: vec![3],
            frames: 120,
        };
        let summary = run_campaign(&config);
        assert_eq!(summary.points.len(), 1);
        assert_eq!(summary.failed(), 0, "{:?}", summary.points);
        let json = summary.to_json();
        assert!(json.starts_with("{\"grid_points\":1"));
        assert!(json.contains("\"points\":["));
    }
}
