//! A terminal dashboard over the telemetry subsystem: renders
//! per-worker latency estimates (the L_i the LRS policy routes on),
//! queue depths, delivery counters, and the Worker Selection membership
//! table — including each replica's battery column (charge fraction and
//! drain watts, fed by worker vitals) — all read from one registry
//! snapshot, the same data a Prometheus scrape of
//! [`swing::telemetry::Telemetry::prometheus_text`] would see.
//!
//! The dashboard takes its clock from the `Clock` abstraction, so the
//! same rendering drives two modes:
//!
//! * `live` — the face-recognition swarm on real executor threads under
//!   a `RealClock`, carried over the reactor fabric (real loopback
//!   sockets multiplexed on one reactor thread), sampled once per wall
//!   second; each frame includes the transport row — open connections,
//!   framed traffic, the bounded writer-queue backlog, registry leases;
//! * `sim` — the *same* production data plane replayed under a
//!   `VirtualClock` through the seeded `SimFabric`, sampled once per
//!   *virtual* second. The whole run is deterministic in the seed and
//!   finishes in milliseconds regardless of the simulated span.
//! * `fed` — a whole federation (K swarms on the sharded parallel
//!   engine), rendered as a per-swarm rollup table plus the federated
//!   totals read from the exactly-merged snapshot.
//!
//! Both live and sim modes run the face app by default; passing
//! `spatial` right after the mode runs the grid-keyed spatial app
//! instead, which lights up the keyed-routing row (per-stage key
//! population, key skew, keys re-homed on the last epoch bump).
//!
//! ```sh
//! cargo run --release --example telemetry_dashboard -- [live|sim] [face|spatial] [policy] [workers] [seconds] [seed]
//! cargo run --release --example telemetry_dashboard -- live lrs 4 8
//! cargo run --release --example telemetry_dashboard -- sim spatial lrs 6 30 7
//! cargo run --release --example telemetry_dashboard -- fed [swarms] [workers] [seconds] [seed]
//! cargo run --release --example telemetry_dashboard -- fed 20 10 10 1
//! ```

use std::collections::BTreeMap;
use std::time::Duration;
use swing::apps::face::{self, FaceAppConfig};
use swing::apps::spatial::{self, SpatialAppConfig};
use swing::prelude::*;
use swing::telemetry::{names, Snapshot};
use swing_sim::federation::{Federation, FederationConfig};

/// Which reference app the dashboard drives: face exercises Broadcast
/// edges, spatial exercises the `KeyBy("cell")` partitioned edge (and
/// therefore the keyed-routing row).
#[derive(Clone, Copy, PartialEq, Eq)]
enum App {
    Face,
    Spatial,
}

fn registry(app: App) -> UnitRegistry {
    let mut r = UnitRegistry::new();
    match app {
        App::Face => face::install(&mut r, FaceAppConfig::default()),
        App::Spatial => spatial::install(&mut r, SpatialAppConfig::default()),
    }
    r
}

fn graph(app: App) -> AppGraph {
    match app {
        App::Face => face::app_graph(),
        App::Spatial => spatial::app_graph(),
    }
}

/// One dashboard frame from one consistent registry snapshot.
fn render_tick(snap: &Snapshot, tick: u64) {
    // Executor table: every (worker, unit) that dispatches tuples.
    let mut rows: BTreeMap<(String, String), [u64; 4]> = BTreeMap::new();
    let field = |name: &str, slot: usize, rows: &mut BTreeMap<(String, String), [u64; 4]>| {
        for (key, v) in snap.counters_named(name) {
            let (Some(w), Some(u)) = (key.label(names::LABEL_WORKER), key.label(names::LABEL_UNIT))
            else {
                continue;
            };
            rows.entry((w.to_string(), u.to_string())).or_default()[slot] += v;
        }
    };
    field(names::EXEC_SENT, 0, &mut rows);
    field(names::EXEC_ACKED, 1, &mut rows);
    field(names::EXEC_RETRIED, 2, &mut rows);
    field(names::EXEC_LOST, 3, &mut rows);

    println!("\n== t={tick}s ==");
    println!(
        "{:<8} {:>4} {:>6} {:>6} {:>6} {:>5} {:>5} {:>6}",
        "worker", "unit", "queue", "sent", "acked", "retry", "lost", "sel"
    );
    for ((worker, unit), [sent, acked, retried, lost]) in &rows {
        let labels = [
            (names::LABEL_WORKER, worker.as_str()),
            (names::LABEL_UNIT, unit.as_str()),
        ];
        let queue = snap.gauge(names::EXEC_QUEUE_DEPTH, &labels).unwrap_or(0.0);
        let sel = snap
            .gauge(names::EXEC_SELECTION_SIZE, &labels)
            .map_or_else(|| "-".into(), |v| format!("{v:.0}"));
        println!(
            "{worker:<8} {unit:>4} {queue:>6.0} {sent:>6} {acked:>6} {retried:>5} {lost:>5} {sel:>6}"
        );
    }

    // Worker Selection membership: the routing edge's view of each
    // downstream replica — latency estimate L_i, weight, in/out.
    let mut routes: Vec<String> = Vec::new();
    for (key, selected) in snap.gauges_named(names::ROUTE_SELECTED) {
        let (Some(w), Some(u), Some(d)) = (
            key.label(names::LABEL_WORKER),
            key.label(names::LABEL_UNIT),
            key.label(names::LABEL_DOWNSTREAM),
        ) else {
            continue;
        };
        let labels = [
            (names::LABEL_WORKER, w),
            (names::LABEL_UNIT, u),
            (names::LABEL_DOWNSTREAM, d),
        ];
        let l_ms = snap
            .gauge(names::EXEC_LATENCY_ESTIMATE_US, &labels)
            .unwrap_or(f64::NAN)
            / 1_000.0;
        // The battery column: published by workers that report vitals
        // (the sim energy model, or any live device feeding
        // `Dispatcher::note_worker_vitals`); "-" until the first report.
        let batt = snap.gauge(names::BATTERY_FRAC, &labels).map_or_else(
            || "batt    -".to_string(),
            |frac| {
                let drain = snap.gauge(names::DRAIN_W, &labels).unwrap_or(0.0);
                format!("batt {:>3.0}% {drain:>5.2} W", frac * 100.0)
            },
        );
        routes.push(format!(
            "  {w}/{u} -> unit {d}: L={l_ms:>6.1} ms  {batt}  {}",
            if selected > 0.5 { "SELECTED" } else { "probe" }
        ));
    }
    if !routes.is_empty() {
        println!("selection ({}):", routes.len());
        routes.sort();
        for r in &routes {
            println!("{r}");
        }
    }
    render_keyed(snap);
}

/// The keyed-routing row, present only when a stage dispatches over a
/// `KeyBy` edge: per dispatching (worker, unit) the live key
/// population, the key-skew gauge (hottest owner's share of tuples
/// over the per-owner mean), and the keys re-homed by membership
/// changes — total and on the last epoch bump.
fn render_keyed(snap: &Snapshot) {
    let mut rows: Vec<String> = Vec::new();
    for (key, keys) in snap.gauges_named(names::KEYED_KEYS) {
        let (Some(w), Some(u)) = (key.label(names::LABEL_WORKER), key.label(names::LABEL_UNIT))
        else {
            continue;
        };
        let labels = [(names::LABEL_WORKER, w), (names::LABEL_UNIT, u)];
        let skew = snap.gauge(names::KEYED_SKEW_RATIO, &labels).unwrap_or(0.0);
        let rehomed = snap.counter(names::KEYED_REHOMED, &labels);
        let last = snap
            .gauge(names::KEYED_REHOMED_LAST, &labels)
            .unwrap_or(0.0);
        rows.push(format!(
            "  {w}/{u}: keys {keys:.0}  skew {skew:.2}x mean  rehomed {rehomed} (last wave {last:.0})"
        ));
    }
    if !rows.is_empty() {
        rows.sort();
        println!("keyed routing ({}):", rows.len());
        for r in &rows {
            println!("{r}");
        }
    }
}

/// The transport row, present only when the swarm runs on the reactor
/// fabric: connection count, framed traffic, how often the reactor
/// thread woke for it, the bounded writer-queue backlog (the credit
/// gate's back-pressure signal), and the registry's lease churn when a
/// `RegistryServer` shares the process.
fn render_net(snap: &Snapshot) {
    let sent = snap.counter_total(names::REACTOR_FRAMES_SENT);
    let recv = snap.counter_total(names::REACTOR_FRAMES_RECEIVED);
    if sent + recv == 0 {
        return;
    }
    let open = snap.gauge(names::REACTOR_OPEN_CONNS, &[]).unwrap_or(0.0);
    let closed = snap.counter_total(names::REACTOR_CONNS_CLOSED);
    let depth = snap
        .gauge(names::REACTOR_WRITER_QUEUE_DEPTH, &[])
        .unwrap_or(0.0);
    let wakeups = snap.counter_total(names::REACTOR_WAKEUPS);
    print!(
        "net: conns {open:.0} (closed {closed}) | frames tx {sent} rx {recv} | \
         wake-ups {wakeups} ({:.2}/frame) | writer queue {depth:.0}",
        wakeups as f64 / (sent + recv) as f64
    );
    let leases = snap.gauge(names::REGISTRY_SIZE, &[]);
    if let Some(leases) = leases {
        let lookup = snap.histogram_total(names::REGISTRY_LOOKUP_US);
        print!(
            " | registry leases {leases:.0} expired {} lookups {} p99 {:.1} ms",
            snap.counter_total(names::REGISTRY_EXPIRED),
            snap.counter_total(names::REGISTRY_LOOKUPS),
            lookup.p99() as f64 / 1_000.0,
        );
    }
    println!();
}

/// The control plane's one-line view: the deployment epoch (bumped on
/// every topology-changing wave) and which workers have been evicted.
fn render_control(epoch: u64, dead: &[String]) {
    let dead = if dead.is_empty() {
        "-".to_string()
    } else {
        dead.join(", ")
    };
    println!("control: epoch {epoch} | dead workers: {dead}");
}

fn render_totals(telemetry: &Telemetry) {
    let snap = telemetry.snapshot();
    let e2e = snap.histogram_total(names::SINK_E2E_LATENCY_US);
    println!(
        "\ntotals: sensed {} played {} retried {} | e2e latency p50 {:.1} ms p95 {:.1} ms p99 {:.1} ms",
        snap.counter_total(names::SOURCE_SENSED),
        snap.counter_total(names::SINK_PLAYED),
        snap.counter_total(names::EXEC_RETRIED),
        e2e.p50() as f64 / 1_000.0,
        e2e.p95() as f64 / 1_000.0,
        e2e.p99() as f64 / 1_000.0,
    );
    println!("\nsample of the Prometheus exposition a scrape would return:");
    for line in telemetry
        .prometheus_text()
        .lines()
        .filter(|l| l.starts_with("swing_exec_sent_total") || l.starts_with("swing_sink_played"))
        .take(8)
    {
        println!("  {line}");
    }
}

fn run_live(app: App, policy: Policy, workers: usize, seconds: u64) {
    let name = if app == App::Spatial {
        "spatial aggregation"
    } else {
        "face recognition"
    };
    println!(
        "telemetry dashboard (live): {name} on {workers} devices over the \
         reactor fabric, policy {policy}, {seconds}s @ 24 FPS"
    );
    let mut builder = LocalSwarm::builder(graph(app))
        .policy(policy)
        .input_fps(24.0)
        .reactor()
        .worker("A", registry(app));
    for i in 1..workers {
        builder = builder.worker(format!("W{i}"), registry(app));
    }
    let swarm = builder.start().expect("swarm start");

    for tick in 1..=seconds {
        swarm.run_for(Duration::from_secs(1));
        let snap = swarm.telemetry().snapshot();
        render_tick(&snap, tick);
        render_net(&snap);
        let status = swarm.master_status();
        render_control(status.epoch(), &status.dead_workers());
    }
    render_totals(swarm.telemetry());
    swarm.stop();
}

fn run_sim(app: App, policy: Policy, workers: usize, seconds: u64, seed: u64) {
    let name = if app == App::Spatial {
        "spatial aggregation"
    } else {
        "face recognition"
    };
    println!(
        "telemetry dashboard (virtual-time replay): {name} on {workers} devices, \
         policy {policy}, {seconds} simulated seconds @ 24 FPS, seed {seed}"
    );
    let mut cfg = SimSwarmConfig {
        seed,
        // Live energy accounting: every worker carries a modeled
        // battery, so the selection table's battery column shows real
        // fractions and drain watts instead of "-".
        energy: Some(SimEnergyConfig::default()),
        ..SimSwarmConfig::default()
    };
    cfg.node.input_fps = 24.0;
    cfg.node.router = RouterConfig::new(policy);
    cfg.node.telemetry = Telemetry::new();
    let telemetry = cfg.node.telemetry.clone();

    let mut crew: Vec<(String, UnitRegistry)> = vec![("A".into(), registry(app))];
    for i in 1..workers {
        crew.push((format!("W{i}"), registry(app)));
    }
    let crew_names: Vec<String> = crew.iter().map(|(n, _)| n.clone()).collect();
    let mut swarm = SimSwarm::start(graph(app), crew, cfg).expect("sim swarm start");

    let wall = std::time::Instant::now();
    for tick in 1..=seconds {
        // One virtual second per dashboard frame; the clock handle is
        // the swarm's VirtualClock, so "now" is simulated time.
        swarm.run_for(SECOND_US);
        let now_s = swarm.clock().now_us() / SECOND_US;
        render_tick(&telemetry.snapshot(), now_s.max(tick));
        let alive = swarm.alive_workers();
        let dead: Vec<String> = crew_names
            .iter()
            .filter(|n| !alive.contains(n))
            .cloned()
            .collect();
        render_control(swarm.epoch(), &dead);
    }
    println!(
        "\nreplayed {seconds} virtual seconds in {:?} wall time (deterministic in seed {seed})",
        wall.elapsed()
    );
    render_totals(&telemetry);
    swarm.finish();
}

/// The federation rollup view: one row per member swarm (control-plane
/// epoch, crew size, the shed-accounting identity, gateway traffic and
/// tail latency), then federated totals computed from the merged
/// snapshot — the same exactly-mergeable rollup
/// `swing-sim/tests/federation.rs` compares byte-for-byte across thread
/// counts.
fn run_fed(swarms: usize, workers: usize, seconds: u64, seed: u64) {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "telemetry dashboard (federation rollup): {swarms} swarms x {workers} workers = {} \
         devices, {seconds} virtual seconds @ seed {seed}, {threads} threads",
        swarms * workers
    );
    let config = FederationConfig {
        swarms,
        workers_per_swarm: workers,
        frames_per_source: seconds.saturating_mul(30),
        seed,
        threads,
        horizon_us: (seconds + 5) * SECOND_US,
        ..FederationConfig::default()
    };
    let fed = Federation::build(config).expect("federation builds");
    let wall = std::time::Instant::now();
    let report = fed.run();

    println!(
        "\n{:<6} {:>5} {:>5} {:>7} {:>7} {:>6} {:>8} {:>8} {:>7} {:>7} {:>9} {:>5}",
        "swarm",
        "epoch",
        "crew",
        "sensed",
        "played",
        "stale",
        "shed_src",
        "shed_q",
        "egress",
        "ingress",
        "p99_ms",
        "ok"
    );
    for s in &report.swarms {
        println!(
            "{:<6} {:>5} {:>5} {:>7} {:>7} {:>6} {:>8} {:>8} {:>7} {:>7} {:>9.1} {:>5}",
            s.id,
            s.epoch,
            s.alive_workers,
            s.sensed,
            s.played,
            s.stale,
            s.shed_source,
            s.shed_queue,
            s.gateway_egress,
            s.gateway_ingress,
            s.p99_e2e_us as f64 / 1_000.0,
            if s.conserved { "yes" } else { "NO" }
        );
    }

    // Federated totals come from the merged snapshot, not by re-summing
    // the rows — proving the rollup view and the per-member views agree.
    let fed_sensed = report.federated_counter("swing_source_sensed_total");
    let row_sensed: u64 = report.swarms.iter().map(|s| s.sensed).sum();
    assert_eq!(
        fed_sensed, row_sensed,
        "merged rollup disagrees with member rows"
    );
    let e2e = report.federated.histogram_total(names::SINK_E2E_LATENCY_US);
    println!(
        "\nfederated: {} shards, {} sync windows on {} threads | sensed {fed_sensed} \
         played {} | gateway routed {} acked {} ingress {} | e2e p50 {:.1} ms p99 {:.1} ms | \
         all conserved: {}",
        report.swarms.len(),
        report.windows,
        report.threads,
        report.federated_counter("swing_sink_played_total"),
        report.routed,
        report.acked,
        report.federated_ingress(),
        e2e.p50() as f64 / 1_000.0,
        e2e.p99() as f64 / 1_000.0,
        report.all_conserved(),
    );
    println!(
        "replayed {seconds} virtual seconds across {} devices in {:?} wall time \
         (rollup byte-identical at any thread count)",
        report.devices,
        wall.elapsed()
    );
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    // Mode is optional and defaults to live, so the original
    // `-- lrs 3 4` invocation keeps working.
    let mode = match args.peek().map(String::as_str) {
        Some("live") | Some("sim") | Some("fed") => args.next().unwrap(),
        _ => "live".into(),
    };
    // Optional app selector right after the mode; face stays the
    // default so existing invocations keep working.
    let app = match args.peek().map(String::as_str) {
        Some("spatial") => {
            args.next();
            App::Spatial
        }
        Some("face") => {
            args.next();
            App::Face
        }
        _ => App::Face,
    };
    if mode == "fed" {
        // fed takes swarm-shape args, not a routing policy: the member
        // swarms all run the campaign configuration.
        let mut num = |default: u64| {
            args.next()
                .map(|s| s.parse().expect("fed args are numeric"))
                .unwrap_or(default)
        };
        let (swarms, workers, seconds, seed) = (num(20), num(10), num(10), num(1));
        run_fed(swarms as usize, workers as usize, seconds, seed);
        return;
    }
    let policy: Policy = args
        .next()
        .unwrap_or_else(|| "lrs".into())
        .parse()
        .expect("policy must be one of rr, pr, lr, prs, lrs");
    let workers: usize = args
        .next()
        .map(|s| s.parse().expect("worker count"))
        .unwrap_or(4);
    let seconds: u64 = args
        .next()
        .map(|s| s.parse().expect("seconds"))
        .unwrap_or(8);
    let seed: u64 = args.next().map(|s| s.parse().expect("seed")).unwrap_or(7);

    match mode.as_str() {
        "live" => run_live(app, policy, workers, seconds),
        "sim" => run_sim(app, policy, workers, seconds, seed),
        other => panic!("mode must be 'live' or 'sim', got {other:?}"),
    }
}
