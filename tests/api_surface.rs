//! Compile-time contract for the public facade: everything an
//! application needs must resolve through `swing::prelude::*`, and the
//! configuration/data types must stay `Send + Sync` so swarms can be
//! driven from any thread.

#![allow(unused_imports)]

use swing::prelude::*;

fn assert_send_sync<T: Send + Sync>() {}

/// Every name an example uses must come in through the one glob import.
#[test]
fn prelude_covers_the_application_surface() {
    // Core data & graph types.
    let _ = Tuple::new().with("v", 1i64);
    let mut g = AppGraph::new("surface");
    let s = g.add_source("src");
    let op = g.add_operator("agg");
    let k = g.add_sink("out");
    g.connect_keyed(s, op, "cell").unwrap();
    g.connect(op, k).unwrap();
    g.set_parallelism(op, 4).unwrap();
    assert_eq!(g.edge_kind(s, op), Some(&EdgeKind::KeyBy("cell".into())));

    // Keyed-state API: a stateful operator wraps into a FunctionUnit.
    struct Count;
    impl StatefulUnit for Count {
        type State = i64;
        fn key_field(&self) -> &str {
            "cell"
        }
        fn window(&self) -> WindowSpec {
            WindowSpec::tumbling(SECOND_US)
        }
        fn accumulate(&mut self, state: &mut i64, _data: &Tuple, _now_us: u64) {
            *state += 1;
        }
        fn process(&mut self, state: &i64, data: Tuple, ctx: &mut Context<'_>) {
            ctx.send(data.with("count", *state));
        }
    }
    let _keyed: Keyed<Count> = Keyed::new(Count).unwrap();

    // Configuration: one SwarmConfig feeds both the live builder and
    // the simulator.
    let mut shared = SwarmConfig::with_policy(Policy::Lrs);
    shared.flow = FlowConfig::bounded(8);
    shared.retry = RetryConfig::default();
    assert!(shared.validate().is_ok());
    let sim = SimSwarmConfig::from_swarm(&shared);
    assert_eq!(sim.node.flow, shared.flow);

    // Overload policy enum variants are all reachable.
    for p in [
        OverloadPolicy::Block,
        OverloadPolicy::ShedOldest,
        OverloadPolicy::ShedNewest,
    ] {
        let _ = FlowConfig {
            policy: p,
            ..FlowConfig::bounded(4)
        };
    }

    // Unit construction helpers.
    let mut r = UnitRegistry::new();
    r.register_source("src", || closure_source(|_| None));
    r.register_operator("work", || PassThrough);
    r.register_sink("out", || closure_sink(|_, _| ()));

    // Runtime entry points resolve (not started here).
    let _ = LocalSwarm::builder(g).worker("A", r);

    // Time and telemetry.
    let _: u64 = SECOND_US;
    let _ = Telemetry::new();
    let _: ClockHandle = RealClock::handle();
}

/// The lifetime-aware scheduling surface: the open [`SelectionPolicy`]
/// trait, worker vitals, the energy-aware built-ins, and the tournament
/// harness all resolve through the facade.
#[test]
fn prelude_covers_the_selection_policy_surface() {
    // WorkerVitals: the per-replica health record every policy reads.
    let v = WorkerVitals {
        unit: UnitId(3),
        latency_us: 80_000.0,
        battery_frac: 0.5,
        drain_w: 1.2,
        rssi_dbm: -55.0,
    };
    assert!(v.rate_per_sec() > 0.0);
    assert!(v.lifetime_s().is_finite());
    assert_eq!(WorkerVitals::healthy(UnitId(1), 1_000.0).battery_frac, 1.0);

    // Policy stays a thin, serializable configuration name: every
    // built-in round-trips through FromStr/Display and resolves to a
    // boxed SelectionPolicy implementation.
    for p in Policy::EXTENDED {
        let round: Policy = p.to_string().parse().expect("policy name parses");
        assert_eq!(round, p);
        let mut resolved = p.resolve();
        assert_eq!(resolved.name(), p.name());
        let _ = resolved.select(&[v], 10.0);
    }
    assert_eq!(Policy::ENERGY_AWARE.len(), 3);
    assert!("energy-lrs".parse::<Policy>().is_ok());

    // The API is open: a hand-written policy installs into a live
    // Router through the same seam the built-ins use.
    #[derive(Debug)]
    struct FirstOnly;
    impl SelectionPolicy for FirstOnly {
        fn select(&mut self, vitals: &[WorkerVitals], _lambda: f64) -> SelectionDecision {
            let mut d = SelectionDecision::all_by_rate(vitals);
            d.selected.truncate(1);
            d
        }
        fn name(&self) -> &'static str {
            "FIRST"
        }
    }
    let mut router = Router::new(RouterConfig::new(Policy::Lrs), 0);
    router.set_selection_policy(Box::new(FirstOnly));

    // The simulator's energy model, device descriptions, scenario
    // builder and tournament harness are reachable from the umbrella
    // crate.
    let _ = SimEnergyConfig::default();
    let device = WorkerSpec::new(swing::device::testbed().swap_remove(1));
    assert_eq!(device.profile.name, "B");
    let scenario = swing::sim::Scenario::new(
        swing::device::profile::Workload::FaceRecognition,
        RouterConfig::new(Policy::Lrs),
    );
    assert_eq!(scenario.dest_window_bytes, 26_000);
    let t = swing::sim::tournament::TournamentConfig::default();
    assert!(t.policies.contains(&Policy::Lrs));
    assert_eq!(swing::sim::tournament::ChurnTrace::ALL.len(), 3);
}

/// Configs and handles cross thread boundaries: builders run on one
/// thread, executors on others, dashboards on a third.
#[test]
fn key_types_are_send_and_sync() {
    assert_send_sync::<Tuple>();
    assert_send_sync::<AppGraph>();
    assert_send_sync::<EdgeKind>();
    assert_send_sync::<WindowSpec>();
    assert_send_sync::<RouterConfig>();
    assert_send_sync::<RetryConfig>();
    assert_send_sync::<ReorderConfig>();
    assert_send_sync::<FlowConfig>();
    assert_send_sync::<OverloadPolicy>();
    assert_send_sync::<SwarmConfig>();
    assert_send_sync::<NodeConfig>();
    assert_send_sync::<Telemetry>();
    assert_send_sync::<ClockHandle>();
    assert_send_sync::<SharedBytes>();
    assert_send_sync::<UnitRegistry>();
    assert_send_sync::<Error>();
    // The scheduling surface: policies (and their boxed trait objects)
    // live inside routers shared across executor threads.
    assert_send_sync::<Policy>();
    assert_send_sync::<WorkerVitals>();
    assert_send_sync::<SelectionDecision>();
    assert_send_sync::<Box<dyn SelectionPolicy>>();
    assert_send_sync::<SimEnergyConfig>();
    assert_send_sync::<swing::device::Battery>();
    assert_send_sync::<swing::sim::tournament::TournamentConfig>();
    assert_send_sync::<swing::sim::tournament::TournamentSummary>();
}

/// The third-party dependency set is part of the surface: a derive
/// crate with no format crate anywhere, a lock crate next to
/// `std::sync` and a bench framework with one user each stayed for ten
/// PRs because nothing looked. One is left: `bytes`, which the codec
/// and the benchmark's probes name.
#[test]
fn workspace_names_exactly_one_third_party_crate() {
    let third_party: Vec<&str> = include_str!("../Cargo.toml")
        .lines()
        .skip_while(|l| l.trim() != "[workspace.dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.contains("path ="))
        .filter_map(|l| l.split_once('=').map(|(name, _)| name.trim()))
        .collect();
    assert_eq!(third_party, ["bytes"]);
}
