//! End-to-end registry flow over real loopback sockets: register →
//! lookup → heartbeat keeps the lease alive → missed heartbeats expire
//! it → watchers receive the tombstone → the heartbeater re-registers
//! after a lapse.

use std::time::Duration;
use swing_net::{NetTimeouts, ServiceEntry};
use swing_reactor::{
    await_service, Heartbeater, Reactor, ReactorConfig, RegistryClient, RegistryServer,
};

fn fast_timeouts() -> NetTimeouts {
    NetTimeouts {
        connect: Duration::from_secs(5),
        heartbeat_interval: Duration::from_millis(40),
        heartbeat_ttl: Duration::from_millis(140),
    }
}

fn entry(role: &str, addr: &str) -> ServiceEntry {
    ServiceEntry {
        app: "vision".into(),
        role: role.into(),
        stage: "detect".into(),
        addr: addr.into(),
    }
}

#[test]
fn register_lookup_and_expiry_over_loopback() {
    let timeouts = fast_timeouts();
    let reactor = Reactor::spawn(
        ReactorConfig {
            timeouts,
            ..ReactorConfig::default()
        },
        None,
    );
    let mut server =
        RegistryServer::spawn(&reactor, "127.0.0.1:0", timeouts, None).expect("spawn registry");
    let registry_addr = server.addr().to_owned();

    let mut client =
        RegistryClient::connect(&reactor, &registry_addr, timeouts).expect("connect client");

    // A watcher on the worker pattern, subscribed before anything exists.
    let mut watcher =
        RegistryClient::connect(&reactor, &registry_addr, timeouts).expect("connect watcher");
    watcher.watch("vision", "worker", "").expect("watch");

    let master = entry("master", "127.0.0.1:7000");
    let worker = entry("worker", "127.0.0.1:7001");
    assert!(client.register(&master, timeouts.ttl_ms()).unwrap());
    assert!(client.register(&worker, timeouts.ttl_ms()).unwrap());

    // Pattern lookup: role narrows, empty stage wildcards.
    let found = client.lookup("vision", "master", "").expect("lookup");
    assert_eq!(found, vec![master.clone()]);
    assert_eq!(client.lookup("", "", "").unwrap().len(), 2);

    // await_service resolves through a fresh connection.
    let hit = await_service(
        &reactor,
        &registry_addr,
        "vision",
        "master",
        Duration::from_secs(2),
        timeouts,
    )
    .expect("await_service");
    assert_eq!(hit, master);

    // Heartbeats keep the master alive across several TTL windows...
    for _ in 0..6 {
        assert!(client.heartbeat(&master).expect("heartbeat"));
        std::thread::sleep(Duration::from_millis(40));
    }
    // ...while the silent worker expires and the watcher is told.
    let dead = watcher
        .recv_expired(Duration::from_secs(2))
        .expect("tombstone");
    assert_eq!(dead, worker);
    let left = client.lookup("", "", "").expect("lookup survivors");
    assert_eq!(left, vec![master.clone()]);

    server.stop();
    reactor.shutdown();
}

#[test]
fn heartbeater_keeps_leases_alive_and_recovers_from_lapse() {
    let timeouts = fast_timeouts();
    let reactor = Reactor::spawn(
        ReactorConfig {
            timeouts,
            ..ReactorConfig::default()
        },
        None,
    );
    let mut server =
        RegistryServer::spawn(&reactor, "127.0.0.1:0", timeouts, None).expect("spawn registry");
    let registry_addr = server.addr().to_owned();

    let mut hb = Heartbeater::spawn(&reactor, &registry_addr, timeouts).expect("heartbeater");
    let a = entry("worker", "127.0.0.1:7100");
    let b = entry("worker", "127.0.0.1:7101");
    assert!(hb.add(a.clone()).expect("add a"));
    assert!(hb.add(b.clone()).expect("add b"));

    // Both survive several TTLs under heartbeat renewal.
    std::thread::sleep(Duration::from_millis(400));
    let mut probe =
        RegistryClient::connect(&reactor, &registry_addr, timeouts).expect("probe client");
    assert_eq!(probe.lookup("vision", "worker", "").unwrap().len(), 2);

    // Removed entries lapse one TTL later.
    hb.remove(b.clone());
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(probe.lookup("vision", "worker", "").unwrap(), vec![a]);

    hb.stop();
    server.stop();
    reactor.shutdown();
}
