//! End-to-end tests of the live runtime executing the real sensing
//! applications — the §IV-B workflow on in-process and reactor fabrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use swing::apps::{face, voice};
use swing::core::routing::Policy;
use swing::runtime::registry::UnitRegistry;
use swing::runtime::swarm::LocalSwarm;

fn face_registry(config: &face::FaceAppConfig, names: Option<Arc<AtomicU64>>) -> UnitRegistry {
    let mut r = UnitRegistry::new();
    face::install(&mut r, config.clone());
    if let Some(names) = names {
        r.register_sink(face::STAGE_DISPLAY, move || {
            let names = Arc::clone(&names);
            face::DisplaySink::new(move |label: &str| {
                if label.contains("person-") {
                    names.fetch_add(1, Ordering::Relaxed);
                }
            })
        });
    }
    r
}

#[test]
fn face_recognition_runs_collaboratively_in_proc() {
    let config = face::FaceAppConfig::default();
    let names = Arc::new(AtomicU64::new(0));
    let swarm = LocalSwarm::builder(face::app_graph())
        .policy(Policy::Lrs)
        .input_fps(24.0)
        .worker("A", face_registry(&config, Some(Arc::clone(&names))))
        .worker("B", face_registry(&config, None))
        .worker("C", face_registry(&config, None))
        .start()
        .expect("swarm start");
    swarm.run_for(Duration::from_secs(3));
    let reports = swarm.stop();
    let (_, report) = &reports[0];
    // ~72 frames sensed; nearly all should complete in-process.
    assert!(
        report.consumed > 40,
        "only {} frames displayed",
        report.consumed
    );
    assert!(
        report.throughput > 15.0,
        "throughput {:.1}",
        report.throughput
    );
    // Most frames contain a planted face and get named.
    let named = names.load(Ordering::Relaxed);
    assert!(named > report.consumed / 2, "only {named} names");
}

#[test]
fn face_recognition_runs_over_the_reactor() {
    let config = face::FaceAppConfig::default();
    let swarm = LocalSwarm::builder(face::app_graph())
        .policy(Policy::Lr)
        .input_fps(12.0)
        .reactor()
        .worker("A", face_registry(&config, None))
        .worker("B", face_registry(&config, None))
        .start()
        .expect("reactor swarm start");
    swarm.run_for(Duration::from_secs(3));
    let reports = swarm.stop();
    let (_, report) = &reports[0];
    assert!(
        report.consumed > 15,
        "only {} frames over loopback sockets",
        report.consumed
    );
}

#[test]
fn voice_translation_produces_correct_spanish() {
    let config = voice::VoiceAppConfig::default();
    let ok_pairs = Arc::new(AtomicU64::new(0));
    let bad_pairs = Arc::new(AtomicU64::new(0));
    let make_registry = |count: Option<(Arc<AtomicU64>, Arc<AtomicU64>)>| {
        let mut r = UnitRegistry::new();
        voice::install(&mut r, config.clone());
        if let Some((ok, bad)) = count {
            r.register_sink(voice::STAGE_DISPLAY, move || {
                let ok = Arc::clone(&ok);
                let bad = Arc::clone(&bad);
                voice::TranslationSink::new(move |en: &str, es: &str| {
                    // Spot-check the dictionary on a stable pair.
                    let hello_ok = !en.contains("hello") || es.contains("hola");
                    let water_ok = !en.contains("water") || es.contains("agua");
                    if hello_ok && water_ok && !es.contains('*') {
                        ok.fetch_add(1, Ordering::Relaxed);
                    } else {
                        bad.fetch_add(1, Ordering::Relaxed);
                    }
                })
            });
        }
        r
    };
    let swarm = LocalSwarm::builder(voice::app_graph())
        .policy(Policy::Lrs)
        .input_fps(6.0)
        .worker(
            "A",
            make_registry(Some((Arc::clone(&ok_pairs), Arc::clone(&bad_pairs)))),
        )
        .worker("B", make_registry(None))
        .start()
        .expect("swarm start");
    swarm.run_for(Duration::from_secs(3));
    swarm.stop();
    let ok = ok_pairs.load(Ordering::Relaxed);
    let bad = bad_pairs.load(Ordering::Relaxed);
    assert!(ok >= 8, "only {ok} good subtitles");
    assert_eq!(bad, 0, "{bad} mistranslated subtitles");
}

#[test]
fn lrs_steers_away_from_a_slowed_device_live() {
    use swing::core::graph::AppGraph;
    use swing::core::unit::{closure_sink, closure_source, closure_unit, Context, Slowed};
    use swing::core::Tuple;

    let mut graph = AppGraph::new("hetero");
    let s = graph.add_source("src");
    let o = graph.add_operator("work");
    let k = graph.add_sink("out");
    graph.connect(s, o).unwrap();
    graph.connect(o, k).unwrap();

    // A kernel with real per-tuple cost (~0.5–2 ms) so a 12x slowdown is
    // visible to the latency estimator.
    let kernel = |t: Tuple, ctx: &mut Context<'_>| {
        let mut acc = 1u64;
        for i in 0..400_000u64 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        ctx.send(t.with("acc", acc as i64));
    };
    let registry = |slow: f64, counter: Arc<AtomicU64>| {
        let mut r = UnitRegistry::new();
        r.register_source("src", || {
            closure_source(|_| Some(Tuple::new().with("x", 1i64)))
        });
        r.register_operator("work", move || {
            let c = Arc::clone(&counter);
            Slowed::new(
                closure_unit(move |t: Tuple, ctx: &mut Context<'_>| {
                    c.fetch_add(1, Ordering::Relaxed);
                    kernel(t, ctx);
                }),
                slow,
            )
        });
        r.register_sink("out", || closure_sink(|_, _| ()));
        r
    };

    let fast1 = Arc::new(AtomicU64::new(0));
    let fast2 = Arc::new(AtomicU64::new(0));
    let slow = Arc::new(AtomicU64::new(0));
    let swarm = LocalSwarm::builder(graph)
        .policy(Policy::Lrs)
        .input_fps(150.0)
        .worker("A", registry(1.0, Arc::clone(&fast1)))
        .worker("B", registry(1.0, Arc::clone(&fast2)))
        .worker("SLOW", registry(12.0, Arc::clone(&slow)))
        .start()
        .expect("swarm start");
    swarm.run_for(Duration::from_secs(4));
    swarm.stop();

    let fast_total = fast1.load(Ordering::Relaxed) + fast2.load(Ordering::Relaxed);
    let slow_total = slow.load(Ordering::Relaxed);
    let fast_mean = fast_total / 2;
    assert!(
        slow_total * 2 < fast_mean,
        "LRS did not avoid the slow device: slow {slow_total}, fast mean {fast_mean}"
    );
}

#[test]
fn churn_during_face_recognition_keeps_running() {
    let config = face::FaceAppConfig::default();
    let mut swarm = LocalSwarm::builder(face::app_graph())
        .policy(Policy::Lrs)
        .input_fps(24.0)
        .worker("A", face_registry(&config, None))
        .worker("B", face_registry(&config, None))
        .start()
        .expect("swarm start");
    swarm.run_for(Duration::from_millis(700));
    swarm
        .add_worker("C", face_registry(&config, None))
        .expect("join");
    swarm.run_for(Duration::from_millis(700));
    assert!(swarm.kill_worker("B"));
    swarm.run_for(Duration::from_millis(700));
    let reports = swarm.stop();
    let (_, report) = &reports[0];
    assert!(
        report.consumed > 25,
        "only {} frames survived churn",
        report.consumed
    );
}
