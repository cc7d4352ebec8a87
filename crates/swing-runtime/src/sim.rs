//! Deterministic simulation of the *real* data plane.
//!
//! FoundationDB-style testing: the production data plane — the unit
//! state machine the live executor threads drive (`machine.rs`: the
//! source / operator / sink steps and the [`Dispatcher`] under them,
//! with its router, in-flight table, dedup windows, and telemetry) —
//! runs here under a [`VirtualClock`] on a single-threaded
//! discrete-event loop, with transport replaced by [`SimFabric`]: seeded per-link
//! delay/loss/duplication models behind the senders a live `dial` hands out.
//! A whole chaos scenario (lossy links, a mid-run crash, ACK-deadline
//! retransmission, re-routing to survivors) therefore becomes a pure
//! function of its seed — run it twice and every timestamp, counter,
//! and routing decision is identical — and sixty seconds of simulated
//! traffic settle in milliseconds of wall time.
//!
//! Two layers:
//!
//! * [`SimFabric`] — the transport. `listen` opens a numbered endpoint;
//!   `dial` creates a dedicated link toward one, with its own seeded
//!   RNG. Messages sent on a link are collected by
//!   [`SimFabric::poll`], which applies the link's model and returns
//!   `(deliver_at, endpoint, message)` triples for the event loop to
//!   schedule. Crashing an endpoint drops the receiving ends of every
//!   link toward it, so senders observe a disconnected channel — the
//!   exact failure the live eviction path handles.
//! * [`SimSwarm`] — the harness. Its workers join the control plane the
//!   live master runs (`control.rs`, under
//!   [`Placement::SourceOnFirst`]); it carries out the plane's commands
//!   on the spot — real [`UnitRegistry`] units placed, their
//!   [`Dispatcher`]s wired through the fabric — and pumps one
//!   [`EventQueue`] under the shared virtual clock: source pacing
//!   ticks, message deliveries, ACK-deadline timers, service
//!   completions, reorder-buffer polls, and scheduled crashes. A
//!   handler pops the event, calls the machine's transition,
//!   then schedules the next event and charges the energy and radio
//!   models from what the transition returned; it decides nothing about
//!   the tuple. The one input it supplies that a thread measures
//!   instead is the service span ([`SimSwarmConfig::service_us`] or a
//!   device's [`CpuModel`]).
//!
//! This is the repository's only tuple-moving event loop: the paper's
//! figures, the policy tournament and the chaos campaigns in `swing-sim`
//! are all scenarios on it. What the paper's testbed adds to the uniform
//! default — nine heterogeneous phones on one 802.11n access point — is
//! two optional models, each resolved when a unit is placed or a link
//! dialed and absent from the default path:
//!
//! * a **device description** per worker ([`WorkerSpec`]): Table I
//!   service times under background load ([`CpuModel`]), the device's
//!   own battery and power envelope, join/leave times and a mobility
//!   trace;
//! * the **radio** ([`SimSwarmConfig::radio_window_bytes`]): links that
//!   reach a described worker carry RSSI-banded airtime on a per-link
//!   FIFO ([`SenderRadio`]), with per-destination in-flight byte
//!   windows expressed through the dispatchers' gates (dispatch holds
//!   position on a full window, the mechanism behind round robin's
//!   collapse under stragglers), a bounded sensing buffer at the
//!   source, and a link-break timeout that feeds the crash → evict
//!   path.

use crate::control::{Command, ControlPlane};
use crate::dispatch::Dispatcher;
use crate::executor::{DeliveryStats, NodeConfig, SinkMeter, SinkReport};
use crate::fabric::MsgSender;
use crate::machine::UnitMachine;
use crate::master::Placement;
use crate::registry::UnitRegistry;
use crate::swarm::{delivery_from_snapshot, DeliveryByUnit};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use swing_core::clock::{Clock, VirtualClock};
use swing_core::event::EventQueue;
use swing_core::graph::{AppGraph, EdgeKind, Role, StageId};
use swing_core::rng::DetRng;
use swing_core::timing;
use swing_core::{DeviceId, SeqNo, Tuple, UnitId};
use swing_core::{Error, Result};
use swing_device::cpu::CpuModel;
use swing_device::mobility::{MobilityTrace, SignalZone};
use swing_device::profile::Workload;
use swing_device::radio::link_quality;
use swing_device::{Battery, DeviceProfile, PowerModel};
use swing_net::link::SenderRadio;
use swing_net::Message;
use swing_telemetry::{names as tn, Counter, Gauge, Histogram, Telemetry};

/// A single transmission whose airtime exceeds this is a broken link:
/// the frame is lost and the worker whose signal the link follows is
/// removed from the swarm — the paper's "when a network link is broken,
/// due to poor wireless signal [...], the affected upstream units
/// automatically remove the corresponding downstream" (§IV-C). Matters
/// for large frames on collapsed links (a 72 kB voice frame on a poor
/// link takes ~10 s; any real TCP stack times out).
const LINK_BREAK_US: u64 = 8 * swing_core::SECOND_US;

/// Per-link transmission model: a fixed base propagation delay,
/// uniformly distributed jitter on top, and independent drop /
/// duplication probabilities. Applied to data-plane messages
/// ([`Message::Data`] and [`Message::Ack`]); anything else crosses the
/// link with only the base delay, mirroring the chaos fabric's
/// control-plane exemption.
///
/// A link dialed with [`SimFabric::dial_radio`] is a radio link: a FIFO
/// ([`SenderRadio`]) whose airtime follows the RSSI band of a worker's
/// mobility trace at send time (§VI-B1's TCP/Wi-Fi rate adaptation)
/// stands in for the base delay and jitter; drop and duplication apply
/// to it like to any other link.
#[derive(Debug, Clone, Copy)]
pub struct SimLinkConfig {
    /// Fixed one-way propagation delay, microseconds.
    pub base_delay_us: u64,
    /// Additional uniform jitter in `[0, jitter_us]`, microseconds.
    pub jitter_us: u64,
    /// Probability a data-plane message is silently dropped.
    pub drop_prob: f64,
    /// Probability a data-plane message is delivered twice (the second
    /// copy draws its own delay).
    pub dup_prob: f64,
}

impl Default for SimLinkConfig {
    /// A clean local-hop link: the paper's intra-swarm transmission
    /// delay with mild jitter and no faults.
    fn default() -> Self {
        SimLinkConfig {
            base_delay_us: timing::LOCAL_HOP_US,
            jitter_us: timing::LOCAL_HOP_US / 2,
            drop_prob: 0.0,
            dup_prob: 0.0,
        }
    }
}

impl SimLinkConfig {
    /// This link model with the given drop probability.
    #[must_use]
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// This link model with the given duplication probability.
    #[must_use]
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    fn validate(&self) -> Result<()> {
        for (name, p) in [("drop_prob", self.drop_prob), ("dup_prob", self.dup_prob)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(Error::Malformed(format!(
                    "invalid link model: {name} = {p} is not a probability"
                )));
            }
        }
        Ok(())
    }
}

/// The radio half of a link dialed with an RSSI trace.
struct RadioLink {
    /// Signal of the worker the link follows.
    rssi: MobilityTrace,
    /// Endpoint of that worker: a broken link takes it down.
    owner: usize,
    air: SenderRadio,
}

/// One dialed link: the channel's receiving end plus its seeded fault
/// state. Dropping the struct disconnects the sender — that is how a
/// crash propagates to the peers holding the dial side.
struct SimLink {
    /// The endpoint the link delivers to.
    to: usize,
    /// Boxed messages: a federation dials some twenty thousand of these
    /// and std sizes a channel's first allocation by its message.
    rx: Receiver<Box<Message>>,
    rng: DetRng,
    cfg: SimLinkConfig,
    /// `Some` on a radio link (resolved at dial time). Boxed: almost no
    /// link has one.
    radio: Option<Box<RadioLink>>,
}

/// One `listen`ed endpoint.
struct Endpoint {
    /// Cleared by [`SimFabric::crash`].
    up: bool,
    /// Link model applied to links dialed toward it (`None`: the
    /// fabric's default).
    link: Option<SimLinkConfig>,
}

/// The simulated transport (see the module docs), owned and pumped by
/// one event loop. `listen` hands out endpoints, numbered from 0 in
/// listen order; `dial` returns the sending end of a dedicated link
/// toward one, carrying a seeded [`SimLinkConfig`] fault model. What is
/// sent on a link goes nowhere until the loop calls
/// [`SimFabric::poll`], which hands it back as deliveries to schedule —
/// addressed by endpoint number, so a message in transit costs no
/// lookup.
pub struct SimFabric {
    seed: u64,
    next_link: u64,
    endpoints: Vec<Endpoint>,
    /// In dial order. A link's position is the number its sender rings
    /// the bell with, so a crash empties the slots of the links it takes
    /// down and moves nothing.
    links: Vec<Option<SimLink>>,
    /// Every link's sender follows a message with the link's number
    /// here ([`MsgSender::rung`]): what `poll` reads to learn which
    /// links to drain.
    bell: (Sender<usize>, Receiver<usize>),
    /// `poll`'s list of links that rang, kept for its capacity.
    rang: Vec<usize>,
    default_link: SimLinkConfig,
    /// Endpoints of the workers whose radio link broke since the last
    /// [`SimFabric::take_broken`].
    broken: Vec<usize>,
    /// Data-plane messages dropped by link fault models.
    dropped: u64,
    /// Data-plane messages duplicated by link fault models.
    duplicated: u64,
}

impl std::fmt::Debug for SimFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFabric")
            .field("seed", &self.seed)
            .field("endpoints", &self.endpoints.len())
            .field("links", &self.links.len())
            .finish()
    }
}

impl SimFabric {
    /// A fresh simulated transport. All link RNGs derive from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SimFabric {
        SimFabric {
            seed,
            next_link: 0,
            endpoints: Vec::new(),
            links: Vec::new(),
            bell: channel(),
            rang: Vec::new(),
            default_link: SimLinkConfig::default(),
            broken: Vec::new(),
            dropped: 0,
            duplicated: 0,
        }
    }

    /// Set the fault model applied to links dialed from now on whose
    /// destination has no override of its own.
    ///
    /// # Errors
    /// [`Error::Malformed`] if a probability is outside `[0, 1]` (every
    /// setter checks, so `poll` never meets an invalid model).
    pub fn set_default_link(&mut self, cfg: SimLinkConfig) -> Result<()> {
        cfg.validate()?;
        self.default_link = cfg;
        Ok(())
    }

    /// Override the fault model for links dialed toward `endpoint` from
    /// now on (existing links keep their model).
    ///
    /// # Errors
    /// As [`set_default_link`](Self::set_default_link).
    ///
    /// # Panics
    /// If `endpoint` was never opened (as do the two calls below).
    pub fn set_link_to(&mut self, endpoint: usize, cfg: SimLinkConfig) -> Result<()> {
        cfg.validate()?;
        self.endpoints[endpoint].link = Some(cfg);
        Ok(())
    }

    /// Re-model *existing and future* links toward `endpoint` (partition
    /// injection: a fully-dropping model isolates the endpoint's inbound
    /// data plane while control traffic still crosses).
    ///
    /// # Errors
    /// As [`set_default_link`](Self::set_default_link).
    pub fn set_links_toward(&mut self, endpoint: usize, cfg: SimLinkConfig) -> Result<()> {
        self.set_link_to(endpoint, cfg)?;
        for l in self.links_toward(endpoint) {
            l.cfg = cfg;
        }
        Ok(())
    }

    /// Undo [`set_links_toward`](Self::set_links_toward): existing and
    /// future links toward `endpoint` return to the default model.
    pub fn clear_links_toward(&mut self, endpoint: usize) {
        self.endpoints[endpoint].link = None;
        let cfg = self.default_link;
        for l in self.links_toward(endpoint) {
            l.cfg = cfg;
        }
    }

    /// The links that deliver to `endpoint`.
    fn links_toward(&mut self, endpoint: usize) -> impl Iterator<Item = &mut SimLink> {
        self.links
            .iter_mut()
            .flatten()
            .filter(move |l| l.to == endpoint)
    }

    /// Messages the link fault models have dropped so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages the link fault models have duplicated so far.
    #[must_use]
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Open an endpoint and return its number (dense from 0, in listen
    /// order): what `dial` takes and what `poll`'s deliveries carry.
    pub fn listen(&mut self) -> usize {
        self.endpoints.push(Endpoint {
            up: true,
            link: None,
        });
        self.endpoints.len() - 1
    }

    /// Create a dedicated faulted link toward endpoint `to` and return
    /// its sending end.
    ///
    /// # Errors
    /// `NotFound` if nothing listens there (never opened, or crashed).
    pub fn dial(&mut self, to: usize) -> Result<MsgSender> {
        self.dial_link(to, None)
    }

    /// Like [`dial`](Self::dial) for a link that crosses the radio of
    /// the worker listening at `owner`: its airtime follows `rssi` (that
    /// worker's signal trace), and a broken link reports `owner` through
    /// [`take_broken`](Self::take_broken).
    pub fn dial_radio(
        &mut self,
        to: usize,
        owner: usize,
        rssi: &MobilityTrace,
    ) -> Result<MsgSender> {
        self.dial_link(to, Some((owner, rssi)))
    }

    fn dial_link(
        &mut self,
        to: usize,
        radio: Option<(usize, &MobilityTrace)>,
    ) -> Result<MsgSender> {
        let Some(endpoint) = self.endpoints.get(to).filter(|e| e.up) else {
            return Err(Error::io(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no sim endpoint {to}"),
            )));
        };
        let cfg = endpoint.link.unwrap_or(self.default_link);
        let (tx, rx) = channel::<Box<Message>>();
        // Distinct links draw from distinct deterministic streams: mix
        // the link ordinal into the seed. Dial order is deterministic
        // under the single-threaded event loop.
        let link_no = self.next_link;
        self.next_link += 1;
        let seed = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(link_no + 1));
        self.links.push(Some(SimLink {
            to,
            rx,
            rng: DetRng::seed_from_u64(seed),
            cfg,
            radio: radio.map(|(owner, rssi)| {
                Box::new(RadioLink {
                    rssi: rssi.clone(),
                    owner,
                    air: SenderRadio::new(),
                })
            }),
        }));
        Ok(MsgSender::rung(
            tx,
            self.bell.0.clone(),
            self.links.len() - 1,
        ))
    }

    /// Drain the links sent on since the last call and append the
    /// messages in transit to `due` as deliveries to schedule:
    /// `(deliver_at_us, destination endpoint, message)`. Fault models
    /// apply here — a dropped message simply produces no delivery; a
    /// duplicated one produces two with independent delays. Links are
    /// drained in dial order, so the result is deterministic. The loop
    /// polls after every event and almost every link is idle at almost
    /// every one, so only the links whose senders rang are asked.
    pub fn poll(&mut self, now_us: u64, due: &mut Vec<(u64, usize, Message)>) {
        let mut rang = std::mem::take(&mut self.rang);
        rang.extend(self.bell.1.try_iter());
        rang.sort_unstable();
        rang.dedup();
        for link in rang.drain(..) {
            self.poll_link(link, now_us, due);
        }
        self.rang = rang;
    }

    fn poll_link(&mut self, link: usize, now_us: u64, due: &mut Vec<(u64, usize, Message)>) {
        let SimFabric {
            links,
            broken,
            dropped,
            duplicated,
            ..
        } = self;
        let Some(link) = &mut links[link] else {
            return;
        };
        while let Ok(msg) = link.rx.try_recv() {
            let msg = *msg;
            let data_plane = matches!(msg, Message::Data { .. } | Message::Ack { .. });
            if data_plane && link.cfg.drop_prob > 0.0 && link.rng.random_bool(link.cfg.drop_prob) {
                *dropped += 1;
                continue;
            }
            // One crossing's delay; `None` when the radio link is
            // broken (out of range, or the transfer would outlive
            // any TCP timeout) and the message is lost with it.
            let mut delay = |rng: &mut DetRng| match &mut link.radio {
                None => {
                    let jitter = if link.cfg.jitter_us > 0 {
                        rng.random_range(0..=link.cfg.jitter_us)
                    } else {
                        0
                    };
                    Some(link.cfg.base_delay_us + jitter)
                }
                Some(radio) => {
                    let quality = link_quality(radio.rssi.rssi_at(now_us));
                    let tx = radio.air.enqueue(now_us, air_bytes(&msg), quality, rng);
                    match tx {
                        Some(tx) if tx.end_us - tx.start_us <= LINK_BREAK_US => {
                            Some(tx.end_us - now_us)
                        }
                        _ => {
                            broken.push(radio.owner);
                            None
                        }
                    }
                }
            };
            let Some(d) = delay(&mut link.rng) else {
                continue;
            };
            if data_plane && link.cfg.dup_prob > 0.0 && link.rng.random_bool(link.cfg.dup_prob) {
                *duplicated += 1;
                if let Some(d2) = delay(&mut link.rng) {
                    due.push((now_us + d2, link.to, msg.clone()));
                }
            }
            due.push((now_us + d, link.to, msg));
        }
    }

    /// Endpoints of the workers whose radio link broke since the last
    /// call (the event loop crashes them: a broken link is a departure).
    pub fn take_broken(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.broken)
    }

    /// Kill `endpoint`: it can no longer be dialed and the receiving end
    /// of every link toward it drops, so peers holding the dial side
    /// observe a disconnected channel on their next send — driving the
    /// production eviction/re-route path. What is already in transit
    /// toward it is the event loop's to discard on arrival. `false` if
    /// it was not up.
    pub fn crash(&mut self, endpoint: usize) -> bool {
        let was_up = self
            .endpoints
            .get_mut(endpoint)
            .is_some_and(|e| std::mem::replace(&mut e.up, false));
        for slot in &mut self.links {
            if slot.as_ref().is_some_and(|l| l.to == endpoint) {
                *slot = None;
            }
        }
        was_up
    }
}

/// Bytes a message occupies on the air.
fn air_bytes(msg: &Message) -> usize {
    match msg {
        Message::Data { tuple, .. } => tuple.size_bytes(),
        _ => timing::ACK_BYTES as usize,
    }
}

// ---------------------------------------------------------------------------
// SimSwarm: the discrete-event harness driving real dispatchers.
// ---------------------------------------------------------------------------

/// Configuration of a [`SimSwarm`].
#[derive(Debug, Clone)]
pub struct SimSwarmConfig {
    /// Master seed: link RNGs (and nothing else — the data plane is
    /// already deterministic under virtual time) derive from it.
    pub seed: u64,
    /// The per-node runtime configuration (router policy, pacing rate,
    /// reorder span, retry policy, telemetry domain). Its clock is
    /// replaced by the swarm's [`VirtualClock`].
    pub node: NodeConfig,
    /// Default link model for every dialed link.
    pub link: SimLinkConfig,
    /// Modeled per-tuple processing delay reported in operator ACKs
    /// (virtual time does not advance while a unit computes).
    pub service_us: u64,
    /// How long after a crash the surviving dispatchers evict the dead
    /// worker's units (the master's heartbeat-prune detection latency).
    /// Senders with traffic in flight discover the death earlier, from
    /// the broken link itself.
    pub eviction_delay_us: u64,
    /// Virtual interval between sink reorder-buffer polls (the live
    /// sink's 50 ms receive timeout).
    pub reorder_poll_us: u64,
    /// Live energy accounting: when set, every worker carries a
    /// [`Battery`] drained on each dispatch/ACK cycle from the device
    /// profile's power envelope, and a drained pack is a *battery
    /// cliff* — the worker dies through the same epoch-fenced eviction
    /// wave as a crash. `None` (the default) models wall-powered
    /// workers, the pre-energy behavior.
    pub energy: Option<SimEnergyConfig>,
    /// What each operator stage costs on a described device (see
    /// [`SimSwarm::start_described`]): `(stage name, workload)`, the
    /// workload picking the device's Table I service time
    /// ([`Workload::Custom`] for a per-stage cost on the reference
    /// device). A stage not listed costs `service_us` everywhere.
    pub stage_workloads: Vec<(String, Workload)>,
    /// `Some(n)` turns on the radio: a link between two workers of which
    /// one is described follows that worker's signal instead of
    /// [`link`](Self::link)'s delay and jitter
    /// ([`SimFabric::dial_radio`]), and each dispatcher may have at most
    /// `n` bytes in flight toward one destination — sent and not yet
    /// taken up for service, like a TCP socket buffer. A full window
    /// closes the dispatcher's gate toward that destination and dispatch
    /// *holds position* on a tuple committed to it, which is what lets
    /// stragglers stall round robin ("stragglers can slow down the
    /// entire computation", §III). An empty window always admits one
    /// frame, so frames larger than the window still flow, one at a
    /// time.
    pub radio_window_bytes: Option<usize>,
}

impl Default for SimSwarmConfig {
    fn default() -> Self {
        SimSwarmConfig {
            seed: 1,
            node: NodeConfig::default(),
            link: SimLinkConfig::default(),
            service_us: timing::LOCAL_HOP_US,
            eviction_delay_us: timing::CONTROL_PERIOD_US,
            reorder_poll_us: 50_000,
            energy: None,
            stage_workloads: Vec::new(),
            radio_window_bytes: None,
        }
    }
}

/// Static description of one simulated device, attached to a roster
/// entry of [`SimSwarm::start_described`]. A described worker serves
/// each tuple of a stage listed in [`SimSwarmConfig::stage_workloads`]
/// in a time drawn from its [`CpuModel`] instead of
/// [`SimSwarmConfig::service_us`], drains its own pack through its own
/// power envelope, follows its join/leave times and mobility trace, and
/// anchors the radio links that reach it. Workers without one (the
/// source/sink host `A` of the paper's topology) are wall-side endpoints
/// on the uniform model.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Hardware profile (usually one of [`swing_device::testbed`]); two
    /// workers may be the same model.
    pub profile: DeviceProfile,
    /// Signal-strength trace (mobility). Leaving the access point's
    /// range is a departure.
    pub mobility: MobilityTrace,
    /// Background CPU-load schedule: `(time_us, load)` steps in time
    /// order.
    pub background: Vec<(u64, f64)>,
    /// When the device joins the swarm (0 = present from the start).
    pub join_at_us: u64,
    /// When the device abruptly leaves, if ever (a time not after the
    /// join is ignored).
    pub leave_at_us: Option<u64>,
    /// Battery capacity override in joules (`None` uses the profile's
    /// full pack). Tournament traces use small packs so battery cliffs
    /// land inside a one-minute run.
    pub battery_j: Option<f64>,
}

impl WorkerSpec {
    /// A stationary, unloaded worker present for the whole run.
    #[must_use]
    pub fn new(profile: DeviceProfile) -> Self {
        WorkerSpec {
            profile,
            mobility: MobilityTrace::in_zone(SignalZone::Good),
            background: Vec::new(),
            join_at_us: 0,
            leave_at_us: None,
            battery_j: None,
        }
    }

    /// Place the worker in a fixed signal zone.
    #[must_use]
    pub fn in_zone(mut self, zone: SignalZone) -> Self {
        self.mobility = MobilityTrace::in_zone(zone);
        self
    }

    /// Use an arbitrary mobility trace.
    #[must_use]
    pub fn with_mobility(mut self, trace: MobilityTrace) -> Self {
        self.mobility = trace;
        self
    }

    /// Run a constant background CPU load for the whole run.
    #[must_use]
    pub fn with_background(mut self, load: f64) -> Self {
        self.background = vec![(0, load)];
        self
    }

    /// Join the swarm mid-run.
    #[must_use]
    pub fn joining_at(mut self, t_us: u64) -> Self {
        self.join_at_us = t_us;
        self
    }

    /// Leave the swarm abruptly mid-run.
    #[must_use]
    pub fn leaving_at(mut self, t_us: u64) -> Self {
        self.leave_at_us = Some(t_us);
        self
    }

    /// Start the run with a partially-sized battery pack (joules)
    /// instead of the profile's full pack, so battery cliffs are
    /// reachable within a short simulated run.
    ///
    /// # Panics
    /// Panics if the capacity is not strictly positive.
    #[must_use]
    pub fn with_battery_j(mut self, capacity_j: f64) -> Self {
        assert!(capacity_j > 0.0, "battery capacity must be positive");
        self.battery_j = Some(capacity_j);
        self
    }

    /// When this device is gone for good, as far as its description
    /// says: the scripted leave or the first step of the mobility trace
    /// out of the access point's range, whichever comes first after
    /// `joined_us`.
    fn departs_at(&self, joined_us: u64) -> Option<u64> {
        let walks_off = self
            .mobility
            .transition_times()
            .find(|&t| t > joined_us && !link_quality(self.mobility.rssi_at(t)).connected);
        let leaves = self.leave_at_us.filter(|&t| t > joined_us);
        match (leaves, walks_off) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Background load in force at `now_us`.
    fn background_at(&self, now_us: u64) -> f64 {
        self.background
            .iter()
            .take_while(|&&(t, _)| t <= now_us)
            .last()
            .map_or(0.0, |&(_, load)| load)
    }
}

/// Energy model of a [`SimSwarm`]: how fast simulated batteries drain.
///
/// Drain is charged at the points where a live device burns energy —
/// CPU over each modeled service span, Wi-Fi airtime on both endpoints
/// of every data frame and ACK — all under the swarm's virtual clock,
/// so an energy trajectory is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct SimEnergyConfig {
    /// Device profile of every worker without a description of its own
    /// ([`WorkerSpec`]): its pack, and the compute + Wi-Fi power envelope
    /// that drives the drain (peak CPU watts over a service span, Wi-Fi
    /// watts over a frame's airtime at the saturated rate).
    pub profile: DeviceProfile,
    /// Modeled on-air payload of one data frame, bytes (the paper's
    /// 6 kB camera frames by default).
    pub frame_bytes: u64,
    /// Battery fraction at or below which a worker reports *low power*
    /// to the control plane, once per worker life.
    pub low_power_frac: f64,
    /// Period between vitals publications into the live dispatchers'
    /// routers (battery fraction + drain watts per downstream), µs.
    pub vitals_every_us: u64,
}

impl Default for SimEnergyConfig {
    fn default() -> Self {
        // Galaxy-Nexus-class profile (testbed device B): mid-range
        // compute, a 1750 mAh pack.
        let profile = swing_device::testbed().swap_remove(1);
        SimEnergyConfig {
            profile,
            frame_bytes: 6_000,
            low_power_frac: 0.15,
            vitals_every_us: timing::CONTROL_PERIOD_US,
        }
    }
}

/// One simulated worker's battery plus its drain bookkeeping.
struct BatteryPack {
    battery: Battery,
    /// The power envelope drains are computed from: the worker's own
    /// profile when it is described, else [`SimEnergyConfig::profile`].
    model: PowerModel,
    /// Joules drained since the last vitals tick (the drain-rate
    /// estimation window).
    window_j: f64,
    /// Drain estimate over the last completed window, watts.
    drain_w: f64,
    /// Low-power already reported (the event fires once per life).
    low_power_reported: bool,
    battery_g: Gauge,
    drain_g: Gauge,
    /// Device-layer meters of a described worker (the Fig. 5/6 series).
    meters: Option<DeviceMeters>,
}

/// What `top` and the power model would report for one described
/// device, accumulated over the run and published as run-so-far means
/// under the `swing_device_*` names at every vitals tick.
struct DeviceMeters {
    cpu_j: f64,
    wifi_j: f64,
    /// Compute time served since the last vitals tick.
    busy_us_window: u64,
    /// Sum over vitals ticks of total utilization (app + background).
    util_sum: f64,
    /// Data tuples taken into an operator mailbox on this device.
    received: u64,
    cpu_util_g: Gauge,
    cpu_power_g: Gauge,
    wifi_power_g: Gauge,
    input_fps_g: Gauge,
    bytes_rx_c: Counter,
}

impl BatteryPack {
    /// Remaining fraction; wall power (infinite capacity) reads 1.0.
    fn frac(&self) -> f64 {
        if self.battery.capacity_j().is_infinite() {
            1.0
        } else {
            self.battery.level()
        }
    }
}

/// Runtime state of the energy layer (present when
/// [`SimSwarmConfig::energy`] is set).
struct EnergyRt {
    cfg: SimEnergyConfig,
    /// Per-worker packs, indexed like `SimSwarm::workers`.
    packs: Vec<BatteryPack>,
    /// Virtual start of the current drain-estimation window.
    window_start_us: u64,
    deaths_c: Counter,
    low_power_c: Counter,
    /// Battery-cliff log: `(virtual µs, worker name)`.
    deaths: Vec<(u64, String)>,
    /// Low-power crossings: `(virtual µs, worker name)`.
    low_power: Vec<(u64, String)>,
}

impl EnergyRt {
    fn make_pack(
        cfg: &SimEnergyConfig,
        name: &str,
        device: Option<&WorkerSpec>,
        telemetry: &Telemetry,
    ) -> BatteryPack {
        let profile = device.map_or(&cfg.profile, |d| &d.profile);
        let capacity = device
            .and_then(|d| d.battery_j)
            .unwrap_or(profile.battery_j);
        let labels: &[(&str, &str)] = &[(tn::LABEL_WORKER, name)];
        let pack = BatteryPack {
            battery: Battery::new(capacity),
            model: PowerModel::new(profile),
            window_j: 0.0,
            drain_w: 0.0,
            low_power_reported: false,
            battery_g: telemetry.gauge(tn::BATTERY_FRAC, labels),
            drain_g: telemetry.gauge(tn::DRAIN_W, labels),
            meters: device.map(|_| DeviceMeters {
                cpu_j: 0.0,
                wifi_j: 0.0,
                busy_us_window: 0,
                util_sum: 0.0,
                received: 0,
                cpu_util_g: telemetry.gauge(tn::DEVICE_CPU_UTIL, labels),
                cpu_power_g: telemetry.gauge(tn::DEVICE_CPU_POWER_W, labels),
                wifi_power_g: telemetry.gauge(tn::DEVICE_WIFI_POWER_W, labels),
                input_fps_g: telemetry.gauge(tn::DEVICE_INPUT_FPS, labels),
                bytes_rx_c: telemetry.counter(tn::NET_BYTES_RECEIVED, &[(tn::LABEL_LINK, name)]),
            }),
        };
        pack.battery_g.set(pack.frac());
        pack
    }
}

impl SimSwarmConfig {
    /// Seed the simulator's node configuration from the same
    /// [`SwarmConfig`](crate::config::SwarmConfig) a live
    /// [`LocalSwarmBuilder`](crate::swarm::LocalSwarmBuilder) consumes,
    /// so an experiment validated under virtual time runs live with
    /// identical knobs. Sim-only knobs (seed, link model, service time,
    /// eviction delay, reorder poll) keep their defaults; the shared
    /// config's clock is replaced by the swarm's `VirtualClock` at
    /// start, and its `chaos` plan is not applied — the sim models
    /// transport faults with its seeded [`SimLinkConfig`] instead.
    #[must_use]
    pub fn from_swarm(shared: &crate::config::SwarmConfig) -> Self {
        SimSwarmConfig {
            node: shared.node_config(),
            ..SimSwarmConfig::default()
        }
    }
}

/// Service-time model of one operator instance on a described device.
struct DeviceCpu {
    model: CpuModel,
    rng: DetRng,
}

/// Bytes one dispatcher has in flight toward one downstream on a radio
/// link (see [`SimSwarmConfig::radio_window_bytes`]).
struct Window {
    from: UnitId,
    to: UnitId,
    used: usize,
    /// Size of the last tuple sent on this edge: what the gate assumes
    /// the next one needs.
    frame: usize,
}

/// One deployed unit instance: the production [`UnitMachine`] (unit,
/// [`Dispatcher`], role state) plus what the event loop keeps about it.
struct SimExec {
    unit: UnitId,
    stage: StageId,
    worker: usize,
    machine: UnitMachine,
    alive: bool,
    /// Whether the master's `Start` has reached it (first pacing tick
    /// or reorder poll scheduled).
    started: bool,
    /// Earliest armed retry-timer event, to avoid flooding the queue.
    armed_timer: Option<u64>,
    /// Whether a `ServiceDone` completion is scheduled. An operator
    /// serves one tuple per service span, so under offered load above
    /// 1/span a queue forms — the overload regime the flow-control
    /// subsystem exists for.
    busy: bool,
    /// Span of the service in progress (what its ACK will report).
    serving_us: u64,
    /// The hosting device's CPU, for an operator on a described device
    /// (resolved at placement); `None` serves at
    /// [`SimSwarmConfig::service_us`].
    cpu: Option<Box<DeviceCpu>>,
}

/// Worker `w` listens at fabric endpoint `w`: the swarm is the only
/// listener on its fabric and opens one endpoint per roster entry.
struct SimWorker {
    name: String,
    alive: bool,
    /// Installed units, kept for re-placement: when another worker dies
    /// this one may be asked to host the orphaned stages.
    registry: UnitRegistry,
    /// Its description, if the roster gave one.
    device: Option<WorkerSpec>,
}

/// One gateway tuple leaving a swarm: a sampled summary of a played
/// frame, emitted by the swarm's gateway (the sink host) toward a peer
/// swarm of the federation. The federation tier routes it over an
/// inter-swarm gateway link chosen by the same `L_i` estimator the
/// intra-swarm router uses (LRS composed across tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayFrame {
    /// Virtual instant the gateway emitted the frame.
    pub emitted_us: u64,
    /// Per-swarm gateway sequence number (dense from 0).
    pub seq: u64,
}

/// Receipt of one gateway tuple that arrived from a peer swarm — the
/// shard wrapper turns these into ACKs flowing back over the reverse
/// gateway channel, feeding the sender's latency estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayReceipt {
    /// Index of the emitting swarm in the federation.
    pub from_swarm: u64,
    /// The emitter's gateway sequence number.
    pub seq: u64,
    /// Virtual instant the frame was emitted (rides the tuple).
    pub emitted_us: u64,
    /// Virtual instant the frame arrived here.
    pub arrived_us: u64,
}

#[derive(Debug, Clone)]
enum SimEvent {
    /// A source pacing tick for the exec at this index.
    SourceTick(usize),
    /// A message arrives at worker `to`.
    Deliver { to: usize, msg: Message },
    /// Service ACK-deadline / pending-queue timers of one exec.
    Timer(usize),
    /// An operator finishes serving one tuple (serialized service).
    ServiceDone(usize),
    /// Periodic sink reorder-buffer poll.
    ReorderPoll(usize),
    /// Kill a worker abruptly.
    Crash(usize),
    /// Survivors evict the crashed worker's units (heartbeat prune),
    /// then the master re-places them (self-healing reconcile).
    Evict(usize),
    /// A new worker joins mid-run (index into `pending_joins`).
    Join(usize),
    /// Every source's sensing rate becomes this many tuples per second.
    SourceRate(f64),
    /// Periodic energy bookkeeping: fold the drain window into each
    /// pack's watt estimate and publish per-worker vitals into every
    /// live dispatcher's router.
    VitalsTick,
    /// The master goes dark: failure detection (and so eviction and
    /// re-placement) pauses. The data plane keeps flowing.
    MasterDown,
    /// The master is back: deferred evictions and joins are handled.
    MasterUp,
    /// Inbound partition of a worker begins (`restore: false`) or heals
    /// (`restore: true`).
    Partition { worker: usize, restore: bool },
    /// A gateway tuple from a peer swarm arrives (federation tier).
    GatewayIngress {
        from_swarm: u64,
        seq: u64,
        emitted_us: u64,
    },
}

/// A deterministic single-process swarm: real units, real dispatchers,
/// virtual time (see the module docs).
///
/// ```
/// use swing_core::graph::AppGraph;
/// use swing_core::unit::{closure_sink, closure_source, PassThrough};
/// use swing_core::Tuple;
/// use swing_runtime::registry::UnitRegistry;
/// use swing_runtime::sim::{SimSwarm, SimSwarmConfig};
///
/// let mut g = AppGraph::new("demo");
/// let s = g.add_source("src");
/// let o = g.add_operator("work");
/// let k = g.add_sink("out");
/// g.connect(s, o).unwrap();
/// g.connect(o, k).unwrap();
/// let registry = || {
///     let mut r = UnitRegistry::new();
///     r.register_source("src", || closure_source(|_| Some(Tuple::new())));
///     r.register_operator("work", || PassThrough);
///     r.register_sink("out", || closure_sink(|_, _| ()));
///     r
/// };
/// let mut swarm = SimSwarm::start(
///     g,
///     vec![("A".into(), registry()), ("B".into(), registry())],
///     SimSwarmConfig::default(),
/// )
/// .unwrap();
/// swarm.run_for(10 * swing_core::SECOND_US); // ten virtual seconds
/// let reports = swarm.finish();
/// assert!(reports[0].1.consumed > 0);
/// ```
pub struct SimSwarm {
    clock: Arc<VirtualClock>,
    fabric: SimFabric,
    /// `pump_fabric`'s poll buffer, kept for its capacity.
    due: Vec<(u64, usize, Message)>,
    queue: EventQueue<SimEvent>,
    workers: Vec<SimWorker>,
    /// Unit `u` is `execs[u]`: the control plane hands out dense ids
    /// and every unit it activates is instantiated here.
    execs: Vec<SimExec>,
    config: SimSwarmConfig,
    /// The master's decisions: roster, deployment, epoch. Worker `w` is
    /// its device `w`; [`apply`](Self::apply) carries out its commands.
    plane: ControlPlane,
    epoch_g: Gauge,
    replaced_c: Counter,
    recovery_h: Histogram,
    /// Virtual crash time per worker, for the recovery histogram.
    crashed_at: HashMap<usize, u64>,
    /// Every worker death so far, any cause: `(virtual µs, name)`.
    departures: Vec<(u64, String)>,
    /// Battery state per worker, when energy modeling is on.
    energy: Option<EnergyRt>,
    /// While true, membership events defer (no master to handle them).
    master_down: bool,
    /// Evictions and joins that arrived while the master was down, in
    /// arrival order.
    deferred: Vec<SimEvent>,
    /// Workers scheduled to join, consumed by `SimEvent::Join`.
    pending_joins: Vec<Option<(String, UnitRegistry, Option<WorkerSpec>)>>,
    /// In-flight byte windows, one per wired radio edge; empty unless
    /// [`SimSwarmConfig::radio_window_bytes`] is set, which also puts
    /// every dispatcher in paced mode so the gates are refreshed
    /// between consecutive sends.
    windows: Vec<Window>,
    /// Gateway tap: every Nth played frame egresses toward the
    /// federation. `None` = this swarm is not federated.
    gateway_every: Option<u64>,
    /// Played frames seen by the tap since the gateway was enabled.
    gateway_played: u64,
    /// Next gateway sequence number.
    gateway_seq: u64,
    /// Sampled frames awaiting pickup by the federation shard driver.
    gateway_egress: Vec<GatewayFrame>,
    /// Arrived peer-swarm frames awaiting ACK by the shard driver.
    gateway_receipts: Vec<GatewayReceipt>,
    gateway_egress_c: Counter,
    gateway_ingress_c: Counter,
    gateway_hop_h: Histogram,
}

impl std::fmt::Debug for SimSwarm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSwarm")
            .field("now_us", &self.queue.now_us())
            .field("workers", &self.workers.len())
            .field("execs", &self.execs.len())
            .finish()
    }
}

impl SimSwarm {
    /// Deploy `graph` across the named workers — each joins the
    /// `ControlPlane` the live master runs, under
    /// [`Placement::SourceOnFirst`] (source and sink on the first
    /// worker, operators replicated on the rest) — and wire every edge
    /// through a fresh [`SimFabric`] seeded from `config.seed`.
    pub fn start(
        graph: AppGraph,
        workers: Vec<(String, UnitRegistry)>,
        config: SimSwarmConfig,
    ) -> Result<SimSwarm> {
        let workers = workers.into_iter().map(|(n, r)| (n, r, None)).collect();
        Self::start_described(graph, workers, config)
    }

    /// [`start`](Self::start) with an optional device description next
    /// to each roster entry. A described worker joins at its
    /// [`WorkerSpec::join_at_us`] rather than at the start.
    pub fn start_described(
        graph: AppGraph,
        workers: Vec<(String, UnitRegistry, Option<WorkerSpec>)>,
        config: SimSwarmConfig,
    ) -> Result<SimSwarm> {
        if workers.is_empty() {
            return Err(Error::Malformed(
                "a sim swarm needs at least one worker".into(),
            ));
        }
        graph
            .validate()
            .map_err(|e| Error::Malformed(format!("invalid graph: {e}")))?;
        config.node.validate()?;
        if config.radio_window_bytes == Some(0) {
            return Err(Error::Malformed(
                "radio_window_bytes must be positive".into(),
            ));
        }
        for (name, _) in &config.stage_workloads {
            let stage = graph.stage_by_name(name).and_then(|s| graph.stage(s).ok());
            if stage.map(|s| s.role) != Some(Role::Operator) {
                return Err(Error::Malformed(format!(
                    "stage_workloads names {name}, which is no operator stage of the graph"
                )));
            }
        }

        let clock = VirtualClock::shared();
        let mut fabric = SimFabric::new(config.seed);
        fabric.set_default_link(config.link)?;
        // Event timestamps follow the swarm's virtual clock, so a
        // traced run is reproducible down to the event ring.
        let tel_clock = Arc::clone(&clock);
        config
            .node
            .telemetry
            .set_time_source(move || tel_clock.now_us());

        // The first deployment waits for everyone present at t = 0.
        let late = |w: &&(_, _, Option<WorkerSpec>)| w.2.as_ref().is_some_and(|d| d.join_at_us > 0);
        let expected = workers.len() - workers.iter().filter(late).count();
        let telemetry = config.node.telemetry.clone();
        let energy = config.energy.clone().map(|cfg| EnergyRt {
            packs: Vec::new(),
            window_start_us: 0,
            deaths_c: telemetry.counter(tn::DEATHS, &[]),
            low_power_c: telemetry.counter(tn::LOW_POWER, &[]),
            deaths: Vec::new(),
            low_power: Vec::new(),
            cfg,
        });
        let mut sim = SimSwarm {
            clock: Arc::clone(&clock),
            fabric,
            due: Vec::new(),
            queue: EventQueue::new(),
            workers: Vec::new(),
            execs: Vec::new(),
            config,
            plane: ControlPlane::new(graph, Placement::SourceOnFirst, expected),
            epoch_g: telemetry.gauge(tn::MASTER_EPOCH, &[]),
            replaced_c: telemetry.counter(tn::FAILOVER_REPLACED_UNITS, &[]),
            recovery_h: telemetry.histogram(tn::FAILOVER_RECOVERY_US, &[]),
            crashed_at: HashMap::new(),
            departures: Vec::new(),
            energy,
            master_down: false,
            deferred: Vec::new(),
            pending_joins: Vec::new(),
            windows: Vec::new(),
            gateway_every: None,
            gateway_played: 0,
            gateway_seq: 0,
            gateway_egress: Vec::new(),
            gateway_receipts: Vec::new(),
            gateway_egress_c: telemetry.counter(tn::GATEWAY_EGRESS, &[]),
            gateway_ingress_c: telemetry.counter(tn::GATEWAY_INGRESS, &[]),
            gateway_hop_h: telemetry.histogram(tn::GATEWAY_HOP_US, &[]),
        };

        for (name, registry, device) in workers {
            match device.as_ref().map_or(0, |d| d.join_at_us) {
                0 => sim.admit(name, registry, device, 0),
                at => sim.join_at(name, registry, device, at),
            }
        }
        if let Some(energy) = &sim.energy {
            let first = energy.cfg.vitals_every_us;
            sim.queue.schedule(first, SimEvent::VitalsTick);
        }

        // The first deployment, like live: everyone joins, the last
        // join deploys, wires and starts the app.
        for w in 0..sim.workers.len() {
            sim.enroll(w, 0);
        }
        // An empty stage is a deployment error, unless described
        // devices are still to join and may bring the unit.
        let (graph, placed) = (sim.plane.graph(), sim.plane.deployment());
        let empty = (graph.stages()).find(|&s| placed.instances_of(s).next().is_none());
        if let Some(stage) = empty.filter(|_| sim.pending_joins.is_empty()) {
            return Err(Error::Malformed(format!(
                "no worker has a unit installed for stage {}",
                graph.stage(stage).expect("stage exists").name
            )));
        }
        Ok(sim)
    }

    /// Add a worker to the roster at `now`, listening at the endpoint
    /// of its index, with its battery pack and — if its description has
    /// it depart — the crash that takes it away.
    fn admit(
        &mut self,
        name: String,
        registry: UnitRegistry,
        device: Option<WorkerSpec>,
        now: u64,
    ) {
        if let Some(energy) = &mut self.energy {
            let telemetry = &self.config.node.telemetry;
            let pack = EnergyRt::make_pack(&energy.cfg, &name, device.as_ref(), telemetry);
            energy.packs.push(pack);
        }
        if let Some(t) = device.as_ref().and_then(|d| d.departs_at(now)) {
            self.queue.schedule(t, SimEvent::Crash(self.workers.len()));
        }
        assert_eq!(
            self.fabric.listen(),
            self.workers.len(),
            "worker w listens at endpoint w"
        );
        self.workers.push(SimWorker {
            name,
            alive: true,
            registry,
            device,
        });
    }

    /// Worker `w` joins the control plane, offering the stages its
    /// registry has a unit for.
    fn enroll(&mut self, w: usize, now: u64) {
        let graph = self.plane.graph();
        let installed = |s: &StageId| {
            let name = &graph.stage(*s).expect("stage exists").name;
            self.workers[w].registry.contains(name)
        };
        let offers = graph.stages().filter(installed).collect();
        let (device, wave) = self.plane.join(self.workers[w].name.clone(), offers);
        assert_eq!(device, DeviceId(w as u32), "worker w is device w");
        self.apply(wave, now);
    }

    /// Carry out a wave of the control plane's commands, in order and
    /// in this instant (the control channel has no latency here).
    fn apply(&mut self, wave: Vec<Command>, now: u64) {
        for cmd in wave {
            match cmd {
                Command::Activate {
                    device,
                    unit,
                    stage,
                } => self.place_unit(unit, stage, device.0 as usize),
                Command::Connect { up, down, kind } => self.wire_pair(up, down, &kind),
                Command::Disconnect { up, down } => {
                    if let Some(e) = self.live_exec(up) {
                        e.machine.disp.remove_downstream(down);
                    }
                    if let Some(e) = self.live_exec(down) {
                        e.machine.disp.remove_upstream(up);
                    }
                }
                Command::Start { device } => self.start_units(device.0 as usize, now),
            }
        }
        self.epoch_g.set_u64(self.plane.epoch());
    }

    /// The exec of `unit`, if it was placed and its worker is up.
    fn live_exec(&mut self, unit: UnitId) -> Option<&mut SimExec> {
        self.execs.get_mut(unit.0 as usize).filter(|e| e.alive)
    }

    /// `Start` reaches worker `w`: every unit on it not running yet gets
    /// its first pacing tick (a source) or reorder poll (a sink).
    fn start_units(&mut self, w: usize, now: u64) {
        for (i, e) in self.execs.iter_mut().enumerate() {
            if e.worker != w || !e.alive || std::mem::replace(&mut e.started, true) {
                continue;
            }
            match e.machine.role() {
                Role::Source => self.queue.schedule(now, SimEvent::SourceTick(i)),
                Role::Sink => self
                    .queue
                    .schedule(now + self.config.reorder_poll_us, SimEvent::ReorderPoll(i)),
                Role::Operator => {}
            }
        }
    }

    /// Instantiate `stage` from worker `w`'s registry as `unit` (no
    /// edges wired, no events scheduled; a source's first capture is
    /// due now). On a worker that is down — crashed, its eviction still
    /// to come — the unit is dead from the start, like one whose
    /// `Activate` a dead live worker never saw.
    fn place_unit(&mut self, unit: UnitId, stage: StageId, w: usize) {
        assert_eq!(unit.0 as usize, self.execs.len(), "unit u is exec u");
        let spec = self.plane.graph().stage(stage).expect("stage exists");
        let any = (self.workers[w].registry.create(&spec.name)).expect("the worker offered it");
        let mut node = self.config.node.clone();
        node.clock = self.clock.clone();
        node.worker_label.clone_from(&self.workers[w].name);
        let mut disp = Dispatcher::new(unit, &node);
        disp.enable_loss_log();
        disp.set_paced(self.config.radio_window_bytes.is_some());
        let machine = UnitMachine::new(any, disp, &node, Arc::new(SinkMeter::default()));
        let cpu = self.workers[w]
            .device
            .as_ref()
            .filter(|_| machine.role() == Role::Operator)
            .and_then(|d| {
                let (_, workload) = self
                    .config
                    .stage_workloads
                    .iter()
                    .find(|(stage, _)| *stage == spec.name)?;
                Some(Box::new(DeviceCpu {
                    model: CpuModel::new(&d.profile, *workload),
                    rng: DetRng::seed_from_u64(
                        self.config.seed
                            ^ 0xD6E8_FEB8_6659_FD93u64.wrapping_mul(u64::from(unit.0) + 1),
                    ),
                }))
            });
        self.execs.push(SimExec {
            unit,
            stage,
            worker: w,
            machine,
            alive: self.workers[w].alive,
            started: false,
            armed_timer: None,
            busy: false,
            serving_us: 0,
            cpu,
        });
    }

    /// Dial the two directional links of one (upstream, downstream)
    /// instance pair and register them with both dispatchers, stamping
    /// the upstream dispatcher with the edge's distribution mode. A
    /// pair with an end on a worker that is down cannot be dialed.
    fn wire_pair(&mut self, up: UnitId, down: UnitId, kind: &EdgeKind) {
        if self.live_exec(up).is_none() || self.live_exec(down).is_none() {
            return;
        }
        let (up_idx, down_idx) = (up.0 as usize, down.0 as usize);
        let (up_w, down_w) = (self.execs[up_idx].worker, self.execs[down_idx].worker);
        let tx_data = self.dial(up_w, down_w);
        let up_disp = &mut self.execs[up_idx].machine.disp;
        up_disp.set_edge_kind(kind);
        up_disp.add_downstream(down, tx_data);
        let tx_ack = self.dial(down_w, up_w);
        self.execs[down_idx].machine.disp.add_upstream(up, tx_ack);
        if self.config.radio_window_bytes.is_some() {
            self.windows.push(Window {
                from: up,
                to: down,
                used: 0,
                frame: 0,
            });
        }
    }

    /// Dial a link from worker `from` to worker `to`. With the radio on,
    /// a link between two workers crosses the radio of whichever is a
    /// described device (the receiver's, when both are); within one
    /// worker, or between two undescribed ones, it is a plain link.
    fn dial(&mut self, from: usize, to: usize) -> MsgSender {
        let radio_end = [to, from]
            .into_iter()
            .filter(|_| from != to && self.config.radio_window_bytes.is_some())
            .find_map(|w| Some((w, self.workers[w].device.as_ref()?)));
        let link = match radio_end {
            Some((owner, device)) => self.fabric.dial_radio(to, owner, &device.mobility),
            None => self.fabric.dial(to),
        };
        link.expect("a live worker's endpoint is up")
    }

    /// The virtual clock every unit in this swarm reads.
    #[must_use]
    pub fn clock(&self) -> Arc<VirtualClock> {
        Arc::clone(&self.clock)
    }

    /// The telemetry domain the swarm emits into.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.node.telemetry
    }

    /// The simulated transport (its fault counters).
    #[must_use]
    pub fn fabric(&self) -> &SimFabric {
        &self.fabric
    }

    /// Current virtual time, microseconds.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.queue.now_us()
    }

    /// Schedule an abrupt crash of the named worker at absolute virtual
    /// time `at_us`: its inbox and inbound links drop (senders see a
    /// broken channel), its units stop, and after
    /// [`SimSwarmConfig::eviction_delay_us`] the survivors evict its
    /// units — the heartbeat-prune path. `false` if no such worker.
    pub fn crash_worker_at(&mut self, name: &str, at_us: u64) -> bool {
        match self.workers.iter().position(|w| w.name == name) {
            Some(w) => {
                self.queue.schedule(at_us, SimEvent::Crash(w));
                true
            }
            None => false,
        }
    }

    /// Schedule a fresh worker to join the swarm at absolute virtual
    /// time `at_us`. On join the control plane bumps the deployment
    /// epoch and reconciles: the newcomer picks up any operator
    /// instances the placement policy wants on it.
    pub fn add_worker_at(&mut self, name: &str, registry: UnitRegistry, at_us: u64) {
        self.join_at(name.to_string(), registry, None, at_us);
    }

    fn join_at(&mut self, name: String, reg: UnitRegistry, device: Option<WorkerSpec>, at_us: u64) {
        let j = self.pending_joins.len();
        self.pending_joins.push(Some((name, reg, device)));
        self.queue.schedule(at_us, SimEvent::Join(j));
    }

    /// Change every source's sensing rate to `fps` at absolute virtual
    /// time `at_us` (a demand step: a flash crowd arriving).
    pub fn set_source_rate_at(&mut self, at_us: u64, fps: f64) {
        self.queue.schedule(at_us, SimEvent::SourceRate(fps));
    }

    /// Take the control plane offline over `[from_us, to_us)`: evictions
    /// and joins due in that window are deferred (survivors keep
    /// retrying blind, newcomers wait) and handled, in arrival order,
    /// the moment the master returns.
    pub fn master_outage(&mut self, from_us: u64, to_us: u64) {
        assert!(from_us < to_us, "outage window must be non-empty");
        self.queue.schedule(from_us, SimEvent::MasterDown);
        self.queue.schedule(to_us, SimEvent::MasterUp);
    }

    /// Blackhole all traffic *toward* the named worker over
    /// `[from_us, to_us)` — an asymmetric partition: the worker keeps
    /// sending, but nothing reaches it (data or ACKs), so upstream
    /// retransmission carries the window. `false` if no such worker.
    pub fn partition_worker(&mut self, name: &str, from_us: u64, to_us: u64) -> bool {
        assert!(from_us < to_us, "partition window must be non-empty");
        match self.workers.iter().position(|w| w.name == name) {
            Some(w) => {
                self.queue.schedule(
                    from_us,
                    SimEvent::Partition {
                        worker: w,
                        restore: false,
                    },
                );
                self.queue.schedule(
                    to_us,
                    SimEvent::Partition {
                        worker: w,
                        restore: true,
                    },
                );
                true
            }
            None => false,
        }
    }

    /// Current deployment epoch (starts at 1; bumped on every
    /// topology-changing wave — eviction, join, re-placement).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.plane.epoch()
    }

    // -- federation seam (the shard-local half of the sharded engine) --

    /// Make this swarm a federation member: every `sample_every`-th
    /// frame the sink plays is summarized into a [`GatewayFrame`] and
    /// queued for egress toward peer swarms. The federation tier picks
    /// the destination per frame by scoring gateway links with the same
    /// `L_i` estimator the intra-swarm router uses.
    ///
    /// # Panics
    /// If `sample_every` is zero.
    pub fn enable_gateway(&mut self, sample_every: u64) {
        assert!(sample_every > 0, "gateway sample rate must be >= 1");
        self.gateway_every = Some(sample_every);
    }

    /// Timestamp of the earliest pending event, if any — the shard's
    /// contribution to the federation's global lower-bound timestamp.
    #[must_use]
    pub fn next_event_us(&self) -> Option<u64> {
        self.queue.peek_time()
    }

    /// Schedule the arrival of a gateway tuple from a peer swarm at
    /// absolute virtual time `at_us`. Called by the shard driver when
    /// it drains an inbound gateway channel; conservative windowing
    /// guarantees `at_us` is never in this shard's past.
    pub fn ingest_remote(&mut self, at_us: u64, from_swarm: u64, seq: u64, emitted_us: u64) {
        debug_assert!(
            at_us >= self.queue.now_us(),
            "gateway arrival at {at_us} violates lookahead (shard now {})",
            self.queue.now_us()
        );
        self.queue.schedule(
            at_us,
            SimEvent::GatewayIngress {
                from_swarm,
                seq,
                emitted_us,
            },
        );
    }

    /// Take the gateway frames emitted since the last drain (the shard
    /// driver routes them over inter-swarm links after each window).
    pub fn drain_gateway_egress(&mut self) -> Vec<GatewayFrame> {
        std::mem::take(&mut self.gateway_egress)
    }

    /// Take the receipts of peer-swarm frames that arrived since the
    /// last drain (the shard driver ACKs them back to the emitters).
    pub fn drain_gateway_receipts(&mut self) -> Vec<GatewayReceipt> {
        std::mem::take(&mut self.gateway_receipts)
    }

    /// Gateway accounting so far: `(egress, ingress)` tuple counts.
    #[must_use]
    pub fn gateway_counts(&self) -> (u64, u64) {
        (self.gateway_egress_c.get(), self.gateway_ingress_c.get())
    }

    /// Every worker lost so far — scheduled crash, battery cliff, walk
    /// out of radio range, broken link — as `(virtual µs, name)` in
    /// death order.
    #[must_use]
    pub fn departures(&self) -> &[(u64, String)] {
        &self.departures
    }

    /// Names of workers currently alive, in roster order.
    #[must_use]
    pub fn alive_workers(&self) -> Vec<String> {
        self.workers
            .iter()
            .filter(|w| w.alive)
            .map(|w| w.name.clone())
            .collect()
    }

    /// Every unit instance placed so far, dead ones included: `(unit,
    /// stage name, worker name)` — what maps the `unit` of a lifecycle
    /// event or a metric label back to a device.
    #[must_use]
    pub fn placements(&self) -> Vec<(UnitId, String, String)> {
        self.execs
            .iter()
            .map(|e| {
                let stage = self.plane.graph().stage(e.stage).expect("stage exists");
                (
                    e.unit,
                    stage.name.clone(),
                    self.workers[e.worker].name.clone(),
                )
            })
            .collect()
    }

    /// How many instances of each stage are currently alive, keyed by
    /// stage name — the observable the chaos campaign asserts
    /// convergence on.
    #[must_use]
    pub fn live_placement(&self) -> Vec<(String, Vec<String>)> {
        let mut out: Vec<(String, Vec<String>)> = Vec::new();
        let graph = self.plane.graph();
        for stage in graph.stages() {
            let name = graph.stage(stage).expect("stage exists").name.clone();
            let hosts: Vec<String> = self
                .execs
                .iter()
                .filter(|e| e.alive && e.stage == stage)
                .map(|e| self.workers[e.worker].name.clone())
                .collect();
            out.push((name, hosts));
        }
        out
    }

    /// Run the event loop until virtual time reaches `until_us` (events
    /// beyond the horizon stay queued). Wall time spent here is
    /// proportional to the number of events, not to the simulated span.
    pub fn run_until(&mut self, until_us: u64) {
        self.pump_fabric();
        while let Some(t) = self.queue.peek_time() {
            if t > until_us {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked event");
            self.clock.advance_to(now);
            self.handle(now, ev);
            self.pump_fabric();
        }
        self.clock.advance_to(until_us);
        // A subsequent schedule must not land before the horizon.
        self.queue.advance_to(until_us);
    }

    /// Advance virtual time by `span_us` from now.
    pub fn run_for(&mut self, span_us: u64) {
        self.run_until(self.now_us() + span_us);
    }

    /// Per-unit delivery counters, built exactly like
    /// [`LocalSwarm::delivery_stats`] — one consistent telemetry
    /// snapshot, dead workers excluded.
    ///
    /// [`LocalSwarm::delivery_stats`]: crate::swarm::LocalSwarm::delivery_stats
    pub fn delivery_stats(&mut self) -> DeliveryByUnit {
        for e in &mut self.execs {
            if e.alive {
                e.machine.disp.publish();
            }
        }
        let live = self.alive_workers();
        delivery_from_snapshot(&self.config.node.telemetry.snapshot(), &live)
    }

    /// Swarm-wide delivery counters, merged over every live unit.
    pub fn delivery_totals(&mut self) -> DeliveryStats {
        let mut total = DeliveryStats::default();
        for (_, _, s) in self.delivery_stats() {
            total.merge(&s);
        }
        total
    }

    /// Sequence numbers every live dispatcher counted lost so far
    /// (sorted, deduplicated across units). Draining: a second call
    /// returns only losses recorded since.
    pub fn lost_seqs(&mut self) -> Vec<SeqNo> {
        let mut lost: Vec<SeqNo> = Vec::new();
        for e in &mut self.execs {
            lost.extend(e.machine.disp.take_lost_seqs());
        }
        lost.sort_unstable();
        lost.dedup();
        lost
    }

    /// Let the in-flight tail settle (every retry deadline serviced or
    /// the retry budget exhausted), then flush sinks and return
    /// `(worker name, sink report)` pairs — the [`LocalSwarm::stop`]
    /// shape.
    ///
    /// [`LocalSwarm::stop`]: crate::swarm::LocalSwarm::stop
    pub fn finish(mut self) -> Vec<(String, SinkReport)> {
        // Worst-case virtual time for one tuple to exhaust its budget,
        // mirroring Dispatcher::drain_tail.
        let retry = &self.config.node.retry;
        let budget = if retry.enabled {
            retry.deadline_ceiling_us * (u64::from(retry.max_retries) + 2)
        } else {
            2 * (self.config.link.base_delay_us + self.config.link.jitter_us)
                + timing::PENDING_RETRY_TICK_US
        };
        let deadline = self.now_us() + budget;
        while self.now_us() < deadline
            && self.execs.iter().any(|e| {
                e.alive && (e.machine.disp.inflight_len() > 0 || e.machine.disp.pending_len() > 0)
            })
        {
            let step = self.now_us() + timing::PENDING_RETRY_TICK_US;
            self.run_until(step.min(deadline));
        }
        let now = self.now_us();
        let mut reports = Vec::new();
        for e in &mut self.execs {
            // A dead unit's state died with its worker; what its sink
            // had played by then still counts.
            if e.alive {
                e.machine.stop(now);
            }
            if let Some(report) = e.machine.sink_report() {
                reports.push((self.workers[e.worker].name.clone(), report));
            }
        }
        reports
    }

    // -- internals ---------------------------------------------------------

    /// Move messages the last event put on the wire into the queue.
    ///
    /// Under radio windows the dispatchers are paced, so this is also
    /// where tuples leave them: one per dispatcher per round, each
    /// observed on the wire (window charged, gate refreshed) before the
    /// next is released, until every pending queue is empty or held.
    fn pump_fabric(&mut self) {
        let now = self.queue.now_us();
        let mut due = std::mem::take(&mut self.due);
        loop {
            self.fabric.poll(now, &mut due);
            for (at, to, msg) in due.drain(..) {
                if let (Some(cap), Message::Data { dest, from, tuple }) =
                    (self.config.radio_window_bytes, &msg)
                {
                    self.window_update(*from, *dest, cap, |w| {
                        w.frame = tuple.size_bytes();
                        w.used += w.frame;
                    });
                }
                self.queue.schedule(at, SimEvent::Deliver { to, msg });
            }
            if self.config.radio_window_bytes.is_none() {
                break;
            }
            for w in self.fabric.take_broken() {
                self.on_crash(w, now);
            }
            let mut sent = false;
            for e in &mut self.execs {
                sent |= e.alive && e.machine.disp.flush_one();
            }
            if !sent {
                break;
            }
        }
        self.due = due;
    }

    /// Adjust the in-flight window of the radio edge `from → to` and
    /// mirror it onto the upstream dispatcher's gate: closed while a
    /// further frame would not fit (an empty window always admits one).
    fn window_update(&mut self, from: UnitId, to: UnitId, cap: usize, f: impl FnOnce(&mut Window)) {
        let Some(w) = self
            .windows
            .iter_mut()
            .find(|w| w.from == from && w.to == to)
        else {
            return;
        };
        f(w);
        let admits = w.used == 0 || w.used + w.frame <= cap;
        if let Some(e) = self.execs.get_mut(from.0 as usize) {
            e.machine.disp.set_link_up(to, admits);
        }
    }

    /// `bytes` sent on the radio edge `from → to` have left the
    /// receiver's socket buffer. A no-op with the radio off.
    fn window_release(&mut self, from: UnitId, to: UnitId, bytes: usize) {
        if let Some(cap) = self.config.radio_window_bytes {
            self.window_update(from, to, cap, |w| w.used = w.used.saturating_sub(bytes));
        }
    }

    /// (Re-)arm the retry-timer event of exec `i` if it needs an
    /// earlier wake-up than the one already queued.
    fn arm_timer(&mut self, i: usize, now: u64) {
        if !self.execs[i].alive {
            return;
        }
        let Some(wake) = self.execs[i].machine.disp.next_wake_us() else {
            return;
        };
        let wake = wake.max(now);
        let stale = match self.execs[i].armed_timer {
            Some(armed) => wake < armed || armed <= now,
            None => true,
        };
        if stale {
            self.queue.schedule(wake, SimEvent::Timer(i));
            self.execs[i].armed_timer = Some(wake);
        }
    }

    /// Gateway tap: `n` frames just played at a sink. Every
    /// `gateway_every`-th one becomes an egress [`GatewayFrame`].
    /// Frames played during the final [`finish`](Self::finish) drain
    /// are not tapped — the federation horizon has passed by then.
    fn note_gateway_plays(&mut self, n: u64, now: u64) {
        let Some(every) = self.gateway_every else {
            return;
        };
        for _ in 0..n {
            self.gateway_played += 1;
            if self.gateway_played.is_multiple_of(every) {
                self.gateway_egress.push(GatewayFrame {
                    emitted_us: now,
                    seq: self.gateway_seq,
                });
                self.gateway_seq += 1;
                self.gateway_egress_c.inc();
            }
        }
    }

    fn handle(&mut self, now: u64, ev: SimEvent) {
        match ev {
            // Nobody is steering the control plane: survivors keep
            // retrying on their own and newcomers wait, until the master
            // returns and takes the events in the order they came.
            SimEvent::Evict(_) | SimEvent::Join(_) if self.master_down => self.deferred.push(ev),
            SimEvent::SourceTick(i) => self.on_source_tick(i, now),
            SimEvent::Deliver { to, msg } => self.on_deliver(to, msg, now),
            SimEvent::Timer(i) => {
                if self.execs[i].alive {
                    self.execs[i].armed_timer = None;
                    self.execs[i].machine.disp.service_timers();
                    self.arm_timer(i, now);
                }
            }
            SimEvent::ServiceDone(i) => self.on_service_done(i, now),
            SimEvent::ReorderPoll(i) => self.on_reorder_poll(i, now),
            SimEvent::Crash(w) => self.on_crash(w, now),
            SimEvent::Evict(w) => self.on_evict(w, now),
            SimEvent::Join(j) => self.on_join(j, now),
            SimEvent::SourceRate(fps) => {
                for e in &mut self.execs {
                    e.machine.set_source_rate(fps);
                }
            }
            SimEvent::VitalsTick => self.on_vitals_tick(now),
            SimEvent::MasterDown => self.master_down = true,
            SimEvent::MasterUp => {
                self.master_down = false;
                for ev in std::mem::take(&mut self.deferred) {
                    self.handle(now, ev);
                }
            }
            SimEvent::GatewayIngress {
                from_swarm,
                seq,
                emitted_us,
            } => {
                // The gateway consumes federated tuples at ingress: the
                // frame is accounted (count + one-way hop latency) and
                // a receipt queued for the ACK flowing back to the
                // emitter's estimator.
                self.gateway_ingress_c.inc();
                self.gateway_hop_h.record(now.saturating_sub(emitted_us));
                self.gateway_receipts.push(GatewayReceipt {
                    from_swarm,
                    seq,
                    emitted_us,
                    arrived_us: now,
                });
            }
            SimEvent::Partition { worker, restore } => {
                if restore {
                    self.fabric.clear_links_toward(worker);
                } else {
                    // Inbound blackhole: everything dialed toward the
                    // partitioned worker drops; its own outbound links
                    // keep their configured model.
                    let cfg = SimLinkConfig {
                        drop_prob: 1.0,
                        ..self.config.link
                    };
                    self.fabric
                        .set_links_toward(worker, cfg)
                        .expect("the swarm's validated link model, fully dropping");
                }
            }
        }
    }

    // --- energy layer -----------------------------------------------

    /// Drain `joules` from worker `w`'s battery. Wall-powered packs
    /// (infinite capacity) and already-dead workers are no-ops. A pack
    /// that empties here is a *battery cliff*: the worker dies on the
    /// spot and the death flows through the same epoch-fenced
    /// crash → evict → reconcile wave as an abrupt crash.
    fn drain_worker(&mut self, w: usize, joules: f64, now: u64) {
        if joules <= 0.0 || !self.workers.get(w).is_some_and(|x| x.alive) {
            return;
        }
        let mut died = false;
        if let Some(energy) = &mut self.energy {
            let Some(pack) = energy.packs.get_mut(w) else {
                return;
            };
            if pack.battery.capacity_j().is_infinite() || pack.battery.is_empty() {
                return;
            }
            pack.battery.drain(joules, 1.0);
            pack.window_j += joules;
            let level = pack.battery.level();
            if !pack.low_power_reported && level <= energy.cfg.low_power_frac {
                pack.low_power_reported = true;
                energy.low_power_c.inc();
                energy.low_power.push((now, self.workers[w].name.clone()));
            }
            if pack.battery.is_empty() {
                energy.deaths_c.inc();
                energy.deaths.push((now, self.workers[w].name.clone()));
                died = true;
            }
        }
        if died {
            self.on_crash(w, now);
        }
    }

    /// Charge worker `w` for `span_us` of full-utilization compute
    /// (the profile's peak CPU envelope — the modeled service burns
    /// the whole span).
    fn drain_cpu(&mut self, w: usize, span_us: u64, now: u64) {
        let Some(pack) = self.energy.as_mut().and_then(|e| e.packs.get_mut(w)) else {
            return;
        };
        let joules = pack.model.cpu_power_w(1.0) * span_us as f64 / 1e6;
        if let Some(m) = &mut pack.meters {
            m.cpu_j += joules;
            m.busy_us_window += span_us;
        }
        self.drain_worker(w, joules, now);
    }

    /// Charge worker `w` for the airtime of `bytes` on the wire at the
    /// profile's saturated Wi-Fi rate.
    fn drain_wifi(&mut self, w: usize, bytes: u64, now: u64) {
        let Some(pack) = self.energy.as_mut().and_then(|e| e.packs.get_mut(w)) else {
            return;
        };
        let airtime_s = bytes as f64 / pack.model.wifi_peak_rate_bps;
        let joules = pack.model.peak_wifi_w * airtime_s;
        if let Some(m) = pack.meters.as_mut().filter(|_| self.workers[w].alive) {
            m.wifi_j += joules;
        }
        self.drain_worker(w, joules, now);
    }

    /// Charge both endpoints of a delivered message: the sender's
    /// radio transmitted it, `rx_worker`'s radio received it. Charged
    /// at delivery time (one virtual link delay after the send), which
    /// keeps every drain a pure function of the event history.
    fn charge_transfer(&mut self, rx_worker: usize, msg: &Message, now: u64) {
        let Some(energy) = &mut self.energy else {
            return;
        };
        let (bytes, sender) = match msg {
            // The radio variant carries the tuple's own size on the
            // air; the uniform model charges the configured frame.
            Message::Data { from, tuple, .. } => {
                let bytes = match self.config.radio_window_bytes {
                    Some(_) => tuple.size_bytes() as u64,
                    None => energy.cfg.frame_bytes + timing::TUPLE_OVERHEAD_BYTES,
                };
                if let Some(m) = energy.packs.get(rx_worker).and_then(|p| p.meters.as_ref()) {
                    m.bytes_rx_c.add(bytes);
                }
                (bytes, *from)
            }
            Message::Ack { from, .. } => (timing::ACK_BYTES, *from),
            _ => return,
        };
        if let Some(e) = self.execs.get(sender.0 as usize) {
            self.drain_wifi(e.worker, bytes, now);
        }
        self.drain_wifi(rx_worker, bytes, now);
    }

    /// Device-layer half of the vitals tick, for described workers:
    /// charge the framework overhead the window's compute left room
    /// for, and publish the run-so-far means of utilization, power and
    /// input rate under the `swing_device_*` names.
    fn meter_devices(&mut self, now: u64) {
        let Some(energy) = &mut self.energy else {
            return;
        };
        let dt_us = (now - energy.window_start_us).max(1);
        let (ticks, run_s) = (
            (now / energy.cfg.vitals_every_us.max(1)) as f64,
            now as f64 / 1e6,
        );
        let mut overhead: Vec<(usize, f64)> = Vec::new();
        for (w, pack) in energy.packs.iter_mut().enumerate() {
            let worker = &self.workers[w];
            let (Some(m), Some(device)) = (&mut pack.meters, &worker.device) else {
                continue;
            };
            let busy = (m.busy_us_window as f64 / dt_us as f64).min(1.0);
            m.busy_us_window = 0;
            // Swing's own services cost ~14% utilization on a device
            // while it is in the swarm (§VI-B).
            let in_swarm = if worker.alive {
                swing_device::cpu::FRAMEWORK_OVERHEAD_UTIL
            } else {
                0.0
            };
            let app_util = (busy + in_swarm).min(1.0);
            let joules = pack.model.cpu_power_w(app_util - busy) * dt_us as f64 / 1e6;
            m.cpu_j += joules;
            overhead.push((w, joules));
            m.util_sum += (app_util + device.background_at(now)).min(1.0);
            m.cpu_util_g.set(m.util_sum / ticks);
            m.cpu_power_g.set(m.cpu_j / run_s);
            m.wifi_power_g.set(m.wifi_j / run_s);
            m.input_fps_g.set(m.received as f64 / run_s);
        }
        for (w, joules) in overhead {
            self.drain_worker(w, joules, now);
        }
    }

    /// Periodic energy bookkeeping: finish the drain-estimation
    /// window, refresh the per-worker battery gauges, and publish each
    /// downstream's hosting-worker vitals into every live dispatcher's
    /// router — the snapshot the selection policy reads on its next
    /// re-selection round.
    fn on_vitals_tick(&mut self, now: u64) {
        self.meter_devices(now);
        let Some(energy) = &mut self.energy else {
            return;
        };
        let dt_s = ((now - energy.window_start_us) as f64 / 1e6).max(1e-9);
        for pack in &mut energy.packs {
            pack.drain_w = pack.window_j / dt_s;
            pack.window_j = 0.0;
            pack.battery_g.set(pack.frac());
            pack.drain_g.set(pack.drain_w);
        }
        energy.window_start_us = now;
        let every = energy.cfg.vitals_every_us;
        // A described worker also reports the signal its trace gives it
        // now; the others have no radio to read (NaN = not reported).
        let readings: Vec<(f64, f64, f64)> = energy
            .packs
            .iter()
            .zip(&self.workers)
            .map(|(p, w)| {
                let rssi = w
                    .device
                    .as_ref()
                    .map_or(f64::NAN, |d| d.mobility.rssi_at(now));
                (p.frac(), p.drain_w, rssi)
            })
            .collect();
        // The worker hosting each unit that is up, by unit.
        let host: Vec<Option<usize>> = (self.execs.iter())
            .map(|e| e.alive.then_some(e.worker))
            .collect();
        for e in self.execs.iter_mut().filter(|e| e.alive) {
            let disp = &mut e.machine.disp;
            let downs: Vec<UnitId> = disp.router_mut().downstreams().collect();
            for d in downs {
                let Some(w) = host.get(d.0 as usize).copied().flatten() else {
                    continue;
                };
                let Some(&(frac, drain, rssi)) = readings.get(w) else {
                    continue;
                };
                disp.note_worker_vitals(d, frac, drain, rssi);
            }
        }
        self.queue.schedule(now + every, SimEvent::VitalsTick);
    }

    /// Remaining battery fraction of the named worker (`None` when
    /// energy modeling is off or the worker is unknown).
    #[must_use]
    pub fn battery_frac(&self, name: &str) -> Option<f64> {
        let energy = self.energy.as_ref()?;
        let w = self.workers.iter().position(|x| x.name == name)?;
        energy.packs.get(w).map(BatteryPack::frac)
    }

    /// Battery-cliff deaths so far: `(virtual µs, worker name)`, in
    /// death order. Empty when energy modeling is off.
    #[must_use]
    pub fn battery_deaths(&self) -> &[(u64, String)] {
        self.energy.as_ref().map_or(&[], |e| &e.deaths)
    }

    /// Low-power crossings reported to the control plane so far:
    /// `(virtual µs, worker name)`, at most one per worker life.
    #[must_use]
    pub fn low_power_events(&self) -> &[(u64, String)] {
        self.energy.as_ref().map_or(&[], |e| &e.low_power)
    }

    /// Operator `i` is free: if a tuple waits at the head of its
    /// mailbox it goes into service — draw its span (the device's CPU
    /// model under the background load of the moment, or the uniform
    /// `service_us`) and schedule the completion.
    fn begin_service(&mut self, i: usize, now: u64) {
        let e = &mut self.execs[i];
        let taken = e.machine.take_up(now);
        e.busy = taken.is_some();
        let Some((from, bytes)) = taken else {
            return;
        };
        e.serving_us = match (&mut e.cpu, &self.workers[e.worker].device) {
            (Some(cpu), Some(device)) => {
                cpu.model.set_background_load(device.background_at(now));
                cpu.model.sample_service_us(&mut cpu.rng)
            }
            _ => self.config.service_us,
        };
        let (unit, done_at) = (e.unit, now + e.serving_us);
        self.queue.schedule(done_at, SimEvent::ServiceDone(i));
        // The receiver has read the tuple out of its socket buffer.
        self.window_release(from, unit, bytes);
    }

    /// One serialized operator service completes: the machine serves
    /// the tuple at the head of the mailbox, its ACK carrying the span
    /// that just elapsed; then the operator starts on the next queued
    /// tuple, if any.
    fn on_service_done(&mut self, i: usize, now: u64) {
        let e = &mut self.execs[i];
        if !e.alive {
            return;
        }
        let (worker, service_us) = (e.worker, e.serving_us);
        if !e.machine.serve(now, Some(service_us)) {
            e.busy = false;
            return;
        }
        self.begin_service(i, now);
        self.arm_timer(i, now);
        // The service span just burned the worker's compute envelope.
        self.drain_cpu(worker, service_us, now);
    }

    fn on_source_tick(&mut self, i: usize, now: u64) {
        let e = &mut self.execs[i];
        if !e.alive {
            return;
        }
        // Once the stream is exhausted no further tick is scheduled;
        // retry timers keep draining the tail.
        if e.machine.capture(now) {
            let next = e.machine.next_capture_us();
            self.queue.schedule(next, SimEvent::SourceTick(i));
        }
        self.arm_timer(i, now);
    }

    fn on_deliver(&mut self, w: usize, msg: Message, now: u64) {
        if !self.workers[w].alive {
            return; // crashed endpoint: the message evaporates
        }
        self.charge_transfer(w, &msg, now);
        match msg {
            Message::Data { dest, from, tuple } => self.on_data(dest, from, tuple, now),
            Message::Ack {
                seq,
                to,
                processing_us,
                ..
            } => {
                if let Some(e) = self.live_exec(to) {
                    e.machine.disp.on_ack(seq, processing_us);
                    self.arm_timer(to.0 as usize, now);
                }
            }
            _ => {}
        }
    }

    /// A data tuple reaches its unit: the machine accepts (operator) or
    /// receives (sink) it; what it reports back moves the radio window
    /// of the edge, the device meters and the gateway tap.
    fn on_data(&mut self, dest: UnitId, from: UnitId, tuple: Tuple, now: u64) {
        let i = dest.0 as usize;
        let Some(e) = self.execs.get_mut(i).filter(|e| e.alive) else {
            return;
        };
        match e.machine.role() {
            Role::Source => {}
            Role::Operator => {
                let accepted = e.machine.accept(from, tuple, now);
                if accepted.fresh {
                    if let Some(m) = self
                        .energy
                        .as_mut()
                        .and_then(|en| en.packs[e.worker].meters.as_mut())
                    {
                        m.received += 1;
                    }
                }
                if !e.busy {
                    self.begin_service(i, now);
                } else if let Some((up, bytes)) = e.machine.take_up(now) {
                    // `ShedOldest` evicted the tuple in service: the
                    // next in line takes its place.
                    self.window_release(up, dest, bytes);
                }
                if let Some((up, bytes)) = accepted.unserved {
                    self.window_release(up, dest, bytes);
                }
            }
            Role::Sink => {
                // Read out of the socket buffer on receipt.
                let bytes = (self.config.radio_window_bytes).map_or(0, |_| tuple.size_bytes());
                let played = e.machine.receive(from, tuple, now);
                self.window_release(from, dest, bytes);
                self.note_gateway_plays(played, now);
            }
        }
    }

    fn on_reorder_poll(&mut self, i: usize, now: u64) {
        let e = &mut self.execs[i];
        if !e.alive {
            return;
        }
        let played = e.machine.poll(now);
        self.queue
            .schedule(now + self.config.reorder_poll_us, SimEvent::ReorderPoll(i));
        self.note_gateway_plays(played, now);
    }

    fn on_crash(&mut self, w: usize, now: u64) {
        if !self.workers[w].alive {
            return;
        }
        self.workers[w].alive = false;
        self.crashed_at.insert(w, now);
        self.departures.push((now, self.workers[w].name.clone()));
        self.fabric.crash(w);
        for e in &mut self.execs {
            if e.worker == w {
                e.alive = false;
            }
        }
        // A radio peer's departure resets the connections toward it: the
        // upstream dispatchers drop the downstream on the spot,
        // reclaiming or writing off what they had in flight ("the
        // affected upstream units automatically remove the
        // corresponding downstream", §IV-C) — one holding position on a
        // full window would otherwise never touch the broken link.
        let execs = &mut self.execs;
        self.windows.retain(|win| {
            let (up, down) = (win.from.0 as usize, win.to.0 as usize);
            if execs[down].worker == w {
                execs[up].machine.disp.remove_downstream(win.to);
            }
            execs[up].worker != w && execs[down].worker != w
        });
        // The master's heartbeat prune notices after a detection delay;
        // dispatchers with traffic in flight discover the broken links
        // themselves before that.
        self.queue.schedule(
            self.queue.now_us() + self.config.eviction_delay_us,
            SimEvent::Evict(w),
        );
    }

    /// The master declares worker `w` dead: the survivors cut their
    /// routes toward its units, then its stages are re-placed on them
    /// under a fresh deployment epoch.
    fn on_evict(&mut self, w: usize, now: u64) {
        let (_, wave) = (self.plane.leave(DeviceId(w as u32))).expect("a crashed worker");
        let cut = |c: &Command| matches!(c, Command::Disconnect { .. });
        let (cuts, placed): (Vec<_>, Vec<_>) = wave.into_iter().partition(cut);
        self.apply(cuts, now);
        // What was held back for the dead routes goes to the survivors
        // before any replacement is wired in.
        for i in 0..self.execs.len() {
            if self.execs[i].alive {
                self.execs[i].machine.disp.flush_pending();
                self.arm_timer(i, now);
            }
        }
        let before = self.execs.len();
        self.apply(placed, now);
        self.replaced_c.add((self.execs.len() - before) as u64);
        if let Some(t0) = self.crashed_at.remove(&w) {
            self.recovery_h.record(now.saturating_sub(t0));
        }
    }

    fn on_join(&mut self, j: usize, now: u64) {
        let Some((name, registry, device)) = self.pending_joins.get_mut(j).and_then(Option::take)
        else {
            return;
        };
        self.admit(name, registry, device, now);
        self.enroll(self.workers.len() - 1, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use swing_core::config::RetryConfig;
    use swing_core::flow::OverloadPolicy;
    use swing_core::routing::Policy;
    use swing_core::unit::{closure_sink, closure_source, PassThrough};
    use swing_core::SECOND_US;

    fn graph() -> AppGraph {
        let mut g = AppGraph::new("sim-test");
        let s = g.add_source("src");
        let o = g.add_operator("work");
        let k = g.add_sink("out");
        g.connect(s, o).unwrap();
        g.connect(o, k).unwrap();
        g
    }

    fn registry(frames: u64) -> UnitRegistry {
        let mut r = UnitRegistry::new();
        r.register_source("src", move || {
            let count = std::sync::atomic::AtomicU64::new(0);
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

    fn config(seed: u64, drop: f64) -> SimSwarmConfig {
        let mut c = SimSwarmConfig {
            seed,
            link: SimLinkConfig::default().with_drop(drop),
            ..SimSwarmConfig::default()
        };
        c.node.input_fps = 30.0;
        c.node.router = swing_core::routing::RouterConfig::new(Policy::Lrs);
        c.node.telemetry = Telemetry::new();
        c
    }

    #[test]
    fn clean_run_delivers_everything_in_order() {
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(100)), ("B".into(), registry(100))],
            config(7, 0.0),
        )
        .unwrap();
        swarm.run_for(10 * SECOND_US);
        let totals = swarm.delivery_totals();
        assert_eq!(totals.lost, 0, "clean links lose nothing");
        let reports = swarm.finish();
        let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert_eq!(consumed, 100, "every frame reached the sink");
        assert_eq!(reports[0].1.skipped, 0);
    }

    #[test]
    fn sixty_simulated_seconds_run_in_well_under_a_second() {
        let wall = std::time::Instant::now();
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(u64::MAX)), ("B".into(), registry(0))],
            config(3, 0.02),
        )
        .unwrap();
        swarm.run_for(60 * SECOND_US);
        assert!(swarm.now_us() >= 60 * SECOND_US);
        let totals = swarm.delivery_totals();
        // 30 fps for 60 s ≈ 1800 frames sensed and dispatched.
        assert!(totals.sent > 1_500, "only {} sent", totals.sent);
        assert!(
            wall.elapsed() < std::time::Duration::from_secs(1),
            "simulation too slow: {:?}",
            wall.elapsed()
        );
    }

    #[test]
    fn lossy_links_recover_via_retransmission() {
        let mut cfg = config(11, 0.10);
        // A tuple may burn several ACK deadlines before it lands; give
        // the sink a reorder window wide enough to still play it.
        cfg.node.reorder = swing_core::config::ReorderConfig {
            span_us: 10 * SECOND_US,
        };
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(200)), ("B".into(), registry(0))],
            cfg,
        )
        .unwrap();
        swarm.run_for(30 * SECOND_US);
        let totals = swarm.delivery_totals();
        assert!(totals.retried > 0, "10% drop must force retransmissions");
        assert_eq!(totals.lost, 0, "retries must recover every drop");
        assert!(swarm.fabric().dropped() > 0);
        let reports = swarm.finish();
        let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert_eq!(consumed, 200);
    }

    #[test]
    fn disabled_retries_lose_dropped_tuples() {
        let mut cfg = config(11, 0.10);
        cfg.node.retry = RetryConfig::disabled();
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(200)), ("B".into(), registry(0))],
            cfg,
        )
        .unwrap();
        swarm.run_for(30 * SECOND_US);
        let reports = swarm.finish();
        let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert!(consumed < 200, "drops must show without retransmission");
        assert!(consumed > 100, "most frames still arrive");
    }

    #[test]
    fn crash_mid_run_reroutes_to_the_survivor() {
        let mut swarm = SimSwarm::start(
            graph(),
            vec![
                ("A".into(), registry(u64::MAX)),
                ("B".into(), registry(0)),
                ("C".into(), registry(0)),
            ],
            config(5, 0.0),
        )
        .unwrap();
        assert!(swarm.crash_worker_at("C", 5 * SECOND_US));
        assert!(!swarm.crash_worker_at("nope", SECOND_US));
        swarm.run_for(15 * SECOND_US);
        let stats = swarm.delivery_stats();
        assert!(
            stats.iter().all(|(w, _, _)| w != "C"),
            "dead worker still reported"
        );
        let totals = swarm.delivery_totals();
        // The source keeps dispatching after the crash, re-routing
        // everything through B.
        assert!(totals.sent > 300, "only {} sent", totals.sent);
    }

    #[test]
    fn finish_stops_every_live_unit() {
        use std::sync::atomic::AtomicBool;
        struct FlagsStop(Arc<AtomicBool>);
        impl swing_core::unit::FunctionUnit for FlagsStop {
            fn process_data(&mut self, t: Tuple, ctx: &mut swing_core::unit::Context<'_>) {
                ctx.send(t);
            }
            fn on_stop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let stopped = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stopped);
        let mut b = registry(0);
        b.register_operator("work", move || FlagsStop(Arc::clone(&flag)));
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(10)), ("B".into(), b)],
            config(7, 0.0),
        )
        .unwrap();
        swarm.run_for(SECOND_US);
        assert!(!stopped.load(Ordering::SeqCst));
        let reports = swarm.finish();
        assert_eq!(reports[0].1.consumed, 10);
        assert!(stopped.load(Ordering::SeqCst), "on_stop ran at finish()");
    }

    #[test]
    fn same_seed_same_history() {
        let run = |seed: u64| {
            let mut swarm = SimSwarm::start(
                graph(),
                vec![("A".into(), registry(300)), ("B".into(), registry(0))],
                config(seed, 0.08),
            )
            .unwrap();
            swarm.run_for(20 * SECOND_US);
            let totals = swarm.delivery_totals();
            let dropped = swarm.fabric().dropped();
            let reports = swarm.finish();
            let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
            (totals, dropped, consumed)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must reproduce the same history");
        let c = run(43);
        assert_ne!(a.1, c.1, "different seeds draw different fault patterns");
    }

    #[test]
    fn start_rejects_a_malformed_config() {
        let start = |cfg| SimSwarm::start(graph(), vec![("A".into(), registry(0))], cfg);
        let mut bad_link = SimSwarmConfig::default();
        bad_link.link.drop_prob = 1.5;
        let zero_window = SimSwarmConfig {
            radio_window_bytes: Some(0),
            ..SimSwarmConfig::default()
        };
        // A mistyped stage would silently cost `service_us`.
        let unknown_stage = SimSwarmConfig {
            stage_workloads: vec![("wrok".into(), Workload::FaceRecognition)],
            ..SimSwarmConfig::default()
        };
        for cfg in [bad_link, zero_window, unknown_stage] {
            assert!(matches!(start(cfg), Err(Error::Malformed(_))));
        }
    }

    /// A link model no setter may let through: `poll` would otherwise
    /// meet it later, inside `random_bool`'s assertion.
    fn bad_links() -> [SimLinkConfig; 3] {
        let ok = SimLinkConfig::default();
        [ok.with_drop(1.5), ok.with_drop(f64::NAN), ok.with_dup(-0.1)]
    }

    fn assert_malformed(r: Result<()>, what: &str) {
        assert!(
            matches!(r, Err(Error::Malformed(_))),
            "{what} accepted an invalid link model"
        );
    }

    #[test]
    fn set_default_link_validates() {
        let mut fabric = SimFabric::new(1);
        for bad in bad_links() {
            assert_malformed(fabric.set_default_link(bad), "set_default_link");
        }
        assert!(fabric
            .set_default_link(SimLinkConfig::default().with_drop(1.0))
            .is_ok());
    }

    #[test]
    fn set_link_to_validates() {
        let mut fabric = SimFabric::new(1);
        let endpoint = fabric.listen();
        for bad in bad_links() {
            assert_malformed(fabric.set_link_to(endpoint, bad), "set_link_to");
        }
        assert!(fabric
            .set_link_to(endpoint, SimLinkConfig::default().with_dup(1.0))
            .is_ok());
    }

    #[test]
    fn set_links_toward_validates_and_leaves_live_links_alone() {
        let mut fabric = SimFabric::new(1);
        let endpoint = fabric.listen();
        let tx = fabric.dial(endpoint).unwrap();
        for bad in bad_links() {
            assert_malformed(fabric.set_links_toward(endpoint, bad), "set_links_toward");
        }
        // The rejected models never reached the live link: a message
        // still crosses it, and `poll` has nothing to trip over.
        tx.send(Message::Stop).unwrap();
        let mut due = Vec::new();
        fabric.poll(0, &mut due);
        assert!(matches!(due[..], [(_, to, Message::Stop)] if to == endpoint));
    }

    #[test]
    fn a_crashed_endpoint_disconnects_its_links_and_cannot_be_dialed() {
        let mut fabric = SimFabric::new(1);
        let (a, b) = (fabric.listen(), fabric.listen());
        let (to_a, to_b) = (fabric.dial(a).unwrap(), fabric.dial(b).unwrap());
        assert!(fabric.crash(a));
        assert!(!fabric.crash(a), "already down");
        assert!(to_a.send(Message::Stop).is_err(), "senders see the break");
        assert!(fabric.dial(a).is_err());
        assert!(fabric.dial(7).is_err(), "never opened");
        // The neighbour is untouched.
        to_b.send(Message::Stop).unwrap();
        let mut due = Vec::new();
        fabric.poll(0, &mut due);
        assert!(matches!(due[..], [(_, to, Message::Stop)] if to == b));
    }

    /// Which workers host the named stage right now.
    fn hosts_of(swarm: &SimSwarm, stage: &str) -> Vec<String> {
        swarm
            .live_placement()
            .into_iter()
            .find(|(s, _)| s == stage)
            .map(|(_, hosts)| hosts)
            .unwrap_or_default()
    }

    #[test]
    fn sole_host_crash_replaces_units_on_the_survivor() {
        // B is the only operator host; its death must not strand the
        // pipeline — the reconcile wave re-places "work" on A.
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(u64::MAX)), ("B".into(), registry(0))],
            config(9, 0.0),
        )
        .unwrap();
        assert_eq!(swarm.epoch(), 1);
        assert!(swarm.crash_worker_at("B", 5 * SECOND_US));
        swarm.run_for(20 * SECOND_US);
        assert_eq!(swarm.alive_workers(), vec!["A".to_string()]);
        assert_eq!(swarm.epoch(), 2, "eviction bumps the deployment epoch");
        assert_eq!(
            hosts_of(&swarm, "work"),
            vec!["A".to_string()],
            "operator re-placed on the survivor"
        );
        // Re-placement is observable in telemetry too.
        let snap = swarm.telemetry().snapshot();
        assert_eq!(snap.counter_total(tn::FAILOVER_REPLACED_UNITS), 1);
        // The pipeline keeps playing after the heal: frames sensed well
        // after the crash still reach the sink.
        let reports = swarm.finish();
        let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert!(
            consumed > 450,
            "only {consumed} frames played across a 20 s run with one crash"
        );
    }

    #[test]
    fn join_mid_run_takes_over_operator_load() {
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(u64::MAX)), ("B".into(), registry(0))],
            config(13, 0.0),
        )
        .unwrap();
        swarm.add_worker_at("C", registry(0), 5 * SECOND_US);
        swarm.run_for(15 * SECOND_US);
        assert_eq!(swarm.alive_workers(), vec!["A", "B", "C"]);
        assert_eq!(swarm.epoch(), 2, "join bumps the deployment epoch");
        let mut work_hosts = hosts_of(&swarm, "work");
        work_hosts.sort();
        assert_eq!(work_hosts, vec!["B".to_string(), "C".to_string()]);
        // The newcomer's instance actually serves traffic.
        let stats = swarm.delivery_stats();
        let c_sent: u64 = stats
            .iter()
            .filter(|(w, _, _)| w == "C")
            .map(|(_, _, s)| s.sent)
            .sum();
        assert!(c_sent > 0, "joined worker never forwarded a tuple");
    }

    #[test]
    fn master_outage_defers_eviction_until_recovery() {
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(u64::MAX)), ("B".into(), registry(0))],
            config(21, 0.0),
        )
        .unwrap();
        swarm.master_outage(SECOND_US, 12 * SECOND_US);
        assert!(swarm.crash_worker_at("B", 2 * SECOND_US));
        swarm.run_for(10 * SECOND_US);
        assert_eq!(swarm.epoch(), 1, "no reconcile while the master is offline");
        assert!(
            hosts_of(&swarm, "work").is_empty(),
            "orphaned stage must not re-place without a master"
        );
        swarm.run_for(5 * SECOND_US);
        assert_eq!(swarm.epoch(), 2, "deferred eviction replays on recovery");
        assert_eq!(hosts_of(&swarm, "work"), vec!["A".to_string()]);
    }

    #[test]
    fn join_inside_a_master_outage_waits_for_the_master() {
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(u64::MAX)), ("B".into(), registry(0))],
            config(22, 0.0),
        )
        .unwrap();
        swarm.master_outage(2 * SECOND_US, 8 * SECOND_US);
        swarm.add_worker_at("C", registry(0), 3 * SECOND_US);
        swarm.run_until(8 * SECOND_US - 1);
        assert_eq!(swarm.alive_workers(), vec!["A", "B"], "nobody to admit C");
        assert_eq!(swarm.epoch(), 1);
        swarm.run_until(8 * SECOND_US);
        assert_eq!(swarm.alive_workers(), vec!["A", "B", "C"]);
        assert_eq!(swarm.epoch(), 2, "the returning master deploys on C");
        assert_eq!(hosts_of(&swarm, "work"), vec!["B", "C"]);
    }

    #[test]
    fn deferred_membership_events_replay_in_arrival_order() {
        // B (the sole operator host) dies and C arrives while the master
        // is away. Back, it evicts B first — "work" falls to A, the only
        // member it knows — and only then admits C.
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(u64::MAX)), ("B".into(), registry(0))],
            config(23, 0.0),
        )
        .unwrap();
        swarm.master_outage(2 * SECOND_US, 8 * SECOND_US);
        assert!(swarm.crash_worker_at("B", 3 * SECOND_US));
        swarm.add_worker_at("C", registry(0), 5 * SECOND_US);
        swarm.run_for(10 * SECOND_US);
        assert_eq!(swarm.epoch(), 3);
        assert_eq!(hosts_of(&swarm, "work"), vec!["A", "C"]);
    }

    #[test]
    fn a_crashed_worker_stays_a_host_until_its_eviction() {
        // B and C host "work" and die half a second apart. The master
        // learns of each death one detection delay later: evicting B it
        // still counts on C, so "work" comes back (on A) only with C's
        // eviction — as a live master, which cannot see a crash, would.
        let mut swarm = SimSwarm::start(
            graph(),
            vec![
                ("A".into(), registry(u64::MAX)),
                ("B".into(), registry(0)),
                ("C".into(), registry(0)),
            ],
            config(24, 0.0),
        )
        .unwrap();
        let delay = swarm.config.eviction_delay_us;
        assert!(swarm.crash_worker_at("B", 4 * SECOND_US));
        assert!(swarm.crash_worker_at("C", 4 * SECOND_US + SECOND_US / 2));
        swarm.run_until(4 * SECOND_US + delay);
        assert_eq!(swarm.epoch(), 2, "B evicted");
        assert!(hosts_of(&swarm, "work").is_empty());
        swarm.run_until(4 * SECOND_US + SECOND_US / 2 + delay);
        assert_eq!(swarm.epoch(), 3, "C evicted");
        assert_eq!(hosts_of(&swarm, "work"), vec!["A"]);
    }

    #[test]
    fn a_unit_placed_on_a_crashed_worker_moves_on_at_its_eviction() {
        // One "work" replica, on B. B dies, then C; evicting B the
        // master slides the replica to C, which never hears of it; C's
        // own eviction slides it on to D.
        let mut g = graph();
        g.set_parallelism(g.stage_by_name("work").unwrap(), 1)
            .unwrap();
        let names = ["A", "B", "C", "D"];
        let roster = names.map(|n| (n.to_string(), registry(u64::MAX)));
        let mut swarm = SimSwarm::start(g, roster.into(), config(25, 0.0)).unwrap();
        assert_eq!(hosts_of(&swarm, "work"), vec!["B"]);
        assert!(swarm.crash_worker_at("B", 4 * SECOND_US));
        assert!(swarm.crash_worker_at("C", 4 * SECOND_US + SECOND_US / 5));
        swarm.run_for(10 * SECOND_US);
        assert_eq!(swarm.epoch(), 3);
        assert_eq!(hosts_of(&swarm, "work"), vec!["D"]);
        let work: Vec<_> = (swarm.placements().into_iter())
            .filter(|(_, stage, _)| stage == "work")
            .map(|(unit, _, worker)| (unit.0, worker))
            .collect();
        let expected = [(1, "B"), (3, "C"), (4, "D")].map(|(u, w)| (u, w.to_string()));
        assert_eq!(work, expected, "unit 3 went to C, which never ran it");
        let before = swarm.telemetry().snapshot().counter_total(tn::SINK_PLAYED);
        swarm.run_for(5 * SECOND_US);
        let after = swarm.telemetry().snapshot().counter_total(tn::SINK_PLAYED);
        assert!(after - before > 100, "the stream flows through D");
    }

    #[test]
    fn partition_heals_via_retransmission() {
        let mut cfg = config(17, 0.0);
        cfg.node.reorder = swing_core::config::ReorderConfig {
            span_us: 10 * SECOND_US,
        };
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(200)), ("B".into(), registry(0))],
            cfg,
        )
        .unwrap();
        // Blackhole everything toward B for two seconds mid-stream.
        assert!(swarm.partition_worker("B", 3 * SECOND_US, 5 * SECOND_US));
        assert!(!swarm.partition_worker("nope", SECOND_US, 2 * SECOND_US));
        swarm.run_for(30 * SECOND_US);
        let totals = swarm.delivery_totals();
        assert!(totals.retried > 0, "partition must force retransmissions");
        assert_eq!(totals.lost, 0, "retries carry the partition window");
        let reports = swarm.finish();
        let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert_eq!(consumed, 200, "every frame plays once the link heals");
    }

    #[test]
    fn sim_swarm_is_send() {
        // Shards of the federated engine move across scoped worker
        // threads between windows; the whole harness must be Send.
        fn assert_send<T: Send>() {}
        assert_send::<SimSwarm>();
    }

    #[test]
    fn gateway_tap_samples_every_nth_play_and_ingress_accounts() {
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(100)), ("B".into(), registry(0))],
            config(7, 0.0),
        )
        .unwrap();
        swarm.enable_gateway(10);
        // A peer frame scheduled before the run is consumed at its
        // arrival instant and produces exactly one receipt.
        swarm.ingest_remote(2 * SECOND_US, 3, 0, 2 * SECOND_US - 20_000);
        swarm.run_for(10 * SECOND_US);
        let egress = swarm.drain_gateway_egress();
        assert!(!egress.is_empty(), "tap produced no egress");
        // Dense gateway sequence, one frame per 10 plays.
        for (i, f) in egress.iter().enumerate() {
            assert_eq!(f.seq, i as u64);
        }
        let receipts = swarm.drain_gateway_receipts();
        assert_eq!(receipts.len(), 1);
        assert_eq!(receipts[0].from_swarm, 3);
        assert_eq!(receipts[0].arrived_us, 2 * SECOND_US);
        let (eg, ing) = swarm.gateway_counts();
        assert_eq!(eg, egress.len() as u64);
        assert_eq!(ing, 1);
        // The hop histogram saw the one-way latency.
        let snap = swarm.telemetry().snapshot();
        let hop = snap.histogram_total(tn::GATEWAY_HOP_US);
        assert_eq!(hop.count, 1);
        // Second drain is empty (draining semantics).
        assert!(swarm.drain_gateway_egress().is_empty());
        let reports = swarm.finish();
        let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert_eq!(consumed, 100, "gateway tap must not perturb delivery");
    }

    #[test]
    fn same_seed_same_history_across_crash_and_heal() {
        let run = |seed: u64| {
            let mut swarm = SimSwarm::start(
                graph(),
                vec![
                    ("A".into(), registry(300)),
                    ("B".into(), registry(0)),
                    ("C".into(), registry(0)),
                ],
                config(seed, 0.05),
            )
            .unwrap();
            swarm.crash_worker_at("C", 4 * SECOND_US);
            swarm.add_worker_at("D", registry(0), 8 * SECOND_US);
            swarm.run_for(25 * SECOND_US);
            let totals = swarm.delivery_totals();
            let epoch = swarm.epoch();
            let dropped = swarm.fabric().dropped();
            let reports = swarm.finish();
            let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
            (totals, epoch, dropped, consumed)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "crash + join must replay byte-identically");
    }

    /// A Galaxy-Nexus-class device (the default energy profile's).
    fn device() -> WorkerSpec {
        WorkerSpec::new(swing_device::testbed().swap_remove(1))
    }

    #[test]
    fn batteries_drain_monotonically_under_load() {
        let mut cfg = config(5, 0.0);
        cfg.energy = Some(SimEnergyConfig::default());
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(u64::MAX)), ("B".into(), registry(0))],
            cfg,
        )
        .unwrap();
        let mut prev = swarm.battery_frac("B").unwrap();
        assert_eq!(prev, 1.0);
        for _ in 0..5 {
            swarm.run_for(5 * SECOND_US);
            let frac = swarm.battery_frac("B").unwrap();
            assert!(frac <= prev, "battery must never recharge mid-run");
            prev = frac;
        }
        assert!(prev < 1.0, "sustained load must drain the pack");
        assert!(swarm.battery_deaths().is_empty());
        // The device-layer gauges are live.
        let snap = swarm.telemetry().snapshot();
        let b = snap
            .gauge(tn::BATTERY_FRAC, &[(tn::LABEL_WORKER, "B")])
            .expect("per-worker battery gauge");
        assert!(b < 1.0 && b > 0.0);
        assert!(
            snap.gauge(tn::DRAIN_W, &[(tn::LABEL_WORKER, "B")])
                .expect("per-worker drain gauge")
                > 0.0
        );
    }

    #[test]
    fn battery_cliff_flows_through_the_eviction_wave() {
        let mut cfg = config(6, 0.0);
        // B gets a pack a few hundred dispatch/ACK cycles deep; C is
        // healthy and inherits the full load after B's cliff.
        cfg.energy = Some(SimEnergyConfig::default());
        let mut swarm = SimSwarm::start_described(
            graph(),
            vec![
                ("A".into(), registry(u64::MAX), None),
                ("B".into(), registry(0), Some(device().with_battery_j(0.5))),
                ("C".into(), registry(0), None),
            ],
            cfg,
        )
        .unwrap();
        swarm.run_for(60 * SECOND_US);
        let deaths = swarm.battery_deaths().to_vec();
        assert_eq!(deaths.len(), 1, "exactly one pack was sized to die");
        assert_eq!(deaths[0].1, "B");
        assert!(
            swarm.low_power_events().iter().any(|(_, w)| w == "B"),
            "the cliff must be preceded by a low-power report"
        );
        assert_eq!(swarm.alive_workers(), vec!["A", "C"]);
        assert_eq!(swarm.epoch(), 2, "the death bumps the deployment epoch");
        let snap = swarm.telemetry().snapshot();
        assert_eq!(snap.counter_total(tn::DEATHS), 1);
        assert_eq!(snap.counter_total(tn::LOW_POWER), 1);
        // The pipeline survives on the healthy worker.
        let reports = swarm.finish();
        let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
        assert!(
            consumed > 1_000,
            "only {consumed} frames played across the cliff"
        );
    }

    #[test]
    fn vitals_reach_upstream_routers() {
        let mut cfg = config(8, 0.0);
        cfg.energy = Some(SimEnergyConfig::default());
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(u64::MAX)), ("B".into(), registry(0))],
            cfg,
        )
        .unwrap();
        swarm.run_for(10 * SECOND_US);
        let _ = swarm.delivery_stats(); // force a dispatcher publish
        let snap = swarm.telemetry().snapshot();
        // The source's dispatcher mirrors its downstream's battery into
        // the per-route gauge (labels worker/unit/downstream) — proof
        // the selection policy sees live energy, not the healthy
        // default.
        let seen: Vec<f64> = snap
            .gauges_named(tn::BATTERY_FRAC)
            .filter(|(k, _)| k.label("downstream").is_some())
            .map(|(_, v)| v)
            .collect();
        assert!(!seen.is_empty(), "no per-route battery gauges published");
        assert!(
            seen.iter().all(|&v| v < 1.0 && v > 0.0),
            "routed vitals must show real drain: {seen:?}"
        );

        // Described devices also report the signal their trace gives
        // them (it used to be published as NaN, i.e. never). B sits in
        // the weak zone behind its radio link, C and D in the good one;
        // all three the same model on wall power, so RSS — battery
        // first, speed second — ranks on speed alone.
        let device = || Some(device().with_battery_j(f64::INFINITY));
        let mut cfg = config(8, 0.0);
        cfg.node.router = swing_core::routing::RouterConfig::new(Policy::Rss);
        cfg.radio_window_bytes = Some(26_000);
        cfg.energy = Some(SimEnergyConfig::default());
        let weak = device().map(|d| d.in_zone(SignalZone::Weak));
        let mut swarm = SimSwarm::start_described(
            graph(),
            vec![
                ("A".into(), registry(u64::MAX), None),
                ("B".into(), registry(0), weak),
                ("C".into(), registry(0), device()),
                ("D".into(), registry(0), device()),
            ],
            cfg,
        )
        .unwrap();
        swarm.run_for(10 * SECOND_US);
        let now = swarm.now_us();
        let source = &mut swarm.execs[0].machine.disp;
        let routes = source.router_mut().snapshot(now).routes;
        let rssi: Vec<f64> = routes.iter().map(|r| r.rssi_dbm).collect();
        assert_eq!(
            rssi,
            [SignalZone::Weak, SignalZone::Good, SignalZone::Good].map(SignalZone::rssi_dbm),
            "each downstream's RSSI must reach the source's router"
        );
        // The weak link's latency ranks B last, and a good-signal worker
        // covers the demand without it.
        assert!(!routes[0].selected, "{routes:?}");
        assert!(routes[1].selected || routes[2].selected, "{routes:?}");
    }

    #[test]
    fn shedding_mailboxes_release_their_radio_windows() {
        // B serves 10 frames a second out of a two-deep mailbox fed at
        // 30: nearly every arrival sheds. A shed tuple's bytes must leave
        // the sender's window like a served one's, or the window fills
        // for good and the source holds position forever.
        for policy in [OverloadPolicy::ShedOldest, OverloadPolicy::ShedNewest] {
            let mut cfg = config(9, 0.0);
            cfg.service_us = 100_000;
            cfg.radio_window_bytes = Some(8 * Tuple::new().with("v", 1i64).size_bytes());
            cfg.node.flow = swing_core::flow::FlowConfig {
                enabled: true,
                mailbox_capacity: 2,
                policy,
                credits_per_downstream: 64,
            };
            let mut swarm = SimSwarm::start_described(
                graph(),
                vec![
                    ("A".into(), registry(u64::MAX), None),
                    ("B".into(), registry(0), Some(device())),
                ],
                cfg,
            )
            .unwrap();
            let played = |swarm: &SimSwarm| {
                let snap = swarm.telemetry().snapshot();
                snap.counter_total(tn::SINK_PLAYED)
            };
            swarm.run_for(10 * SECOND_US);
            let halfway = played(&swarm);
            swarm.run_for(10 * SECOND_US);
            assert!(
                played(&swarm) - halfway > 80,
                "{policy:?}: B stopped being fed ({halfway} then {})",
                played(&swarm)
            );
            let snap = swarm.telemetry().snapshot();
            assert!(snap.counter_total(tn::EXEC_SHED_IN_QUEUE) > 100);
            let cap = swarm.config.radio_window_bytes.unwrap();
            assert!(swarm.windows.iter().all(|w| w.used <= cap));
        }
    }

    #[test]
    fn same_seed_same_energy_history() {
        let run = |seed: u64| {
            let mut cfg = config(seed, 0.05);
            cfg.energy = Some(SimEnergyConfig::default());
            let mut swarm = SimSwarm::start_described(
                graph(),
                vec![
                    ("A".into(), registry(400), None),
                    ("B".into(), registry(0), Some(device().with_battery_j(0.4))),
                    ("C".into(), registry(0), None),
                ],
                cfg,
            )
            .unwrap();
            swarm.run_for(30 * SECOND_US);
            let deaths = swarm.battery_deaths().to_vec();
            let low_power = swarm.low_power_events().to_vec();
            let frac_c = swarm.battery_frac("C").unwrap();
            let totals = swarm.delivery_totals();
            let reports = swarm.finish();
            let consumed: u64 = reports.iter().map(|(_, r)| r.consumed).sum();
            (deaths, low_power, frac_c.to_bits(), totals, consumed)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "energy trajectories must replay byte-identically");
    }

    #[test]
    fn energy_off_runs_exactly_as_before() {
        let mut swarm = SimSwarm::start(
            graph(),
            vec![("A".into(), registry(50)), ("B".into(), registry(0))],
            config(7, 0.0),
        )
        .unwrap();
        swarm.run_for(5 * SECOND_US);
        assert_eq!(swarm.battery_frac("B"), None);
        assert!(swarm.battery_deaths().is_empty());
        assert!(swarm.low_power_events().is_empty());
    }
}
