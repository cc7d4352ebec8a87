//! The control plane: the master's decisions (§IV-B "the master deploys
//! the app dataflow graph by assigning function units and connecting
//! devices", §IV-C "re-routes data to other units") written once, with
//! no socket, thread, clock or event queue in them.
//!
//! A [`ControlPlane`] owns the roster in join order, the
//! [`Deployment`], the deployment epoch and the started flag. Its inputs
//! are membership events (`join`, `leave`, `restore` / `announce` /
//! `recovery_expired`); its only output is the ordered list of
//! [`Command`]s that carries the swarm to the topology the
//! [`Placement`] policy wants, under the epoch the event bumped.
//!
//! Two drivers carry the commands out. The master thread
//! ([`crate::master`]) turns each into the wire message of the same
//! name, stamped with [`epoch`](ControlPlane::epoch);
//! [`SimSwarm`](crate::sim::SimSwarm) applies them to its units
//! directly, with zero control latency. How a death is *detected* stays
//! with the driver (heartbeats and leases live, the eviction delay and
//! master outages under virtual time); both end in the same `leave`.

use crate::checkpoint::MasterCheckpoint;
use crate::master::Placement;
use std::collections::BTreeSet;
use swing_core::graph::{AppGraph, Deployment, EdgeKind, StageId};
use swing_core::{DeviceId, UnitId};

/// One step of a deployment wave, in the order it must be carried out.
#[derive(Debug, PartialEq)]
pub(crate) enum Command {
    /// Instantiate `stage` as `unit` on `device`.
    Activate {
        device: DeviceId,
        unit: UnitId,
        stage: StageId,
    },
    /// Link an instance pair along a graph edge: `up`'s host learns how
    /// to reach `down` (data), `down`'s host how to reach `up` (ACKs).
    Connect {
        up: UnitId,
        down: UnitId,
        kind: EdgeKind,
    },
    /// Cut the pair: one end was evicted, the end still placed drops
    /// its route so in-flight tuples re-route to the survivors.
    Disconnect { up: UnitId, down: UnitId },
    /// Units activated on `device` since its last `Start` begin to run.
    Start { device: DeviceId },
}

/// One roster entry.
struct Member {
    device: DeviceId,
    name: String,
    /// The stages it has a unit installed for. A live worker "already
    /// holds all code" and offers every stage; a simulated one offers
    /// what its registry contains.
    offers: Vec<StageId>,
    /// A checkpointed worker that has not re-announced yet: no
    /// placement candidate, but its units stay deployed until it
    /// announces or leaves.
    silent: bool,
}

/// The master's state machine (see the module docs).
pub(crate) struct ControlPlane {
    graph: AppGraph,
    placement: Placement,
    /// Members to wait for before the first deployment.
    expected: usize,
    /// Join order: keeps a parallelism cap stable across waves, and lets
    /// later members slide under it as earlier ones leave.
    roster: Vec<Member>,
    deployment: Deployment,
    next_device: u32,
    /// Bumped before every topology-changing wave; the drivers fence
    /// out control traffic of older epochs with it.
    epoch: u64,
    started: bool,
    /// When members restored from a checkpoint stop being waited for.
    recovery_deadline_us: Option<u64>,
}

impl ControlPlane {
    /// A cold control plane for a validated `graph`.
    pub(crate) fn new(graph: AppGraph, placement: Placement, expected: usize) -> Self {
        ControlPlane {
            graph,
            placement,
            expected,
            roster: Vec::new(),
            deployment: Deployment::new(),
            next_device: 0,
            epoch: 0,
            started: false,
            recovery_deadline_us: None,
        }
    }

    pub(crate) fn graph(&self) -> &AppGraph {
        &self.graph
    }

    pub(crate) fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the first deployment has happened.
    pub(crate) fn started(&self) -> bool {
        self.started
    }

    /// A device asks to join. Once `expected` members are present the
    /// app deploys and starts; a later joiner is spliced into the
    /// running topology at once (Fig. 9).
    pub(crate) fn join(&mut self, name: String, offers: Vec<StageId>) -> (DeviceId, Vec<Command>) {
        let device = DeviceId(self.next_device);
        self.next_device += 1;
        self.roster.push(Member {
            device,
            name,
            offers,
            silent: false,
        });
        let mut out = Vec::new();
        if self.started || self.roster.iter().filter(|m| !m.silent).count() >= self.expected {
            self.started = true;
            self.epoch += 1;
            self.reconcile(&mut out);
        }
        (device, out)
    }

    /// `device` is dead: cut every instance pair with one end on it,
    /// drop its units, and re-place them on the members left — a stage
    /// whose sole host died comes back instead of staying dark, and a
    /// member the departure moved under a parallelism cap takes its
    /// place. `None` for a device not on the roster, else its name and
    /// the wave.
    pub(crate) fn leave(&mut self, device: DeviceId) -> Option<(String, Vec<Command>)> {
        let at = self.roster.iter().position(|m| m.device == device)?;
        let name = self.roster.remove(at).name;
        self.epoch += 1;
        let dead: Vec<UnitId> = self.deployment.instances_on(device).collect();
        let mut out: Vec<Command> = (self.pairs(|u, d| dead.contains(&u) != dead.contains(&d)))
            .map(|(up, down, _)| Command::Disconnect { up, down })
            .collect();
        for u in dead {
            self.deployment.remove(u);
        }
        if self.started {
            self.reconcile(&mut out);
        }
        Some((name, out))
    }

    /// Resume from a previous incarnation's checkpoint (of this graph):
    /// roster and placement come back under a bumped epoch, every member
    /// silent until it announces or `deadline_us` passes.
    pub(crate) fn restore(&mut self, ck: &MasterCheckpoint, deadline_us: u64) {
        self.epoch = ck.epoch + 1;
        self.next_device = ck.next_device;
        self.started = ck.started;
        for &(unit, stage, device) in &ck.units {
            self.deployment.restore(unit, stage, device);
        }
        self.deployment.retire_below(UnitId(ck.next_unit));
        let offers: Vec<StageId> = self.graph.stages().collect();
        self.roster = (ck.workers.iter())
            .map(|(device, _, name)| Member {
                device: *device,
                name: name.clone(),
                offers: offers.clone(),
                silent: true,
            })
            .collect();
        self.recovery_deadline_us = (!self.roster.is_empty()).then_some(deadline_us);
    }

    /// A worker reports itself and the units it runs. A silent member
    /// is back: units it still hosts are adopted untouched, units placed
    /// on it that died with it are re-activated under the current epoch.
    /// A device the roster does not know (a fenced-out zombie) joins
    /// afresh, under the new id returned. `None` for a member that was
    /// not silent (a duplicate announce).
    pub(crate) fn announce(
        &mut self,
        device: DeviceId,
        name: String,
        offers: Vec<StageId>,
        units: &[(UnitId, StageId)],
    ) -> Option<(DeviceId, Vec<Command>)> {
        let Some(m) = self.roster.iter_mut().find(|m| m.device == device) else {
            return Some(self.join(name, offers));
        };
        if !std::mem::replace(&mut m.silent, false) {
            return None;
        }
        (m.name, m.offers) = (name, offers);
        let (mut out, mut revived) = (Vec::new(), Vec::new());
        for unit in self.deployment.instances_on(device) {
            let stage = self.deployment.stage_of(unit).expect("placed");
            if !units.contains(&(unit, stage)) {
                out.push(Command::Activate {
                    device,
                    unit,
                    stage,
                });
                revived.push(unit);
            }
        }
        self.wire(&revived, &mut out);
        Some((device, out))
    }

    /// Once the restore deadline has passed: the members that never
    /// announced, for the driver to declare dead. Empty otherwise.
    pub(crate) fn recovery_expired(&mut self, now_us: u64) -> Vec<DeviceId> {
        if self.recovery_deadline_us.is_none_or(|t| now_us < t) {
            return Vec::new();
        }
        self.recovery_deadline_us = None;
        (self.roster.iter().filter(|m| m.silent))
            .map(|m| m.device)
            .collect()
    }

    /// The durable image of this state; `addr_of` supplies what only
    /// the driver knows, each member's dialable address.
    pub(crate) fn checkpoint(&self, addr_of: impl Fn(DeviceId) -> String) -> MasterCheckpoint {
        MasterCheckpoint {
            graph_name: self.graph.name().to_owned(),
            n_stages: self.graph.stage_count(),
            n_edges: self.graph.edges().len(),
            epoch: self.epoch,
            next_device: self.next_device,
            next_unit: self.deployment.next_unit().0,
            started: self.started,
            workers: (self.roster.iter())
                .map(|m| (m.device, addr_of(m.device), m.name.clone()))
                .collect(),
            units: self.deployment.iter().collect(),
        }
    }

    /// Drive the deployment toward what the placement policy wants over
    /// the members present: place and activate every (stage, device) it
    /// wants that the device offers and has no instance of yet, then
    /// wire the new units in. Add-only — an instance on a device the
    /// policy no longer favours keeps running. One routine serves the
    /// first deployment, a late join and re-placement after a death;
    /// callers bump the epoch.
    fn reconcile(&mut self, out: &mut Vec<Command>) {
        let present: Vec<&Member> = self.roster.iter().filter(|m| !m.silent).collect();
        let mut fresh: Vec<UnitId> = Vec::new();
        for stage in self.graph.topo_order().expect("graph validated") {
            let spec = self.graph.stage(stage).expect("stage exists");
            let hosts = (self.placement).hosts(spec.role, spec.parallelism, present.len());
            for m in &present[hosts] {
                let placed = &self.deployment;
                let hosted = |u| placed.stage_of(u) == Ok(stage);
                if !m.offers.contains(&stage) || placed.instances_on(m.device).any(hosted) {
                    continue;
                }
                let unit = self.deployment.place(stage, m.device);
                out.push(Command::Activate {
                    device: m.device,
                    unit,
                    stage,
                });
                fresh.push(unit);
            }
        }
        self.wire(&fresh, out);
    }

    /// Connect every instance pair that involves one of `fresh`, then
    /// start the devices hosting them.
    fn wire(&self, fresh: &[UnitId], out: &mut Vec<Command>) {
        let touched = |u, d| fresh.contains(&u) || fresh.contains(&d);
        out.extend(
            self.pairs(touched)
                .map(|(up, down, kind)| Command::Connect {
                    up,
                    down,
                    kind: kind.clone(),
                }),
        );
        let host = |u: &UnitId| self.deployment.device_of(*u).expect("placed");
        let hosts: BTreeSet<DeviceId> = fresh.iter().map(host).collect();
        out.extend(hosts.into_iter().map(|device| Command::Start { device }));
    }

    /// The instance pairs along every graph edge, in edge order then
    /// unit-id order, that `keep(up, down)` selects.
    fn pairs<'a>(
        &'a self,
        keep: impl Fn(UnitId, UnitId) -> bool + 'a,
    ) -> impl Iterator<Item = (UnitId, UnitId, &'a EdgeKind)> + 'a {
        let placed = &self.deployment;
        (self.graph.edges().iter())
            .flat_map(move |e| {
                (placed.instances_of(e.from))
                    .flat_map(move |u| placed.instances_of(e.to).map(move |d| (u, d, &e.kind)))
            })
            .filter(move |&(u, d, _)| keep(u, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use swing_core::rng::DetRng;
    use Placement::{ReplicateEverywhere, SourceOnFirst};

    /// `src(s0) → work(s1) → out(s2)`, `work` capped at `cap` replicas.
    fn graph(cap: Option<u32>) -> AppGraph {
        let mut g = AppGraph::new("control-test");
        let (s, o, k) = (
            g.add_source("src"),
            g.add_operator("work"),
            g.add_sink("out"),
        );
        g.connect(s, o).unwrap();
        g.connect(o, k).unwrap();
        if let Some(cap) = cap {
            g.set_parallelism(o, cap).unwrap();
        }
        g
    }

    fn all() -> Vec<StageId> {
        vec![StageId(0), StageId(1), StageId(2)]
    }

    /// A wave in shorthand: `act u1 s1 d1`, `con u0>u1`, `dis u0>u1`,
    /// `start d0`.
    fn show(wave: &[Command]) -> Vec<String> {
        let one = |c: &Command| match c {
            Command::Activate {
                device,
                unit,
                stage,
            } => format!("act u{} s{} d{}", unit.0, stage.0, device.0),
            Command::Connect { up, down, .. } => format!("con u{}>u{}", up.0, down.0),
            Command::Disconnect { up, down } => format!("dis u{}>u{}", up.0, down.0),
            Command::Start { device } => format!("start d{}", device.0),
        };
        wave.iter().map(one).collect()
    }

    /// A plane that `n` members offering everything have joined; the
    /// last join's wave.
    fn deployed(placement: Placement, cap: Option<u32>, n: usize) -> (ControlPlane, Vec<String>) {
        let mut plane = ControlPlane::new(graph(cap), placement, n);
        let mut wave = Vec::new();
        for i in 0..n {
            assert!(wave.is_empty(), "nothing deploys before the last join");
            assert_eq!((plane.epoch(), plane.started()), (0, false));
            let (device, w) = plane.join(format!("w{i}"), all());
            assert_eq!(device, DeviceId(i as u32));
            wave = w;
        }
        assert_eq!((plane.epoch(), plane.started()), (1, true));
        (plane, show(&wave))
    }

    fn leave(plane: &mut ControlPlane, device: u32) -> Vec<String> {
        show(&plane.leave(DeviceId(device)).expect("a member").1)
    }

    #[test]
    fn first_deployment_source_on_first() {
        let (plane, wave) = deployed(SourceOnFirst, None, 3);
        let expected = [
            "act u0 s0 d0",
            "act u1 s1 d1",
            "act u2 s1 d2",
            "act u3 s2 d0",
            "con u0>u1",
            "con u0>u2",
            "con u1>u3",
            "con u2>u3",
            "start d0",
            "start d1",
            "start d2",
        ];
        assert_eq!(wave, expected);
        assert_eq!(plane.deployment().len(), 4);
    }

    #[test]
    fn first_deployment_replicate_everywhere() {
        let (_, wave) = deployed(ReplicateEverywhere, None, 2);
        let expected = [
            "act u0 s0 d0",
            "act u1 s0 d1",
            "act u2 s1 d0",
            "act u3 s1 d1",
            "act u4 s2 d0",
            "act u5 s2 d1",
            "con u0>u2",
            "con u0>u3",
            "con u1>u2",
            "con u1>u3",
            "con u2>u4",
            "con u2>u5",
            "con u3>u4",
            "con u3>u5",
            "start d0",
            "start d1",
        ];
        assert_eq!(wave, expected);
    }

    #[test]
    fn a_lone_member_hosts_everything_under_both_policies() {
        for placement in [SourceOnFirst, ReplicateEverywhere] {
            let (_, wave) = deployed(placement, None, 1);
            let expected = [
                "act u0 s0 d0",
                "act u1 s1 d0",
                "act u2 s2 d0",
                "con u0>u1",
                "con u1>u2",
                "start d0",
            ];
            assert_eq!(wave, expected, "{placement:?}");
        }
    }

    #[test]
    fn connect_carries_the_edge_kind() {
        let mut g = AppGraph::new("keyed");
        let (s, k) = (g.add_source("src"), g.add_sink("out"));
        g.connect_keyed(s, k, "cell").unwrap();
        let mut plane = ControlPlane::new(g, SourceOnFirst, 1);
        let (_, wave) = plane.join("A".into(), vec![s, k]);
        let kinds: Vec<&EdgeKind> = (wave.iter())
            .filter_map(|c| match c {
                Command::Connect { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, [&EdgeKind::KeyBy("cell".into())]);
    }

    #[test]
    fn late_join_is_spliced_in_under_a_new_epoch() {
        let (mut plane, _) = deployed(SourceOnFirst, None, 3);
        let (device, wave) = plane.join("late".into(), all());
        assert_eq!((device, plane.epoch()), (DeviceId(3), 2));
        let expected = ["act u4 s1 d3", "con u0>u4", "con u4>u3", "start d3"];
        assert_eq!(show(&wave), expected);
    }

    #[test]
    fn sole_host_death_replaces_its_stage_under_a_new_epoch() {
        let (mut plane, _) = deployed(SourceOnFirst, None, 2);
        let wave = leave(&mut plane, 1);
        let expected = [
            "dis u0>u1",
            "dis u1>u2",
            "act u3 s1 d0",
            "con u0>u3",
            "con u3>u2",
            "start d0",
        ];
        assert_eq!(wave, expected);
        assert_eq!(plane.epoch(), 2);
        assert!(plane.leave(DeviceId(1)).is_none(), "already gone");
        assert_eq!(plane.epoch(), 2);
    }

    #[test]
    fn one_of_several_hosts_dies_and_nothing_moves() {
        let (mut plane, _) = deployed(SourceOnFirst, None, 3);
        assert_eq!(leave(&mut plane, 2), ["dis u0>u2", "dis u2>u3"]);
        assert_eq!(plane.epoch(), 2);
    }

    #[test]
    fn a_later_member_slides_under_the_parallelism_cap() {
        let (mut plane, wave) = deployed(SourceOnFirst, Some(1), 3);
        let first = [
            "act u0 s0 d0",
            "act u1 s1 d1",
            "act u2 s2 d0",
            "con u0>u1",
            "con u1>u2",
            "start d0",
            "start d1",
        ];
        assert_eq!(wave, first, "d2 is over the cap: nothing to start there");
        // A member without units comes and goes: two epochs, no wave.
        let (_, wave) = plane.join("spare".into(), all());
        assert_eq!((show(&wave), plane.epoch()), (vec![], 2));
        assert_eq!((leave(&mut plane, 3), plane.epoch()), (vec![], 3));
        let slid = [
            "dis u0>u1",
            "dis u1>u2",
            "act u3 s1 d2",
            "con u0>u3",
            "con u3>u2",
            "start d2",
        ];
        assert_eq!(leave(&mut plane, 1), slid);
        assert_eq!(plane.epoch(), 4);
    }

    #[test]
    fn a_member_hosts_only_what_it_offers() {
        // The paper-figure shape: the master's device has camera and
        // display, a worker its operator, a bystander nothing.
        let mut plane = ControlPlane::new(graph(None), ReplicateEverywhere, 3);
        plane.join("A".into(), vec![StageId(0), StageId(2)]);
        plane.join("B".into(), vec![StageId(1)]);
        let (_, wave) = plane.join("C".into(), vec![]);
        let expected = [
            "act u0 s0 d0",
            "act u1 s1 d1",
            "act u2 s2 d0",
            "con u0>u1",
            "con u1>u2",
            "start d0",
            "start d1",
        ];
        assert_eq!(show(&wave), expected, "a skipped host consumes no unit id");
        // Nobody left offers "work": the stage stays dark until one joins.
        assert_eq!(leave(&mut plane, 1), ["dis u0>u1", "dis u1>u2"]);
        let (_, wave) = plane.join("D".into(), vec![StageId(1)]);
        let expected = ["act u3 s1 d3", "con u0>u3", "con u3>u2", "start d3"];
        assert_eq!(show(&wave), expected);
    }

    #[test]
    fn a_bystander_leaving_lets_the_next_member_under_the_cap() {
        // One "work" replica, wanted on the second member — which has
        // no such unit. When it leaves, the third moves up and hosts it.
        let mut plane = ControlPlane::new(graph(Some(1)), SourceOnFirst, 3);
        plane.join("A".into(), all());
        plane.join("X".into(), vec![]);
        let (_, wave) = plane.join("C".into(), all());
        assert_eq!(
            show(&wave)[..3],
            ["act u0 s0 d0", "act u1 s2 d0", "start d0"]
        );
        let moved_up = ["act u2 s1 d2", "con u0>u2", "con u2>u1", "start d2"];
        assert_eq!(leave(&mut plane, 1), moved_up);
    }

    /// A second incarnation restored from the checkpoint of `deployed(3)`.
    fn restored(deadline_us: u64) -> ControlPlane {
        let (old, _) = deployed(SourceOnFirst, None, 3);
        let ck = old.checkpoint(|d| format!("addr{}", d.0));
        assert_eq!(ck.workers[1], (DeviceId(1), "addr1".into(), "w1".into()));
        let mut plane = ControlPlane::new(graph(None), SourceOnFirst, 3);
        plane.restore(
            &MasterCheckpoint::decode(&ck.encode()).unwrap(),
            deadline_us,
        );
        assert_eq!((plane.epoch(), plane.started()), (2, true));
        assert_eq!(plane.deployment(), old.deployment());
        plane
    }

    fn announce(
        plane: &mut ControlPlane,
        device: u32,
        units: &[(u32, u32)],
    ) -> Option<(u32, Vec<String>)> {
        let units: Vec<_> = (units.iter())
            .map(|&(u, s)| (UnitId(u), StageId(s)))
            .collect();
        let (known_as, wave) = plane.announce(DeviceId(device), "w".into(), all(), &units)?;
        Some((known_as.0, show(&wave)))
    }

    #[test]
    fn announce_adopts_running_units_and_redeploys_lost_ones() {
        let mut plane = restored(1_000);
        // A and B still run everything the checkpoint placed on them.
        assert_eq!(
            announce(&mut plane, 0, &[(0, 0), (3, 2)]),
            Some((0, vec![]))
        );
        assert_eq!(announce(&mut plane, 1, &[(1, 1)]), Some((1, vec![])));
        // C lost its unit: same id, re-activated and re-wired.
        let revived = ["act u2 s1 d2", "con u0>u2", "con u2>u3", "start d2"];
        assert_eq!(
            announce(&mut plane, 2, &[]),
            Some((2, revived.map(String::from).to_vec()))
        );
        assert_eq!(announce(&mut plane, 2, &[]), None, "duplicate announce");
        assert_eq!(plane.epoch(), 2, "adoption is not a new wave");
        // A device the checkpoint does not know joins afresh.
        let joined = ["act u4 s1 d3", "con u0>u4", "con u4>u3", "start d3"];
        assert_eq!(
            announce(&mut plane, 9, &[(7, 1)]),
            Some((3, joined.map(String::from).to_vec()))
        );
        assert_eq!(plane.epoch(), 3);
        assert!(
            plane.recovery_expired(1_000).is_empty(),
            "everyone answered"
        );
    }

    #[test]
    fn announce_order_does_not_reorder_the_roster() {
        // C, B, A answer in that order; A is still the first member, so
        // a later join adds one operator and no second source.
        let mut plane = restored(1_000);
        for (device, units) in [
            (2, vec![(2, 1)]),
            (1, vec![(1, 1)]),
            (0, vec![(0, 0), (3, 2)]),
        ] {
            assert_eq!(announce(&mut plane, device, &units), Some((device, vec![])));
        }
        let (_, wave) = plane.join("late".into(), all());
        let expected = ["act u4 s1 d3", "con u0>u4", "con u4>u3", "start d3"];
        assert_eq!(show(&wave), expected);
    }

    #[test]
    fn members_silent_past_the_grace_are_handed_back_to_leave() {
        let mut plane = restored(1_000);
        assert_eq!(
            announce(&mut plane, 0, &[(0, 0), (3, 2)]),
            Some((0, vec![]))
        );
        assert!(plane.recovery_expired(999).is_empty());
        assert_eq!(plane.recovery_expired(1_000), [DeviceId(1), DeviceId(2)]);
        assert!(plane.recovery_expired(2_000).is_empty(), "fires once");
        // With C still silent A is the only member present, and takes
        // the operator over.
        let first = [
            "dis u0>u1",
            "dis u1>u3",
            "act u4 s1 d0",
            "con u0>u4",
            "con u4>u3",
            "start d0",
        ];
        assert_eq!(leave(&mut plane, 1), first);
        assert_eq!(leave(&mut plane, 2), ["dis u0>u2", "dis u2>u3"]);
        assert_eq!(plane.epoch(), 4);
        let ck = plane.checkpoint(|_| String::new());
        assert_eq!(
            (ck.workers.len(), ck.units.len(), ck.next_device),
            (1, 3, 3)
        );
    }

    /// What the scripts below know about a member, beside the plane.
    struct Known {
        device: DeviceId,
        offers: Vec<StageId>,
        silent: bool,
    }

    /// 256 seeded membership scripts — joins with partial offers,
    /// leaves of members and strangers, master restarts, announces that
    /// adopt, redeploy or come from strangers, grace expiry — with the
    /// plane's invariants checked after every step.
    #[test]
    fn seeded_membership_scripts_keep_the_invariants() {
        for seed in 0..256u64 {
            let mut rng = DetRng::seed_from_u64(0xC0_4712 ^ seed);
            let placement = [SourceOnFirst, ReplicateEverywhere][rng.random_range(0..2usize)];
            let cap = [None, Some(1), Some(2)][rng.random_range(0..3usize)];
            let expected = rng.random_range(1..4usize);
            let mut plane = ControlPlane::new(graph(cap), placement, expected);
            let mut roster: Vec<Known> = Vec::new();
            // Every unit ever activated, with where it went.
            let mut ever: BTreeMap<UnitId, (StageId, DeviceId)> = BTreeMap::new();
            let mut now = 0u64;
            for step in 0..48 {
                let case = format!("seed {seed} step {step}");
                let before = (plane.epoch(), plane.deployment().clone());
                let offers = |rng: &mut DetRng| -> Vec<StageId> {
                    let full = rng.random_bool(0.6);
                    (all().into_iter())
                        .filter(|_| full || rng.random_bool(0.5))
                        .collect()
                };
                let pick = |rng: &mut DetRng, roster: &[Known]| match roster.len() {
                    0 => DeviceId(99),
                    n if rng.random_bool(0.9) => roster[rng.random_range(0..n)].device,
                    _ => DeviceId(rng.random_range(90..99u32)),
                };
                let mut wave = Vec::new();
                // Whether the step ended in a reconcile (a join or a leave).
                let mut settled = false;
                match rng.random_range(0..10u32) {
                    0..=3 => {
                        let offers = offers(&mut rng);
                        let (device, w) = plane.join(format!("m{step}"), offers.clone());
                        assert!(roster.iter().all(|m| m.device < device), "{case}");
                        roster.push(Known {
                            device,
                            offers,
                            silent: false,
                        });
                        (wave, settled) = (w, true);
                    }
                    4..=6 => {
                        let device = pick(&mut rng, &roster);
                        let known = roster.iter().position(|m| m.device == device);
                        let left = plane.leave(device);
                        assert_eq!(left.is_some(), known.is_some(), "{case}");
                        if let (Some(at), Some((_, w))) = (known, left) {
                            roster.remove(at);
                            (wave, settled) = (w, true);
                        }
                    }
                    7 => {
                        // The master restarts from its checkpoint.
                        let ck = plane.checkpoint(|d| format!("addr{}", d.0));
                        plane = ControlPlane::new(graph(cap), placement, expected);
                        plane.restore(&ck, now + 3);
                        roster.iter_mut().for_each(|m| {
                            (m.silent, m.offers) = (true, all());
                        });
                        assert_eq!(plane.epoch(), before.0 + 1, "{case}");
                        assert_eq!(plane.deployment(), &before.1, "{case}");
                    }
                    8 => {
                        let device = pick(&mut rng, &roster);
                        let placed = plane.deployment();
                        let running: Vec<(UnitId, StageId)> = (placed.instances_on(device))
                            .filter(|_| rng.random_bool(0.7))
                            .map(|u| (u, placed.stage_of(u).unwrap()))
                            .collect();
                        let offers = offers(&mut rng);
                        let known = roster.iter_mut().find(|m| m.device == device);
                        let was_silent = known.as_ref().is_some_and(|m| m.silent);
                        let got = plane.announce(device, "back".into(), offers.clone(), &running);
                        match (known, got) {
                            (Some(m), Some((d, w))) => {
                                assert!(was_silent && d == device, "{case}");
                                (m.silent, m.offers) = (false, offers);
                                // Exactly the units it no longer runs come back.
                                for (unit, stage, _) in (before.1.iter()).filter(|r| r.2 == device)
                                {
                                    let revived = w.contains(&Command::Activate {
                                        device,
                                        unit,
                                        stage,
                                    });
                                    assert_eq!(
                                        revived,
                                        !running.contains(&(unit, stage)),
                                        "{case}"
                                    );
                                }
                                wave = w;
                            }
                            (Some(_), None) => assert!(!was_silent, "{case}"),
                            (None, Some((d, w))) => {
                                assert!(roster.iter().all(|m| m.device < d), "{case}");
                                roster.push(Known {
                                    device: d,
                                    offers,
                                    silent: false,
                                });
                                (wave, settled) = (w, true);
                            }
                            (None, None) => panic!("{case}: a stranger must join"),
                        }
                    }
                    _ => {
                        now += rng.random_range(0..3u64);
                        for device in plane.recovery_expired(now) {
                            let at = roster.iter().position(|m| m.device == device);
                            assert!(roster.remove(at.expect(&case)).silent, "{case}");
                            let before = plane.deployment().clone();
                            let (_, w) = plane.leave(device).expect(&case);
                            check(&plane, &roster, &mut ever, &before, &w, true, &case);
                        }
                    }
                }
                check(&plane, &roster, &mut ever, &before.1, &wave, settled, &case);
                let epoch = plane.epoch();
                assert!(epoch >= before.0, "{case}: epoch went back");
                let moved = |c: &Command| !matches!(c, Command::Start { .. });
                let revival = wave.iter().all(|c| match c {
                    Command::Activate { unit, .. } => before.1.stage_of(*unit).is_ok(),
                    _ => true,
                });
                if wave.iter().any(moved) && !revival {
                    assert!(epoch > before.0, "{case}: a wave under an old epoch");
                }
            }
        }
    }

    /// The invariants of one wave and of the state it leaves.
    fn check(
        plane: &ControlPlane,
        roster: &[Known],
        ever: &mut BTreeMap<UnitId, (StageId, DeviceId)>,
        before: &Deployment,
        wave: &[Command],
        settled: bool,
        case: &str,
    ) {
        let placed = plane.deployment();
        for cmd in wave {
            match cmd {
                // A unit id names one (stage, device) for ever: fresh ids
                // only grow, a revival repeats what the id meant.
                Command::Activate {
                    device,
                    unit,
                    stage,
                } => {
                    let fresh = ever.last_key_value().is_none_or(|(last, _)| last < unit);
                    let meant = *ever.entry(*unit).or_insert((*stage, *device));
                    assert!(
                        fresh || before.stage_of(*unit).is_ok(),
                        "{case}: {unit} reused"
                    );
                    assert_eq!(meant, (*stage, *device), "{case}: {unit} re-meant");
                    assert_eq!(placed.device_of(*unit), Ok(*device), "{case}");
                }
                Command::Connect { up, down, .. } => {
                    assert!(
                        placed.stage_of(*up).is_ok(),
                        "{case}: connect of unplaced {up}"
                    );
                    assert!(
                        placed.stage_of(*down).is_ok(),
                        "{case}: connect of unplaced {down}"
                    );
                }
                // Both ends were placed; this step evicted at least one.
                Command::Disconnect { up, down } => {
                    let ends = [up, down];
                    assert!(
                        ends.iter().all(|u| ever.contains_key(u)),
                        "{case}: {up}>{down}"
                    );
                    assert!(ends.iter().any(|u| placed.stage_of(**u).is_err()), "{case}");
                }
                Command::Start { device } => {
                    assert!(roster.iter().any(|m| m.device == *device), "{case}");
                }
            }
        }
        // No unit on a device that left.
        for (unit, _, device) in placed.iter() {
            assert!(
                roster.iter().any(|m| m.device == device),
                "{case}: {unit} on departed {device}"
            );
        }
        if !plane.started() {
            assert!(placed.is_empty(), "{case}: deployed before the start");
        }
        // Once started, a reconcile leaves an instance of each stage on
        // every host the policy names that offers it.
        if !plane.started() || !settled {
            return;
        }
        let present: Vec<&Known> = roster.iter().filter(|m| !m.silent).collect();
        let graph = plane.graph();
        for stage in graph.stages() {
            let spec = graph.stage(stage).unwrap();
            let hosts = plane
                .placement
                .hosts(spec.role, spec.parallelism, present.len());
            for m in (present[hosts].iter()).filter(|m| m.offers.contains(&stage)) {
                let there = |u| placed.device_of(u) == Ok(m.device);
                assert!(
                    placed.instances_of(stage).any(there),
                    "{case}: no {} on {}",
                    spec.name,
                    m.device
                );
            }
        }
    }
}
