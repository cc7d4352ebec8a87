//! The application dataflow graph.
//!
//! A Swing app is "a directed graph (whose) vertices correspond to
//! computational parts of the app, which we refer to as *function units*"
//! (paper §IV-A). This module models the *logical* graph: named stages
//! (source / operator / sink) and the edges between them. At deployment
//! time each stage may be replicated onto several devices; the resulting
//! *instances* are tracked by a [`Deployment`].

use crate::error::{Error, Result};
use crate::tuple::TupleSchema;
use crate::{DeviceId, UnitId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Identifier of a logical stage (vertex) of an [`AppGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StageId(pub u32);

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The role a stage plays in the dataflow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// A unit without upstreams that senses data and generates tuples.
    Source,
    /// An intermediate compute unit.
    Operator,
    /// A unit without downstreams that consumes final results.
    Sink,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Role::Source => "source",
            Role::Operator => "operator",
            Role::Sink => "sink",
        })
    }
}

/// Static description of one stage of the application.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Human-readable stage name, unique within the graph.
    pub name: String,
    /// Source / operator / sink.
    pub role: Role,
    /// Optional schema of the tuples this stage emits.
    pub output_schema: Option<TupleSchema>,
    /// Parallelism hint: cap on how many replicas a deployment should
    /// place for this stage. `None` means "as many as the placement
    /// policy likes" (today's behavior).
    pub parallelism: Option<u32>,
}

/// How tuples crossing an edge are distributed over the downstream
/// stage's instances.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum EdgeKind {
    /// Every downstream replica is a candidate; LRS (or the configured
    /// policy) picks one per tuple. Today's behavior and the default.
    #[default]
    Broadcast,
    /// Hash-partitioned on the named tuple field: every tuple carrying
    /// the same key value goes to the one instance that owns the key
    /// under rendezvous hashing (see
    /// [`routing::partition`](crate::routing::partition)).
    KeyBy(String),
    /// Deterministic round-robin over live instances, ignoring latency.
    Rebalance,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::Broadcast => f.write_str("broadcast"),
            EdgeKind::KeyBy(field) => write!(f, "key_by({field})"),
            EdgeKind::Rebalance => f.write_str("rebalance"),
        }
    }
}

/// One directed edge of the dataflow graph, with its distribution kind.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeSpec {
    /// Upstream stage.
    pub from: StageId,
    /// Downstream stage.
    pub to: StageId,
    /// How tuples are spread over the downstream's instances.
    pub kind: EdgeKind,
}

/// A directed acyclic dataflow graph describing a Swing application.
///
/// ```
/// use swing_core::graph::AppGraph;
///
/// // The paper's face-recognition app: capture -> detect -> recognize -> display.
/// let mut g = AppGraph::new("face-recognition");
/// let cam = g.add_source("camera");
/// let det = g.add_operator("detect");
/// let rec = g.add_operator("recognize");
/// let dsp = g.add_sink("display");
/// g.connect(cam, det).unwrap();
/// g.connect(det, rec).unwrap();
/// g.connect(rec, dsp).unwrap();
/// g.validate().unwrap();
/// assert_eq!(g.topo_order().unwrap(), vec![cam, det, rec, dsp]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppGraph {
    name: String,
    stages: Vec<StageSpec>,
    /// Edges in insertion order.
    edges: Vec<EdgeSpec>,
    /// Downstream adjacency per stage, maintained incrementally by
    /// `connect_with` so graph walks (`reaches`, `topo_order`,
    /// `downstreams`) are O(V+E) instead of rescanning the flat edge
    /// list per node. Per-stage order mirrors edge insertion order.
    out_adj: Vec<Vec<StageId>>,
    /// Upstream adjacency per stage (see `out_adj`).
    in_adj: Vec<Vec<StageId>>,
    /// Performance requirement: input rate (tuples/s) the app must sustain,
    /// settable by the programmer (paper §IV-A). `None` means best effort.
    target_rate: Option<f64>,
}

impl AppGraph {
    /// Create an empty graph with the given application name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        AppGraph {
            name: name.into(),
            stages: Vec::new(),
            edges: Vec::new(),
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            target_rate: None,
        }
    }

    /// Application name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declare the input rate (tuples per second) the app must sustain.
    pub fn set_target_rate(&mut self, tuples_per_sec: f64) {
        self.target_rate = Some(tuples_per_sec);
    }

    /// The declared input-rate requirement, if any.
    #[must_use]
    pub fn target_rate(&self) -> Option<f64> {
        self.target_rate
    }

    /// Add a source stage and return its id.
    pub fn add_source(&mut self, name: impl Into<String>) -> StageId {
        self.add_stage(name, Role::Source)
    }

    /// Add an operator stage and return its id.
    pub fn add_operator(&mut self, name: impl Into<String>) -> StageId {
        self.add_stage(name, Role::Operator)
    }

    /// Add a sink stage and return its id.
    pub fn add_sink(&mut self, name: impl Into<String>) -> StageId {
        self.add_stage(name, Role::Sink)
    }

    fn add_stage(&mut self, name: impl Into<String>, role: Role) -> StageId {
        let id = StageId(self.stages.len() as u32);
        self.stages.push(StageSpec {
            name: name.into(),
            role,
            output_schema: None,
            parallelism: None,
        });
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Declare the schema of tuples emitted by `stage`.
    pub fn set_output_schema(&mut self, stage: StageId, schema: TupleSchema) -> Result<()> {
        let spec = self
            .stages
            .get_mut(stage.0 as usize)
            .ok_or(Error::UnknownStage(stage))?;
        spec.output_schema = Some(schema);
        Ok(())
    }

    /// Declare how many replicas a deployment should place for `stage`
    /// at most. `replicas` must be at least 1.
    pub fn set_parallelism(&mut self, stage: StageId, replicas: u32) -> Result<()> {
        if replicas == 0 {
            return Err(Error::InvalidConfig(
                "stage parallelism must be at least 1".into(),
            ));
        }
        let spec = self
            .stages
            .get_mut(stage.0 as usize)
            .ok_or(Error::UnknownStage(stage))?;
        spec.parallelism = Some(replicas);
        Ok(())
    }

    /// Connect `from` to `to` (the paper's `src.connectTo(f1)`) with
    /// the default [`Broadcast`](EdgeKind::Broadcast) distribution.
    ///
    /// Rejects unknown stages, duplicate edges, edges into a source or out
    /// of a sink, self-loops and anything that would create a cycle.
    pub fn connect(&mut self, from: StageId, to: StageId) -> Result<()> {
        self.connect_with(from, to, EdgeKind::Broadcast)
    }

    /// Connect `from` to `to` hash-partitioned on tuple field `field`:
    /// every tuple with the same key value is routed to the one
    /// downstream instance owning that key.
    pub fn connect_keyed(
        &mut self,
        from: StageId,
        to: StageId,
        field: impl Into<String>,
    ) -> Result<()> {
        self.connect_with(from, to, EdgeKind::KeyBy(field.into()))
    }

    /// Connect `from` to `to` with deterministic round-robin
    /// distribution over the downstream's live instances.
    pub fn connect_rebalance(&mut self, from: StageId, to: StageId) -> Result<()> {
        self.connect_with(from, to, EdgeKind::Rebalance)
    }

    /// Connect `from` to `to` with an explicit [`EdgeKind`].
    ///
    /// Beyond [`connect`](Self::connect)'s checks, a non-`Broadcast`
    /// out-edge must be its stage's *only* out-edge (and vice versa):
    /// one upstream dispatcher tracks in-flight tuples by sequence
    /// number, so it runs exactly one distribution mode. `KeyBy` also
    /// requires a non-empty field name.
    pub fn connect_with(&mut self, from: StageId, to: StageId, kind: EdgeKind) -> Result<()> {
        let from_spec = self
            .stages
            .get(from.0 as usize)
            .ok_or(Error::UnknownStage(from))?;
        let to_spec = self
            .stages
            .get(to.0 as usize)
            .ok_or(Error::UnknownStage(to))?;
        if from_spec.role == Role::Sink {
            return Err(Error::InvalidEndpoint(
                UnitId(from.0),
                "a sink cannot have downstream units",
            ));
        }
        if to_spec.role == Role::Source {
            return Err(Error::InvalidEndpoint(
                UnitId(to.0),
                "a source cannot have upstream units",
            ));
        }
        if from == to {
            return Err(Error::CycleDetected(UnitId(from.0), UnitId(to.0)));
        }
        if let EdgeKind::KeyBy(field) = &kind {
            if field.is_empty() {
                return Err(Error::InvalidConfig(
                    "key_by edge requires a non-empty field name".into(),
                ));
            }
        }
        if self.edges.iter().any(|e| e.from == from && e.to == to) {
            return Err(Error::DuplicateEdge(UnitId(from.0), UnitId(to.0)));
        }
        let has_out = !self.out_adj[from.0 as usize].is_empty();
        let has_partitioned_out = self
            .edges
            .iter()
            .any(|e| e.from == from && e.kind != EdgeKind::Broadcast);
        if (kind != EdgeKind::Broadcast && has_out) || has_partitioned_out {
            return Err(Error::InvalidGraph(format!(
                "stage `{}` would mix a partitioned out-edge with other \
                 out-edges; key_by/rebalance edges must be sole",
                from_spec.name
            )));
        }
        if self.reaches(to, from) {
            return Err(Error::CycleDetected(UnitId(from.0), UnitId(to.0)));
        }
        self.edges.push(EdgeSpec { from, to, kind });
        self.out_adj[from.0 as usize].push(to);
        self.in_adj[to.0 as usize].push(from);
        Ok(())
    }

    /// Whether `from` can reach `to` following edges.
    fn reaches(&self, from: StageId, to: StageId) -> bool {
        let mut queue = VecDeque::from([from]);
        let mut seen = vec![false; self.stages.len()];
        while let Some(s) = queue.pop_front() {
            if s == to {
                return true;
            }
            if std::mem::replace(&mut seen[s.0 as usize], true) {
                continue;
            }
            queue.extend(&self.out_adj[s.0 as usize]);
        }
        false
    }

    /// Specification of a stage.
    pub fn stage(&self, id: StageId) -> Result<&StageSpec> {
        self.stages
            .get(id.0 as usize)
            .ok_or(Error::UnknownStage(id))
    }

    /// Look up a stage id by name.
    #[must_use]
    pub fn stage_by_name(&self, name: &str) -> Option<StageId> {
        self.stages
            .iter()
            .position(|s| s.name == name)
            .map(|i| StageId(i as u32))
    }

    /// All stage ids in insertion order.
    pub fn stages(&self) -> impl Iterator<Item = StageId> + '_ {
        (0..self.stages.len() as u32).map(StageId)
    }

    /// Number of stages.
    #[must_use]
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// All edges in insertion order.
    #[must_use]
    pub fn edges(&self) -> &[EdgeSpec] {
        &self.edges
    }

    /// The distribution kind of the `from -> to` edge, if it exists.
    #[must_use]
    pub fn edge_kind(&self, from: StageId, to: StageId) -> Option<&EdgeKind> {
        self.edges
            .iter()
            .find(|e| e.from == from && e.to == to)
            .map(|e| &e.kind)
    }

    /// Stages that `stage` sends tuples to.
    pub fn downstreams(&self, stage: StageId) -> impl Iterator<Item = StageId> + '_ {
        self.out_adj
            .get(stage.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .copied()
    }

    /// Stages that send tuples to `stage`.
    pub fn upstreams(&self, stage: StageId) -> impl Iterator<Item = StageId> + '_ {
        self.in_adj
            .get(stage.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or_default()
            .iter()
            .copied()
    }

    /// All source stages.
    pub fn sources(&self) -> impl Iterator<Item = StageId> + '_ {
        self.stages()
            .filter(|s| self.stages[s.0 as usize].role == Role::Source)
    }

    /// All sink stages.
    pub fn sinks(&self) -> impl Iterator<Item = StageId> + '_ {
        self.stages()
            .filter(|s| self.stages[s.0 as usize].role == Role::Sink)
    }

    /// A topological order of the stages.
    ///
    /// Fails if the graph contains a cycle (cannot happen through
    /// [`connect`](Self::connect), which rejects cycles eagerly).
    pub fn topo_order(&self) -> Result<Vec<StageId>> {
        let n = self.stages.len();
        let mut indeg: Vec<usize> = self.in_adj.iter().map(Vec::len).collect();
        let mut queue: VecDeque<StageId> = (0..n as u32)
            .map(StageId)
            .filter(|s| indeg[s.0 as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(s) = queue.pop_front() {
            order.push(s);
            for &b in &self.out_adj[s.0 as usize] {
                indeg[b.0 as usize] -= 1;
                if indeg[b.0 as usize] == 0 {
                    queue.push_back(b);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(Error::InvalidGraph("graph contains a cycle".into()))
        }
    }

    /// Render the graph in Graphviz DOT format: sources as houses,
    /// operators as boxes, sinks as inverted houses. Handy for
    /// documenting deployments (`dot -Tsvg`).
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{}\" {{\n", self.name.replace('"', "'")));
        out.push_str("  rankdir=LR;\n");
        for s in self.stages() {
            let spec = &self.stages[s.0 as usize];
            let shape = match spec.role {
                Role::Source => "house",
                Role::Operator => "box",
                Role::Sink => "invhouse",
            };
            out.push_str(&format!(
                "  {} [label=\"{}\", shape={}];\n",
                s,
                spec.name.replace('"', "'"),
                shape
            ));
        }
        for e in &self.edges {
            match &e.kind {
                // Unlabeled, exactly as before this field existed.
                EdgeKind::Broadcast => out.push_str(&format!("  {} -> {};\n", e.from, e.to)),
                kind => out.push_str(&format!(
                    "  {} -> {} [label=\"{}\"];\n",
                    e.from,
                    e.to,
                    kind.to_string().replace('"', "'")
                )),
            }
        }
        out.push_str("}\n");
        out
    }

    /// Validate the whole graph: at least one source and one sink, every
    /// non-source has an upstream, every non-sink has a downstream, and
    /// every stage lies on a source→sink path.
    pub fn validate(&self) -> Result<()> {
        if self.stages.is_empty() {
            return Err(Error::InvalidGraph("graph has no stages".into()));
        }
        if self.sources().next().is_none() {
            return Err(Error::InvalidGraph("graph has no source".into()));
        }
        if self.sinks().next().is_none() {
            return Err(Error::InvalidGraph("graph has no sink".into()));
        }
        for s in self.stages() {
            let spec = &self.stages[s.0 as usize];
            let has_up = self.upstreams(s).next().is_some();
            let has_down = self.downstreams(s).next().is_some();
            match spec.role {
                Role::Source if !has_down => {
                    return Err(Error::InvalidGraph(format!(
                        "source `{}` is not connected to any downstream",
                        spec.name
                    )))
                }
                Role::Sink if !has_up => {
                    return Err(Error::InvalidGraph(format!(
                        "sink `{}` has no upstream",
                        spec.name
                    )))
                }
                Role::Operator if !(has_up && has_down) => {
                    return Err(Error::InvalidGraph(format!(
                        "operator `{}` must have both upstream and downstream",
                        spec.name
                    )))
                }
                _ => {}
            }
        }
        self.topo_order()?;
        Ok(())
    }
}

/// Assignment of stage replicas to devices, produced at deployment time
/// (paper §IV-B step 3: "the master deploys the app dataflow graph by
/// assigning function units and connecting devices").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Deployment {
    next_unit: u32,
    /// instance id -> (stage, device)
    instances: BTreeMap<UnitId, (StageId, DeviceId)>,
}

impl Deployment {
    /// Create an empty deployment.
    #[must_use]
    pub fn new() -> Self {
        Deployment::default()
    }

    /// Place one replica of `stage` on `device`, returning its instance id.
    pub fn place(&mut self, stage: StageId, device: DeviceId) -> UnitId {
        let id = UnitId(self.next_unit);
        self.next_unit += 1;
        self.instances.insert(id, (stage, device));
        id
    }

    /// Remove an instance (device left the swarm). Returns whether it existed.
    pub fn remove(&mut self, unit: UnitId) -> bool {
        self.instances.remove(&unit).is_some()
    }

    /// Re-insert an instance under its original id (master recovery from
    /// a checkpoint). Keeps the id counter above every restored id so
    /// future placements never collide with adopted units.
    pub fn restore(&mut self, unit: UnitId, stage: StageId, device: DeviceId) {
        self.next_unit = self.next_unit.max(unit.0 + 1);
        self.instances.insert(unit, (stage, device));
    }

    /// The id the next placement gets.
    #[must_use]
    pub fn next_unit(&self) -> UnitId {
        UnitId(self.next_unit)
    }

    /// Never hand out an id below `next` (master recovery: the ids of
    /// units that died before the checkpoint stay retired too).
    pub fn retire_below(&mut self, next: UnitId) {
        self.next_unit = self.next_unit.max(next.0);
    }

    /// The stage a unit instantiates.
    pub fn stage_of(&self, unit: UnitId) -> Result<StageId> {
        self.instances
            .get(&unit)
            .map(|(s, _)| *s)
            .ok_or(Error::UnknownUnit(unit))
    }

    /// The device a unit runs on.
    pub fn device_of(&self, unit: UnitId) -> Result<DeviceId> {
        self.instances
            .get(&unit)
            .map(|(_, d)| *d)
            .ok_or(Error::UnknownUnit(unit))
    }

    /// All instances of a stage, in id order.
    pub fn instances_of(&self, stage: StageId) -> impl Iterator<Item = UnitId> + '_ {
        self.instances
            .iter()
            .filter(move |(_, (s, _))| *s == stage)
            .map(|(u, _)| *u)
    }

    /// All instances placed on a device, in id order.
    pub fn instances_on(&self, device: DeviceId) -> impl Iterator<Item = UnitId> + '_ {
        self.instances
            .iter()
            .filter(move |(_, (_, d))| *d == device)
            .map(|(u, _)| *u)
    }

    /// All (unit, stage, device) rows in unit-id order.
    pub fn iter(&self) -> impl Iterator<Item = (UnitId, StageId, DeviceId)> + '_ {
        self.instances.iter().map(|(u, (s, d))| (*u, *s, *d))
    }

    /// Number of placed instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether nothing has been placed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The downstream instances a given instance should route to, derived
    /// from the logical graph: every instance of every downstream stage.
    ///
    /// This is the *candidate set* — on a `Broadcast` edge the router
    /// picks among all of them per tuple; on a partitioned edge use
    /// [`downstream_instances_for`](Self::downstream_instances_for)
    /// to resolve a concrete tuple's destination.
    pub fn downstream_instances(&self, graph: &AppGraph, unit: UnitId) -> Result<Vec<UnitId>> {
        let stage = self.stage_of(unit)?;
        let mut out = Vec::new();
        for ds in graph.downstreams(stage) {
            out.extend(self.instances_of(ds));
        }
        Ok(out)
    }

    /// The downstream instances `tuple` may be delivered to from `unit`,
    /// respecting each out-edge's [`EdgeKind`]:
    ///
    /// * `Broadcast` / `Rebalance` — every instance of the downstream
    ///   stage (the per-tuple pick happens in the router);
    /// * `KeyBy(field)` — only the one instance owning the tuple's key
    ///   under rendezvous hashing over the stage's live instances.
    pub fn downstream_instances_for(
        &self,
        graph: &AppGraph,
        unit: UnitId,
        tuple: &crate::tuple::Tuple,
    ) -> Result<Vec<UnitId>> {
        use crate::routing::partition::{rendezvous_owner, tuple_key_hash};
        let stage = self.stage_of(unit)?;
        let mut out = Vec::new();
        for edge in graph.edges().iter().filter(|e| e.from == stage) {
            match &edge.kind {
                EdgeKind::Broadcast | EdgeKind::Rebalance => {
                    out.extend(self.instances_of(edge.to));
                }
                EdgeKind::KeyBy(field) => {
                    let h = tuple_key_hash(tuple, field);
                    out.extend(rendezvous_owner(h, self.instances_of(edge.to)));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn face_graph() -> (AppGraph, StageId, StageId, StageId, StageId) {
        let mut g = AppGraph::new("face");
        let cam = g.add_source("camera");
        let det = g.add_operator("detect");
        let rec = g.add_operator("recognize");
        let dsp = g.add_sink("display");
        g.connect(cam, det).unwrap();
        g.connect(det, rec).unwrap();
        g.connect(rec, dsp).unwrap();
        (g, cam, det, rec, dsp)
    }

    #[test]
    fn builds_and_validates_linear_pipeline() {
        let (g, ..) = face_graph();
        g.validate().unwrap();
        assert_eq!(g.stage_count(), 4);
        assert_eq!(g.edges().len(), 3);
    }

    #[test]
    fn rejects_duplicate_edge() {
        let (mut g, cam, det, ..) = face_graph();
        assert!(matches!(
            g.connect(cam, det),
            Err(Error::DuplicateEdge(_, _))
        ));
    }

    #[test]
    fn rejects_cycles_and_self_loops() {
        let (mut g, _, det, rec, _) = face_graph();
        assert!(matches!(g.connect(rec, det), Err(Error::CycleDetected(..))));
        assert!(matches!(g.connect(det, det), Err(Error::CycleDetected(..))));
    }

    #[test]
    fn rejects_edges_into_source_or_out_of_sink() {
        let (mut g, cam, det, _, dsp) = face_graph();
        assert!(matches!(
            g.connect(det, cam),
            Err(Error::InvalidEndpoint(..))
        ));
        assert!(matches!(
            g.connect(dsp, det),
            Err(Error::InvalidEndpoint(..))
        ));
    }

    #[test]
    fn rejects_unknown_stage() {
        let (mut g, cam, ..) = face_graph();
        assert_eq!(
            g.connect(cam, StageId(99)),
            Err(Error::UnknownStage(StageId(99)))
        );
        assert_eq!(
            g.connect(StageId(42), cam),
            Err(Error::UnknownStage(StageId(42)))
        );
        assert_eq!(
            g.stage(StageId(99)).unwrap_err(),
            Error::UnknownStage(StageId(99))
        );
        assert_eq!(
            g.set_parallelism(StageId(99), 2),
            Err(Error::UnknownStage(StageId(99)))
        );
    }

    #[test]
    fn keyed_and_rebalance_edges_record_their_kind() {
        let mut g = AppGraph::new("keyed");
        let src = g.add_source("gps");
        let agg = g.add_operator("agg");
        let dsp = g.add_sink("dsp");
        g.connect_keyed(src, agg, "cell").unwrap();
        g.connect_rebalance(agg, dsp).unwrap();
        g.validate().unwrap();
        assert_eq!(g.edge_kind(src, agg), Some(&EdgeKind::KeyBy("cell".into())));
        assert_eq!(g.edge_kind(agg, dsp), Some(&EdgeKind::Rebalance));
        assert_eq!(g.edge_kind(src, dsp), None);
        // Kinds render as DOT labels; broadcast stays bare.
        let dot = g.to_dot();
        assert!(dot.contains(&format!("{src} -> {agg} [label=\"key_by(cell)\"];")));
        assert!(dot.contains(&format!("{agg} -> {dsp} [label=\"rebalance\"];")));
    }

    #[test]
    fn partitioned_out_edge_must_be_sole() {
        // Keyed after an existing broadcast out-edge.
        let mut g = AppGraph::new("mix1");
        let s = g.add_source("s");
        let a = g.add_operator("a");
        let b = g.add_operator("b");
        g.connect(s, a).unwrap();
        assert!(matches!(
            g.connect_keyed(s, b, "k"),
            Err(Error::InvalidGraph(_))
        ));
        // Broadcast after an existing keyed out-edge.
        let mut g = AppGraph::new("mix2");
        let s = g.add_source("s");
        let a = g.add_operator("a");
        let b = g.add_operator("b");
        g.connect_keyed(s, a, "k").unwrap();
        assert!(matches!(g.connect(s, b), Err(Error::InvalidGraph(_))));
        // Two broadcast out-edges stay legal (today's fan-out).
        let mut g = AppGraph::new("fan");
        let s = g.add_source("s");
        let a = g.add_operator("a");
        let b = g.add_operator("b");
        g.connect(s, a).unwrap();
        g.connect(s, b).unwrap();
    }

    #[test]
    fn keyed_edge_requires_field_name() {
        let mut g = AppGraph::new("nofield");
        let s = g.add_source("s");
        let a = g.add_operator("a");
        assert!(matches!(
            g.connect_keyed(s, a, ""),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn parallelism_hint_round_trips() {
        let (mut g, _, det, ..) = face_graph();
        assert_eq!(g.stage(det).unwrap().parallelism, None);
        g.set_parallelism(det, 3).unwrap();
        assert_eq!(g.stage(det).unwrap().parallelism, Some(3));
        assert!(matches!(
            g.set_parallelism(det, 0),
            Err(Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn validation_catches_disconnected_units() {
        let mut g = AppGraph::new("bad");
        let s = g.add_source("src");
        let k = g.add_sink("snk");
        g.connect(s, k).unwrap();
        g.add_operator("orphan");
        let err = g.validate().unwrap_err();
        assert!(err.to_string().contains("orphan"));
    }

    #[test]
    fn validation_requires_source_and_sink() {
        let mut g = AppGraph::new("no-sink");
        g.add_source("src");
        assert!(g.validate().is_err());

        let mut g = AppGraph::new("no-source");
        g.add_sink("snk");
        assert!(g.validate().is_err());

        assert!(AppGraph::new("empty").validate().is_err());
    }

    #[test]
    fn upstream_downstream_queries() {
        let (g, cam, det, rec, dsp) = face_graph();
        assert_eq!(g.downstreams(cam).collect::<Vec<_>>(), vec![det]);
        assert_eq!(g.upstreams(rec).collect::<Vec<_>>(), vec![det]);
        assert_eq!(g.sources().collect::<Vec<_>>(), vec![cam]);
        assert_eq!(g.sinks().collect::<Vec<_>>(), vec![dsp]);
    }

    #[test]
    fn fan_out_graph_topo_order_is_valid() {
        let mut g = AppGraph::new("fan");
        let s = g.add_source("src");
        let a = g.add_operator("a");
        let b = g.add_operator("b");
        let k = g.add_sink("snk");
        g.connect(s, a).unwrap();
        g.connect(s, b).unwrap();
        g.connect(a, k).unwrap();
        g.connect(b, k).unwrap();
        g.validate().unwrap();
        let order = g.topo_order().unwrap();
        let pos = |x: StageId| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(s) < pos(a) && pos(s) < pos(b));
        assert!(pos(a) < pos(k) && pos(b) < pos(k));
    }

    #[test]
    fn stage_lookup_by_name() {
        let (g, _, det, ..) = face_graph();
        assert_eq!(g.stage_by_name("detect"), Some(det));
        assert_eq!(g.stage_by_name("absent"), None);
        assert_eq!(g.stage(det).unwrap().role, Role::Operator);
    }

    #[test]
    fn target_rate_requirement() {
        let (mut g, ..) = face_graph();
        assert_eq!(g.target_rate(), None);
        g.set_target_rate(24.0);
        assert_eq!(g.target_rate(), Some(24.0));
    }

    #[test]
    fn deployment_places_and_queries() {
        let (g, cam, det, _, _) = face_graph();
        let mut d = Deployment::new();
        let u_src = d.place(cam, DeviceId(0));
        let u1 = d.place(det, DeviceId(1));
        let u2 = d.place(det, DeviceId(2));
        assert_eq!(d.len(), 3);
        assert_eq!(d.stage_of(u1).unwrap(), det);
        assert_eq!(d.device_of(u2).unwrap(), DeviceId(2));
        assert_eq!(d.instances_of(det).collect::<Vec<_>>(), vec![u1, u2]);
        assert_eq!(d.instances_on(DeviceId(0)).collect::<Vec<_>>(), vec![u_src]);
        let downstream = d.downstream_instances(&g, u_src).unwrap();
        assert_eq!(downstream, vec![u1, u2]);
    }

    #[test]
    fn keyed_deployment_query_resolves_one_owner() {
        use crate::tuple::Tuple;
        let mut g = AppGraph::new("keyed-deploy");
        let src = g.add_source("gps");
        let agg = g.add_operator("agg");
        let dsp = g.add_sink("dsp");
        g.connect_keyed(src, agg, "cell").unwrap();
        g.connect(agg, dsp).unwrap();
        let mut d = Deployment::new();
        let u_src = d.place(src, DeviceId(0));
        let owners: Vec<UnitId> = (1..=4).map(|i| d.place(agg, DeviceId(i))).collect();
        let u_agg = owners[0];
        let u_dsp = d.place(dsp, DeviceId(9));

        // A keyed edge resolves to exactly one owning instance, stably.
        let t = Tuple::new().with("cell", 7i64);
        let hit = d.downstream_instances_for(&g, u_src, &t).unwrap();
        assert_eq!(hit.len(), 1);
        assert!(owners.contains(&hit[0]));
        assert_eq!(hit, d.downstream_instances_for(&g, u_src, &t).unwrap());
        // Different keys spread over different owners.
        let distinct: std::collections::BTreeSet<UnitId> = (0..64i64)
            .map(|c| {
                d.downstream_instances_for(&g, u_src, &Tuple::new().with("cell", c))
                    .unwrap()[0]
            })
            .collect();
        assert!(distinct.len() > 1, "all 64 keys landed on one instance");
        // Broadcast edges still return every downstream instance.
        assert_eq!(
            d.downstream_instances_for(&g, u_agg, &t).unwrap(),
            vec![u_dsp]
        );
    }

    #[test]
    fn deployment_remove() {
        let (_, cam, ..) = face_graph();
        let mut d = Deployment::new();
        let u = d.place(cam, DeviceId(0));
        assert!(d.remove(u));
        assert!(!d.remove(u));
        assert!(d.stage_of(u).is_err());
        assert!(d.is_empty());
    }

    #[test]
    fn dot_export_contains_stages_and_edges() {
        let (g, cam, det, ..) = face_graph();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph \"face\""));
        assert!(dot.contains("label=\"camera\", shape=house"));
        assert!(dot.contains("label=\"detect\", shape=box"));
        assert!(dot.contains("label=\"display\", shape=invhouse"));
        assert!(dot.contains(&format!("{cam} -> {det};")));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn dot_export_escapes_quotes() {
        let mut g = AppGraph::new("has\"quote");
        g.add_source("s\"rc");
        let dot = g.to_dot();
        assert!(!dot.contains("\"\""), "unescaped quote in {dot}");
    }

    #[test]
    fn schema_can_be_attached_to_stage() {
        use crate::tuple::{TupleSchema, ValueKind};
        let (mut g, cam, ..) = face_graph();
        g.set_output_schema(cam, TupleSchema::new().field("frame", ValueKind::Bytes))
            .unwrap();
        assert!(g.stage(cam).unwrap().output_schema.is_some());
        assert!(g
            .set_output_schema(StageId(99), TupleSchema::new())
            .is_err());
    }
}
