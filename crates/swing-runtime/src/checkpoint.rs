//! Master checkpoint/recovery: durable control-plane state.
//!
//! The master serializes its control state — deployment epoch, device
//! roster, unit placement — on every membership change. A restarted
//! master loads the checkpoint, bumps the epoch, asks the checkpointed
//! workers to re-announce, and adopts the units they still host instead
//! of redeploying the world (DESIGN.md §4c).
//!
//! The format is a versioned line-based text record, hand-rolled like
//! every other serialization in this codebase (wire format, telemetry
//! exporters): no serde format crate, no schema drift hidden behind a
//! derive. Unknown versions and malformed records are rejected loudly —
//! a master that cannot trust its checkpoint must cold-start instead.

use crate::lock;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use swing_core::graph::StageId;
use swing_core::{DeviceId, UnitId};

/// Where the master persists its checkpoint.
///
/// Implementations must make `save` atomic with respect to `load`: a
/// reader never observes a torn record. Both the in-memory store (sim,
/// tests) and the file store (live) below guarantee this.
pub trait CheckpointStore: Send + Sync + std::fmt::Debug {
    /// Replace the stored checkpoint.
    fn save(&self, bytes: &[u8]);
    /// The latest stored checkpoint, if any.
    fn load(&self) -> Option<Vec<u8>>;
}

/// Shared handle to a checkpoint store.
pub type StoreHandle = Arc<dyn CheckpointStore>;

/// In-memory store: survives a master restart within one process (the
/// sim and the kill/recover tests), not a process crash.
#[derive(Debug, Clone, Default)]
pub struct MemoryCheckpoint {
    slot: Arc<Mutex<Option<Vec<u8>>>>,
}

impl MemoryCheckpoint {
    /// An empty in-memory store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared handle for handing to a `MasterConfig`.
    #[must_use]
    pub fn handle() -> StoreHandle {
        Arc::new(Self::new())
    }
}

impl CheckpointStore for MemoryCheckpoint {
    fn save(&self, bytes: &[u8]) {
        *lock(&self.slot) = Some(bytes.to_vec());
    }

    fn load(&self) -> Option<Vec<u8>> {
        lock(&self.slot).clone()
    }
}

/// File-backed store for live swarms: writes to a sibling temp file and
/// renames over the target, so a crash mid-write never leaves a torn
/// checkpoint behind.
#[derive(Debug, Clone)]
pub struct FileCheckpoint {
    path: PathBuf,
}

impl FileCheckpoint {
    /// Store the checkpoint at `path` (the parent directory must exist).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileCheckpoint { path: path.into() }
    }
}

impl CheckpointStore for FileCheckpoint {
    fn save(&self, bytes: &[u8]) {
        let tmp = self.path.with_extension("tmp");
        if std::fs::write(&tmp, bytes).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }

    fn load(&self) -> Option<Vec<u8>> {
        std::fs::read(&self.path).ok()
    }
}

/// The master's durable control state.
///
/// The graph itself is not stored — it is code, re-supplied at spawn.
/// Its shape (name, stage and edge counts) is recorded so a checkpoint
/// from a different application is rejected instead of silently adopted.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MasterCheckpoint {
    /// Application name (graph-shape guard, part 1 of 3).
    pub graph_name: String,
    /// Stage count of the application graph (shape guard).
    pub n_stages: usize,
    /// Edge count of the application graph (shape guard).
    pub n_edges: usize,
    /// Deployment epoch at save time; recovery resumes at `epoch + 1`.
    pub epoch: u64,
    /// Next device id to assign, so rejoiners never reuse a dead id.
    pub next_device: u32,
    /// Next unit id to assign, so re-placements never reuse a dead
    /// unit's (0 in a record written before this was kept: only the ids
    /// of the units still placed are retired then).
    pub next_unit: u32,
    /// Whether Start had been broadcast.
    pub started: bool,
    /// Roster: (device, dialable address, human name).
    pub workers: Vec<(DeviceId, String, String)>,
    /// Placement: (unit, stage, device).
    pub units: Vec<(UnitId, StageId, DeviceId)>,
}

const HEADER: &str = "swing-checkpoint v1";

impl MasterCheckpoint {
    /// Serialize to the line-based text format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        // The name goes last on its line so names with spaces survive.
        let _ = writeln!(
            out,
            "graph {} {} {}",
            self.n_stages, self.n_edges, self.graph_name
        );
        let _ = writeln!(out, "epoch {}", self.epoch);
        let _ = writeln!(out, "next-device {}", self.next_device);
        let _ = writeln!(out, "next-unit {}", self.next_unit);
        let _ = writeln!(out, "started {}", u8::from(self.started));
        for (d, addr, name) in &self.workers {
            let _ = writeln!(out, "worker {} {} {}", d.0, addr, name);
        }
        for (u, s, d) in &self.units {
            let _ = writeln!(out, "unit {} {} {}", u.0, s.0, d.0);
        }
        let _ = writeln!(out, "end");
        out.into_bytes()
    }

    /// Parse a checkpoint; any structural problem is an error.
    pub fn decode(bytes: &[u8]) -> Result<MasterCheckpoint, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "checkpoint is not UTF-8".to_owned())?;
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(format!("bad checkpoint header (want {HEADER:?})"));
        }
        let mut ck = MasterCheckpoint::default();
        let mut saw_end = false;
        for line in lines {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "graph" => {
                    let mut it = rest.splitn(3, ' ');
                    ck.n_stages = next_num(&mut it, "graph stages")?;
                    ck.n_edges = next_num(&mut it, "graph edges")?;
                    ck.graph_name = it.next().unwrap_or("").to_owned();
                }
                "epoch" => ck.epoch = parse_num(rest, "epoch")?,
                "next-device" => ck.next_device = parse_num(rest, "next-device")?,
                "next-unit" => ck.next_unit = parse_num(rest, "next-unit")?,
                "started" => ck.started = parse_num::<u8>(rest, "started")? != 0,
                "worker" => {
                    let mut it = rest.splitn(3, ' ');
                    let d: u32 = next_num(&mut it, "worker device")?;
                    let addr = it
                        .next()
                        .ok_or_else(|| "worker line missing addr".to_owned())?
                        .to_owned();
                    let name = it.next().unwrap_or("").to_owned();
                    ck.workers.push((DeviceId(d), addr, name));
                }
                "unit" => {
                    let mut it = rest.splitn(3, ' ');
                    let u: u32 = next_num(&mut it, "unit id")?;
                    let s: u32 = next_num(&mut it, "unit stage")?;
                    let d: u32 = next_num(&mut it, "unit device")?;
                    ck.units.push((UnitId(u), StageId(s), DeviceId(d)));
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                other => return Err(format!("unknown checkpoint key {other:?}")),
            }
        }
        if !saw_end {
            return Err("checkpoint truncated (no end marker)".to_owned());
        }
        Ok(ck)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("bad {what} field {s:?}"))
}

fn next_num<'a, T: std::str::FromStr>(
    it: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<T, String> {
    let s = it.next().ok_or_else(|| format!("missing {what} field"))?;
    parse_num(s, what)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MasterCheckpoint {
        MasterCheckpoint {
            graph_name: "face pipeline".into(),
            n_stages: 3,
            n_edges: 2,
            epoch: 7,
            next_device: 4,
            next_unit: 9,
            started: true,
            workers: vec![
                (DeviceId(0), "inproc-1".into(), "A".into()),
                (DeviceId(2), "inproc-9".into(), "worker two".into()),
            ],
            units: vec![
                (UnitId(0), StageId(0), DeviceId(0)),
                (UnitId(3), StageId(1), DeviceId(2)),
            ],
        }
    }

    #[test]
    fn roundtrips() {
        let ck = sample();
        let decoded = MasterCheckpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded, ck);
    }

    #[test]
    fn a_record_written_before_next_unit_was_kept_still_decodes() {
        let old = String::from_utf8(sample().encode()).unwrap();
        let old = old.replace("next-unit 9\n", "");
        let decoded = MasterCheckpoint::decode(old.as_bytes()).unwrap();
        assert_eq!((decoded.next_unit, decoded.next_device), (0, 4));
    }

    #[test]
    fn names_with_spaces_survive() {
        let decoded = MasterCheckpoint::decode(&sample().encode()).unwrap();
        assert_eq!(decoded.graph_name, "face pipeline");
        assert_eq!(decoded.workers[1].2, "worker two");
    }

    #[test]
    fn rejects_bad_header_and_truncation() {
        assert!(MasterCheckpoint::decode(b"not a checkpoint").is_err());
        let bytes = sample().encode();
        // Drop the trailing "end" line: must be rejected, not half-read.
        let cut = &bytes[..bytes.len() - 4];
        assert!(MasterCheckpoint::decode(cut).is_err());
    }

    #[test]
    fn memory_store_roundtrips() {
        let store = MemoryCheckpoint::new();
        assert!(store.load().is_none());
        store.save(b"abc");
        assert_eq!(store.load().unwrap(), b"abc");
        store.save(b"xyz");
        assert_eq!(store.load().unwrap(), b"xyz");
    }

    #[test]
    fn file_store_writes_atomically() {
        let dir = std::env::temp_dir().join(format!("swing-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = FileCheckpoint::new(dir.join("master.ckpt"));
        assert!(store.load().is_none());
        store.save(&sample().encode());
        let back = MasterCheckpoint::decode(&store.load().unwrap()).unwrap();
        assert_eq!(back, sample());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
