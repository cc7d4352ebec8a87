//! The unified error type shared by every Swing crate.
//!
//! One `#[non_exhaustive]` enum covers graph construction, tuple
//! access, routing and configuration (the historical swing-core
//! surface) *and* the network layer (wire codec, transport,
//! registry discovery).

use crate::graph::StageId;
use crate::UnitId;
use std::fmt;
use std::io;
use std::sync::Arc;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by graph construction, tuple access, routing,
/// configuration and the network layer.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Error {
    /// An edge refers to a unit id that is not part of the graph.
    UnknownUnit(UnitId),
    /// A graph operation refers to a stage id that is not part of the
    /// graph. Distinct from [`UnknownUnit`](Error::UnknownUnit): stages
    /// are logical graph vertices, units are deployed instances.
    UnknownStage(StageId),
    /// The same edge was added twice.
    DuplicateEdge(UnitId, UnitId),
    /// Connecting these units would create a cycle; Swing graphs are DAGs.
    CycleDetected(UnitId, UnitId),
    /// A source unit was given an upstream, or a sink a downstream.
    InvalidEndpoint(UnitId, &'static str),
    /// Graph validation failed (message explains which invariant broke).
    InvalidGraph(String),
    /// A tuple field with this key does not exist.
    MissingField(String),
    /// A tuple field exists but holds a different kind of value.
    FieldKindMismatch {
        /// Field key that was accessed.
        key: String,
        /// Kind the caller asked for.
        requested: &'static str,
        /// Kind actually stored.
        actual: &'static str,
    },
    /// A tuple does not match the schema declared for a unit.
    SchemaViolation(String),
    /// The router has no downstream units to send to.
    NoDownstreams,
    /// A configuration value is out of its valid range.
    InvalidConfig(String),
    /// Underlying socket / IO failure. Wrapped in an [`Arc`] so the
    /// unified error stays `Clone`; equality compares the
    /// [`io::ErrorKind`] only.
    Io(Arc<io::Error>),
    /// A frame or message could not be decoded.
    Malformed(String),
    /// The peer speaks an incompatible protocol version.
    VersionMismatch {
        /// Version we implement.
        ours: u8,
        /// Version the peer sent.
        theirs: u8,
    },
    /// A frame exceeded the maximum allowed size.
    FrameTooLarge(usize),
    /// A wait on the discovery path ran out: the registry did not
    /// answer a request, it held no service matching a lookup before
    /// the deadline, or a swarm's deployment never started.
    DiscoveryTimeout,
    /// The connection was closed by the peer.
    Closed,
    /// A non-blocking operation found no work ready (accept with no
    /// pending connection, read with no buffered bytes). Distinct from
    /// [`Io`](Error::Io) so poll loops can retry instead of treating the
    /// condition as a fatal transport failure.
    WouldBlock,
}

impl Error {
    /// Wrap an [`io::Error`] (equivalent to `From`, handy in closures).
    #[must_use]
    pub fn io(e: io::Error) -> Self {
        Error::Io(Arc::new(e))
    }
}

impl PartialEq for Error {
    fn eq(&self, other: &Self) -> bool {
        use Error::*;
        match (self, other) {
            (UnknownUnit(a), UnknownUnit(b)) => a == b,
            (UnknownStage(a), UnknownStage(b)) => a == b,
            (DuplicateEdge(a1, a2), DuplicateEdge(b1, b2)) => a1 == b1 && a2 == b2,
            (CycleDetected(a1, a2), CycleDetected(b1, b2)) => a1 == b1 && a2 == b2,
            (InvalidEndpoint(a, aw), InvalidEndpoint(b, bw)) => a == b && aw == bw,
            (InvalidGraph(a), InvalidGraph(b)) => a == b,
            (MissingField(a), MissingField(b)) => a == b,
            (
                FieldKindMismatch {
                    key: ak,
                    requested: ar,
                    actual: aa,
                },
                FieldKindMismatch {
                    key: bk,
                    requested: br,
                    actual: ba,
                },
            ) => ak == bk && ar == br && aa == ba,
            (SchemaViolation(a), SchemaViolation(b)) => a == b,
            (NoDownstreams, NoDownstreams) => true,
            (InvalidConfig(a), InvalidConfig(b)) => a == b,
            // io::Error carries no structural equality; kind is the
            // meaningful comparison for tests and retries.
            (Io(a), Io(b)) => a.kind() == b.kind(),
            (Malformed(a), Malformed(b)) => a == b,
            (
                VersionMismatch {
                    ours: ao,
                    theirs: at,
                },
                VersionMismatch {
                    ours: bo,
                    theirs: bt,
                },
            ) => ao == bo && at == bt,
            (FrameTooLarge(a), FrameTooLarge(b)) => a == b,
            (DiscoveryTimeout, DiscoveryTimeout) => true,
            (Closed, Closed) => true,
            (WouldBlock, WouldBlock) => true,
            _ => false,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownUnit(u) => write!(f, "unknown function unit {u}"),
            Error::UnknownStage(s) => write!(f, "unknown stage {s}"),
            Error::DuplicateEdge(a, b) => write!(f, "edge {a} -> {b} already exists"),
            Error::CycleDetected(a, b) => {
                write!(
                    f,
                    "edge {a} -> {b} would create a cycle in the dataflow graph"
                )
            }
            Error::InvalidEndpoint(u, why) => write!(f, "invalid endpoint {u}: {why}"),
            Error::InvalidGraph(msg) => write!(f, "invalid application graph: {msg}"),
            Error::MissingField(k) => write!(f, "tuple has no field `{k}`"),
            Error::FieldKindMismatch {
                key,
                requested,
                actual,
            } => write!(
                f,
                "tuple field `{key}` holds {actual}, but {requested} was requested"
            ),
            Error::SchemaViolation(msg) => write!(f, "tuple violates schema: {msg}"),
            Error::NoDownstreams => write!(f, "router has no downstream function units"),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Malformed(msg) => write!(f, "malformed message: {msg}"),
            Error::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours {ours}, peer {theirs}")
            }
            Error::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            Error::DiscoveryTimeout => write!(
                f,
                "discovery timed out: registry silent, no matching service, or swarm not started"
            ),
            Error::Closed => write!(f, "connection closed by peer"),
            Error::WouldBlock => write!(f, "operation would block; no work ready"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(&**e),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(Arc::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::UnknownUnit(UnitId(3));
        assert!(e.to_string().contains("u3"));

        let e = Error::FieldKindMismatch {
            key: "value1".into(),
            requested: "bytes",
            actual: "string",
        };
        let msg = e.to_string();
        assert!(msg.contains("value1") && msg.contains("bytes") && msg.contains("string"));

        let e = Error::VersionMismatch { ours: 1, theirs: 9 };
        assert!(e.to_string().contains('9'));
        assert!(Error::FrameTooLarge(123).to_string().contains("123"));
    }

    #[test]
    fn error_implements_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&Error::NoDownstreams);
    }

    #[test]
    fn errors_compare_equal() {
        assert_eq!(Error::NoDownstreams, Error::NoDownstreams);
        assert_ne!(Error::UnknownUnit(UnitId(1)), Error::UnknownUnit(UnitId(2)));
        assert_eq!(
            Error::UnknownStage(StageId(4)),
            Error::UnknownStage(StageId(4))
        );
        assert_ne!(
            Error::UnknownStage(StageId(4)),
            Error::UnknownStage(StageId(5))
        );
        // Stage and unit errors never conflate, even for equal raw ids.
        assert_ne!(
            Error::UnknownStage(StageId(4)),
            Error::UnknownUnit(UnitId(4))
        );
    }

    #[test]
    fn io_errors_convert_chain_and_compare_by_kind() {
        let e: Error = io::Error::new(io::ErrorKind::BrokenPipe, "pipe").into();
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&Error::Closed).is_none());
        // Clone shares the same Arc'd io::Error.
        let e2 = e.clone();
        assert_eq!(e, e2);
        // Same kind, different message: equal by design.
        assert_eq!(
            e,
            Error::io(io::Error::new(io::ErrorKind::BrokenPipe, "other"))
        );
        assert_ne!(
            e,
            Error::io(io::Error::new(io::ErrorKind::NotFound, "pipe"))
        );
    }
}
