//! # swing-reactor
//!
//! First-party non-blocking networked runtime for Swing: a
//! single-threaded readiness loop ([`Reactor`]) multiplexing hundreds
//! of framed TCP connections, and a registry service
//! ([`RegistryServer`]) — the Discovery Service — with TTL'd
//! registrations, heartbeat renewal, pattern lookup, and
//! tombstone-on-expiry watch events.
//!
//! Per the workspace dependency policy (DESIGN.md §7) this is built on
//! `std::net` — no tokio, no mio, no `libc` crate. Sockets are switched
//! to non-blocking mode and the reactor thread sleeps in `epoll_wait`
//! until one of them is ready or a producer wakes it; the three `epoll`
//! calls are declared first-party in `sys.rs`, the only foreign
//! declarations in the workspace and the one module its lints let step
//! outside safe Rust. Linux only; see [`reactor`] for the model.
//!
//! Layering:
//!
//! - [`conn`]: one non-blocking connection — partial reads reassembled
//!   through `swing-net`'s [`FrameAssembler`](swing_net::FrameAssembler),
//!   short writes drained from the zero-copy `encode_segments` chunks,
//!   and which readiness the connection is waiting for.
//! - [`reactor`]: the readiness loop, registration/dial/wake-up API,
//!   bounded outboxes feeding transport backpressure into the PR 5
//!   credit gate.
//! - [`sender`]: [`MsgSender`], the sending handle of every link, which
//!   wakes the reactor when the link is one of its own.
//! - [`registry`]: lease table + server loop for service discovery.
//! - [`client`]: synchronous registry client and the shared
//!   [`Heartbeater`] renewal thread.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod conn;
pub mod reactor;
pub mod registry;
pub mod sender;
mod sys;

pub use client::{await_service, Heartbeater, RegistryClient};
pub use conn::{Drain, FramedConn, OutFrame};
pub use reactor::{ConnEvent, ConnId, Delivery, Reactor, ReactorConfig, ReactorHandle};
pub use registry::{Pattern, RegistryCore, RegistryServer};
pub use sender::MsgSender;
