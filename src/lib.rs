//! # swing
//!
//! Umbrella crate for the Swing workspace — a Rust reproduction of
//! *Swing: Swarm Computing for Mobile Sensing* (Fan, Salonidis, Lee;
//! ICDCS 2018). Swing aggregates a swarm of co-located mobile devices to
//! collaboratively process sensed data streams (face recognition, voice
//! translation) expressed as dataflow graphs, managing device
//! heterogeneity, user mobility and churn with the LRS routing algorithm.
//!
//! Each subsystem lives in its own crate and is re-exported here:
//!
//! * [`core`] — dataflow programming model, LRS + baseline policies,
//!   latency estimation, reordering service.
//! * [`device`] — device substrate: CPU/power/battery models calibrated to
//!   the paper's nine-phone testbed, mobility traces, radio model.
//! * [`net`] — wireless link models, tuple wire format, framing,
//!   transport timing knobs.
//! * [`reactor`] — the socket transport: a single-threaded readiness
//!   loop multiplexing framed connections, plus the TTL-lease registry
//!   that is the Discovery Service.
//! * [`sim`] — deterministic discrete-event simulator regenerating every
//!   figure and table of the paper.
//! * [`runtime`] — live master/worker runtime on in-process channels or
//!   reactor sockets.
//! * [`apps`] — the reference sensing applications (face, voice, and the
//!   grid-keyed spatial stream) with real compute kernels.
//!
//! See `examples/quickstart.rs` for a complete first program.

/// One-stop imports for the whole workspace: `use swing::prelude::*;`
/// brings in the dataflow model, routing policies, overload control,
/// both execution harnesses (live and simulated), and telemetry.
pub mod prelude {
    pub use swing_runtime::prelude::*;
}

pub use swing_apps as apps;
pub use swing_core as core;
pub use swing_device as device;
pub use swing_net as net;
pub use swing_reactor as reactor;
pub use swing_runtime as runtime;
pub use swing_sim as sim;
pub use swing_telemetry as telemetry;
