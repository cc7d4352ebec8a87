//! # swing-net
//!
//! Network substrate for Swing: the tuple wire format (the paper's
//! *Serialization Service*, including the lease registry's messages),
//! length-delimited framing, the transport timing knobs, and the
//! wireless link model used by the simulator (sender-side queueing +
//! 802.11 rate adaptation).
//!
//! The live transport (`swing-reactor`, driven by `swing-runtime`) uses
//! [`wire`], [`frame`] and [`timeouts`]; the simulator (`swing-sim`)
//! uses [`link`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod frame;
pub mod link;
pub mod timeouts;
pub mod wire;

pub use frame::FrameAssembler;
pub use timeouts::NetTimeouts;
pub use wire::{Message, ServiceEntry, WireSegment, SHARED_SEGMENT_MIN};
