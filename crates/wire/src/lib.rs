//! `zskip-wire`: the process boundary for the sharded serving engine.
//!
//! Everything below this crate is in-process and bit-deterministic;
//! this crate extends that contract across a socket. Three pieces:
//!
//! * [`frame`] — a compact length-prefixed binary protocol over the
//!   existing request/result/stats shapes. Decoding is zero-copy into
//!   borrowed [`Frame`]s; the handshake carries the protocol version
//!   and the model-family tag so mismatched peers fail fast with
//!   typed errors instead of garbage.
//! * [`TcpServer`] — a TCP front-end wrapping an untouched
//!   [`zskip_serve::Server`]: one acceptor, three threads per
//!   connection (reader / pump / writer) joined by bounded channels,
//!   so remote backpressure maps onto the serving layer's existing
//!   semantics. Clean half-closes drain in-flight results; poisoned
//!   connections (malformed frames, mid-frame disconnects) tear down
//!   only their own sessions.
//! * [`RemoteClient`] — a blocking client mirroring the in-process
//!   [`zskip_serve::Client`] API (`open` / `send` / `send_all` /
//!   `recv` / `recv_any` / `close`) with the same edge-case semantics,
//!   plus a documented test-only write-fault shim.
//!
//! Logits travel as IEEE-754 bit patterns, so remote serving is
//! **bit-identical** to in-process serving — the cross-process
//! determinism harness (`tests/wire_determinism.rs` at the workspace
//! root) pins this for all five frozen model families, including
//! across a snapshot save → server restart.
//!
//! Model weights cross the process boundary separately, as frozen
//! snapshots ([`zskip_runtime::ModelSnapshot`]) with per-tensor
//! checksums — see `docs/WIRE.md` for the frame grammar, the
//! handshake, versioning rules, and the snapshot container format.

#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod frame;
pub mod model;
pub mod server;

pub use client::{FaultMode, FaultPlan, RemoteClient};
pub use error::WireError;
pub use frame::{decode_frame, encode_frame, Frame, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use model::{WireInput, WireModel, WireSpec};
pub use server::{TcpServer, TcpServerConfig, WireStats};
