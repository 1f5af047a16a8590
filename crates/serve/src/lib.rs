//! `zskip-serve` — an async, sharded serving layer that scales skip-sparse
//! inference to thousands of concurrent streams.
//!
//! `zskip-runtime` made the paper's skip-sparsity (Ardakani, Ji & Gross,
//! DATE 2019) pay off inside one synchronous [`Engine`](zskip_runtime::Engine);
//! this crate puts a production front on it. The whole stack is generic
//! over the served [`FrozenModel`](zskip_runtime::FrozenModel) family —
//! the LSTM char-LM, the 3-gate GRU, the embedding-input word-LM and the
//! pixel-streaming classifier all serve through the same front-end:
//!
//! * [`Server`] — N worker threads, each owning a private engine *shard*
//!   over a clone of the frozen model, fed by bounded `sync_channel`
//!   request queues (full queue ⇒ backpressure, not unbounded buffering),
//! * [`Client`] — a blocking handle (`open` / `send` / `recv` / `close`,
//!   plus the select-style [`Client::recv_any`] so one driver thread can
//!   own many streams); streams hash onto a shard at open and stay
//!   pinned there via the [`StreamId`], whose session key is the
//!   never-reused open ticket the client draws itself (`open` waits for
//!   no reply). Results arrive in **one mailbox per client**, not a
//!   channel per stream: a stream costs its state plus a map entry, and
//!   is bounded by count — a consumer that stops `recv`ing is evicted
//!   once `result_capacity` of its results sit unread, instead of
//!   buffering results without limit,
//! * per-session TTL eviction and per-token deadline-miss accounting,
//! * [`ServerStats`] — a cross-shard aggregate (throughput, skip
//!   fraction, queue depth, deadline misses, evictions),
//! * sampled per-token span tracing — deterministic 1-in-N stream
//!   sampling, per-shard span rings, [`Server::drain_trace`] and a
//!   Chrome trace-event / Perfetto export ([`TraceExport`]),
//! * [`LoadGenerator`] — sustained mixed open/submit/close traffic for
//!   benches and examples.
//!
//! Sharding is **transparent**: batching inside one engine never changes
//! per-stream outputs (the runtime's proptests), and shards are fully
//! independent engines over identical weights — so a sharded server's
//! logits are bit-for-bit the logits of a single engine replaying the
//! same per-session token streams, for every family
//! (`tests/determinism.rs` runs the harness over both the LSTM and the
//! GRU char-LMs).
//!
//! # Quickstart
//!
//! ```
//! use zskip_runtime::FrozenCharLm;
//! use zskip_serve::{ServeConfig, Server};
//!
//! let server = Server::start(
//!     FrozenCharLm::random(32, 16, 1),
//!     ServeConfig::for_threshold(0.2).with_shards(2),
//! );
//! let mut client = server.client();
//! let stream = client.open().unwrap();
//! client.send(stream, 7).unwrap();
//! let next = client.recv(stream).unwrap();
//! assert_eq!(next.logits.len(), 32);
//! client.close(stream).unwrap();
//! server.shutdown();
//! ```

pub mod client;
pub mod error;
pub mod loadgen;
mod mailbox;
pub mod server;
pub mod stats;
pub mod trace_export;

pub use client::{Client, StreamId};
pub use error::ServeError;
pub use loadgen::{LoadConfig, LoadGenerator, LoadReport};
pub use server::{ServeConfig, Server};
pub use stats::{ServerStats, ShardEvent, ShardStats};
pub use trace_export::{validate_chrome_json, ShardSpan, TraceExport, TraceValidation};
// Re-exported so event/histogram/stage/span types drained or snapshotted
// from a server are nameable without depending on the telemetry crate.
pub use zskip_telemetry::{
    trace_env_allowed, Event, EventKind, HistogramSnapshot, Span, SpanId, SpanKind, StageBreakdown,
    TraceId, TraceSampler,
};
