//! `zskip-telemetry` — the observability layer of the serving stack.
//!
//! Four small, allocation-disciplined building blocks, shared by
//! `zskip-runtime` (per-stage step timing) and `zskip-serve` (per-shard
//! latency distributions, event logs and span traces):
//!
//! * [`LatencyHistogram`] — a fixed-size, log-linear-bucketed (4 linear
//!   sub-buckets per power-of-2 octave, so bounds resolve to 25%),
//!   **lock-free** histogram of nanosecond durations: workers
//!   [`record`](LatencyHistogram::record) with one relaxed atomic add,
//!   observers [`snapshot`](LatencyHistogram::snapshot) without stopping
//!   them. [`HistogramSnapshot`] carries quantiles
//!   (p50/p90/p99/p999), [`merge`](HistogramSnapshot::merge) across
//!   shards, a text rendering and JSON export through the vendored
//!   serde.
//! * [`Stage`] / [`StageClock`] / [`StageBreakdown`] — scoped per-stage
//!   timing of one batched inference step (skip-plan build, recurrent
//!   GEMM, pointwise, head, delivery), accumulated in a fixed array so
//!   the instrumented hot loop stays **zero-allocation**. A disabled
//!   clock compiles down to branch-and-skip — no `Instant` reads.
//! * [`EventRing`] — a bounded per-shard ring of discrete serving events
//!   (session open/close/evict, deadline miss, dense fallback,
//!   backpressure stall), overwriting the oldest entry when full and
//!   drainable without stopping the writers.
//! * [`SpanRing`] / [`TraceSampler`] — sampled per-token span tracing:
//!   deterministic 1-in-N stream sampling (`mix64(key) % n == 0`, so the
//!   sampled set is reproducible), fixed-capacity overwrite-oldest span
//!   rings with the same never-block-the-worker discipline as the event
//!   ring, and a process-wide `ZSKIP_TRACE=0` veto mirroring
//!   `ZSKIP_STAGE_TIMING`.
//!
//! The design constraint throughout: telemetry must be cheap enough to
//! stay on in production. Recording is one atomic `fetch_add` into a
//! preallocated bucket (histograms), one `Instant` read (stage laps), or
//! one short mutex-protected ring push (events and sampled spans);
//! nothing on any hot path allocates, and unsampled streams pay one
//! hash-and-modulo per decision.

#![forbid(unsafe_code)]

pub mod events;
pub mod histogram;
pub mod stage;
pub mod trace;

pub use events::{Event, EventKind, EventRing};
pub use histogram::{HistogramSnapshot, LatencyHistogram, BUCKETS};
pub use stage::{stage_timing_env_allowed, Stage, StageBreakdown, StageClock};
pub use trace::{trace_env_allowed, Span, SpanId, SpanKind, SpanRing, TraceId, TraceSampler};
