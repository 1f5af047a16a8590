//! Cross-shard serving statistics and telemetry.
//!
//! Each worker publishes its counters, latency histograms and events
//! into a crate-internal `ShardShared` block; [`crate::Server::stats`]
//! snapshots every shard into a [`ServerStats`] aggregate and
//! [`crate::Server::drain_events`] drains the per-shard event rings —
//! both without stopping the workers.
//!
//! # Consistency model
//!
//! Everything here is observability, not coordination: every counter,
//! histogram bucket and stage cell is read and written with `Relaxed`
//! atomics, **independently**. A snapshot taken while workers are
//! running is not a linearizable cut — the values may mutually tear
//! (e.g. `delivered` already counting a token whose `submitted`
//! increment the snapshot missed, or a histogram count disagreeing with
//! the matching counter by in-flight records). Each individual value is
//! exact and monotone; only cross-value invariants may be momentarily
//! off. Quiesce the workers first if an exact cut matters.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use zskip_runtime::{EngineStats, Stage, StageBreakdown};
use zskip_telemetry::{Event, EventRing, HistogramSnapshot, LatencyHistogram, SpanRing};

use serde::value::Value;
use serde::Serialize;

/// Lock-free telemetry block one worker thread publishes
/// (crate-internal).
pub(crate) struct ShardShared {
    /// Requests in flight toward the shard: sitting in its bounded queue
    /// *plus* blocking `send`s stalled on a full queue (can exceed the
    /// queue capacity — that excess is the backpressure signal).
    pub queue_depth: AtomicUsize,
    /// Sessions open on the shard: counted in by `Client::open` as it
    /// queues the request (so a caller holding an id always finds it
    /// here), counted out by the worker when the session ends.
    pub open_sessions: AtomicUsize,
    /// Tokens accepted into the engine.
    pub submitted: AtomicU64,
    /// Results delivered to client streams.
    pub delivered: AtomicU64,
    /// Deliveries that exceeded the configured per-token deadline.
    pub deadline_misses: AtomicU64,
    /// Sessions closed server-side after idling past the TTL.
    pub evicted_sessions: AtomicU64,
    /// Requests that addressed an unknown/closed session.
    pub rejected: AtomicU64,
    // Mirror of the shard engine's `EngineStats`.
    pub steps: AtomicU64,
    pub tokens: AtomicU64,
    pub sparse_steps: AtomicU64,
    pub dense_steps: AtomicU64,
    pub fetched_rows: AtomicU64,
    pub total_rows: AtomicU64,
    pub anchor_columns: AtomicU64,
    /// Mirror of the engine's cumulative stage breakdown, one cell per
    /// [`Stage`] in `Stage::ALL` order.
    pub stage_nanos: [AtomicU64; Stage::COUNT],
    /// Submit-to-dequeue wait of accepted tokens (time spent in the
    /// shard queue, including any blocking-send stall).
    pub queue_wait: LatencyHistogram,
    /// Wall-clock of each batched engine step.
    pub step_time: LatencyHistogram,
    /// End-to-end submit-to-delivery latency of each token.
    pub token_latency: LatencyHistogram,
    /// Bounded log of discrete shard events (open/close/evict, deadline
    /// miss, dense fallback, backpressure stall).
    pub events: EventRing,
    /// Bounded ring of sampled trace spans (client submit, queue wait,
    /// batch step + stage children, delivery, client recv).
    pub spans: SpanRing,
}

impl ShardShared {
    /// A zeroed block whose event ring holds `event_capacity` entries
    /// and whose span ring holds `span_capacity`. Both rings stamp
    /// timestamps relative to `origin`, which [`crate::Server::start`]
    /// shares across every shard so drained events and spans from
    /// different shards are mutually ordered.
    pub(crate) fn new(event_capacity: usize, span_capacity: usize, origin: Instant) -> Self {
        Self {
            queue_depth: AtomicUsize::new(0),
            open_sessions: AtomicUsize::new(0),
            submitted: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            evicted_sessions: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            tokens: AtomicU64::new(0),
            sparse_steps: AtomicU64::new(0),
            dense_steps: AtomicU64::new(0),
            fetched_rows: AtomicU64::new(0),
            total_rows: AtomicU64::new(0),
            anchor_columns: AtomicU64::new(0),
            stage_nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_wait: LatencyHistogram::new(),
            step_time: LatencyHistogram::new(),
            token_latency: LatencyHistogram::new(),
            events: EventRing::with_origin(event_capacity, origin),
            spans: SpanRing::new(span_capacity, origin),
        }
    }

    pub(crate) fn publish_engine(&self, s: &EngineStats) {
        self.steps.store(s.steps, Ordering::Relaxed);
        self.tokens.store(s.tokens, Ordering::Relaxed);
        self.sparse_steps.store(s.sparse_steps, Ordering::Relaxed);
        self.dense_steps.store(s.dense_steps, Ordering::Relaxed);
        self.fetched_rows.store(s.fetched_rows, Ordering::Relaxed);
        self.total_rows.store(s.total_rows, Ordering::Relaxed);
        self.anchor_columns
            .store(s.anchor_columns, Ordering::Relaxed);
        for (cell, nanos) in self.stage_nanos.iter().zip(s.stages.as_nanos()) {
            cell.store(nanos, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self, shard: usize) -> ShardStats {
        ShardStats {
            shard,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            open_sessions: self.open_sessions.load(Ordering::Relaxed),
            submitted: self.submitted.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            evicted_sessions: self.evicted_sessions.load(Ordering::Relaxed),
            rejected_requests: self.rejected.load(Ordering::Relaxed),
            dropped_events: self.events.dropped(),
            dropped_spans: self.spans.dropped(),
            engine: EngineStats {
                steps: self.steps.load(Ordering::Relaxed),
                tokens: self.tokens.load(Ordering::Relaxed),
                sparse_steps: self.sparse_steps.load(Ordering::Relaxed),
                dense_steps: self.dense_steps.load(Ordering::Relaxed),
                fetched_rows: self.fetched_rows.load(Ordering::Relaxed),
                total_rows: self.total_rows.load(Ordering::Relaxed),
                anchor_columns: self.anchor_columns.load(Ordering::Relaxed),
                stages: StageBreakdown::from_nanos(std::array::from_fn(|i| {
                    self.stage_nanos[i].load(Ordering::Relaxed)
                })),
            },
            queue_wait: self.queue_wait.snapshot(),
            step_time: self.step_time.snapshot(),
            token_latency: self.token_latency.snapshot(),
        }
    }
}

/// One event drained from a shard's ring, tagged with its shard index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardEvent {
    /// The shard whose ring held the event.
    pub shard: usize,
    /// The event itself (kind, timestamp, detail).
    pub event: Event,
}

impl std::fmt::Display for ShardEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} {}", self.shard, self.event)
    }
}

impl Serialize for ShardEvent {
    fn to_value(&self) -> Value {
        let mut map = vec![("shard".to_string(), Value::Int(self.shard as i128))];
        if let Value::Map(event) = self.event.to_value() {
            map.extend(event);
        }
        Value::Map(map)
    }
}

/// A point-in-time snapshot of one shard's serving counters, latency
/// histograms and stage breakdown. Values are read independently with
/// `Relaxed` loads and may mutually tear — see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Requests in flight toward the shard: queued plus blocking sends
    /// stalled on a full queue (values above the queue capacity mean
    /// producers are experiencing backpressure).
    pub queue_depth: usize,
    /// Sessions open on the shard, from the moment `Client::open`
    /// returned (the request may still be queued) until the worker
    /// closed or evicted them.
    pub open_sessions: usize,
    /// Tokens accepted into the engine.
    pub submitted: u64,
    /// Results delivered to client streams.
    pub delivered: u64,
    /// Deliveries later than the configured per-token deadline.
    pub deadline_misses: u64,
    /// Sessions evicted after idling past the TTL.
    pub evicted_sessions: u64,
    /// Requests addressed to unknown/closed sessions.
    pub rejected_requests: u64,
    /// Events overwritten in the shard's ring before being drained.
    pub dropped_events: u64,
    /// Trace spans overwritten in the shard's ring before being drained.
    pub dropped_spans: u64,
    /// The shard engine's own step/skip/stage accounting.
    pub engine: EngineStats,
    /// Submit-to-dequeue queue wait of accepted tokens.
    pub queue_wait: HistogramSnapshot,
    /// Wall-clock per batched engine step.
    pub step_time: HistogramSnapshot,
    /// End-to-end submit-to-delivery token latency.
    pub token_latency: HistogramSnapshot,
}

impl Serialize for ShardStats {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("shard".to_string(), Value::Int(self.shard as i128)),
            (
                "queue_depth".to_string(),
                Value::Int(self.queue_depth as i128),
            ),
            (
                "open_sessions".to_string(),
                Value::Int(self.open_sessions as i128),
            ),
            ("submitted".to_string(), Value::Int(self.submitted as i128)),
            ("delivered".to_string(), Value::Int(self.delivered as i128)),
            (
                "deadline_misses".to_string(),
                Value::Int(self.deadline_misses as i128),
            ),
            (
                "evicted_sessions".to_string(),
                Value::Int(self.evicted_sessions as i128),
            ),
            (
                "rejected_requests".to_string(),
                Value::Int(self.rejected_requests as i128),
            ),
            (
                "dropped_events".to_string(),
                Value::Int(self.dropped_events as i128),
            ),
            (
                "dropped_spans".to_string(),
                Value::Int(self.dropped_spans as i128),
            ),
            ("steps".to_string(), Value::Int(self.engine.steps as i128)),
            ("tokens".to_string(), Value::Int(self.engine.tokens as i128)),
            (
                "sparse_steps".to_string(),
                Value::Int(self.engine.sparse_steps as i128),
            ),
            (
                "dense_steps".to_string(),
                Value::Int(self.engine.dense_steps as i128),
            ),
            (
                "skip_fraction".to_string(),
                Value::Float(self.engine.skip_fraction()),
            ),
            ("stages".to_string(), self.engine.stages.to_value()),
            ("queue_wait".to_string(), self.queue_wait.to_value()),
            ("step_time".to_string(), self.step_time.to_value()),
            ("token_latency".to_string(), self.token_latency.to_value()),
        ])
    }
}

/// Aggregate statistics across every shard of a [`crate::Server`].
///
/// Snapshots are taken per shard without stopping workers, so values
/// may mutually tear across (and within) shards — see the module docs.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Per-shard snapshots, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl ServerStats {
    /// Requests in flight toward all shards (queued + stalled sends).
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth).sum()
    }

    /// Sessions open across all shards.
    pub fn open_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.open_sessions).sum()
    }

    /// Tokens accepted across all shards.
    pub fn submitted(&self) -> u64 {
        self.shards.iter().map(|s| s.submitted).sum()
    }

    /// Results delivered across all shards.
    pub fn delivered(&self) -> u64 {
        self.shards.iter().map(|s| s.delivered).sum()
    }

    /// Deadline misses across all shards.
    pub fn deadline_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.deadline_misses).sum()
    }

    /// TTL evictions across all shards.
    pub fn evicted_sessions(&self) -> u64 {
        self.shards.iter().map(|s| s.evicted_sessions).sum()
    }

    /// Requests rejected (unknown/closed session, post-shutdown intake)
    /// across all shards.
    pub fn rejected_requests(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected_requests).sum()
    }

    /// Trace spans lost to ring overwrite across all shards.
    pub fn dropped_spans(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped_spans).sum()
    }

    /// Batched engine steps across all shards.
    pub fn steps(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.steps).sum()
    }

    /// Tokens processed by the shard engines (≤ `submitted`; the
    /// difference is still queued).
    pub fn tokens(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.tokens).sum()
    }

    /// Steps that fell back to the dense kernel, across all shards.
    pub fn dense_steps(&self) -> u64 {
        self.shards.iter().map(|s| s.engine.dense_steps).sum()
    }

    /// Fraction of recurrent weight fetches skipped, aggregated over all
    /// shard engines.
    pub fn skip_fraction(&self) -> f64 {
        let fetched: u64 = self.shards.iter().map(|s| s.engine.fetched_rows).sum();
        let total: u64 = self.shards.iter().map(|s| s.engine.total_rows).sum();
        if total == 0 {
            0.0
        } else {
            1.0 - fetched as f64 / total as f64
        }
    }

    /// Queue-wait distribution merged across all shards.
    pub fn queue_wait(&self) -> HistogramSnapshot {
        self.merged(|s| &s.queue_wait)
    }

    /// Engine-step wall-clock distribution merged across all shards.
    pub fn step_time(&self) -> HistogramSnapshot {
        self.merged(|s| &s.step_time)
    }

    /// End-to-end token-latency distribution merged across all shards.
    pub fn token_latency(&self) -> HistogramSnapshot {
        self.merged(|s| &s.token_latency)
    }

    /// Cumulative per-stage step breakdown summed across all shards.
    pub fn stages(&self) -> StageBreakdown {
        let mut total = StageBreakdown::zero();
        for s in &self.shards {
            total.add(&s.engine.stages);
        }
        total
    }

    fn merged(&self, pick: impl Fn(&ShardStats) -> &HistogramSnapshot) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for s in &self.shards {
            merged.merge(pick(s));
        }
        merged
    }

    /// Renders the snapshot as pretty-printed JSON (shards, histograms
    /// with buckets, stage breakdown) via the vendored serde.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("value serialization is infallible")
    }
}

impl Serialize for ServerStats {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "shards".to_string(),
                Value::Seq(self.shards.iter().map(|s| s.to_value()).collect()),
            ),
            (
                "queue_depth".to_string(),
                Value::Int(self.queue_depth() as i128),
            ),
            (
                "open_sessions".to_string(),
                Value::Int(self.open_sessions() as i128),
            ),
            (
                "submitted".to_string(),
                Value::Int(self.submitted() as i128),
            ),
            (
                "delivered".to_string(),
                Value::Int(self.delivered() as i128),
            ),
            (
                "deadline_misses".to_string(),
                Value::Int(self.deadline_misses() as i128),
            ),
            ("tokens".to_string(), Value::Int(self.tokens() as i128)),
            (
                "skip_fraction".to_string(),
                Value::Float(self.skip_fraction()),
            ),
            ("stages".to_string(), self.stages().to_value()),
            ("queue_wait".to_string(), self.queue_wait().to_value()),
            ("step_time".to_string(), self.step_time().to_value()),
            ("token_latency".to_string(), self.token_latency().to_value()),
        ])
    }
}

impl std::fmt::Display for ServerStats {
    /// A per-shard table plus merged percentile lines and the aggregate
    /// stage breakdown — the human form of [`ServerStats::to_json`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:>5} {:>6} {:>6} {:>10} {:>10} {:>7} {:>7} {:>7} {:>6}",
            "shard", "queue", "open", "submitted", "delivered", "missed", "evict", "reject", "skip"
        )?;
        for s in &self.shards {
            writeln!(
                f,
                "{:>5} {:>6} {:>6} {:>10} {:>10} {:>7} {:>7} {:>7} {:>5.1}%",
                s.shard,
                s.queue_depth,
                s.open_sessions,
                s.submitted,
                s.delivered,
                s.deadline_misses,
                s.evicted_sessions,
                s.rejected_requests,
                s.engine.skip_fraction() * 100.0,
            )?;
        }
        writeln!(f, "queue-wait    {}", self.queue_wait())?;
        writeln!(f, "step-time     {}", self.step_time())?;
        writeln!(f, "token-latency {}", self.token_latency())?;
        let stages = self.stages();
        if !stages.is_zero() {
            writeln!(f, "step stage breakdown:")?;
            write!(f, "{stages}")?;
        } else {
            write!(f, "step stage breakdown: (stage timing disabled)")?;
        }
        Ok(())
    }
}

/// Converts a [`Duration`] measured on the serving path into the
/// nanosecond unit the histograms record (saturating).
pub(crate) fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_across_shards() {
        let mut a = ShardShared::new(4, 16, Instant::now()).snapshot(0);
        a.submitted = 10;
        a.engine.tokens = 8;
        a.engine.dense_steps = 2;
        a.rejected_requests = 1;
        let mut b = a;
        b.shard = 1;
        b.submitted = 5;
        let stats = ServerStats { shards: vec![a, b] };
        assert_eq!(stats.submitted(), 15);
        assert_eq!(stats.tokens(), 16);
        assert_eq!(stats.dense_steps(), 4);
        assert_eq!(stats.rejected_requests(), 2);
    }

    #[test]
    fn display_renders_one_row_per_shard_and_percentiles() {
        let shared = ShardShared::new(4, 16, Instant::now());
        shared.queue_wait.record(1_000);
        shared.token_latency.record(2_000);
        let stats = ServerStats {
            shards: vec![shared.snapshot(0)],
        };
        let rendered = stats.to_string();
        assert!(rendered.contains("shard"));
        assert!(rendered.contains("token-latency"));
        assert!(rendered.contains("p99"));
    }

    #[test]
    fn json_nests_shards_and_histograms() {
        let shared = ShardShared::new(4, 16, Instant::now());
        shared.step_time.record(500);
        let stats = ServerStats {
            shards: vec![shared.snapshot(0)],
        };
        let json = stats.to_json();
        assert!(json.contains("\"shards\""));
        assert!(json.contains("\"step_time\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"recurrent-gemm_ns\""));
    }

    #[test]
    fn stage_breakdown_round_trips_through_the_atomics() {
        let shared = ShardShared::new(4, 16, Instant::now());
        let published = StageBreakdown::from_nanos([1, 2, 3, 4, 5, 6]);
        let engine = EngineStats {
            stages: published,
            ..Default::default()
        };
        shared.publish_engine(&engine);
        let snap = shared.snapshot(0);
        assert_eq!(snap.engine.stages, published);
        assert_eq!(snap.engine.stages.get(Stage::RecurrentGemm), 3);
    }
}
