//! The sharded server: N worker threads, each owning a private [`Engine`],
//! fed by bounded request queues.
//!
//! ```text
//!               ┌────────────── Server ──────────────┐
//!  Client ──┬──▶ queue 0 ─▶ worker 0: Engine shard 0 ─┬─▶ the owning
//!  Client ──┼──▶ queue 1 ─▶ worker 1: Engine shard 1 ─┼─▶ client's
//!   ...     └──▶ queue k ─▶ worker k: Engine shard k ─┘   mailbox
//! ```
//!
//! Each worker drains its queue, coalesces every ready session into
//! batched engine steps, posts each step's results to the owning
//! clients' mailboxes (one lock and at most one wake per client per
//! step), and sweeps idle sessions past the TTL. Queues are
//! `sync_channel`s with a fixed capacity, so a flooded shard pushes back
//! on producers instead of buffering without bound; a mailbox is bounded
//! per stream by *count* (`result_capacity` unread results, then
//! eviction), so opening a stream preallocates nothing.
//!
//! A stream is named by its **session key** — the server-wide open
//! ticket the client draws, unique and never reused. The client mints
//! the [`crate::StreamId`] itself and `open` waits for no reply; the
//! worker maps key → engine [`SessionId`] when the `Open` request
//! reaches it, and every way out of a session (close, TTL, slow
//! consumer) goes through one worker function, `end_session`, which
//! clears both directions of that map.

use crate::client::Client;
use crate::mailbox::{Entry, Mailbox, Outlet};
use crate::stats::{duration_nanos, ServerStats, ShardEvent, ShardShared};
use crate::trace_export::{ShardSpan, TraceExport};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zskip_runtime::{
    Engine, EngineConfig, EngineStats, FrozenCharLm, FrozenModel, SessionId, Stage,
};
use zskip_telemetry::{EventKind, SpanKind, TraceId, TraceSampler};

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Per-shard engine configuration (threshold, batch cap, skip policy).
    pub engine: EngineConfig,
    /// Worker threads, each owning one engine shard.
    pub shards: usize,
    /// Capacity of each shard's bounded request queue — the backpressure
    /// knob: blocking `send`s stall and `try_send`s fail once a queue
    /// holds this many requests.
    pub queue_capacity: usize,
    /// Bound on each stream's unread results — delivered by the worker,
    /// not yet handed to the caller by `recv` / `recv_any`. A consumer
    /// that stops `recv`ing while submitting is **evicted** when the
    /// next result would exceed it — results are never buffered without
    /// bound. A bound, not a buffer: nothing is allocated per stream up
    /// front, so the cost and footprint of `open` do not depend on it.
    pub result_capacity: usize,
    /// Evict sessions idle longer than this (no submit and no delivery).
    /// `None` disables eviction.
    pub session_ttl: Option<Duration>,
    /// Per-token latency target: deliveries later than this after submit
    /// count as deadline misses in [`ServerStats`]. Tokens are still
    /// processed — the counter is the alarm, not a drop policy, so
    /// outputs stay deterministic.
    pub token_deadline: Option<Duration>,
    /// How often an idle worker wakes to sweep TTLs.
    pub idle_tick: Duration,
    /// Capacity of each shard's telemetry event ring. When more events
    /// occur between [`Server::drain_events`] calls than fit, the oldest
    /// are overwritten (and counted as `dropped_events`) — workers never
    /// block or allocate for a slow observer.
    pub event_capacity: usize,
    /// Trace sampling rate: streams whose `mix64(trace key) % n == 0`
    /// record spans; everyone else pays one hash-and-modulo per
    /// decision and nothing more. `0` disables tracing outright, `1`
    /// traces every stream. `ZSKIP_TRACE=0` in the environment vetoes
    /// tracing process-wide regardless of this knob.
    pub trace_sample_one_in: u64,
    /// Capacity of each shard's trace span ring. When sampled spans
    /// outpace [`Server::drain_trace`] calls, the oldest are overwritten
    /// (counted as `dropped_spans`) — same never-block-the-worker
    /// discipline as the event ring.
    pub trace_span_capacity: usize,
}

impl ServeConfig {
    /// Serving configuration for a model trained at `threshold`:
    /// one shard per available core (capped at 8), queues of 1024
    /// requests, no TTL, no deadline.
    pub fn for_threshold(threshold: f32) -> Self {
        let shards = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        Self {
            engine: EngineConfig::for_threshold(threshold),
            shards,
            queue_capacity: 1024,
            result_capacity: 1024,
            session_ttl: None,
            token_deadline: None,
            idle_tick: Duration::from_millis(20),
            event_capacity: 256,
            trace_sample_one_in: 64,
            trace_span_capacity: 8192,
        }
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-shard queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-stream bound on unread results.
    pub fn with_result_capacity(mut self, capacity: usize) -> Self {
        self.result_capacity = capacity;
        self
    }

    /// Sets the idle-session TTL.
    pub fn with_session_ttl(mut self, ttl: Duration) -> Self {
        self.session_ttl = Some(ttl);
        self
    }

    /// Sets the per-token deadline.
    pub fn with_token_deadline(mut self, deadline: Duration) -> Self {
        self.token_deadline = Some(deadline);
        self
    }

    /// Sets the per-shard event-ring capacity.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Sets the trace sampling rate (`1` = every stream, `0` = off).
    pub fn with_trace_sampling(mut self, one_in: u64) -> Self {
        self.trace_sample_one_in = one_in;
        self
    }

    /// Sets the per-shard trace span-ring capacity.
    pub fn with_trace_span_capacity(mut self, capacity: usize) -> Self {
        self.trace_span_capacity = capacity;
        self
    }
}

/// One request travelling a shard queue (crate-internal), generic over
/// the served family's input type.
pub(crate) enum Request<I> {
    /// Open a session under the key the client already minted
    /// (`outlet.id`) and post its results through `outlet`. No reply:
    /// the shard queue's FIFO puts this ahead of the stream's first
    /// submit. Every other request's `id` is that same key.
    Open { outlet: Outlet<I> },
    /// Feed one input to a session.
    Submit {
        id: SessionId,
        input: I,
        enqueued: Instant,
    },
    /// Feed a whole burst of inputs to a session in one queue hop — the
    /// bulk path [`crate::Client::send_all`] takes, so a 784-step MNIST
    /// scan pays one channel round-trip instead of 784.
    SubmitMany {
        id: SessionId,
        inputs: Vec<I>,
        enqueued: Instant,
    },
    /// Close a session.
    Close { id: SessionId },
    /// Stop the worker after the queue drained up to this request.
    Shutdown,
}

impl<I> Request<I> {
    /// The session key this request targets, for event payloads
    /// (0 for a shutdown, which has none).
    pub(crate) fn session_detail(&self) -> u64 {
        match self {
            Request::Submit { id, .. } | Request::SubmitMany { id, .. } | Request::Close { id } => {
                id.0
            }
            Request::Open { outlet } => outlet.id.session.0,
            Request::Shutdown => 0,
        }
    }
}

/// A shard's client-facing half (crate-internal).
pub(crate) struct ShardHandle<I> {
    pub tx: SyncSender<Request<I>>,
    pub shared: Arc<ShardShared>,
}

/// The sharded serving layer, generic over the served [`FrozenModel`]
/// family (LSTM char-LM by default; GRU, word-LM and classifier models
/// serve through the identical front-end).
///
/// A `Server` owns `shards` worker threads, each running a private
/// [`Engine`] over a clone of the frozen model. Streams are placed on a
/// shard by hashing their open ticket; from then on the stream's
/// [`crate::StreamId`] carries the shard plus that ticket as its
/// never-reused session key, so every later request routes to the same
/// engine and stale handles keep failing loudly.
///
/// Dropping the server (or calling [`Server::shutdown`]) stops the
/// workers after their queues drain.
pub struct Server<M: FrozenModel = FrozenCharLm> {
    shards: Arc<Vec<ShardHandle<M::Input>>>,
    open_counter: Arc<AtomicU64>,
    workers: Vec<JoinHandle<()>>,
    /// Weight-free input-domain descriptor — what clients validate and
    /// sample against. Kept instead of an extra full model clone: the
    /// shard engines hold the only weight copies.
    spec: M::Spec,
    /// The deterministic stream sampler, shared (by copy) with every
    /// worker and client so all sides agree on which streams trace.
    sampler: TraceSampler,
}

impl<M: FrozenModel> Server<M> {
    /// Starts `config.shards` worker threads serving clones of `model`.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards` or `config.queue_capacity` is zero, or
    /// — before any worker is spawned — if `model` bakes in a pruning
    /// threshold other than `config.engine.threshold`
    /// ([`FrozenModel::baked_threshold`]).
    pub fn start(model: M, config: ServeConfig) -> Self {
        assert!(config.shards > 0, "server needs at least one shard");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        assert!(
            config.result_capacity > 0,
            "result capacity must be positive"
        );
        assert!(config.event_capacity > 0, "event capacity must be positive");
        assert!(
            config.trace_span_capacity > 0,
            "trace span capacity must be positive"
        );
        let spec = model.input_spec();
        // One clock origin for every shard's event and span ring: drained
        // timestamps from different shards live on the same axis, so a
        // cross-shard merge by timestamp is meaningful.
        let origin = Instant::now();
        let sampler = TraceSampler::new(config.trace_sample_one_in);
        let mut shards = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        // The last shard takes the model by value, the rest clone — so a
        // server retains exactly one weight copy per shard, no more.
        let mut model = Some(model);
        for shard in 0..config.shards {
            let shard_model = if shard + 1 == config.shards {
                model.take().expect("one model per shard")
            } else {
                model.as_ref().expect("model available").clone()
            };
            let (tx, rx) = mpsc::sync_channel(config.queue_capacity);
            let shared = Arc::new(ShardShared::new(
                config.event_capacity,
                config.trace_span_capacity,
                origin,
            ));
            let worker = Worker {
                engine: Engine::new(shard_model, config.engine),
                rx,
                shared: Arc::clone(&shared),
                sessions: HashMap::new(),
                keys: HashMap::new(),
                result_capacity: config.result_capacity,
                batch: Vec::new(),
                batch_to: None,
                session_ttl: config.session_ttl,
                token_deadline: config.token_deadline,
                idle_tick: config.idle_tick,
                last_sweep: Instant::now(),
                delivered: Vec::new(),
                last_dense_steps: 0,
                shard: shard as u32,
                sampler,
                last_stats: EngineStats::default(),
            };
            workers.push(
                std::thread::Builder::new()
                    .name(format!("zskip-serve-{shard}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard worker"),
            );
            shards.push(ShardHandle { tx, shared });
        }
        Self {
            shards: Arc::new(shards),
            open_counter: Arc::new(AtomicU64::new(0)),
            workers,
            spec,
            sampler,
        }
    }

    /// Creates a blocking client handle. Clients are independent; create
    /// one per driving thread.
    pub fn client(&self) -> Client<M> {
        Client::new(
            Arc::clone(&self.shards),
            Arc::clone(&self.open_counter),
            self.spec,
            self.sampler,
        )
    }

    /// Number of engine shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The served family's input-domain descriptor.
    pub fn input_spec(&self) -> M::Spec {
        self.spec
    }

    /// Snapshots aggregate statistics across all shards.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| s.shared.snapshot(i))
                .collect(),
        }
    }

    /// Drains every shard's event ring, merged into one global-timestamp
    /// order (all rings share one clock origin), without stopping the
    /// workers (they keep pushing while the drained batch is handed
    /// out). Events overwritten before a drain are reported in each
    /// shard's `dropped_events` counter, not here.
    pub fn drain_events(&self) -> Vec<ShardEvent> {
        let mut events = Vec::new();
        for (shard, handle) in self.shards.iter().enumerate() {
            events.extend(
                handle
                    .shared
                    .events
                    .drain()
                    .into_iter()
                    .map(|event| ShardEvent { shard, event }),
            );
        }
        // Stable ties on shard index so a drain is deterministic for
        // events stamped in the same microsecond.
        events.sort_by_key(|e| (e.event.at_micros, e.shard));
        events
    }

    /// Drains every shard's span ring into one [`TraceExport`], spans
    /// merged in global start-timestamp order (all rings share one clock
    /// origin). Spans overwritten before the drain are summed into the
    /// export's [`dropped`](TraceExport::dropped) count and each shard's
    /// `dropped_spans` stat.
    pub fn drain_trace(&self) -> TraceExport {
        let mut spans = Vec::new();
        let mut dropped = 0u64;
        for (shard, handle) in self.shards.iter().enumerate() {
            dropped += handle.shared.spans.dropped();
            spans.extend(
                handle
                    .shared
                    .spans
                    .drain()
                    .into_iter()
                    .map(|span| ShardSpan { shard, span }),
            );
        }
        spans.sort_by_key(|s| (s.span.start_ns, s.span.end_ns, s.shard, s.span.id.0));
        TraceExport::new(spans, dropped)
    }

    /// Whether a given stream would be traced under this server's
    /// sampler (deterministic in the stream id).
    pub fn is_traced(&self, id: crate::StreamId) -> bool {
        self.sampler.sampled(id.trace_key())
    }

    /// Stops all workers after their queues drain and joins them.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        for shard in self.shards.iter() {
            // Keep the queue-depth counter balanced: the worker
            // decrements it for every dequeued request, Shutdown
            // included.
            shard.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
            // A full queue still delivers Shutdown eventually; a
            // disconnected one means the worker is already gone.
            if shard.tx.send(Request::Shutdown).is_err() {
                shard.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
            }
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<M: FrozenModel> Drop for Server<M> {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Book-keeping one worker holds per open session.
struct SessionEntry<I> {
    /// The engine's own (slot-recycling) id for this session.
    engine_id: SessionId,
    /// Where results go. Dropping the entry drops this, which posts the
    /// `Evicted` notice unless the client let go of the stream first.
    outlet: Outlet<I>,
    last_active: Instant,
    /// Submit timestamps of queued inputs, for deadline accounting.
    enqueued_at: VecDeque<Instant>,
}

/// One shard's worker loop state.
struct Worker<M: FrozenModel> {
    engine: Engine<M>,
    rx: Receiver<Request<M::Input>>,
    shared: Arc<ShardShared>,
    /// Open sessions by session key (what requests carry).
    sessions: HashMap<u64, SessionEntry<M::Input>>,
    /// Engine session id → session key, for the engine's delivered list.
    /// Holds exactly the engine ids of `sessions`' entries.
    keys: HashMap<u64, u64>,
    /// Unread results a stream may hold before it is evicted.
    result_capacity: usize,
    /// One step's entries for the mailbox `batch_to`, posted together so
    /// a client takes one lock and at most one wake per step however
    /// many of its streams the step served.
    batch: Vec<Entry<M::Input>>,
    batch_to: Option<Arc<Mailbox<M::Input>>>,
    session_ttl: Option<Duration>,
    token_deadline: Option<Duration>,
    idle_tick: Duration,
    last_sweep: Instant,
    /// Session keys of what one engine step delivered (reused; the
    /// engine's own id slice borrows its scratch, which `deliver` needs
    /// mutably).
    delivered: Vec<u64>,
    /// Engine `dense_steps` value at the last publish, for emitting a
    /// `DenseFallback` event exactly when the counter advances.
    last_dense_steps: u64,
    /// This worker's shard index, for computing stream trace keys.
    shard: u32,
    /// The server-wide deterministic stream sampler.
    sampler: TraceSampler,
    /// Engine stats at the previous step, for per-step deltas (stage
    /// laps, skip rate) on the trace spans.
    last_stats: EngineStats,
}

impl<M: FrozenModel> Worker<M> {
    fn run(mut self) {
        loop {
            // Park until a request arrives (bounded, so TTL sweeps still
            // happen while idle).
            match self.rx.recv_timeout(self.idle_tick) {
                Ok(req) => {
                    if self.handle(req) {
                        return self.final_drain_and_flush();
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
            // Serve until idle: drain whatever queued, then run one
            // batched step, repeating so fresh submits coalesce into the
            // next batch instead of waiting for the queue to empty.
            loop {
                if self.drain() {
                    return self.final_drain_and_flush();
                }
                if self.engine.pending() == 0 {
                    break;
                }
                self.step_and_deliver();
                self.sweep_ttl();
            }
            self.sweep_ttl();
        }
    }

    /// The trace-sampling key of the stream with session key `key` on
    /// this shard — [`crate::StreamId::trace_key`] of the id the client
    /// holds, so both sides sample the same streams.
    fn trace_key(&self, key: u64) -> u64 {
        crate::StreamId::from_wire(self.shard, key).trace_key()
    }

    /// Winds the shard down: the `Shutdown` marker is the linearization
    /// point. Every request the worker dequeued *before* it was served
    /// normally, and every token the engine accepted is stepped to its
    /// result here; requests raced in *behind* the marker are rejected
    /// (opens fail, submits count as rejected, closes still honored) so
    /// intake really stops and shutdown cannot be held open by a client
    /// that keeps sending.
    fn final_drain_and_flush(&mut self) {
        loop {
            while let Ok(req) = self.rx.try_recv() {
                self.reject(req);
            }
            if self.engine.pending() == 0 {
                break;
            }
            self.step_and_deliver();
        }
        self.publish_engine_and_events();
    }

    /// One engine step plus result fan-out. The delivered-id slice
    /// borrows the engine, so it is translated to session keys into the
    /// worker's reused buffer before `deliver` re-borrows the engine
    /// mutably.
    ///
    /// Engine counters are published **between** the step and the
    /// fan-out: a client holding a result can never read engine stats
    /// predating the step that produced it (publishing once per outer
    /// loop pass, as before, let a burst of steps deliver results whose
    /// tokens the published counters had not caught up with).
    fn step_and_deliver(&mut self) {
        self.delivered.clear();
        let mut delivered = std::mem::take(&mut self.delivered);
        let step_started = Instant::now();
        let stepped = self.engine.step();
        let now = Instant::now();
        delivered.extend(stepped.iter().map(|id| self.keys[&id.0]));
        if !delivered.is_empty() {
            self.shared
                .step_time
                .record(duration_nanos(now.duration_since(step_started)));
        }
        let prev = self.last_stats;
        self.publish_engine_and_events();
        let stats = *self.engine.stats();
        if self.sampler.is_enabled() && !delivered.is_empty() {
            self.record_step_spans(&prev, &stats, &delivered, step_started, now);
        }
        self.last_stats = stats;
        for &key in &delivered {
            self.deliver(key, now);
        }
        self.post_batch();
        delivered.clear();
        self.delivered = delivered;
    }

    /// Emits one `BatchStep` span (plus [`Stage`] child spans) per
    /// *sampled* session this step delivered to. The step's stage laps
    /// are not re-measured — the child spans re-use the engine's own
    /// [`StageClock`](zskip_telemetry::StageClock) accounting by diffing
    /// the cumulative breakdown across the step, laid out back-to-back
    /// ending at the step's end (the laps run sequentially inside the
    /// step, with the delivery lap last). Payloads: the parent carries
    /// `a = step index`, `b = (batch size << 16) | skip permille`; each
    /// child carries `a = step index` so a reader can re-associate them.
    fn record_step_spans(
        &self,
        prev: &EngineStats,
        cur: &EngineStats,
        delivered: &[u64],
        started: Instant,
        ended: Instant,
    ) {
        let spans = &self.shared.spans;
        let start_ns = spans.nanos_since_origin(started);
        let end_ns = spans.nanos_since_origin(ended).max(start_ns);
        let window = end_ns - start_ns;
        let step_index = cur.steps;
        let fetched = cur.fetched_rows.saturating_sub(prev.fetched_rows);
        let total = cur.total_rows.saturating_sub(prev.total_rows);
        let skip_permille = fetched
            .saturating_mul(1000)
            .checked_div(total)
            .map_or(0, |fetched_permille| {
                1000u64.saturating_sub(fetched_permille.min(1000))
            });
        let payload = ((delivered.len() as u64) << 16) | skip_permille;
        // Per-step stage laps, scaled down proportionally in the rare
        // case clock skew makes their sum exceed the step window, so the
        // children always nest inside the parent.
        let delta = cur.stages.saturating_sub(&prev.stages);
        let lap_sum = delta.total();
        let mut laps = [0u64; Stage::COUNT];
        for (lap, stage) in laps.iter_mut().zip(Stage::ALL) {
            let d = delta.get(stage);
            *lap = if lap_sum > window {
                ((d as u128 * window as u128) / lap_sum as u128) as u64
            } else {
                d
            };
        }
        let laid: u64 = laps.iter().sum();
        for &key in delivered {
            let key = self.trace_key(key);
            if !self.sampler.sampled(key) {
                continue;
            }
            let trace = TraceId(key);
            spans.push_raw(
                trace,
                SpanKind::BatchStep,
                start_ns,
                end_ns,
                step_index,
                payload,
            );
            let mut cursor = end_ns - laid;
            for (lap, stage) in laps.iter().zip(Stage::ALL) {
                if *lap == 0 {
                    continue;
                }
                spans.push_raw(
                    trace,
                    SpanKind::Stage(stage),
                    cursor,
                    cursor + lap,
                    step_index,
                    0,
                );
                cursor += lap;
            }
        }
    }

    /// Publishes the engine's counters to the shared block and emits a
    /// `DenseFallback` event whenever the dense-step counter advanced
    /// since the last publish (detail = how many dense steps ran).
    fn publish_engine_and_events(&mut self) {
        let stats = *self.engine.stats();
        self.shared.publish_engine(&stats);
        if stats.dense_steps > self.last_dense_steps {
            self.shared.events.push(
                EventKind::DenseFallback,
                stats.dense_steps - self.last_dense_steps,
            );
            self.last_dense_steps = stats.dense_steps;
        }
    }

    /// Disposes of a request that arrived after shutdown began. Intake
    /// requests fail fast — a raced `Open` is dropped with its outlet,
    /// which tells the client (already holding the id) `Evicted`; closes
    /// are still applied so the session accounting stays truthful to the
    /// end.
    fn reject(&mut self, req: Request<M::Input>) {
        self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        match req {
            Request::Open { .. } => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
            }
            Request::Submit { .. } => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
            }
            Request::SubmitMany { inputs, .. } => {
                self.shared
                    .rejected
                    .fetch_add(inputs.len() as u64, Ordering::Relaxed);
            }
            Request::Close { id } => {
                self.end_session(id.0);
            }
            Request::Shutdown => {}
        }
    }

    /// The one way out of a session — close, TTL, slow consumer: closes
    /// the engine session and clears the entry from **both** maps.
    /// Dropping the returned entry drops its outlet, which posts the
    /// `Evicted` notice unless the client let go of the stream first.
    fn end_session(&mut self, key: u64) -> Option<SessionEntry<M::Input>> {
        let entry = self.sessions.remove(&key)?;
        self.keys.remove(&entry.engine_id.0);
        debug_assert_eq!(self.sessions.len(), self.keys.len());
        self.engine
            .close_session(entry.engine_id)
            .expect("a tracked session is open in the engine");
        // The opening client counted the session in (see `Client::open`).
        self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
        Some(entry)
    }

    /// Ends a session server-side (TTL or slow consumer) and accounts
    /// for it; the dropped entry's outlet tells the client.
    fn evict(&mut self, key: u64) {
        self.end_session(key);
        self.shared.evicted_sessions.fetch_add(1, Ordering::Relaxed);
        self.shared.events.push(EventKind::SessionEvict, key);
    }

    /// Handles queued requests without blocking; `true` means shutdown.
    fn drain(&mut self) -> bool {
        loop {
            match self.rx.try_recv() {
                Ok(req) => {
                    if self.handle(req) {
                        return true;
                    }
                }
                Err(TryRecvError::Empty) => return false,
                Err(TryRecvError::Disconnected) => return true,
            }
        }
    }

    /// Applies one request; `true` means shutdown.
    fn handle(&mut self, req: Request<M::Input>) -> bool {
        self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let now = Instant::now();
        match req {
            Request::Open { outlet } => {
                let key = outlet.id.session.0;
                let engine_id = self.engine.open_session();
                self.keys.insert(engine_id.0, key);
                self.sessions.insert(
                    key,
                    SessionEntry {
                        engine_id,
                        outlet,
                        last_active: now,
                        enqueued_at: VecDeque::new(),
                    },
                );
                self.shared.events.push(EventKind::SessionOpen, key);
            }
            Request::Submit {
                id,
                input,
                enqueued,
            } => match self.sessions.get_mut(&id.0) {
                Some(entry) if self.engine.submit(entry.engine_id, input).is_ok() => {
                    entry.last_active = now;
                    entry.enqueued_at.push_back(enqueued);
                    self.shared.submitted.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .queue_wait
                        .record(duration_nanos(now.duration_since(enqueued)));
                    let key = self.trace_key(id.0);
                    if self.sampler.sampled(key) {
                        self.shared.spans.record(
                            TraceId(key),
                            SpanKind::QueueWait,
                            enqueued,
                            now,
                            1,
                            0,
                        );
                    }
                }
                _ => {
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                }
            },
            Request::SubmitMany {
                id,
                inputs,
                enqueued,
            } => {
                let total = inputs.len();
                let mut accepted = 0usize;
                if let Some(entry) = self.sessions.get_mut(&id.0) {
                    for input in inputs {
                        // A validation reject fails only the offending
                        // input (a stale session, every one: `total`
                        // below) — count each outcome individually so
                        // the gauges stay exact.
                        if self.engine.submit(entry.engine_id, input).is_ok() {
                            accepted += 1;
                        }
                    }
                    if accepted > 0 {
                        entry.last_active = now;
                        for _ in 0..accepted {
                            entry.enqueued_at.push_back(enqueued);
                        }
                    }
                }
                if accepted > 0 {
                    self.shared
                        .submitted
                        .fetch_add(accepted as u64, Ordering::Relaxed);
                    // One queue hop carried the whole burst; each token
                    // waited the same wall-clock, so record it per token
                    // to keep the histogram's unit (one sample = one
                    // accepted token) uniform across both submit paths.
                    let wait = duration_nanos(now.duration_since(enqueued));
                    for _ in 0..accepted {
                        self.shared.queue_wait.record(wait);
                    }
                    // One span for the whole burst; `a` carries how many
                    // tokens shared this queue hop.
                    let key = self.trace_key(id.0);
                    if self.sampler.sampled(key) {
                        self.shared.spans.record(
                            TraceId(key),
                            SpanKind::QueueWait,
                            enqueued,
                            now,
                            accepted as u64,
                            0,
                        );
                    }
                }
                if total > accepted {
                    self.shared
                        .rejected
                        .fetch_add((total - accepted) as u64, Ordering::Relaxed);
                }
            }
            Request::Close { id } => {
                if self.end_session(id.0).is_some() {
                    self.shared.events.push(EventKind::SessionClose, id.0);
                } else {
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
            Request::Shutdown => return true,
        }
        false
    }

    /// Stages one freshly delivered engine result for its stream's
    /// mailbox ([`Worker::post_batch`] posts the step's lot).
    fn deliver(&mut self, key: u64, now: Instant) {
        let entry = self
            .sessions
            .get_mut(&key)
            .expect("delivered session is tracked");
        let result = self
            .engine
            .poll(entry.engine_id)
            .expect("delivered session resolves")
            .expect("delivered session has a result");
        entry.last_active = now;
        // Pop unconditionally — the token was processed either way, and
        // the queue must stay aligned with future deliveries.
        let enqueued_at = entry.enqueued_at.pop_front();
        let stream = &entry.outlet.shared;
        // The client let go of the stream and its `Close` is on its way:
        // the result is undeliverable, the session stays live until then.
        if stream.closed.load(Ordering::Acquire) {
            return;
        }
        // The stream already holds its bound of unread results: the
        // consumer stopped recv-ing while submitting. Evict instead of
        // buffering without bound — the worker must never block on a
        // client. (Dropping the entry posts the `Evicted` notice behind
        // the results already in the mailbox.)
        if stream.unread.load(Ordering::Relaxed) >= self.result_capacity {
            self.evict(key);
            return;
        }
        stream.unread.fetch_add(1, Ordering::Relaxed);
        if let Some(enqueued) = enqueued_at {
            self.shared
                .token_latency
                .record(duration_nanos(now.duration_since(enqueued)));
        }
        let missed_deadline = match (enqueued_at, self.token_deadline) {
            (Some(enqueued), Some(deadline)) => now.duration_since(enqueued) > deadline,
            _ => false,
        };
        // Count before posting so the gauge never lags a result a client
        // has already received.
        self.shared.delivered.fetch_add(1, Ordering::Relaxed);
        if missed_deadline {
            self.shared.deadline_misses.fetch_add(1, Ordering::Relaxed);
            self.shared.events.push(EventKind::DeadlineMiss, key);
        }
        // A result for another client than the staged ones closes the
        // batch: each run of one client's results shares a lock and a wake.
        let (id, mailbox) = (entry.outlet.id, &entry.outlet.mailbox);
        if !self
            .batch_to
            .as_ref()
            .is_some_and(|to| Arc::ptr_eq(to, mailbox))
        {
            let mailbox = Arc::clone(mailbox);
            self.post_batch();
            self.batch_to = Some(mailbox);
        }
        self.batch.push(Entry::Result(id, result));
        // Delivery span: step end → result staged for the client's
        // mailbox (`a` = whether the deadline was met).
        let key = self.trace_key(key);
        if self.sampler.sampled(key) {
            self.shared.spans.record(
                TraceId(key),
                SpanKind::Delivery,
                now,
                Instant::now(),
                u64::from(!missed_deadline),
                0,
            );
        }
    }

    /// Posts the staged entries to their client: one lock, and one wake
    /// if (and only if) the client is parked.
    fn post_batch(&mut self) {
        if let Some(mailbox) = self.batch_to.take() {
            mailbox.post(self.batch.drain(..));
        }
    }

    /// Closes sessions idle past the TTL. Rate-limited to one scan per
    /// idle tick so steady load does not pay a full-table sweep per step.
    fn sweep_ttl(&mut self) {
        let Some(ttl) = self.session_ttl else { return };
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < self.idle_tick {
            return;
        }
        self.last_sweep = now;
        let expired: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, e)| now.duration_since(e.last_active) > ttl)
            .map(|(&key, _)| key)
            .collect();
        for key in expired {
            self.evict(key);
        }
    }
}
