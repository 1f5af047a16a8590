//! The sharded server: N worker threads, each owning a private [`Engine`],
//! fed by bounded request queues.
//!
//! ```text
//!               ┌────────────── Server ──────────────┐
//!  Client ──┬──▶ queue 0 ─▶ worker 0: Engine shard 0 ─┬─▶ per-stream
//!  Client ──┼──▶ queue 1 ─▶ worker 1: Engine shard 1 ─┼─▶ result
//!   ...     └──▶ queue k ─▶ worker k: Engine shard k ─┘   channels
//! ```
//!
//! Each worker drains its queue, coalesces every ready session into
//! batched engine steps, forwards results to the owning stream's channel,
//! and sweeps idle sessions past the TTL. Queues are `sync_channel`s with
//! a fixed capacity, so a flooded shard pushes back on producers instead
//! of buffering without bound.

use crate::client::{stream_trace_key, Client};
use crate::stats::{duration_nanos, ServerStats, ShardEvent, ShardShared};
use crate::trace_export::{ShardSpan, TraceExport};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zskip_runtime::{
    Engine, EngineConfig, EngineStats, FrozenCharLm, FrozenModel, SessionId, Stage, StepResult,
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
    /// Capacity of each stream's bounded result channel. A consumer that
    /// stops `recv`ing while submitting is **evicted** once its channel
    /// fills — results are never buffered without bound.
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

    /// Sets the per-stream result-channel capacity.
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
    /// Open a session; reply with its generational id and register the
    /// stream's (bounded) result channel plus the owning client's
    /// wakeup channel (signalled on every delivery so a blocked
    /// `recv_any` wakes immediately).
    Open {
        reply: Sender<SessionId>,
        results: SyncSender<StepResult<I>>,
        wakeup: SyncSender<()>,
    },
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
    /// Close a session and drop its result channel.
    Close { id: SessionId },
    /// Stop the worker after the queue drained up to this request.
    Shutdown,
}

impl<I> Request<I> {
    /// The raw session id this request targets, for event payloads
    /// (0 for requests without a session: opens and shutdowns).
    pub(crate) fn session_detail(&self) -> u64 {
        match self {
            Request::Submit { id, .. } | Request::SubmitMany { id, .. } | Request::Close { id } => {
                id.0
            }
            Request::Open { .. } | Request::Shutdown => 0,
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
/// [`crate::StreamId`] carries the shard plus the engine's generational
/// [`SessionId`], so every later request routes to the same engine and
/// stale handles keep failing loudly.
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
    result_capacity: usize,
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
            result_capacity: config.result_capacity,
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
            self.result_capacity,
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
            shard
                .shared
                .queue_depth
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            // A full queue still delivers Shutdown eventually; a
            // disconnected one means the worker is already gone.
            if shard.tx.send(Request::Shutdown).is_err() {
                shard
                    .shared
                    .queue_depth
                    .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
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
    results: SyncSender<StepResult<I>>,
    /// The owning client's wakeup channel (capacity 1): `try_send` after
    /// every delivery — and before any removal of this entry — so a
    /// `recv_any` blocked on the client side wakes immediately instead
    /// of parking on a sweep interval. A full channel just means a
    /// wakeup is already pending.
    wakeup: SyncSender<()>,
    last_active: Instant,
    /// Submit timestamps of queued inputs, for deadline accounting.
    enqueued_at: std::collections::VecDeque<Instant>,
}

/// One shard's worker loop state.
struct Worker<M: FrozenModel> {
    engine: Engine<M>,
    rx: Receiver<Request<M::Input>>,
    shared: Arc<ShardShared>,
    sessions: HashMap<u64, SessionEntry<M::Input>>,
    session_ttl: Option<Duration>,
    token_deadline: Option<Duration>,
    idle_tick: Duration,
    last_sweep: Instant,
    /// Reused copy of the ids one engine step delivered (the engine's
    /// own slice borrows its scratch, which `deliver` needs mutably).
    delivered: Vec<SessionId>,
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
    /// borrows the engine, so it is copied into the worker's reused
    /// buffer before `deliver` re-borrows the engine mutably.
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
        delivered.extend_from_slice(self.engine.step());
        let now = Instant::now();
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
        for &id in &delivered {
            self.deliver(id, now);
        }
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
        delivered: &[SessionId],
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
        for &sid in delivered {
            let key = stream_trace_key(self.shard, sid);
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
    /// requests fail fast (the dropped `reply` sender surfaces as
    /// `ServerClosed` to a waiting `open`); closes are still applied so
    /// the session accounting stays truthful to the end.
    fn reject(&mut self, req: Request<M::Input>) {
        use std::sync::atomic::Ordering;
        self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        match req {
            Request::Open { .. } => {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
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
                if self.engine.close_session(id).is_ok() {
                    self.remove_session(id);
                    self.shared
                        .open_sessions
                        .store(self.sessions.len(), Ordering::Relaxed);
                }
            }
            Request::Shutdown => {}
        }
    }

    /// Removes a session entry, waking its client first: a `recv_any`
    /// blocked on the entry's stream must resweep promptly to observe
    /// the dropped result channel instead of sleeping out its timeout.
    fn remove_session(&mut self, id: SessionId) {
        if let Some(entry) = self.sessions.remove(&id.0) {
            let _ = entry.wakeup.try_send(());
        }
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
        use std::sync::atomic::Ordering;
        self.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let now = Instant::now();
        match req {
            Request::Open {
                reply,
                results,
                wakeup,
            } => {
                let id = self.engine.open_session();
                self.sessions.insert(
                    id.0,
                    SessionEntry {
                        results,
                        wakeup,
                        last_active: now,
                        enqueued_at: std::collections::VecDeque::new(),
                    },
                );
                self.shared
                    .open_sessions
                    .store(self.sessions.len(), Ordering::Relaxed);
                self.shared.events.push(EventKind::SessionOpen, id.0);
                // The client may have died while waiting (it never saw the
                // id, so its Drop cannot close this session); the TTL
                // sweep reclaims the orphan when a TTL is configured.
                let _ = reply.send(id);
            }
            Request::Submit {
                id,
                input,
                enqueued,
            } => match self.engine.submit(id, input) {
                Ok(()) => {
                    let entry = self
                        .sessions
                        .get_mut(&id.0)
                        .expect("engine accepted a session the worker does not track");
                    entry.last_active = now;
                    entry.enqueued_at.push_back(enqueued);
                    self.shared.submitted.fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .queue_wait
                        .record(duration_nanos(now.duration_since(enqueued)));
                    let key = stream_trace_key(self.shard, id);
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
                Err(_) => {
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
                for input in inputs {
                    // A stale session fails every submit, a validation
                    // reject only the offending input — count each
                    // outcome individually so the gauges stay exact.
                    if self.engine.submit(id, input).is_ok() {
                        accepted += 1;
                    }
                }
                if accepted > 0 {
                    let entry = self
                        .sessions
                        .get_mut(&id.0)
                        .expect("engine accepted a session the worker does not track");
                    entry.last_active = now;
                    for _ in 0..accepted {
                        entry.enqueued_at.push_back(enqueued);
                    }
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
                    let key = stream_trace_key(self.shard, id);
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
                if self.engine.close_session(id).is_ok() {
                    self.remove_session(id);
                    self.shared
                        .open_sessions
                        .store(self.sessions.len(), Ordering::Relaxed);
                    self.shared.events.push(EventKind::SessionClose, id.0);
                } else {
                    self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                }
            }
            Request::Shutdown => return true,
        }
        false
    }

    /// Forwards one freshly delivered engine result to its stream.
    fn deliver(&mut self, id: SessionId, now: Instant) {
        use std::sync::atomic::Ordering;
        use std::sync::mpsc::TrySendError;
        let result = self
            .engine
            .poll(id)
            .expect("delivered session resolves")
            .expect("delivered session has a result");
        let entry = self
            .sessions
            .get_mut(&id.0)
            .expect("delivered session is tracked");
        entry.last_active = now;
        // Pop unconditionally — the token was processed either way, and
        // the queue must stay aligned with future deliveries.
        let enqueued_at = entry.enqueued_at.pop_front();
        if let Some(enqueued) = enqueued_at {
            self.shared
                .token_latency
                .record(duration_nanos(now.duration_since(enqueued)));
        }
        let missed_deadline = match (enqueued_at, self.token_deadline) {
            (Some(enqueued), Some(deadline)) => now.duration_since(enqueued) > deadline,
            _ => false,
        };
        // Count before sending so the gauge never lags a result a client
        // has already received; un-count on the paths where the result
        // could not reach the stream.
        self.shared.delivered.fetch_add(1, Ordering::Relaxed);
        if missed_deadline {
            self.shared.deadline_misses.fetch_add(1, Ordering::Relaxed);
            self.shared.events.push(EventKind::DeadlineMiss, id.0);
        }
        match entry.results.try_send(result) {
            Ok(()) => {
                // Wake the owning client: a `recv_any` parked on the
                // wakeup channel picks this result up immediately. Full
                // just means a wakeup is already pending.
                let _ = entry.wakeup.try_send(());
                // Delivery span: step end → result handed to the stream
                // channel (`a` = whether the deadline was met).
                let key = stream_trace_key(self.shard, id);
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
            // The stream's result channel is full: the consumer stopped
            // recv-ing while submitting. Evict instead of buffering
            // without bound — the worker must never block on a client.
            Err(TrySendError::Full(_)) => {
                self.shared.delivered.fetch_sub(1, Ordering::Relaxed);
                if missed_deadline {
                    self.shared.deadline_misses.fetch_sub(1, Ordering::Relaxed);
                }
                let _ = self.engine.close_session(id);
                self.remove_session(id);
                self.shared.evicted_sessions.fetch_add(1, Ordering::Relaxed);
                self.shared.events.push(EventKind::SessionEvict, id.0);
                self.shared
                    .open_sessions
                    .store(self.sessions.len(), Ordering::Relaxed);
            }
            // A dropped receiver just means the client abandoned the
            // stream; the result is undeliverable but the session stays
            // live until closed or TTL-evicted.
            Err(TrySendError::Disconnected(_)) => {
                self.shared.delivered.fetch_sub(1, Ordering::Relaxed);
                if missed_deadline {
                    self.shared.deadline_misses.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Closes sessions idle past the TTL. Rate-limited to one scan per
    /// idle tick so steady load does not pay a full-table sweep per step.
    fn sweep_ttl(&mut self) {
        use std::sync::atomic::Ordering;
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
            .map(|(&raw, _)| raw)
            .collect();
        for raw in expired {
            let _ = self.engine.close_session(SessionId(raw));
            self.remove_session(SessionId(raw));
            self.shared.evicted_sessions.fetch_add(1, Ordering::Relaxed);
            self.shared.events.push(EventKind::SessionEvict, raw);
        }
        self.shared
            .open_sessions
            .store(self.sessions.len(), Ordering::Relaxed);
    }
}
