//! The blocking client handle: open / send / recv / recv_any / close.

use crate::error::ServeError;
use crate::mailbox::{Entry, Mailbox, Outlet, StreamShared};
use crate::server::{Request, ShardHandle};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::TrySendError;
use std::sync::Arc;
use std::time::{Duration, Instant};
use zskip_runtime::{EngineError, FrozenCharLm, FrozenModel, InputSpec, SessionId, StepResult};
use zskip_telemetry::{EventKind, SpanKind, TraceId};

/// Handle to one open stream: the owning shard plus the stream's session
/// key — the server-wide open ticket, unique across clients and never
/// reused, so a handle to a closed stream keeps failing instead of
/// aliasing a new one. The client mints it; `open` waits for no reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId {
    pub(crate) shard: u32,
    pub(crate) session: SessionId,
}

impl StreamId {
    /// The shard this stream lives on.
    pub fn shard(&self) -> usize {
        self.shard as usize
    }

    /// The stream's never-reused session key, in the runtime's id type
    /// for the wire format's sake. It is *not* an engine session id: the
    /// shard worker maps it to one.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// This stream's deterministic trace-sampling key: the one value the
    /// client, the shard worker and [`crate::Server::is_traced`] all
    /// hash, so they always agree on which streams are sampled.
    pub fn trace_key(&self) -> u64 {
        (self.shard as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.session.0)
    }

    /// Reassembles a stream id from its two wire-format halves — the
    /// `(shard, session)` pair `zskip-wire` sends over the socket. A
    /// forged pair is harmless: ids only resolve through the client
    /// map that opened them, so an unknown reassembled id fails with
    /// `UnknownStream` exactly like a stale local one.
    pub fn from_wire(shard: u32, session: u64) -> Self {
        Self {
            shard,
            session: SessionId(session),
        }
    }
}

/// The client's side of one open stream.
struct Stream<I> {
    shared: Arc<StreamShared>,
    /// Results a `recv` on *another* stream popped on its way to its
    /// own; empty (and unallocated) for a stream nobody overtakes.
    stash: VecDeque<StepResult<I>>,
    /// An `Evicted` notice was popped while the caller was waiting on
    /// another stream; reported once the stash is drained.
    evicted: bool,
}

impl<I> Stream<I> {
    /// What this stream contributes to [`Client::set_aside`].
    fn set_aside(&self) -> usize {
        self.stash.len() + usize::from(self.evicted)
    }
}

/// A blocking client of a [`crate::Server`], generic over the served
/// model family (the input type follows: token ids for the LM families,
/// pixels for the classifier).
///
/// A client owns **one result mailbox**: every shard that hosts one of
/// its streams posts `(stream, result)` entries into it in delivery
/// order. [`Client::recv_any`] pops the next entry; [`Client::recv`]
/// pops until its stream's turn comes, setting the others' results aside
/// per stream. A stream therefore costs a map entry and two shared
/// words — nothing is sized by `result_capacity`. Clients are
/// independent — create one per driving thread via
/// [`crate::Server::client`].
pub struct Client<M: FrozenModel = FrozenCharLm> {
    shards: Arc<Vec<ShardHandle<M::Input>>>,
    open_counter: Arc<AtomicU64>,
    spec: M::Spec,
    streams: HashMap<StreamId, Stream<M::Input>>,
    recv_timeout: Option<Duration>,
    mailbox: Arc<Mailbox<M::Input>>,
    /// Entries taken out of the mailbox (a whole batch per lock) and not
    /// yet looked at.
    inbox: VecDeque<Entry<M::Input>>,
    /// Stashed results plus pending eviction notices over all streams:
    /// while zero — always, for a caller that sticks to one of `recv` /
    /// `recv_any` in arrival order — `recv_any` goes straight to the
    /// mailbox without looking at any stream.
    set_aside: usize,
    /// Copy of the server's deterministic stream sampler, so the client
    /// stitches its side of a sampled stream into the same trace the
    /// worker records.
    sampler: zskip_telemetry::TraceSampler,
}

impl<M: FrozenModel> Client<M> {
    pub(crate) fn new(
        shards: Arc<Vec<ShardHandle<M::Input>>>,
        open_counter: Arc<AtomicU64>,
        spec: M::Spec,
        sampler: zskip_telemetry::TraceSampler,
    ) -> Self {
        Self {
            shards,
            open_counter,
            spec,
            streams: HashMap::new(),
            recv_timeout: None,
            mailbox: Arc::new(Mailbox::new()),
            inbox: VecDeque::new(),
            set_aside: 0,
            sampler,
        }
    }

    /// Sets a timeout for blocking [`Client::recv`] calls
    /// ([`ServeError::RecvTimeout`] once exceeded).
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = Some(timeout);
        self
    }

    /// The served family's input-domain descriptor (for validation and
    /// load-generation sampling — no weights attached).
    pub fn input_spec(&self) -> M::Spec {
        self.spec
    }

    /// Streams this client currently holds open.
    pub fn open_streams(&self) -> usize {
        self.streams.len()
    }

    /// The ids of every stream this client holds open, sorted. Lets a
    /// front-end that multiplexes many streams over one client (the
    /// wire pump) diff the set across a [`Client::recv_any`] call and
    /// learn *which* streams were evicted mid-wait.
    pub fn open_stream_ids(&self) -> Vec<StreamId> {
        let mut ids: Vec<StreamId> = self.streams.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Opens a new stream and returns at once: the global open ticket is
    /// both the placement hash's input and the stream's session key, so
    /// there is no reply to wait for — one request on the shard's queue,
    /// which per-shard FIFO orders before the stream's first submit. The
    /// cost is independent of `result_capacity`. Blocks while the shard's
    /// queue is full; [`ServeError::ServerClosed`] once the shard is gone.
    /// An open that races a shutdown and is never served surfaces as
    /// [`ServeError::Evicted`] on the stream's first `recv`.
    pub fn open(&mut self) -> Result<StreamId, ServeError> {
        let ticket = self.open_counter.fetch_add(1, Ordering::Relaxed);
        let shard = (zskip_tensor::rng::mix64(ticket) % self.shards.len() as u64) as u32;
        let id = StreamId {
            shard,
            session: SessionId(ticket),
        };
        let shared = Arc::new(StreamShared::default());
        let outlet = Outlet {
            id,
            mailbox: Arc::clone(&self.mailbox),
            shared: Arc::clone(&shared),
        };
        // The stream counts as open from here, not from when the worker
        // gets to the request: a caller holding an id must find it in
        // `ServerStats::open_sessions`. The worker counts it out again.
        let open_sessions = &self.shards[shard as usize].shared.open_sessions;
        open_sessions.fetch_add(1, Ordering::Relaxed);
        // On failure the request dies with its outlet, whose notice for
        // an id nobody holds is dropped on pop like a closed stream's.
        if let Err(e) = self.send_request(shard, Request::Open { outlet }, true) {
            open_sessions.fetch_sub(1, Ordering::Relaxed);
            return Err(e);
        }
        self.streams.insert(
            id,
            Stream {
                shared,
                stash: VecDeque::new(),
                evicted: false,
            },
        );
        Ok(id)
    }

    /// Feeds one input to a stream, blocking while the shard's queue is
    /// full (backpressure).
    pub fn send(&mut self, id: StreamId, input: M::Input) -> Result<(), ServeError> {
        self.submit(id, input, true)
    }

    /// Non-blocking [`Client::send`]: fails with
    /// [`ServeError::Backpressure`] instead of stalling when the shard's
    /// queue is full.
    pub fn try_send(&mut self, id: StreamId, input: M::Input) -> Result<(), ServeError> {
        self.submit(id, input, false)
    }

    /// Bulk submit: feeds every input of `inputs` to a stream in **one**
    /// queue request, in order, blocking while the shard's queue is full.
    /// A long scan — the classifier's 784-pixel MNIST stream — pays one
    /// channel round-trip instead of one per input, and the results come
    /// back exactly as if each input had been [`Client::send`]-ed
    /// individually (the engine queues per-session FIFO either way; the
    /// determinism test in `tests/` pins the two paths bit-for-bit).
    ///
    /// Every input is validated up front; on a validation failure
    /// nothing is submitted. An empty slice is a no-op.
    pub fn send_all(&mut self, id: StreamId, inputs: &[M::Input]) -> Result<(), ServeError> {
        if !self.streams.contains_key(&id) {
            return Err(ServeError::UnknownStream);
        }
        for input in inputs {
            if !self.spec.validate(input) {
                return Err(EngineError::InvalidInput.into());
            }
        }
        if inputs.is_empty() {
            return Ok(());
        }
        let started = Instant::now();
        let outcome = self.send_request(
            id.shard,
            Request::SubmitMany {
                id: id.session,
                inputs: inputs.to_vec(),
                enqueued: started,
            },
            true,
        );
        if outcome.is_ok() && self.is_traced(id) {
            self.record_span(
                id,
                SpanKind::ClientSubmit,
                started,
                Instant::now(),
                inputs.len() as u64,
                0,
            );
        }
        outcome
    }

    fn submit(&mut self, id: StreamId, input: M::Input, blocking: bool) -> Result<(), ServeError> {
        if !self.streams.contains_key(&id) {
            return Err(ServeError::UnknownStream);
        }
        if !self.spec.validate(&input) {
            return Err(EngineError::InvalidInput.into());
        }
        let started = Instant::now();
        let outcome = self.send_request(
            id.shard,
            Request::Submit {
                id: id.session,
                input,
                enqueued: started,
            },
            blocking,
        );
        if outcome.is_ok() && self.is_traced(id) {
            self.record_span(id, SpanKind::ClientSubmit, started, Instant::now(), 1, 0);
        }
        outcome
    }

    /// Pops the oldest undelivered result of a stream, blocking until one
    /// arrives (bounded by the receive timeout, when set). Results of
    /// other streams that arrive first are set aside for their own
    /// `recv`; they keep counting against those streams'
    /// `result_capacity` until handed out.
    pub fn recv(&mut self, id: StreamId) -> Result<StepResult<M::Input>, ServeError> {
        let stream = self.streams.get_mut(&id).ok_or(ServeError::UnknownStream)?;
        let started = self.sampler.sampled(id.trace_key()).then(Instant::now);
        let outcome = if let Some(result) = stream.stash.pop_front() {
            self.set_aside -= 1;
            Ok(result)
        } else if stream.evicted {
            Err(ServeError::Evicted)
        } else {
            let deadline = self.recv_timeout.map(|timeout| Instant::now() + timeout);
            loop {
                match self.next_entry(deadline) {
                    None => break Err(ServeError::RecvTimeout),
                    Some(Entry::Result(from, result)) if from == id => break Ok(result),
                    Some(Entry::Evicted(from)) if from == id => break Err(ServeError::Evicted),
                    // Another stream's entry: set it aside. Entries of
                    // streams this client no longer holds just drop.
                    Some(Entry::Result(from, result)) => {
                        if let Some(other) = self.streams.get_mut(&from) {
                            other.stash.push_back(result);
                            self.set_aside += 1;
                        }
                    }
                    Some(Entry::Evicted(from)) => {
                        if let Some(other) = self.streams.get_mut(&from) {
                            other.evicted = true;
                            self.set_aside += 1;
                        }
                    }
                }
            }
        };
        match &outcome {
            Ok(_) => {
                self.streams[&id]
                    .shared
                    .unread
                    .fetch_sub(1, Ordering::Relaxed);
                if let Some(started) = started {
                    self.record_span(id, SpanKind::ClientRecv, started, Instant::now(), 1, 0);
                }
            }
            // The session is gone server-side: forget the handle.
            Err(ServeError::Evicted) => {
                self.forget(id);
            }
            Err(_) => {}
        }
        outcome
    }

    /// Select-style receive: blocks until **any** of this client's open
    /// streams has a result and returns `(stream, result)` — so one
    /// driver thread can own many streams without round-robin `recv`
    /// polling of its own.
    ///
    /// This is a pop of the client's mailbox: the call parks on it and
    /// the posting worker wakes it (once per engine step, and only when
    /// it is parked) — idle receive latency is the thread wake itself,
    /// and the cost does not grow with the number of open streams.
    ///
    /// Fairness is arrival order: results come out in the order the
    /// shards delivered them, so a chatty stream cannot overtake a
    /// result that was delivered before its own. (Results an earlier
    /// [`Client::recv`] set aside are handed out first, in submit order
    /// per stream.) Streams found evicted server-side during the wait
    /// are dropped from the client (exactly as [`Client::recv`] does)
    /// and the wait continues on the rest; subsequent calls for the
    /// dropped id report [`ServeError::UnknownStream`].
    ///
    /// Errors: [`ServeError::UnknownStream`] when no stream is open
    /// (including when every stream was evicted mid-wait),
    /// [`ServeError::RecvTimeout`] when `timeout` elapses first.
    pub fn recv_any(
        &mut self,
        timeout: Duration,
    ) -> Result<(StreamId, StepResult<M::Input>), ServeError> {
        let deadline = Some(Instant::now() + timeout);
        loop {
            while self.set_aside > 0 {
                let (&id, stream) = self
                    .streams
                    .iter_mut()
                    .find(|(_, stream)| stream.set_aside() > 0)
                    .expect("set_aside counts what the streams hold");
                if let Some(result) = stream.stash.pop_front() {
                    self.set_aside -= 1;
                    stream.shared.unread.fetch_sub(1, Ordering::Relaxed);
                    return Ok((id, result));
                }
                self.forget(id);
            }
            if self.streams.is_empty() {
                return Err(ServeError::UnknownStream);
            }
            // Nothing is set aside past this point, so an entry is
            // either the caller's or about a stream to forget.
            match self.next_entry(deadline) {
                None => return Err(ServeError::RecvTimeout),
                Some(Entry::Result(id, result)) => {
                    if let Some(stream) = self.streams.get(&id) {
                        stream.shared.unread.fetch_sub(1, Ordering::Relaxed);
                        return Ok((id, result));
                    }
                }
                Some(Entry::Evicted(id)) => {
                    self.forget(id);
                }
            }
        }
    }

    /// The next mailbox entry, blocking until `deadline` (`None` = no
    /// limit); `None` when it passed first.
    fn next_entry(&mut self, deadline: Option<Instant>) -> Option<Entry<M::Input>> {
        if self.inbox.is_empty() && !self.mailbox.take(&mut self.inbox, deadline) {
            return None;
        }
        self.inbox.pop_front()
    }

    /// Drops a stream from the client's books (no request is sent);
    /// `false` if the client does not hold it.
    fn forget(&mut self, id: StreamId) -> bool {
        let Some(stream) = self.streams.remove(&id) else {
            return false;
        };
        self.set_aside -= stream.set_aside();
        // From here on nothing is owed to this stream: the worker stops
        // posting to it and its outlet's drop stays silent.
        stream.shared.closed.store(true, Ordering::Release);
        true
    }

    /// Closes a stream: undelivered results are dropped and the shard
    /// reclaims the session slot.
    pub fn close(&mut self, id: StreamId) -> Result<(), ServeError> {
        if !self.forget(id) {
            return Err(ServeError::UnknownStream);
        }
        self.send_request(id.shard, Request::Close { id: id.session }, true)
    }

    /// Whether a stream is being traced under the server's deterministic
    /// sampler. `false` for every stream when tracing is disabled
    /// (sampling rate 0 or `ZSKIP_TRACE=0`).
    pub fn is_traced(&self, id: StreamId) -> bool {
        self.sampler.sampled(id.trace_key())
    }

    /// Records a custom client-side span onto a traced stream's shard
    /// ring — a no-op when the stream is not sampled. The load generator
    /// uses this to stitch its submit→recv umbrella spans into the same
    /// trace the worker records; callers may attach their own
    /// [`SpanKind::Token`] spans the same way.
    pub fn record_span(
        &self,
        id: StreamId,
        kind: SpanKind,
        started: Instant,
        ended: Instant,
        a: u64,
        b: u64,
    ) {
        let key = id.trace_key();
        if self.sampler.sampled(key) {
            self.shards[id.shard as usize].shared.spans.record(
                TraceId(key),
                kind,
                started,
                ended,
                a,
                b,
            );
        }
    }

    fn send_request(
        &self,
        shard: u32,
        request: Request<M::Input>,
        blocking: bool,
    ) -> Result<(), ServeError> {
        let handle = &self.shards[shard as usize];
        handle.shared.queue_depth.fetch_add(1, Ordering::Relaxed);
        let sent = if blocking {
            // Probe with `try_send` first so the stall is observable:
            // `Full` means this sender is about to park on backpressure,
            // which is exactly what the event records. The extra probe
            // costs one channel CAS on the uncontended path.
            match handle.tx.try_send(request) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(request)) => {
                    handle
                        .shared
                        .events
                        .push(EventKind::BackpressureStall, request.session_detail());
                    // The stall itself becomes a span on sampled streams:
                    // the time this sender spent parked on the full queue
                    // shows up in the trace instead of hiding inside the
                    // submit latency.
                    let traced_session = match &request {
                        Request::Submit { id, .. }
                        | Request::SubmitMany { id, .. }
                        | Request::Close { id } => Some(*id),
                        Request::Open { outlet } => Some(outlet.id.session),
                        Request::Shutdown => None,
                    };
                    let stalled = Instant::now();
                    let outcome = handle
                        .tx
                        .send(request)
                        .map_err(|_| ServeError::ServerClosed);
                    if outcome.is_ok() {
                        if let Some(session) = traced_session {
                            let key = StreamId { shard, session }.trace_key();
                            if self.sampler.sampled(key) {
                                handle.shared.spans.record(
                                    TraceId(key),
                                    SpanKind::BackpressureStall,
                                    stalled,
                                    Instant::now(),
                                    0,
                                    0,
                                );
                            }
                        }
                    }
                    outcome
                }
                Err(TrySendError::Disconnected(_)) => Err(ServeError::ServerClosed),
            }
        } else {
            handle.tx.try_send(request).map_err(|e| match e {
                TrySendError::Full(_) => ServeError::Backpressure,
                TrySendError::Disconnected(_) => ServeError::ServerClosed,
            })
        };
        if sent.is_err() {
            handle.shared.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        sent
    }
}

impl<M: FrozenModel> Drop for Client<M> {
    /// Closes every stream this client still holds, so dropping a client
    /// (including via an early `?` return) cannot leak sessions in the
    /// shard engines — eviction by TTL is a safety net, not the cleanup
    /// path.
    fn drop(&mut self) {
        for id in self.open_stream_ids() {
            self.forget(id);
            // Best-effort: the server may already be gone.
            let _ = self.send_request(id.shard, Request::Close { id: id.session }, true);
        }
    }
}
