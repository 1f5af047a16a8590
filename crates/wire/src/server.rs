//! The TCP front-end: a [`TcpServer`] wrapping an untouched
//! [`zskip_serve::Server`].
//!
//! One acceptor thread owns the listener; each connection gets three
//! threads wired by bounded channels, so every window maps onto the
//! serving layer's existing backpressure semantics:
//!
//! ```text
//! socket ── reader ──▶ bounded requests ──▶ pump ──▶ bounded writes ──▶ writer ── socket
//!                                            │
//!                                   one serve::Client<M>
//! ```
//!
//! * the **reader** decodes frames zero-copy and converts them to
//!   owned requests; when the pump stalls (a shard queue is full, i.e.
//!   serving backpressure), the bounded request channel fills, the
//!   reader stops reading, and TCP flow control pushes back on the
//!   remote — no unbounded buffering anywhere,
//! * the **pump** owns the connection's [`zskip_serve::Client`]: it
//!   replays requests through the blocking in-process API and forwards
//!   results back, so remote streams inherit placement, ordering and
//!   eviction semantics *by construction*,
//! * the **writer** owns the socket's write half behind a bounded
//!   channel: a remote that stops reading fills it, stalls the pump,
//!   lets its streams' unread results reach `result_capacity`, and is
//!   evicted by the server's existing slow-consumer policy.
//!
//! Teardown is two-lane. A *clean* close (a `Goodbye` frame, or EOF on
//! a frame boundary) drains the in-flight results, closes the
//! remaining streams, and half-closes the socket. A *poisoned* close
//! (malformed frame, mid-frame disconnect, I/O error) drops the
//! connection's client immediately — its sessions are closed
//! server-side, the rest of the server keeps serving — and the event
//! ring records a `connection-poisoned` event.

use crate::error::WireError;
use crate::frame::{self, decode_frame, encode_frame, error_code, Frame};
use crate::model::{decode_input, decode_inputs, WireInput, WireModel, WireSpec};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use zskip_serve::{Client, ServeError, Server, StreamId};
use zskip_telemetry::{Event, EventKind, EventRing, HistogramSnapshot, LatencyHistogram};

/// How long the pump waits inside `recv_any` before re-checking its
/// request queue. Results wake it immediately (the serve client's
/// mailbox); this bounds only how long a *request* can sit
/// while no result arrives.
const RESULT_SLICE: Duration = Duration::from_millis(2);

/// Idle tick while a connection has nothing in flight: bounds stop-flag
/// latency and how long a TTL eviction of an idle remote stream goes
/// unreported.
const IDLE_SLICE: Duration = Duration::from_millis(25);

/// How long a clean close waits for in-flight results to drain before
/// giving up on them.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// Tuning knobs for the TCP front-end.
#[derive(Clone, Copy, Debug)]
pub struct TcpServerConfig {
    /// Per-connection in-flight request window (reader → pump). When
    /// full, the reader stops reading and TCP pushes back.
    pub request_window: usize,
    /// Per-connection outbound frame window (pump → writer). When
    /// full, the pump stalls and slow remote consumers get evicted by
    /// the serving layer's existing policy.
    pub write_window: usize,
    /// Capacity of the wire-level event ring.
    pub event_capacity: usize,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        Self {
            request_window: 256,
            write_window: 256,
            event_capacity: 256,
        }
    }
}

/// A point-in-time copy of the wire-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Connections that completed the handshake.
    pub connections_opened: u64,
    /// Connections torn down cleanly (goodbye / EOF on a frame
    /// boundary).
    pub connections_closed: u64,
    /// Connections torn down on a protocol or I/O error.
    pub connections_poisoned: u64,
    /// Sessions force-closed by poisoned-connection teardown.
    pub sessions_torn_down: u64,
    /// Frames decoded off sockets (post-handshake).
    pub frames_received: u64,
    /// Frames written to sockets.
    pub frames_sent: u64,
    /// Connections currently live.
    pub active_connections: u64,
}

struct WireShared {
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    connections_poisoned: AtomicU64,
    sessions_torn_down: AtomicU64,
    frames_received: AtomicU64,
    frames_sent: AtomicU64,
    active_connections: AtomicU64,
    events: EventRing,
    /// The connection lane: request-received → result-written latency
    /// per token, aggregated over all connections.
    latency: LatencyHistogram,
}

impl WireShared {
    fn new(event_capacity: usize) -> Self {
        Self {
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            connections_poisoned: AtomicU64::new(0),
            sessions_torn_down: AtomicU64::new(0),
            frames_received: AtomicU64::new(0),
            frames_sent: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            events: EventRing::new(event_capacity),
            latency: LatencyHistogram::new(),
        }
    }
}

/// Owned mirror of one decoded client frame, handed from the reader to
/// the pump.
enum ConnMsg<I> {
    Open,
    Submit {
        shard: u32,
        session: u64,
        input: I,
    },
    SubmitMany {
        shard: u32,
        session: u64,
        inputs: Vec<I>,
    },
    Close {
        shard: u32,
        session: u64,
    },
    CleanClose,
    Poisoned {
        reason: String,
    },
}

enum WriteCmd {
    Frame(Vec<u8>),
    /// Flush and half-close the write side.
    Shutdown,
}

struct ConnHandle {
    socket: TcpStream,
    threads: Vec<JoinHandle<()>>,
}

/// A TCP front-end serving one [`Server`] to remote
/// [`RemoteClient`](crate::RemoteClient)s.
pub struct TcpServer<M: WireModel> {
    server: Arc<Server<M>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<ConnHandle>>>,
    shared: Arc<WireShared>,
}

impl<M: WireModel> TcpServer<M> {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting connections for `server`.
    pub fn bind(server: Server<M>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::bind_with(server, addr, TcpServerConfig::default())
    }

    /// [`bind`](Self::bind) with explicit window sizes.
    pub fn bind_with(
        server: Server<M>,
        addr: impl ToSocketAddrs,
        config: TcpServerConfig,
    ) -> std::io::Result<Self> {
        assert!(config.request_window > 0, "request window must be >= 1");
        assert!(config.write_window > 0, "write window must be >= 1");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let server = Arc::new(server);
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let shared = Arc::new(WireShared::new(config.event_capacity));

        let acceptor = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("zskip-wire-accept".into())
                .spawn(move || {
                    let mut conn_id: u64 = 0;
                    loop {
                        let socket = match listener.accept() {
                            Ok((socket, _)) => socket,
                            Err(_) => {
                                if stop.load(Ordering::SeqCst) {
                                    break;
                                }
                                continue;
                            }
                        };
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        conn_id += 1;
                        let handle = spawn_connection::<M>(
                            socket,
                            conn_id,
                            Arc::clone(&server),
                            Arc::clone(&shared),
                            Arc::clone(&stop),
                            config,
                        );
                        if let Some(handle) = handle {
                            conns.lock().unwrap().push(handle);
                        }
                    }
                })
                .expect("spawn acceptor thread")
        };

        Ok(Self {
            server,
            addr,
            stop,
            acceptor: Some(acceptor),
            conns,
            shared,
        })
    }

    /// The bound listen address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped in-process server — stats, event rings and local
    /// clients all still work.
    pub fn server(&self) -> &Server<M> {
        &self.server
    }

    /// Snapshot of the wire-level counters.
    pub fn wire_stats(&self) -> WireStats {
        WireStats {
            connections_opened: self.shared.connections_opened.load(Ordering::Relaxed),
            connections_closed: self.shared.connections_closed.load(Ordering::Relaxed),
            connections_poisoned: self.shared.connections_poisoned.load(Ordering::Relaxed),
            sessions_torn_down: self.shared.sessions_torn_down.load(Ordering::Relaxed),
            frames_received: self.shared.frames_received.load(Ordering::Relaxed),
            frames_sent: self.shared.frames_sent.load(Ordering::Relaxed),
            active_connections: self.shared.active_connections.load(Ordering::Relaxed),
        }
    }

    /// Drains the wire-level event ring (connection opens, clean
    /// closes, poisoned teardowns).
    pub fn drain_wire_events(&self) -> Vec<Event> {
        self.shared.events.drain()
    }

    /// The connection lane of the latency histograms: request-received
    /// → result-written, per token, across all connections.
    pub fn wire_latency(&self) -> HistogramSnapshot {
        self.shared.latency.snapshot()
    }

    /// Stops accepting, tears down every live connection, joins all
    /// threads, and shuts the wrapped server down (draining accepted
    /// work exactly as [`Server::shutdown`] documents).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for conn in &conns {
            let _ = conn.socket.shutdown(Shutdown::Both);
        }
        for conn in conns {
            for t in conn.threads {
                let _ = t.join();
            }
        }
        if let Ok(server) = Arc::try_unwrap(self.server) {
            server.shutdown();
        }
    }
}

/// Builds the `HelloAck` frame bytes for a server of family `M`.
fn hello_ack_bytes<M: WireModel>(server: &Server<M>) -> Vec<u8> {
    let mut spec = Vec::new();
    server.input_spec().encode_spec(&mut spec);
    let mut bytes = Vec::new();
    encode_frame(
        &mut bytes,
        &Frame::HelloAck {
            family: M::FAMILY.tag(),
            shards: server.shard_count() as u32,
            spec: &spec,
        },
    );
    bytes
}

fn error_frame_bytes(code: u8, stream: Option<(u32, u64)>, message: &str) -> Vec<u8> {
    let (shard, session) = stream.unwrap_or((0, 0));
    let mut bytes = Vec::new();
    encode_frame(
        &mut bytes,
        &Frame::Error {
            code,
            shard,
            session,
            message,
        },
    );
    bytes
}

fn spawn_connection<M: WireModel>(
    socket: TcpStream,
    conn_id: u64,
    server: Arc<Server<M>>,
    shared: Arc<WireShared>,
    stop: Arc<AtomicBool>,
    config: TcpServerConfig,
) -> Option<ConnHandle> {
    socket.set_nodelay(true).ok();
    let reader_socket = socket.try_clone().ok()?;
    let writer_socket = socket.try_clone().ok()?;
    let (req_tx, req_rx) = sync_channel::<ConnMsg<M::Input>>(config.request_window);
    let (out_tx, out_rx) = sync_channel::<WriteCmd>(config.write_window);

    let writer = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("zskip-wire-write-{conn_id}"))
            .spawn(move || writer_loop(writer_socket, out_rx, &shared))
            .ok()?
    };

    let reader = {
        let shared = Arc::clone(&shared);
        let hello_ack = hello_ack_bytes(&server);
        let out_tx = out_tx.clone();
        std::thread::Builder::new()
            .name(format!("zskip-wire-read-{conn_id}"))
            .spawn(move || {
                reader_loop::<M::Input>(
                    reader_socket,
                    req_tx,
                    out_tx,
                    M::FAMILY.tag(),
                    hello_ack,
                    &shared,
                )
            })
            .ok()?
    };

    let pump = {
        let shared = Arc::clone(&shared);
        let client = server.client();
        std::thread::Builder::new()
            .name(format!("zskip-wire-pump-{conn_id}"))
            .spawn(move || pump_loop(client, conn_id, req_rx, out_tx, &shared, &stop))
            .ok()?
    };

    Some(ConnHandle {
        socket,
        threads: vec![reader, pump, writer],
    })
}

fn writer_loop(socket: TcpStream, out_rx: Receiver<WriteCmd>, shared: &WireShared) {
    let mut sink = std::io::BufWriter::new(&socket);
    let mut carried: Option<WriteCmd> = None;
    loop {
        let cmd = match carried.take() {
            Some(cmd) => cmd,
            None => match out_rx.recv() {
                Ok(cmd) => cmd,
                Err(_) => break, // pump gone: flush and stop
            },
        };
        match cmd {
            WriteCmd::Frame(bytes) => {
                if sink.write_all(&bytes).is_err() {
                    // The socket is gone; drain remaining commands so
                    // the pump never blocks on a full window forever.
                    drop(sink);
                    for _cmd in out_rx.iter() {}
                    return;
                }
                shared.frames_sent.fetch_add(1, Ordering::Relaxed);
                // Flush only when the queue goes momentarily empty:
                // batches coalesce, single frames still leave promptly.
                match out_rx.try_recv() {
                    Ok(next) => carried = Some(next),
                    Err(TryRecvError::Empty) => {
                        let _ = sink.flush();
                    }
                    Err(TryRecvError::Disconnected) => {
                        let _ = sink.flush();
                        break;
                    }
                }
            }
            WriteCmd::Shutdown => {
                let _ = sink.flush();
                let _ = socket.shutdown(Shutdown::Write);
                break;
            }
        }
    }
}

/// Reads, decodes and forwards frames until goodbye, EOF, or poison.
/// The handshake happens here: the first frame must be a valid `Hello`
/// matching this server's protocol version and model family.
fn reader_loop<I: WireInput>(
    mut socket: TcpStream,
    req_tx: SyncSender<ConnMsg<I>>,
    out_tx: SyncSender<WriteCmd>,
    family: u8,
    hello_ack: Vec<u8>,
    shared: &WireShared,
) {
    let poison = |req_tx: &SyncSender<ConnMsg<I>>, reason: String| {
        let _ = req_tx.send(ConnMsg::Poisoned { reason });
    };
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut shaken = false;
    loop {
        // Decode everything the buffer holds before reading again.
        let mut consumed = 0;
        loop {
            let frame = match decode_frame(&buf[consumed..]) {
                Ok(Some((frame, n))) => {
                    consumed += n;
                    frame
                }
                Ok(None) => break,
                Err(e) => {
                    let bytes = error_frame_bytes(error_code::HANDSHAKE, None, &e.to_string());
                    let _ = out_tx.try_send(WriteCmd::Frame(bytes));
                    poison(&req_tx, e.to_string());
                    return;
                }
            };
            if !shaken {
                match frame {
                    Frame::Hello { version, family: f } => {
                        if version != frame::PROTOCOL_VERSION {
                            let e = WireError::WrongVersion { found: version };
                            let bytes =
                                error_frame_bytes(error_code::HANDSHAKE, None, &e.to_string());
                            let _ = out_tx.try_send(WriteCmd::Frame(bytes));
                            poison(&req_tx, e.to_string());
                            return;
                        }
                        if f != family {
                            let e = WireError::WrongFamily {
                                expected: family,
                                found: f,
                            };
                            let bytes =
                                error_frame_bytes(error_code::HANDSHAKE, None, &e.to_string());
                            let _ = out_tx.try_send(WriteCmd::Frame(bytes));
                            poison(&req_tx, e.to_string());
                            return;
                        }
                        shaken = true;
                        if out_tx.send(WriteCmd::Frame(hello_ack.clone())).is_err() {
                            poison(&req_tx, "writer gone during handshake".into());
                            return;
                        }
                        continue;
                    }
                    other => {
                        let reason = format!("frame kind 0x{:02X} before handshake", other.kind());
                        let bytes = error_frame_bytes(error_code::HANDSHAKE, None, &reason);
                        let _ = out_tx.try_send(WriteCmd::Frame(bytes));
                        poison(&req_tx, reason);
                        return;
                    }
                }
            }
            shared.frames_received.fetch_add(1, Ordering::Relaxed);
            let msg = match frame {
                Frame::Open => ConnMsg::Open,
                Frame::Submit {
                    shard,
                    session,
                    input,
                } => match decode_input::<I>(input) {
                    Ok(input) => ConnMsg::Submit {
                        shard,
                        session,
                        input,
                    },
                    Err(e) => {
                        poison(&req_tx, e.to_string());
                        return;
                    }
                },
                Frame::SubmitMany {
                    shard,
                    session,
                    count,
                    inputs,
                } => match decode_inputs::<I>(count, inputs) {
                    Ok(inputs) => ConnMsg::SubmitMany {
                        shard,
                        session,
                        inputs,
                    },
                    Err(e) => {
                        poison(&req_tx, e.to_string());
                        return;
                    }
                },
                Frame::Close { shard, session } => ConnMsg::Close { shard, session },
                Frame::Goodbye => {
                    let _ = req_tx.send(ConnMsg::CleanClose);
                    return;
                }
                other => {
                    // A client must never send server-only frames.
                    poison(
                        &req_tx,
                        format!("unexpected client frame kind 0x{:02X}", other.kind()),
                    );
                    return;
                }
            };
            // Blocking send: this is the in-flight window. A stalled
            // pump (serving backpressure) stalls the reader, and TCP
            // flow control pushes back on the remote.
            if req_tx.send(msg).is_err() {
                return; // pump gone (server shutdown)
            }
        }
        buf.drain(..consumed);
        match socket.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    // EOF on a frame boundary: clean half-close even
                    // without an explicit goodbye.
                    let _ = req_tx.send(ConnMsg::CleanClose);
                } else {
                    poison(
                        &req_tx,
                        format!("mid-frame disconnect with {} buffered bytes", buf.len()),
                    );
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => {
                poison(&req_tx, format!("socket read failed: {e}"));
                return;
            }
        }
    }
}

/// Per-connection bridge between the wire and one in-process client.
struct Pump<I> {
    out_tx: SyncSender<WriteCmd>,
    /// Submit-instants per stream, FIFO — the connection latency lane.
    pending: HashMap<StreamId, std::collections::VecDeque<Instant>>,
    /// Total in-flight tokens (sum of `pending` queue lengths).
    outstanding: usize,
    _marker: std::marker::PhantomData<I>,
}

impl<I: WireInput> Pump<I> {
    fn send_frame(&self, frame: &Frame<'_>) -> bool {
        let mut bytes = Vec::new();
        encode_frame(&mut bytes, frame);
        self.out_tx.send(WriteCmd::Frame(bytes)).is_ok()
    }

    fn emit_result(
        &mut self,
        shared: &WireShared,
        id: StreamId,
        result: &zskip_runtime::StepResult<I>,
    ) -> bool {
        if let Some(queue) = self.pending.get_mut(&id) {
            if let Some(submitted) = queue.pop_front() {
                self.outstanding -= 1;
                shared.latency.record_duration(submitted.elapsed());
            }
        }
        let mut logits = Vec::new();
        frame::encode_logits(&mut logits, &result.logits);
        let mut input = Vec::new();
        result.input.encode(&mut input);
        self.send_frame(&Frame::Result {
            shard: id.shard() as u32,
            session: id.session().0,
            argmax: result.argmax as u64,
            logits: &logits,
            input: &input,
        })
    }

    /// Diffs the client's live stream set against `pending`, emitting
    /// `Evicted` frames for streams the serving layer dropped during a
    /// `recv_any` wait.
    fn sync_evictions<M: WireModel<Input = I>>(&mut self, client: &Client<M>) {
        if client.open_streams() == self.pending.len() {
            return;
        }
        let live: std::collections::HashSet<StreamId> =
            client.open_stream_ids().into_iter().collect();
        let dead: Vec<StreamId> = self
            .pending
            .keys()
            .copied()
            .filter(|id| !live.contains(id))
            .collect();
        for id in dead {
            if let Some(queue) = self.pending.remove(&id) {
                self.outstanding -= queue.len();
            }
            self.send_frame(&Frame::Evicted {
                shard: id.shard() as u32,
                session: id.session().0,
            });
        }
    }
}

fn pump_loop<M: WireModel>(
    mut client: Client<M>,
    conn_id: u64,
    req_rx: Receiver<ConnMsg<M::Input>>,
    out_tx: SyncSender<WriteCmd>,
    shared: &WireShared,
    stop: &AtomicBool,
) {
    shared.connections_opened.fetch_add(1, Ordering::Relaxed);
    shared.active_connections.fetch_add(1, Ordering::Relaxed);
    shared.events.push(EventKind::ConnectionOpen, conn_id);
    let mut pump: Pump<M::Input> = Pump {
        out_tx: out_tx.clone(),
        pending: HashMap::new(),
        outstanding: 0,
        _marker: std::marker::PhantomData,
    };

    enum Exit {
        Clean,
        Poisoned(String),
    }

    let exit = 'conn: loop {
        // Drain every queued request before waiting on results.
        loop {
            let msg = if pump.outstanding == 0 {
                match req_rx.recv_timeout(IDLE_SLICE) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        break 'conn Exit::Poisoned("reader thread died".into());
                    }
                }
            } else {
                match req_rx.try_recv() {
                    Ok(msg) => Some(msg),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => {
                        break 'conn Exit::Poisoned("reader thread died".into());
                    }
                }
            };
            let Some(msg) = msg else { break };
            match msg {
                ConnMsg::Open => match client.open() {
                    Ok(id) => {
                        pump.pending.insert(id, Default::default());
                        pump.send_frame(&Frame::OpenAck {
                            shard: id.shard() as u32,
                            session: id.session().0,
                        });
                    }
                    Err(e) => {
                        pump.send_frame(&Frame::Error {
                            code: error_code::SERVER_CLOSED,
                            shard: 0,
                            session: 0,
                            message: &e.to_string(),
                        });
                        break 'conn Exit::Poisoned(format!("open failed: {e}"));
                    }
                },
                ConnMsg::Submit {
                    shard,
                    session,
                    input,
                } => {
                    let id = StreamId::from_wire(shard, session);
                    if !pump.pending.contains_key(&id) {
                        pump.send_frame(&Frame::Error {
                            code: error_code::UNKNOWN_STREAM,
                            shard,
                            session,
                            message: "no such stream on this connection",
                        });
                        continue;
                    }
                    match client.send(id, input) {
                        Ok(()) => {
                            pump.pending.get_mut(&id).unwrap().push_back(Instant::now());
                            pump.outstanding += 1;
                        }
                        Err(e) => {
                            handle_submit_error(&mut pump, &mut client, id, e);
                        }
                    }
                }
                ConnMsg::SubmitMany {
                    shard,
                    session,
                    inputs,
                } => {
                    let id = StreamId::from_wire(shard, session);
                    if !pump.pending.contains_key(&id) {
                        pump.send_frame(&Frame::Error {
                            code: error_code::UNKNOWN_STREAM,
                            shard,
                            session,
                            message: "no such stream on this connection",
                        });
                        continue;
                    }
                    match client.send_all(id, &inputs) {
                        Ok(()) => {
                            let now = Instant::now();
                            let queue = pump.pending.get_mut(&id).unwrap();
                            queue.extend(std::iter::repeat_n(now, inputs.len()));
                            pump.outstanding += inputs.len();
                        }
                        Err(e) => {
                            handle_submit_error(&mut pump, &mut client, id, e);
                        }
                    }
                }
                ConnMsg::Close { shard, session } => {
                    let id = StreamId::from_wire(shard, session);
                    if let Some(queue) = pump.pending.remove(&id) {
                        pump.outstanding -= queue.len();
                        let _ = client.close(id);
                    }
                }
                ConnMsg::CleanClose => {
                    // Drain in-flight results before closing, so a
                    // goodbye-then-read client still gets everything
                    // the engine accepted.
                    let deadline = Instant::now() + DRAIN_DEADLINE;
                    while pump.outstanding > 0 && Instant::now() < deadline {
                        match client.recv_any(RESULT_SLICE) {
                            Ok((id, result)) => {
                                pump.emit_result(shared, id, &result);
                            }
                            Err(ServeError::RecvTimeout) => {}
                            Err(_) => break,
                        }
                        pump.sync_evictions(&client);
                    }
                    break 'conn Exit::Clean;
                }
                ConnMsg::Poisoned { reason } => break 'conn Exit::Poisoned(reason),
            }
        }
        if stop.load(Ordering::SeqCst) {
            pump.send_frame(&Frame::Error {
                code: error_code::SERVER_CLOSED,
                shard: 0,
                session: 0,
                message: "server shutting down",
            });
            break Exit::Clean;
        }
        if pump.outstanding > 0 {
            match client.recv_any(RESULT_SLICE) {
                Ok((id, result)) => {
                    pump.emit_result(shared, id, &result);
                }
                Err(ServeError::RecvTimeout) | Err(ServeError::UnknownStream) => {}
                Err(_) => {}
            }
            pump.sync_evictions(&client);
        } else if !pump.pending.is_empty() {
            // Idle tick: one zero-timeout sweep notices TTL evictions
            // of idle remote streams.
            if let Ok((id, result)) = client.recv_any(Duration::ZERO) {
                pump.emit_result(shared, id, &result);
            }
            pump.sync_evictions(&client);
        }
    };

    let open = client.open_streams() as u64;
    drop(client); // closes every remaining stream server-side
    match exit {
        Exit::Clean => {
            shared.connections_closed.fetch_add(1, Ordering::Relaxed);
            shared.events.push(EventKind::ConnectionClose, conn_id);
        }
        Exit::Poisoned(_reason) => {
            shared.connections_poisoned.fetch_add(1, Ordering::Relaxed);
            shared.sessions_torn_down.fetch_add(open, Ordering::Relaxed);
            shared.events.push(EventKind::ConnectionPoisoned, open);
        }
    }
    shared.active_connections.fetch_sub(1, Ordering::Relaxed);
    let _ = out_tx.send(WriteCmd::Shutdown);
}

fn handle_submit_error<M: WireModel>(
    pump: &mut Pump<M::Input>,
    client: &mut Client<M>,
    id: StreamId,
    e: ServeError,
) {
    let code = match e {
        ServeError::Engine(_) => error_code::INVALID_INPUT,
        ServeError::UnknownStream | ServeError::Evicted => error_code::UNKNOWN_STREAM,
        _ => error_code::SERVER_CLOSED,
    };
    pump.send_frame(&Frame::Error {
        code,
        shard: id.shard() as u32,
        session: id.session().0,
        message: &e.to_string(),
    });
    // An evicted/unknown stream is dead on this connection too.
    if matches!(e, ServeError::UnknownStream | ServeError::Evicted) {
        if let Some(queue) = pump.pending.remove(&id) {
            pump.outstanding -= queue.len();
        }
        let _ = client.close(id);
        pump.send_frame(&Frame::Evicted {
            shard: id.shard() as u32,
            session: id.session().0,
        });
    }
}
