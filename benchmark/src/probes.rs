//! Layer probes: each layer timed from outside, through its public
//! functions, at the workload's exact shapes.
//!
//! The probes nest — wire round ⊃ serve round ⊃ engine round ⊃ batched
//! step ⊃ (`Wh` product, LUT plane) — so a layer's *self* time is its
//! probe minus the probe one level down. Every probe is time-boxed and
//! reports the median of its samples.

use crate::driver::{StreamClient, RECV_TIMEOUT};
use crate::fixture::{self, Family, THRESHOLD};
use crate::stats::median;
use crate::workload::{token, Workload, VOCAB};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use zskip_runtime::{
    BatchStep, DynamicBatcher, Engine, SkipPolicy, Stage, StageBreakdown, StateLanes, StepScratch,
};
use zskip_serve::{ServeConfig, Server};
use zskip_tensor::SeedableStream;
use zskip_wire::{decode_frame, encode_frame, Frame, RemoteClient, TcpServer};

pub type Metrics = Vec<(&'static str, f64)>;

/// Median of `sample()` (any unit) over at least five samples and until
/// `budget` is spent; the first failed sample fails the probe.
fn try_median_of<E>(
    budget: Duration,
    mut sample: impl FnMut() -> Result<f64, E>,
) -> Result<f64, E> {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < budget {
        samples.push(sample()?);
    }
    Ok(median(&samples))
}

fn median_of(budget: Duration, mut sample: impl FnMut() -> f64) -> f64 {
    let infallible: Result<f64, std::convert::Infallible> = try_median_of(budget, || Ok(sample()));
    match infallible {
        Ok(median) => median,
        Err(never) => match never {},
    }
}

fn try_nanos<E>(f: impl FnOnce() -> Result<(), E>) -> Result<f64, E> {
    let started = Instant::now();
    f()?;
    Ok(started.elapsed().as_nanos() as f64)
}

fn nanos(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64
}

/// Copy bandwidth (GB/s, bytes copied ÷ time) over a buffer the size of
/// the dh-512 f32 `Wh` (4 MiB): the ceiling `tensor.gemm_gbps` is read
/// against.
pub fn memcpy_gbps(budget: Duration) -> f64 {
    const BYTES: usize = 512 * 2048 * 4;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let ns = median_of(budget, || {
        nanos(|| {
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
        })
    });
    BYTES as f64 / ns
}

/// A result's logits as they travel: little-endian `f32` bit patterns.
fn logits_bytes() -> Vec<u8> {
    (0..VOCAB)
        .flat_map(|i| (i as f32 * 0.25 - 3.0).to_bits().to_le_bytes())
        .collect()
}

const PROBE_INPUT: [u8; 8] = 7u64.to_le_bytes();

fn submit_frame() -> Frame<'static> {
    Frame::Submit {
        shard: 0,
        session: 1,
        input: &PROBE_INPUT,
    }
}

fn result_frame(logits: &[u8]) -> Frame<'_> {
    Frame::Result {
        shard: 0,
        session: 1,
        argmax: 5,
        logits,
        input: &PROBE_INPUT,
    }
}

/// The wire frames one token costs: `(submit, result)` bytes at the
/// benchmark's vocabulary.
pub fn token_frames() -> (Vec<u8>, Vec<u8>) {
    let (mut submit, mut result) = (Vec::new(), Vec::new());
    encode_frame(&mut submit, &submit_frame());
    encode_frame(&mut result, &result_frame(&logits_bytes()));
    (submit, result)
}

/// Round trip (µs) of the token's two frame sizes through a bare
/// loopback echo thread: the floor under `wire.round_us` that no codec
/// or thread-model change can go below.
pub fn socket_echo_us(budget: Duration) -> Result<f64, String> {
    let (submit, result) = token_frames();
    let io = |e: std::io::Error| format!("socket echo probe: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let (request_len, reply) = (submit.len(), result.clone());
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut socket, _) = listener.accept()?;
        socket.set_nodelay(true)?;
        let mut request = vec![0u8; request_len];
        // EOF on the request side is the clean end of the probe.
        while socket.read_exact(&mut request).is_ok() {
            socket.write_all(&reply)?;
        }
        Ok(())
    });
    let mut socket = TcpStream::connect(addr).map_err(io)?;
    socket.set_nodelay(true).map_err(io)?;
    socket.set_read_timeout(Some(RECV_TIMEOUT)).map_err(io)?;
    let mut reply = vec![0u8; result.len()];
    let ns = try_median_of(budget, || {
        try_nanos(|| {
            socket.write_all(&submit)?;
            socket.read_exact(&mut reply)
        })
    });
    drop(socket);
    echo.join()
        .map_err(|_| "socket echo thread panicked".to_string())?
        .map_err(io)?;
    Ok(ns.map_err(io)? / 1e3)
}

/// Encode and decode cost (ns) of the two per-token frames, measured
/// separately.
fn wire_codec(budget: Duration, out: &mut Metrics) {
    const INNER: usize = 1000;
    let mut per_call = |name: &'static str, call: &mut dyn FnMut()| {
        let ns = median_of(budget, || {
            nanos(|| {
                for _ in 0..INNER {
                    call();
                }
            }) / INNER as f64
        });
        out.push((name, ns));
    };
    let (submit, result) = token_frames();
    let logits = logits_bytes();
    let mut buf = Vec::with_capacity(1024);
    per_call("wire.encode_submit_ns", &mut || {
        buf.clear();
        encode_frame(&mut buf, std::hint::black_box(&submit_frame()));
        std::hint::black_box(&buf);
    });
    per_call("wire.decode_submit_ns", &mut || {
        std::hint::black_box(decode_frame(std::hint::black_box(&submit)).ok());
    });
    per_call("wire.encode_result_ns", &mut || {
        buf.clear();
        encode_frame(&mut buf, std::hint::black_box(&result_frame(&logits)));
        std::hint::black_box(&buf);
    });
    per_call("wire.decode_result_ns", &mut || {
        std::hint::black_box(decode_frame(std::hint::black_box(&result)).ok());
    });
}

/// Lanes one batched step of this workload carries: every active stream
/// of a shard, up to the engine's batch cap.
pub fn step_lanes(workload: &Workload, config: &ServeConfig) -> usize {
    (workload.active / workload.shards).clamp(1, config.engine.max_batch)
}

/// Batched steps a shard needs per lockstep round.
pub fn steps_per_round(workload: &Workload, config: &ServeConfig) -> usize {
    (workload.active / workload.shards).div_ceil(config.engine.max_batch)
}

struct StepProbe<M: Family> {
    batcher: DynamicBatcher<M>,
    scratch: StepScratch<M::State>,
    h: StateLanes<M::State>,
    c: StateLanes<M::State>,
    inputs: Vec<usize>,
    seed: u64,
    pos: u64,
}

impl<M: Family> StepProbe<M> {
    /// A batcher under `policy` with `lanes` sessions stepped off the
    /// zero state into the fixture's steady sparsity pattern.
    fn new(model: M, policy: SkipPolicy, lanes: usize, seed: u64) -> Self {
        let (dh, dc) = (model.hidden_dim(), model.cell_dim());
        let mut probe = Self {
            batcher: DynamicBatcher::new(model, THRESHOLD, policy),
            scratch: StepScratch::new(),
            h: StateLanes::zeros(lanes, dh),
            c: StateLanes::zeros(lanes, dc),
            inputs: vec![0; lanes],
            seed,
            pos: 0,
        };
        for _ in 0..8 {
            probe.step();
        }
        probe.scratch.stages.take();
        probe
    }

    /// One timed `step_into`; the new state is fed back as the next
    /// step's input by swapping buffers, outside the timed region.
    fn step(&mut self) -> f64 {
        for (lane, input) in self.inputs.iter_mut().enumerate() {
            *input = token(self.seed, lane, self.pos);
        }
        self.pos += 1;
        let ns = nanos(|| {
            std::hint::black_box(self.batcher.step_into(
                BatchStep {
                    h: &self.h,
                    c: &self.c,
                    inputs: &self.inputs,
                },
                &mut self.scratch,
            ));
        });
        std::mem::swap(&mut self.h, &mut self.scratch.h_next);
        std::mem::swap(&mut self.c, &mut self.scratch.c_next);
        ns
    }
}

/// `tensor.*` and the step-level `runtime.*` probes. `dense_model` is the
/// same fixture with no unit shut: the dense reference of the paper's
/// ratio.
fn tensor_and_step<M: Family>(
    model: &M,
    dense_model: M,
    lanes: usize,
    seed: u64,
    budget: Duration,
    out: &mut Metrics,
) {
    let dh = model.hidden_dim();
    let policy = SkipPolicy::default();

    let mut live = StepProbe::new(model.clone(), policy, lanes, seed);
    let step_ns = median_of(budget, || live.step());

    // The same step over dense state: what the realised speedup and the
    // Amdahl ideal are taken against. (Forcing the dense kernel onto the
    // sparse fixture would not do: the dense kernel itself skips zero
    // state values.)
    let mut dense = StepProbe::new(dense_model, policy, lanes, seed);
    let dense_ns = median_of(budget, || dense.step());
    let dense_stages: StageBreakdown = dense.scratch.stages.take();

    // The workload's `Wh` product exactly as the step issues it: over
    // the steady-state lanes, with the plan the batcher derives.
    let mut active = Vec::new();
    live.batcher.skip_plan_into(&live.h, &mut active);
    let sparse = (active.len() as f64) < policy.dense_fallback * dh as f64;
    let rows_fetched = if sparse { active.len() } else { dh };
    let gemm_ns = {
        let mut product = model.wh_product(&live.h, sparse.then_some(active.as_slice()));
        median_of(budget, || nanos(&mut product))
    };
    // Computed from shapes, not measured: the `Wh` rows the kernel reads.
    let gemm_bytes = (rows_fetched * 4 * dh * M::WH_ELEM_BYTES) as f64;

    let lut = model.gate_lut();
    let mut rng = SeedableStream::new(seed ^ 0x1F7);
    let source: Vec<f32> = (0..lanes * 4 * dh)
        .map(|_| rng.uniform(-6.0, 6.0))
        .collect();
    let mut plane = source.clone();
    let lut_ns = median_of(budget, || {
        plane.copy_from_slice(&source);
        nanos(|| {
            lut.eval_slice(&mut plane);
            std::hint::black_box(&plane);
        })
    });

    let speedup = dense_ns / step_ns;
    let skipped = 1.0 - rows_fetched as f64 / dh as f64;
    let gemm_share = dense_stages.get(Stage::RecurrentGemm) as f64 / dense_stages.total() as f64;
    let ideal = 1.0 / ((1.0 - gemm_share) + gemm_share * (1.0 - skipped));

    out.push(("tensor.gemm_us", gemm_ns / 1e3));
    out.push(("tensor.gemm_rows_fetched", rows_fetched as f64));
    out.push(("tensor.gemm_bytes", gemm_bytes));
    out.push(("tensor.gemm_gbps", gemm_bytes / gemm_ns));
    out.push(("tensor.lut_eval_us", lut_ns / 1e3));
    out.push(("runtime.step_us", step_ns / 1e3));
    out.push(("runtime.step_dense_ref_us", dense_ns / 1e3));
    out.push(("runtime.skip_speedup", speedup));
    out.push(("runtime.skip_ideal", ideal));
    out.push(("runtime.skip_efficiency", speedup / ideal));
}

/// `runtime.engine_round_us`, `runtime.session_open_close_us` and
/// `runtime.snapshot_load_ms`.
fn engine<M: Family>(
    model: &M,
    config: &ServeConfig,
    lanes: usize,
    seed: u64,
    budget: Duration,
    out: &mut Metrics,
) -> Result<(), String> {
    let mut engine = Engine::new(model.clone(), config.engine);
    let ids: Vec<_> = (0..lanes).map(|_| engine.open_session()).collect();
    let mut pos = 0u64;
    let mut round = |engine: &mut Engine<M>| {
        let ns = nanos(|| {
            for (lane, id) in ids.iter().enumerate() {
                engine
                    .submit(*id, token(seed, lane, pos))
                    .expect("probe submit");
            }
            while engine.pending() > 0 {
                engine.step();
            }
            for id in &ids {
                let result = engine
                    .poll(*id)
                    .expect("probe session is open")
                    .expect("one result per token");
                engine.recycle(result);
            }
        });
        pos += 1;
        ns
    };
    for _ in 0..8 {
        round(&mut engine);
    }
    out.push((
        "runtime.engine_round_us",
        median_of(budget, || round(&mut engine)) / 1e3,
    ));

    out.push((
        "runtime.session_open_close_us",
        median_of(budget, || {
            nanos(|| {
                let id = engine.open_session();
                engine.close_session(id).expect("close a fresh session");
            })
        }) / 1e3,
    ));

    let bytes = model.to_snapshot_bytes();
    let load_ns = try_median_of(budget, || {
        try_nanos(|| {
            M::from_snapshot_bytes(&bytes).map(|loaded| drop(std::hint::black_box(loaded)))
        })
    })
    .map_err(|e| format!("snapshot load probe: {e}"))?;
    out.push(("runtime.snapshot_load_ms", load_ns / 1e6));
    Ok(())
}

/// Median lockstep round (ns) of `streams` fresh streams on `client`:
/// one token sent to each, then every result received.
fn round_ns(
    client: &mut dyn StreamClient,
    streams: usize,
    seed: u64,
    budget: Duration,
) -> Result<f64, String> {
    let ids = (0..streams)
        .map(|_| client.open())
        .collect::<Result<Vec<_>, _>>()?;
    let mut pos = 0u64;
    let mut round = |client: &mut dyn StreamClient| {
        pos += 1;
        try_nanos(|| {
            for (lane, id) in ids.iter().enumerate() {
                client.send(*id, token(seed, lane, pos))?;
            }
            ids.iter().try_for_each(|id| client.recv(*id).map(drop))
        })
    };
    for _ in 0..8 {
        round(client)?;
    }
    let ns = try_median_of(budget, || round(client))?;
    ids.into_iter().try_for_each(|id| client.close(id))?;
    Ok(ns)
}

/// `serve.round_us`, `serve.open_close_us`, `serve.first_token_p50_us`:
/// the in-process client against a server of the workload's shard count.
fn serve<M: Family>(
    model: &M,
    workload: &Workload,
    config: &ServeConfig,
    seed: u64,
    budget: Duration,
    out: &mut Metrics,
) -> Result<(), String> {
    let server = Server::start(model.clone(), *config);
    let mut client = server.client().with_recv_timeout(RECV_TIMEOUT);
    let client: &mut dyn StreamClient = &mut client;
    let probed = (|| {
        let round = round_ns(client, workload.active, seed, budget)?;
        let open_close = try_median_of(budget, || {
            try_nanos(|| client.open().and_then(|id| client.close(id)))
        })?;
        let first_token = try_median_of(budget, || {
            let mut opened = None;
            let ns = try_nanos(|| {
                let id = *opened.insert(client.open()?);
                client.send(id, token(seed, 0, 0))?;
                client.recv(id).map(drop)
            });
            opened.map_or(Ok(()), |id| client.close(id))?;
            ns
        })?;
        Ok::<_, String>([round, open_close, first_token])
    })();
    server.shutdown();
    let [round, open_close, first_token] = probed.map_err(|e| format!("serve probe: {e}"))?;
    out.push(("serve.round_us", round / 1e3));
    out.push(("serve.open_close_us", open_close / 1e3));
    out.push(("serve.first_token_p50_us", first_token / 1e3));
    Ok(())
}

/// `wire.round_us` against the same server's in-process one-stream round
/// (their difference is `wire.self_us`), plus connect time, the server's
/// own connection-lane median and the per-token byte count.
fn wire<M: Family>(
    model: &M,
    config: &ServeConfig,
    seed: u64,
    budget: Duration,
    out: &mut Metrics,
) -> Result<(), String> {
    let tcp = TcpServer::bind(
        Server::start(model.clone(), config.with_shards(1)),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("wire probe: {e}"))?;
    let connect = || {
        RemoteClient::<M>::connect(tcp.local_addr())
            .map(|client| client.with_recv_timeout(RECV_TIMEOUT))
            .map_err(|e| e.to_string())
    };
    let probed = (|| {
        let mut local = tcp.server().client().with_recv_timeout(RECV_TIMEOUT);
        let local = round_ns(&mut local, 1, seed, budget)?;
        let connect_ns = try_median_of(budget, || try_nanos(|| connect().map(drop)))?;
        let remote = round_ns(&mut connect()?, 1, seed, budget)?;
        Ok::<_, String>([local, connect_ns, remote])
    })();
    let lane_p50_ns = tcp.wire_latency().p50() as f64;
    tcp.shutdown();
    let [local, connect_ns, remote] = probed.map_err(|e| format!("wire probe: {e}"))?;
    let (submit, reply) = token_frames();
    out.push(("wire.round_us", remote / 1e3));
    out.push(("wire.self_us", (remote - local) / 1e3));
    out.push(("wire.connect_ms", connect_ns / 1e6));
    out.push(("wire.server_lane_p50_us", lane_p50_ns / 1e3));
    // Computed from the codec's frame sizes, not counted on the socket.
    out.push(("wire.bytes_per_token", (submit.len() + reply.len()) as f64));
    Ok(())
}

/// Every layer probe of one workload, each boxed to `budget`.
pub fn layers<M: Family>(
    model: &M,
    workload: &Workload,
    config: &ServeConfig,
    seed: u64,
    budget: Duration,
) -> Result<Metrics, String> {
    let mut out = Metrics::new();
    let lanes = step_lanes(workload, config);
    let dense_model: M = if workload.sparsity == 0.0 {
        model.clone()
    } else {
        fixture::frozen(VOCAB, workload.dh, 0.0, seed)
    };
    tensor_and_step(model, dense_model, lanes, seed, budget, &mut out);
    engine(model, config, lanes, seed, budget, &mut out)?;
    serve(model, workload, config, seed, budget, &mut out)?;
    wire_codec(budget, &mut out);
    wire(model, config, seed, budget, &mut out)?;
    Ok(out)
}
