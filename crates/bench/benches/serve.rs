//! Benchmarks of the sharded serving layer.
//!
//! * `serve_1024_streams` — end-to-end throughput of a [`Server`] under
//!   `LoadGenerator` traffic (1024 concurrent streams, mixed churn) as a
//!   function of shard count, at fixed model/threshold (so the skip
//!   sparsity is held constant across shard counts). Record
//!   streams/sec + tokens/sec per shard count in `docs/BENCH_RESULTS.md`.
//! * `engine_step_8_active` — the ready-queue refactor's win: one
//!   batched step with 8 active streams while N-8 open sessions sit
//!   idle. Before the intrusive ready list the engine scanned every open
//!   session per step (`O(open)`); now idle sessions cost nothing
//!   (`O(batch)`).
//! * `serve_session` — what a session costs: one `open` + `close` pair
//!   on an idle 2-shard server and beside a second client driving 64
//!   active streams, plus the extra metric `rss_kib_per_stream` (RSS
//!   delta of 1024 opens ÷ 1024). Neither depends on
//!   `ServeConfig::result_capacity`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use zskip_runtime::{Engine, EngineConfig, FrozenCharLm};
use zskip_serve::{LoadConfig, LoadGenerator, ServeConfig, Server, StreamId};

const VOCAB: usize = 64;
const DH: usize = 256;

/// Metrics beyond criterion's medians — the client-observed latency
/// percentiles of the unmeasured telemetry run — collected here so
/// `main` can fold them into the evidence file next to the throughput
/// numbers.
static EXTRA_METRICS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

fn bench_streams_vs_shards(c: &mut Criterion) {
    let model = FrozenCharLm::random(VOCAB, DH, 42);
    let mut group = c.benchmark_group(format!("serve_1024_streams_dh{DH}"));
    for shards in [1usize, 2, 4, 8] {
        let server = Server::start(
            model.clone(),
            ServeConfig::for_threshold(0.3)
                .with_shards(shards)
                .with_queue_capacity(4096),
        );
        let generator = LoadGenerator::new(LoadConfig {
            streams: 1024,
            tokens_per_round: 2,
            rounds: 2,
            churn: 0.05,
            seed: 9,
            ..LoadConfig::default()
        });
        group.bench_with_input(
            BenchmarkId::new("shards", shards),
            &generator,
            |b, generator| b.iter(|| black_box(generator.run(&server).expect("load run"))),
        );
        // One unmeasured run for the telemetry columns: client-observed
        // token-latency percentiles and the per-stage step breakdown go
        // into docs/BENCH_RESULTS.md next to the throughput numbers.
        let report = generator.run(&server).expect("load run");
        println!(
            "shards={shards} client token latency: {}",
            report.token_latency
        );
        let mut extra = EXTRA_METRICS.lock().unwrap();
        for (pct, nanos) in [
            ("p50", report.token_latency.p50()),
            ("p90", report.token_latency.p90()),
            ("p99", report.token_latency.p99()),
        ] {
            extra.push((
                format!("serve_1024_streams_dh{DH}/client_latency_{pct}/shards_{shards}"),
                nanos as f64,
            ));
        }
        drop(extra);
        let stages = server.stats().stages();
        if !stages.is_zero() {
            println!("shards={shards} stage breakdown:\n{stages}");
        }
        server.shutdown();
    }
    group.finish();
}

fn bench_idle_sessions(c: &mut Criterion) {
    let model = FrozenCharLm::random(VOCAB, DH, 42);
    let mut group = c.benchmark_group(format!("engine_step_8_active_dh{DH}"));
    for open in [8usize, 1024, 8192] {
        let mut engine = Engine::new(model.clone(), EngineConfig::for_threshold(0.3));
        let ids: Vec<_> = (0..open).map(|_| engine.open_session()).collect();
        let active: Vec<_> = ids.iter().copied().take(8).collect();
        group.bench_with_input(
            BenchmarkId::new("open_sessions", open),
            &active,
            move |b, active| {
                b.iter(|| {
                    for (i, &id) in active.iter().enumerate() {
                        engine.submit(id, i % VOCAB).unwrap();
                    }
                    engine.step();
                    for &id in active.iter() {
                        // Drain outboxes so state stays flat across iters.
                        black_box(engine.poll(id).unwrap());
                    }
                })
            },
        );
    }
    group.finish();
}

/// Resident set size of this process in KiB (0 where `/proc` is absent).
fn rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|statm| statm.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * 4.0)
}

/// The gated benchmark's `churn_sessions` shape: dh128 (and 2 shards).
const SESSION_DH: usize = 128;

fn bench_session(c: &mut Criterion) {
    let model = FrozenCharLm::random(VOCAB, SESSION_DH, 42);
    let config = ServeConfig::for_threshold(0.3).with_shards(2);
    let mut group = c.benchmark_group("serve_session");
    for load in ["idle", "under_64_active"] {
        let server = Server::start(model.clone(), config);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            if load != "idle" {
                // A second client keeps 64 streams in lockstep rounds for
                // as long as the pairs are being timed.
                let mut driver = server.client();
                let stop = &stop;
                scope.spawn(move || {
                    let streams: Vec<StreamId> = (0..64).map(|_| driver.open().unwrap()).collect();
                    let mut token = 0;
                    while !stop.load(Ordering::Relaxed) {
                        for &id in &streams {
                            driver.send(id, token % VOCAB).unwrap();
                        }
                        for &id in &streams {
                            black_box(driver.recv(id).unwrap());
                        }
                        token += 1;
                    }
                });
            }
            let mut client = server.client();
            group.bench_function(BenchmarkId::new("open_close", load), |b| {
                b.iter(|| {
                    let id = client.open().expect("open");
                    client.close(id).expect("close");
                })
            });
            stop.store(true, Ordering::Relaxed);
        });
        server.shutdown();
    }
    group.finish();
}

/// Footprint of an open stream: the RSS delta of 1024 opens ÷ 1024, on
/// the `serve_session` server shape. Run before the criterion groups: a
/// heap that earlier benches grew and freed would absorb the opens and
/// report ~0. One round trip per shard proves (per-shard FIFO) that the
/// workers have built their side of every session before the second
/// reading.
fn session_rss_kib_per_stream() {
    const OPENS: usize = 1024;
    let server = Server::start(
        FrozenCharLm::random(VOCAB, SESSION_DH, 42),
        ServeConfig::for_threshold(0.3).with_shards(2),
    );
    let mut client = server.client();
    let mut streams: Vec<StreamId> = Vec::with_capacity(OPENS);
    let before = rss_kib();
    streams.extend((0..OPENS).map(|_| client.open().unwrap()));
    for shard in 0..server.shard_count() {
        let &last = streams.iter().rev().find(|id| id.shard() == shard).unwrap();
        client.send(last, 1).unwrap();
        black_box(client.recv(last).unwrap());
    }
    let per_stream = (rss_kib() - before) / OPENS as f64;
    println!("serve_session/rss_kib_per_stream: {per_stream:.2} KiB");
    EXTRA_METRICS
        .lock()
        .unwrap()
        .push(("serve_session/rss_kib_per_stream".to_string(), per_stream));
    server.shutdown();
}

criterion_group!(
    benches,
    bench_streams_vs_shards,
    bench_idle_sessions,
    bench_session
);

/// Runs the groups, then writes `BENCH_serve.json`: criterion medians
/// plus the client-observed latency percentiles gathered above. The
/// evidence file is what `docs/BENCH_RESULTS.md` entries cite,
/// schema-checked by `bench_compare --schema-only`.
fn main() {
    session_rss_kib_per_stream();
    benches();
    let mut evidence = zskip_bench::Evidence::new("serve");
    for m in criterion::take_measurements() {
        evidence = evidence.metric(&m.id, m.median_nanos);
    }
    for (id, nanos) in EXTRA_METRICS.lock().unwrap().drain(..) {
        evidence = evidence.metric(&id, nanos);
    }
    match evidence.write() {
        Ok(path) => eprintln!("bench evidence: {}", path.display()),
        Err(e) => eprintln!("bench evidence write failed: {e}"),
    }
}
