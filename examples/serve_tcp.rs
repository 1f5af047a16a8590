//! The process boundary under load: a [`TcpServer`] on loopback serving
//! 64 concurrent connections, each a real socket with its own
//! [`RemoteClient`], under connection churn — a third of the clients
//! hang up and reconnect between rounds. Client-observed token latency
//! percentiles print at the end, next to the server's own wire-lane
//! view of the same traffic, and drop into a `BENCH_serve_tcp.json`
//! evidence file (same schema as every other lane, checked by
//! `bench_compare --schema-only`).
//!
//! ```sh
//! cargo run --release --example serve_tcp
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use zskip::runtime::FrozenCharLm;
use zskip::serve::{ServeConfig, Server};
use zskip::telemetry::LatencyHistogram;
use zskip::wire::{RemoteClient, TcpServer};

const VOCAB: usize = 64;
const CONNECTIONS: usize = 64;
const ROUNDS: usize = 4;
const TOKENS_PER_ROUND: usize = 32;

/// One connection's life: open a stream, pump tokens round by round,
/// and (for every third worker) hang up and reconnect between rounds
/// so the run exercises session teardown and fresh handshakes, not
/// just steady state.
fn drive_connection(addr: SocketAddr, worker: usize, latency: &LatencyHistogram) -> u64 {
    let mut client =
        RemoteClient::<FrozenCharLm>::connect(addr).expect("connect to local TcpServer");
    let mut stream = client.open().expect("open stream");
    let mut tokens = 0u64;
    for round in 0..ROUNDS {
        if round > 0 && worker.is_multiple_of(3) {
            // Churny client: a fresh TCP connection and a fresh session.
            drop(client);
            client = RemoteClient::connect(addr).expect("reconnect");
            stream = client.open().expect("reopen stream");
        }
        for step in 0..TOKENS_PER_ROUND {
            let token = (worker * 31 + round * 7 + step) % VOCAB;
            let started = Instant::now();
            client.send(stream, token).expect("send token");
            let result = client.recv(stream).expect("recv result");
            latency.record_duration(started.elapsed());
            assert!(result.argmax < VOCAB, "argmax out of range");
            tokens += 1;
        }
    }
    client.close(stream).expect("close stream");
    tokens
}

fn main() {
    let model = FrozenCharLm::random(VOCAB, 128, 42);
    let server = Server::start(
        model,
        ServeConfig::for_threshold(0.3)
            .with_shards(4)
            .with_queue_capacity(2048),
    );
    let tcp = TcpServer::bind(server, "127.0.0.1:0").expect("bind loopback");
    let addr = tcp.local_addr();
    println!(
        "== {CONNECTIONS} concurrent TCP connections x {ROUNDS} rounds x \
         {TOKENS_PER_ROUND} tokens against {addr} (4 shards) ==\n"
    );

    let latency = Arc::new(LatencyHistogram::new());
    let started = Instant::now();
    let workers: Vec<_> = (0..CONNECTIONS)
        .map(|worker| {
            let latency = Arc::clone(&latency);
            std::thread::spawn(move || drive_connection(addr, worker, &latency))
        })
        .collect();
    let tokens: u64 = workers
        .into_iter()
        .map(|w| w.join().expect("worker panicked"))
        .sum();
    let elapsed = started.elapsed();

    let client_view = latency.snapshot();
    println!(
        "client-observed round-trip latency over {} tokens in {:.2?}:\n  \
         p50≤{} p90≤{} p99≤{} p999≤{} (ns, bucket upper bounds)\n",
        tokens,
        elapsed,
        client_view.p50(),
        client_view.p90(),
        client_view.p99(),
        client_view.p999(),
    );

    let server_view = tcp.wire_latency();
    let wire = tcp.wire_stats();
    println!(
        "server wire lane (request-received → result-written, {} samples):\n  \
         p50≤{} p90≤{} p99≤{}\n",
        server_view.count(),
        server_view.p50(),
        server_view.p90(),
        server_view.p99(),
    );
    println!(
        "wire stats: {} connections opened, {} closed clean, {} poisoned, \
         {} sessions torn down, {} frames in / {} frames out",
        wire.connections_opened,
        wire.connections_closed,
        wire.connections_poisoned,
        wire.sessions_torn_down,
        wire.frames_received,
        wire.frames_sent,
    );
    let events = tcp.drain_wire_events();
    println!(
        "last {} wire events (of {} drained):",
        events.len().min(6),
        events.len()
    );
    for event in events.iter().rev().take(6).rev() {
        println!("  {event}");
    }

    // Machine-readable evidence through the shared bench pipeline.
    let secs = elapsed.as_secs_f64().max(1e-9);
    let evidence = zskip_bench::Evidence::new("serve_tcp")
        .metric("serve_tcp/client_latency_p50", client_view.p50() as f64)
        .metric("serve_tcp/client_latency_p90", client_view.p90() as f64)
        .metric("serve_tcp/client_latency_p99", client_view.p99() as f64)
        .metric("serve_tcp/client_latency_p999", client_view.p999() as f64)
        .metric("serve_tcp/server_lane_p99", server_view.p99() as f64)
        .metric(
            "serve_tcp/mean_token_ns",
            secs * 1e9 / (tokens.max(1) as f64),
        );
    let path = evidence.write().expect("write bench evidence");
    println!("\nbench evidence: {}", path.display());
    tcp.shutdown();
}
