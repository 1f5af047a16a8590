//! Benchmarks of the wire layer.
//!
//! * `wire_codec` — pure encode/decode cost of the hot frames
//!   (`Submit`, and `Result` at two logit widths), no socket.
//! * `wire_socket` — end-to-end loopback round trips through a real
//!   `TcpServer` + `RemoteClient`: a single-token ping-pong lane
//!   (latency-bound) and a 32-token pipelined lane
//!   (throughput-bound). The server-side connection-lane latency
//!   percentiles print after it as `wire_socket/server_lane_p<N>: <ns>`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use zskip_runtime::FrozenCharLm;
use zskip_serve::{ServeConfig, Server};
use zskip_wire::frame::{decode_frame, encode_frame, encode_logits, Frame};
use zskip_wire::{RemoteClient, TcpServer};

const VOCAB: usize = 64;
const DH: usize = 128;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");

    let input = 17usize.to_le_bytes();
    let submit = Frame::Submit {
        shard: 1,
        session: 0xABCD,
        input: &input,
    };
    group.bench_function("encode_submit", |b| {
        let mut out = Vec::with_capacity(64);
        b.iter(|| {
            out.clear();
            encode_frame(&mut out, &submit);
            black_box(out.len())
        })
    });
    let mut submit_bytes = Vec::new();
    encode_frame(&mut submit_bytes, &submit);
    group.bench_function("decode_submit", |b| {
        b.iter(|| black_box(decode_frame(&submit_bytes).unwrap().unwrap().1))
    });

    for logits in [64usize, 512] {
        let values: Vec<f32> = (0..logits).map(|i| (i as f32).sin()).collect();
        let mut logit_bytes = Vec::new();
        encode_logits(&mut logit_bytes, &values);
        let result = Frame::Result {
            shard: 1,
            session: 0xABCD,
            argmax: 3,
            logits: &logit_bytes,
            input: &input,
        };
        group.bench_with_input(
            BenchmarkId::new("encode_result", logits),
            &result,
            |b, result| {
                let mut out = Vec::with_capacity(logits * 4 + 64);
                b.iter(|| {
                    out.clear();
                    encode_frame(&mut out, result);
                    black_box(out.len())
                })
            },
        );
        let mut result_bytes = Vec::new();
        encode_frame(&mut result_bytes, &result);
        group.bench_with_input(
            BenchmarkId::new("decode_result", logits),
            &result_bytes,
            |b, bytes| b.iter(|| black_box(decode_frame(bytes).unwrap().unwrap().1)),
        );
    }
    group.finish();
}

fn bench_socket(c: &mut Criterion) {
    let model = FrozenCharLm::random(VOCAB, DH, 42);
    let server = Server::start(model, ServeConfig::for_threshold(0.3).with_shards(2));
    let tcp = TcpServer::bind(server, "127.0.0.1:0").expect("bind");
    let mut remote = RemoteClient::<FrozenCharLm>::connect(tcp.local_addr()).expect("connect");
    let id = remote.open().expect("open");

    let mut group = c.benchmark_group("wire_socket");
    group.bench_function("round_trip_1", |b| {
        let mut token = 0usize;
        b.iter(|| {
            token = (token + 1) % VOCAB;
            remote.send(id, token).expect("send");
            black_box(remote.recv(id).expect("recv").argmax)
        })
    });
    let batch: Vec<usize> = (0..32).map(|t| t % VOCAB).collect();
    group.bench_function("pipelined_32", |b| {
        b.iter(|| {
            remote.send_all(id, &batch).expect("send_all");
            let mut last = 0usize;
            for _ in 0..batch.len() {
                last = remote.recv(id).expect("recv").argmax;
            }
            black_box(last)
        })
    });
    group.finish();

    // Server-side view of the same traffic: the connection lane of the
    // latency histograms (request-received → result-written).
    let lane = tcp.wire_latency();
    for (pct, nanos) in [
        ("p50", lane.p50()),
        ("p90", lane.p90()),
        ("p99", lane.p99()),
    ] {
        println!("wire_socket/server_lane_{pct}: {nanos} ns");
    }
    drop(remote);
    tcp.shutdown();
}

criterion_group!(benches, bench_codec, bench_socket);
criterion_main!(benches);
