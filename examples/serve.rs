//! Serving demo for any token-fed model family: train a pruned model,
//! freeze it, and serve it through the sharded `zskip::serve` front-end —
//! greedy streams next to the same weights served dense, a churn sweep
//! over shard counts, then the observability tour (stats table and JSON,
//! shard events, a Chrome trace for Perfetto).
//!
//! ```sh
//! cargo run --release --example serve -- [char|word|quantized]   # default: char
//! ```
//!
//! `quantized` freezes the trained char-LM into the 8-bit integer family
//! and first proves that 50 served steps bit-match the golden
//! `zskip_core::QuantizedLstm` reference. Set `ZSKIP_STAGE_TIMING=0` to
//! veto the stage clock and `ZSKIP_TRACE=0` to veto tracing (the trace
//! file then comes out empty but valid).

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};
use zskip::core::train::{train_char, train_word, CharOutcome, CharTaskConfig, WordTaskConfig};
use zskip::core::QuantizedLstm;
use zskip::runtime::{
    Engine, EngineConfig, FrozenCharLm, FrozenModel, FrozenQuantizedCharLm, FrozenWordLm,
    HeadScratch, InputSpec, StateLanes,
};
use zskip::serve::{validate_chrome_json, LoadConfig, LoadGenerator, ServeConfig, Server};
use zskip::tensor::SeedableStream;

const STREAMS: usize = 8;
const TOKENS_PER_STREAM: usize = 200;
const TRACE_PATH: &str = "target/traces/serve_telemetry.json";

fn main() {
    match std::env::args().nth(1).as_deref().unwrap_or("char") {
        family @ ("char" | "quantized") => {
            let config = CharTaskConfig {
                hidden: 192,
                corpus_chars: 24_000,
                batch: 8,
                bptt: 32,
                epochs: 3,
                lr: 3e-3,
                seed: 7,
            };
            let threshold = 0.5;
            println!(
                "training a {}-unit char-LM at threshold {threshold} ...",
                config.hidden
            );
            let mut trained = train_char(&config, threshold);
            println!(
                "trained: BPC {:.3}, state sparsity {:.1}%",
                trained.result.metric,
                trained.result.sparsity * 100.0
            );
            let frozen = FrozenCharLm::freeze(&mut trained.model);
            if family == "char" {
                serve_family(frozen.clone(), threshold, frozen);
            } else {
                let quantized = FrozenQuantizedCharLm::freeze(&mut trained.model, threshold);
                check_against_reference(&quantized, &trained, threshold);
                serve_family(quantized, threshold, frozen);
            }
        }
        "word" => {
            let config = WordTaskConfig {
                vocab: 400,
                embedding: 32,
                hidden: 96,
                corpus_tokens: 16_000,
                epochs: 2,
                ..WordTaskConfig::default()
            };
            let threshold = 0.3;
            println!(
                "training a {}-unit word-LM at threshold {threshold} ...",
                config.hidden
            );
            let mut trained = train_word(&config, threshold);
            println!(
                "trained: PPW {:.1}, state sparsity {:.1}%",
                trained.result.metric,
                trained.result.sparsity * 100.0
            );
            let frozen = FrozenWordLm::freeze(&mut trained.model);
            serve_family(frozen.clone(), threshold, frozen);
        }
        other => {
            eprintln!("unknown family {other:?}: expected char, word or quantized");
            std::process::exit(2);
        }
    }
}

/// Proof before throughput: a served quantized stream replays the
/// golden `QuantizedLstm` reference bit-for-bit, timestep by timestep.
fn check_against_reference(frozen: &FrozenQuantizedCharLm, trained: &CharOutcome, threshold: f32) {
    let reference = QuantizedLstm::from_cell(trained.model.lstm().cell(), threshold);
    let (vocab, hidden) = (frozen.vocab_size(), frozen.hidden_dim());
    let mut engine = Engine::new(frozen.clone(), EngineConfig::for_threshold(threshold));
    let session = engine.open_session();
    let (mut h, mut c) = (vec![0i8; hidden], vec![0i8; hidden]);
    let mut head = HeadScratch::new();
    let mut tok = 1usize;
    for step in 0..50 {
        engine.submit(session, tok).expect("submit");
        engine.step();
        let served = engine.poll(session).expect("session").expect("result");
        let mut one_hot = vec![0.0f32; vocab];
        one_hot[tok] = 1.0;
        let golden = reference.step(&reference.quantize_input(&one_hot), &h, &c);
        let golden_lanes = StateLanes::from_vec(1, hidden, golden.h.clone());
        frozen.head(&golden_lanes, &mut head);
        let want: Vec<u32> = head.logits.row(0).iter().map(|x| x.to_bits()).collect();
        let got: Vec<u32> = served.logits.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want, "served logits diverged at step {step}");
        (h, c) = (golden.h, golden.c);
        tok = served.argmax;
    }
    println!("bit-for-bit vs QuantizedLstm reference: 50/50 timesteps exact");
}

/// Every serving phase, for the trained model and its dense f32 twin.
fn serve_family<M, D>(model: M, threshold: f32, dense: D)
where
    M: FrozenModel<Input = usize>,
    D: FrozenModel<Input = usize>,
{
    let (tps, skip) = greedy(model.clone(), threshold);
    let (dense_tps, dense_skip) = greedy(dense, 0.0);
    println!("\nserved {STREAMS} greedy streams x {TOKENS_PER_STREAM} tokens on 2 shards:");
    for (label, tps, skip) in [
        (format!("trained, threshold {threshold}"), tps, skip),
        ("dense f32, threshold 0".to_string(), dense_tps, dense_skip),
    ] {
        println!(
            "{label:<26}: {tps:>8.0} tok/s  ({:.1}% of Wh fetches skipped)",
            skip * 100.0
        );
    }
    println!("speedup over dense serving: {:.2}x", tps / dense_tps);
    churn_sweep(&model, threshold);
    telemetry_tour(model, threshold);
}

/// Greedy decoding: every stream feeds its own prediction back as its
/// next input, and one `recv_any` loop takes whichever result is ready.
/// Returns tokens/s and the cross-shard skip fraction.
fn greedy<M: FrozenModel<Input = usize>>(model: M, threshold: f32) -> (f64, f64) {
    let server = Server::start(model, ServeConfig::for_threshold(threshold).with_shards(2));
    let mut client = server.client();
    let mut rng = SeedableStream::new(17);
    let mut left = HashMap::new();
    let start = Instant::now();
    for _ in 0..STREAMS {
        let id = client.open().expect("open");
        let prompt = client.input_spec().sample(&mut rng);
        client.send(id, prompt).expect("send");
        left.insert(id, TOKENS_PER_STREAM - 1);
    }
    let mut in_flight = STREAMS;
    while in_flight > 0 {
        let (id, result) = client.recv_any(Duration::from_secs(10)).expect("a result");
        let left = left.get_mut(&id).expect("an open stream");
        if *left == 0 {
            in_flight -= 1;
            client.close(id).expect("close");
        } else {
            *left -= 1;
            client.send(id, result.argmax).expect("send");
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let skip = server.stats().skip_fraction();
    drop(client);
    server.shutdown();
    ((STREAMS * TOKENS_PER_STREAM) as f64 / secs, skip)
}

/// Sustained open/submit/close churn from 1200 streams at 1, 2 and 4
/// shards (outputs are bit-identical to one engine at any shard count).
fn churn_sweep<M: FrozenModel>(model: &M, threshold: f32) {
    println!("\n1200 streams x 3 rounds x 4 tokens, 15% churn per round:");
    println!("shards |   tok/s | stream-rounds/s | skip%  | opens | evictions | deadline misses");
    for shards in [1usize, 2, 4] {
        let server = Server::start(
            model.clone(),
            ServeConfig::for_threshold(threshold)
                .with_shards(shards)
                .with_queue_capacity(4096)
                .with_session_ttl(Duration::from_secs(10))
                .with_token_deadline(Duration::from_millis(50)),
        );
        let report = LoadGenerator::new(LoadConfig {
            streams: 1200,
            tokens_per_round: 4,
            rounds: 3,
            churn: 0.15,
            seed: 3,
            deadline: Some(Duration::from_millis(50)),
        })
        .run(&server)
        .expect("load run");
        let stats = server.stats();
        println!(
            "{shards:>6} | {:>7.0} | {:>15.0} | {:>5.1}% | {:>5} | {:>9} | {:>15}",
            report.tokens_per_sec,
            report.stream_rounds_per_sec,
            stats.skip_fraction() * 100.0,
            report.opened,
            stats.evicted_sessions(),
            stats.deadline_misses(),
        );
        server.shutdown();
    }
}

/// Churny 2-shard load with every stream traced, then everything an
/// operator can read back: the stats table and JSON, the event ring, a
/// strictly validated Chrome trace.
fn telemetry_tour<M: FrozenModel>(model: M, threshold: f32) {
    let server = Server::start(
        model,
        ServeConfig::for_threshold(threshold)
            .with_shards(2)
            .with_queue_capacity(2048)
            .with_session_ttl(Duration::from_secs(10))
            .with_token_deadline(Duration::from_millis(20))
            .with_event_capacity(512)
            // Trace every stream (1-in-1) for the tour; production would
            // sample 1-in-64 or sparser.
            .with_trace_sampling(1)
            .with_trace_span_capacity(1 << 15),
    );
    let report = LoadGenerator::new(LoadConfig {
        streams: 512,
        tokens_per_round: 4,
        rounds: 6,
        churn: 0.2,
        seed: 3,
        deadline: Some(Duration::from_millis(20)),
    })
    .run(&server)
    .expect("load run");
    println!("\n== load generator's client-side report (512 streams) ==\n{report}\n");

    let stats = server.stats();
    println!("== final server snapshot ==\n{stats}\n");
    let events = server.drain_events();
    println!("== last {} shard events ==", events.len().min(10));
    for event in events.iter().rev().take(10).rev() {
        println!("  {event}");
    }
    println!("\n== the same snapshot as JSON ==\n{}", stats.to_json());

    // Strict-validated before it is written: a file this example
    // produces always loads in Perfetto (or chrome://tracing).
    let trace = server.drain_trace();
    let json = trace.to_chrome_json();
    let validation = validate_chrome_json(&json).expect("trace export validates");
    std::fs::create_dir_all("target/traces").expect("create trace dir");
    std::fs::write(TRACE_PATH, &json).expect("write trace file");
    let shards: BTreeSet<_> = trace.spans().iter().map(|s| s.shard).collect();
    println!(
        "\n== per-token trace ==\n{} spans from {} shard(s) ({} dropped), {} trace events \
         ({} complete, {} async token pairs)\nwrote {TRACE_PATH}: each shard is a process, \
         each sampled stream a thread group",
        trace.len(),
        shards.len(),
        trace.dropped(),
        validation.events,
        validation.complete,
        validation.async_begins,
    );

    server.shutdown();
}
