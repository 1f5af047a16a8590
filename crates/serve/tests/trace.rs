//! Trace-integrity contracts of the serving layer: a churny multi-shard
//! run produces a drained trace that is globally ordered, well-nested
//! (stage children inside their batch-step parents), deterministic in
//! which streams it sampled, and renders to Chrome trace-event JSON that
//! strict-parses back through the vendored serde.
//!
//! Every test branches on [`trace_env_allowed`] so the whole binary also
//! passes under `ZSKIP_TRACE=0` — the veto must mean *no spans at all*,
//! and the CI lane runs both ways.

use std::time::Duration;
use zskip_runtime::FrozenCharLm;
use zskip_serve::{
    trace_env_allowed, validate_chrome_json, LoadConfig, LoadGenerator, ServeConfig, Server,
    SpanKind, TraceExport, TraceSampler,
};

fn model() -> FrozenCharLm {
    FrozenCharLm::random(20, 16, 5)
}

/// A 2-shard server with churny load-generator traffic; returns the
/// drained trace.
fn churny_trace(sample_one_in: u64, streams: usize, rounds: usize) -> TraceExport {
    let server = Server::start(
        model(),
        ServeConfig::for_threshold(0.2)
            .with_shards(2)
            .with_trace_sampling(sample_one_in)
            // Large enough that nothing is overwritten mid-test: orphaned
            // stage children (parent dropped, child kept) would make the
            // nesting assertions meaningless.
            .with_trace_span_capacity(1 << 17),
    );
    let load = LoadGenerator::new(LoadConfig {
        streams,
        tokens_per_round: 4,
        rounds,
        churn: 0.2,
        seed: 11,
        deadline: Some(Duration::from_secs(5)),
    });
    load.run(&server).expect("load run succeeds");
    let trace = server.drain_trace();
    server.shutdown();
    trace
}

#[test]
fn churny_two_shard_run_traces_the_whole_token_life() {
    let trace = churny_trace(1, 48, 6);
    if !trace_env_allowed() {
        assert!(trace.is_empty(), "ZSKIP_TRACE=0 must veto all spans");
        return;
    }
    assert_eq!(trace.dropped(), 0, "test ring was sized to hold everything");
    assert!(!trace.is_empty());
    // Both shards contributed (48 streams hash across 2 shards).
    let shards: std::collections::BTreeSet<usize> = trace.spans().iter().map(|s| s.shard).collect();
    assert_eq!(shards.len(), 2, "spans from shards {shards:?}");
    // Every server-side stage of a token's life shows up.
    for kind in [
        SpanKind::ClientSubmit,
        SpanKind::QueueWait,
        SpanKind::BatchStep,
        SpanKind::Delivery,
        SpanKind::ClientRecv,
        SpanKind::Token,
    ] {
        assert!(
            trace.spans().iter().any(|s| s.span.kind == kind),
            "no {} span in the trace",
            kind.name()
        );
    }
    // Globally ordered across shards: the drain merges every ring onto
    // the shared clock origin.
    for pair in trace.spans().windows(2) {
        assert!(pair[0].span.start_ns <= pair[1].span.start_ns);
    }
    // Intervals are sane.
    for s in trace.spans() {
        assert!(s.span.end_ns >= s.span.start_ns);
    }
}

#[test]
fn stage_children_nest_inside_their_batch_step_parent() {
    let trace = churny_trace(1, 48, 6);
    if !trace_env_allowed() {
        return;
    }
    assert_eq!(trace.dropped(), 0);
    // Index the parents up front: (shard, stream, step index) names a
    // batch-step uniquely.
    let parents: std::collections::HashMap<(usize, u64, u64), &zskip_serve::ShardSpan> = trace
        .spans()
        .iter()
        .filter(|p| p.span.kind == SpanKind::BatchStep)
        .map(|p| ((p.shard, p.span.trace.0, p.span.a), p))
        .collect();
    let mut stage_spans = 0usize;
    for child in trace.spans() {
        let SpanKind::Stage(_) = child.span.kind else {
            continue;
        };
        stage_spans += 1;
        // The parent is the BatchStep on the same shard, same stream,
        // same step index (payload `a` ties them together).
        let parent = parents
            .get(&(child.shard, child.span.trace.0, child.span.a))
            .unwrap_or_else(|| panic!("stage span without batch-step parent: {child}"));
        assert!(
            parent.span.start_ns <= child.span.start_ns && child.span.end_ns <= parent.span.end_ns,
            "child {child} escapes parent {parent}"
        );
    }
    // Stage timing is on by default, so a traced run has stage children
    // (unless the stage-timing env veto is active in this process).
    if zskip_telemetry::stage_timing_env_allowed() {
        assert!(stage_spans > 0, "no stage child spans recorded");
    }
    // Batch-step payloads decode: batch size is nonzero, skip permille
    // is a permille.
    for s in trace.spans() {
        if s.span.kind == SpanKind::BatchStep {
            assert!(s.span.b >> 16 > 0, "batch size must be nonzero");
            assert!(s.span.b & 0xFFFF <= 1000, "skip permille out of range");
        }
    }
}

#[test]
fn sampling_is_deterministic_and_honored_by_every_recorder() {
    let trace = churny_trace(4, 48, 6);
    if !trace_env_allowed() {
        return;
    }
    // Every drained span belongs to a stream the sampler selects: the
    // TraceId *is* the sampling key, so the drained set must be exactly
    // reproducible from the rate.
    let sampler = TraceSampler::new(4);
    for s in trace.spans() {
        assert!(
            sampler.sampled(s.span.trace.0),
            "span from unsampled stream: {s}"
        );
    }
    // Rate 0 turns tracing off outright.
    let off = churny_trace(0, 16, 2);
    assert!(off.is_empty(), "sampling rate 0 must record nothing");
}

#[test]
fn exported_chrome_json_strict_parses_and_validates() {
    let trace = churny_trace(1, 12, 2);
    let json = trace.to_chrome_json();
    let v = validate_chrome_json(&json).expect("export validates");
    if !trace_env_allowed() {
        assert_eq!(v.events, 0);
        return;
    }
    let tokens = trace
        .spans()
        .iter()
        .filter(|s| s.span.kind == SpanKind::Token)
        .count();
    // Every non-token span renders as one complete event; every token
    // umbrella as one balanced async begin/end pair.
    assert_eq!(v.complete, trace.len() - tokens);
    assert_eq!(v.async_begins, tokens);
    assert_eq!(v.async_ends, tokens);
    assert!(v.metadata > 0, "process/thread names are emitted");
    // The strict parser rejects the same document with trailing input.
    assert!(validate_chrome_json(&format!("{json}\n[]")).is_err());
}

#[test]
fn client_and_server_agree_on_which_streams_trace() {
    let server = Server::start(
        model(),
        ServeConfig::for_threshold(0.2)
            .with_shards(2)
            .with_trace_sampling(4),
    );
    let mut client = server.client();
    for _ in 0..32 {
        let id = client.open().expect("open");
        assert_eq!(client.is_traced(id), server.is_traced(id));
        if !trace_env_allowed() {
            assert!(!client.is_traced(id));
        }
        client.close(id).expect("close");
    }
    server.shutdown();
}
