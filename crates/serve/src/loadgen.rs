//! Synthetic traffic driver: sustained waves of open / submit / recv /
//! close against a running [`Server`].
//!
//! Used by `examples/serve.rs` and the `serve` criterion bench to
//! measure streams/sec and tokens/sec at a given shard count, and the
//! client-observed latency distribution: the driver times every token
//! from `send` to `recv`, so its percentiles include queue wait,
//! batching delay and the step itself, exactly what a real caller
//! experiences.

use crate::{ServeError, Server, StreamId};
use std::time::{Duration, Instant};
use zskip_runtime::{FrozenModel, InputSpec};
use zskip_telemetry::{HistogramSnapshot, SpanKind};
use zskip_tensor::SeedableStream;

/// Traffic shape for one [`LoadGenerator`] run.
#[derive(Clone, Copy, Debug)]
pub struct LoadConfig {
    /// Concurrent streams held open for the whole run.
    pub streams: usize,
    /// Tokens each stream submits per round.
    pub tokens_per_round: usize,
    /// Submit/recv rounds.
    pub rounds: usize,
    /// Per-round probability a stream is closed and replaced by a fresh
    /// one (open/close churn mixed into steady traffic).
    pub churn: f64,
    /// RNG seed for tokens and churn decisions.
    pub seed: u64,
    /// Client-side per-token latency target: a token whose send→recv
    /// time exceeds this counts as a deadline miss, overall and
    /// per stream. `None` disables miss accounting.
    pub deadline: Option<Duration>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            streams: 64,
            tokens_per_round: 4,
            rounds: 4,
            churn: 0.1,
            seed: 7,
            deadline: None,
        }
    }
}

/// Per-stream miss accounting for one stream's lifetime (a churned-out
/// stream folds its rate into the running worst before its slot is
/// reused).
#[derive(Clone, Copy, Default)]
struct StreamTally {
    tokens: u64,
    misses: u64,
}

impl StreamTally {
    fn miss_rate(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.misses as f64 / self.tokens as f64
        }
    }
}

/// Measured outcome of one load run.
#[derive(Clone, Copy, Debug)]
pub struct LoadReport {
    /// Wall-clock duration of the traffic (excluding initial opens).
    pub elapsed: Duration,
    /// Results received.
    pub tokens: u64,
    /// Streams opened (initial plus churn replacements).
    pub opened: u64,
    /// Streams closed (churn plus final teardown).
    pub closed: u64,
    /// Results received per second.
    pub tokens_per_sec: f64,
    /// Completed stream-rounds per second (`streams × rounds / elapsed`).
    pub stream_rounds_per_sec: f64,
    /// Client-observed send→recv latency of every token (queue wait +
    /// batching + step + delivery). Percentiles via
    /// [`HistogramSnapshot::p50`] … [`HistogramSnapshot::p999`].
    pub token_latency: HistogramSnapshot,
    /// Tokens later than [`LoadConfig::deadline`] (0 when no deadline).
    pub deadline_misses: u64,
    /// `deadline_misses / tokens` (0.0 when no deadline or no tokens).
    pub deadline_miss_rate: f64,
    /// The worst per-stream miss rate seen across every stream the run
    /// opened — a fairness signal: a healthy aggregate can hide one
    /// starving stream.
    pub worst_stream_miss_rate: f64,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} tokens in {:.3}s  ({:.0} tokens/s, {:.0} stream-rounds/s)",
            self.tokens,
            self.elapsed.as_secs_f64(),
            self.tokens_per_sec,
            self.stream_rounds_per_sec,
        )?;
        writeln!(f, "token latency  {}", self.token_latency)?;
        write!(
            f,
            "deadline misses {} ({:.2}% overall, worst stream {:.2}%)",
            self.deadline_misses,
            self.deadline_miss_rate * 100.0,
            self.worst_stream_miss_rate * 100.0,
        )
    }
}

/// Drives mixed open/submit/recv/close traffic through a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct LoadGenerator {
    config: LoadConfig,
}

impl LoadGenerator {
    /// A generator producing `config`-shaped traffic.
    pub fn new(config: LoadConfig) -> Self {
        assert!(config.streams > 0, "load needs at least one stream");
        Self { config }
    }

    /// Runs the traffic against `server` and reports throughput plus the
    /// client-observed latency distribution.
    ///
    /// Works against any served model family: inputs are drawn through
    /// the server's [`InputSpec`], so the same generator drives token
    /// streams into an LM server and pixel streams into a classifier.
    ///
    /// Every round: a churn pass closes/reopens a random subset of
    /// streams, a submit wave feeds `tokens_per_round` inputs to every
    /// stream (stamping each send), and a recv wave collects every
    /// result, recording its send→recv latency and deadline verdict.
    /// All streams are closed at the end, so back-to-back runs do not
    /// accumulate sessions.
    pub fn run<M: FrozenModel>(&self, server: &Server<M>) -> Result<LoadReport, ServeError> {
        let cfg = self.config;
        let mut client = server.client();
        let mut rng = SeedableStream::new(cfg.seed);
        let mut streams: Vec<StreamId> = Vec::with_capacity(cfg.streams);
        for _ in 0..cfg.streams {
            streams.push(client.open()?);
        }
        let (mut opened, mut closed, mut tokens) = (cfg.streams as u64, 0u64, 0u64);
        let mut latency = HistogramSnapshot::empty();
        let mut misses = 0u64;
        let mut tallies = vec![StreamTally::default(); cfg.streams];
        let mut worst_rate = 0.0f64;
        // Send stamps of one round's in-flight tokens, per stream slot
        // (recv order within a stream is submit order, so a plain queue
        // pairs each result with its send time).
        let mut sent_at: Vec<std::collections::VecDeque<Instant>> =
            vec![std::collections::VecDeque::with_capacity(cfg.tokens_per_round); cfg.streams];

        let start = Instant::now();
        for round in 0..cfg.rounds {
            for (slot, tally) in streams.iter_mut().zip(tallies.iter_mut()) {
                if rng.coin(cfg.churn) {
                    client.close(*slot)?;
                    closed += 1;
                    // The outgoing stream's miss rate is final; fold it
                    // into the worst before the slot starts fresh.
                    worst_rate = worst_rate.max(tally.miss_rate());
                    *tally = StreamTally::default();
                    *slot = client.open()?;
                    opened += 1;
                }
            }
            for (&id, stamps) in streams.iter().zip(sent_at.iter_mut()) {
                for _ in 0..cfg.tokens_per_round {
                    let input = client.input_spec().sample(&mut rng);
                    stamps.push_back(Instant::now());
                    client.send(id, input)?;
                }
            }
            for ((&id, stamps), tally) in streams
                .iter()
                .zip(sent_at.iter_mut())
                .zip(tallies.iter_mut())
            {
                for _ in 0..cfg.tokens_per_round {
                    client.recv(id)?;
                    tokens += 1;
                    tally.tokens += 1;
                    let sent = stamps
                        .pop_front()
                        .expect("one send stamp per received token");
                    let now = Instant::now();
                    let waited = now.duration_since(sent);
                    latency.record_duration(waited);
                    let missed = cfg.deadline.is_some_and(|d| waited > d);
                    if missed {
                        misses += 1;
                        tally.misses += 1;
                    }
                    // Stitch the whole send→recv life of the token into
                    // the trace as an umbrella span (no-op unless the
                    // stream is sampled): the client-observed latency the
                    // report aggregates becomes visible per token.
                    client.record_span(
                        id,
                        SpanKind::Token,
                        sent,
                        now,
                        round as u64,
                        u64::from(missed),
                    );
                }
            }
        }
        let elapsed = start.elapsed();
        for id in streams {
            client.close(id)?;
            closed += 1;
        }
        for tally in &tallies {
            worst_rate = worst_rate.max(tally.miss_rate());
        }

        let secs = elapsed.as_secs_f64().max(1e-9);
        Ok(LoadReport {
            elapsed,
            tokens,
            opened,
            closed,
            tokens_per_sec: tokens as f64 / secs,
            stream_rounds_per_sec: (cfg.streams * cfg.rounds) as f64 / secs,
            token_latency: latency,
            deadline_misses: misses,
            deadline_miss_rate: if tokens == 0 {
                0.0
            } else {
                misses as f64 / tokens as f64
            },
            worst_stream_miss_rate: worst_rate,
        })
    }
}
