//! One run of one workload: set-up, output reference, warm-up, the timed
//! window, and — in a traced run — the span replay, the telemetry-off
//! window, the layer probes and the latency ledger.

use crate::driver::{reference_digests, Driver, Ops, StreamClient, RECV_TIMEOUT};
use crate::fixture::{self, Family, THRESHOLD};
use crate::probes::{self, Metrics};
use crate::report::Outcome;
use crate::span::{self_times_ns, SpanLog};
use crate::stats::{median, percentile};
use crate::sysinfo::{peak_rss_mb, process_cpu_us};
use crate::workload::{FamilyKind, Transport, Workload, SKIP_TOLERANCE, VOCAB};
use serde::value::Value;
use std::time::{Duration, Instant};
use zskip_runtime::{FrozenCharLm, FrozenQuantizedCharLm, Stage, StageBreakdown};
use zskip_serve::{ServeConfig, Server, ServerStats};
use zskip_wire::{RemoteClient, TcpServer};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Equal parts the timed window is cut into; every gated timing is the
/// median over the parts, so one disturbed part cannot move it.
const WINDOW_PARTS: usize = 5;
/// Spans kept in memory by a traced run (whole rounds only).
const SPAN_CAPACITY: usize = 50_000;

#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Timed window of an untraced run, and the total measuring budget
    /// of a traced one.
    pub seconds: f64,
    pub trace: bool,
}

impl RunConfig {
    /// Warm-up before any timed window: 2 s at the default 15 s window,
    /// scaled down with it for smoke runs.
    fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 2.0 / 15.0).min(2.0))
    }
}

/// The production default configuration at the workload's pinned shard
/// count (never the core-count default), or the same with every
/// telemetry signal configured off.
fn serve_config(workload: &Workload, telemetry: bool) -> ServeConfig {
    let mut config = ServeConfig::for_threshold(THRESHOLD).with_shards(workload.shards);
    if !telemetry {
        config.engine.stage_timing = false;
        config = config.with_trace_sampling(0);
    }
    config
}

enum Host<M: Family> {
    Local(Server<M>),
    Tcp(TcpServer<M>),
}

/// A served fixture with every stream of the workload open on it.
struct System<M: Family> {
    host: Host<M>,
    driver: Driver,
}

impl<M: Family> System<M> {
    /// Everything a deployment does before its first token: build and
    /// freeze the fixture, round-trip it through the snapshot container,
    /// start the server (bind and connect for TCP), open the streams.
    fn setup(workload: &Workload, seed: u64, config: ServeConfig) -> Result<Self, String> {
        let frozen: M = fixture::frozen(VOCAB, workload.dh, workload.sparsity, seed);
        let model = M::from_snapshot_bytes(&frozen.to_snapshot_bytes())
            .map_err(|e| format!("snapshot round-trip: {e}"))?;
        drop(frozen);
        let server = Server::start(model, config);
        let (host, client): (Host<M>, Box<dyn StreamClient>) = match workload.transport {
            Transport::InProcess => {
                let client = server.client().with_recv_timeout(RECV_TIMEOUT);
                (Host::Local(server), Box::new(client))
            }
            Transport::Tcp => {
                let tcp = TcpServer::bind(server, "127.0.0.1:0").map_err(|e| e.to_string())?;
                let client = RemoteClient::<M>::connect(tcp.local_addr())
                    .map_err(|e| e.to_string())?
                    .with_recv_timeout(RECV_TIMEOUT);
                (Host::Tcp(tcp), Box::new(client))
            }
        };
        let driver = Driver::open(client, workload, seed)?;
        Ok(Self { host, driver })
    }

    fn stats(&self) -> ServerStats {
        match &self.host {
            Host::Local(server) => server.stats(),
            Host::Tcp(tcp) => tcp.server().stats(),
        }
    }

    /// Closes the streams, disconnects and joins every server thread.
    fn teardown(mut self) -> Result<Ops, String> {
        let closed = self.driver.close_all();
        let ops = self.driver.ops;
        drop(self.driver);
        match self.host {
            Host::Local(server) => server.shutdown(),
            Host::Tcp(tcp) => tcp.shutdown(),
        }
        closed.map(|()| ops)
    }
}

/// One timed window, cut into parts; every field but the last two is
/// the median over the parts.
struct Window {
    tokens_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    /// Median token phase of a round (first send → last recv).
    round_p50_us: f64,
    cpu_us_per_token: f64,
    /// Slowest token of the whole window.
    max_us: f64,
    /// Latency samples over the whole window.
    samples: usize,
}

/// Runs the driver for `seconds`, in `parts` equal parts. Each part
/// refills the driver's raw-nanosecond buffers (sized by [`warm_up`]),
/// sorts them and takes its exact percentiles, so the benchmark's own
/// footprint stays a constant ~1 MiB whatever the throughput.
fn measure(
    driver: &mut Driver,
    seconds: f64,
    parts: usize,
    mut spans: Option<&mut SpanLog>,
) -> Result<Window, String> {
    let mut per_part: [Vec<f64>; 6] = Default::default();
    let (mut max_ns, mut samples) = (0u64, 0usize);
    for _ in 0..parts {
        driver.latencies.clear();
        driver.token_phases.clear();
        driver.recording = true;
        let (cpu_before, started) = (process_cpu_us()?, Instant::now());
        let ran = driver.run_for(
            Duration::from_secs_f64(seconds / parts as f64),
            spans.as_deref_mut(),
        );
        let (elapsed, cpu_after) = (started.elapsed().as_secs_f64(), process_cpu_us()?);
        driver.recording = false;
        ran?;
        driver.latencies.sort_unstable();
        driver.token_phases.sort_unstable();
        let tokens = driver.latencies.len();
        let us = |sorted: &[u64], q: f64| -> Result<f64, String> {
            percentile(sorted, q)
                .map(|ns| ns as f64 / 1e3)
                .ok_or_else(|| format!("too few samples in a window part for p{}", q * 100.0))
        };
        let part = [
            tokens as f64 / elapsed,
            us(&driver.latencies, 0.5)?,
            us(&driver.latencies, 0.9)?,
            us(&driver.latencies, 0.99)?,
            us(&driver.token_phases, 0.5)?,
            (cpu_after - cpu_before) / tokens as f64,
        ];
        for (values, value) in per_part.iter_mut().zip(part) {
            values.push(value);
        }
        max_ns = max_ns.max(driver.latencies.last().copied().unwrap_or(0));
        samples += tokens;
    }
    let [rate, p50, p90, p99, round_p50, cpu] = per_part.map(|values| median(&values));
    Ok(Window {
        tokens_per_s: rate,
        p50_us: p50,
        p90_us: p90,
        p99_us: p99,
        round_p50_us: round_p50,
        cpu_us_per_token: cpu,
        max_us: max_ns as f64 / 1e3,
        samples,
    })
}

/// Warm-up: fills caches and moves every session off the zero state.
/// Then sizes the driver's sample buffers for one part of `part_seconds`
/// at the observed rate and touches them, so the timed window neither
/// grows them nor faults them in.
fn warm_up(driver: &mut Driver, warmup: Duration, part_seconds: f64) -> Result<(), String> {
    let before = driver.tokens;
    let started = Instant::now();
    driver.run_for(warmup, None)?;
    let rate = (driver.tokens - before) as f64 / started.elapsed().as_secs_f64();
    let capacity = (rate * part_seconds * 2.0) as usize + 4096;
    for buffer in [&mut driver.latencies, &mut driver.token_phases] {
        *buffer = vec![0; capacity];
        buffer.clear();
    }
    Ok(())
}

/// The shard engines' cumulative counters at one instant.
#[derive(Clone, Copy)]
struct Counters {
    steps: u64,
    dense_steps: u64,
    tokens: u64,
    fetched_rows: u64,
    total_rows: u64,
    stages: StageBreakdown,
}

impl Counters {
    fn read(stats: &ServerStats) -> Self {
        let sum = |f: fn(&zskip_runtime::EngineStats) -> u64| -> u64 {
            stats.shards.iter().map(|s| f(&s.engine)).sum()
        };
        Self {
            steps: stats.steps(),
            dense_steps: stats.dense_steps(),
            tokens: stats.tokens(),
            fetched_rows: sum(|e| e.fetched_rows),
            total_rows: sum(|e| e.total_rows),
            stages: stats.stages(),
        }
    }

    /// What happened since `earlier` — the measured windows alone,
    /// without the warm-up's zero-state and partial-batch steps.
    fn since(&self, earlier: &Self) -> Self {
        Self {
            steps: self.steps - earlier.steps,
            dense_steps: self.dense_steps - earlier.dense_steps,
            tokens: self.tokens - earlier.tokens,
            fetched_rows: self.fetched_rows - earlier.fetched_rows,
            total_rows: self.total_rows - earlier.total_rows,
            stages: self.stages.saturating_sub(&earlier.stages),
        }
    }

    /// `ServerStats::skip_fraction()` over this interval.
    fn skip_fraction(&self) -> f64 {
        1.0 - self.fetched_rows as f64 / self.total_rows.max(1) as f64
    }

    fn dense_fallback_share(&self) -> f64 {
        self.dense_steps as f64 / self.steps.max(1) as f64
    }

    /// Whether the run sat at the workload's recorded operating point.
    fn on_target(&self, workload: &Workload) -> bool {
        let fallback_ok = if workload.sparsity == 0.0 {
            self.dense_fallback_share() >= 0.99
        } else {
            self.dense_fallback_share() <= 0.01
        };
        (self.skip_fraction() - workload.skip_fraction).abs() <= SKIP_TOLERANCE && fallback_ok
    }
}

fn details(
    bound_probes: &Metrics,
    ops: &Ops,
    counters: &Counters,
    workload: &Workload,
    samples: usize,
) -> Vec<(String, Value)> {
    let floats = |m: &Metrics| {
        Value::Map(
            m.iter()
                .map(|(k, v)| (k.to_string(), Value::Float(*v)))
                .collect(),
        )
    };
    vec![
        ("bound_probes".into(), floats(bound_probes)),
        ("latency_samples".into(), Value::Int(samples as i128)),
        (
            "checks".into(),
            Value::Map(vec![
                (
                    "digest_mismatches".into(),
                    Value::Int(ops.digest_mismatches as i128),
                ),
                (
                    "results_checked".into(),
                    Value::Int(ops.results_checked as i128),
                ),
                (
                    "skip_fraction".into(),
                    Value::Float(counters.skip_fraction()),
                ),
                (
                    "skip_fraction_expected".into(),
                    Value::Float(workload.skip_fraction),
                ),
                (
                    "dense_fallback_share".into(),
                    Value::Float(counters.dense_fallback_share()),
                ),
            ]),
        ),
    ]
}

fn bound_probes(budget: Duration) -> Result<Metrics, String> {
    Ok(vec![
        ("tensor.memcpy_gbps", probes::memcpy_gbps(budget)),
        ("wire.socket_echo_us", probes::socket_echo_us(budget)?),
    ])
}

/// Sets the system up once, timed.
fn timed_setup<M: Family>(run: &RunConfig) -> Result<(System<M>, f64), String> {
    let started = Instant::now();
    let system = System::setup(run.workload, run.seed, serve_config(run.workload, true))?;
    Ok((system, started.elapsed().as_secs_f64()))
}

fn untraced<M: Family>(run: &RunConfig) -> Result<Outcome, String> {
    let workload = run.workload;
    let mut ops = Ops::default();

    // The measured system is the first one the process sets up, as in a
    // freshly started server; the remaining set-up repeats and the bound
    // probes run after the window, where they cannot disturb its heap or
    // its caches.
    let (mut system, first_setup_s) = timed_setup::<M>(run)?;
    let mut setup_s = vec![first_setup_s];

    // The expected outputs, from a single plain engine. Not part of
    // `setup_s`: it is the benchmark's work, not the system's.
    let model: M = fixture::frozen(VOCAB, workload.dh, workload.sparsity, run.seed);
    system
        .driver
        .set_reference(reference_digests(model, workload.streams, run.seed));

    let part_seconds = run.seconds / WINDOW_PARTS as f64;
    warm_up(&mut system.driver, run.warmup(), part_seconds)?;
    let warm = Counters::read(&system.stats());
    let window = measure(&mut system.driver, run.seconds, WINDOW_PARTS, None)?;
    let counters = Counters::read(&system.stats()).since(&warm);
    let peak_rss_mb = peak_rss_mb()?;
    ops.absorb(system.teardown()?);

    for _ in 1..SETUP_REPEATS {
        let (system, seconds) = timed_setup::<M>(run)?;
        setup_s.push(seconds);
        ops.absorb(system.teardown()?);
    }
    let bounds = bound_probes(Duration::from_secs_f64(run.seconds / 100.0))?;

    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("tokens_per_s", window.tokens_per_s),
        ("token_latency_p50_us", window.p50_us),
        ("cpu_us_per_token", window.cpu_us_per_token),
        ("peak_rss_mb", peak_rss_mb),
    ];
    Ok(Outcome {
        correct: ops.failed == 0 && counters.on_target(workload),
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        details: details(&bounds, &ops, &counters, workload, window.samples),
    })
}

/// Traced-run time budget, as shares of `--seconds`: three replay
/// windows (plain, spans on, telemetry off) and the layer probes.
const REPLAY_SHARE: f64 = 0.2;
const PROBES_SHARE: f64 = 0.4;
/// Time-boxed probes in [`probes::layers`] plus the two bound probes.
const PROBE_COUNT: f64 = 20.0;
const REPLAY_PARTS: usize = 3;

fn traced<M: Family>(run: &RunConfig) -> Result<(Outcome, SpanLog), String> {
    let workload = run.workload;
    let config = serve_config(workload, true);
    let probe_budget = Duration::from_secs_f64(run.seconds * PROBES_SHARE / PROBE_COUNT);
    let replay_s = run.seconds * REPLAY_SHARE;
    let model: M = fixture::frozen(VOCAB, workload.dh, workload.sparsity, run.seed);
    let mut ops = Ops::default();

    // (a) The workload replayed: first as the untraced run drives it,
    // then with a span around every client call. The difference between
    // the two windows is the tracing overhead.
    let mut system: System<M> = System::setup(workload, run.seed, config)?;
    system
        .driver
        .set_reference(reference_digests(model.clone(), workload.streams, run.seed));
    let part_seconds = replay_s / REPLAY_PARTS as f64;
    warm_up(&mut system.driver, run.warmup(), part_seconds)?;
    let warm = Counters::read(&system.stats());
    let plain = measure(&mut system.driver, replay_s, REPLAY_PARTS, None)?;
    let mut spans = SpanLog::with_capacity(SPAN_CAPACITY);
    let with_spans = measure(&mut system.driver, replay_s, REPLAY_PARTS, Some(&mut spans))?;
    let stats = system.stats();
    let counters = Counters::read(&stats).since(&warm);
    ops.absorb(system.teardown()?);

    // The same traffic with stage timing and span sampling configured
    // off: what the default-on telemetry costs.
    let mut quiet: System<M> = System::setup(workload, run.seed, serve_config(workload, false))?;
    warm_up(&mut quiet.driver, run.warmup() / 2, part_seconds)?;
    let telemetry_off = measure(&mut quiet.driver, replay_s, REPLAY_PARTS, None)?;
    ops.absorb(quiet.teardown()?);

    // (b) Every layer probed at this workload's shapes.
    let mut metrics = probes::layers(&model, workload, &config, run.seed, probe_budget)?;
    let bounds = bound_probes(probe_budget)?;
    metrics.extend(bounds.iter().copied());
    let probe = |metrics: &Metrics, name: &str| -> f64 {
        metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("probe {name} did not run"))
            .1
    };

    let stages = counters.stages;
    let stage_total = stages.total().max(1) as f64;
    for (name, stage) in [
        ("runtime.stage_share.input_encode", Stage::InputEncode),
        ("runtime.stage_share.plan_build", Stage::PlanBuild),
        ("runtime.stage_share.recurrent_gemm", Stage::RecurrentGemm),
        ("runtime.stage_share.pointwise", Stage::Pointwise),
        ("runtime.stage_share.head", Stage::Head),
        ("runtime.stage_share.delivery", Stage::Delivery),
    ] {
        metrics.push((name, stages.get(stage) as f64 / stage_total));
    }
    metrics.push((
        "runtime.lanes_per_step",
        counters.tokens as f64 / counters.steps.max(1) as f64,
    ));
    metrics.push(("runtime.skip_fraction", counters.skip_fraction()));
    metrics.push((
        "runtime.dense_fallback_share",
        counters.dense_fallback_share(),
    ));
    metrics.push((
        "serve.queue_wait_p50_us",
        stats.queue_wait().p50() as f64 / 1e3,
    ));
    metrics.push(("serve.rejected", stats.rejected_requests() as f64));
    metrics.push(("serve.evicted", stats.evicted_sessions() as f64));

    // Self times: each probe minus the probe nested inside it.
    let steps = probes::steps_per_round(workload, &config) as f64;
    let engine_self =
        probe(&metrics, "runtime.engine_round_us") - probe(&metrics, "runtime.step_us");
    let serve_self =
        probe(&metrics, "serve.round_us") - steps * probe(&metrics, "runtime.engine_round_us");
    metrics.push(("runtime.engine_self_us", engine_self));
    metrics.push(("serve.self_us", serve_self));

    metrics.push((
        "telemetry.overhead_pct",
        (telemetry_off.tokens_per_s - plain.tokens_per_s) / telemetry_off.tokens_per_s * 100.0,
    ));
    metrics.push((
        "trace.overhead_pct",
        (plain.tokens_per_s - with_spans.tokens_per_s) / plain.tokens_per_s * 100.0,
    ));

    // The driver's own time per token: round self time (round minus the
    // client calls inside it) over the recorded rounds.
    let own = self_times_ns(spans.spans());
    let (mut round_self_ns, mut recorded_tokens) = (0u64, 0u64);
    for (span, own) in spans.spans().iter().zip(&own) {
        match span.name {
            "round" => round_self_ns += own,
            "recv" => recorded_tokens += 1,
            _ => {}
        }
    }
    let driver_self_us = round_self_ns as f64 / 1e3 / recorded_tokens.max(1) as f64;

    metrics.push(("client.round_p50_us", plain.round_p50_us));
    metrics.push(("client.latency_p50_us", plain.p50_us));
    metrics.push(("client.latency_p90_us", plain.p90_us));
    metrics.push(("client.latency_p99_us", plain.p99_us));
    metrics.push(("client.latency_max_us", plain.max_us));
    metrics.push(("client.samples", plain.samples as f64));
    metrics.push(("client.driver_self_us", driver_self_us));
    metrics.push((
        "client.failed_ops_share",
        ops.failed as f64 / ops.attempted.max(1) as f64,
    ));

    // The ledger: the layers' self times over one round's token phase
    // (first send → last recv; at one stream, exactly the token latency),
    // against the client-observed median of that interval. A round waits
    // for every step its busiest shard runs.
    let tensor_us =
        steps * (probe(&metrics, "tensor.gemm_us") + probe(&metrics, "tensor.lut_eval_us"));
    let runtime_us = steps * probe(&metrics, "runtime.engine_round_us") - tensor_us;
    let wire_us = match workload.transport {
        Transport::Tcp => probe(&metrics, "wire.self_us"),
        Transport::InProcess => 0.0,
    };
    let client_us = driver_self_us * workload.active as f64;
    let accounted = tensor_us + runtime_us + serve_self + wire_us + client_us;
    metrics.push(("ledger.tensor_us", tensor_us));
    metrics.push(("ledger.runtime_us", runtime_us));
    metrics.push(("ledger.serve_us", serve_self));
    metrics.push(("ledger.wire_us", wire_us));
    metrics.push(("ledger.client_us", client_us));
    metrics.push((
        "ledger.kernel_share_pct",
        (tensor_us + runtime_us) / plain.round_p50_us * 100.0,
    ));
    metrics.push((
        "ledger.residual_pct",
        (plain.round_p50_us - accounted) / plain.round_p50_us * 100.0,
    ));

    let mut details = details(&bounds, &ops, &counters, workload, plain.samples);
    details.push((
        "spans".into(),
        Value::Map(vec![
            ("recorded".into(), Value::Int(spans.spans().len() as i128)),
            (
                "rounds_dropped".into(),
                Value::Int(spans.rounds_dropped as i128),
            ),
        ]),
    ));
    Ok((
        Outcome {
            correct: ops.failed == 0 && counters.on_target(workload),
            attempted: ops.attempted,
            failed: ops.failed,
            metrics,
            details,
        },
        spans,
    ))
}

/// Runs `run` for its workload's family. A traced run also returns the
/// driver's span log.
pub fn execute(run: &RunConfig) -> Result<(Outcome, Option<SpanLog>), String> {
    fn of_family<M: Family>(run: &RunConfig) -> Result<(Outcome, Option<SpanLog>), String> {
        if run.trace {
            traced::<M>(run).map(|(outcome, spans)| (outcome, Some(spans)))
        } else {
            untraced::<M>(run).map(|outcome| (outcome, None))
        }
    }
    match run.workload.family {
        FamilyKind::F32 => of_family::<FrozenCharLm>(run),
        FamilyKind::I8 => of_family::<FrozenQuantizedCharLm>(run),
    }
}
