//! The closed-loop driver: one thread, lockstep rounds.
//!
//! Every stream is autoregressive — its next input waits for its last
//! result — so each round sends one token to every active stream and
//! then receives every result. A slow system therefore receives less
//! load; nothing queues behind a stall, and latency is the time from a
//! token's `send` to the return of its `recv`.

use crate::fixture::{Family, THRESHOLD};
use crate::span::SpanLog;
use crate::workload::{token, Workload, CHECKED_RESULTS};
use std::time::{Duration, Instant};
use zskip_runtime::{Engine, EngineConfig, StepResult};
use zskip_serve::StreamId;
use zskip_tensor::SeedableStream;
use zskip_wire::RemoteClient;

/// A hung server must fail the run, not hang it.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// The four calls the driver makes, over either transport. Private to
/// the benchmark: ROADMAP item 4 owns the real shared client trait.
pub trait StreamClient {
    fn open(&mut self) -> Result<StreamId, String>;
    fn send(&mut self, id: StreamId, input: usize) -> Result<(), String>;
    fn recv(&mut self, id: StreamId) -> Result<StepResult<usize>, String>;
    fn close(&mut self, id: StreamId) -> Result<(), String>;
}

macro_rules! impl_stream_client {
    ($client:ty) => {
        impl<M: Family> StreamClient for $client {
            fn open(&mut self) -> Result<StreamId, String> {
                <$client>::open(self).map_err(|e| e.to_string())
            }
            fn send(&mut self, id: StreamId, input: usize) -> Result<(), String> {
                <$client>::send(self, id, input).map_err(|e| e.to_string())
            }
            fn recv(&mut self, id: StreamId) -> Result<StepResult<usize>, String> {
                <$client>::recv(self, id).map_err(|e| e.to_string())
            }
            fn close(&mut self, id: StreamId) -> Result<(), String> {
                <$client>::close(self, id).map_err(|e| e.to_string())
            }
        }
    };
}
impl_stream_client!(zskip_serve::Client<M>);
impl_stream_client!(RemoteClient<M>);

/// FNV-1a over everything a result carries: the logits' bit patterns,
/// the argmax and the echoed input.
pub fn digest(result: &StepResult<usize>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for v in &result.logits {
        eat(&v.to_bits().to_le_bytes());
    }
    eat(&(result.argmax as u64).to_le_bytes());
    eat(&(result.input as u64).to_le_bytes());
    h
}

/// Expected digests of every stream slot's first [`CHECKED_RESULTS`]
/// results (`streams × CHECKED_RESULTS`, slot-major), produced by
/// replaying the slots' token streams through one plain [`Engine`].
/// Batch composition never changes a lane's bits, so the sharded server,
/// the TCP path and every reopened incarnation of a slot must reproduce
/// them exactly.
pub fn reference_digests<M: Family>(model: M, streams: usize, seed: u64) -> Vec<u64> {
    let mut engine = Engine::new(model, EngineConfig::for_threshold(THRESHOLD));
    let ids: Vec<_> = (0..streams).map(|_| engine.open_session()).collect();
    let mut digests = vec![0u64; streams * CHECKED_RESULTS];
    for pos in 0..CHECKED_RESULTS {
        for (slot, id) in ids.iter().enumerate() {
            engine
                .submit(*id, token(seed, slot, pos as u64))
                .expect("reference submit");
        }
        while engine.pending() > 0 {
            engine.step();
        }
        for (slot, id) in ids.iter().enumerate() {
            let result = engine
                .poll(*id)
                .expect("reference session is open")
                .expect("one result per submitted token");
            digests[slot * CHECKED_RESULTS + pos] = digest(&result);
            engine.recycle(result);
        }
    }
    digests
}

/// Operation accounting for `failed_ops`: every open, send and close is
/// an attempt; an error, refusal or timeout on it (or on the `recv` that
/// completes a send) and every digest mismatch is a failure.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub digest_mismatches: u64,
    pub results_checked: u64,
}

impl Ops {
    /// Adds another system's (or phase's) counts to this one.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.digest_mismatches += other.digest_mismatches;
        self.results_checked += other.results_checked;
    }
}

struct Slot {
    id: StreamId,
    /// Results received since this incarnation opened.
    pos: u64,
}

pub struct Driver {
    client: Box<dyn StreamClient>,
    streams: usize,
    active: usize,
    churn: usize,
    seed: u64,
    slots: Vec<Slot>,
    reference: Vec<u64>,
    rounds: u64,
    churn_rng: SeedableStream,
    sent_at: Vec<Instant>,
    pub ops: Ops,
    pub tokens: u64,
    /// While set, every round appends to the two buffers below.
    pub recording: bool,
    /// Raw per-token latencies (ns): `send` called → `recv` returned.
    pub latencies: Vec<u64>,
    /// Raw per-round token phases (ns): first `send` called → last
    /// `recv` returned, churn excluded — the interval the layer probes'
    /// self times have to add up to.
    pub token_phases: Vec<u64>,
}

impl Driver {
    /// Opens every stream of `workload` on `client`.
    pub fn open(
        client: Box<dyn StreamClient>,
        workload: &Workload,
        seed: u64,
    ) -> Result<Self, String> {
        let mut driver = Self {
            client,
            streams: workload.streams,
            active: workload.active,
            churn: workload.churn,
            seed,
            slots: Vec::with_capacity(workload.streams),
            reference: Vec::new(),
            rounds: 0,
            churn_rng: SeedableStream::new(seed ^ 0xC4A2),
            sent_at: vec![Instant::now(); workload.active],
            ops: Ops::default(),
            tokens: 0,
            recording: false,
            latencies: Vec::new(),
            token_phases: Vec::new(),
        };
        for _ in 0..workload.streams {
            let id = driver.counted(|c| c.open())?;
            driver.slots.push(Slot { id, pos: 0 });
        }
        Ok(driver)
    }

    /// Installs the expected digests (see [`reference_digests`]).
    pub fn set_reference(&mut self, reference: Vec<u64>) {
        assert_eq!(reference.len(), self.streams * CHECKED_RESULTS);
        self.reference = reference;
    }

    fn counted<T>(
        &mut self,
        op: impl FnOnce(&mut dyn StreamClient) -> Result<T, String>,
    ) -> Result<T, String> {
        self.ops.attempted += 1;
        op(self.client.as_mut()).inspect_err(|_| self.ops.failed += 1)
    }

    /// Child spans of one round: a send and a recv per active stream, a
    /// close and an open per churn pair.
    pub fn spans_per_round(&self) -> usize {
        2 * self.active + 2 * self.churn
    }

    /// One lockstep round. Client calls are recorded as spans when
    /// `spans` is given. The first failed operation aborts the round:
    /// after it the streams' positions are unknowable.
    pub fn round(&mut self, mut spans: Option<&mut SpanLog>) -> Result<(), String> {
        let base = (self.rounds as usize * self.active) % self.streams;
        let round_started = Instant::now();
        let round = spans
            .as_deref_mut()
            .and_then(|log| log.open_round(self.spans_per_round(), round_started));

        for i in 0..self.active {
            let k = (base + i) % self.streams;
            let (id, input) = (self.slots[k].id, token(self.seed, k, self.slots[k].pos));
            let started = Instant::now();
            self.sent_at[i] = started;
            self.counted(|c| c.send(id, input))?;
            if let Some(log) = spans.as_deref_mut() {
                log.child(round, "send", started, Instant::now(), k);
            }
        }

        for i in 0..self.active {
            let k = (base + i) % self.streams;
            let id = self.slots[k].id;
            let started = spans.is_some().then(Instant::now);
            let result = self.client.recv(id).inspect_err(|_| self.ops.failed += 1)?;
            let ended = Instant::now();
            if self.recording {
                let since = |earlier: Instant| ended.duration_since(earlier).as_nanos() as u64;
                self.latencies.push(since(self.sent_at[i]));
                if i + 1 == self.active {
                    self.token_phases.push(since(round_started));
                }
            }
            if let (Some(log), Some(started)) = (spans.as_deref_mut(), started) {
                log.child(round, "recv", started, ended, k);
            }
            let pos = self.slots[k].pos as usize;
            if pos < CHECKED_RESULTS && !self.reference.is_empty() {
                self.ops.results_checked += 1;
                if digest(&result) != self.reference[k * CHECKED_RESULTS + pos] {
                    self.ops.digest_mismatches += 1;
                    self.ops.failed += 1;
                }
            }
            self.slots[k].pos += 1;
            self.tokens += 1;
        }

        // `churn` distinct slots: a seeded start, evenly strided.
        if let Some(stride) = self.streams.checked_div(self.churn) {
            let start = self.churn_rng.index(self.streams);
            for j in 0..self.churn {
                let k = (start + j * stride) % self.streams;
                let old = self.slots[k].id;
                let started = Instant::now();
                self.counted(|c| c.close(old))?;
                let reopened_at = Instant::now();
                let id = self.counted(|c| c.open())?;
                if let Some(log) = spans.as_deref_mut() {
                    log.child(round, "close", started, reopened_at, k);
                    log.child(round, "open", reopened_at, Instant::now(), k);
                }
                self.slots[k] = Slot { id, pos: 0 };
            }
        }

        if let Some(log) = spans {
            log.close_round(round, Instant::now());
        }
        self.rounds += 1;
        Ok(())
    }

    /// Runs rounds for `duration`.
    pub fn run_for(
        &mut self,
        duration: Duration,
        mut spans: Option<&mut SpanLog>,
    ) -> Result<(), String> {
        let started = Instant::now();
        while started.elapsed() < duration {
            self.round(spans.as_deref_mut())?;
        }
        Ok(())
    }

    /// Closes every stream (each close is a counted operation).
    pub fn close_all(&mut self) -> Result<(), String> {
        while let Some(slot) = self.slots.pop() {
            self.counted(|c| c.close(slot.id))?;
        }
        Ok(())
    }
}
