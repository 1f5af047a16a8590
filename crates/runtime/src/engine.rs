//! Serving front-end: sessions, a submit/poll API, and the step loop that
//! drives the [`DynamicBatcher`].
//!
//! The engine models the paper's multi-user serving scenario: each client
//! holds an [`SessionId`] with private `(h, c)` state and streams inputs
//! one at a time; every [`Engine::step`] coalesces up to `max_batch`
//! sessions with pending work into one batched recurrent step, so
//! concurrent streams share each weight-row fetch (Section III-D's
//! batch-processing dataflow).
//!
//! The engine is generic over [`FrozenModel`], so the same scheduler —
//! intrusive ready-queue, generational session slots, `O(1)` pending
//! counter — serves every model family.

use crate::batcher::{BatchStep, DynamicBatcher, SkipPolicy, StepStats};
use crate::model::{FrozenModel, StateLanes, StateScalar, StepScratch};
use crate::weights::FrozenCharLm;
use std::collections::VecDeque;
use zskip_telemetry::{Stage, StageBreakdown};

/// Handle to one streaming decode session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Errors from the submit/poll API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The session id was never issued by this engine, or was closed
    /// (closing reclaims the slot, so the handle stops resolving).
    UnknownSession,
    /// The input failed the served model's validation: an
    /// out-of-vocabulary token for the language-model families, a
    /// non-finite pixel for the sequential classifier.
    InvalidInput,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownSession => write!(f, "unknown or closed session id"),
            EngineError::InvalidInput => write!(
                f,
                "input rejected by the served model (out-of-vocabulary token or non-finite value)"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// One completed inference step for one session.
#[derive(Clone, Debug, PartialEq)]
pub struct StepResult<I = usize> {
    /// The session this result belongs to.
    pub session: SessionId,
    /// The input that was consumed (token id or pixel).
    pub input: I,
    /// Head logits (`output_dim`).
    pub logits: Vec<f32>,
    /// Argmax of the logits — the greedy next token, or the running
    /// class prediction for the classifier family.
    pub argmax: usize,
}

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Pruning threshold the served model was trained with (Eq. 5).
    pub threshold: f32,
    /// Maximum sessions coalesced into one batched step.
    pub max_batch: usize,
    /// Skip-path policy (offset width, dense fallback).
    pub policy: SkipPolicy,
    /// Whether the step measures its per-stage wall-clock breakdown
    /// (see [`EngineStats::stages`]). On by default — the laps are a
    /// handful of `Instant` reads per *batched* step, far below noise —
    /// and vetoable process-wide with `ZSKIP_STAGE_TIMING=0`.
    pub stage_timing: bool,
}

impl EngineConfig {
    /// Configuration for a model trained at `threshold`, batching up to 16
    /// sessions per step.
    pub fn for_threshold(threshold: f32) -> Self {
        Self {
            threshold,
            max_batch: 16,
            policy: SkipPolicy::default(),
            stage_timing: true,
        }
    }
}

/// Aggregate serving statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Batched steps executed.
    pub steps: u64,
    /// Inputs processed across all sessions.
    pub tokens: u64,
    /// Steps that took the sparse kernel.
    pub sparse_steps: u64,
    /// Steps that fell back to the dense kernel.
    pub dense_steps: u64,
    /// `Wh` rows actually fetched.
    pub fetched_rows: u64,
    /// `Wh` rows a dense engine would have fetched.
    pub total_rows: u64,
    /// Anchor columns forced by offset saturation.
    pub anchor_columns: u64,
    /// Cumulative wall-clock per step stage (input encode, plan build,
    /// recurrent GEMM, pointwise, head, delivery) — all zero when
    /// [`EngineConfig::stage_timing`] is off or `ZSKIP_STAGE_TIMING=0`.
    pub stages: StageBreakdown,
}

impl EngineStats {
    /// Fraction of recurrent weight fetches (and MACs) skipped so far.
    pub fn skip_fraction(&self) -> f64 {
        if self.total_rows == 0 {
            0.0
        } else {
            1.0 - self.fetched_rows as f64 / self.total_rows as f64
        }
    }

    fn absorb(&mut self, s: &StepStats) {
        self.steps += 1;
        self.tokens += s.lanes as u64;
        if s.used_sparse_path {
            self.sparse_steps += 1;
        } else {
            self.dense_steps += 1;
        }
        self.fetched_rows += s.fetched_rows as u64;
        self.total_rows += s.hidden as u64;
        self.anchor_columns += s.anchor_columns as u64;
    }
}

/// Sentinel for "no next slot" in the intrusive ready list.
const READY_NONE: usize = usize::MAX;

struct SessionState<I, S> {
    /// Pruned hidden-state lane in the family's state scalar (`f32`
    /// values or `i8` codes).
    h: Vec<S>,
    /// Cell-state lane (empty for the GRU family).
    c: Vec<S>,
    queued: VecDeque<I>,
    outbox: VecDeque<StepResult<I>>,
    /// `false` once closed: the slot is on the free list awaiting reuse.
    live: bool,
    /// Bumped every time the slot is recycled; part of the [`SessionId`],
    /// so handles to dead sessions fail instead of aliasing new ones.
    generation: u32,
    /// Intrusive ready-list link: the next slot index in FIFO order, or
    /// [`READY_NONE`] for the tail.
    next_ready: usize,
    /// Whether this *slot* currently sits in the ready list. Tracked per
    /// slot (not per session) and deliberately **not** reset on close or
    /// recycle: a stale list entry keeps representing the slot until it is
    /// popped, which keeps the "at most one entry per slot" invariant that
    /// stops a session from being batched twice in one step.
    in_ready: bool,
}

fn encode_id(index: usize, generation: u32) -> SessionId {
    SessionId(((generation as u64) << 32) | index as u64)
}

fn decode_id(id: SessionId) -> (usize, u32) {
    ((id.0 & 0xFFFF_FFFF) as usize, (id.0 >> 32) as u32)
}

/// The engine's reusable batch-assembly workspace: everything a step
/// stages outside the batcher's own [`StepScratch`] — picked sessions,
/// packed state lanes, the delivered-id list — lives here and is
/// recycled step over step, so the steady-state step allocates nothing.
struct EngineScratch<I, S> {
    /// `(slot index, input)` pairs picked from the ready list this step.
    picked: Vec<(usize, I)>,
    /// Slots with further queued inputs, re-appended after picking.
    requeue: Vec<usize>,
    /// The picked inputs, contiguous for the batcher.
    inputs: Vec<I>,
    /// Packed hidden-state lanes (`B × dh`).
    h: StateLanes<S>,
    /// Packed cell-state lanes (`B × cell_dim`).
    c: StateLanes<S>,
    /// Session ids delivered this step — the slice [`Engine::step`]
    /// returns.
    delivered: Vec<SessionId>,
    /// The batcher's per-step workspace.
    step: StepScratch<S>,
}

impl<I, S: StateScalar> EngineScratch<I, S> {
    fn new(stage_timing: bool) -> Self {
        Self {
            picked: Vec::new(),
            requeue: Vec::new(),
            inputs: Vec::new(),
            h: StateLanes::zeros(0, 0),
            c: StateLanes::zeros(0, 0),
            delivered: Vec::new(),
            step: StepScratch::with_stage_timing(stage_timing),
        }
    }
}

/// The serving engine: frozen weights, private per-session state, dynamic
/// batching — generic over the served [`FrozenModel`] family.
///
/// # Example
///
/// ```
/// use zskip_nn::models::CharLm;
/// use zskip_runtime::{Engine, EngineConfig, FrozenCharLm};
/// use zskip_tensor::SeedableStream;
///
/// let mut rng = SeedableStream::new(7);
/// let mut model = CharLm::new(30, 24, &mut rng);
/// let mut engine = Engine::new(
///     FrozenCharLm::freeze(&mut model),
///     EngineConfig::for_threshold(0.2),
/// );
/// let user = engine.open_session();
/// engine.submit(user, 5).unwrap();
/// engine.step();
/// let result = engine.poll(user).unwrap().expect("one result");
/// assert_eq!(result.logits.len(), 30);
/// ```
///
/// The same engine serves a GRU (note: no cell state) without any code
/// change on the caller's side:
///
/// ```
/// use zskip_runtime::{Engine, EngineConfig, FrozenGruCharLm};
///
/// let mut engine = Engine::new(
///     FrozenGruCharLm::random(30, 24, 1),
///     EngineConfig::for_threshold(0.2),
/// );
/// let user = engine.open_session();
/// engine.submit(user, 5).unwrap();
/// engine.step();
/// assert!(engine.poll(user).unwrap().is_some());
/// ```
pub struct Engine<M: FrozenModel = FrozenCharLm> {
    batcher: DynamicBatcher<M>,
    max_batch: usize,
    sessions: Vec<SessionState<M::Input, M::State>>,
    /// Recycled slots: closed sessions whose results have been drained.
    free: Vec<usize>,
    /// Head/tail of the intrusive FIFO of slots with (potentially) queued
    /// inputs. `step` pops from the head, so idle sessions are never
    /// visited — the per-step cost is `O(ready)`, not `O(open sessions)`.
    ready_head: usize,
    ready_tail: usize,
    /// Inputs queued across all sessions, maintained incrementally so
    /// [`Engine::pending`] is `O(1)`.
    queued_tokens: usize,
    /// Recycled logits buffers (see [`Engine::recycle`]): `step` pops
    /// one per delivered result instead of allocating, the caller hands
    /// consumed results back. Never larger than the number of results
    /// simultaneously in flight.
    logits_pool: Vec<Vec<f32>>,
    scratch: EngineScratch<M::Input, M::State>,
    stats: EngineStats,
}

impl<M: FrozenModel> Engine<M> {
    /// Creates an engine serving `model`.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` is zero, or if `model` bakes in a
    /// pruning threshold other than `config.threshold`
    /// ([`DynamicBatcher::new`]).
    pub fn new(model: M, config: EngineConfig) -> Self {
        assert!(config.max_batch > 0, "max_batch must be positive");
        Self {
            batcher: DynamicBatcher::new(model, config.threshold, config.policy),
            max_batch: config.max_batch,
            sessions: Vec::new(),
            free: Vec::new(),
            ready_head: READY_NONE,
            ready_tail: READY_NONE,
            queued_tokens: 0,
            logits_pool: Vec::new(),
            scratch: EngineScratch::new(config.stage_timing),
            stats: EngineStats::default(),
        }
    }

    /// The frozen model being served.
    pub fn model(&self) -> &M {
        self.batcher.model()
    }

    /// Aggregate serving statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Opens a new session with zeroed `(h, c)` state, recycling the slot
    /// of a fully drained closed session when one is available (so
    /// open/close churn does not grow the engine).
    pub fn open_session(&mut self) -> SessionId {
        let dh = self.model().hidden_dim();
        let dc = self.model().cell_dim();
        if let Some(index) = self.free.pop() {
            let s = &mut self.sessions[index];
            s.h = vec![M::State::ZERO; dh];
            s.c = vec![M::State::ZERO; dc];
            s.queued.clear();
            s.outbox.clear();
            s.live = true;
            s.generation = s.generation.wrapping_add(1);
            // `in_ready` is intentionally preserved: the slot may still
            // hold a (stale) ready-list entry from its previous life.
            return encode_id(index, s.generation);
        }
        self.sessions.push(SessionState {
            h: vec![M::State::ZERO; dh],
            c: vec![M::State::ZERO; dc],
            queued: VecDeque::new(),
            outbox: VecDeque::new(),
            live: true,
            generation: 0,
            next_ready: READY_NONE,
            in_ready: false,
        });
        encode_id(self.sessions.len() - 1, 0)
    }

    /// Closes a session: pending inputs, undelivered results and the
    /// state buffers are all discarded and the slot is reclaimed
    /// immediately (abandoned sessions cannot grow the engine). Poll
    /// everything you need *before* closing; afterwards the handle stops
    /// resolving.
    pub fn close_session(&mut self, id: SessionId) -> Result<(), EngineError> {
        let (index, _) = decode_id(id);
        let s = self.session_mut(id)?;
        s.live = false;
        let discarded = s.queued.len();
        s.queued.clear();
        s.outbox.clear();
        s.h = Vec::new();
        s.c = Vec::new();
        // A stale ready-list entry for this slot (if any) is dropped
        // lazily the next time `step` pops it.
        self.queued_tokens -= discarded;
        self.free.push(index);
        Ok(())
    }

    fn session_mut(
        &mut self,
        id: SessionId,
    ) -> Result<&mut SessionState<M::Input, M::State>, EngineError> {
        let (index, generation) = decode_id(id);
        match self.sessions.get_mut(index) {
            Some(s) if s.generation == generation && s.live => Ok(s),
            _ => Err(EngineError::UnknownSession),
        }
    }

    /// Enqueues one input on a session. Session errors take precedence
    /// over input validation.
    pub fn submit(&mut self, id: SessionId, input: M::Input) -> Result<(), EngineError> {
        let valid = self.model().validate_input(&input);
        let (index, _) = decode_id(id);
        let s = self.session_mut(id)?;
        if !valid {
            return Err(EngineError::InvalidInput);
        }
        s.queued.push_back(input);
        self.queued_tokens += 1;
        self.push_ready(index);
        Ok(())
    }

    /// Number of inputs queued across all sessions (`O(1)`).
    pub fn pending(&self) -> usize {
        self.queued_tokens
    }

    /// Appends a slot to the ready list unless it already holds an entry.
    fn push_ready(&mut self, index: usize) {
        let s = &mut self.sessions[index];
        if s.in_ready {
            return;
        }
        s.in_ready = true;
        s.next_ready = READY_NONE;
        if self.ready_tail == READY_NONE {
            self.ready_head = index;
        } else {
            self.sessions[self.ready_tail].next_ready = index;
        }
        self.ready_tail = index;
    }

    /// Pops the head of the ready list, if any.
    fn pop_ready(&mut self) -> Option<usize> {
        let index = self.ready_head;
        if index == READY_NONE {
            return None;
        }
        let s = &mut self.sessions[index];
        self.ready_head = s.next_ready;
        if self.ready_head == READY_NONE {
            self.ready_tail = READY_NONE;
        }
        s.next_ready = READY_NONE;
        s.in_ready = false;
        Some(index)
    }

    /// Pops the oldest undelivered result for a session, if any.
    pub fn poll(&mut self, id: SessionId) -> Result<Option<StepResult<M::Input>>, EngineError> {
        Ok(self.session_mut(id)?.outbox.pop_front())
    }

    /// Executes one batched step over up to `max_batch` sessions popped
    /// from the ready list (FIFO round-robin: a session with more inputs
    /// re-enters at the tail, so no ready session waits more than
    /// `ceil(open_slots / max_batch)` steps). Each result is delivered to
    /// its session's poll queue; the returned ids say which sessions have
    /// a new result (the slice borrows the engine's scratch — copy it out
    /// if you need it across further engine calls).
    ///
    /// Idle sessions are never visited: the step costs `O(batch)`, not
    /// `O(open sessions)` — what lets one engine hold thousands of open
    /// but quiet streams. In steady state (stable sessions, constant
    /// batch shape, results handed back via [`Engine::recycle`]) the
    /// step performs **zero heap allocations**: batch assembly, the
    /// recurrent kernels, the head and the result buffers all run in
    /// reused storage (pinned by the counting-allocator test in
    /// `tests/`).
    ///
    /// Returns an empty slice when nothing is pending.
    pub fn step(&mut self) -> &[SessionId] {
        self.scratch.delivered.clear();
        self.scratch.picked.clear();
        self.scratch.requeue.clear();
        while self.scratch.picked.len() < self.max_batch {
            let Some(idx) = self.pop_ready() else { break };
            let s = &mut self.sessions[idx];
            if !s.live {
                continue; // stale entry of a closed slot — dropped lazily
            }
            if let Some(input) = s.queued.pop_front() {
                self.queued_tokens -= 1;
                if !s.queued.is_empty() {
                    self.scratch.requeue.push(idx);
                }
                self.scratch.picked.push((idx, input));
            }
        }
        // Re-append *after* picking so one session cannot occupy two
        // lanes of the same batch.
        for i in 0..self.scratch.requeue.len() {
            let idx = self.scratch.requeue[i];
            self.push_ready(idx);
        }
        if self.scratch.picked.is_empty() {
            return &self.scratch.delivered;
        }

        let dh = self.model().hidden_dim();
        let dc = self.model().cell_dim();
        let b = self.scratch.picked.len();
        // Fully overwritten by the row copies below — no zero-fill.
        self.scratch.h.resize_for_overwrite(b, dh);
        self.scratch.c.resize_for_overwrite(b, dc);
        for (r, (idx, _)) in self.scratch.picked.iter().enumerate() {
            self.scratch
                .h
                .row_mut(r)
                .copy_from_slice(&self.sessions[*idx].h);
            self.scratch
                .c
                .row_mut(r)
                .copy_from_slice(&self.sessions[*idx].c);
        }
        self.scratch.inputs.clear();
        self.scratch
            .inputs
            .extend(self.scratch.picked.iter().map(|(_, t)| *t));
        let stats = self.batcher.step_into(
            BatchStep {
                h: &self.scratch.h,
                c: &self.scratch.c,
                inputs: &self.scratch.inputs,
            },
            &mut self.scratch.step,
        );
        self.stats.absorb(&stats);

        for (r, (idx, input)) in self.scratch.picked.iter().enumerate() {
            let session = &mut self.sessions[*idx];
            session.h.copy_from_slice(self.scratch.step.h_next.row(r));
            session.c.copy_from_slice(self.scratch.step.c_next.row(r));
            let logits_row = self.scratch.step.head.logits.row(r);
            // Reuse a recycled buffer when one is available; its capacity
            // already fits (every pooled buffer once held a logits row).
            let mut logits = self.logits_pool.pop().unwrap_or_default();
            logits.clear();
            logits.extend_from_slice(logits_row);
            // Same first-max tie-breaking as the training-side metrics.
            let argmax = zskip_tensor::stats::argmax(&logits);
            let id = encode_id(*idx, session.generation);
            session.outbox.push_back(StepResult {
                session: id,
                input: *input,
                logits,
                argmax,
            });
            self.scratch.delivered.push(id);
        }
        // The result fan-out above is the Delivery stage; fold the whole
        // step's laps into the cumulative breakdown.
        self.scratch.step.stages.lap(Stage::Delivery);
        let lapped = self.scratch.step.stages.take();
        self.stats.stages.add(&lapped);
        &self.scratch.delivered
    }

    /// Hands a consumed result's buffers back for reuse: the next
    /// [`Engine::step`] pops the logits vector from the pool instead of
    /// allocating a fresh one. Entirely optional — a dropped result just
    /// costs the steady-state step one allocation per delivery — but
    /// callers that recycle close the loop to zero allocations.
    pub fn recycle(&mut self, result: StepResult<M::Input>) {
        let mut logits = result.logits;
        logits.clear();
        self.logits_pool.push(logits);
    }

    /// Steps until no session has pending inputs; returns the session ids
    /// of all delivered results in completion order (poll each session to
    /// collect them).
    pub fn run_until_idle(&mut self) -> Vec<SessionId> {
        let mut all = Vec::new();
        loop {
            let batch = self.step();
            if batch.is_empty() {
                return all;
            }
            all.extend_from_slice(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{FrozenGruCharLm, FrozenSeqClassifier};
    use zskip_nn::models::CharLm;
    use zskip_tensor::SeedableStream;

    fn engine(threshold: f32, max_batch: usize) -> Engine {
        let mut rng = SeedableStream::new(11);
        let mut model = CharLm::new(16, 10, &mut rng);
        let mut config = EngineConfig::for_threshold(threshold);
        config.max_batch = max_batch;
        Engine::new(FrozenCharLm::freeze(&mut model), config)
    }

    #[test]
    fn submit_step_poll_round_trip() {
        let mut e = engine(0.1, 8);
        let a = e.open_session();
        let b = e.open_session();
        e.submit(a, 1).unwrap();
        e.submit(b, 2).unwrap();
        assert_eq!(e.step().len(), 2);
        assert!(e.poll(a).unwrap().is_some());
        assert!(e.poll(b).unwrap().is_some());
        assert!(e.poll(a).unwrap().is_none());
    }

    #[test]
    fn batch_cap_is_honored_and_round_robin_catches_up() {
        let mut e = engine(0.1, 2);
        let ids: Vec<SessionId> = (0..5).map(|_| e.open_session()).collect();
        for &id in &ids {
            e.submit(id, 3).unwrap();
        }
        assert_eq!(e.step().len(), 2);
        assert_eq!(e.step().len(), 2);
        assert_eq!(e.step().len(), 1);
        assert_eq!(e.step().len(), 0);
        assert_eq!(e.stats().tokens, 5);
    }

    #[test]
    fn errors_are_reported() {
        let mut e = engine(0.1, 4);
        let id = e.open_session();
        assert_eq!(e.submit(id, 999), Err(EngineError::InvalidInput));
        assert_eq!(e.submit(SessionId(42), 1), Err(EngineError::UnknownSession));
        // Session errors take precedence over input validation.
        assert_eq!(
            e.submit(SessionId(42), 999),
            Err(EngineError::UnknownSession)
        );
        // Closing kills the handle for every operation.
        e.close_session(id).unwrap();
        assert_eq!(e.submit(id, 1), Err(EngineError::UnknownSession));
        assert_eq!(e.close_session(id), Err(EngineError::UnknownSession));
    }

    #[test]
    fn gru_engine_serves_tokens_and_rejects_oov() {
        let mut e = Engine::new(
            FrozenGruCharLm::random(12, 8, 2),
            EngineConfig::for_threshold(0.2),
        );
        let id = e.open_session();
        assert_eq!(e.submit(id, 12), Err(EngineError::InvalidInput));
        e.submit(id, 3).unwrap();
        e.step();
        let r = e.poll(id).unwrap().expect("gru result");
        assert_eq!(r.logits.len(), 12);
        assert_eq!(r.input, 3);
    }

    #[test]
    fn classifier_engine_streams_pixels_and_rejects_nan() {
        let mut e = Engine::new(
            FrozenSeqClassifier::random(4, 6, 3),
            EngineConfig::for_threshold(0.1),
        );
        let id = e.open_session();
        assert_eq!(e.submit(id, f32::NAN), Err(EngineError::InvalidInput));
        for pixel in [0.1f32, 0.9, 0.4] {
            e.submit(id, pixel).unwrap();
        }
        let delivered = e.run_until_idle();
        assert_eq!(delivered.len(), 3);
        let r = e.poll(id).unwrap().expect("classifier result");
        assert_eq!(r.logits.len(), 4);
        assert!(r.argmax < 4);
    }

    #[test]
    fn session_churn_recycles_slots_and_invalidates_old_ids() {
        let mut e = engine(0.1, 4);
        let mut first_id = None;
        for round in 0..1000 {
            let id = e.open_session();
            first_id.get_or_insert(id);
            e.submit(id, round % 16).unwrap();
            e.step();
            assert!(e.poll(id).unwrap().is_some());
            e.close_session(id).unwrap();
        }
        // Churn must not grow the engine: every drained slot is reused.
        assert_eq!(e.sessions.len(), 1);
        // A recycled id must not alias the sessions that reused its slot.
        assert_eq!(
            e.submit(first_id.unwrap(), 1),
            Err(EngineError::UnknownSession)
        );
    }

    #[test]
    fn abandoned_sessions_are_reclaimed_without_polling() {
        // Close without ever polling (a disconnected client): queued
        // inputs and undelivered results are discarded and the slot is
        // recycled immediately.
        let mut e = engine(0.1, 4);
        for round in 0..100 {
            let id = e.open_session();
            e.submit(id, round % 16).unwrap();
            e.step();
            e.submit(id, (round + 1) % 16).unwrap(); // queued, never stepped
            e.close_session(id).unwrap(); // outbox + queue dropped
            assert!(matches!(e.poll(id), Err(EngineError::UnknownSession)));
        }
        assert_eq!(e.sessions.len(), 1, "abandonment grew the engine");
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn stage_breakdown_accumulates_when_enabled() {
        if !zskip_telemetry::stage_timing_env_allowed() {
            return; // ZSKIP_STAGE_TIMING=0 in this process
        }
        let mut e = engine(0.1, 4);
        let id = e.open_session();
        for t in 0..200 {
            e.submit(id, t % 16).unwrap();
        }
        e.run_until_idle();
        let stages = &e.stats().stages;
        assert!(
            !stages.is_zero(),
            "200 steps attributed no stage time at all"
        );
        // The recurrent GEMM and the head both run real GEMMs every
        // step; over 200 steps each must register at least once.
        assert!(stages.get(Stage::RecurrentGemm) > 0);
        assert!(stages.get(Stage::Head) > 0);
    }

    #[test]
    fn stage_breakdown_stays_zero_when_disabled() {
        let mut rng = SeedableStream::new(11);
        let mut model = CharLm::new(16, 10, &mut rng);
        let mut config = EngineConfig::for_threshold(0.1);
        config.stage_timing = false;
        let mut e = Engine::new(FrozenCharLm::freeze(&mut model), config);
        let id = e.open_session();
        for t in 0..50 {
            e.submit(id, t % 16).unwrap();
        }
        e.run_until_idle();
        assert!(e.stats().stages.is_zero());
        assert_eq!(e.stats().steps, 50);
    }

    #[test]
    fn run_until_idle_drains_deep_queues() {
        let mut e = engine(0.2, 4);
        let id = e.open_session();
        for t in 0..6 {
            e.submit(id, t % 16).unwrap();
        }
        let results = e.run_until_idle();
        // A single session only advances one token per batched step.
        assert_eq!(results.len(), 6);
        assert_eq!(e.stats().steps, 6);
        assert!(e.stats().skip_fraction() > 0.0);
    }
}
