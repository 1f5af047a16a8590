//! Ready-made training harnesses for the paper's three tasks.
//!
//! Each harness reproduces the recipe of Section II-B at a configurable
//! scale (the paper's exact dimensions are one constructor away, but the
//! defaults are sized so a full threshold sweep finishes on a laptop):
//!
//! * char-level LM — Adam, lr 2e-3, batch 64, BPTT 100 in the paper,
//! * word-level LM — SGD lr 1, decay 1.2, clip 5, dropout 0.5, BPTT 35,
//! * sequential digits — Adam, lr 1e-3.
//!
//! Every harness trains with a [`StatePruner`] active in the forward pass
//! (threshold 0 ⇒ dense baseline) and reports the test metric together
//! with the measured state sparsity, i.e. one point of Figs. 2–4. There
//! is one training and one evaluation loop per model shape: the language
//! models ([`Lm`], any encoder and recurrent layer) share [`eval_lm`] and
//! one stateful-BPTT loop, and the digit classifier has its own.

use crate::prune::{MaskedGradientPruner, StatePruner};
use crate::sparsity;
use zskip_data::{BpttBatcher, CharCorpus, DigitSet, WordCorpus};
use zskip_nn::metrics::MetricAccumulator;
use zskip_nn::models::{
    CarryState, CharLm, GruCharLm, InputEncoder, Lm, OneHot, Recurrent, Rows, SeqClassifier, WordLm,
};
use zskip_nn::{Adam, GradClip, Optimizer, Parameterized, Sgd, StateTransform};
use zskip_tensor::{Matrix, SeedableStream};

/// Result of one training run: a single point of a Figs. 2–4 curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskRunResult {
    /// Pruning threshold trained with.
    pub threshold: f32,
    /// Task metric on the test split (BPC, PPW or MER %).
    pub metric: f64,
    /// Mean element-wise state sparsity measured on the test trace.
    pub sparsity: f64,
}

// ---------------------------------------------------------------------------
// Language modeling: the loop the char and word harnesses share
// ---------------------------------------------------------------------------

/// A trained language model plus the corpus it was trained on.
#[derive(Debug)]
pub struct LmOutcome<M, C> {
    /// Summary point for the sweep curve.
    pub result: TaskRunResult,
    /// The trained model.
    pub model: M,
    /// The corpus it was trained on.
    pub corpus: C,
}

/// How an LM harness trains beyond the model and its windows.
struct LmRecipe<O> {
    epochs: usize,
    threshold: f32,
    mode: GradientMode,
    schedule: ThresholdSchedule,
    opt: O,
    /// Gradient-norm clip before every step.
    clip: Option<GradClip>,
    /// Learning-rate divisor applied after every epoch but the first.
    lr_decay: Option<f32>,
    /// Draws the encoder's dropout masks.
    drop_rng: Option<SeedableStream>,
}

/// The LM harness: stateful truncated BPTT over `train`'s windows, one
/// optimizer step per window (the state restarts from zero and the pruner
/// follows the schedule at every epoch), then [`eval_lm`] on `test` at
/// the full threshold, reported through `metric`.
fn run_lm<E, R, O, C>(
    mut model: Lm<E, R>,
    corpus: C,
    mut train: BpttBatcher,
    test: BpttBatcher,
    mut recipe: LmRecipe<O>,
    metric: fn(&MetricAccumulator) -> f32,
) -> LmOutcome<Lm<E, R>, C>
where
    E: InputEncoder<Step = [usize]>,
    R: Recurrent,
    O: Optimizer,
{
    for epoch in 0..recipe.epochs {
        let t = recipe.schedule.at_epoch(recipe.threshold, epoch);
        let transform: Box<dyn StateTransform> = match recipe.mode {
            GradientMode::StraightThrough => Box::new(StatePruner::new(t)),
            GradientMode::Masked => Box::new(MaskedGradientPruner::new(t)),
        };
        train.reset();
        let mut state = CarryState::zeros(train.lanes(), model.hidden_dim());
        while let Some(w) = train.next_window() {
            model.zero_grads();
            let rng = recipe.drop_rng.as_mut();
            model.train_window(&w.inputs, &w.targets, &mut state, transform.as_ref(), rng);
            if let Some(clip) = recipe.clip {
                clip.apply(&mut model);
            }
            recipe.opt.step(&mut model);
        }
        if let Some(factor) = recipe.lr_decay.filter(|_| epoch >= 1) {
            recipe.opt.decay(factor);
        }
    }
    let threshold = recipe.threshold;
    let (acc, sparsity) = eval_lm(&model, test, &StatePruner::new(threshold));
    LmOutcome {
        result: TaskRunResult {
            threshold,
            metric: metric(&acc) as f64,
            sparsity,
        },
        model,
        corpus,
    }
}

/// Evaluates a trained language model over every window of `test`
/// (stateful, from a zero state): the accumulated metric, and the mean
/// state sparsity of the first two windows' traces. Each traced window
/// is replayed from a copy of the state its evaluation starts from, so
/// the trace is the trajectory the evaluation runs.
pub fn eval_lm<E, R>(
    model: &Lm<E, R>,
    mut test: BpttBatcher,
    transform: &dyn StateTransform,
) -> (MetricAccumulator, f64)
where
    E: InputEncoder<Step = [usize]>,
    R: Recurrent,
{
    let mut state = CarryState::zeros(test.lanes(), model.hidden_dim());
    let mut acc = MetricAccumulator::new();
    let mut trace: Vec<Matrix> = Vec::new();
    for window_idx in 0.. {
        let Some(w) = test.next_window() else { break };
        if window_idx < 2 {
            let mut probe = state.clone();
            trace.extend(model.state_trace(&w.inputs, &mut probe, transform));
        }
        let stats = model.eval_batch(&w.inputs, &w.targets, &mut state, transform);
        acc.add(stats.mean_nats, stats.tokens, stats.correct);
    }
    (acc, sparsity::mean_sparsity(&trace))
}

/// The state trace of `windows`' first window, from a zero state.
fn first_window_trace<E, R>(
    model: &Lm<E, R>,
    mut windows: BpttBatcher,
    transform: &dyn StateTransform,
) -> Vec<Matrix>
where
    E: InputEncoder<Step = [usize]>,
    R: Recurrent,
{
    let mut state = CarryState::zeros(windows.lanes(), model.hidden_dim());
    let w = windows.next_window().expect("test split too small");
    model.state_trace(&w.inputs, &mut state, transform)
}

// ---------------------------------------------------------------------------
// Character-level language modeling (Fig. 2)
// ---------------------------------------------------------------------------

/// Configuration for the char-LM harness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CharTaskConfig {
    /// LSTM width `dh` (paper: 1000).
    pub hidden: usize,
    /// Total synthetic corpus size in characters (paper: 5,852,000).
    pub corpus_chars: usize,
    /// Batch lanes (paper: 64).
    pub batch: usize,
    /// BPTT window (paper: 100).
    pub bptt: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate (paper: 2e-3).
    pub lr: f32,
    /// Seed for corpus, init and shuffling.
    pub seed: u64,
}

impl Default for CharTaskConfig {
    fn default() -> Self {
        Self {
            hidden: 96,
            corpus_chars: 60_000,
            batch: 16,
            bptt: 40,
            epochs: 6,
            lr: 3e-3,
            seed: 42,
        }
    }
}

impl CharTaskConfig {
    /// The paper's full-scale configuration (slow on a laptop).
    pub fn paper_scale() -> Self {
        Self {
            hidden: 1000,
            corpus_chars: 5_852_000,
            batch: 64,
            bptt: 100,
            epochs: 10,
            lr: 2e-3,
            seed: 42,
        }
    }
}

/// A trained char model plus everything needed for downstream analysis.
pub type CharOutcome = LmOutcome<CharLm, CharCorpus>;

/// A trained GRU char model plus its corpus (the cell-type ablation).
pub type GruCharOutcome = LmOutcome<GruCharLm, CharCorpus>;

/// Which gradient the pruning non-linearity propagates during training.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GradientMode {
    /// The paper's straight-through estimator (Eq. 6): gradients reach
    /// the dense state so sub-threshold values keep learning.
    StraightThrough,
    /// The exact rectangular derivative: zero gradient at pruned
    /// positions (the ablation the paper argues against).
    Masked,
}

/// How the pruning threshold evolves over training epochs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThresholdSchedule {
    /// The paper's recipe: the full threshold from the first step.
    Constant,
    /// Linear ramp from zero to the full threshold over the first
    /// `warmup_epochs` epochs — a common stabilization trick for larger
    /// thresholds.
    LinearRamp {
        /// Epochs to reach the full threshold.
        warmup_epochs: usize,
    },
}

impl ThresholdSchedule {
    /// Threshold to use during `epoch` given the target `threshold`.
    pub fn at_epoch(&self, threshold: f32, epoch: usize) -> f32 {
        match self {
            ThresholdSchedule::Constant => threshold,
            ThresholdSchedule::LinearRamp { warmup_epochs } => {
                if *warmup_epochs == 0 || epoch >= *warmup_epochs {
                    threshold
                } else {
                    threshold * (epoch + 1) as f32 / *warmup_epochs as f32
                }
            }
        }
    }
}

/// Trains a char-level LM with the given pruning threshold and reports
/// test BPC plus measured sparsity (straight-through gradients, constant
/// threshold — the paper's recipe).
pub fn train_char(config: &CharTaskConfig, threshold: f32) -> CharOutcome {
    train_char_with(
        config,
        threshold,
        GradientMode::StraightThrough,
        ThresholdSchedule::Constant,
    )
}

/// Full-control char-LM trainer: choose the pruning gradient and the
/// threshold schedule (the ablations DESIGN.md §8 calls out).
pub fn train_char_with(
    config: &CharTaskConfig,
    threshold: f32,
    mode: GradientMode,
    schedule: ThresholdSchedule,
) -> CharOutcome {
    char_task(config, threshold, mode, schedule)
}

/// Trains a GRU char-level LM with the same recipe as [`train_char`] —
/// used to test whether state pruning generalizes beyond LSTMs. Note the
/// GRU's only memory is the pruned `h` (no protected cell state), so the
/// same threshold is expected to bite harder.
pub fn train_char_gru(config: &CharTaskConfig, threshold: f32) -> GruCharOutcome {
    let schedule = ThresholdSchedule::Constant;
    char_task(config, threshold, GradientMode::StraightThrough, schedule)
}

/// The char-LM harness over any recurrent layer.
fn char_task<R: Recurrent>(
    config: &CharTaskConfig,
    threshold: f32,
    mode: GradientMode,
    schedule: ThresholdSchedule,
) -> LmOutcome<Lm<OneHot, R>, CharCorpus> {
    let corpus = CharCorpus::generate(config.corpus_chars, config.seed);
    let mut rng = SeedableStream::new(config.seed ^ 0xC0FFEE);
    let model = Lm::<OneHot, R>::new(corpus.vocab_size(), config.hidden, &mut rng);
    let windows = |split| BpttBatcher::from_bytes(split, config.batch, config.bptt);
    let recipe = LmRecipe {
        epochs: config.epochs,
        threshold,
        mode,
        schedule,
        opt: Adam::new(config.lr),
        clip: None,
        lr_decay: None,
        drop_rng: None,
    };
    let (train, test) = (windows(corpus.train()), windows(corpus.test()));
    run_lm(model, corpus, train, test, recipe, MetricAccumulator::bpc)
}

/// Collects a state trace from the test split with `lanes` parallel
/// sequences over `steps` steps — the raw material for Fig. 7's joint
/// sparsity and for the accelerator simulation.
pub fn char_state_trace(
    model: &CharLm,
    corpus: &CharCorpus,
    lanes: usize,
    steps: usize,
    transform: &dyn StateTransform,
) -> Vec<Matrix> {
    let windows = BpttBatcher::from_bytes(corpus.test(), lanes, steps);
    first_window_trace(model, windows, transform)
}

// ---------------------------------------------------------------------------
// Word-level language modeling (Fig. 3)
// ---------------------------------------------------------------------------

/// Configuration for the word-LM harness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WordTaskConfig {
    /// Vocabulary size (paper: 10,000).
    pub vocab: usize,
    /// Embedding size (paper: 300).
    pub embedding: usize,
    /// LSTM width (paper: 300).
    pub hidden: usize,
    /// Total corpus size in tokens (paper: 1,084,000).
    pub corpus_tokens: usize,
    /// Batch lanes (paper uses 20-ish; we default smaller).
    pub batch: usize,
    /// BPTT window (paper: 35).
    pub bptt: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Initial SGD learning rate (paper: 1.0).
    pub lr: f32,
    /// Per-epoch learning-rate decay divisor (paper: 1.2).
    pub lr_decay: f32,
    /// Gradient-norm clip (paper: 5.0).
    pub clip: f32,
    /// Dropout probability on non-recurrent connections (paper: 0.5).
    pub dropout: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for WordTaskConfig {
    fn default() -> Self {
        Self {
            vocab: 800,
            embedding: 48,
            hidden: 64,
            corpus_tokens: 30_000,
            batch: 16,
            bptt: 35,
            epochs: 4,
            lr: 1.0,
            lr_decay: 1.2,
            clip: 5.0,
            dropout: 0.3,
            seed: 42,
        }
    }
}

impl WordTaskConfig {
    /// The paper's full-scale configuration.
    pub fn paper_scale() -> Self {
        Self {
            vocab: 10_000,
            embedding: 300,
            hidden: 300,
            corpus_tokens: 1_084_000,
            batch: 20,
            bptt: 35,
            epochs: 13,
            lr: 1.0,
            lr_decay: 1.2,
            clip: 5.0,
            dropout: 0.5,
            seed: 42,
        }
    }
}

/// A trained word model plus its corpus.
pub type WordOutcome = LmOutcome<WordLm, WordCorpus>;

/// Trains a word-level LM with the given pruning threshold and reports
/// test PPW plus measured sparsity.
pub fn train_word(config: &WordTaskConfig, threshold: f32) -> WordOutcome {
    let corpus = WordCorpus::generate(config.vocab, config.corpus_tokens, config.seed);
    let mut rng = SeedableStream::new(config.seed ^ 0xBEEF);
    let model = WordLm::new(
        config.vocab,
        config.embedding,
        config.hidden,
        config.dropout,
        &mut rng,
    );
    let windows = |split| BpttBatcher::new(split, config.batch, config.bptt);
    let recipe = LmRecipe {
        epochs: config.epochs,
        threshold,
        mode: GradientMode::StraightThrough,
        schedule: ThresholdSchedule::Constant,
        opt: Sgd::new(config.lr),
        clip: Some(GradClip::new(config.clip)),
        lr_decay: Some(config.lr_decay),
        drop_rng: Some(SeedableStream::new(config.seed ^ 0xD50)),
    };
    let (train, test) = (windows(corpus.train()), windows(corpus.test()));
    run_lm(model, corpus, train, test, recipe, MetricAccumulator::ppw)
}

/// Collects a `lanes × dh` state trace for the word task.
pub fn word_state_trace(
    model: &WordLm,
    corpus: &WordCorpus,
    lanes: usize,
    steps: usize,
    transform: &dyn StateTransform,
) -> Vec<Matrix> {
    first_window_trace(
        model,
        BpttBatcher::new(corpus.test(), lanes, steps),
        transform,
    )
}

// ---------------------------------------------------------------------------
// Sequential digit classification (Fig. 4)
// ---------------------------------------------------------------------------

/// How images are unrolled into sequences for the digits task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanOrder {
    /// One pixel per timestep (784 steps at full resolution) — the
    /// paper's protocol (Le et al. \[15\]). Needs long training to learn.
    Pixel,
    /// One image row per timestep (28 steps of 28-wide inputs) — the
    /// scaled-down protocol used at quick experiment scale so the sweep
    /// runs in minutes. The recurrent `Wh·h` product still dominates
    /// (`dh ≥ row width`), so pruning behaviour is preserved.
    Row,
}

/// Configuration for the sequential-digits harness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DigitsTaskConfig {
    /// LSTM width (paper: 100).
    pub hidden: usize,
    /// Training images (paper: 50,000).
    pub train_images: usize,
    /// Test images (paper: 10,000).
    pub test_images: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Average-pool factor applied before scanning (1 = full 784-step
    /// sequences as in the paper; 2 or 4 for fast runs).
    pub downsample: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Pixel-by-pixel (paper) or row-by-row (fast) unrolling.
    pub scan: ScanOrder,
    /// Seed.
    pub seed: u64,
}

impl Default for DigitsTaskConfig {
    fn default() -> Self {
        Self {
            hidden: 48,
            train_images: 600,
            test_images: 200,
            batch: 20,
            downsample: 2,
            epochs: 6,
            lr: 2e-3,
            scan: ScanOrder::Row,
            seed: 42,
        }
    }
}

impl DigitsTaskConfig {
    /// The paper's full-scale configuration (pixel-by-pixel scan).
    pub fn paper_scale() -> Self {
        Self {
            hidden: 100,
            train_images: 50_000,
            test_images: 10_000,
            batch: 50,
            downsample: 1,
            epochs: 10,
            lr: 1e-3,
            scan: ScanOrder::Pixel,
            seed: 42,
        }
    }

    /// Input width per LSTM step implied by the scan order.
    pub fn input_dim(&self) -> usize {
        match self.scan {
            ScanOrder::Pixel => 1,
            ScanOrder::Row => 28 / self.downsample,
        }
    }
}

/// Builds the time-major step matrices for one batch of images under the
/// configured scan order.
fn digit_batch_xs(
    set: &DigitSet,
    range: std::ops::Range<usize>,
    config: &DigitsTaskConfig,
) -> (Vec<Matrix>, Vec<usize>) {
    let (steps, labels) = match config.scan {
        ScanOrder::Pixel => set.batch_sequences(range, config.downsample),
        ScanOrder::Row => set.batch_rows(range, config.downsample),
    };
    let rows = Rows {
        width: config.input_dim(),
    };
    (steps.iter().map(|step| rows.encode(step)).collect(), labels)
}

/// The complete `batch`-image ranges of `set`, in order (a short tail is
/// dropped).
fn batches(set: &DigitSet, batch: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    (0..set.len() / batch).map(move |i| i * batch..(i + 1) * batch)
}

/// A trained digit classifier plus its datasets.
#[derive(Debug)]
pub struct DigitsOutcome {
    /// Summary point for the sweep curve.
    pub result: TaskRunResult,
    /// The trained model.
    pub model: SeqClassifier,
    /// Held-out test set.
    pub test_set: DigitSet,
}

/// Trains the sequential digit classifier with the given pruning
/// threshold and reports test MER (%) plus measured sparsity.
pub fn train_digits(config: &DigitsTaskConfig, threshold: f32) -> DigitsOutcome {
    let train_set = DigitSet::generate(config.train_images, config.seed);
    let test_set = DigitSet::generate(config.test_images, config.seed ^ 0x7E57);
    let mut rng = SeedableStream::new(config.seed ^ 0xD161);
    let mut model = SeqClassifier::with_input_dim(10, config.input_dim(), config.hidden, &mut rng);
    let pruner = StatePruner::new(threshold);
    let mut opt = Adam::new(config.lr);

    for _epoch in 0..config.epochs {
        for range in batches(&train_set, config.batch) {
            let (xs, labels) = digit_batch_xs(&train_set, range, config);
            model.zero_grads();
            model.train_batch_xs(&xs, &labels, &pruner);
            opt.step(&mut model);
        }
    }

    let (mer, sparsity) = eval_digits(&model, &test_set, config, &pruner);
    DigitsOutcome {
        result: TaskRunResult {
            threshold,
            metric: mer,
            sparsity,
        },
        model,
        test_set,
    }
}

/// Evaluates test MER (%) and mean state sparsity for a trained digit
/// classifier.
pub fn eval_digits(
    model: &SeqClassifier,
    test_set: &DigitSet,
    config: &DigitsTaskConfig,
    transform: &dyn StateTransform,
) -> (f64, f64) {
    let mut acc = MetricAccumulator::new();
    let mut trace: Vec<Matrix> = Vec::new();
    for (batch_idx, range) in batches(test_set, config.batch).enumerate() {
        let (xs, labels) = digit_batch_xs(test_set, range, config);
        let stats = model.eval_batch_xs(&xs, &labels, transform);
        acc.add(stats.mean_nats, stats.tokens, stats.correct);
        if batch_idx < 1 {
            trace.extend(model.state_trace_xs(&xs, transform));
        }
    }
    (acc.mer_percent() as f64, sparsity::mean_sparsity(&trace))
}

/// Collects a `lanes × dh` state trace for the digits task.
pub fn digits_state_trace(
    model: &SeqClassifier,
    test_set: &DigitSet,
    lanes: usize,
    config: &DigitsTaskConfig,
    transform: &dyn StateTransform,
) -> Vec<Matrix> {
    assert!(lanes <= test_set.len(), "not enough test images");
    let (xs, _) = digit_batch_xs(test_set, 0..lanes, config);
    model.state_trace_xs(&xs, transform)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn tiny_char_config() -> CharTaskConfig {
        CharTaskConfig {
            hidden: 32,
            corpus_chars: 30_000,
            batch: 8,
            bptt: 16,
            epochs: 6,
            lr: 5e-3,
            seed: 7,
        }
    }

    /// The threshold-0 tiny char run, trained once for every test that
    /// reads it.
    fn dense_char() -> TaskRunResult {
        static DENSE: OnceLock<TaskRunResult> = OnceLock::new();
        *DENSE.get_or_init(|| train_char(&tiny_char_config(), 0.0).result)
    }

    #[test]
    fn char_harness_beats_uniform() {
        let dense = dense_char();
        // Uniform over 50 symbols = log2(50) ≈ 5.64 BPC; even one epoch of
        // a tiny model must do noticeably better on Markov text.
        assert!(dense.metric < 4.8, "BPC {}", dense.metric);
        assert_eq!(dense.threshold, 0.0);
    }

    #[test]
    fn char_pruning_produces_sparsity() {
        let pruned = train_char(&tiny_char_config(), 0.2);
        assert!(pruned.result.sparsity > dense_char().sparsity + 0.05);
    }

    #[test]
    fn char_trace_shapes() {
        let out = train_char(&tiny_char_config(), 0.1);
        let trace = char_state_trace(&out.model, &out.corpus, 8, 10, &StatePruner::new(0.1));
        assert_eq!(trace.len(), 10);
        assert_eq!(trace[0].rows(), 8);
        assert_eq!(trace[0].cols(), 32);
    }

    #[test]
    fn threshold_schedule_ramps_linearly() {
        let s = ThresholdSchedule::LinearRamp { warmup_epochs: 4 };
        assert!((s.at_epoch(0.4, 0) - 0.1).abs() < 1e-6);
        assert!((s.at_epoch(0.4, 1) - 0.2).abs() < 1e-6);
        assert_eq!(s.at_epoch(0.4, 4), 0.4);
        assert_eq!(s.at_epoch(0.4, 10), 0.4);
        assert_eq!(ThresholdSchedule::Constant.at_epoch(0.4, 0), 0.4);
    }

    #[test]
    fn masked_gradient_mode_trains() {
        let out = train_char_with(
            &tiny_char_config(),
            0.3,
            GradientMode::Masked,
            ThresholdSchedule::Constant,
        );
        assert!(out.result.metric.is_finite());
        assert!(out.result.sparsity > 0.0);
    }

    #[test]
    fn word_harness_runs_and_reports() {
        let config = WordTaskConfig {
            vocab: 60,
            embedding: 12,
            hidden: 16,
            corpus_tokens: 3_000,
            batch: 4,
            bptt: 10,
            epochs: 1,
            dropout: 0.2,
            ..WordTaskConfig::default()
        };
        let out = train_word(&config, 0.05);
        assert!(out.result.metric.is_finite());
        // PPW below vocab size means better than the uniform model.
        assert!(out.result.metric < 60.0, "PPW {}", out.result.metric);
    }

    #[test]
    fn digits_harness_runs_and_reports() {
        let config = DigitsTaskConfig {
            hidden: 16,
            train_images: 60,
            test_images: 40,
            batch: 20,
            downsample: 4,
            epochs: 2,
            ..DigitsTaskConfig::default()
        };
        let out = train_digits(&config, 0.05);
        assert!(out.result.metric >= 0.0 && out.result.metric <= 100.0);
        let trace = digits_state_trace(
            &out.model,
            &out.test_set,
            16,
            &config,
            &StatePruner::new(0.05),
        );
        assert_eq!(trace[0].rows(), 16);
    }
}
