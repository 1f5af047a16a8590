//! Pins what the engine *serves* across commits.
//!
//! Every bit-identity suite compares two paths of the same build
//! (sparse vs dense, reloaded vs original, portable vs AVX2). None of
//! them notices when both sides drift together. This one folds every
//! logit bit and argmax of a fixed, seeded serving schedule into one
//! FNV-1a digest per model and compares it with a constant taken from
//! an earlier commit. Each schedule runs twice, always dense
//! (`dense_fallback = 0.0`) and sparse whenever a column is skipped
//! (`1.0`), and both runs must fold to the pinned value.
//!
//! A change that moves arithmetic on purpose re-pins these constants
//! and says why. Like `snapshot_format.rs`, the LUT family's tables
//! come from the platform `exp`/`tanh`; the digests are those of
//! x86-64 Linux.

use zskip_core::train::{train_char, CharTaskConfig};
use zskip_runtime::{
    Engine, EngineConfig, EngineStats, FrozenCharLm, FrozenGruCharLm, FrozenModel,
    FrozenQuantizedCharLm, FrozenSeqClassifier, FrozenWordLm, SkipPolicy,
};
use zskip_tensor::SeedableStream;

/// The random models' serving threshold: the one
/// `FrozenQuantizedCharLm::random` below bakes in.
const THRESHOLD: f32 = 0.1;
const SESSIONS: usize = 5;
const TOKENS: usize = 32;

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Serves `SESSIONS` streams of `TOKENS` seeded inputs each. Every round,
/// each unfinished stream submits with probability 1/2 (at least one
/// does), so batches of 1..=`SESSIONS` lanes alternate; results are
/// folded in step order, then session order.
fn serve_digest<M: FrozenModel + Clone>(
    model: &M,
    threshold: f32,
    dense_fallback: f64,
) -> (u64, EngineStats) {
    let config = EngineConfig {
        threshold,
        max_batch: 16,
        policy: SkipPolicy {
            offset_bits: 8,
            dense_fallback,
        },
        stage_timing: false,
    };
    let mut engine = Engine::new(model.clone(), config);
    let mut rng = SeedableStream::new(0x5EED);
    let inputs: Vec<Vec<M::Input>> = (0..SESSIONS)
        .map(|_| (0..TOKENS).map(|_| model.sample_input(&mut rng)).collect())
        .collect();
    let sessions: Vec<_> = (0..SESSIONS).map(|_| engine.open_session()).collect();
    let mut sent = [0usize; SESSIONS];
    let mut fnv = Fnv::new();
    let mut folded = 0;
    while folded < SESSIONS * TOKENS {
        let open: Vec<usize> = (0..SESSIONS).filter(|&s| sent[s] < TOKENS).collect();
        let mut picked: Vec<usize> = open.iter().copied().filter(|_| rng.coin(0.5)).collect();
        if picked.is_empty() {
            picked.push(open[rng.index(open.len())]);
        }
        for &s in &picked {
            engine.submit(sessions[s], inputs[s][sent[s]]).unwrap();
            sent[s] += 1;
        }
        engine.step();
        for &s in &picked {
            let result = engine
                .poll(sessions[s])
                .unwrap()
                .expect("result after step");
            fnv.bytes(&(result.argmax as u64).to_le_bytes());
            for x in &result.logits {
                fnv.bytes(&x.to_bits().to_le_bytes());
            }
            folded += 1;
        }
    }
    (fnv.0, *engine.stats())
}

/// The schedule's digest, asserting that the dense run never took the
/// sparse path, the sparse run did, and both agree.
fn digest<M: FrozenModel + Clone>(family: &str, model: M, threshold: f32) -> (&str, u64) {
    let (dense, dense_stats) = serve_digest(&model, threshold, 0.0);
    let (sparse, sparse_stats) = serve_digest(&model, threshold, 1.0);
    assert_eq!(dense_stats.sparse_steps, 0, "{family}: dense run");
    assert!(sparse_stats.sparse_steps > 0, "{family}: sparse run");
    assert!(sparse_stats.skip_fraction() > 0.0, "{family}: no skip");
    assert_eq!(dense, sparse, "{family}: dense and sparse serving differ");
    (family, dense)
}

#[test]
fn served_outputs_match_the_pinned_digests() {
    let config = CharTaskConfig {
        hidden: 32,
        corpus_chars: 8_000,
        batch: 8,
        bptt: 16,
        epochs: 1,
        lr: 3e-3,
        seed: 1,
    };
    let trained_threshold = 0.3;
    let mut trained = train_char(&config, trained_threshold).model;
    let got = vec![
        digest("char-lm", FrozenCharLm::random(17, 12, 3), THRESHOLD),
        digest(
            "char-lm-lut",
            FrozenCharLm::random_lut(17, 12, 4),
            THRESHOLD,
        ),
        digest("gru-char-lm", FrozenGruCharLm::random(19, 10, 5), THRESHOLD),
        digest("word-lm", FrozenWordLm::random(23, 6, 8, 6), THRESHOLD),
        digest(
            "seq-classifier",
            FrozenSeqClassifier::random(10, 14, 7),
            THRESHOLD,
        ),
        digest(
            "quantized-char-lm",
            FrozenQuantizedCharLm::random(17, 16, THRESHOLD, 8),
            THRESHOLD,
        ),
        digest(
            "trained-char-lm",
            FrozenCharLm::freeze(&mut trained),
            trained_threshold,
        ),
    ];
    let pinned = [
        ("char-lm", 0x32C4_1C38_AF70_471E),
        ("char-lm-lut", 0x01A1_5F4D_9B48_DA99),
        ("gru-char-lm", 0xD507_D6EB_9E33_8CDB),
        ("word-lm", 0xA77F_3A4E_823A_DCAC),
        ("seq-classifier", 0x2B6C_EC03_D286_4DD8),
        ("quantized-char-lm", 0x8F03_1018_9990_A19E),
        ("trained-char-lm", 0xB42D_6905_6A1A_F046),
    ];
    assert_eq!(got, pinned, "served output digests moved");
}
