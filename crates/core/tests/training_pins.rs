//! Pins what the training harnesses *produce* across commits.
//!
//! The serving side pins what it serves (`output_digests.rs`) and what
//! it writes (`snapshot_format.rs`); this file does the same for
//! training. Each case runs one harness at the tiny scale the harness
//! unit tests use and compares three things with constants taken from
//! an earlier commit:
//!
//! * the `export_tensors()` name list (the freezers' tensor contract),
//! * one FNV-1a digest over every trained parameter's bits, in export
//!   order,
//! * the bits of the returned [`TaskRunResult`].
//!
//! A refactor of the models or the harnesses must leave all of them
//! unchanged. If one fails, the training arithmetic or an RNG draw
//! moved; re-pin only on purpose and say why. The smooth activations
//! come from the platform `exp`; the digests are those of x86-64 Linux.

use zskip_core::train::{
    train_char, train_char_gru, train_char_with, train_digits, train_word, CharTaskConfig,
    DigitsTaskConfig, GradientMode, TaskRunResult, ThresholdSchedule, WordTaskConfig,
};
use zskip_nn::Freezable;

const LSTM_LM: &[&str] = &["lstm.wx", "lstm.wh", "lstm.b", "linear.w", "linear.b"];
const GRU_LM: &[&str] = &["gru.wx", "gru.wh", "gru.b", "linear.w", "linear.b"];
const WORD_LM: &[&str] = &[
    "embedding.table",
    "lstm.wx",
    "lstm.wh",
    "lstm.b",
    "linear.w",
    "linear.b",
];

/// One case's expected output.
struct Pin {
    names: &'static [&'static str],
    /// FNV-1a over the little-endian bits of every parameter.
    params: u64,
    /// `(threshold, metric, sparsity)` bits.
    result: (u32, u64, u64),
}

fn check(case: &str, model: &mut impl Freezable, result: TaskRunResult, pin: Pin) {
    let tensors = model.export_tensors();
    let names: Vec<&str> = tensors.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, pin.names, "{case}: tensor names");
    let mut fnv: u64 = 0xCBF2_9CE4_8422_2325;
    for v in tensors.iter().flat_map(|(_, values)| values) {
        for b in v.to_bits().to_le_bytes() {
            fnv ^= u64::from(b);
            fnv = fnv.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    let bits = (
        result.threshold.to_bits(),
        result.metric.to_bits(),
        result.sparsity.to_bits(),
    );
    assert_eq!(
        (fnv, bits),
        (pin.params, pin.result),
        "{case}: trained parameters or result moved ({result:?}); \
         actual params: {fnv:#018x}, result: ({:#010x}, {:#018x}, {:#018x})",
        bits.0,
        bits.1,
        bits.2,
    );
}

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

#[test]
fn char_lm_dense() {
    let mut out = train_char(&tiny_char_config(), 0.0);
    let pin = Pin {
        names: LSTM_LM,
        params: 0xfa86_ee62_2e6c_5a2a,
        result: (0x0000_0000, 0x4012_7d38_a000_0000, 0x0000_0000_0000_0000),
    };
    check("char t=0", &mut out.model, out.result, pin);
}

#[test]
fn char_lm_pruned() {
    let mut out = train_char(&tiny_char_config(), 0.2);
    let pin = Pin {
        names: LSTM_LM,
        params: 0x463d_c803_6caf_b583,
        result: (0x3e4c_cccd, 0x4012_7ee0_4000_0000, 0x3fd2_c800_0000_0000),
    };
    check("char t=0.2", &mut out.model, out.result, pin);
}

#[test]
fn char_lm_masked_gradient() {
    let config = tiny_char_config();
    let schedule = ThresholdSchedule::Constant;
    let mut out = train_char_with(&config, 0.3, GradientMode::Masked, schedule);
    let pin = Pin {
        names: LSTM_LM,
        params: 0xba85_ce36_db5b_79ba,
        result: (0x3e99_999a, 0x4014_924e_6000_0000, 0x3ff0_0000_0000_0000),
    };
    check("char masked t=0.3", &mut out.model, out.result, pin);
}

#[test]
fn gru_char_lm_pruned() {
    let mut out = train_char_gru(&tiny_char_config(), 0.2);
    let pin = Pin {
        names: GRU_LM,
        params: 0x6a7f_7ce9_dd09_586b,
        result: (0x3e4c_cccd, 0x4012_082b_a000_0000, 0x3fcf_b000_0000_0000),
    };
    check("gru char t=0.2", &mut out.model, out.result, pin);
}

#[test]
fn word_lm_pruned() {
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
    let mut out = train_word(&config, 0.05);
    let pin = Pin {
        names: WORD_LM,
        params: 0x91d1_47c8_6d68_1566,
        result: (0x3d4c_cccd, 0x4044_f502_c000_0000, 0x3fa1_9999_9999_999a),
    };
    check("word t=0.05", &mut out.model, out.result, pin);
}

#[test]
fn digits_classifier_pruned() {
    let config = DigitsTaskConfig {
        hidden: 16,
        train_images: 60,
        test_images: 40,
        batch: 20,
        downsample: 4,
        epochs: 2,
        ..DigitsTaskConfig::default()
    };
    let mut out = train_digits(&config, 0.05);
    let pin = Pin {
        names: LSTM_LM,
        params: 0xc6ab_e660_dcb8_ee1c,
        result: (0x3d4c_cccd, 0x4056_8000_0000_0000, 0x3fe4_78af_8af8_af8b),
    };
    check("digits t=0.05", &mut out.model, out.result, pin);
}
