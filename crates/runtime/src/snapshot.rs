//! Frozen-model snapshots: every `FrozenModel` family written to the
//! checksummed [`zskip_tensor::snapshot`] container and reconstructed
//! bit-exactly.
//!
//! A snapshot is the restart story for a serving process: freeze once,
//! [`ModelSnapshot::save_snapshot`] to disk, and any later process —
//! including one on the far side of a `zskip-wire` socket — calls
//! [`ModelSnapshot::load_snapshot`] and serves the *same bits*. The
//! contract is strict: every weight, every quantizer step, and every
//! `GateActivations` LUT sample round-trips through `to_bits()`-exact
//! storage, so a server restarted from bytes on disk is
//! indistinguishable, logit for logit, from the process that wrote
//! them. (PR 8 established that activation tables ship with the
//! weights and are never rebuilt; snapshots inherit that rule — tables
//! are stored, not recomputed.)
//!
//! The header carries a [`ModelFamily`] tag so a generic server binary
//! can [`peek_family`] and dispatch to the right `FrozenModel` type
//! before touching a single tensor.

use zskip_tensor::lut::Activation;
use zskip_tensor::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use zskip_tensor::{ActivationLut, GateActivations, GateLuts, Matrix, QMatrix, Quantizer};

/// The model-family discriminant stored in a snapshot header.
///
/// Tags are part of the on-disk format: they never change meaning and
/// are never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// One-hot character LSTM LM ([`crate::FrozenCharLm`]).
    CharLm,
    /// Character GRU LM, no cell state ([`crate::FrozenGruCharLm`]).
    GruCharLm,
    /// Embedding-fed word LSTM LM ([`crate::FrozenWordLm`]).
    WordLm,
    /// Pixel-streaming sequence classifier
    /// ([`crate::FrozenSeqClassifier`]).
    SeqClassifier,
    /// 8-bit quantized character LM
    /// ([`crate::FrozenQuantizedCharLm`]).
    QuantizedCharLm,
}

impl ModelFamily {
    /// The stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            ModelFamily::CharLm => 0,
            ModelFamily::GruCharLm => 1,
            ModelFamily::WordLm => 2,
            ModelFamily::SeqClassifier => 3,
            ModelFamily::QuantizedCharLm => 4,
        }
    }

    /// Decodes an on-disk tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ModelFamily::CharLm),
            1 => Some(ModelFamily::GruCharLm),
            2 => Some(ModelFamily::WordLm),
            3 => Some(ModelFamily::SeqClassifier),
            4 => Some(ModelFamily::QuantizedCharLm),
            _ => None,
        }
    }

    /// Stable kebab-case name (also the snapshot's display name).
    pub fn name(self) -> &'static str {
        match self {
            ModelFamily::CharLm => "char-lm",
            ModelFamily::GruCharLm => "gru-char-lm",
            ModelFamily::WordLm => "word-lm",
            ModelFamily::SeqClassifier => "seq-classifier",
            ModelFamily::QuantizedCharLm => "quantized-char-lm",
        }
    }

    /// Name of the scalar section every stream of this family leads
    /// with: the head's output width, which the language models store as
    /// their vocabulary and the classifier as its class count.
    pub fn width_scalar(self) -> &'static str {
        match self {
            ModelFamily::SeqClassifier => "classes",
            _ => "vocab",
        }
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reads the family tag from snapshot bytes without decoding weights —
/// the dispatch hook for a server binary that serves "whatever model
/// this file holds".
pub fn peek_family(bytes: &[u8]) -> Result<ModelFamily, SnapshotError> {
    let (tag, _) = zskip_tensor::snapshot::peek_header(bytes)?;
    ModelFamily::from_tag(tag).ok_or(SnapshotError::Malformed {
        context: format!("unknown model family tag {tag}"),
    })
}

/// Save/load to the checksummed snapshot container — the one
/// persistence format for frozen models — implemented once, for every
/// registered [`Frozen`](crate::Frozen) composition
/// ([`SnapshotFamily`](crate::weights::SnapshotFamily)).
///
/// The implementation only defines the section layout
/// ([`write_sections`](Self::write_sections) /
/// [`read_sections`](Self::read_sections)); framing, family dispatch,
/// checksum verification and trailing-byte rejection are provided.
pub trait ModelSnapshot: Sized {
    /// Which family tag this type writes and accepts.
    const FAMILY: ModelFamily;

    /// Appends this model's tensor sections to `w`, in the fixed order
    /// [`read_sections`](Self::read_sections) consumes them.
    fn write_sections(&self, w: &mut SnapshotWriter);

    /// Reconstructs the model from its sections, bit-exactly.
    fn read_sections(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;

    /// Encodes to the container format. A sizing pass first, so the
    /// stream is one exact allocation: no regrowth, no copies left
    /// behind in the heap of a process that goes on to serve.
    fn to_snapshot_bytes(&self) -> Vec<u8> {
        let (tag, name) = (Self::FAMILY.tag(), Self::FAMILY.name());
        let mut sizing = SnapshotWriter::sizing(tag, name);
        self.write_sections(&mut sizing);
        let mut w = SnapshotWriter::with_capacity(tag, name, sizing.stream_len());
        self.write_sections(&mut w);
        w.finish()
    }

    /// Decodes, verifying magic, version, family tag, every
    /// per-tensor checksum, and that no bytes trail the last section.
    fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        if r.family() != Self::FAMILY.tag() {
            return Err(SnapshotError::WrongFamily {
                expected: Self::FAMILY.tag(),
                found: r.family(),
            });
        }
        let model = Self::read_sections(&mut r)?;
        r.finish()?;
        Ok(model)
    }

    /// Writes the snapshot to a file.
    fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        std::fs::write(path, self.to_snapshot_bytes())?;
        Ok(())
    }

    /// Reads a snapshot file written by
    /// [`save_snapshot`](Self::save_snapshot).
    fn load_snapshot(path: impl AsRef<std::path::Path>) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::from_snapshot_bytes(&bytes)
    }
}

pub(crate) fn invalid(tensor: &str, reason: impl Into<String>) -> SnapshotError {
    SnapshotError::Invalid {
        tensor: tensor.to_string(),
        reason: reason.into(),
    }
}

pub(crate) fn write_f32_scalar(w: &mut SnapshotWriter, name: &str, value: f32) {
    w.f32s(name, &[1], &[value]);
}

pub(crate) fn read_f32_scalar(
    r: &mut SnapshotReader<'_>,
    name: &str,
) -> Result<f32, SnapshotError> {
    Ok(r.f32s_shaped(name, &[1])?[0])
}

pub(crate) fn write_matrix(w: &mut SnapshotWriter, name: &str, m: &Matrix) {
    w.f32s(name, &[m.rows(), m.cols()], m.as_slice());
}

pub(crate) fn read_matrix(r: &mut SnapshotReader<'_>, name: &str) -> Result<Matrix, SnapshotError> {
    let (shape, data) = r.f32s(name)?;
    if shape.len() != 2 {
        return Err(invalid(name, format!("matrix has shape {shape:?}")));
    }
    Ok(Matrix::from_vec(shape[0], shape[1], data))
}

fn write_lut(w: &mut SnapshotWriter, prefix: &str, lut: &ActivationLut) {
    write_f32_scalar(w, &format!("{prefix}.range"), lut.range());
    w.f32s(&format!("{prefix}.table"), &[lut.entries()], lut.table());
}

fn read_lut(
    r: &mut SnapshotReader<'_>,
    prefix: &str,
    activation: Activation,
) -> Result<ActivationLut, SnapshotError> {
    let range = read_f32_scalar(r, &format!("{prefix}.range"))?;
    let table_name = format!("{prefix}.table");
    let (_, table) = r.f32s(&table_name)?;
    ActivationLut::from_parts(activation, range, table).map_err(|reason| invalid(prefix, reason))
}

pub(crate) fn write_gate_luts(w: &mut SnapshotWriter, prefix: &str, luts: &GateLuts) {
    write_lut(w, &format!("{prefix}.sigmoid"), luts.sigmoid());
    write_lut(w, &format!("{prefix}.tanh"), luts.tanh());
}

pub(crate) fn read_gate_luts(
    r: &mut SnapshotReader<'_>,
    prefix: &str,
) -> Result<GateLuts, SnapshotError> {
    let sigmoid = read_lut(r, &format!("{prefix}.sigmoid"), Activation::Sigmoid)?;
    let tanh = read_lut(r, &format!("{prefix}.tanh"), Activation::Tanh)?;
    Ok(GateLuts::new(sigmoid, tanh))
}

pub(crate) fn write_acts(w: &mut SnapshotWriter, prefix: &str, acts: &GateActivations) {
    match acts {
        GateActivations::Smooth => {
            w.u64_scalar(&format!("{prefix}.mode"), 0);
        }
        GateActivations::Lut(luts) => {
            w.u64_scalar(&format!("{prefix}.mode"), 1);
            write_gate_luts(w, prefix, luts);
        }
    }
}

pub(crate) fn read_acts(
    r: &mut SnapshotReader<'_>,
    prefix: &str,
) -> Result<GateActivations, SnapshotError> {
    let mode_name = format!("{prefix}.mode");
    match r.u64_scalar(&mode_name)? {
        0 => Ok(GateActivations::Smooth),
        1 => Ok(GateActivations::Lut(read_gate_luts(r, prefix)?)),
        other => Err(invalid(
            &mode_name,
            format!("unknown activations mode {other}"),
        )),
    }
}

pub(crate) fn write_quantizer(w: &mut SnapshotWriter, name: &str, q: Quantizer) {
    write_f32_scalar(w, name, q.step());
}

pub(crate) fn read_quantizer(
    r: &mut SnapshotReader<'_>,
    name: &str,
) -> Result<Quantizer, SnapshotError> {
    let step = read_f32_scalar(r, name)?;
    Quantizer::from_step(step).map_err(|reason| invalid(name, reason))
}

pub(crate) fn write_qmatrix(w: &mut SnapshotWriter, prefix: &str, m: &QMatrix) {
    w.i8s(&format!("{prefix}.codes"), &[m.rows(), m.cols()], m.codes());
    write_quantizer(w, &format!("{prefix}.step"), m.quantizer());
}

pub(crate) fn read_qmatrix(
    r: &mut SnapshotReader<'_>,
    prefix: &str,
) -> Result<QMatrix, SnapshotError> {
    let codes_name = format!("{prefix}.codes");
    let (shape, codes) = r.i8s(&codes_name)?;
    let quantizer = read_quantizer(r, &format!("{prefix}.step"))?;
    if shape.len() != 2 {
        return Err(invalid(&codes_name, format!("qmatrix has shape {shape:?}")));
    }
    QMatrix::from_parts(shape[0], shape[1], codes, quantizer)
        .map_err(|reason| invalid(&codes_name, reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::{
        FrozenCharLm, FrozenGruCharLm, FrozenQuantizedCharLm, FrozenSeqClassifier, FrozenWordLm,
    };

    fn assert_family_round_trip<M>(model: &M)
    where
        M: ModelSnapshot + std::fmt::Debug,
    {
        let bytes = model.to_snapshot_bytes();
        assert_eq!(peek_family(&bytes).unwrap(), M::FAMILY);
        let reloaded = M::from_snapshot_bytes(&bytes).unwrap();
        // Snapshots are canonical: re-serializing the reloaded model
        // must reproduce the original stream byte for byte, which is a
        // bit-exactness proof over every stored tensor at once.
        assert_eq!(
            reloaded.to_snapshot_bytes(),
            bytes,
            "snapshot must be byte-stable across a save/load cycle"
        );
    }

    #[test]
    fn all_five_families_round_trip_byte_stably() {
        assert_family_round_trip(&FrozenCharLm::random(17, 12, 3));
        assert_family_round_trip(&FrozenCharLm::random_lut(17, 12, 4));
        assert_family_round_trip(&FrozenGruCharLm::random(19, 10, 5));
        assert_family_round_trip(&FrozenWordLm::random(23, 6, 8, 6));
        assert_family_round_trip(&FrozenSeqClassifier::random(10, 14, 7));
        assert_family_round_trip(&FrozenQuantizedCharLm::random(17, 16, 0.1, 8));
    }

    #[test]
    fn family_tags_are_stable_and_distinct() {
        let all = [
            ModelFamily::CharLm,
            ModelFamily::GruCharLm,
            ModelFamily::WordLm,
            ModelFamily::SeqClassifier,
            ModelFamily::QuantizedCharLm,
        ];
        for (i, fam) in all.iter().enumerate() {
            assert_eq!(fam.tag(), i as u8, "tags are frozen format surface");
            assert_eq!(ModelFamily::from_tag(fam.tag()), Some(*fam));
        }
        assert_eq!(ModelFamily::from_tag(200), None);
    }

    #[test]
    fn wrong_family_is_rejected_before_weights_are_touched() {
        let bytes = FrozenCharLm::random(9, 8, 1).to_snapshot_bytes();
        let err = FrozenWordLm::from_snapshot_bytes(&bytes).unwrap_err();
        assert_eq!(
            err,
            SnapshotError::WrongFamily {
                expected: ModelFamily::WordLm.tag(),
                found: ModelFamily::CharLm.tag(),
            }
        );
    }

    #[test]
    fn corrupted_weight_byte_names_the_tensor() {
        let model = FrozenCharLm::random(9, 8, 1);
        let good = model.to_snapshot_bytes();
        // Corrupt a byte deep in the stream (inside some payload well
        // past the header) and expect a checksum error carrying a
        // tensor name.
        let mut bad = good.clone();
        let pos = good.len() / 2;
        bad[pos] ^= 0x10;
        match FrozenCharLm::from_snapshot_bytes(&bad) {
            Err(SnapshotError::ChecksumMismatch { tensor }) => {
                assert!(!tensor.is_empty());
            }
            Err(_) => {} // structural bytes can fail with other typed errors
            Ok(_) => panic!("corruption must not load"),
        }
    }

    #[test]
    fn snapshot_files_save_and_load() {
        let dir = std::env::temp_dir().join("zskip-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("char_lm.zsks");
        let model = FrozenCharLm::random_lut(11, 8, 2);
        model.save_snapshot(&path).unwrap();
        let reloaded = FrozenCharLm::load_snapshot(&path).unwrap();
        assert_eq!(reloaded.to_snapshot_bytes(), model.to_snapshot_bytes());
        std::fs::remove_file(&path).ok();
    }
}
