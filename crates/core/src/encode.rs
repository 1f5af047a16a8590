//! Zero-run offset encoding of the sparse hidden state (Section III-B).
//!
//! After Eq. 3, "the obtained results are then passed to an encoder that
//! keeps track of zero-valued elements using a counter. More precisely,
//! the encoder counts up if the current input value of all the batches is
//! zero. Afterwards, the obtained offset is stored along with the hidden
//! state vector into the off-chip memory. During the recurrent
//! computations of the next time step, the offset is only used to read
//! the weights that correspond to the non-zero values. Therefore, no
//! decoder is required in this scheme."
//!
//! [`OffsetEncoder`] implements exactly that: each *stored column* carries
//! the count of all-lane-zero columns skipped since the previous stored
//! column plus the `B` quantized lane values. A fixed offset width is a
//! hardware reality, so runs longer than the field can express force an
//! all-zero *anchor column* to be stored (tested, and accounted for in the
//! accelerator's traffic model).

use serde::{Deserialize, Serialize};
use zskip_tensor::Matrix;

/// One stored (non-skipped) column of the encoded state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedColumn {
    /// Number of all-zero columns skipped since the previous stored column.
    pub offset: u16,
    /// Absolute column index in the dense state (derived, for convenience).
    pub index: usize,
    /// Quantized lane values at this column (length = batch size). An
    /// anchor column stores all zeros.
    pub values: Vec<i8>,
}

impl EncodedColumn {
    /// `true` if this column exists only to keep the offset field in range.
    pub fn is_anchor(&self) -> bool {
        self.values.iter().all(|v| *v == 0)
    }
}

/// An encoded sparse state vector (batch-aligned).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedState {
    lanes: usize,
    dh: usize,
    offset_bits: u8,
    columns: Vec<EncodedColumn>,
}

impl EncodedState {
    /// Number of batch lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Offset field width in bits.
    pub fn offset_bits(&self) -> u8 {
        self.offset_bits
    }

    /// The stored columns in order.
    pub fn columns(&self) -> &[EncodedColumn] {
        &self.columns
    }

    /// Number of stored columns (including anchors) — each one costs a
    /// full weight fetch of `4·dh` weights on the accelerator.
    pub fn stored_columns(&self) -> usize {
        self.columns.len()
    }

    /// Number of anchor columns forced by offset-field saturation.
    pub fn anchor_columns(&self) -> usize {
        self.columns.iter().filter(|c| c.is_anchor()).count()
    }

    /// Number of skipped columns.
    pub fn skipped_columns(&self) -> usize {
        self.dh - self.columns.len()
    }

    /// Encoded size in bits: per stored column, one offset field plus `B`
    /// 8-bit values.
    pub fn size_bits(&self) -> usize {
        self.columns.len() * (self.offset_bits as usize + 8 * self.lanes)
    }

    /// Dense size in bits for comparison.
    pub fn dense_size_bits(&self) -> usize {
        self.dh * 8 * self.lanes
    }

    /// Decodes back to the dense `B × dh` code matrix.
    pub fn decode(&self) -> Vec<Vec<i8>> {
        let mut out = vec![vec![0i8; self.dh]; self.lanes];
        for col in &self.columns {
            for (lane, v) in col.values.iter().enumerate() {
                out[lane][col.index] = *v;
            }
        }
        out
    }
}

/// Encoder configured with a fixed offset field width.
///
/// # Example
///
/// ```
/// use zskip_core::OffsetEncoder;
///
/// let enc = OffsetEncoder::new(4);
/// let lanes: Vec<Vec<i8>> = vec![vec![0, 0, 5, 0, 0, 0, -3, 0]];
/// let state = enc.encode(&lanes);
/// assert_eq!(state.stored_columns(), 2);
/// assert_eq!(state.skipped_columns(), 6);
/// assert_eq!(state.decode(), lanes);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OffsetEncoder {
    offset_bits: u8,
}

impl OffsetEncoder {
    /// Creates an encoder whose offset field is `offset_bits` wide
    /// (max run = `2^offset_bits - 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= offset_bits <= 16`.
    pub fn new(offset_bits: u8) -> Self {
        assert!(
            (1..=16).contains(&offset_bits),
            "offset width must be 1..=16 bits"
        );
        Self { offset_bits }
    }

    /// The default 8-bit offset used by the accelerator model.
    pub fn hardware_default() -> Self {
        Self::new(8)
    }

    /// Maximum expressible zero run.
    pub fn max_run(&self) -> u16 {
        ((1u32 << self.offset_bits) - 1) as u16
    }

    /// Encodes a batch of quantized state lanes (each `dh` long).
    ///
    /// # Panics
    ///
    /// Panics if lanes are empty or lengths differ.
    pub fn encode(&self, lanes: &[Vec<i8>]) -> EncodedState {
        assert!(!lanes.is_empty(), "need at least one lane");
        let dh = lanes[0].len();
        assert!(
            lanes.iter().all(|l| l.len() == dh),
            "all lanes must have equal length"
        );
        let max_run = self.max_run();
        let mut columns = Vec::new();
        let mut run: u16 = 0;
        for j in 0..dh {
            let all_zero = lanes.iter().all(|l| l[j] == 0);
            if all_zero && run < max_run {
                run += 1;
                continue;
            }
            // Stored column: either a real non-zero column, or an anchor
            // forced by offset saturation (all_zero && run == max_run).
            columns.push(EncodedColumn {
                offset: run,
                index: j,
                values: lanes.iter().map(|l| l[j]).collect(),
            });
            run = 0;
        }
        EncodedState {
            lanes: lanes.len(),
            dh,
            offset_bits: self.offset_bits,
            columns,
        }
    }

    /// Encodes a real-valued `B × dh` state matrix through a quantizer.
    pub fn encode_f32(&self, states: &Matrix, quantizer: zskip_tensor::Quantizer) -> EncodedState {
        let lanes: Vec<Vec<i8>> = (0..states.rows())
            .map(|r| quantizer.quantize_slice(states.row(r)))
            .collect();
        self.encode(&lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_simple_pattern() {
        let enc = OffsetEncoder::new(8);
        let lanes = vec![vec![0, 1, 0, 0, 2, 0, 0, 0, 3, 0]];
        let state = enc.encode(&lanes);
        assert_eq!(state.decode(), lanes);
    }

    #[test]
    fn batch_column_stored_if_any_lane_nonzero() {
        let enc = OffsetEncoder::new(8);
        let lanes = vec![vec![0, 0, 7, 0], vec![0, 4, 0, 0]];
        let state = enc.encode(&lanes);
        // Columns 1 and 2 each have one non-zero lane → both stored.
        assert_eq!(state.stored_columns(), 2);
        assert_eq!(state.decode(), lanes);
    }

    #[test]
    fn offsets_count_skipped_columns() {
        let enc = OffsetEncoder::new(8);
        let lanes = vec![vec![0, 0, 0, 9, 0, 8]];
        let state = enc.encode(&lanes);
        assert_eq!(state.columns()[0].offset, 3);
        assert_eq!(state.columns()[0].index, 3);
        assert_eq!(state.columns()[1].offset, 1);
    }

    #[test]
    fn saturated_offset_forces_anchor() {
        let enc = OffsetEncoder::new(2); // max run 3
        let mut lane = vec![0i8; 9];
        lane[8] = 5;
        let state = enc.encode(std::slice::from_ref(&lane));
        // Runs: 3 zeros → anchor at col 3, 3 zeros → anchor at col 7,
        // then offset 1 before the value at col 8.
        assert_eq!(state.anchor_columns(), 2);
        assert_eq!(state.decode(), vec![lane]);
    }

    #[test]
    fn all_zero_state_needs_only_anchors() {
        let enc = OffsetEncoder::new(4); // max run 15
        let lane = vec![0i8; 64];
        let state = enc.encode(std::slice::from_ref(&lane));
        assert_eq!(state.stored_columns(), state.anchor_columns());
        assert_eq!(state.stored_columns(), 64 / 16);
        assert_eq!(state.decode(), vec![lane]);
    }

    #[test]
    fn dense_state_stores_every_column() {
        let enc = OffsetEncoder::new(8);
        let lane: Vec<i8> = (1..=32).map(|v| v as i8).collect();
        let state = enc.encode(std::slice::from_ref(&lane));
        assert_eq!(state.stored_columns(), 32);
        assert_eq!(state.skipped_columns(), 0);
        assert!(state.size_bits() > state.dense_size_bits());
    }

    #[test]
    fn sparse_state_compresses() {
        let enc = OffsetEncoder::new(8);
        let mut lane = vec![0i8; 1000];
        for i in (0..1000).step_by(50) {
            lane[i] = 1;
        }
        let state = enc.encode(&[lane]);
        assert!(state.size_bits() < state.dense_size_bits() / 10);
    }

    #[test]
    fn encode_f32_quantizes_then_encodes() {
        let enc = OffsetEncoder::new(8);
        let states = Matrix::from_rows(&[&[0.0, 0.5, 0.0, -1.0]]);
        let q = zskip_tensor::Quantizer::from_max_abs(1.0);
        let state = enc.encode_f32(&states, q);
        assert_eq!(state.stored_columns(), 2);
        let decoded = state.decode();
        assert_eq!(decoded[0][1], 64); // 0.5 / (1/127) ≈ 63.5 → 64
        assert_eq!(decoded[0][3], -127);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn rejects_ragged_lanes() {
        let enc = OffsetEncoder::new(8);
        let _ = enc.encode(&[vec![0, 1], vec![0]]);
    }
}
