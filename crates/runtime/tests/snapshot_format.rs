//! Pins the snapshot byte format across commits.
//!
//! Each family's `random(...)` at a fixed shape and seed must serialize
//! to exactly the stream it did when the digests below were taken (at
//! the commit before the families became `Frozen<E, C, H>` aliases).
//! The day someone reorders a section, renames one, or moves an RNG draw
//! in `random`, this fails — even though every round-trip test, which
//! writes and reads with the same code, still passes.
//!
//! The LUT families' tables come from the platform `exp`/`tanh`; the
//! digests are those of the x86-64 Linux box CI and tier-1 run on.

use zskip_runtime::{
    FrozenCharLm, FrozenGruCharLm, FrozenQuantizedCharLm, FrozenSeqClassifier, FrozenWordLm,
    ModelSnapshot,
};
use zskip_tensor::snapshot::crc32;

#[test]
fn snapshot_streams_match_the_pinned_digests() {
    let streams: [(&str, Vec<u8>, usize, u32); 6] = [
        (
            "char-lm",
            FrozenCharLm::random(17, 12, 3).to_snapshot_bytes(),
            6926,
            0x144A_0579,
        ),
        (
            "char-lm-lut",
            FrozenCharLm::random_lut(17, 12, 4).to_snapshot_bytes(),
            39884,
            0xB436_9470,
        ),
        (
            "gru-char-lm",
            FrozenGruCharLm::random(19, 10, 5).to_snapshot_bytes(),
            4718,
            0xC2DE_C56D,
        ),
        (
            "word-lm",
            FrozenWordLm::random(23, 6, 8, 6).to_snapshot_bytes(),
            3623,
            0x9F24_262E,
        ),
        (
            "seq-classifier",
            FrozenSeqClassifier::random(10, 14, 7).to_snapshot_bytes(),
            4475,
            0x760A_4F14,
        ),
        (
            "quantized-char-lm",
            FrozenQuantizedCharLm::random(17, 16, 0.1, 8).to_snapshot_bytes(),
            5467,
            0x48F6_8FA1,
        ),
    ];
    for (family, bytes, len, digest) in &streams {
        assert_eq!(bytes.len(), *len, "{family}: stream length");
        assert_eq!(crc32(bytes), *digest, "{family}: stream CRC32");
    }
}
