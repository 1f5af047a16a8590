//! Checksummed binary container for frozen-model snapshots.
//!
//! A snapshot is a flat byte stream: a fixed header (magic, format
//! version, model-family tag, a free-form name) followed by an ordered
//! list of named, typed, shaped tensor sections, each carrying a CRC-32
//! of its payload. The container knows nothing about models — the
//! runtime layer decides which sections a family writes and in what
//! order — but it owns every integrity rule: a snapshot that was
//! truncated, bit-flipped, or produced by a different format version is
//! rejected with a typed [`SnapshotError`] naming the offending tensor,
//! never a panic and never a partial read.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   := magic "ZSKS" | u16 version | u8 family | str name | u32 n_sections
//! section  := str name | u8 dtype | u8 ndims | u64 dim * ndims
//!           | u64 payload_len | payload | u32 crc32(payload)
//! str      := u16 len | len utf-8 bytes
//! ```
//!
//! The reader is strictly sequential and strictly total: sections are
//! consumed in the order they were written, each read names the section
//! it expects, and [`SnapshotReader::finish`] fails if bytes remain.
//! That makes "same model ⇒ same bytes" trivial to audit and keeps the
//! decoder free of any seek table a corrupted file could lie about.

/// Bump when the byte layout changes. Readers reject other versions.
pub const SNAPSHOT_VERSION: u16 = 1;

const MAGIC: [u8; 4] = *b"ZSKS";
const MAX_NDIMS: u8 = 4;

/// Element type of one snapshot section.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotDtype {
    /// 32-bit floats, stored as little-endian IEEE-754 bit patterns
    /// (round-trips NaN payloads and signed zeros bit-exactly).
    F32,
    /// Signed 8-bit integer codes (the quantized family's storage).
    I8,
    /// 64-bit unsigned scalars — shapes, vocab sizes, discrete tags.
    U64,
}

impl SnapshotDtype {
    fn tag(self) -> u8 {
        match self {
            SnapshotDtype::F32 => 0,
            SnapshotDtype::I8 => 1,
            SnapshotDtype::U64 => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SnapshotDtype::F32),
            1 => Some(SnapshotDtype::I8),
            2 => Some(SnapshotDtype::U64),
            _ => None,
        }
    }

    /// Stable lowercase name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            SnapshotDtype::F32 => "f32",
            SnapshotDtype::I8 => "i8",
            SnapshotDtype::U64 => "u64",
        }
    }

    fn elem_size(self) -> usize {
        match self {
            SnapshotDtype::F32 => 4,
            SnapshotDtype::I8 => 1,
            SnapshotDtype::U64 => 8,
        }
    }
}

/// Why a snapshot was rejected. Every variant that concerns a tensor
/// names it, so an operator can tell *which* weight a disk flipped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The stream does not start with the `ZSKS` magic.
    BadMagic,
    /// The stream's format version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
    },
    /// The stream ended before the named structure was complete.
    Truncated {
        /// What was being read when the bytes ran out (a tensor name
        /// or a header field).
        context: String,
    },
    /// A section's payload failed its CRC-32 — the bytes were altered
    /// after the snapshot was written.
    ChecksumMismatch {
        /// Name of the damaged tensor.
        tensor: String,
    },
    /// The next section is not the one the loader asked for: the
    /// snapshot was written by a different model layout.
    WrongSection {
        /// Section the loader expected next.
        expected: String,
        /// Section actually present.
        found: String,
    },
    /// The named section holds a different element type than expected.
    WrongDtype {
        /// Name of the mistyped tensor.
        tensor: String,
        /// Dtype the loader expected.
        expected: SnapshotDtype,
        /// Dtype tag found in the stream.
        found: u8,
    },
    /// The header's family tag is not the family the loader serves —
    /// e.g. a quantized snapshot handed to a float char-LM server.
    WrongFamily {
        /// Family tag the loader expected.
        expected: u8,
        /// Family tag found in the header.
        found: u8,
    },
    /// A length, dimension count, or UTF-8 name field is implausible —
    /// the classic signature of reading garbage as a header.
    Malformed {
        /// What failed to parse.
        context: String,
    },
    /// The model was fully reconstructed but bytes remain — the file
    /// holds more than the loader consumed.
    TrailingData {
        /// Number of unconsumed bytes.
        bytes: usize,
    },
    /// A tensor decoded cleanly but its values violate a model
    /// invariant (non-positive quantizer scale, undersized LUT, …).
    Invalid {
        /// Name of the offending tensor.
        tensor: String,
        /// Which invariant failed.
        reason: String,
    },
    /// An I/O error while reading or writing the snapshot file.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a zskip snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::ChecksumMismatch { tensor } => {
                write!(f, "checksum mismatch in tensor `{tensor}`")
            }
            SnapshotError::WrongSection { expected, found } => {
                write!(f, "expected tensor `{expected}`, found `{found}`")
            }
            SnapshotError::WrongDtype {
                tensor,
                expected,
                found,
            } => write!(
                f,
                "tensor `{tensor}` has dtype tag {found}, expected {}",
                expected.name()
            ),
            SnapshotError::WrongFamily { expected, found } => write!(
                f,
                "snapshot holds model family tag {found}, this loader serves tag {expected}"
            ),
            SnapshotError::Malformed { context } => write!(f, "malformed snapshot: {context}"),
            SnapshotError::TrailingData { bytes } => {
                write!(f, "{bytes} trailing bytes after the last tensor")
            }
            SnapshotError::Invalid { tensor, reason } => {
                write!(f, "tensor `{tensor}` invalid: {reason}")
            }
            SnapshotError::Io(msg) => write!(f, "snapshot i/o error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) of `bytes`.
///
/// The same polynomial as gzip/zip — handy when checking a snapshot
/// section against an external tool — computed with a 256-entry table
/// built on first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Builds a snapshot byte stream section by section, in one buffer:
/// payloads are encoded straight into it and [`finish`](Self::finish)
/// hands it over after patching the section count, so the only large
/// allocation is the stream itself. Sized with
/// [`with_capacity`](Self::with_capacity) (from a [`sizing`](Self::sizing)
/// pass) that buffer never regrows either.
pub struct SnapshotWriter {
    /// The stream so far — header, then sections; empty when sizing.
    bytes: Vec<u8>,
    /// `Some(total)` in a sizing pass: only the length is tracked.
    sizing: Option<usize>,
    /// Offset of the header's `u32 n_sections`, patched by `finish`.
    count_at: usize,
    n_sections: u32,
}

impl SnapshotWriter {
    /// Starts a snapshot tagged with a model-family discriminant and a
    /// free-form display name (both echoed back by the reader before
    /// any tensor is touched, so a server binary can dispatch on the
    /// family without decoding weights).
    pub fn new(family: u8, name: &str) -> Self {
        Self::with_capacity(family, name, 0)
    }

    /// [`Self::new`] with room for a stream of `len` bytes in total.
    pub fn with_capacity(family: u8, name: &str, len: usize) -> Self {
        Self::start(family, name, Vec::with_capacity(len), None)
    }

    /// A writer that stores nothing and only adds up
    /// [`Self::stream_len`]: run the same section calls against it first
    /// to learn the capacity the real pass needs.
    pub fn sizing(family: u8, name: &str) -> Self {
        Self::start(family, name, Vec::new(), Some(0))
    }

    fn start(family: u8, name: &str, bytes: Vec<u8>, sizing: Option<usize>) -> Self {
        let mut w = Self {
            bytes,
            sizing,
            count_at: 0,
            n_sections: 0,
        };
        w.put(&MAGIC);
        w.put(&SNAPSHOT_VERSION.to_le_bytes());
        w.put(&[family]);
        w.put_str(name);
        w.count_at = w.stream_len();
        w.put(&0u32.to_le_bytes());
        w
    }

    /// Length of the stream so far (what [`Self::finish`] would return).
    pub fn stream_len(&self) -> usize {
        self.sizing.unwrap_or(self.bytes.len())
    }

    fn put(&mut self, bytes: &[u8]) {
        match &mut self.sizing {
            Some(total) => *total += bytes.len(),
            None => self.bytes.extend_from_slice(bytes),
        }
    }

    fn put_str(&mut self, s: &str) {
        assert!(s.len() <= u16::MAX as usize, "snapshot name too long");
        self.put(&(s.len() as u16).to_le_bytes());
        self.put(s.as_bytes());
    }

    /// One section: header fields, then `payload_len` bytes produced by
    /// `encode` directly into the stream, then their CRC-32.
    fn section(
        &mut self,
        name: &str,
        dtype: SnapshotDtype,
        shape: &[usize],
        payload_len: usize,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> &mut Self {
        assert!(
            shape.len() <= MAX_NDIMS as usize,
            "snapshot sections hold at most {MAX_NDIMS} dims"
        );
        assert_eq!(
            shape.iter().product::<usize>() * dtype.elem_size(),
            payload_len,
            "shape/data mismatch writing `{name}`"
        );
        self.put_str(name);
        self.put(&[dtype.tag(), shape.len() as u8]);
        for &d in shape {
            self.put(&(d as u64).to_le_bytes());
        }
        self.put(&(payload_len as u64).to_le_bytes());
        match &mut self.sizing {
            Some(total) => *total += payload_len + 4,
            None => {
                let start = self.bytes.len();
                self.bytes.reserve(payload_len + 4);
                encode(&mut self.bytes);
                assert_eq!(self.bytes.len() - start, payload_len, "payload length");
                let crc = crc32(&self.bytes[start..]);
                self.bytes.extend_from_slice(&crc.to_le_bytes());
            }
        }
        self.n_sections += 1;
        self
    }

    /// Appends an f32 tensor. `shape` must multiply out to `data.len()`.
    pub fn f32s(&mut self, name: &str, shape: &[usize], data: &[f32]) -> &mut Self {
        self.section(name, SnapshotDtype::F32, shape, data.len() * 4, |out| {
            for x in data {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        })
    }

    /// Appends an i8 tensor.
    pub fn i8s(&mut self, name: &str, shape: &[usize], data: &[i8]) -> &mut Self {
        self.section(name, SnapshotDtype::I8, shape, data.len(), |out| {
            out.extend(data.iter().map(|&x| x as u8))
        })
    }

    /// Appends a flat u64 vector (shape is its length).
    pub fn u64s(&mut self, name: &str, data: &[u64]) -> &mut Self {
        self.section(
            name,
            SnapshotDtype::U64,
            &[data.len()],
            data.len() * 8,
            |out| {
                for x in data {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            },
        )
    }

    /// Appends a single u64 scalar.
    pub fn u64_scalar(&mut self, name: &str, value: u64) -> &mut Self {
        self.u64s(name, &[value])
    }

    /// Patches the section count into the header and hands the stream
    /// over.
    ///
    /// # Panics
    ///
    /// Panics on a [`sizing`](Self::sizing) writer, which holds no bytes.
    pub fn finish(mut self) -> Vec<u8> {
        assert!(self.sizing.is_none(), "a sizing writer has no stream");
        self.bytes[self.count_at..self.count_at + 4]
            .copy_from_slice(&self.n_sections.to_le_bytes());
        self.bytes
    }
}

/// Reads the family tag and display name from a snapshot header without
/// decoding any tensor — how a serving binary picks which
/// `FrozenModel` to reconstruct.
pub fn peek_header(bytes: &[u8]) -> Result<(u8, String), SnapshotError> {
    let mut r = Cursor { rest: bytes };
    r.magic_and_version()?;
    let family = r.u8("header family tag")?;
    let name = r.string("header model name")?;
    Ok((family, name))
}

struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &str) -> Result<&'a [u8], SnapshotError> {
        if self.rest.len() < n {
            return Err(SnapshotError::Truncated {
                context: context.to_string(),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self, context: &str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    fn u16(&mut self, context: &str) -> Result<u16, SnapshotError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, context: &str) -> Result<u32, SnapshotError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &str) -> Result<u64, SnapshotError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn string(&mut self, context: &str) -> Result<String, SnapshotError> {
        let len = self.u16(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Malformed {
            context: format!("{context}: name is not utf-8"),
        })
    }

    fn magic_and_version(&mut self) -> Result<(), SnapshotError> {
        let magic = self.take(4, "header magic")?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = self.u16("header version")?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        Ok(())
    }
}

/// One decoded tensor section: its shape and raw payload, checksum
/// already verified.
struct RawSection<'a> {
    shape: Vec<usize>,
    payload: &'a [u8],
}

/// Sequential, checksum-verifying reader over a snapshot byte stream.
pub struct SnapshotReader<'a> {
    cursor: Cursor<'a>,
    family: u8,
    name: String,
    remaining_sections: u32,
}

impl<'a> SnapshotReader<'a> {
    /// Parses the header; fails on wrong magic or version before any
    /// tensor is touched.
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let mut cursor = Cursor { rest: bytes };
        cursor.magic_and_version()?;
        let family = cursor.u8("header family tag")?;
        let name = cursor.string("header model name")?;
        let remaining_sections = cursor.u32("header section count")?;
        Ok(Self {
            cursor,
            family,
            name,
            remaining_sections,
        })
    }

    /// The family discriminant written at save time.
    pub fn family(&self) -> u8 {
        self.family
    }

    /// The display name written at save time.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn section(
        &mut self,
        expected: &str,
        dtype: SnapshotDtype,
    ) -> Result<RawSection<'a>, SnapshotError> {
        if self.remaining_sections == 0 {
            return Err(SnapshotError::Truncated {
                context: format!("tensor `{expected}` (no sections left)"),
            });
        }
        self.remaining_sections -= 1;
        let found = self.cursor.string("section name")?;
        if found != expected {
            return Err(SnapshotError::WrongSection {
                expected: expected.to_string(),
                found,
            });
        }
        let dtype_tag = self.cursor.u8(expected)?;
        if SnapshotDtype::from_tag(dtype_tag) != Some(dtype) {
            return Err(SnapshotError::WrongDtype {
                tensor: expected.to_string(),
                expected: dtype,
                found: dtype_tag,
            });
        }
        let ndims = self.cursor.u8(expected)?;
        if ndims > MAX_NDIMS {
            return Err(SnapshotError::Malformed {
                context: format!("tensor `{expected}` claims {ndims} dims (max {MAX_NDIMS})"),
            });
        }
        let mut shape = Vec::with_capacity(ndims as usize);
        for _ in 0..ndims {
            let d = self.cursor.u64(expected)?;
            if d > usize::MAX as u64 {
                return Err(SnapshotError::Malformed {
                    context: format!("tensor `{expected}` dimension overflows usize"),
                });
            }
            shape.push(d as usize);
        }
        let len = self.cursor.u64(expected)?;
        if len > self.cursor.rest.len() as u64 {
            return Err(SnapshotError::Truncated {
                context: format!("tensor `{expected}` payload"),
            });
        }
        let len = len as usize;
        let implied: usize = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .and_then(|elems| elems.checked_mul(dtype.elem_size()))
            .ok_or_else(|| SnapshotError::Malformed {
                context: format!("tensor `{expected}` shape overflows"),
            })?;
        if len != implied {
            return Err(SnapshotError::Malformed {
                context: format!(
                    "tensor `{expected}` payload is {len} bytes, shape implies {implied}"
                ),
            });
        }
        let payload = self.cursor.take(len, expected)?;
        let stored = self.cursor.u32(expected)?;
        if crc32(payload) != stored {
            return Err(SnapshotError::ChecksumMismatch {
                tensor: expected.to_string(),
            });
        }
        Ok(RawSection { shape, payload })
    }

    /// Reads the next section, which must be an f32 tensor named
    /// `name`. Returns its shape and data.
    pub fn f32s(&mut self, name: &str) -> Result<(Vec<usize>, Vec<f32>), SnapshotError> {
        let s = self.section(name, SnapshotDtype::F32)?;
        let data = s
            .payload
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
            .collect();
        Ok((s.shape, data))
    }

    /// Reads the next section, which must be an i8 tensor named `name`.
    pub fn i8s(&mut self, name: &str) -> Result<(Vec<usize>, Vec<i8>), SnapshotError> {
        let s = self.section(name, SnapshotDtype::I8)?;
        Ok((s.shape, s.payload.iter().map(|&b| b as i8).collect()))
    }

    /// Reads the next section, which must be a flat u64 vector named
    /// `name`.
    pub fn u64s(&mut self, name: &str) -> Result<Vec<u64>, SnapshotError> {
        let s = self.section(name, SnapshotDtype::U64)?;
        Ok(s.payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads the next section as a single u64 scalar named `name`.
    pub fn u64_scalar(&mut self, name: &str) -> Result<u64, SnapshotError> {
        let v = self.u64s(name)?;
        if v.len() != 1 {
            return Err(SnapshotError::Malformed {
                context: format!("tensor `{name}` holds {} values, expected 1", v.len()),
            });
        }
        Ok(v[0])
    }

    /// Like [`f32s`](Self::f32s) but also checks the shape.
    pub fn f32s_shaped(&mut self, name: &str, shape: &[usize]) -> Result<Vec<f32>, SnapshotError> {
        let (found, data) = self.f32s(name)?;
        if found != shape {
            return Err(SnapshotError::Invalid {
                tensor: name.to_string(),
                reason: format!("shape {found:?}, expected {shape:?}"),
            });
        }
        Ok(data)
    }

    /// Verifies the stream is fully consumed: every declared section
    /// was read and no bytes trail the last one.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining_sections != 0 {
            return Err(SnapshotError::Malformed {
                context: format!(
                    "{} declared sections were never read",
                    self.remaining_sections
                ),
            });
        }
        if !self.cursor.rest.is_empty() {
            return Err(SnapshotError::TrailingData {
                bytes: self.cursor.rest.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sections(w: &mut SnapshotWriter) {
        w.u64_scalar("vocab", 17)
            .f32s(
                "wx",
                &[2, 3],
                &[0.5, -1.25, f32::MIN_POSITIVE, 3.0, -0.0, 9.5],
            )
            .i8s("codes", &[4], &[-127, 0, 1, 127])
            .u64s("dims", &[8, 16]);
    }

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new(3, "demo-model");
        sample_sections(&mut w);
        w.finish()
    }

    #[test]
    fn sizing_pass_predicts_the_stream_and_presized_writer_never_regrows() {
        let mut sizing = SnapshotWriter::sizing(3, "demo-model");
        sample_sections(&mut sizing);
        assert_eq!(sizing.stream_len(), sample().len());
        let mut w = SnapshotWriter::with_capacity(3, "demo-model", sizing.stream_len());
        sample_sections(&mut w);
        let bytes = w.finish();
        assert_eq!(bytes, sample());
        assert_eq!(bytes.capacity(), bytes.len(), "the stream regrew");
    }

    #[test]
    fn round_trips_every_dtype_bit_exactly() {
        let bytes = sample();
        let (family, name) = peek_header(&bytes).unwrap();
        assert_eq!((family, name.as_str()), (3, "demo-model"));

        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(r.family(), 3);
        assert_eq!(r.name(), "demo-model");
        assert_eq!(r.u64_scalar("vocab").unwrap(), 17);
        let (shape, wx) = r.f32s("wx").unwrap();
        assert_eq!(shape, vec![2, 3]);
        let expect = [0.5f32, -1.25, f32::MIN_POSITIVE, 3.0, -0.0, 9.5];
        for (a, b) in wx.iter().zip(expect.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "f32 bits must round-trip");
        }
        assert_eq!(r.i8s("codes").unwrap(), (vec![4], vec![-127, 0, 1, 127]));
        assert_eq!(r.u64s("dims").unwrap(), vec![8, 16]);
        r.finish().unwrap();
    }

    #[test]
    fn nan_payloads_round_trip() {
        let weird = f32::from_bits(0x7FC0_1234);
        let mut w = SnapshotWriter::new(0, "nan");
        w.f32s("t", &[1], &[weird]);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let (_, data) = r.f32s("t").unwrap();
        assert_eq!(data[0].to_bits(), 0x7FC0_1234);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(
            SnapshotReader::open(&bytes).err(),
            Some(SnapshotError::BadMagic)
        );
        let mut bytes = sample();
        bytes[4] = 0xFF;
        assert!(matches!(
            SnapshotReader::open(&bytes).err(),
            Some(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn every_single_byte_corruption_is_caught_or_changes_nothing() {
        // Flip each byte in turn; decoding must either fail with a
        // typed error or (for bytes the reader legitimately ignores —
        // there are none in this format) still decode. It must never
        // panic.
        let good = sample();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            let res = std::panic::catch_unwind(|| {
                let mut r = SnapshotReader::open(&bad)?;
                r.u64_scalar("vocab")?;
                r.f32s("wx")?;
                r.i8s("codes")?;
                r.u64s("dims")?;
                r.finish()
            });
            let decoded = res.expect("decoder must not panic on corruption");
            if let Ok(()) = decoded {
                // The only bytes a flip can leave decodable are the
                // free-form header metadata (family tag, model name) —
                // and there the corruption must still be observable.
                let good_hdr = peek_header(&good).unwrap();
                let bad_hdr = peek_header(&bad).expect("decodable flip must keep the header");
                assert_ne!(
                    good_hdr, bad_hdr,
                    "byte {i} corruption went unnoticed entirely"
                );
            }
        }
    }

    #[test]
    fn payload_corruption_names_the_tensor() {
        let good = sample();
        // Find the wx payload: locate the f32 bit pattern of 9.5.
        let needle = 9.5f32.to_bits().to_le_bytes();
        let pos = good
            .windows(4)
            .position(|w| w == needle)
            .expect("payload byte present");
        let mut bad = good.clone();
        bad[pos] ^= 1;
        let mut r = SnapshotReader::open(&bad).unwrap();
        r.u64_scalar("vocab").unwrap();
        assert_eq!(
            r.f32s("wx").err(),
            Some(SnapshotError::ChecksumMismatch {
                tensor: "wx".into()
            })
        );
    }

    #[test]
    fn truncation_at_every_length_is_a_typed_error() {
        let good = sample();
        for cut in 0..good.len() {
            let mut r = match SnapshotReader::open(&good[..cut]) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let run = (|| -> Result<(), SnapshotError> {
                r.u64_scalar("vocab")?;
                r.f32s("wx")?;
                r.i8s("codes")?;
                r.u64s("dims")?;
                r.finish()
            })();
            assert!(run.is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn wrong_section_order_and_dtype_are_reported() {
        let bytes = sample();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(
            r.f32s("wx").err(),
            Some(SnapshotError::WrongSection {
                expected: "wx".into(),
                found: "vocab".into()
            })
        );
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            r.f32s("vocab").err(),
            Some(SnapshotError::WrongDtype { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample();
        bytes.push(0);
        let mut r = SnapshotReader::open(&bytes).unwrap();
        r.u64_scalar("vocab").unwrap();
        r.f32s("wx").unwrap();
        r.i8s("codes").unwrap();
        r.u64s("dims").unwrap();
        assert_eq!(
            r.finish().err(),
            Some(SnapshotError::TrailingData { bytes: 1 })
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
