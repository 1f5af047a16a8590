//! The five named workloads and the seeded token streams they replay.

use zskip_tensor::rng::mix64;

/// Vocabulary of every fixture.
pub const VOCAB: usize = 64;

/// Results per stream (and per reopened stream) whose logits are
/// compared against the single-engine reference.
pub const CHECKED_RESULTS: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilyKind {
    F32,
    I8,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `zskip_serve::Client` onto an in-process `Server`.
    InProcess,
    /// `zskip_wire::RemoteClient` over 127.0.0.1 onto an in-process
    /// `TcpServer`.
    Tcp,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub family: FamilyKind,
    pub dh: usize,
    /// Share of hidden units gated shut in the fixture.
    pub sparsity: f64,
    pub shards: usize,
    pub transport: Transport,
    /// Streams held open for the whole run.
    pub streams: usize,
    /// Streams that get one token per lockstep round (a window rotating
    /// over the open streams).
    pub active: usize,
    /// Seeded close+reopen pairs per round.
    pub churn: usize,
    /// `ServerStats::skip_fraction()` the fixture realises on this
    /// traffic; every run checks its own value within
    /// [`SKIP_TOLERANCE`].
    pub skip_fraction: f64,
}

pub const SKIP_TOLERANCE: f64 = 0.02;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "dense_batch",
        family: FamilyKind::F32,
        dh: 512,
        sparsity: 0.0,
        shards: 1,
        transport: Transport::InProcess,
        streams: 16,
        active: 16,
        churn: 0,
        skip_fraction: 0.0,
    },
    Workload {
        name: "sparse_batch",
        family: FamilyKind::F32,
        dh: 512,
        sparsity: 0.9,
        shards: 1,
        transport: Transport::InProcess,
        streams: 16,
        active: 16,
        churn: 0,
        skip_fraction: 0.900,
    },
    Workload {
        name: "sparse_batch_i8",
        family: FamilyKind::I8,
        dh: 512,
        sparsity: 0.9,
        shards: 1,
        transport: Transport::InProcess,
        streams: 16,
        active: 16,
        churn: 0,
        skip_fraction: 0.900,
    },
    Workload {
        name: "wire_stream",
        family: FamilyKind::F32,
        dh: 512,
        sparsity: 0.9,
        shards: 1,
        transport: Transport::Tcp,
        streams: 1,
        active: 1,
        churn: 0,
        skip_fraction: 0.900,
    },
    Workload {
        name: "churn_sessions",
        family: FamilyKind::F32,
        dh: 128,
        sparsity: 0.9,
        shards: 2,
        transport: Transport::InProcess,
        streams: 1024,
        active: 64,
        churn: 32,
        skip_fraction: 0.898,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Token `pos` of stream slot `stream`: a pure function of the seed, so
/// the reference replay, the live run and every reopened incarnation of
/// a slot agree on the inputs without sharing state.
pub fn token(seed: u64, stream: usize, pos: u64) -> usize {
    let key = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64) << 32)
        .wrapping_add(pos);
    (mix64(key) % VOCAB as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_seeded_in_vocab_and_vary() {
        let a: Vec<usize> = (0..256).map(|p| token(1, 3, p)).collect();
        assert_eq!(a, (0..256).map(|p| token(1, 3, p)).collect::<Vec<_>>());
        assert!(a.iter().all(|t| *t < VOCAB));
        assert_ne!(a, (0..256).map(|p| token(2, 3, p)).collect::<Vec<_>>());
        assert_ne!(a, (0..256).map(|p| token(1, 4, p)).collect::<Vec<_>>());
    }

    #[test]
    fn workload_names_are_unique_and_shapes_are_consistent() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.active <= w.streams && w.active > 0);
            assert!(w.churn <= w.streams);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
    }
}
