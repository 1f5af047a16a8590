//! The cross-process determinism harness.
//!
//! For every frozen model family this spawns a real `zskip_wire_server`
//! process from a snapshot file, drives it over TCP with a
//! [`RemoteClient`], and pins the results **bit-for-bit** against the
//! same schedule driven through an in-process [`Client`] — across
//! shards, stream churn, batched and single-token submission, and a
//! full snapshot save → kill → reload server restart.
//!
//! This is the end of the determinism chain the repo builds layer by
//! layer: engine-level (runtime), shard-placement-level (serve), and
//! now process-boundary-level (wire + snapshots).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;
use zskip::runtime::{
    FrozenCharLm, FrozenGruCharLm, FrozenModel, FrozenQuantizedCharLm, FrozenSeqClassifier,
    FrozenWordLm, InputSpec, StepResult,
};
use zskip::serve::{Client, ServeConfig, Server, StreamId};
use zskip::tensor::SeedableStream;
use zskip::wire::{RemoteClient, WireModel};

const SHARDS: usize = 2;
const THRESHOLD: f32 = 0.2;
const SLOTS: usize = 4;
const ROUNDS: usize = 5;
const TOKENS_PER_ROUND: usize = 6;

/// One observed step, reduced to comparable bits. Logits compare as
/// raw IEEE-754 patterns — "close enough" does not exist here.
type SlotLog = Vec<(u64, Vec<u32>)>;

/// The common driving surface of the in-process and remote clients.
/// Both mirror each other by design; this trait lets one schedule
/// drive either and panics loudly on any serving error.
trait Drivable<M: FrozenModel> {
    fn spec(&self) -> M::Spec;
    fn open_stream(&mut self) -> StreamId;
    fn close_stream(&mut self, id: StreamId);
    fn send_one(&mut self, id: StreamId, input: M::Input);
    fn send_batch(&mut self, id: StreamId, inputs: &[M::Input]);
    fn recv_one(&mut self, id: StreamId) -> StepResult<M::Input>;
}

impl<M: FrozenModel> Drivable<M> for Client<M> {
    fn spec(&self) -> M::Spec {
        self.input_spec()
    }
    fn open_stream(&mut self) -> StreamId {
        self.open().expect("local open")
    }
    fn close_stream(&mut self, id: StreamId) {
        self.close(id).expect("local close");
    }
    fn send_one(&mut self, id: StreamId, input: M::Input) {
        self.send(id, input).expect("local send");
    }
    fn send_batch(&mut self, id: StreamId, inputs: &[M::Input]) {
        self.send_all(id, inputs).expect("local send_all");
    }
    fn recv_one(&mut self, id: StreamId) -> StepResult<M::Input> {
        self.recv(id).expect("local recv")
    }
}

impl<M: WireModel> Drivable<M> for RemoteClient<M> {
    fn spec(&self) -> M::Spec {
        self.input_spec()
    }
    fn open_stream(&mut self) -> StreamId {
        self.open().expect("remote open")
    }
    fn close_stream(&mut self, id: StreamId) {
        self.close(id).expect("remote close");
    }
    fn send_one(&mut self, id: StreamId, input: M::Input) {
        self.send(id, input).expect("remote send");
    }
    fn send_batch(&mut self, id: StreamId, inputs: &[M::Input]) {
        self.send_all(id, inputs).expect("remote send_all");
    }
    fn recv_one(&mut self, id: StreamId) -> StepResult<M::Input> {
        self.recv(id).expect("remote recv")
    }
}

/// Seeded schedule with churn: every round closes and reopens one
/// slot (fresh state), alternates batched and single-token
/// submission, and logs every result per logical slot.
fn run_schedule<M: FrozenModel, C: Drivable<M>>(client: &mut C, seed: u64) -> Vec<SlotLog> {
    let spec = client.spec();
    let mut rng = SeedableStream::new(seed);
    let mut ids: Vec<StreamId> = (0..SLOTS).map(|_| client.open_stream()).collect();
    let mut logs: Vec<SlotLog> = vec![Vec::new(); SLOTS];
    for round in 0..ROUNDS {
        let victim = round % SLOTS;
        client.close_stream(ids[victim]);
        ids[victim] = client.open_stream();
        for slot in 0..SLOTS {
            let inputs: Vec<M::Input> = (0..TOKENS_PER_ROUND)
                .map(|_| spec.sample(&mut rng))
                .collect();
            if round % 2 == 0 {
                client.send_batch(ids[slot], &inputs);
            } else {
                for input in &inputs {
                    client.send_one(ids[slot], *input);
                }
            }
            for _ in 0..TOKENS_PER_ROUND {
                let result = client.recv_one(ids[slot]);
                logs[slot].push((
                    result.argmax as u64,
                    result.logits.iter().map(|x| x.to_bits()).collect(),
                ));
            }
        }
    }
    for id in ids {
        client.close_stream(id);
    }
    logs
}

/// A spawned `zskip_wire_server` child. Closing its stdin shuts it
/// down; `stop` waits for a clean exit.
struct SpawnedServer {
    child: Child,
    port: u16,
}

fn spawn_server(snapshot: &Path) -> SpawnedServer {
    let mut child = Command::new(env!("CARGO_BIN_EXE_zskip_wire_server"))
        .arg(snapshot)
        .args(["--shards", &SHARDS.to_string()])
        .args(["--threshold", &THRESHOLD.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn zskip_wire_server");
    let stdout: ChildStdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read PORT line");
    let port: u16 = line
        .trim()
        .strip_prefix("PORT ")
        .unwrap_or_else(|| panic!("unexpected server banner: {line:?}"))
        .parse()
        .expect("parse port");
    SpawnedServer { child, port }
}

impl SpawnedServer {
    fn connect<M: WireModel>(&self) -> RemoteClient<M> {
        RemoteClient::<M>::connect(("127.0.0.1", self.port))
            .expect("connect to spawned server")
            .with_recv_timeout(Duration::from_secs(30))
    }

    fn stop(mut self) {
        drop(self.child.stdin.take()); // EOF → clean exit
        let status = self.child.wait().expect("wait for server exit");
        assert!(status.success(), "server exited with {status}");
    }
}

fn snapshot_path(family: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zskip-wire-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    dir.join(format!("{family}.zsks"))
}

/// The harness: snapshot the model, serve it in-process and out of
/// process from the *same snapshot file*, drive the same seeded
/// schedule everywhere, and require bit identity — including after
/// killing the server and reloading the snapshot into a fresh process.
fn assert_cross_process_determinism<M: WireModel>(model: M, family: &str, seed: u64) {
    let path = snapshot_path(family);
    model.save_snapshot(&path).expect("save snapshot");

    // In-process reference, loaded from the snapshot like the child.
    let reference = M::load_snapshot(&path).expect("load snapshot");
    let server = Server::start(
        reference,
        ServeConfig::for_threshold(THRESHOLD).with_shards(SHARDS),
    );
    let mut local = server.client();
    let local_logs = run_schedule::<M, _>(&mut local, seed);
    drop(local);
    server.shutdown();

    // Same schedule over a real socket against a real child process.
    let spawned = spawn_server(&path);
    let mut remote = spawned.connect::<M>();
    let remote_logs = run_schedule::<M, _>(&mut remote, seed);
    drop(remote);
    spawned.stop();

    // Kill + reload from the same snapshot: a restarted server must
    // serve the identical bits.
    let respawned = spawn_server(&path);
    let mut remote = respawned.connect::<M>();
    let restarted_logs = run_schedule::<M, _>(&mut remote, seed);
    drop(remote);
    respawned.stop();

    for slot in 0..SLOTS {
        assert_eq!(
            local_logs[slot], remote_logs[slot],
            "{family}: slot {slot} diverged between in-process and remote serving"
        );
        assert_eq!(
            local_logs[slot], restarted_logs[slot],
            "{family}: slot {slot} diverged after snapshot restart"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn char_lm_is_bit_identical_across_the_process_boundary() {
    assert_cross_process_determinism(FrozenCharLm::random(24, 20, 11), "char-lm", 0xC0FFEE);
}

#[test]
fn lut_char_lm_is_bit_identical_across_the_process_boundary() {
    // The LUT activation tables ship inside the snapshot (weights and
    // activation contract travel together).
    assert_cross_process_determinism(
        FrozenCharLm::random_lut(24, 20, 12),
        "char-lm-lut",
        0xC0FFEE,
    );
}

#[test]
fn gru_char_lm_is_bit_identical_across_the_process_boundary() {
    assert_cross_process_determinism(FrozenGruCharLm::random(22, 18, 21), "gru-char-lm", 0xBEEF);
}

#[test]
fn word_lm_is_bit_identical_across_the_process_boundary() {
    assert_cross_process_determinism(FrozenWordLm::random(40, 12, 16, 31), "word-lm", 0xFACADE);
}

#[test]
fn seq_classifier_is_bit_identical_across_the_process_boundary() {
    // f32 inputs: pixel values cross the wire as bit patterns too.
    assert_cross_process_determinism(
        FrozenSeqClassifier::random(10, 16, 41),
        "seq-classifier",
        0xD161,
    );
}

#[test]
fn quantized_char_lm_is_bit_identical_across_the_process_boundary() {
    // The integer datapath: i8 codes, quantizer steps and hardware
    // LUTs all reload from the snapshot bit-exactly.
    assert_cross_process_determinism(
        FrozenQuantizedCharLm::random(24, 20, THRESHOLD, 51),
        "quantized-char-lm",
        0x5EED,
    );
}

/// Runs `zskip_wire_server` on `snapshot` with `args`, closes its stdin
/// once it has printed its first line (or exited), and returns that
/// line, the exit status and everything it wrote to stderr.
fn run_server_once(snapshot: &Path, args: &[&str]) -> (String, std::process::ExitStatus, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_zskip_wire_server"))
        .arg(snapshot)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn zskip_wire_server");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("child stdout"))
        .read_line(&mut line)
        .expect("read first line");
    drop(child.stdin.take());
    let output = child.wait_with_output().expect("wait for server exit");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (line, output.status, stderr)
}

/// Writes `model`'s snapshot to a fresh file and returns its path.
fn saved<M: WireModel>(model: M, family: &str) -> PathBuf {
    let path = snapshot_path(family);
    model.save_snapshot(&path).expect("save snapshot");
    path
}

/// Bad command-line input is a usage error (status 2, one line), never
/// a panic from an assertion deeper in the server.
#[test]
fn wire_server_rejects_bad_arguments_with_a_message() {
    let quantized = FrozenQuantizedCharLm::random(8, 6, THRESHOLD, 62);
    let path = saved(quantized, "quantized-bad-arguments");
    for args in [["--shards", "0"], ["--threshold", "0.5"]] {
        let (line, status, stderr) = run_server_once(&path, &args);
        assert_eq!(status.code(), Some(2), "{args:?}: stderr {stderr:?}");
        assert!(line.is_empty(), "{args:?}: printed {line:?}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.trim().lines().count(), 1, "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wire_server_takes_a_quantized_snapshots_own_threshold() {
    let quantized = FrozenQuantizedCharLm::random(8, 6, 0.35, 63);
    let path = saved(quantized, "quantized-baked-threshold");
    let (line, status, stderr) = run_server_once(&path, &["--shards", "1"]);
    assert!(
        line.starts_with("PORT "),
        "banner {line:?}, stderr {stderr:?}"
    );
    assert!(status.success(), "server exited with {status}: {stderr}");
    let _ = std::fs::remove_file(&path);
}
