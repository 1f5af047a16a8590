//! A standalone wire server: loads a frozen-model snapshot, serves it
//! over TCP, and exits when stdin closes.
//!
//! This is the server half of the cross-process determinism harness
//! (`tests/wire_determinism.rs`): the test spawns this binary with a
//! snapshot file, reads the `PORT <n>` line from stdout, drives it
//! with a [`zskip::wire::RemoteClient`], and closes the child's stdin
//! to shut it down. It is also a minimal deployment shape: one
//! snapshot file in, one listening socket out.
//!
//! ```text
//! zskip_wire_server <snapshot> [--threshold T] [--shards N] [--addr HOST:PORT]
//! ```
//!
//! The model family is read from the snapshot header — all five
//! frozen families dispatch through the same loop below. `--threshold`
//! defaults to the threshold a quantized snapshot bakes in, else 0.2.
//! Bad arguments (`--shards 0`, a threshold a quantized snapshot
//! cannot serve) exit with status 2 and a one-line message.

use std::io::Read;
use zskip::runtime::{
    snapshot::peek_family, FrozenCharLm, FrozenGruCharLm, FrozenQuantizedCharLm,
    FrozenSeqClassifier, FrozenWordLm, ModelFamily,
};
use zskip::serve::{ServeConfig, Server};
use zskip::wire::{TcpServer, WireModel};

struct Args {
    snapshot: String,
    threshold: Option<f32>,
    shards: usize,
    addr: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let snapshot = args.next().ok_or(
        "usage: zskip_wire_server <snapshot> [--threshold T] [--shards N] [--addr HOST:PORT]",
    )?;
    let mut parsed = Args {
        snapshot,
        threshold: None,
        shards: 2,
        addr: "127.0.0.1:0".into(),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--threshold" => {
                parsed.threshold = Some(value.parse().map_err(|e| format!("--threshold: {e}"))?)
            }
            "--shards" => parsed.shards = value.parse().map_err(|e| format!("--shards: {e}"))?,
            "--addr" => parsed.addr = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.shards == 0 {
        return Err("--shards: must be at least 1".into());
    }
    Ok(parsed)
}

/// Rejects command-line input: one line on stderr, exit status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn serve<M: WireModel>(bytes: &[u8], args: &Args) -> Result<(), String> {
    let model = M::from_snapshot_bytes(bytes).map_err(|e| format!("snapshot rejected: {e}"))?;
    let threshold = match (args.threshold, model.baked_threshold()) {
        (Some(t), Some(baked)) if t != baked => usage_error(&format!(
            "--threshold {t}: this quantized snapshot was frozen at threshold {baked}"
        )),
        (t, baked) => t.or(baked).unwrap_or(0.2),
    };
    let config = ServeConfig::for_threshold(threshold).with_shards(args.shards);
    let server = Server::start(model, config);
    let tcp = TcpServer::bind(server, args.addr.as_str()).map_err(|e| format!("bind: {e}"))?;
    // The harness contract: exactly one `PORT <n>` line on stdout once
    // the listener is live.
    println!("PORT {}", tcp.local_addr().port());
    // Block until the parent closes our stdin, then exit cleanly.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    tcp.shutdown();
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| usage_error(&e));
    let run = || -> Result<(), String> {
        let bytes =
            std::fs::read(&args.snapshot).map_err(|e| format!("read {}: {e}", args.snapshot))?;
        let family = peek_family(&bytes).map_err(|e| format!("snapshot header: {e}"))?;
        match family {
            ModelFamily::CharLm => serve::<FrozenCharLm>(&bytes, &args),
            ModelFamily::GruCharLm => serve::<FrozenGruCharLm>(&bytes, &args),
            ModelFamily::WordLm => serve::<FrozenWordLm>(&bytes, &args),
            ModelFamily::SeqClassifier => serve::<FrozenSeqClassifier>(&bytes, &args),
            ModelFamily::QuantizedCharLm => serve::<FrozenQuantizedCharLm>(&bytes, &args),
        }
    };
    if let Err(e) = run() {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
