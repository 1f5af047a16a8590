//! Machine-readable bench evidence: `BENCH_<lane>.json`.
//!
//! `docs/BENCH_RESULTS.md` used to be the only record of a bench run —
//! numbers copied by hand, with no trace of the machine, toolchain or
//! command that produced them. This module gives every bench lane a
//! structured artifact instead: the bench `main` collects its medians
//! (from the vendored criterion's [`take_measurements`] or anywhere
//! else), stamps the environment, and writes one JSON file per lane. The
//! `bench_compare --schema-only` binary checks such files in CI; the
//! gate on medians is `benchmark/`'s `--compare`, over repeated runs.
//!
//! Schema (`zskip-bench-evidence/v1`):
//!
//! ```json
//! {
//!   "schema": "zskip-bench-evidence/v1",
//!   "lane": "runtime",
//!   "date_utc": "2026-08-08",
//!   "machine": { "host": "...", "cpu": "...", "os": "linux",
//!                "arch": "x86_64", "rustc": "rustc 1.xx" },
//!   "command": "target/release/deps/runtime-...",
//!   "profile": "release",
//!   "smoke": false,
//!   "metrics": { "inference_step_dh512_b1/sparse_path/80%": 12345.0 }
//! }
//! ```
//!
//! Metrics are medians in nanoseconds, keyed by the full benchmark id.
//! `smoke: true` marks a `ZSKIP_BENCH_SMOKE=1` run: its numbers are
//! one-sample noise, kept only to check the schema.
//!
//! [`take_measurements`]: https://docs.rs/criterion

use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema tag every evidence file must carry.
pub const EVIDENCE_SCHEMA: &str = "zskip-bench-evidence/v1";

/// Environment variable overriding the output directory
/// (default `target/bench-evidence/`).
pub const EVIDENCE_DIR_ENV: &str = "ZSKIP_BENCH_EVIDENCE_DIR";

/// The machine/toolchain fingerprint stamped into every evidence file.
#[derive(Clone, Debug, PartialEq)]
pub struct Machine {
    /// Hostname (best effort; `"unknown"` when unreadable).
    pub host: String,
    /// CPU model string from `/proc/cpuinfo` (best effort).
    pub cpu: String,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// `rustc --version` of the toolchain on `PATH` (best effort).
    pub rustc: String,
}

impl Machine {
    /// Fingerprints the current machine and toolchain.
    pub fn detect() -> Self {
        let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .or_else(|_| std::env::var("HOSTNAME"))
            .unwrap_or_else(|_| "unknown".to_string());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|body| {
                body.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            host,
            cpu,
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            rustc,
        }
    }
}

impl Serialize for Machine {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("host".to_string(), Value::Str(self.host.clone())),
            ("cpu".to_string(), Value::Str(self.cpu.clone())),
            ("os".to_string(), Value::Str(self.os.clone())),
            ("arch".to_string(), Value::Str(self.arch.clone())),
            ("rustc".to_string(), Value::Str(self.rustc.clone())),
        ])
    }
}

impl Deserialize for Machine {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| -> Result<String, DeError> {
            match v.get(name) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(DeError(format!("machine.{name}: expected a string"))),
            }
        };
        Ok(Self {
            host: field("host")?,
            cpu: field("cpu")?,
            os: field("os")?,
            arch: field("arch")?,
            rustc: field("rustc")?,
        })
    }
}

/// One bench lane's evidence: environment fingerprint plus named median
/// latencies in nanoseconds. Build with [`Evidence::new`], add metrics,
/// then [`Evidence::write`].
#[derive(Clone, Debug)]
pub struct Evidence {
    /// Lane name; the file is `BENCH_<lane>.json`.
    pub lane: String,
    /// UTC civil date of the run, `YYYY-MM-DD`.
    pub date_utc: String,
    /// Machine/toolchain fingerprint.
    pub machine: Machine,
    /// The command line that produced the run.
    pub command: String,
    /// Build profile of the measuring binary (`release` / `debug`).
    pub profile: String,
    /// `true` when the run was a `ZSKIP_BENCH_SMOKE=1` smoke pass:
    /// numbers are schema-checked but never gated on.
    pub smoke: bool,
    /// `benchmark id → median nanoseconds`, in recording order.
    pub metrics: Vec<(String, f64)>,
}

impl Evidence {
    /// Evidence for `lane`, stamped with the current date, machine,
    /// command line, build profile and smoke mode.
    pub fn new(lane: &str) -> Self {
        Self {
            lane: lane.to_string(),
            date_utc: utc_date_today(),
            machine: Machine::detect(),
            command: std::env::args().collect::<Vec<_>>().join(" "),
            profile: if cfg!(debug_assertions) {
                "debug".to_string()
            } else {
                "release".to_string()
            },
            smoke: std::env::var("ZSKIP_BENCH_SMOKE").is_ok_and(|v| v == "1"),
            metrics: Vec::new(),
        }
    }

    /// Adds (or overwrites) one `id → median nanoseconds` metric.
    pub fn metric(mut self, id: &str, median_nanos: f64) -> Self {
        if let Some(slot) = self.metrics.iter_mut().find(|(k, _)| k == id) {
            slot.1 = median_nanos;
        } else {
            self.metrics.push((id.to_string(), median_nanos));
        }
        self
    }

    /// Where evidence files land: `$ZSKIP_BENCH_EVIDENCE_DIR` when set,
    /// else `<target>/bench-evidence/` next to the running binary (cargo
    /// runs benches from the package dir, so a CWD-relative default
    /// would scatter files per crate), else `target/bench-evidence/`
    /// under the working directory.
    pub fn output_dir() -> PathBuf {
        if let Ok(dir) = std::env::var(EVIDENCE_DIR_ENV) {
            return PathBuf::from(dir);
        }
        if let Ok(exe) = std::env::current_exe() {
            if let Some(target) = exe.ancestors().find(|p| {
                p.file_name()
                    .is_some_and(|n| n == std::ffi::OsStr::new("target"))
            }) {
                return target.join("bench-evidence");
            }
        }
        PathBuf::from("target/bench-evidence")
    }

    /// Writes `BENCH_<lane>.json` under [`Evidence::output_dir`],
    /// creating the directory; returns the path written.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let dir = Self::output_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.lane));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Pretty JSON rendering of the evidence document.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("serialize evidence")
    }

    /// Strict-parses an evidence document, verifying the schema tag.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let value = serde_json::from_str::<Value>(body).map_err(|e| format!("parse: {e}"))?;
        Self::from_value(&value).map_err(|e| format!("schema: {e}"))
    }
}

impl Serialize for Evidence {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "schema".to_string(),
                Value::Str(EVIDENCE_SCHEMA.to_string()),
            ),
            ("lane".to_string(), Value::Str(self.lane.clone())),
            ("date_utc".to_string(), Value::Str(self.date_utc.clone())),
            ("machine".to_string(), self.machine.to_value()),
            ("command".to_string(), Value::Str(self.command.clone())),
            ("profile".to_string(), Value::Str(self.profile.clone())),
            ("smoke".to_string(), Value::Bool(self.smoke)),
            (
                "metrics".to_string(),
                Value::Map(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Float(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for Evidence {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let str_field = |name: &str| -> Result<String, DeError> {
            match v.get(name) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(DeError(format!("{name}: expected a string"))),
            }
        };
        let schema = str_field("schema")?;
        if schema != EVIDENCE_SCHEMA {
            return Err(DeError(format!(
                "unsupported schema {schema:?} (expected {EVIDENCE_SCHEMA:?})"
            )));
        }
        let smoke = match v.get("smoke") {
            Some(Value::Bool(b)) => *b,
            _ => return Err(DeError("smoke: expected a bool".to_string())),
        };
        let machine = match v.get("machine") {
            Some(m) => Machine::from_value(m)?,
            None => return Err(DeError("machine: missing".to_string())),
        };
        let metrics = match v.get("metrics") {
            Some(Value::Map(entries)) => {
                let mut out = Vec::with_capacity(entries.len());
                for (k, mv) in entries {
                    let nanos = match mv {
                        Value::Float(f) => *f,
                        Value::Int(i) => *i as f64,
                        _ => {
                            return Err(DeError(format!("metrics.{k}: expected a number")));
                        }
                    };
                    if !nanos.is_finite() || nanos < 0.0 {
                        return Err(DeError(format!(
                            "metrics.{k}: median must be finite and non-negative"
                        )));
                    }
                    out.push((k.clone(), nanos));
                }
                out
            }
            _ => return Err(DeError("metrics: expected a map".to_string())),
        };
        Ok(Self {
            lane: str_field("lane")?,
            date_utc: str_field("date_utc")?,
            machine,
            command: str_field("command")?,
            profile: str_field("profile")?,
            smoke,
            metrics,
        })
    }
}

/// Today's UTC civil date as `YYYY-MM-DD` (days-from-epoch → civil via
/// the standard Gregorian conversion; no external time crate).
fn utc_date_today() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Gregorian civil date from days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Evidence {
        Evidence::new("unit")
            .metric("group/fn/a", 100.0)
            .metric("group/fn/b", 250.0)
    }

    #[test]
    fn evidence_round_trips_through_json() {
        let e = sample();
        let back = Evidence::from_json(&e.to_json()).expect("round trip");
        assert_eq!(back.lane, "unit");
        assert_eq!(back.metrics, e.metrics);
        assert_eq!(back.machine, e.machine);
        assert_eq!(back.date_utc, e.date_utc);
        assert_eq!(back.profile, e.profile);
    }

    #[test]
    fn schema_violations_are_rejected() {
        assert!(Evidence::from_json("not json").is_err());
        assert!(Evidence::from_json("{}").is_err());
        let wrong_tag = sample().to_json().replace("/v1", "/v999");
        assert!(Evidence::from_json(&wrong_tag).is_err());
        let nan = r#"{"schema":"zskip-bench-evidence/v1","lane":"x","date_utc":"2026-01-01",
            "machine":{"host":"h","cpu":"c","os":"linux","arch":"x86_64","rustc":"r"},
            "command":"cmd","profile":"release","smoke":false,"metrics":{"m":"oops"}}"#;
        assert!(Evidence::from_json(nan).is_err());
    }

    #[test]
    fn date_is_iso_civil() {
        // Known anchors for the epoch-days conversion.
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
        let today = utc_date_today();
        assert_eq!(today.len(), 10);
        assert_eq!(today.as_bytes()[4], b'-');
    }
}
