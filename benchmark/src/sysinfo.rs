//! Machine fingerprint and the process-level counters read from `/proc`.

use serde::value::Value;

/// Linux reports `/proc/self/stat` CPU times in `USER_HZ` ticks, which
/// is 100 on every architecture this workspace builds for.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads) in microseconds.
pub fn process_cpu_us() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis with field 3 (state).
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |field: usize| -> Result<f64, String> {
        fields
            .get(field - 3)
            .and_then(|s| s.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("/proc/self/stat field {field} unreadable"))
    };
    Ok((tick(14)? + tick(15)?) * 1e6 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

fn command_line(program: &str, args: &[&str], dir: &str) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What a comparison must agree on before it may gate: the same CPU,
/// core count, SIMD dispatch and compiler. (`git_commit` is recorded but
/// expected to differ between the two sides of a comparison.)
pub fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|body| {
            body.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let unknown = || "unknown".to_string();
    Value::Map(vec![
        ("cpu".into(), Value::Str(cpu)),
        ("nproc".into(), Value::Int(nproc as i128)),
        ("avx2".into(), Value::Bool(zskip_tensor::simd::use_avx2())),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"], manifest_dir).unwrap_or_else(unknown)),
        ),
        ("os".into(), Value::Str(std::env::consts::OS.into())),
        ("arch".into(), Value::Str(std::env::consts::ARCH.into())),
        (
            "git_commit".into(),
            Value::Str(
                command_line("git", &["rev-parse", "HEAD"], manifest_dir).unwrap_or_else(unknown),
            ),
        ),
    ])
}

/// Fingerprint keys that must match for a comparison to gate.
pub const MACHINE_KEYS: [&str; 6] = ["cpu", "nproc", "avx2", "rustc", "os", "arch"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable_and_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let before = process_cpu_us().unwrap();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_us().unwrap() > before);
    }

    #[test]
    fn fingerprint_carries_every_machine_key() {
        let fp = fingerprint();
        for key in MACHINE_KEYS {
            assert!(fp.get(key).is_some(), "{key} missing");
        }
        assert!(fp.get("git_commit").is_some());
    }
}
