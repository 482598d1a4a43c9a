//! What the harness reads from the host: the process's CPU time and
//! peak memory, the load average, a fingerprint for result files, the
//! `RLA_*` environment check and the scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use experiments::manifest::Json;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux has
/// reported 100 to user space on every architecture since 2.6.
const CLK_TCK: f64 = 100.0;

/// The first `RLA_*` environment variable found, if any.
///
/// `TreeScenario::paper`, `TreeScenario::run` and the worker pool read
/// `RLA_SHARDS`, `RLA_PCAP*`, `RLA_JOBS` and `RLA_PROGRESS*` through
/// `experiments::cli`, so a stray knob would silently change what a
/// workload measures. The harness passes everything through the API and
/// refuses to start otherwise.
pub fn rla_env_var(names: impl IntoIterator<Item = String>) -> Option<String> {
    names.into_iter().find(|n| n.starts_with("RLA_"))
}

/// User + system CPU seconds of this process, all threads, including
/// threads that already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis with field 3.
    let rest = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    (ticks() + ticks()) / CLK_TCK
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The 1-minute load average.
pub fn load_avg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Warn on stderr when the host is visibly busy: above ~0.5 runnable
/// tasks on average the 2-core gating host starts sharing a core with
/// the measurement.
pub fn warn_if_loaded() {
    let load = load_avg_1m();
    if load > 0.5 {
        eprintln!(
            "benchmark: warning: 1-min load average is {load:.2} (> 0.5); timings will be noisy"
        );
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host fingerprint written into every result file.
pub fn fingerprint() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", nproc.into()),
        ("cpu_model", cpu_model.into()),
        ("rustc", command_line("rustc", &["-V"]).into()),
        ("commit", command_line("git", &["rev-parse", "HEAD"]).into()),
        ("load_avg_1m", load_avg_1m().into()),
    ])
}

/// Median cost of one `Instant::now()` pair, in nanoseconds: what a
/// sampled timing includes besides the work it brackets.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t).elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The one directory a run writes its artefacts into (captures,
/// timelines, manifests). It lives under `benchmark/` so a run touches
/// nothing outside its checkout, and is removed when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `<root>/benchmark/.scratch-<pid>-<n>`; `n` keeps several
    /// directories of one process (the tests) apart.
    pub fn create(root: &Path) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = root
            .join("benchmark")
            .join(format!(".scratch-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here; the directory
        // is git-ignored either way.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rla_variables_are_named() {
        let env = ["PATH", "RLA_SHARDS", "HOME"].map(String::from);
        assert_eq!(rla_env_var(env), Some("RLA_SHARDS".to_string()));
        assert_eq!(rla_env_var(["PATH", "XRLA_X"].map(String::from)), None);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        let before = cpu_seconds();
        let t = Instant::now();
        let mut x = 0u64;
        // Spin until the kernel has charged this process at least two
        // ticks, however little of the host the test gets.
        while cpu_seconds() < before + 0.02 && t.elapsed().as_secs() < 10 {
            for _ in 0..100_000 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        }
        assert!(cpu_seconds() >= before + 0.02, "CPU time never advanced");
        assert!(peak_rss_mb() > 0.5);
        assert!(timer_overhead_ns() < 10_000.0);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/host-test");
        let path = {
            let s = ScratchDir::create(&root).expect("create");
            assert!(s.path().is_dir());
            s.path().to_path_buf()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&root);
    }
}
