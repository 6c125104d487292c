//! Statistics, memory and host helpers shared by every workload.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The CPU count the committed baseline (`perfbench/README.md`) was recorded
/// with. Runs on any other count are reported as not comparable to it.
pub const BASELINE_HOST_CPUS: usize = 2;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `xs`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds elapsed since `start`, at full clock resolution.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Time `reps` back-to-back calls of `f` and return the time of one call, in
/// seconds. Timing many calls at once keeps a microsecond-scale call above
/// the clock's resolution.
pub fn batch_s<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    secs_since(start) / reps as f64
}

/// The time of one [`probe_work`] call on the baseline host in its fast
/// phase, seconds: the speed every reported time is scaled to.
pub const PROBE_REF_S: f64 = 10e-6;

/// [`probe_work`] calls in one timed probe batch (about 1 ms).
pub const PROBE_REPS: usize = 100;

/// A fixed piece of work that times the host's current speed: hash-map
/// lookups, a floating-point series, and number formatting and parsing on
/// small allocations, the kinds of work the program's hot paths do. It is
/// this package's code, so no change to the program moves it, and its work
/// is the same on every call (the map's hasher has fixed keys).
pub fn probe_work() -> f64 {
    let mut map: HashMap<u64, f64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(128, BuildHasherDefault::default());
    for key in 0..128u64 {
        map.insert(key.wrapping_mul(0x9E37_79B9_7F4A_7C15), key as f64);
    }
    let (mut x, mut acc) = (0x2545_F491_4F6C_DD1Du64, 0.0f64);
    for _ in 0..256 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = (x % 160).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        acc += map.get(&key).copied().unwrap_or(-1.0);
    }
    let mut term = 1.0f64;
    for k in 1..=256 {
        term *= 0.99;
        acc += (term * k as f64).ln_1p() / k as f64;
    }
    let mut text = String::new();
    for k in 1..=16 {
        text.clear();
        let _ = write!(text, "{}", acc / k as f64);
        acc += text.parse::<f64>().unwrap_or(0.0) * 1e-9;
    }
    acc
}

/// One probe batch: the time of one [`probe_work`] call, seconds.
pub fn probe_s() -> f64 {
    batch_s(PROBE_REPS, probe_work)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Reset the kernel's peak-RSS mark to the current resident size, so the
/// next [`peak_rss_mb`] reading covers only what follows. Best effort: on a
/// kernel without `clear_refs` the reading covers the whole process.
///
/// Freed heap goes back to the kernel first. Otherwise the mark would start
/// from whatever an earlier, larger pass left cached in the allocator, and
/// one large input would raise the reading of every pass after it.
pub fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only returns free pages of the C allocator,
    // which the Rust system allocator uses here, to the kernel.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    unsafe {
        malloc_trim(0);
    }
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The commit checked out at `root`, read from `.git` without running git;
/// `"unknown"` in a checkout that is not a git repository.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A scratch directory under `perfbench/target/perfbench-work/`, private to
/// this process and label, and removed when dropped. It sits on the same
/// disk as the repository, so store writes cost what they cost there.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Create (or empty) this process's scratch directory `label`.
    pub fn new(label: &str) -> Result<WorkDir, String> {
        let name = format!("{}-{label}", std::process::id());
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/perfbench-work").join(name);
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }

    /// A fresh (absent) subdirectory path `name`; any earlier content is
    /// removed.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.path.join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Drop the shared parents too once nothing else is in them.
        for parent in self.path.ancestors().skip(1).take(2) {
            let _ = fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
