//! Process and machine readings: CPU clocks, peak memory, directory
//! sizes and the environment stamp printed with every record.

use fistful_bench::json::Json;
use std::path::Path;
use std::process::{Command, Stdio};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout
    // (`#[repr(C)]`, two 64-bit fields on 64-bit Linux), and both clock
    // ids are the fixed Linux constants, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed by the whole process so far (all threads,
/// exited ones included).
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the repository the benchmark was built in, or
/// `"unknown"` in a tree that is not a git checkout (git is then not run,
/// so it never searches the directories above the tree).
fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"])
}

/// The environment stamp: machine, toolchain, commit and run settings.
pub fn env_stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    Json::obj(vec![
        ("workload", workload.into()),
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("trace", trace.into()),
        ("nproc", nproc.into()),
        ("cpu_model", cpu_model.into()),
        ("kernel", kernel.into()),
        ("rustc", command_line("rustc", &["-V"]).into()),
        ("git_commit", git_commit().into()),
        ("scale", "default".into()),
        ("engine", crate::ENGINE.into()),
        (
            "cache_entries",
            fistful_serve::ServeConfig::default().cache_entries.into(),
        ),
    ])
}
