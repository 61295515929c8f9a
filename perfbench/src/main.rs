//! `perfbench`: the end-to-end and per-layer benchmark of the fistful
//! workspace.
//!
//! ```text
//! perfbench --workload <batch|query-hot|live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds the default-scale economy from `--seed`, runs
//! in-process through the workspace's public API, checks its outputs,
//! and prints one `metric <name> <value> <unit>` line per measurement,
//! then an environment stamp, then (last) one JSON result line. With
//! `--trace 0` the result carries the end-to-end metrics, measured with
//! tracing off; with `--trace 1` it carries the per-layer metrics of a
//! traced run. See `perfbench/README.md`.

mod batch;
mod layers;
mod live;
mod load;
mod query;
mod stages;
mod sys;
mod trace;

use fistful_bench::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// The serve engine `repro serve` starts by default.
pub const ENGINE: &str = "threaded";

/// Closed-loop callers: one process, at most `nproc` (2) threads.
pub const CALLERS: usize = 2;

/// Set-up rounds per untraced run; `setup_s` is their median.
pub const ROUNDS: usize = 3;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MB"),
];

/// One benchmark invocation.
pub struct Run {
    /// Workload seed: the economy's seed and every caller's key stream.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for bundles and store directories.
    pub work: PathBuf,
}

impl Run {
    /// Measured time per set-up round.
    pub fn per_round(&self, rounds: usize) -> Duration {
        Duration::from_secs_f64(self.seconds / rounds as f64)
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// Operations attempted (requests plus connects, or pipeline runs).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Result metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra measurements printed for the reader: (name, value, unit).
    pub notes: Vec<(String, f64, &'static str)>,
    /// The traced run's spans.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Records a note line.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <batch|query-hot|live> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace_on = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace_on = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let workload_fn: fn(&Run) -> Outcome = match workload.as_str() {
        "batch" => batch::run,
        "query-hot" => query::run,
        "live" => live::run,
        other => usage(&format!("unknown workload {other}")),
    };
    let seed = seed.unwrap_or(0xF157F01);
    let seconds = seconds.unwrap_or(20);
    let trace_on = trace_on.unwrap_or(false);

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let run = Run {
        seed,
        seconds: seconds as f64,
        trace: trace_on,
        work: work.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("perfbench: cannot create {}: {e}", run.work.display());
        std::process::exit(1);
    }
    let outcome = workload_fn(&run);
    let _ = std::fs::remove_dir_all(&work);

    if trace_on {
        let path = out_dir.join(format!("trace-{workload}-{seed}.jsonl"));
        match trace::write_jsonl(&outcome.spans, &path) {
            Ok(()) => eprintln!(
                "perfbench: wrote {} spans to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    for (name, value, unit) in &outcome.notes {
        println!("metric {name} {value} {unit}");
    }
    for e in &outcome.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "{}",
        Json::obj(vec![(
            "env",
            sys::env_stamp(&workload, seed, seconds, trace_on)
        )])
        .emit()
    );

    let wanted: Vec<(&str, &str)> = if trace_on {
        layers::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let metrics = Json::Obj(
        wanted
            .iter()
            .map(|&(name, unit)| {
                let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Json::obj(vec![("value", value.into()), ("unit", unit.into())]),
                )
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", outcome.errors.is_empty().into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", metrics),
    ]);
    println!("{}", result.emit());
}
