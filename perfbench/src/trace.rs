//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each layer's public functions:
//! name, start, end and the enclosing span. They are kept in memory —
//! in a per-thread buffer, so threads recording at once never contend
//! on a lock — and written out once the run ends. With tracing off,
//! [`span`] only checks one flag, so the untraced passes time the
//! program, not the recorder.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u32,
    /// The enclosing span's id, 0 for a root.
    pub parent: u32,
    /// `<layer>.<call>`, e.g. `core.h2`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// A thread's finished spans; handed to [`SPANS`] when the thread exits.
struct Local(Vec<Span>);

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut spans) = SPANS.lock() {
            spans.append(&mut self.0);
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static LOCAL: RefCell<Local> = const { RefCell::new(Local(Vec::new())) };
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; records itself when dropped.
pub struct Guard {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

/// Opens a span named `name` under the calling thread's innermost open
/// span. `parent` overrides that for work handed to another thread.
pub fn span_under(name: &'static str, parent: Option<u32>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let top = parent.unwrap_or_else(|| s.last().copied().unwrap_or(0));
        s.push(id);
        top
    });
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

/// Opens a span under the calling thread's innermost open span.
pub fn span(name: &'static str) -> Guard {
    span_under(name, None)
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

impl Guard {
    /// This span's id (0 when tracing is off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&i| i == self.id) {
                s.truncate(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Takes every recorded span out of the recorder: the calling thread's
/// and those of every thread that has exited.
pub fn drain() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"));
    LOCAL.with(|l| spans.append(&mut l.borrow_mut().0));
    spans
}

/// Per-name totals over a span set: (count, total ns, self ns). A span's
/// self time is its duration minus the time its direct children cover.
pub fn totals(spans: &[&Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes spans as JSON lines (`id`, `parent`, `name`, `start_ns`,
/// `end_ns`).
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
