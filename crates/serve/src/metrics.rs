//! First-party metrics: a std-only, lock-free registry for the serve
//! stack, plus the Prometheus text-format renderer.
//!
//! # Design
//!
//! Every primitive is a thin wrapper over [`AtomicU64`] updated with
//! [`Ordering::Relaxed`], so the request hot path pays one relaxed
//! atomic add per event — no locks, no allocation, no dynamic
//! registration. The full metric set is a plain struct
//! ([`ServeMetrics`]) built once per server core; "registration" is the
//! struct definition itself, which keeps lookup at field-offset cost
//! and makes the inventory auditable at a glance.
//!
//! Latencies go into a [`LatencyHistogram`]: a fixed array of log₂
//! buckets spanning 1 µs to ~16.8 s (bucket `i` counts observations at
//! most `2^i` µs; one final bucket catches everything beyond), plus a
//! running sum and count for averages. Buckets are stored
//! *non-cumulative* (each `fetch_add` touches exactly one slot) and
//! rendered cumulative at scrape time, the way Prometheus expects.
//!
//! # Exposure
//!
//! Scrapes never walk the live atomics twice: a server snapshots
//! everything into a [`MetricsDump`] — a plain, encodable value — and
//! both exposition paths consume *that*. The binary `MetricsDump`
//! request returns it over the wire for the typed client; the HTTP
//! exporter (see [`crate::httpexpo`]) feeds it through
//! [`render_prometheus`]. Both views of one snapshot function is what
//! makes the differential test ("binary scrape equals HTTP scrape")
//! hold by construction.
//!
//! ```
//! use fistful_serve::metrics::{LatencyHistogram, MetricsDump, render_prometheus};
//! use std::time::Duration;
//!
//! let h = LatencyHistogram::new();
//! h.observe(Duration::from_micros(120));
//! let dump = MetricsDump {
//!     counters: vec![("demo_total".to_string(), 1)],
//!     gauges: Vec::new(),
//!     histograms: vec![h.dump("demo_latency_seconds")],
//! };
//! let text = render_prometheus(&dump);
//! assert!(text.contains("# TYPE demo_total counter"));
//! assert!(text.contains("demo_latency_seconds_bucket{le=\"+Inf\"} 1"));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of finite log₂ buckets: bounds `2^0 .. 2^24` µs, i.e. 1 µs up
/// to 16.777216 s.
pub const FINITE_BUCKETS: usize = 25;

/// Total buckets including the overflow bucket (`+Inf`).
pub const HISTOGRAM_BUCKETS: usize = FINITE_BUCKETS + 1;

/// Number of request-type slots in the per-type counter and histogram
/// arrays: the six typed requests, the metrics dump, and a catch-all
/// for unknown type bytes.
pub const REQUEST_KINDS: usize = 8;

/// Prometheus `type` label values for each request-kind slot, indexed
/// by [`kind_index`].
pub const KIND_LABELS: [&str; REQUEST_KINDS] =
    ["ping", "stats", "addr", "cluster", "taint", "balance", "metrics", "other"];

/// Maps a wire-protocol request type byte to its slot in the per-type
/// arrays. Type bytes `0..=6` map directly; anything else (including
/// garbage that will fail to decode) lands in the trailing `other`
/// slot.
pub fn kind_index(type_byte: u8) -> usize {
    if (type_byte as usize) < REQUEST_KINDS - 1 {
        type_byte as usize
    } else {
        REQUEST_KINDS - 1
    }
}

/// A monotonically increasing event count. One relaxed atomic add per
/// increment; reads are relaxed loads.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (in-flight requests, open connections, queue
/// depth). Same storage as [`Counter`] but may go down as well as up.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one (saturating at zero via wrapping discipline: every
    /// `dec` pairs with a prior `inc`).
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the level outright.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂ latency histogram.
///
/// Bucket `i < FINITE_BUCKETS` counts observations of at most `2^i` µs;
/// the final bucket counts everything larger. `observe` is three
/// relaxed atomic adds (bucket, sum, count) and never allocates. The sum
/// is kept in nanoseconds, so observations shorter than a microsecond —
/// a Ping's time in the request core — still add to it.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_nanos: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The upper bound of finite bucket `i`, in microseconds.
    pub fn bound_micros(i: usize) -> u64 {
        1u64 << i
    }

    /// Records one observation.
    pub fn observe(&self, d: Duration) {
        let micros = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = if micros <= 1 {
            0
        } else {
            // Smallest i with 2^i >= micros, clamped into the overflow
            // bucket past the finite range.
            ((64 - (micros - 1).leading_zeros()) as usize).min(FINITE_BUCKETS)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed latencies, in nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum_nanos.load(Ordering::Relaxed)
    }

    /// Sum of all observed latencies, in microseconds, rounded to the
    /// nearest from the nanosecond total.
    pub fn sum_micros(&self) -> u64 {
        nanos_to_micros(self.sum_nanos())
    }

    /// Snapshots this histogram into a named, plain-value
    /// [`HistogramDump`] (non-cumulative buckets; the renderer
    /// accumulates).
    pub fn dump(&self, name: &str) -> HistogramDump {
        let sum_nanos = self.sum_nanos();
        HistogramDump {
            name: name.to_string(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum_micros: nanos_to_micros(sum_nanos),
            sum_nanos,
            count: self.count(),
        }
    }
}

/// The full serve-stack metric registry: one instance per server core,
/// shared by every worker thread, the event loop, and the live
/// pipeline. Fields are the registration — adding a metric means adding
/// a field here and a line in the core's dump.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests processed, by request type, counted at dispatch entry
    /// (cache hits included) so scraped totals match what a load
    /// generator sent.
    pub requests: [Counter; REQUEST_KINDS],
    /// End-to-end request latency (decode, handle, encode, frame) by
    /// request type.
    pub request_latency: [LatencyHistogram; REQUEST_KINDS],
    /// Requests currently inside the request core.
    pub inflight: Gauge,
    /// Open client connections (both engines).
    pub connections: Gauge,
    /// Event-loop dispatch-queue depth, sampled each loop iteration.
    pub queue_depth: Gauge,
    /// Event-loop iterations that ran with the dispatch queue full
    /// (readable polling suppressed — admission control engaged).
    pub backpressure_stalls: Counter,
    /// Typed `Busy` rejections: connection-cap sheds plus per-connection
    /// pipelining-budget rejections.
    pub busy_sheds: Counter,
    /// Timer-wheel expirations that killed a stalled connection
    /// (mid-frame read stall or write stall).
    pub stall_expirations: Counter,
    /// Timer-wheel expirations that closed an idle keep-alive
    /// connection.
    pub idle_expirations: Counter,
    /// Time a decoded request waited in the event-loop dispatch queue
    /// before a worker picked it up.
    pub dispatch_wait: LatencyHistogram,
    /// Epoch of the most recently published artifact generation.
    pub live_epoch: Gauge,
    /// Wall time of one live-pipeline epoch publish: delta export,
    /// graph extension, artifact rebuild, and the hot swap itself.
    pub swap_latency: LatencyHistogram,
    /// Blocks fed through the live ingest pipeline.
    pub ingest_blocks: Counter,
}

impl ServeMetrics {
    /// A zeroed registry.
    pub fn new() -> ServeMetrics {
        ServeMetrics::default()
    }
}

/// One snapshotted histogram inside a [`MetricsDump`]. `name` may carry
/// Prometheus labels (e.g. `foo_seconds{type="addr"}`); buckets are
/// non-cumulative and ordered by [`LatencyHistogram::bound_micros`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramDump {
    /// Series name, optionally with a `{label="value"}` suffix.
    pub name: String,
    /// Per-bucket observation counts (not cumulative), the last bucket
    /// being the overflow (`+Inf`) bucket.
    pub buckets: Vec<u64>,
    /// Sum of observed values in microseconds, rounded from
    /// `sum_nanos`. This is the field the binary `MetricsDump` carries.
    pub sum_micros: u64,
    /// Sum of observed values in nanoseconds, which the Prometheus `_sum`
    /// renders. Not on the wire: a decoded dump holds `sum_micros * 1000`.
    pub sum_nanos: u64,
    /// Total observations.
    pub count: u64,
}

/// A point-in-time snapshot of every metric a server exposes. This is
/// the single source both exposition paths render from: the binary
/// `MetricsDump` response encodes it verbatim, and the HTTP exporter
/// formats it with [`render_prometheus`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsDump {
    /// Monotonic counters as `(series name, value)` pairs.
    pub counters: Vec<(String, u64)>,
    /// Instantaneous gauges as `(series name, value)` pairs.
    pub gauges: Vec<(String, u64)>,
    /// Latency histograms.
    pub histograms: Vec<HistogramDump>,
}

impl MetricsDump {
    /// Looks up a counter by its full series name (including labels).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a gauge by its full series name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Splits `foo_total{type="addr"}` into `("foo_total", `{type="addr"}`)`;
/// the label part is empty when the name carries none.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(at) => (&name[..at], &name[at..]),
        None => (name, ""),
    }
}

/// Help text for a metric family. Every family the serve stack emits
/// has an entry; unknown families get a generic line so renders of
/// hand-built dumps stay valid.
fn family_help(family: &str) -> &'static str {
    match family {
        "fistful_requests_total" => "Requests processed, by request type (cache hits included).",
        "fistful_request_latency_seconds" => {
            "End-to-end request latency inside the request core, by request type."
        }
        "fistful_inflight_requests" => "Requests currently being processed.",
        "fistful_connections" => "Open client connections.",
        "fistful_queue_depth" => "Event-loop dispatch-queue depth at the last loop iteration.",
        "fistful_backpressure_stalls_total" => {
            "Event-loop iterations that suppressed readable polling because the dispatch queue was full."
        }
        "fistful_busy_sheds_total" => {
            "Typed Busy rejections (connection-cap sheds and pipelining-budget rejections)."
        }
        "fistful_timer_stall_expirations_total" => {
            "Connections closed by the timer wheel for a mid-frame read stall or write stall."
        }
        "fistful_timer_idle_expirations_total" => {
            "Idle keep-alive connections closed by the timer wheel."
        }
        "fistful_dispatch_wait_seconds" => {
            "Time a decoded request waited in the event-loop dispatch queue."
        }
        "fistful_live_epoch" => "Epoch of the most recently published artifact generation.",
        "fistful_swaps_total" => "Artifact hot swaps published to this server.",
        "fistful_swap_latency_seconds" => "Wall time of one live-pipeline epoch publish.",
        "fistful_ingest_blocks_total" => "Blocks fed through the live ingest pipeline.",
        "fistful_cache_hits_total" => "Response-cache hits, by shard.",
        "fistful_cache_misses_total" => "Response-cache misses, by shard.",
        "fistful_cache_evictions_total" => {
            "Response-cache entries removed, by shard (capacity evictions and stale reaps)."
        }
        "fistful_uptime_seconds" => "Seconds since the server core was created.",
        _ => "(no help recorded for this series)",
    }
}

fn push_header(out: &mut String, emitted: &mut Vec<String>, family: &str, kind: &str) {
    if emitted.iter().any(|f| f == family) {
        return;
    }
    emitted.push(family.to_string());
    out.push_str("# HELP ");
    out.push_str(family);
    out.push(' ');
    out.push_str(family_help(family));
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(family);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Nanoseconds to microseconds, rounded to the nearest.
fn nanos_to_micros(nanos: u64) -> u64 {
    nanos / 1000 + u64::from(nanos % 1000 >= 500)
}

/// Formats microseconds as decimal seconds without float rounding
/// noise: `1` µs renders as `0.000001`.
fn micros_as_seconds(micros: u64) -> String {
    format!("{}.{:06}", micros / 1_000_000, micros % 1_000_000)
}

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4): one `# HELP`/`# TYPE` pair per family, histogram
/// buckets cumulative with a closing `+Inf` bucket, `le` bounds and
/// sums in seconds.
pub fn render_prometheus(dump: &MetricsDump) -> String {
    let mut out = String::new();
    let mut emitted: Vec<String> = Vec::new();
    for (name, value) in &dump.counters {
        let (family, labels) = split_labels(name);
        push_header(&mut out, &mut emitted, family, "counter");
        out.push_str(family);
        out.push_str(labels);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    for (name, value) in &dump.gauges {
        let (family, labels) = split_labels(name);
        push_header(&mut out, &mut emitted, family, "gauge");
        out.push_str(family);
        out.push_str(labels);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    for h in &dump.histograms {
        let (family, labels) = split_labels(&h.name);
        push_header(&mut out, &mut emitted, family, "histogram");
        // `le` joins any existing labels inside one brace set.
        let le_prefix = if labels.is_empty() {
            "{".to_string()
        } else {
            format!("{},", &labels[..labels.len() - 1])
        };
        let mut cumulative = 0u64;
        for (i, bucket) in h.buckets.iter().enumerate() {
            cumulative += bucket;
            let le = if i < h.buckets.len().saturating_sub(1) {
                micros_as_seconds(LatencyHistogram::bound_micros(i))
            } else {
                "+Inf".to_string()
            };
            out.push_str(&format!("{family}_bucket{le_prefix}le=\"{le}\"}} {cumulative}\n"));
        }
        let (secs, nanos) = (h.sum_nanos / 1_000_000_000, h.sum_nanos % 1_000_000_000);
        out.push_str(&format!("{family}_sum{labels} {secs}.{nanos:09}\n"));
        out.push_str(&format!("{family}_count{labels} {}\n", h.count));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn histogram_buckets_are_log2_with_overflow() {
        let h = LatencyHistogram::new();
        h.observe(Duration::from_micros(0));
        h.observe(Duration::from_micros(1));
        h.observe(Duration::from_micros(2));
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_micros(1 << 24));
        h.observe(Duration::from_secs(120)); // way past the finite range
        let d = h.dump("t");
        assert_eq!(d.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(d.buckets[0], 2, "0 and 1 us share the first bucket");
        assert_eq!(d.buckets[1], 1, "2 us lands at bound 2^1");
        assert_eq!(d.buckets[2], 1, "3 us lands at bound 2^2");
        assert_eq!(d.buckets[FINITE_BUCKETS - 1], 1, "2^24 us is the last finite bound");
        assert_eq!(d.buckets[FINITE_BUCKETS], 1, "120 s overflows");
        assert_eq!(d.count, 6);
        assert_eq!(d.sum_micros, 1 + 2 + 3 + (1 << 24) + 120_000_000);
    }

    #[test]
    fn sub_microsecond_observations_add_to_the_sum() {
        // Four 600 ns observations: 2.4 us in total, which a per-
        // observation microsecond sum would have truncated to 0.
        let h = LatencyHistogram::new();
        for _ in 0..4 {
            h.observe(Duration::from_nanos(600));
        }
        let d = h.dump("t");
        assert_eq!(d.count, 4);
        assert_eq!(d.buckets[0], 4);
        assert_eq!(d.sum_nanos, 2400);
        assert_eq!(d.sum_micros, 2, "rounded from the nanosecond total");
        // Rounding is to the nearest microsecond.
        h.observe(Duration::from_nanos(100));
        assert_eq!(h.sum_micros(), 3, "2.5 us rounds up");
        let dump = MetricsDump { histograms: vec![h.dump("t_seconds")], ..Default::default() };
        assert!(render_prometheus(&dump).contains("t_seconds_sum 0.000002500\n"));
    }

    #[test]
    fn kind_index_maps_type_bytes() {
        assert_eq!(kind_index(0), 0);
        assert_eq!(kind_index(6), 6);
        assert_eq!(kind_index(7), 7);
        assert_eq!(kind_index(0xEE), 7);
        for b in 0..=u8::MAX {
            assert!(kind_index(b) < REQUEST_KINDS);
        }
    }

    fn sample_dump() -> MetricsDump {
        let h = LatencyHistogram::new();
        h.observe(Duration::from_micros(5));
        h.observe(Duration::from_micros(900));
        let empty = LatencyHistogram::new();
        MetricsDump {
            counters: vec![
                ("fistful_requests_total{type=\"ping\"}".to_string(), 7),
                ("fistful_requests_total{type=\"addr\"}".to_string(), 3),
                ("fistful_busy_sheds_total".to_string(), 0),
            ],
            gauges: vec![("fistful_connections".to_string(), 2)],
            histograms: vec![
                h.dump("fistful_request_latency_seconds{type=\"ping\"}"),
                empty.dump("fistful_dispatch_wait_seconds"),
            ],
        }
    }

    /// The golden exposition-validity test: every series is preceded by
    /// a `# TYPE` for its family, histogram buckets are cumulative and
    /// end with `+Inf`, and no series line repeats.
    #[test]
    fn rendered_exposition_is_valid_prometheus_text() {
        let text = render_prometheus(&sample_dump());
        let mut typed: HashSet<&str> = HashSet::new();
        let mut seen_series: HashSet<&str> = HashSet::new();
        let mut last_bucket: Option<(String, u64)> = None;
        for line in text.lines() {
            assert!(!line.is_empty());
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let family = parts.next().unwrap();
                let kind = parts.next().unwrap();
                assert!(matches!(kind, "counter" | "gauge" | "histogram"), "kind: {kind}");
                assert!(typed.insert(family), "duplicate # TYPE for {family}");
                continue;
            }
            if line.starts_with("# HELP ") {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("series line");
            assert!(seen_series.insert(series), "duplicate series {series}");
            let (name, _) = split_labels(series);
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|f| typed.contains(f))
                .unwrap_or(name);
            assert!(typed.contains(family), "series {series} has no # TYPE");
            if name.ends_with("_bucket") {
                let v: u64 = value.parse().expect("bucket count");
                let key = series.split("le=").next().unwrap().to_string();
                if let Some((prev_key, prev)) = &last_bucket {
                    if *prev_key == key {
                        assert!(v >= *prev, "buckets must be cumulative: {series}");
                    }
                }
                last_bucket = Some((key, v));
                if series.contains("le=\"+Inf\"") {
                    last_bucket = None;
                }
            }
        }
        // Every histogram's +Inf bucket equals its _count.
        assert!(text.contains(
            "fistful_request_latency_seconds_bucket{type=\"ping\",le=\"+Inf\"} 2"
        ));
        assert!(text.contains("fistful_request_latency_seconds_count{type=\"ping\"} 2"));
        assert!(text.contains("fistful_dispatch_wait_seconds_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("fistful_dispatch_wait_seconds_count 0"));
        // `le` bounds and sums are rendered in seconds.
        assert!(text.contains("le=\"0.000001\""));
        assert!(text.contains("fistful_request_latency_seconds_sum{type=\"ping\"} 0.000905"));
    }

    #[test]
    fn dump_lookup_helpers_find_series() {
        let dump = sample_dump();
        assert_eq!(dump.counter("fistful_requests_total{type=\"ping\"}"), Some(7));
        assert_eq!(dump.counter("nope"), None);
        assert_eq!(dump.gauge("fistful_connections"), Some(2));
    }
}
