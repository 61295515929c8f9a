//! Per-layer metrics of the traced run: span aggregates, server-side
//! counters from the serve layer's metrics registry, and the stage-sum
//! residual and tracing overhead against the untraced pass.

use crate::median;
use crate::trace::{self, Span};
use fistful_serve::MetricsDump;
use std::collections::{BTreeMap, HashMap};

/// Every per-layer metric, reported by every workload with `--trace 1`
/// (0 where the workload leaves the layer idle).
pub const PER_LAYER: [(&str, &str); 56] = [
    ("sim.step_block_s", "s"),
    ("sim.block_ms_first_decile", "ms"),
    ("sim.block_ms_last_decile", "ms"),
    ("sim.txs", "count"),
    ("sim.addresses", "count"),
    ("core.tagdb_ms", "ms"),
    ("core.h1_ms", "ms"),
    ("core.naming_ms", "ms"),
    ("core.h2_ms", "ms"),
    ("core.snapshot_ms", "ms"),
    ("core.clusters_h1", "count"),
    ("core.clusters_refined", "count"),
    ("core.ingest_block_ms", "ms"),
    ("core.ingest_block_us_p50", "us"),
    ("core.flush_ms", "ms"),
    ("core.export_delta_ms", "ms"),
    ("core.labels_ms", "ms"),
    ("core.reassigned_addrs_per_epoch", "count"),
    ("flow.graph_build_ms", "ms"),
    ("flow.balances_ms", "ms"),
    ("flow.tab2_ms", "ms"),
    ("flow.tab3_ms", "ms"),
    ("flow.graph_extend_ms", "ms"),
    ("flow.balances_at_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.bundle_bytes", "bytes"),
    ("store.open_ms", "ms"),
    ("store.epoch_write_ms", "ms"),
    ("store.epoch_bytes", "bytes"),
    ("store.dir_bytes", "bytes"),
    ("serve.artifacts_ms", "ms"),
    ("serve.start_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.handle_us.addr", "us"),
    ("serve.handle_us.cluster", "us"),
    ("serve.handle_us.balance", "us"),
    ("serve.handle_us.taint", "us"),
    ("serve.dispatch_wait_us", "us"),
    ("serve.server_cpu_s", "s"),
    ("serve.publishes", "count"),
    ("serve.swap_ms", "ms"),
    ("serve.busy_sheds", "count"),
    ("serve.backpressure_stalls", "count"),
    ("self_s.sim", "s"),
    ("self_s.core", "s"),
    ("self_s.flow", "s"),
    ("self_s.store", "s"),
    ("self_s.serve", "s"),
    ("self_s.bench", "s"),
    ("trace.untraced_total_s", "s"),
    ("trace.stage_sum_s", "s"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.setup_residual_frac", "ratio"),
];

/// Span name → per-layer metric it feeds (a per-pass total in ms).
const STAGE_MS: [(&str, &str); 20] = [
    ("core.tagdb", "core.tagdb_ms"),
    ("core.h1", "core.h1_ms"),
    ("core.naming", "core.naming_ms"),
    ("core.h2", "core.h2_ms"),
    ("core.snapshot", "core.snapshot_ms"),
    ("core.ingest_block", "core.ingest_block_ms"),
    ("core.flush", "core.flush_ms"),
    ("core.export_delta", "core.export_delta_ms"),
    ("core.labels", "core.labels_ms"),
    ("flow.graph_build", "flow.graph_build_ms"),
    ("flow.balances", "flow.balances_ms"),
    ("flow.tab2", "flow.tab2_ms"),
    ("flow.tab3", "flow.tab3_ms"),
    ("flow.graph_extend", "flow.graph_extend_ms"),
    ("flow.balances_at", "flow.balances_at_ms"),
    ("store.save", "store.save_ms"),
    ("store.open", "store.open_ms"),
    ("store.epoch_write", "store.epoch_write_ms"),
    ("serve.artifacts", "serve.artifacts_ms"),
    ("serve.start", "serve.start_ms"),
];

/// One traced pass: the spans under one root span.
pub struct Pass<'a> {
    /// The root span.
    pub root: &'a Span,
    /// Every span of the pass, the root included.
    pub spans: Vec<&'a Span>,
}

impl Pass<'_> {
    /// Sum of the durations of the root's direct children, in seconds.
    pub fn stage_sum_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == self.root.id)
            .map(|s| s.dur_ns())
            .sum::<u64>() as f64
            * 1e-9
    }

    /// The root's duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.root.dur_ns() as f64 * 1e-9
    }
}

/// Groups spans by their root span.
pub fn passes(spans: &[Span]) -> Vec<Pass<'_>> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut groups: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        let mut root = s;
        while let Some(p) = by_id.get(&root.parent) {
            root = p;
        }
        groups.entry(root.id).or_default().push(s);
    }
    groups
        .into_iter()
        .map(|(id, spans)| Pass {
            root: by_id[&id],
            spans,
        })
        .collect()
}

/// Fills the span-derived per-layer metrics: stage totals (median over
/// the passes that ran the stage), the economy's per-block profile, the
/// per-block ingest median, and per-layer self time of the `main` passes.
pub fn from_spans(spans: &[Span], main: &str, m: &mut BTreeMap<&'static str, f64>) {
    let all = passes(spans);
    for (span_name, metric) in STAGE_MS {
        let per_pass = |main_only: bool| -> Vec<f64> {
            all.iter()
                .filter(|p| !main_only || p.root.name == main)
                .map(|p| {
                    p.spans
                        .iter()
                        .filter(|s| s.name == span_name)
                        .map(|s| s.dur_ns())
                        .sum::<u64>()
                })
                .filter(|&ns| ns > 0)
                .map(|ns| ns as f64 * 1e-6)
                .collect()
        };
        // A stage of the workload's main pass is reported per main pass;
        // any other stage per pass that ran it (set-up, reopen).
        let in_main = per_pass(true);
        let chosen = if in_main.is_empty() {
            per_pass(false)
        } else {
            in_main
        };
        m.insert(metric, median(&chosen));
    }

    // The first traced economy: total and first/last-decile block times.
    let mut blocks: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "sim.step_block")
        .collect();
    if let Some(first_economy) = spans
        .iter()
        .filter(|s| s.name == "sim.economy")
        .min_by_key(|s| s.start_ns)
    {
        blocks.retain(|b| b.parent == first_economy.id);
        blocks.sort_by_key(|b| b.start_ns);
        let decile = (blocks.len() / 10).max(1).min(blocks.len());
        let mean_ms = |bs: &[&Span]| {
            if bs.is_empty() {
                0.0
            } else {
                bs.iter().map(|b| b.dur_ns()).sum::<u64>() as f64 * 1e-6 / bs.len() as f64
            }
        };
        m.insert(
            "sim.step_block_s",
            blocks.iter().map(|b| b.dur_ns()).sum::<u64>() as f64 * 1e-9,
        );
        m.insert("sim.block_ms_first_decile", mean_ms(&blocks[..decile]));
        m.insert(
            "sim.block_ms_last_decile",
            mean_ms(&blocks[blocks.len() - decile..]),
        );
    }

    let mut ingest: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "core.ingest_block")
        .map(|s| s.dur_ns())
        .collect();
    ingest.sort_unstable();
    m.insert(
        "core.ingest_block_us_p50",
        crate::load::quantile(&ingest, 0.5) as f64 * 1e-3,
    );

    let totals: Vec<BTreeMap<&'static str, (u64, u64, u64)>> = all
        .iter()
        .filter(|p| p.root.name == main)
        .map(|p| trace::totals(&p.spans))
        .collect();
    for (layer, metric) in [
        ("sim", "self_s.sim"),
        ("core", "self_s.core"),
        ("flow", "self_s.flow"),
        ("store", "self_s.store"),
        ("serve", "self_s.serve"),
        ("bench", "self_s.bench"),
    ] {
        let per_pass: Vec<f64> = totals
            .iter()
            .map(|t| {
                t.iter()
                    .filter(|(name, _)| name.split('.').next() == Some(layer))
                    .map(|(_, &(_, _, self_ns))| self_ns)
                    .sum::<u64>() as f64
                    * 1e-9
            })
            .collect();
        m.insert(metric, median(&per_pass));
    }
}

/// Median stage sum and median root duration of the passes rooted at
/// `root`, in seconds.
pub fn pass_totals(spans: &[Span], root: &str) -> (f64, f64) {
    let ps: Vec<Pass> = passes(spans)
        .into_iter()
        .filter(|p| p.root.name == root)
        .collect();
    let sums: Vec<f64> = ps.iter().map(Pass::stage_sum_s).collect();
    let totals: Vec<f64> = ps.iter().map(Pass::total_s).collect();
    (median(&sums), median(&totals))
}

/// Records the residual of the traced stage sum against the untraced
/// total, and the tracing overhead of the traced total over it.
pub fn residuals(m: &mut BTreeMap<&'static str, f64>, untraced: f64, stage_sum: f64, traced: f64) {
    m.insert("trace.untraced_total_s", untraced);
    m.insert("trace.stage_sum_s", stage_sum);
    if untraced > 0.0 {
        m.insert("trace.residual_frac", (untraced - stage_sum) / untraced);
        m.insert("trace.overhead_frac", (traced - untraced) / untraced);
    }
}

/// Mean of a server histogram in microseconds.
fn hist_mean_us(dump: &MetricsDump, name: &str) -> f64 {
    dump.histograms
        .iter()
        .find(|h| h.name == name)
        .filter(|h| h.count > 0)
        .map_or(0.0, |h| h.sum_micros as f64 / h.count as f64)
}

fn counter_sum(dump: &MetricsDump, family: &str) -> u64 {
    dump.counters
        .iter()
        .filter(|(n, _)| n.starts_with(family))
        .map(|&(_, v)| v)
        .sum()
}

/// The serve layer's own counters and histograms, plus the server CPU
/// the benchmark measured around the load.
pub fn from_dump(dump: &MetricsDump, server_cpu_s: f64, m: &mut BTreeMap<&'static str, f64>) {
    let hits = counter_sum(dump, "fistful_cache_hits_total");
    let misses = counter_sum(dump, "fistful_cache_misses_total");
    let requests: u64 = ["addr", "cluster", "balance", "taint"]
        .iter()
        .map(|k| {
            dump.counter(&format!("fistful_requests_total{{type=\"{k}\"}}"))
                .unwrap_or(0)
        })
        .sum();
    m.insert("serve.requests", requests as f64);
    m.insert(
        "serve.cache_hit_ratio",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
    );
    m.insert(
        "serve.cache_evictions",
        counter_sum(dump, "fistful_cache_evictions_total") as f64,
    );
    for (kind, metric) in [
        ("addr", "serve.handle_us.addr"),
        ("cluster", "serve.handle_us.cluster"),
        ("balance", "serve.handle_us.balance"),
        ("taint", "serve.handle_us.taint"),
    ] {
        m.insert(
            metric,
            hist_mean_us(
                dump,
                &format!("fistful_request_latency_seconds{{type=\"{kind}\"}}"),
            ),
        );
    }
    m.insert(
        "serve.dispatch_wait_us",
        hist_mean_us(dump, "fistful_dispatch_wait_seconds"),
    );
    m.insert("serve.server_cpu_s", server_cpu_s);
    m.insert(
        "serve.publishes",
        dump.counter("fistful_swaps_total").unwrap_or(0) as f64,
    );
    m.insert(
        "serve.swap_ms",
        hist_mean_us(dump, "fistful_swap_latency_seconds") * 1e-3,
    );
    m.insert(
        "serve.busy_sheds",
        dump.counter("fistful_busy_sheds_total").unwrap_or(0) as f64,
    );
    m.insert(
        "serve.backpressure_stalls",
        dump.counter("fistful_backpressure_stalls_total")
            .unwrap_or(0) as f64,
    );
}
