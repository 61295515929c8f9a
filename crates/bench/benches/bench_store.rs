//! Experiment `store`: the on-disk columnar artifact store.
//!
//! Three claims under test:
//!
//! 1. **Open beats rebuild.** Reopening the full serving bundle from a
//!    store directory (bulk `read_exact` of page-aligned columns + semantic
//!    validation) must be far cheaper than rebuilding it from the chain —
//!    clustering, naming, aggregation, balance series, graph build — which
//!    is what `repro serve` paid on every restart before the store existed.
//! 2. **Container encode/decode is bulk-rate.** Writing a `TxGraph` into
//!    its segment-per-CSR-array container and reading it back should move
//!    at memcpy-like rates, not per-element-loop rates.
//! 3. **Delta append is O(changes).** Diffing two adjacent snapshots and
//!    applying the delta costs proportional to what changed, not to the
//!    snapshot. Besides a stale-aggregates base, the group times one real
//!    live epoch: default scale, 4 shards, 16-block epochs, as
//!    `repro serve --live` runs them.
//!
//! Measured at the default and large (paper-style) simulation scales.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fistful_bench::{serve_artifacts, Workbench};
use fistful_core::snapshot::{ClusterSnapshot, SnapshotDelta};
use fistful_core::{IngestConfig, ShardedIngest};
use fistful_flow::graph::TxGraph;
use fistful_serve::ServeArtifacts;
use fistful_sim::SimConfig;
use fistful_store::{Store, StoreWriter};
use std::path::PathBuf;
use std::sync::OnceLock;

fn default_scale() -> &'static Workbench {
    static WB: OnceLock<Workbench> = OnceLock::new();
    WB.get_or_init(|| Workbench::build(SimConfig::default()))
}

fn large_scale() -> &'static Workbench {
    static WB: OnceLock<Workbench> = OnceLock::new();
    WB.get_or_init(|| Workbench::build(SimConfig::paper_scale()))
}

fn temp_store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fstc-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Claim 1: the restart path. `ServeArtifacts::open_dir` (disk → validated
/// bundle) versus the full in-RAM rebuild it replaces, per scale.
fn bench_open_vs_rebuild(c: &mut Criterion) {
    for (scale, wb) in [("default", default_scale()), ("large", large_scale())] {
        let artifacts = serve_artifacts(wb);
        let dir = temp_store_dir(&format!("open-{scale}"));
        let written = artifacts.save_dir(&dir).expect("save serving bundle");

        let mut g = c.benchmark_group(format!("store/{scale}"));
        g.sample_size(10);
        g.throughput(Throughput::Bytes(written));
        g.bench_function("open_dir", |b| {
            b.iter(|| std::hint::black_box(ServeArtifacts::open_dir(&dir).unwrap()))
        });
        g.bench_function("rebuild_from_chain", |b| {
            b.iter(|| std::hint::black_box(serve_artifacts(wb)))
        });
        g.finish();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Claim 2: raw container throughput over the largest artifact — the
/// transaction graph's CSR arrays, one segment per array.
fn bench_graph_container(c: &mut Criterion) {
    let wb = default_scale();
    let graph = TxGraph::build(wb.eco.chain.resolved());
    let mut w = StoreWriter::new();
    graph.write_store(&mut w);
    let bytes = w.to_bytes();

    let mut g = c.benchmark_group("store/graph_container");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode", |b| {
        b.iter(|| {
            let mut w = StoreWriter::new();
            graph.write_store(&mut w);
            std::hint::black_box(w.to_bytes())
        })
    });
    g.bench_function("decode", |b| {
        b.iter(|| {
            let mut store = Store::open_bytes(bytes.clone()).unwrap();
            std::hint::black_box(TxGraph::read_store(&mut store).unwrap())
        })
    });
    g.finish();
}

/// The exports bracketing the live epoch that reconciles past 90% of the
/// chain, from sharded ingest with `repro serve --live` settings.
fn live_epoch_pair(wb: &Workbench) -> (ClusterSnapshot, ClusterSnapshot) {
    let chain = wb.eco.chain.resolved();
    let mut pipe = ShardedIngest::new(IngestConfig::with_h2(4, 16, wb.refined_config()));
    let target = chain.tx_count() * 9 / 10;
    let mut prev: Option<ClusterSnapshot> = None;
    let mut last = 0;
    for block in chain.blocks() {
        pipe.ingest_block(&block);
        if pipe.reconciled_txs() == last {
            continue;
        }
        last = pipe.reconciled_txs();
        let snap = pipe.export_snapshot(chain, &wb.tagdb);
        match prev {
            Some(p) if last as usize >= target => return (p, snap),
            _ => prev = Some(snap),
        }
    }
    panic!("the chain ends before 90% of it is reconciled")
}

/// Claim 3: persisting after ingest. Diffing adjacent snapshots and
/// applying the delta, versus re-encoding the whole successor snapshot.
fn bench_delta_append(c: &mut Criterion) {
    let wb = default_scale();
    let chain = wb.eco.chain.resolved();
    let full = wb.snapshot();
    // The "stale base": the snapshot as of ~90% of the chain, so the delta
    // carries one epoch's worth of growth.
    let refined = wb.cluster_with(wb.refined_config());
    let names = fistful_core::naming::name_clusters(&refined, &wb.tagdb);
    let cut = chain.tx_count() * 9 / 10;
    let base = ClusterSnapshot::build_at(chain, cut, &refined, &names);
    let delta = SnapshotDelta::between(&base, &full);

    let mut g = c.benchmark_group("store/delta");
    g.sample_size(10);
    g.bench_function("diff", |b| {
        b.iter(|| std::hint::black_box(SnapshotDelta::between(&base, &full)))
    });
    g.bench_function("apply", |b| {
        b.iter(|| std::hint::black_box(base.apply_delta(&delta).unwrap()))
    });
    let (epoch_base, epoch_next) = live_epoch_pair(wb);
    let epoch_delta = SnapshotDelta::between(&epoch_base, &epoch_next);
    g.bench_function("epoch16_diff", |b| {
        b.iter(|| std::hint::black_box(SnapshotDelta::between(&epoch_base, &epoch_next)))
    });
    g.bench_function("epoch16_apply", |b| {
        b.iter(|| std::hint::black_box(epoch_base.apply_delta(&epoch_delta).unwrap()))
    });
    g.bench_function("full_reencode", |b| {
        b.iter(|| {
            let mut w = StoreWriter::new();
            full.write_store(&mut w);
            std::hint::black_box(w.to_bytes())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_open_vs_rebuild, bench_graph_container, bench_delta_append);
criterion_main!(benches);
