//! Experiment `fig2`: the per-category balance time series.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fistful_bench::Workbench;
use fistful_flow::{balance_series, balance_series_at};
use fistful_sim::SimConfig;
use std::sync::OnceLock;

fn workbench() -> &'static Workbench {
    static WB: OnceLock<Workbench> = OnceLock::new();
    WB.get_or_init(|| Workbench::build(SimConfig::tiny()))
}

fn bench_series(c: &mut Criterion) {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let clustering = wb.cluster_with(wb.refined_config());
    let dir = wb.directory_for(&clustering);
    let mut g = c.benchmark_group("balance");
    g.throughput(Throughput::Elements(chain.tx_count() as u64));
    for every in [1u64, 24, 144] {
        g.bench_function(format!("series_every_{every}"), |b| {
            b.iter(|| std::hint::black_box(balance_series(chain, &dir, every)))
        });
    }
    g.finish();
}

/// The call a live epoch makes at default scale: the series over a
/// mid-chain prefix against the frozen snapshot, sampled every
/// `blocks / 24` blocks. Throughput counts the prefix's transactions.
fn bench_series_at_default(c: &mut Criterion) {
    let wb = Workbench::build(SimConfig::default());
    let chain = wb.eco.chain.resolved();
    let snapshot = wb.snapshot();
    let cut = chain.tx_count() / 2;
    let every = (wb.eco.cfg.blocks / 24).max(1);
    let mut g = c.benchmark_group("balance_default");
    g.sample_size(20);
    g.throughput(Throughput::Elements(cut as u64));
    g.bench_function("series_at_mid_chain", |b| {
        b.iter(|| std::hint::black_box(balance_series_at(chain, cut, &snapshot, every)))
    });
    g.finish();
}

criterion_group!(benches, bench_series, bench_series_at_default);
criterion_main!(benches);
