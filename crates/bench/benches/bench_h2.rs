//! Experiments `sec4-fp` / `sec4-h2`: Heuristic 2 identification across the
//! refinement ladder, plus the false-positive estimator.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fistful_bench::Workbench;
use fistful_core::change::{self, ChangeConfig, BLOCKS_PER_WEEK};
use fistful_core::fp;
use fistful_sim::SimConfig;
use std::sync::OnceLock;

fn workbench() -> &'static Workbench {
    static WB: OnceLock<Workbench> = OnceLock::new();
    WB.get_or_init(|| Workbench::build(SimConfig::tiny()))
}

fn bench_identify(c: &mut Criterion) {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let mut g = c.benchmark_group("heuristic2");
    g.sample_size(30);
    g.throughput(Throughput::Elements(chain.tx_count() as u64));
    g.bench_function("naive", |b| {
        b.iter(|| std::hint::black_box(change::identify(chain, &ChangeConfig::naive())))
    });
    let mut waiting = ChangeConfig::naive();
    waiting.wait_blocks = Some(BLOCKS_PER_WEEK);
    waiting.dice_exception = true;
    waiting.dice_addresses = wb.dice.clone();
    g.bench_function("with_wait_and_dice", |b| {
        b.iter(|| std::hint::black_box(change::identify(chain, &waiting)))
    });
    let refined = wb.refined_config();
    g.bench_function("fully_refined", |b| {
        b.iter(|| std::hint::black_box(change::identify(chain, &refined)))
    });
    g.finish();
}

/// The fully refined pass on the default-scale economy (~65k
/// transactions), the one the batch pipeline clusters. Throughput counts
/// transactions, so the per-element time is the cost per transaction.
fn bench_identify_default(c: &mut Criterion) {
    let wb = Workbench::build(SimConfig::default());
    let chain = wb.eco.chain.resolved();
    let refined = wb.refined_config();
    let mut g = c.benchmark_group("heuristic2_default");
    g.sample_size(20);
    g.throughput(Throughput::Elements(chain.tx_count() as u64));
    g.bench_function("fully_refined", |b| {
        b.iter(|| std::hint::black_box(change::identify(chain, &refined)))
    });
    g.finish();
}

fn bench_estimator(c: &mut Criterion) {
    let wb = workbench();
    let chain = wb.eco.chain.resolved();
    let labels = change::identify(chain, &ChangeConfig::naive());
    let mut dice_cfg = ChangeConfig::naive();
    dice_cfg.dice_exception = true;
    dice_cfg.dice_addresses = wb.dice.clone();
    let mut g = c.benchmark_group("fp_estimator");
    g.throughput(Throughput::Elements(labels.labels as u64));
    g.bench_function("plain", |b| {
        b.iter(|| std::hint::black_box(fp::estimate(chain, &labels, &ChangeConfig::naive())))
    });
    g.bench_function("with_dice_exception", |b| {
        b.iter(|| std::hint::black_box(fp::estimate(chain, &labels, &dice_cfg)))
    });
    g.finish();
}

criterion_group!(benches, bench_identify, bench_identify_default, bench_estimator);
criterion_main!(benches);
