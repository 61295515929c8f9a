//! Golden values for Heuristic 2 and the Figure 2 balance series on the
//! tiny economy.
//!
//! The differential suites check that the batch, incremental and sharded
//! paths agree with one another; a change that moved all of them the same
//! way would pass those. These pins fix the absolute outputs instead:
//! label counts, skip counts per reason (in `SkipReason` order: coinbase,
//! too few outputs, self-change, no candidate, ambiguous, reused change,
//! prior self-change, failed wait) and the last balance sample.

use fistful::chain::amount::Amount;
use fistful::core::change::{identify, ChangeConfig};
use fistful::flow::balance_series;
use fistful::sim::SimConfig;
use fistful_bench::Workbench;
use std::sync::OnceLock;

fn workbench() -> &'static Workbench {
    static WB: OnceLock<Workbench> = OnceLock::new();
    WB.get_or_init(|| Workbench::build(SimConfig::tiny()))
}

#[test]
fn golden_identify_naive_on_tiny() {
    let labels = identify(workbench().eco.chain.resolved(), &ChangeConfig::naive());
    assert_eq!(labels.labels, 800);
    assert_eq!(labels.skip_counts, [120, 0, 599, 20, 741, 0, 0, 0]);
}

#[test]
fn golden_identify_refined_on_tiny() {
    let wb = workbench();
    let labels = identify(wb.eco.chain.resolved(), &wb.refined_config());
    assert_eq!(labels.labels, 658);
    assert_eq!(labels.skip_counts, [120, 0, 599, 4, 706, 100, 81, 12]);
}

#[test]
fn golden_balance_series_on_tiny() {
    let wb = workbench();
    let series = balance_series(wb.eco.chain.resolved(), &wb.snapshot(), 1);
    assert_eq!(series.len(), 120);
    let last = series.last().unwrap();
    assert_eq!(last.height, 119);
    assert_eq!(last.supply, Amount::from_sat(600_000_000_000));
    assert_eq!(last.sink_held, Amount::from_sat(473_726_634_898));
    let categories: Vec<(&str, u64)> =
        last.balances.iter().map(|(k, v)| (k.as_str(), v.to_sat())).collect();
    assert_eq!(
        categories,
        [
            ("exchange", 3_025_879_885),
            ("gambling", 51_383_640_592),
            ("investment", 0),
            ("mining", 0),
            ("mix", 0),
            ("vendor", 0),
            ("wallet", 4_939_046_087),
        ]
    );
}
