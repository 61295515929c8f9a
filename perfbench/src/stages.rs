//! The batch stages, each one call into one layer's public API wrapped
//! in a span: seed → economy → tagdb → H1 → naming → refined H2 →
//! snapshot → balances → transaction graph → Table 2 → Table 3 → save →
//! open.

use crate::trace::{span, timed};
use fistful_bench::{build_tagdb, dice_addresses, silk_road_starts, theft_loots};
use fistful_chain::resolve::AddressId;
use fistful_core::change::ChangeConfig;
use fistful_core::cluster::{Clusterer, Clustering};
use fistful_core::naming::{name_clusters, NamingReport};
use fistful_core::snapshot::ClusterSnapshot;
use fistful_core::tagdb::TagDb;
use fistful_flow::graph::TxGraph;
use fistful_flow::peel::{FollowStrategy, PeelChain};
use fistful_flow::{
    balance_series, service_arrivals_indexed, track_thefts_batch, ArrivalRow, TheftTrace,
};
use fistful_serve::ServeArtifacts;
use fistful_sim::{Economy, SimConfig};
use std::collections::HashSet;
use std::path::Path;

/// Peel hops followed per Silk Road chain (Table 2).
const TAB2_HOPS: usize = 100;
/// Walk bound per theft (Table 3).
const TAB3_MAX_TXS: usize = 5_000;

/// Runs the default-scale economy with the workload seed swapped in,
/// block by block (what `Economy::run` does), one span per block.
pub fn economy(seed: u64) -> Economy {
    let _g = span("sim.economy");
    let mut eco = Economy::new(SimConfig {
        seed,
        ..SimConfig::default()
    });
    for _ in 0..eco.cfg.blocks {
        timed("sim.step_block", || eco.step_block());
    }
    eco
}

/// Tags and the H1 clustering with its naming: what the refined H2
/// configuration and the live pipeline's naming need.
pub struct Labelled {
    /// All tags.
    pub tagdb: TagDb,
    /// The Heuristic 1 clustering.
    pub h1: Clustering,
    /// Its naming.
    pub h1_names: NamingReport,
    /// Gambling-cluster addresses, the refined H2 exception set.
    pub dice: HashSet<AddressId>,
}

/// tagdb → H1 → naming.
pub fn label(eco: &Economy) -> Labelled {
    let chain = eco.chain.resolved();
    let tagdb = timed("core.tagdb", || build_tagdb(eco));
    let h1 = timed("core.h1", || Clusterer::h1_only().run(chain));
    let (h1_names, dice) = timed("core.naming", || {
        let names = name_clusters(&h1, &tagdb);
        let dice = dice_addresses(&h1, &names);
        (names, dice)
    });
    Labelled {
        tagdb,
        h1,
        h1_names,
        dice,
    }
}

/// The refined H2 configuration for this chain.
pub fn refined_config(l: &Labelled) -> ChangeConfig {
    ChangeConfig::refined(l.dice.clone())
}

/// Balance-series sampling interval, as `repro` and `repro serve` use.
pub fn balance_every(eco: &Economy) -> u64 {
    (eco.cfg.blocks / 24).max(1)
}

/// refined H2 → naming → snapshot → balances → graph → serving bundle
/// (the stages of `fistful_bench::serve_artifacts`, in its order).
pub fn build(eco: &Economy, l: &Labelled) -> (ServeArtifacts, usize) {
    let chain = eco.chain.resolved();
    let mut refined = timed("core.h2", || {
        Clusterer::with_h2(refined_config(l)).run(chain)
    });
    let clusters = refined.cluster_count();
    let labels = refined
        .change_labels
        .take()
        .expect("with_h2 clustering keeps its change labels");
    let names = timed("core.naming", || name_clusters(&refined, &l.tagdb));
    let snapshot = timed("core.snapshot", || {
        ClusterSnapshot::build(chain, &refined, &names)
    });
    let balances = timed("flow.balances", || {
        balance_series(chain, &snapshot, balance_every(eco))
    });
    let graph = timed("flow.graph_build", || TxGraph::build(chain));
    let artifacts = timed("serve.artifacts", || {
        ServeArtifacts::new(snapshot, graph, labels, balances)
    })
    .expect("artifacts all derive from one chain");
    (artifacts, clusters)
}

/// Tables 2 and 3 as the batch pipeline computes them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tables {
    /// H1 cluster count.
    pub clusters_h1: usize,
    /// Refined H1+H2 cluster count.
    pub clusters_refined: usize,
    /// Table 2: the followed Silk Road chains.
    pub tab2_chains: Vec<PeelChain>,
    /// Table 2: arrivals per service.
    pub tab2_rows: Vec<ArrivalRow>,
    /// Table 3: one trace per theft.
    pub tab3: Vec<TheftTrace>,
}

/// The batch pipeline from the economy to the bundle on disk.
pub fn batch(eco: &Economy, dir: &Path) -> Result<(Tables, ServeArtifacts, u64), String> {
    let chain = eco.chain.resolved();
    let l = label(eco);
    let (artifacts, clusters_refined) = build(eco, &l);
    let sr = eco
        .script_report
        .silk_road
        .as_ref()
        .ok_or("the economy ran no Silk Road script")?;
    let (tab2_chains, tab2_rows) = timed("flow.tab2", || {
        let starts = silk_road_starts(chain, sr);
        service_arrivals_indexed(
            &artifacts.graph,
            &artifacts.labels,
            &starts,
            TAB2_HOPS,
            FollowStrategy::LargestFallback,
            &artifacts.snapshot,
        )
    });
    let tab3 = timed("flow.tab3", || {
        let loots = loots(eco);
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        track_thefts_batch(
            &artifacts.graph,
            &loots,
            &artifacts.labels,
            &artifacts.snapshot,
            TAB3_MAX_TXS,
            threads,
        )
    });
    if tab3.is_empty() {
        return Err("the economy produced no traceable theft".into());
    }
    let bytes =
        timed("store.save", || artifacts.save_dir(dir)).map_err(|e| format!("save_dir: {e}"))?;
    let tables = Tables {
        clusters_h1: l.h1.cluster_count(),
        clusters_refined,
        tab2_chains,
        tab2_rows,
        tab3,
    };
    Ok((tables, artifacts, bytes))
}

/// Reopens a saved bundle.
pub fn open(dir: &Path) -> Result<ServeArtifacts, String> {
    timed("store.open", || ServeArtifacts::open_dir(dir)).map_err(|e| format!("open_dir: {e}"))
}

/// Whether two bundles hold the same artifacts.
pub fn same_artifacts(a: &ServeArtifacts, b: &ServeArtifacts) -> bool {
    a.snapshot.to_bytes() == b.snapshot.to_bytes()
        && a.graph == b.graph
        && a.labels.vout_of == b.labels.vout_of
        && a.labels.skip_counts == b.labels.skip_counts
        && a.labels.labels == b.labels.labels
        && a.balances == b.balances
}

/// The theft loot sets, the taint keys of the query workloads.
pub fn loots(eco: &Economy) -> Vec<Vec<(u32, u32)>> {
    theft_loots(eco.chain.resolved(), &eco.script_report.thefts)
        .into_iter()
        .map(|(_, loot)| loot)
        .collect()
}
