//! `live`: `LivePipeline` with `repro serve --live` settings (4 shards,
//! 16-block epochs, balances every blocks/24, a store directory) streams
//! the whole chain from block 0 into a running server, while two
//! closed-loop callers query keys drawn uniformly from the final key
//! space for exactly that ingest window. `work_s`, printed as
//! `ingest_s`, runs from the end of the bootstrap to the final flushed
//! publish.
//!
//! The traced run replays the pipeline's epoch loop through the same
//! public calls (`Mirror`), one span per call, and checks that it writes
//! the same store directory byte for byte as `LivePipeline` did.

use crate::load::{self, KeyDist, Keys, LoadResult, Served, Stop};
use crate::stages::{self, Labelled};
use crate::sys::{dir_bytes, peak_rss_mb, process_cpu_s};
use crate::trace::{self, span, timed};
use crate::{layers, median, Outcome, Run, ROUNDS};
use fistful_bench::{serve_artifacts, Workbench};
use fistful_chain::encode::Writer;
use fistful_chain::resolve::{BlockId, ResolvedChain};
use fistful_core::change::ChangeConfig;
use fistful_core::snapshot::ClusterSnapshot;
use fistful_core::tagdb::TagDb;
use fistful_core::{IngestConfig, ShardedIngest};
use fistful_flow::balance_series_at;
use fistful_flow::graph::TxGraph;
use fistful_serve::store::{delta_file_name, LiveMeta, GRAPH_FILE, SERVE_FILE};
use fistful_serve::{
    LiveConfig, LivePipeline, MetricsDump, Publisher, ServeArtifacts, ServeConfig, Server,
};
use fistful_store::StoreWriter;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Address shards, as `repro serve --live` runs them.
const SHARDS: usize = 4;
/// Blocks per reconcile epoch, as `repro serve --live` runs them.
const EPOCH_BLOCKS: usize = 16;
/// Answers compared with in-process answers after each window.
const SAMPLE: usize = 256;

/// The pipeline's epoch loop, call for call, with a span per call.
struct Mirror {
    chain: Arc<ResolvedChain>,
    db: TagDb,
    every: u64,
    dir: PathBuf,
    pipe: ShardedIngest,
    graph: TxGraph,
    base: ClusterSnapshot,
    current: Option<Arc<ServeArtifacts>>,
    blocks_fed: usize,
    epoch: u64,
    delta_seq: usize,
    last_cut: usize,
    /// Existing addresses moved to another cluster, summed over epochs.
    reassigned: u64,
    /// Bytes the per-epoch store appends wrote.
    epoch_bytes: u64,
}

/// `serve.fst` as the pipeline writes it each epoch: change labels,
/// balance series and the resume watermark.
fn write_serve_file(a: &ServeArtifacts, meta: &LiveMeta, path: &Path) -> Result<u64, String> {
    let mut w = StoreWriter::new();
    let vout: Vec<u32> = a
        .labels
        .vout_of
        .iter()
        .map(|v| v.unwrap_or(u32::MAX))
        .collect();
    let mut e = Writer::new();
    e.u32_slice(&vout);
    w.segment("serve/labels_vout", e.into_bytes());
    let mut e = Writer::new();
    e.u64(a.labels.labels as u64);
    for &c in &a.labels.skip_counts {
        e.u64(c as u64);
    }
    w.segment("serve/labels_meta", e.into_bytes());
    let mut e = Writer::new();
    e.compact_size(a.balances.len() as u64);
    for p in &a.balances {
        e.u64(p.height);
        e.u64(p.time);
        e.u64(p.supply.to_sat());
        e.u64(p.sink_held.to_sat());
        e.compact_size(p.balances.len() as u64);
        for (category, amount) in &p.balances {
            e.string(category);
            e.u64(amount.to_sat());
        }
    }
    w.segment("serve/balances", e.into_bytes());
    let mut e = Writer::new();
    e.u64(meta.epoch);
    e.u64(meta.tx_count);
    e.u64(meta.block_count);
    e.u8(meta.flushed as u8);
    w.segment("serve/live_meta", e.into_bytes());
    w.write_to(path).map_err(|e| format!("serve.fst: {e}"))
}

impl Mirror {
    fn new(
        chain: Arc<ResolvedChain>,
        db: TagDb,
        change: ChangeConfig,
        every: u64,
        dir: PathBuf,
    ) -> Mirror {
        Mirror {
            pipe: ShardedIngest::new(IngestConfig::with_h2(SHARDS, EPOCH_BLOCKS, change)),
            graph: TxGraph::build_at(&chain, 0),
            base: ClusterSnapshot::default(),
            current: None,
            blocks_fed: 0,
            epoch: 0,
            delta_seq: 1,
            last_cut: 0,
            reassigned: 0,
            epoch_bytes: 0,
            chain,
            db,
            every,
            dir,
        }
    }

    fn meta(&self, flushed: bool) -> LiveMeta {
        LiveMeta {
            epoch: self.epoch,
            tx_count: u64::from(self.pipe.reconciled_txs()),
            block_count: self.blocks_fed as u64,
            flushed,
        }
    }

    /// The bundle at block 0 and the base save.
    fn bootstrap(&mut self) -> Result<Arc<ServeArtifacts>, String> {
        let chain = Arc::clone(&self.chain);
        let cut = self.pipe.reconciled_txs() as usize;
        let snapshot = timed("core.export_snapshot", || {
            self.pipe.export_snapshot(&chain, &self.db)
        });
        let labels = timed("core.labels", || {
            self.pipe
                .change_labels()
                .expect("live ingest runs H2")
                .clone()
        });
        self.graph = timed("flow.graph_build", || TxGraph::build_at(&chain, cut));
        let balances = timed("flow.balances_at", || {
            balance_series_at(&chain, cut, &snapshot, self.every)
        });
        let artifacts = timed("serve.artifacts", || {
            ServeArtifacts::new(snapshot.clone(), self.graph.clone(), labels, balances)
        })
        .map_err(|e| format!("bootstrap artifacts: {e}"))?;
        let artifacts = Arc::new(artifacts);
        timed("store.save", || {
            artifacts.save_dir_live(&self.dir, &self.meta(false))
        })
        .map_err(|e| format!("base save: {e}"))?;
        self.base = snapshot;
        self.last_cut = cut;
        self.current = Some(Arc::clone(&artifacts));
        Ok(artifacts)
    }

    fn publish_epoch(&mut self, publisher: &Publisher, flushed: bool) -> Result<(), String> {
        let chain = Arc::clone(&self.chain);
        let cut = self.pipe.reconciled_txs() as usize;
        let (snapshot, delta) = timed("core.export_delta", || {
            self.pipe.export_delta(&chain, &self.db, &self.base)
        });
        let existing = self.base.address_count();
        self.reassigned += delta
            .assign
            .iter()
            .filter(|&&(a, _)| (a as usize) < existing)
            .count() as u64;
        let ids_stable = delta.assign.iter().all(|&(a, _)| (a as usize) >= existing)
            && delta
                .clusters
                .iter()
                .all(|(c, _)| self.base.info(*c).is_none());
        timed("flow.graph_extend", || self.graph.extend_to(&chain, cut));
        let labels = timed("core.labels", || {
            self.pipe
                .change_labels()
                .expect("live ingest runs H2")
                .clone()
        });
        let balances = timed("flow.balances_at", || {
            balance_series_at(&chain, cut, &snapshot, self.every)
        });
        let artifacts = timed("serve.artifacts", || {
            ServeArtifacts::new(snapshot.clone(), self.graph.clone(), labels, balances)
        })
        .map_err(|e| format!("epoch artifacts: {e}"))?;
        let artifacts = Arc::new(artifacts);
        self.epoch += 1;
        let meta = self.meta(flushed);
        self.epoch_bytes += timed("store.epoch_write", || -> Result<u64, String> {
            let mut bytes = 0;
            if !delta.is_empty() {
                let mut w = StoreWriter::new();
                delta.write_store(&mut w);
                bytes += w
                    .write_to(&self.dir.join(delta_file_name(self.delta_seq)))
                    .map_err(|e| format!("delta: {e}"))?;
                self.delta_seq += 1;
            }
            let mut w = StoreWriter::new();
            artifacts.graph.write_store(&mut w);
            bytes += w
                .write_to(&self.dir.join(GRAPH_FILE))
                .map_err(|e| format!("graph.fst: {e}"))?;
            bytes += write_serve_file(&artifacts, &meta, &self.dir.join(SERVE_FILE))?;
            Ok(bytes)
        })?;
        timed("serve.publish", || {
            publisher.publish(Arc::clone(&artifacts), self.epoch, ids_stable)
        });
        self.base = snapshot;
        self.last_cut = cut;
        self.current = Some(artifacts);
        Ok(())
    }

    /// Streams the chain, publishing at every reconcile, then flushes and
    /// publishes the final generation. Consumes the replay like
    /// `LivePipeline::run` consumes the pipeline, so its teardown falls
    /// inside the window as the pipeline's does.
    fn run(mut self, publisher: &Publisher) -> Result<Replayed, String> {
        let chain = Arc::clone(&self.chain);
        while self.blocks_fed < chain.block_count() {
            let block = chain.block(self.blocks_fed as BlockId);
            timed("core.ingest_block", || self.pipe.ingest_block(&block));
            self.blocks_fed += 1;
            if self.pipe.reconciled_txs() as usize != self.last_cut {
                self.publish_epoch(publisher, false)?;
            }
        }
        timed("core.flush", || self.pipe.flush(&chain));
        self.publish_epoch(publisher, true)?;
        let replayed = Replayed {
            current: self.current.take().expect("a publish happened"),
            reassigned_per_epoch: self.reassigned as f64 / self.epoch.max(1) as f64,
            epoch_bytes: self.epoch_bytes,
        };
        timed("serve.teardown", move || drop(self));
        Ok(replayed)
    }
}

/// What a replayed window leaves behind.
struct Replayed {
    /// The last published generation.
    current: Arc<ServeArtifacts>,
    /// Existing addresses moved to another cluster per epoch.
    reassigned_per_epoch: f64,
    /// Bytes the per-epoch store appends wrote.
    epoch_bytes: u64,
}

/// The ingest side of one window.
enum Ingest {
    Real(Box<LivePipeline>),
    Traced(Box<Mirror>),
}

/// What the set-up of every window shares.
struct Shared {
    chain: Arc<ResolvedChain>,
    tagdb: TagDb,
    change: ChangeConfig,
    every: u64,
}

/// Starts a window: pipeline bootstrap into a fresh store directory,
/// then a server on the bootstrap bundle.
fn start_window(sh: &Shared, dir: &Path, traced: bool) -> Result<(Ingest, Server), String> {
    let _ = std::fs::remove_dir_all(dir);
    let (ingest, artifacts) = if traced {
        let mut m = Mirror::new(
            Arc::clone(&sh.chain),
            sh.tagdb.clone(),
            sh.change.clone(),
            sh.every,
            dir.to_path_buf(),
        );
        let a = m.bootstrap()?;
        (Ingest::Traced(Box::new(m)), a)
    } else {
        let mut config = LiveConfig::new(sh.change.clone());
        config.shards = SHARDS;
        config.epoch_blocks = EPOCH_BLOCKS;
        config.balance_every = sh.every;
        config.store_dir = Some(dir.to_path_buf());
        let mut p = LivePipeline::new(Arc::clone(&sh.chain), sh.tagdb.clone(), config);
        let a = timed("serve.live_bootstrap", || p.bootstrap())
            .map_err(|e| format!("bootstrap: {e}"))?;
        (Ingest::Real(Box::new(p)), a)
    };
    let server = timed("serve.start", || {
        Server::start(ServeConfig::default(), artifacts)
    })
    .map_err(|e| format!("server start: {e}"))?;
    Ok((ingest, server))
}

/// One window's measurements.
struct Window {
    ingest_s: f64,
    load: LoadResult,
    server_cpu_s: f64,
    dump: MetricsDump,
    restart_s: f64,
    disk_bytes: u64,
    /// Mirror only: reassigned addresses per epoch, and epoch bytes.
    reassigned_per_epoch: f64,
    epoch_bytes: u64,
}

/// Streams the chain while the callers query, then checks the outcome.
#[allow(clippy::too_many_arguments)]
fn window(
    run: &Run,
    stream: u64,
    keys: &Keys,
    reference: &ServeArtifacts,
    ingest: Ingest,
    server: Server,
    dir: &Path,
    o: &mut Outcome,
) -> Option<Window> {
    let addr = server.local_addr();
    let publisher = server.publisher();
    let stop = AtomicBool::new(false);
    let never = AtomicBool::new(false);
    let cpu0 = process_cpu_s();
    let (ingested, ingest_s, load, mirror) = std::thread::scope(|s| {
        let callers = s.spawn(|| load::run(addr, keys, stream, &Stop::Flag(&stop), false));
        let t = Instant::now();
        let (ingested, mirror) = {
            let _g = span("bench.ingest");
            match ingest {
                Ingest::Real(p) => match p.run(&publisher, &never) {
                    Ok(report) if report.flushed => (Ok(()), None),
                    Ok(_) => (Err("live run ended unflushed".to_string()), None),
                    Err(e) => (Err(format!("live run: {e}")), None),
                },
                Ingest::Traced(m) => match m.run(&publisher) {
                    Ok(replayed) => (Ok(()), Some(replayed)),
                    Err(e) => (Err(e), None),
                },
            }
        };
        let dt = t.elapsed().as_secs_f64();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        (
            ingested,
            dt,
            callers.join().expect("load thread panicked"),
            mirror,
        )
    });
    // The service's CPU: server workers and the ingest alike.
    let server_cpu_s = process_cpu_s() - cpu0 - load.gen_cpu_s;
    o.attempted += load.attempted + 1;
    o.failed += load.failed;
    if let Err(e) = ingested {
        o.failed += 1;
        o.errors.push(e);
        server.shutdown();
        return None;
    }
    let dump = server.metrics_handle().dump();
    if let Err(e) = load::check_server_counts(&dump, &load.sent) {
        o.errors.push(e);
    }
    // The server now serves the final hot-swapped generation.
    if let Err(e) = load::check_sample(addr, keys, reference, run.seed, SAMPLE) {
        o.errors.push(format!("final generation: {e}"));
    }
    server.shutdown();
    if let Some(m) = &mirror {
        o.check(stages::same_artifacts(&m.current, reference), || {
            "the traced replay's final generation differs from serve_artifacts".into()
        });
    }
    let t = Instant::now();
    let reopened = fistful_serve::ServeArtifacts::open_dir(dir);
    let restart_s = t.elapsed().as_secs_f64();
    match reopened {
        Ok(r) => o.check(stages::same_artifacts(&r, reference), || {
            "the store directory reopens to other artifacts than serve_artifacts".into()
        }),
        Err(e) => o.errors.push(format!("reopen store directory: {e}")),
    }
    let (reassigned_per_epoch, epoch_bytes) = mirror
        .as_ref()
        .map_or((0.0, 0), |m| (m.reassigned_per_epoch, m.epoch_bytes));
    Some(Window {
        ingest_s,
        load,
        server_cpu_s,
        dump,
        restart_s,
        disk_bytes: dir_bytes(dir),
        reassigned_per_epoch,
        epoch_bytes,
    })
}

/// Whether two store directories hold the same files, byte for byte.
fn same_dir(a: &Path, b: &Path) -> Result<(), String> {
    let list = |d: &Path| -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = std::fs::read_dir(d)
            .map(|es| es.filter_map(Result::ok).map(|e| e.path()).collect())
            .unwrap_or_default();
        v.sort();
        v
    };
    let (la, lb) = (list(a), list(b));
    let names = |l: &[PathBuf]| {
        l.iter()
            .map(|p| p.file_name().map(|n| n.to_owned()))
            .collect::<Vec<_>>()
    };
    if names(&la) != names(&lb) {
        return Err(format!(
            "file lists differ: {:?} vs {:?}",
            names(&la),
            names(&lb)
        ));
    }
    for (pa, pb) in la.iter().zip(&lb) {
        if std::fs::read(pa).ok() != std::fs::read(pb).ok() {
            return Err(format!("{} differs", pa.display()));
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let mut o = Outcome::default();
    let rounds = if run.trace { 2 } else { ROUNDS };
    let (mut setup, mut ingest_s, mut restart_s, mut disk) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut reassigned, mut epoch_bytes) = (Vec::new(), Vec::new());
    let mut served = Served::default();
    let mut untraced_dump: Option<(MetricsDump, f64)> = None;
    let mut reference: Option<ServeArtifacts> = None;
    let real_copy = run.work.join("live-untraced");
    for round in 0..rounds {
        // In the traced run the second round's set-up is traced, and
        // within every round untraced windows (`LivePipeline`) alternate
        // with traced ones (the replay), so both see the same machine.
        let setup_traced = run.trace && round == rounds - 1;
        trace::set_enabled(setup_traced);
        let dir = |w: usize| run.work.join(format!("live-{round}-{w}"));
        let t = Instant::now();
        let started = {
            let _g = span("bench.setup");
            let eco = stages::economy(run.seed);
            let l = stages::label(&eco);
            let sh = Shared {
                chain: Arc::new(eco.chain.resolved().clone()),
                tagdb: l.tagdb.clone(),
                change: stages::refined_config(&l),
                every: stages::balance_every(&eco),
            };
            start_window(&sh, &dir(0), false).map(|w| (eco, l, sh, w))
        };
        if !setup_traced {
            setup.push(t.elapsed().as_secs_f64());
        }
        trace::set_enabled(false);
        let (eco, l, sh, first) = match started {
            Ok(x) => x,
            Err(e) => {
                o.errors.push(e);
                break;
            }
        };
        o.metrics.insert("sim.txs", sh.chain.tx_count() as f64);
        o.metrics
            .insert("sim.addresses", sh.chain.address_count() as f64);
        o.metrics
            .insert("core.clusters_h1", l.h1.cluster_count() as f64);
        // The batch path's bundle for this economy: what the final
        // hot-swapped generation must equal.
        let reference = reference.get_or_insert_with(|| {
            let Labelled {
                tagdb,
                h1,
                h1_names,
                dice,
            } = l;
            serve_artifacts(&Workbench {
                eco,
                tagdb,
                dice,
                h1,
                h1_names,
            })
        });
        o.metrics.insert(
            "core.clusters_refined",
            reference.snapshot.cluster_count() as f64,
        );
        let coinbases: Vec<Vec<(u32, u32)>> = (0..EPOCH_BLOCKS.min(sh.chain.block_count()))
            .map(|b| vec![(sh.chain.block(b as BlockId).tx_start(), 0)])
            .collect();
        let keys = Keys {
            addresses: KeyDist::uniform(reference.snapshot.address_count() as u64),
            clusters: KeyDist::uniform(reference.snapshot.cluster_count() as u64),
            heights: KeyDist::uniform(reference.snapshot.tip_height() + 1),
            loot_pick: KeyDist::uniform(coinbases.len() as u64),
            loots: coinbases,
            taint_after_first_publish: true,
        };

        let deadline = Instant::now() + run.per_round(rounds);
        let mut next = Some(first);
        for w in 0.. {
            let traced = run.trace && w % 2 == 1;
            trace::set_enabled(traced);
            let started = next.take().map_or_else(
                || {
                    let _g = span("bench.window_setup");
                    start_window(&sh, &dir(w), traced)
                },
                Ok,
            );
            let (ingest, server) = match started {
                Ok(x) => x,
                Err(e) => {
                    o.errors.push(e);
                    break;
                }
            };
            let stream = run.seed ^ ((round as u64) << 32) ^ ((w as u64) << 16);
            let outcome = window(
                run,
                stream,
                &keys,
                reference,
                ingest,
                server,
                &dir(w),
                &mut o,
            );
            trace::set_enabled(false);
            let Some(mut win) = outcome else { break };
            if traced {
                reassigned.push(win.reassigned_per_epoch);
                epoch_bytes.push(win.epoch_bytes as f64);
                if let Err(e) = same_dir(&real_copy, &dir(w)) {
                    o.errors
                        .push(format!("traced replay wrote another store directory: {e}"));
                }
            } else {
                ingest_s.push(win.ingest_s);
                restart_s.push(win.restart_s);
                served.add(&mut win.load, win.server_cpu_s);
                untraced_dump = Some((win.dump, win.server_cpu_s));
            }
            disk.push(win.disk_bytes as f64);
            let _ = std::fs::remove_dir_all(&real_copy);
            if run.trace && !traced {
                let _ = std::fs::rename(dir(w), &real_copy);
            } else {
                let _ = std::fs::remove_dir_all(dir(w));
            }
            // A traced round needs at least one replayed window.
            if Instant::now() >= deadline && (!run.trace || traced) {
                break;
            }
        }
    }
    trace::set_enabled(false);

    o.metrics.insert("setup_s", median(&setup));
    o.metrics.insert("work_s", median(&ingest_s));
    o.metrics.insert("peak_rss_mb", peak_rss_mb());
    served.report(&mut o);
    o.note("setup_s", median(&setup), "s");
    o.note("ingest_s", median(&ingest_s), "s");
    o.note("ingest_windows", ingest_s.len() as f64, "count");
    o.note("restart_s", median(&restart_s), "s");
    o.note("disk_mb", median(&disk) / 1e6, "MB");
    o.note("peak_rss_mb", peak_rss_mb(), "MB");
    o.note(
        "failed_frac",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
    );

    if run.trace {
        o.spans = trace::drain();
        layers::from_spans(&o.spans, "bench.ingest", &mut o.metrics);
        let (stage_sum, traced_total) = layers::pass_totals(&o.spans, "bench.ingest");
        layers::residuals(&mut o.metrics, median(&ingest_s), stage_sum, traced_total);
        let (setup_sum, _) = layers::pass_totals(&o.spans, "bench.setup");
        o.metrics.insert(
            "trace.setup_residual_frac",
            (median(&setup) - setup_sum) / median(&setup),
        );
        o.metrics
            .insert("core.reassigned_addrs_per_epoch", median(&reassigned));
        o.metrics.insert("store.epoch_bytes", median(&epoch_bytes));
        o.metrics.insert("store.dir_bytes", median(&disk));
        if let Some((d, cpu)) = &untraced_dump {
            layers::from_dump(d, *cpu, &mut o.metrics);
        }
    }
    let _ = std::fs::remove_dir_all(&real_copy);
    o
}
