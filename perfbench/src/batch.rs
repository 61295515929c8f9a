//! `batch`: what a `repro all` user waits for. Set-up builds the economy;
//! each measured pass runs tagdb → H1 → naming → refined H2 → snapshot →
//! balances → graph → Table 2 → Table 3 → `save_dir` (`work_s`, printed
//! as `batch_s`), then `open_dir` (`restart_s`). After a round's
//! passes a short probe serves the reopened bundle, which gives the
//! request metrics every workload reports and checks the restart
//! answers exactly like the bundle that was saved.

use crate::load::{self, KeyDist, Keys, Served, Stop};
use crate::stages::{self, Tables};
use crate::sys::{dir_bytes, peak_rss_mb, process_cpu_s};
use crate::trace::{self, span, timed};
use crate::{layers, median, Outcome, Run, ROUNDS};
use fistful_serve::{MetricsDump, ServeArtifacts, ServeConfig, Server};
use fistful_sim::Economy;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Probe segments after each round's passes; the probe gets a third of
/// the round's measured time.
const PROBE_SEGMENTS: u32 = 2;
/// Probe answers compared with in-process answers.
const SAMPLE: usize = 256;

/// Uniform keys over the whole bundle: the probe does not favour the
/// response cache.
fn probe_keys(eco: &Economy, artifacts: &ServeArtifacts) -> Keys {
    let loots = stages::loots(eco);
    Keys {
        addresses: KeyDist::uniform(artifacts.snapshot.address_count() as u64),
        clusters: KeyDist::uniform(artifacts.snapshot.cluster_count() as u64),
        heights: KeyDist::uniform(artifacts.snapshot.tip_height() + 1),
        loot_pick: KeyDist::uniform(loots.len() as u64),
        loots,
        taint_after_first_publish: false,
    }
}

/// Serves `reopened` and runs the probe; the answers must equal
/// in-process answers over `saved`. Returns the server's metrics and the
/// server CPU the probe cost.
#[allow(clippy::too_many_arguments)]
fn probe(
    run: &Run,
    round: usize,
    eco: &Economy,
    saved: &ServeArtifacts,
    reopened: ServeArtifacts,
    length: Duration,
    served: &mut Served,
    o: &mut Outcome,
) -> Option<(MetricsDump, f64)> {
    let keys = probe_keys(eco, saved);
    let server = match timed("serve.start", || {
        Server::start(ServeConfig::default(), Arc::new(reopened))
    }) {
        Ok(server) => server,
        Err(e) => {
            o.errors.push(format!("server start: {e}"));
            return None;
        }
    };
    let addr = server.local_addr();
    let mut sent = [0u64; 4];
    let mut server_cpu = 0.0;
    for segment in 0..PROBE_SEGMENTS {
        let stream = run.seed ^ ((round as u64) << 32) ^ (u64::from(segment) << 40);
        let cpu0 = process_cpu_s();
        let mut r = load::run(
            addr,
            &keys,
            stream,
            &Stop::At(Instant::now() + length / PROBE_SEGMENTS),
            false,
        );
        let cpu = process_cpu_s() - cpu0 - r.gen_cpu_s;
        server_cpu += cpu;
        for (a, b) in sent.iter_mut().zip(r.sent) {
            *a += b;
        }
        o.attempted += r.attempted;
        o.failed += r.failed;
        served.add(&mut r, cpu);
    }
    let dump = server.metrics_handle().dump();
    if let Err(e) = load::check_server_counts(&dump, &sent) {
        o.errors.push(e);
    }
    if let Err(e) = load::check_sample(addr, &keys, saved, run.seed, SAMPLE) {
        o.errors.push(format!("restarted bundle: {e}"));
    }
    server.shutdown();
    Some((dump, server_cpu))
}

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let mut o = Outcome::default();
    let rounds = if run.trace { 2 } else { ROUNDS };
    let (mut setup, mut batch_s, mut restart_s, mut disk) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<Tables> = None;
    let mut served = Served::default();
    let mut bundle_bytes = 0u64;
    let mut dump = None;
    let dir = run.work.join("bundle");
    for round in 0..rounds {
        // In the traced run the second round's set-up and probe are
        // traced, and within every round untraced passes alternate with
        // traced ones, so both see the same machine.
        let setup_traced = run.trace && round == rounds - 1;
        trace::set_enabled(setup_traced);
        let t = Instant::now();
        let eco = {
            let _g = span("bench.setup");
            stages::economy(run.seed)
        };
        if !setup_traced {
            setup.push(t.elapsed().as_secs_f64());
        }
        let chain = eco.chain.resolved();
        o.metrics.insert("sim.txs", chain.tx_count() as f64);
        o.metrics
            .insert("sim.addresses", chain.address_count() as f64);

        let measured = run.per_round(rounds);
        let deadline = Instant::now() + measured * 2 / 3;
        let mut last = None;
        for pass in 0.. {
            let traced = run.trace && pass % 2 == 1;
            trace::set_enabled(traced);
            let _ = std::fs::remove_dir_all(&dir);
            o.attempted += 1;
            let t = Instant::now();
            let built = {
                let _g = span("bench.pipeline");
                stages::batch(&eco, &dir)
            };
            let b = t.elapsed().as_secs_f64();
            let (tables, saved, bytes) = match built {
                Ok(x) => x,
                Err(e) => {
                    o.failed += 1;
                    o.errors.push(e);
                    break;
                }
            };
            let t = Instant::now();
            let reopened = match stages::open(&dir) {
                Ok(r) => r,
                Err(e) => {
                    o.failed += 1;
                    o.errors.push(e);
                    break;
                }
            };
            let r = t.elapsed().as_secs_f64();
            trace::set_enabled(false);
            if !traced {
                batch_s.push(b);
                restart_s.push(r);
            }
            disk.push(dir_bytes(&dir) as f64);
            bundle_bytes = bytes;
            match &reference {
                None => reference = Some(tables),
                Some(first) => o.check(*first == tables, || {
                    "cluster counts or Table 2/3 rows differ between passes".into()
                }),
            }
            o.check(stages::same_artifacts(&saved, &reopened), || {
                "open_dir returned other artifacts than were saved".into()
            });
            last = Some((saved, reopened));
            // A traced round needs at least one traced pass.
            if Instant::now() >= deadline && (!run.trace || traced) {
                break;
            }
        }
        trace::set_enabled(setup_traced);
        if let Some((saved, reopened)) = last {
            if let Some(d) = probe(
                run,
                round,
                &eco,
                &saved,
                reopened,
                measured / 3,
                &mut served,
                &mut o,
            ) {
                dump = Some(d);
            }
        }
    }
    trace::set_enabled(false);
    let _ = std::fs::remove_dir_all(&dir);

    o.metrics.insert("setup_s", median(&setup));
    o.metrics.insert("work_s", median(&batch_s));
    o.metrics.insert("peak_rss_mb", peak_rss_mb());
    served.report(&mut o);
    o.note("setup_s", median(&setup), "s");
    o.note("batch_s", median(&batch_s), "s");
    o.note("batch_passes", batch_s.len() as f64, "count");
    o.note("restart_s", median(&restart_s), "s");
    o.note("disk_mb", median(&disk) / 1e6, "MB");
    o.note("peak_rss_mb", peak_rss_mb(), "MB");
    o.note(
        "failed_frac",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
    );

    if let Some(t) = &reference {
        o.metrics.insert("core.clusters_h1", t.clusters_h1 as f64);
        o.metrics
            .insert("core.clusters_refined", t.clusters_refined as f64);
    }
    if run.trace {
        o.spans = trace::drain();
        layers::from_spans(&o.spans, "bench.pipeline", &mut o.metrics);
        let (stage_sum, traced_total) = layers::pass_totals(&o.spans, "bench.pipeline");
        layers::residuals(&mut o.metrics, median(&batch_s), stage_sum, traced_total);
        let (setup_sum, _) = layers::pass_totals(&o.spans, "bench.setup");
        o.metrics.insert(
            "trace.setup_residual_frac",
            (median(&setup) - setup_sum) / median(&setup),
        );
        o.metrics.insert("store.bundle_bytes", bundle_bytes as f64);
        o.metrics.insert("store.dir_bytes", median(&disk));
        if let Some((d, cpu)) = &dump {
            layers::from_dump(d, *cpu, &mut o.metrics);
        }
    }
    o
}
