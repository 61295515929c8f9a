//! `query-hot`: two closed-loop callers against frozen artifacts with the
//! paper mix. Keys are Zipf-skewed over the full address, cluster and
//! height space, so the head of the key distribution fits the response
//! cache and the tail does not. No ingest or store work runs. Set-up
//! builds the economy, the serving bundle and the server.

use crate::load::{self, KeyDist, Keys, Rng, Served, Stop};
use crate::stages;
use crate::sys::{peak_rss_mb, process_cpu_s};
use crate::trace::{self, span, timed};
use crate::{layers, median, Outcome, Run, CALLERS, ROUNDS};
use fistful_serve::{ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Unmeasured load per round that fills the response cache first.
const WARMUP: Duration = Duration::from_millis(300);
/// Answers compared with in-process answers per round.
const SAMPLE: usize = 256;
/// Length of one measured segment; the run reports medians over them.
const SEGMENT: Duration = Duration::from_secs(2);
/// `work_s` is the wall time the two callers take per this many requests.
const WORK_REQUESTS: f64 = 10_000.0;

/// Runs the workload.
pub fn run(run: &Run) -> Outcome {
    let mut o = Outcome::default();
    let rounds = if run.trace { 2 } else { ROUNDS };
    let mut setup = Vec::new();
    let mut served = Served::default();
    let mut traced = Served::default();
    for round in 0..rounds {
        // In the traced run the second round's set-up is traced, and
        // within every round untraced segments alternate with traced
        // ones, so both see the same machine.
        let setup_traced = run.trace && round == rounds - 1;
        trace::set_enabled(setup_traced);
        let t = Instant::now();
        let (eco, l, artifacts, started) = {
            let _g = span("bench.setup");
            let eco = stages::economy(run.seed);
            let l = stages::label(&eco);
            let (artifacts, _) = stages::build(&eco, &l);
            let artifacts = Arc::new(artifacts);
            let started = timed("serve.start", || {
                Server::start(ServeConfig::default(), Arc::clone(&artifacts))
            });
            (eco, l, artifacts, started)
        };
        if !setup_traced {
            setup.push(t.elapsed().as_secs_f64());
        }
        let server = match started {
            Ok(server) => server,
            Err(e) => {
                o.errors.push(format!("server start: {e}"));
                break;
            }
        };
        o.metrics
            .insert("sim.txs", eco.chain.resolved().tx_count() as f64);
        o.metrics
            .insert("sim.addresses", eco.chain.resolved().address_count() as f64);
        o.metrics
            .insert("core.clusters_h1", l.h1.cluster_count() as f64);
        o.metrics.insert(
            "core.clusters_refined",
            artifacts.snapshot.cluster_count() as f64,
        );

        let mut rng = Rng::new(run.seed, 0x21F);
        let loots = stages::loots(&eco);
        let keys = Keys {
            addresses: KeyDist::zipf(artifacts.snapshot.address_count() as u64, &mut rng),
            clusters: KeyDist::zipf(artifacts.snapshot.cluster_count() as u64, &mut rng),
            heights: KeyDist::zipf(artifacts.snapshot.tip_height() + 1, &mut rng),
            loot_pick: KeyDist::zipf(loots.len() as u64, &mut rng),
            loots,
            taint_after_first_publish: false,
        };
        drop(eco);
        let addr = server.local_addr();
        let stream = run.seed ^ ((round as u64) << 32);
        trace::set_enabled(false);
        let warm = load::run(
            addr,
            &keys,
            stream ^ 0xFFFF,
            &Stop::At(Instant::now() + WARMUP),
            false,
        );
        let mut sent = warm.sent;
        o.attempted += warm.attempted;
        o.failed += warm.failed;
        let mut round_cpu = 0.0;
        let round_end = Instant::now() + run.per_round(rounds);
        for segment in 0u64.. {
            let now = Instant::now();
            if now >= round_end {
                break;
            }
            let traced_segment = run.trace && segment % 2 == 1;
            trace::set_enabled(traced_segment);
            let cpu0 = process_cpu_s();
            let mut r = load::run(
                addr,
                &keys,
                stream ^ (segment << 40),
                &Stop::At((now + SEGMENT).min(round_end)),
                true,
            );
            let cpu = process_cpu_s() - cpu0 - r.gen_cpu_s;
            trace::set_enabled(false);
            round_cpu += cpu;
            for (a, b) in sent.iter_mut().zip(r.sent) {
                *a += b;
            }
            o.attempted += r.attempted;
            o.failed += r.failed;
            if traced_segment {
                &mut traced
            } else {
                &mut served
            }
            .add(&mut r, cpu);
        }
        let dump = server.metrics_handle().dump();
        if let Err(e) = load::check_server_counts(&dump, &sent) {
            o.errors.push(e);
        }
        if let Err(e) = load::check_sample(addr, &keys, &artifacts, run.seed, SAMPLE) {
            o.errors.push(e);
        }
        server.shutdown();
        if setup_traced {
            layers::from_dump(&dump, round_cpu, &mut o.metrics);
        }
    }
    trace::set_enabled(false);

    o.metrics.insert("setup_s", median(&setup));
    let work_s = served.median(|s| s.per_10k_s);
    o.metrics.insert("work_s", work_s);
    o.metrics.insert("peak_rss_mb", peak_rss_mb());
    served.report(&mut o);
    o.note("setup_s", median(&setup), "s");
    o.note("work_s", work_s, "s");
    o.note("peak_rss_mb", peak_rss_mb(), "MB");
    o.note(
        "failed_frac",
        o.failed as f64 / o.attempted.max(1) as f64,
        "ratio",
    );

    if run.trace {
        o.spans = trace::drain();
        layers::from_spans(&o.spans, "bench.load", &mut o.metrics);
        // The request loop's stages are the round trips: their summed time
        // per caller, scaled like `work_s`.
        let traced_requests = o.spans.iter().filter(|s| s.name == "serve.request").count();
        let request_s: f64 = o
            .spans
            .iter()
            .filter(|s| s.name == "serve.request")
            .map(|s| s.dur_ns())
            .sum::<u64>() as f64
            * 1e-9;
        let stage_sum = request_s / CALLERS as f64 * WORK_REQUESTS / traced_requests.max(1) as f64;
        layers::residuals(
            &mut o.metrics,
            work_s,
            stage_sum,
            traced.median(|s| s.per_10k_s),
        );
        let (setup_sum, _) = layers::pass_totals(&o.spans, "bench.setup");
        o.metrics.insert(
            "trace.setup_residual_frac",
            (median(&setup) - setup_sum) / median(&setup),
        );
    }
    o
}
