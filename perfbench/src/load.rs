//! The closed-loop load generator and the query-side correctness checks.
//!
//! Each caller is one thread on one connection: draw a request, send it,
//! wait for the answer, repeat. Every failure is counted instead of
//! aborting the run: an error frame (Busy included), an I/O error, or a
//! refused connect each counts as one failed attempt, and the caller
//! reconnects and goes on.

use crate::trace;
use crate::CALLERS;
use fistful_chain::encode::Encodable;
use fistful_flow::{point_at, track_theft_indexed, TaintScratch};
use fistful_serve::{
    AddressReport, BalanceReport, Client, ClusterReport, MetricsDump, Request, Response,
    ServeArtifacts, ServeConfig, TaintReport,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Walk bound sent with every taint request (the server's default
/// ceiling, so the server never clamps it).
pub const TAINT_MAX_TXS: u32 = 5_000;

/// The paper mix: `addr:6,cluster:2,balance:1,taint:1`.
pub const MIX: [(Kind, u64); 4] = [
    (Kind::Addr, 6),
    (Kind::Cluster, 2),
    (Kind::Balance, 1),
    (Kind::Taint, 1),
];

/// The request kinds the mix draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `AddressInfo`.
    Addr,
    /// `ClusterSummary`.
    Cluster,
    /// `BalancePoint`.
    Balance,
    /// `TaintTrace`.
    Taint,
}

impl Kind {
    /// Label used by the server's per-type series.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Addr => "addr",
            Kind::Cluster => "cluster",
            Kind::Balance => "balance",
            Kind::Taint => "taint",
        }
    }

    fn index(self) -> usize {
        MIX.iter()
            .position(|&(k, _)| k == self)
            .expect("every kind is in the mix")
    }
}

/// splitmix64: a small seeded generator, so every caller's request
/// sequence is a function of the workload seed.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and stream `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Draws key indices in `[0, n)`: either uniformly, or Zipf-skewed
/// (exponent 1) with ranks scattered over the space by a seeded affine
/// permutation, so the hot keys are not simply the lowest ids.
pub struct KeyDist {
    n: u64,
    /// Cumulative rank weights; empty for a uniform draw.
    cdf: Vec<f64>,
    mul: u64,
    add: u64,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl KeyDist {
    /// Uniform over `[0, n)`.
    pub fn uniform(n: u64) -> KeyDist {
        KeyDist {
            n: n.max(1),
            cdf: Vec::new(),
            mul: 1,
            add: 0,
        }
    }

    /// Zipf over `[0, n)`, rank order fixed by `rng`.
    pub fn zipf(n: u64, rng: &mut Rng) -> KeyDist {
        let n = n.max(1);
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        let mut mul = (rng.next() % n) | 1;
        while gcd(mul, n) != 1 {
            mul += 2;
        }
        KeyDist {
            n,
            cdf,
            mul,
            add: rng.below(n),
        }
    }

    /// One key index.
    pub fn draw(&self, rng: &mut Rng) -> u64 {
        if self.cdf.is_empty() {
            return rng.below(self.n);
        }
        let target = rng.unit() * self.cdf[self.cdf.len() - 1];
        let rank = self
            .cdf
            .partition_point(|&c| c <= target)
            .min(self.cdf.len() - 1) as u64;
        (rank.wrapping_mul(self.mul) % self.n + self.add) % self.n
    }
}

/// The key space a workload's callers draw from.
pub struct Keys {
    /// Address ids.
    pub addresses: KeyDist,
    /// Cluster ids.
    pub clusters: KeyDist,
    /// Block heights.
    pub heights: KeyDist,
    /// Taint start sets, indexed by the taint draw.
    pub loots: Vec<Vec<(u32, u32)>>,
    /// Taint start-set choice.
    pub loot_pick: KeyDist,
    /// Taint only once a response from epoch 1 or later has arrived: the
    /// loot outputs exist only after the first live publish.
    pub taint_after_first_publish: bool,
}

impl Keys {
    fn draw_kind(rng: &mut Rng) -> Kind {
        let total: u64 = MIX.iter().map(|&(_, w)| w).sum();
        let mut pick = rng.below(total);
        for &(kind, w) in &MIX {
            if pick < w {
                return kind;
            }
            pick -= w;
        }
        unreachable!("pick is below the weight total")
    }

    /// Draws one request; `epoch` is the epoch of the caller's last
    /// answer.
    pub fn draw(&self, rng: &mut Rng, epoch: u64) -> (Kind, Request) {
        loop {
            let kind = Keys::draw_kind(rng);
            let request = match kind {
                Kind::Addr => Request::AddressInfo {
                    address: self.addresses.draw(rng) as u32,
                },
                Kind::Cluster => Request::ClusterSummary {
                    cluster: self.clusters.draw(rng) as u32,
                },
                Kind::Balance => Request::BalancePoint {
                    height: self.heights.draw(rng),
                },
                Kind::Taint => {
                    if self.taint_after_first_publish && epoch == 0 {
                        continue;
                    }
                    let loot = self.loots[self.loot_pick.draw(rng) as usize].clone();
                    Request::TaintTrace {
                        loot,
                        max_txs: TAINT_MAX_TXS,
                    }
                }
            };
            return (kind, request);
        }
    }
}

/// When a load ends.
pub enum Stop<'a> {
    /// At a wall-clock deadline.
    At(Instant),
    /// When the flag is raised.
    Flag(&'a AtomicBool),
}

impl Stop<'_> {
    fn done(&self) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= *t,
            Stop::Flag(f) => f.load(Ordering::SeqCst),
        }
    }
}

/// Length of one load phase. Every phase starts fresh caller threads on
/// fresh connections: how the scheduler places callers and server
/// workers on the cores changes a phase's latency and CPU cost severalfold
/// (a caller and its worker on one core hand off cheaply, on two cores
/// each request pays cross-core wake-ups), and that placement holds for a
/// connection's life. Many short phases average over placements instead
/// of reporting whichever one a run happened to draw.
pub const PHASE: Duration = Duration::from_millis(250);

/// What one load measured.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Round-trip times of successful requests in nanoseconds (saturating
    /// at `u32::MAX`, 4.3 s), all kinds pooled.
    pub lat_ns: Vec<u32>,
    /// Wall seconds per 10,000 requests, one entry per load phase.
    pub phase_per_10k_s: Vec<f64>,
    /// Requests sent, by kind (indexed like [`MIX`]).
    pub sent: [u64; 4],
    /// Attempts: requests sent plus connects tried.
    pub attempted: u64,
    /// Failed attempts.
    pub failed: u64,
    /// CPU seconds the caller threads themselves used.
    pub gen_cpu_s: f64,
}

impl LoadResult {
    /// Folds another load's result into this one.
    pub fn merge(&mut self, other: LoadResult) {
        self.lat_ns.extend(other.lat_ns);
        self.phase_per_10k_s.extend(other.phase_per_10k_s);
        for (a, b) in self.sent.iter_mut().zip(other.sent) {
            *a += b;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.gen_cpu_s += other.gen_cpu_s;
    }

    /// Requests sent, all kinds.
    pub fn requests(&self) -> u64 {
        self.sent.iter().sum()
    }
}

fn connect(addr: SocketAddr, result: &mut LoadResult) -> Option<Client> {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        result.attempted += 1;
        match Client::connect(addr) {
            Ok(client) => return Some(client),
            Err(_) => {
                result.failed += 1;
                if Instant::now() >= deadline {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn caller(
    addr: SocketAddr,
    keys: &Keys,
    mut rng: Rng,
    until: Instant,
    stop: &Stop<'_>,
    parent: u32,
    request_spans: bool,
) -> LoadResult {
    let _caller_span = trace::span_under("bench.caller", Some(parent));
    let cpu0 = crate::sys::thread_cpu_s();
    let mut result = LoadResult::default();
    let mut client = connect(addr, &mut result);
    while Instant::now() < until && !stop.done() {
        let Some(c) = client.as_mut() else { break };
        let (kind, request) = keys.draw(&mut rng, c.last_epoch());
        let payload = request.encode_to_vec();
        result.attempted += 1;
        result.sent[kind.index()] += 1;
        let t0 = Instant::now();
        let answer = {
            let _g = request_spans.then(|| trace::span("serve.request"));
            c.call_raw(&payload)
        };
        let ns = u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX);
        match answer {
            Ok(body) if body.first() != Some(&0xEE) => result.lat_ns.push(ns),
            // An error frame closes the connection, an I/O error leaves it
            // unusable: count it and reconnect.
            _ => {
                result.failed += 1;
                client = connect(addr, &mut result);
            }
        }
    }
    result.gen_cpu_s = crate::sys::thread_cpu_s() - cpu0;
    result
}

/// Runs [`CALLERS`] closed-loop callers against `addr` in phases of
/// [`PHASE`] until `stop`. With `request_spans`, a traced run records a
/// span per round trip; workloads whose traced pass is not the request
/// loop leave it off, as the spans slow the callers and so change how
/// much CPU the rest of the process gets.
pub fn run(
    addr: SocketAddr,
    keys: &Keys,
    seed: u64,
    stop: &Stop<'_>,
    request_spans: bool,
) -> LoadResult {
    let parent = trace::span("bench.load");
    let parent_id = parent.id();
    let mut total = LoadResult::default();
    for phase in 0u64.. {
        if stop.done() {
            break;
        }
        let started = Instant::now();
        let until = started + PHASE;
        let results: Vec<LoadResult> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|i| {
                    let rng = Rng::new(seed ^ (phase << 20), 1 + i as u64);
                    s.spawn(move || caller(addr, keys, rng, until, stop, parent_id, request_spans))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });
        let before = total.requests();
        for r in results {
            total.merge(r);
        }
        let requests = (total.requests() - before).max(1) as f64;
        total
            .phase_per_10k_s
            .push(started.elapsed().as_secs_f64() * 1e4 / requests);
    }
    drop(parent);
    total
}

/// The `q`-quantile by nearest rank over sorted values.
pub fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The server's per-type request counters must equal what the callers
/// sent (both count at the request's arrival, cache hits included).
pub fn check_server_counts(dump: &MetricsDump, sent: &[u64; 4]) -> Result<(), String> {
    for &(kind, _) in &MIX {
        let series = format!("fistful_requests_total{{type=\"{}\"}}", kind.label());
        let server = dump.counter(&series).unwrap_or(0);
        if server != sent[kind.index()] {
            return Err(format!(
                "server counted {server} {} requests, the callers sent {}",
                kind.label(),
                sent[kind.index()]
            ));
        }
    }
    Ok(())
}

/// The answer a correct server gives, computed in-process from
/// `artifacts`.
pub fn direct_answer(
    artifacts: &ServeArtifacts,
    request: &Request,
    scratch: &mut TaintScratch,
) -> Response {
    let snapshot = &artifacts.snapshot;
    match request {
        Request::AddressInfo { address } => {
            Response::AddressInfo(snapshot.cluster_of(*address).map(|cluster| {
                AddressReport {
                    address: *address,
                    cluster,
                    info: snapshot
                        .info(cluster)
                        .expect("cluster_of implies info")
                        .clone(),
                }
            }))
        }
        Request::ClusterSummary { cluster } => {
            Response::ClusterSummary(snapshot.info(*cluster).map(|info| ClusterReport {
                cluster: *cluster,
                info: info.clone(),
            }))
        }
        Request::BalancePoint { height } => {
            Response::BalancePoint(point_at(&artifacts.balances, *height).map(BalanceReport::from))
        }
        Request::TaintTrace { loot, max_txs } => {
            let bound = (*max_txs as usize).min(ServeConfig::default().max_taint_txs);
            let walk = track_theft_indexed(
                &artifacts.graph,
                loot,
                &artifacts.labels,
                snapshot,
                bound,
                scratch,
            );
            Response::TaintTrace(TaintReport::from_trace(&walk))
        }
        other => panic!("the load generator never sends {other:?}"),
    }
}

/// Sends `n` requests drawn like the load's and checks that every answer
/// is byte-identical to the in-process answer over `artifacts`.
pub fn check_sample(
    addr: SocketAddr,
    keys: &Keys,
    artifacts: &ServeArtifacts,
    seed: u64,
    n: usize,
) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("sample connect: {e}"))?;
    let mut rng = Rng::new(seed, 0x5A3F);
    let mut scratch = TaintScratch::for_graph(&artifacts.graph);
    for _ in 0..n {
        let (_, request) = keys.draw(&mut rng, u64::MAX);
        let got = client
            .call_raw(&request.encode_to_vec())
            .map_err(|e| format!("sample request: {e}"))?;
        let want = direct_answer(artifacts, &request, &mut scratch).encode_to_vec();
        if got != want {
            return Err(format!(
                "served answer to {request:?} differs from the in-process answer"
            ));
        }
    }
    Ok(())
}

/// One measured stretch of load (a segment of `query-hot`, a `live`
/// window, a `batch` probe): its round-trip quantiles and cost.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Median round trip, microseconds.
    pub p50_us: f64,
    /// 90th-percentile round trip, microseconds.
    pub p90_us: f64,
    /// 99th-percentile round trip, microseconds.
    pub p99_us: f64,
    /// Server CPU per request, microseconds.
    pub cpu_us_per_req: f64,
    /// Wall time the callers took per 10,000 requests, seconds: the
    /// median over the segment's phases, so a phase the host stalled does
    /// not carry the figure.
    pub per_10k_s: f64,
}

/// The request-side measurements of a run, segment by segment. A run's
/// figures are medians over its segments: a stretch the machine stalled
/// in moves one segment, not the run's result.
#[derive(Debug, Default)]
pub struct Served {
    /// Per-segment summaries.
    pub segments: Vec<Segment>,
    /// Successful round trips.
    pub samples: u64,
    /// Load phases.
    pub phases: u64,
}

impl Served {
    /// Summarizes one segment's load; `server_cpu_s` is the server CPU it
    /// cost.
    pub fn add(&mut self, load: &mut LoadResult, server_cpu_s: f64) -> Segment {
        load.lat_ns.sort_unstable();
        let requests = load.requests().max(1) as f64;
        let segment = Segment {
            p50_us: quantile(&load.lat_ns, 0.50) as f64 * 1e-3,
            p90_us: quantile(&load.lat_ns, 0.90) as f64 * 1e-3,
            p99_us: quantile(&load.lat_ns, 0.99) as f64 * 1e-3,
            cpu_us_per_req: server_cpu_s * 1e6 / requests,
            per_10k_s: crate::median(&load.phase_per_10k_s),
        };
        self.segments.push(segment);
        self.samples += load.lat_ns.len() as u64;
        self.phases += load.phase_per_10k_s.len() as u64;
        segment
    }

    /// Median of one per-segment figure.
    pub fn median(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        crate::median(&self.segments.iter().map(f).collect::<Vec<_>>())
    }

    /// Fills the request-side end-to-end metrics and the reader's notes.
    /// The bounded tail is p90: on a 2-vCPU VM shared with other tenants,
    /// p99 moves with host preemption far more than with the program.
    pub fn report(&self, o: &mut crate::Outcome) {
        for (name, value) in [
            ("p50_us", self.median(|s| s.p50_us)),
            ("p90_us", self.median(|s| s.p90_us)),
            ("cpu_us_per_req", self.median(|s| s.cpu_us_per_req)),
        ] {
            o.metrics.insert(name, value);
            o.note(name, value, "us");
        }
        o.note("p99_us", self.median(|s| s.p99_us), "us");
        o.note("samples", self.samples as f64, "count");
        o.note("segments", self.segments.len() as f64, "count");
        o.note("phases", self.phases as f64, "count");
    }
}
