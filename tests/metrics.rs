//! Integration tests of the observability layer: the binary
//! `MetricsDump` scrape and the HTTP `/metrics` exposition must report
//! the identical counter values (both render the same registry snapshot
//! through `Core::metrics_dump`), the per-type counters must agree with
//! the requests a client actually issued — on both serve engines — and
//! the v2 `Stats` tail (`uptime_seconds`, `requests_total`) must move
//! with traffic.

use fistful::serve::httpexpo::MetricsExporter;
use fistful::serve::{
    render_prometheus, Client, EventServeConfig, EventServer, MetricsDump, MetricsHandle, Request,
    ServeArtifacts, ServeConfig, Server,
};
use fistful::sim::SimConfig;
use fistful_bench::{serve_artifacts, Workbench};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, OnceLock};

fn fixtures() -> &'static Arc<ServeArtifacts> {
    static FIX: OnceLock<Arc<ServeArtifacts>> = OnceLock::new();
    FIX.get_or_init(|| {
        let wb = Workbench::build(SimConfig::tiny());
        Arc::new(serve_artifacts(&wb))
    })
}

/// One scrape over a raw HTTP/1.1 socket; returns the response body.
fn http_scrape(addr: SocketAddr) -> String {
    let mut sock = TcpStream::connect(addr).expect("connect to exporter");
    sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n").expect("send scrape");
    let mut response = String::new();
    sock.read_to_string(&mut response).expect("read scrape");
    let (head, body) = response.split_once("\r\n\r\n").expect("http head/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    body.to_string()
}

/// Issues a fixed request mix, then asserts that a binary dump taken
/// right afterwards and an HTTP scrape taken right after *that* agree on
/// every counter series. Counters may only move when a binary request is
/// dispatched, and the HTTP path never goes through request dispatch, so
/// the two exposures must be value-identical — gauges (inflight, uptime)
/// and the metrics-request latency histogram legitimately differ between
/// the two instants, which is why only counters are compared.
fn assert_binary_and_http_agree(binary_addr: SocketAddr, handle: MetricsHandle) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind exporter");
    let exporter = MetricsExporter::start_with_listener(listener, handle).expect("start exporter");

    let mut client = Client::connect(binary_addr).expect("connect");
    for _ in 0..5 {
        client.ping().expect("ping");
    }
    for address in 0..3 {
        client.address_info(address).expect("addr");
    }
    client.cluster_summary(0).expect("cluster");
    client.balance_point(1).expect("balance");
    let dump = client.metrics_dump().expect("binary dump");
    let body = http_scrape(exporter.local_addr());

    // The issued mix is visible, with exact counts (the dump request
    // itself lands under type="metrics", not under the query types).
    assert_eq!(dump.counter("fistful_requests_total{type=\"ping\"}"), Some(5));
    assert_eq!(dump.counter("fistful_requests_total{type=\"addr\"}"), Some(3));
    assert_eq!(dump.counter("fistful_requests_total{type=\"cluster\"}"), Some(1));
    assert_eq!(dump.counter("fistful_requests_total{type=\"balance\"}"), Some(1));
    assert_eq!(dump.counter("fistful_requests_total{type=\"metrics\"}"), Some(1));

    // Every counter series the binary dump reports appears in the HTTP
    // exposition with the identical value.
    assert!(!dump.counters.is_empty());
    for (series, value) in &dump.counters {
        let line = format!("{series} {value}");
        assert!(
            body.lines().any(|l| l == line),
            "HTTP scrape is missing or disagrees on `{line}`:\n{body}"
        );
    }

    // And the exposition is exactly what the local renderer produces for
    // those counters — the HTTP body is render_prometheus of a snapshot
    // whose counter section matches the binary dump's.
    let local = render_prometheus(&dump);
    for line in local.lines().filter(|l| l.starts_with("fistful_requests_total")) {
        assert!(body.contains(line), "missing `{line}` in HTTP scrape:\n{body}");
    }

    exporter.shutdown();
}

#[test]
fn threaded_engine_binary_dump_matches_http_scrape() {
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 2, ..ServeConfig::default() };
    let server = Server::start(config, Arc::clone(fixtures())).expect("start server");
    assert_binary_and_http_agree(server.local_addr(), server.metrics_handle());
    server.shutdown();
}

#[test]
fn event_engine_binary_dump_matches_http_scrape() {
    let config = EventServeConfig { workers: 2, ..EventServeConfig::default() };
    let server = EventServer::start(config, Arc::clone(fixtures())).expect("start event server");
    assert_binary_and_http_agree(server.local_addr(), server.metrics_handle());
    server.shutdown();
}

#[test]
fn latency_histograms_fill_in_for_the_issued_mix() {
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 1, ..ServeConfig::default() };
    let server = Server::start(config, Arc::clone(fixtures())).expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for _ in 0..4 {
        client.ping().expect("ping");
    }
    client.address_info(1).expect("addr");
    let dump = client.metrics_dump().expect("dump");

    let ping = dump
        .histograms
        .iter()
        .find(|h| h.name == "fistful_request_latency_seconds{type=\"ping\"}")
        .expect("ping latency histogram");
    assert_eq!(ping.count, 4);
    assert_eq!(ping.buckets.iter().sum::<u64>(), 4, "observations land in buckets");
    // The sum's value is timing: a Ping can spend under 1 us in the
    // request core (the timer does not cover the socket). Sub-microsecond
    // sums are pinned by `metrics::tests::sub_microsecond_observations_add_to_the_sum`.

    // Kinds that never ran stay empty rather than disappearing: the
    // exposition's series set is stable across scrapes.
    let taint = dump
        .histograms
        .iter()
        .find(|h| h.name == "fistful_request_latency_seconds{type=\"taint\"}")
        .expect("taint latency histogram");
    assert_eq!(taint.count, 0);
    server.shutdown();
}

#[test]
fn stats_reports_uptime_and_requests_total() {
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 1, ..ServeConfig::default() };
    let server = Server::start(config, Arc::clone(fixtures())).expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let first = client.stats().expect("stats");
    // The Stats request itself is counted at dispatch entry, so the very
    // first reading already shows it.
    assert_eq!(first.requests_total, 1);
    for _ in 0..6 {
        client.ping().expect("ping");
    }
    let second = client.stats().expect("stats");
    assert_eq!(second.requests_total, first.requests_total + 7, "6 pings + this Stats");
    assert!(second.uptime_seconds >= first.uptime_seconds);

    // The same totals flow into the scrape's counter sum.
    let dump = client.metrics_dump().expect("dump");
    let scraped: u64 = dump
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("fistful_requests_total{"))
        .map(|&(_, v)| v)
        .sum();
    assert_eq!(scraped, second.requests_total + 1, "+1 for the dump request itself");
    server.shutdown();
}

#[test]
fn metrics_dump_is_never_cached() {
    // With the response cache on, two dumps over the same connection must
    // differ (the counters moved between them) — a cached byte-identical
    // replay would be stale on arrival.
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 1, ..ServeConfig::default() };
    let server = Server::start(config, Arc::clone(fixtures())).expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let first: MetricsDump = client.metrics_dump().expect("first dump");
    let second = client.metrics_dump().expect("second dump");
    assert_eq!(first.counter("fistful_requests_total{type=\"metrics\"}"), Some(1));
    assert_eq!(second.counter("fistful_requests_total{type=\"metrics\"}"), Some(2));
    assert_ne!(first, second);
    server.shutdown();
}

#[test]
fn cache_counters_split_by_shard_and_sum_to_stats() {
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), workers: 1, ..ServeConfig::default() };
    let server = Server::start(config, Arc::clone(fixtures())).expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Same cacheable key twice: one miss, then one hit, somewhere in the
    // shard space.
    for _ in 0..2 {
        client.call(&Request::AddressInfo { address: 1 }).expect("addr");
    }
    let stats = client.stats().expect("stats");
    let dump = client.metrics_dump().expect("dump");
    let sum = |prefix: &str| -> u64 {
        dump.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|&(_, v)| v)
            .sum()
    };
    assert!(stats.cache_hits >= 1);
    assert_eq!(sum("fistful_cache_hits_total{"), stats.cache_hits);
    assert_eq!(sum("fistful_cache_misses_total{"), stats.cache_misses);
    server.shutdown();
}
