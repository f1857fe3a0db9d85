//! Ops-plane integration tests: the four observability endpoints served
//! over plain TCP, the flight recorder, SLO accounting, and the
//! zero-overhead-when-disabled guarantee (no listener thread, no event
//! ring, byte-identical serve results with the ops plane on vs off).

use pc_cache::{DiskConfig, StoreConfig};
use pc_model::{Model, ModelConfig};
use pc_server::{RequestHandle, Server, ServerConfig, SubmitRequest};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{BatchConfig, EngineConfig, PromptCache, ServeOptions, Telemetry};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const CORPUS: &str = "the miami coast has warm beaches surf and sun all year \
    tokyo offers temples gardens and remarkable food in every district \
    you are a helpful travel assistant highlight surf spots please \
    what should i pack for the journey answer the question";

const SCHEMA: &str = r#"<schema name="trip">
    <module name="miami">the miami coast has warm beaches surf and sun</module>
    <module name="tokyo">tokyo offers temples gardens and remarkable food</module>
  </schema>"#;

const PROMPTS: [&str; 3] = [
    r#"<prompt schema="trip"><miami/>highlight surf spots please</prompt>"#,
    r#"<prompt schema="trip"><miami/>what should i pack</prompt>"#,
    r#"<prompt schema="trip"><tokyo/>answer the question</prompt>"#,
];

fn engine_with(config: EngineConfig) -> PromptCache {
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let vocab = tokenizer.vocab_size().max(64);
    let engine =
        PromptCache::new(Model::new(ModelConfig::llama_tiny(vocab), 7), tokenizer, config);
    engine.register_schema(SCHEMA).unwrap();
    engine
}

/// A fully observable engine: telemetry registry + per-module analytics.
fn observable_engine() -> PromptCache {
    engine_with(
        EngineConfig::default()
            .telemetry(Telemetry::new())
            .store(StoreConfig::default().module_analytics(true)),
    )
}

fn submit(server: &Server, prompt: String, options: ServeOptions) -> RequestHandle {
    server
        .submit_request(&SubmitRequest::new(prompt).options(options).blocking(true))
        .expect("blocking submit cannot fail")
}

fn opts() -> ServeOptions {
    ServeOptions::default().max_new_tokens(3)
}

fn localhost() -> SocketAddr {
    // Port 0: the OS picks an ephemeral port, read back via
    // `Server::ops_local_addr`.
    "127.0.0.1:0".parse().unwrap()
}

/// Minimal HTTP/1.1 GET over a raw `TcpStream` (the curl-equivalent the
/// ops plane is built for). Returns `(status_line, headers, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String, String) {
    http_request(addr, "GET", path)
}

fn http_request(addr: SocketAddr, method: &str, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ops endpoint");
    write!(stream, "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let response = String::from_utf8(response).expect("utf-8 response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_owned(), headers.to_owned(), body.to_owned())
}

/// Drives a few requests through the server so every subsystem has
/// state to report.
fn warm(server: &Server) {
    for prompt in PROMPTS {
        assert!(submit(server, prompt.into(), opts()).wait().unwrap().outcome.is_ok());
    }
    // Repeat one cached prompt with a deadline so the SLO tracker has a
    // completed deadline-carrying request.
    assert!(submit(server, PROMPTS[0].into(), opts().deadline(Duration::from_secs(30)))
        .wait()
        .unwrap()
        .outcome
        .is_ok());
}

#[test]
fn all_four_endpoints_serve_over_plain_tcp() {
    let server = Server::start(
        observable_engine(),
        ServerConfig::default()
            .ops_addr(localhost())
            .flight_recorder(256)
            .batching(BatchConfig::default().max_batch_size(4)),
    );
    let addr = server.ops_local_addr().expect("ops endpoint bound");
    warm(&server);

    // /metrics — Prometheus text with HELP metadata, per-module labeled
    // series, build info, and uptime; identical to Server::metrics_text
    // modulo the moving uptime sample.
    let (status, headers, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK", "{status}");
    assert!(headers.contains("text/plain; version=0.0.4"), "{headers}");
    assert!(metrics.contains("# HELP pc_requests_served_total "), "{metrics}");
    assert!(metrics.contains("# TYPE pc_requests_served_total counter"), "{metrics}");
    assert!(metrics.contains("pc_requests_served_total 4"), "{metrics}");
    assert!(metrics.contains("pc_module_hits_total{module=\"trip:<span>/"), "{metrics}");
    assert!(metrics.contains("pc_module_misses_total{module="), "{metrics}");
    assert!(metrics.contains("pc_module_kv_bytes_shared_total{module="), "{metrics}");
    assert!(metrics.contains("pc_build_info{version=\""), "{metrics}");
    assert!(metrics.contains("pc_uptime_seconds "), "{metrics}");
    assert!(metrics.contains("pc_slo_requests_total 1"), "{metrics}");
    assert!(metrics.contains("pc_slo_violations_total 0"), "{metrics}");
    assert!(metrics.contains("pc_slo_budget_burn_ratio_bucket{le=\"1\"}"), "{metrics}");
    // Tiered-persistence series are always exported (zero without a
    // disk tier), with per-tier occupancy labeled host/disk.
    assert!(metrics.contains("# HELP pc_demotions_total "), "{metrics}");
    assert!(metrics.contains("# HELP pc_promotions_total "), "{metrics}");
    assert!(metrics.contains("pc_cache_disk_hits_total "), "{metrics}");
    assert!(metrics.contains("pc_cache_disk_corruptions_total "), "{metrics}");
    assert!(metrics.contains("pc_store_tier_bytes{tier=\"host\"}"), "{metrics}");
    assert!(metrics.contains("pc_store_tier_bytes{tier=\"disk\"}"), "{metrics}");
    // Every non-comment line is `name[{labels}] value`.
    for line in metrics.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let (name, value) = line.rsplit_once(' ').expect("name value");
        assert!(!name.is_empty());
        assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
    }

    // /healthz — JSON rollup of liveness, queue, and SLO state.
    let (status, headers, health) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("application/json"), "{headers}");
    let health: serde_json::Value = serde_json::from_str(&health).expect("valid JSON");
    assert_eq!(health["status"], "ok");
    assert_eq!(health["served"].as_u64(), Some(4));
    assert_eq!(health["queue_depth"].as_u64(), Some(0));
    assert!(health["queue_capacity"].as_u64().unwrap() > 0);
    assert_eq!(health["slo"]["tracked"].as_u64(), Some(1));
    assert_eq!(health["slo"]["violations"].as_u64(), Some(0));
    assert!(health["slo"]["burn_p50"].as_f64().unwrap() >= 0.0);
    assert!(health["uptime_seconds"].as_f64().unwrap() >= 0.0);
    assert_eq!(health["gemm_arm"], pc_model::gemm_arm());

    // /debug/cache — store snapshot plus the per-module heat ranking.
    let (status, _, cache) = http_get(addr, "/debug/cache");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let cache: serde_json::Value = serde_json::from_str(&cache).expect("valid JSON");
    assert!(cache["stats"]["hits"].as_u64().unwrap() > 0);
    let modules = cache["modules"].as_array().unwrap();
    assert!(!modules.is_empty());
    for m in modules {
        assert!(m["module"].as_str().unwrap().starts_with("trip:"));
        assert!(m["size_bytes"].as_u64().unwrap() > 0);
        let tier = m["tier"].as_str().unwrap();
        assert!(matches!(tier, "host" | "disk"), "{tier}");
    }
    // The tier counters ride in stats (zero here: no disk tier).
    assert_eq!(cache["stats"]["demotions"].as_u64(), Some(0));
    assert_eq!(cache["stats"]["disk_bytes"].as_u64(), Some(0));
    let heat = cache["heat"].as_array().unwrap();
    assert!(!heat.is_empty(), "analytics enabled → heat ranking present");
    assert!(heat[0]["hits"].as_u64().unwrap() >= heat[heat.len() - 1]["hits"].as_u64().unwrap());
    assert!(heat[0]["bytes_shared"].as_u64().unwrap() > 0, "zero-copy bytes attributed");

    // /debug/batch — live batch membership and prefix groups (batching
    // is enabled, so at least one tick has published a snapshot).
    let (status, _, batch) = http_get(addr, "/debug/batch");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let batch: serde_json::Value = serde_json::from_str(&batch).expect("valid JSON");
    assert_eq!(batch["enabled"], true);
    assert_eq!(batch["max_batch_size"].as_u64(), Some(4));
    assert!(batch["sequences"].as_array().is_some());
    assert!(batch["groups"].as_array().is_some());

    // /debug/flight — one JSON object per line, each with the documented
    // seq/request/kind envelope.
    let (status, headers, flight) = http_get(addr, "/debug/flight");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(headers.contains("application/x-ndjson"), "{headers}");
    assert!(!flight.is_empty());
    let mut kinds = Vec::new();
    for line in flight.lines() {
        let event: serde_json::Value = serde_json::from_str(line).expect("valid JSONL");
        assert!(event["seq"].as_u64().is_some(), "{line}");
        assert!(event["request"].as_u64().is_some() || event["request"] == "batch", "{line}");
        kinds.push(event["kind"].as_str().unwrap().to_owned());
    }
    for expected in ["submit", "pickup", "batch_join", "fetch", "finish", "tick", "batch_leave"] {
        assert!(kinds.iter().any(|k| k == expected), "missing {expected} in {kinds:?}");
    }
    assert_eq!(flight, server.flight_json(), "endpoint and API agree");

    // Unknown paths 404; non-GET methods 405.
    let (status, _, _) = http_get(addr, "/nope");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let (status, _, _) = http_request(addr, "POST", "/metrics");
    assert_eq!(status, "HTTP/1.1 405 Method Not Allowed");

    server.shutdown();
}

#[test]
fn worker_pool_server_reports_batch_disabled_and_flight_404() {
    // No batching, no flight recorder: /debug/batch reports disabled and
    // /debug/flight is a 404 with a pointer to the knob.
    let server = Server::start(
        observable_engine(),
        ServerConfig::default().workers(2).ops_addr(localhost()),
    );
    let addr = server.ops_local_addr().unwrap();
    warm(&server);
    let (status, _, batch) = http_get(addr, "/debug/batch");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(batch, "{\"enabled\":false}");
    let (status, _, body) = http_get(addr, "/debug/flight");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(body.contains("flight_recorder"), "{body}");
    assert_eq!(server.flight_json(), "");
    server.shutdown();
}

#[test]
fn slo_violations_are_counted() {
    let server = Server::start(observable_engine(), ServerConfig::default().workers(1));
    // An impossible budget: the serve completes but overruns, or is shed
    // dead-on-pickup — either way it burned its whole budget.
    let _ = submit(&server, PROMPTS[0].into(), opts().deadline(Duration::from_nanos(1)))
        .wait()
        .unwrap();
    let text = server.metrics_text();
    assert!(text.contains("pc_slo_violations_total 1"), "{text}");
    assert!(text.contains("pc_slo_requests_total 1"), "{text}");
    server.shutdown();
}

#[test]
fn ops_plane_disabled_is_zero_overhead_and_byte_identical() {
    // Disabled = the default config: no listener thread, no event ring.
    let baseline = Server::start(observable_engine(), ServerConfig::default());
    assert!(baseline.ops_local_addr().is_none(), "no listener by default");
    assert_eq!(baseline.flight_json(), "", "no ring by default");

    // Same workload through a fully instrumented server: results must be
    // byte-identical — observation never perturbs serving.
    let observed = Server::start(
        observable_engine(),
        ServerConfig::default().ops_addr(localhost()).flight_recorder(128),
    );
    let run = |server: &Server| -> Vec<(Vec<u32>, String)> {
        PROMPTS
            .iter()
            .map(|p| {
                let r = submit(server, (*p).into(), opts()).wait().unwrap().outcome.unwrap();
                (r.tokens, r.text)
            })
            .collect()
    };
    let plain = run(&baseline);
    let instrumented = run(&observed);
    assert_eq!(plain, instrumented, "ops plane must not change outputs");
    assert!(!observed.flight_json().is_empty(), "instrumented run recorded events");
    baseline.shutdown();
    observed.shutdown();
}

#[test]
fn batched_server_telemetry_on_off_byte_identity() {
    // The PR 2 on/off byte-identity smoke, with ServerConfig::batching
    // enabled: engine telemetry (and the ops plane) must not perturb
    // batched serving either.
    let run = |config: EngineConfig, server_config: ServerConfig| -> Vec<Vec<u32>> {
        let server = Server::start(engine_with(config), server_config);
        let handles: Vec<_> =
            PROMPTS.iter().map(|p| submit(&server, (*p).into(), opts())).collect();
        let out = handles
            .into_iter()
            .map(|h| h.wait().unwrap().outcome.unwrap().tokens)
            .collect();
        server.shutdown();
        out
    };
    let batching = || ServerConfig::default().batching(BatchConfig::default().max_batch_size(4));
    let quiet = run(EngineConfig::default(), batching());
    let observed = run(
        EngineConfig::default()
            .telemetry(Telemetry::new())
            .store(StoreConfig::default().module_analytics(true)),
        batching().ops_addr(localhost()).flight_recorder(128),
    );
    assert_eq!(quiet, observed, "telemetry + ops plane must not perturb batched output");
}

/// The store series a document or a scrape names: every `pc_cache_*` and
/// `pc_store_*` name, plus `pc_demotions_total` and `pc_promotions_total`.
/// A name is a maximal `[a-z0-9_]` run starting `pc_`, so a wildcard such
/// as `pc_cache_disk_*` yields a name no scrape has.
fn store_series(text: &str) -> std::collections::BTreeSet<String> {
    let is_name = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let mut names = std::collections::BTreeSet::new();
    for (at, _) in text.match_indices("pc_") {
        if text[..at].chars().next_back().is_some_and(is_name) {
            continue;
        }
        let rest = &text[at..];
        let name = rest[..rest.find(|c: char| !is_name(c)).unwrap_or(rest.len())].trim_end_matches('_');
        if name.starts_with("pc_cache_")
            || name.starts_with("pc_store_")
            || name == "pc_demotions_total"
            || name == "pc_promotions_total"
        {
            names.insert(name.to_owned());
        }
    }
    names
}

#[test]
fn store_series_in_the_scrape_are_the_documented_ones() {
    let dir = std::env::temp_dir().join(format!("pc-ops-store-series-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(
        engine_with(
            EngineConfig::default()
                .telemetry(Telemetry::new())
                .store(StoreConfig::default().disk(DiskConfig::new(&dir))),
        ),
        ServerConfig::default().ops_addr(localhost()),
    );
    warm(&server);
    let (status, _, metrics) = http_get(server.ops_local_addr().unwrap(), "/metrics");
    assert_eq!(status, "HTTP/1.1 200 OK");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let exported: String = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .collect::<Vec<_>>()
        .join("\n");
    let exported = store_series(&exported);
    for line in metrics.lines().filter(|l| l.starts_with("pc_store_tier_bytes{")) {
        assert!(
            line.starts_with("pc_store_tier_bytes{tier=\"host\"}")
                || line.starts_with("pc_store_tier_bytes{tier=\"disk\"}"),
            "{line}"
        );
    }

    let readme = include_str!("../../../README.md");
    let table = readme
        .split("### Prometheus metrics")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").nth(1))
        .expect("README has a Prometheus metrics table");
    assert_eq!(store_series(table), exported, "README metrics table vs /metrics");
    let observability = store_series(include_str!("../../../docs/OBSERVABILITY.md"));
    assert!(
        observability.is_subset(&exported),
        "docs/OBSERVABILITY.md names series /metrics does not export: {:?}",
        observability.difference(&exported).collect::<Vec<_>>()
    );
}
