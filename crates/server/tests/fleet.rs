//! Fleet integration tests: byte-identity of sharded serving against a
//! single engine across shard counts and replication factors, worker
//! kill mid-run (thread and process mode), schema-affinity routing, and
//! the fleet ops endpoints.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pc_server::wire::TokenizerSpec;
use pc_server::{
    EngineBlueprint, FleetConfig, FleetFaults, Router, ShedReason, SubmitRequest,
};
use pc_model::ModelConfig;
use prompt_cache::{ServeOutcome, ServeRequest};

const CORPUS: &str = "tokyo offers temples gardens and remarkable food \
    kyoto keeps quiet shrines old wooden lanes \
    the miami coast has warm beaches surf sun \
    plan a day trip what should i pack answer briefly please";

const SCHEMA_EAST: &str = r#"<schema name="east">
    <module name="tokyo">tokyo offers temples gardens and remarkable food</module>
    <module name="kyoto">kyoto keeps quiet shrines old wooden lanes</module>
  </schema>"#;

const SCHEMA_WEST: &str = r#"<schema name="west">
    <module name="miami">the miami coast has warm beaches surf sun</module>
  </schema>"#;

fn blueprint() -> EngineBlueprint {
    EngineBlueprint::new(
        ModelConfig::llama_tiny(64),
        11,
        TokenizerSpec::Word {
            corpus: vec![CORPUS.to_owned()],
        },
    )
}

fn prompts() -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..4 {
        out.push(format!(
            r#"<prompt schema="east"><tokyo/>plan a day trip please q{i}</prompt>"#
        ));
        out.push(format!(
            r#"<prompt schema="east"><kyoto/>what should i pack q{i}</prompt>"#
        ));
        out.push(format!(
            r#"<prompt schema="west"><miami/>answer briefly q{i}</prompt>"#
        ));
    }
    out
}

/// Ground truth: the same prompts served on one single-process engine
/// built from the same blueprint.
fn single_engine_outputs(prompts: &[String]) -> Vec<(String, Vec<u32>)> {
    let engine = blueprint().build();
    engine.register_schema(SCHEMA_EAST).unwrap();
    engine.register_schema(SCHEMA_WEST).unwrap();
    prompts
        .iter()
        .map(|p| {
            let response = engine
                .serve(&ServeRequest::new(p).max_new_tokens(3))
                .unwrap()
                .into_response();
            (response.text, response.tokens)
        })
        .collect()
}

fn start_router(config: FleetConfig) -> Router {
    let router = Router::start(blueprint(), config);
    router.register_schema(SCHEMA_EAST).unwrap();
    router.register_schema(SCHEMA_WEST).unwrap();
    router
}

fn fleet_outputs(router: &Router, prompts: &[String]) -> Vec<(String, Vec<u32>)> {
    let handles: Vec<_> = prompts
        .iter()
        .map(|p| {
            router
                .submit(&SubmitRequest::new(p.clone()).max_new_tokens(3).blocking(true))
                .expect("blocking submit cannot fail")
        })
        .collect();
    handles
        .into_iter()
        .map(|h| {
            let response = h.wait().expect("router alive").outcome.unwrap();
            (response.text, response.tokens)
        })
        .collect()
}

#[test]
fn fleet_output_is_byte_identical_across_shard_counts_and_replication() {
    let prompts = prompts();
    let expected = single_engine_outputs(&prompts);
    for shards in [1usize, 2, 4] {
        for replication in [1usize, 2] {
            let router = start_router(
                FleetConfig::default()
                    .shards(shards)
                    .replication(replication),
            );
            let got = fleet_outputs(&router, &prompts);
            assert_eq!(
                got, expected,
                "shards={shards} replication={replication} must match single-process output"
            );
            router.shutdown();
        }
    }
}

/// Deterministic chaos: kill one worker once it has completed N serves.
#[derive(Debug)]
struct KillAfter {
    worker: usize,
    after: u64,
}

impl FleetFaults for KillAfter {
    fn pre_serve_delay(&self, _worker: usize, _id: u64) -> Duration {
        Duration::ZERO
    }

    fn kill_after(&self, worker: usize) -> Option<u64> {
        (worker == self.worker).then_some(self.after)
    }
}

#[test]
fn worker_kill_mid_run_reroutes_with_byte_identical_output() {
    let prompts = prompts();
    let expected = single_engine_outputs(&prompts);
    let router = start_router(FleetConfig::default().shards(2).queue_capacity(64));
    // Kill the owner of `east` after its second completed serve, so the
    // rest of its queue must drain onto the survivor.
    let victim = router.owners_of("east")[0];
    router.set_fleet_faults(Some(Arc::new(KillAfter {
        worker: victim,
        after: 2,
    })));
    let got = fleet_outputs(&router, &prompts);
    assert_eq!(got, expected, "output must survive the worker loss");
    let info = &router.workers()[victim];
    assert!(!info.alive, "victim must be dead");
    assert!(
        router.rerouted_total() > 0,
        "the victim's backlog must have re-routed"
    );
    router.shutdown();
}

#[test]
fn replicated_schema_survives_owner_loss_without_reencoding() {
    let prompts = prompts();
    let expected = single_engine_outputs(&prompts);
    let router = start_router(FleetConfig::default().shards(3).replication(2));
    let owners = router.owners_of("east");
    assert_eq!(owners.len(), 2, "replication factor 2 means two owners");
    router.kill_worker(owners[0]);
    let got = fleet_outputs(&router, &prompts);
    assert_eq!(got, expected, "the surviving replica must serve identically");
    router.shutdown();
}

#[test]
fn affinity_routing_prefers_owners_and_can_be_disabled() {
    let prompts = prompts();
    let affinity = start_router(FleetConfig::default().shards(4));
    fleet_outputs(&affinity, &prompts);
    let (owner_routed, spilled) = affinity.routing_split();
    assert!(
        owner_routed > 0,
        "affinity mode must route to schema owners (spilled={spilled})"
    );
    affinity.shutdown();

    let spread = start_router(FleetConfig::default().shards(4).affinity(false));
    fleet_outputs(&spread, &prompts);
    let (owner_routed, _) = spread.routing_split();
    assert_eq!(owner_routed, 0, "affinity off never counts owner routing");
    spread.shutdown();
}

#[test]
fn killing_every_worker_sheds_instead_of_hanging() {
    let router = start_router(FleetConfig::default().shards(2));
    router.kill_worker(0);
    router.kill_worker(1);
    let handle = router
        .submit(
            &SubmitRequest::new(
                r#"<prompt schema="west"><miami/>answer briefly q0</prompt>"#,
            )
            .max_new_tokens(3)
            .blocking(true),
        )
        .expect("submission is accepted");
    let result = handle.wait().expect("reply delivered");
    assert_eq!(
        result.outcome.shed_reason(),
        Some(ShedReason::ShuttingDown),
        "a dead fleet sheds rather than hangs"
    );
    router.shutdown();
}

#[test]
fn fleet_deadline_and_cancel_still_apply() {
    let router = start_router(FleetConfig::default().shards(2));
    // A zero deadline is dead on arrival: shed at pickup, never served.
    let dead = router
        .submit(
            &SubmitRequest::new(
                r#"<prompt schema="west"><miami/>answer briefly q1</prompt>"#,
            )
            .max_new_tokens(3)
            .deadline(Duration::ZERO)
            .blocking(true),
        )
        .unwrap();
    let result = dead.wait().unwrap();
    assert!(
        matches!(
            result.outcome.shed_reason(),
            Some(ShedReason::DeadlineBeforeStart | ShedReason::CancelledInQueue)
        ) || matches!(
            &result.outcome,
            pc_server::RequestOutcome::Ok(r) if r.outcome == ServeOutcome::DeadlineExceeded
        ),
        "a zero budget cannot produce a complete serve: {:?}",
        result.outcome
    );
    router.shutdown();
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect fleet ops");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    (head.lines().next().unwrap_or_default().to_owned(), body.to_owned())
}

#[test]
fn fleet_ops_endpoints_serve_metrics_and_debug_views() {
    let router = start_router(
        FleetConfig::default()
            .shards(2)
            .ops_addr("127.0.0.1:0".parse().unwrap()),
    );
    fleet_outputs(&router, &prompts()[..3]);
    let addr = router.ops_local_addr().expect("ops endpoint bound");

    let (status, metrics) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    assert!(metrics.contains("pc_fleet_requests_served_total"), "{metrics}");
    assert!(metrics.contains("pc_worker_alive{worker=\"0\"} 1"), "{metrics}");
    assert!(metrics.contains("pc_worker_served_total{worker="), "{metrics}");

    let (status, health) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert!(health.contains("\"workers_alive\":2"), "{health}");

    let (status, debug) = http_get(addr, "/debug/fleet");
    assert!(status.contains("200"), "{status}");
    assert!(debug.contains("\"shards\":2"), "{debug}");
    assert!(debug.contains("\"east\":["), "schema placement: {debug}");
    assert!(debug.contains("\"routed_affinity\""), "{debug}");

    let (status, _) = http_get(addr, "/debug/nope");
    assert!(status.contains("404"), "{status}");
    router.shutdown();
}

#[test]
fn process_mode_serves_byte_identically_and_survives_worker_kill() {
    let prompts = prompts();
    let expected = single_engine_outputs(&prompts);
    let router = start_router(
        FleetConfig::default()
            .shards(2)
            .process_mode(true)
            .worker_bin(env!("CARGO_BIN_EXE_pc_fleet_worker")),
    );
    let got = fleet_outputs(&router, &prompts);
    assert_eq!(got, expected, "process-mode output must match single-process");

    // Kill one OS worker and keep serving: the survivor re-encodes on
    // demand and answers byte-identically.
    router.kill_worker(0);
    let got = fleet_outputs(&router, &prompts);
    assert_eq!(got, expected, "output must survive the process kill");
    assert!(!router.workers()[0].alive);
    router.shutdown();
}
