//! Sharded-fleet economics as the fleet widens. The same prompt mix is
//! replayed through a [`Router`] at shard counts {1, 2, 4}, and every
//! configuration is held to the fleet's core invariant — output
//! **byte-identical** to a single-process engine — while we measure:
//!
//! 1. **Store hit rate** — affinity routing keeps a schema's requests on
//!    the shards that own (and pre-encoded) its modules, so widening the
//!    fleet does not re-encode them. (The least-loaded arm that spread
//!    them is retired; its last numbers are in EXPERIMENTS.md.)
//! 2. **Queue wait** — time from submission to shard pickup, per
//!    request, as shards absorb the backlog.
//! 3. **Shed rate** — requests dropped before service (zero on a
//!    healthy fleet; recorded so regressions surface in the artifact).

use super::Report;
use crate::emit::{fmt_time_s, Table};
use pc_model::ModelConfig;
use pc_server::wire::TokenizerSpec;
use pc_server::{EngineBlueprint, FleetConfig, Router, SubmitRequest};
use prompt_cache::ServeRequest;
use serde_json::json;
use std::time::Duration;

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

fn prompts(reps: usize) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..reps {
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

/// Ground truth: the same prompts on one single-process engine built
/// from the same blueprint.
fn single_engine_outputs(prompts: &[String]) -> Vec<(String, Vec<u32>)> {
    let engine = blueprint().build();
    engine.register_schema(SCHEMA_EAST).expect("register east");
    engine.register_schema(SCHEMA_WEST).expect("register west");
    prompts
        .iter()
        .map(|p| {
            let response = engine
                .serve(&ServeRequest::new(p).max_new_tokens(3))
                .expect("serve")
                .into_response();
            (response.text, response.tokens)
        })
        .collect()
}

struct ConfigRow {
    shards: usize,
    hits: u64,
    misses: u64,
    hit_rate: f64,
    mean_queue_wait_s: f64,
    shed: usize,
    shed_rate: f64,
    routed_affinity: u64,
    routed_spilled: u64,
    rerouted: u64,
}

/// Replays the prompt mix through one fleet configuration, asserting
/// byte-identity against `expected` and returning the measured row.
fn run_config(shards: usize, prompts: &[String], expected: &[(String, Vec<u32>)]) -> ConfigRow {
    let router = Router::start(
        blueprint(),
        FleetConfig::default()
            .shards(shards)
            .queue_capacity(prompts.len().max(64)),
    );
    router.register_schema(SCHEMA_EAST).expect("register east");
    router.register_schema(SCHEMA_WEST).expect("register west");

    let handles: Vec<_> = prompts
        .iter()
        .map(|p| {
            router
                .submit(&SubmitRequest::new(p.clone()).max_new_tokens(3).blocking(true))
                .expect("blocking submit cannot fail")
        })
        .collect();

    let mut got = Vec::new();
    let mut shed = 0usize;
    let mut queue_wait = Duration::ZERO;
    for handle in handles {
        let result = handle.wait().expect("router alive");
        queue_wait += result.queue_time;
        match result.outcome.ok() {
            Some(response) => got.push((response.text, response.tokens)),
            None => shed += 1,
        }
    }
    assert_eq!(shed, 0, "a healthy fleet sheds nothing");
    assert_eq!(
        got, expected,
        "shards={shards} must match single-process output"
    );

    let (hits, misses) = router
        .workers()
        .iter()
        .fold((0u64, 0u64), |(h, m), w| (h + w.store_hits, m + w.store_misses));
    let (routed_affinity, routed_spilled) = router.routing_split();
    let rerouted = router.rerouted_total();
    router.shutdown();

    ConfigRow {
        shards,
        hits,
        misses,
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        mean_queue_wait_s: queue_wait.as_secs_f64() / prompts.len() as f64,
        shed,
        shed_rate: shed as f64 / prompts.len() as f64,
        routed_affinity,
        routed_spilled,
        rerouted,
    }
}

/// Sharded-fleet routing figures. Full runs also write
/// `BENCH_sharding.json` at the working directory root.
pub fn sharding(quick: bool) -> Report {
    let reps = if quick { 3 } else { 8 };
    let prompts = prompts(reps);
    let expected = single_engine_outputs(&prompts);

    let rows: Vec<ConfigRow> = [1usize, 2, 4]
        .into_iter()
        .map(|shards| run_config(shards, &prompts, &expected))
        .collect();

    let mut table = Table::new(&[
        "Shards",
        "hit rate",
        "queue wait (mean)",
        "shed rate",
        "owner-routed",
    ]);
    for r in &rows {
        table.row(&[
            format!("{}", r.shards),
            format!("{:.3}", r.hit_rate),
            fmt_time_s(r.mean_queue_wait_s),
            format!("{:.3}", r.shed_rate),
            format!("{}", r.routed_affinity),
        ]);
    }

    let json = json!({
        "prompts": prompts.len(),
        "schemas": 2,
        "configs": rows
            .iter()
            .map(|r| {
                json!({
                    "shards": r.shards,
                    "hits": r.hits,
                    "misses": r.misses,
                    "hit_rate": r.hit_rate,
                    "mean_queue_wait_s": r.mean_queue_wait_s,
                    "shed": r.shed,
                    "shed_rate": r.shed_rate,
                    "routed_affinity": r.routed_affinity,
                    "routed_spilled": r.routed_spilled,
                    "rerouted": r.rerouted,
                    "byte_identical": true,
                })
            })
            .collect::<Vec<_>>(),
    });

    // The perf-trajectory file: full runs only (quick doubles as the
    // test path and must stay side-effect free).
    let mut bench_path = None;
    if !quick {
        let path = "BENCH_sharding.json";
        std::fs::write(path, serde_json::to_string_pretty(&json).expect("serialise"))
            .expect("write BENCH_sharding.json");
        bench_path = Some(path.to_owned());
    }

    Report {
        id: "sharding",
        title: "Sharded fleet: affinity routing across shard counts",
        markdown: format!(
            "{}\n{} prompts over 2 schemas; every configuration byte-identical \
             to a single-process engine{}\n",
            table.to_markdown(),
            prompts.len(),
            bench_path
                .as_deref()
                .map(|p| format!("; trajectory at `{p}`"))
                .unwrap_or_default()
        ),
        json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_invariants_hold() {
        let r = sharding(true);
        let configs = r.json["configs"].as_array().unwrap();
        assert_eq!(configs.len(), 3, "3 shard counts");
        for c in configs {
            assert!(c["byte_identical"].as_bool().unwrap());
            assert_eq!(c["shed"].as_u64().unwrap(), 0);
        }
        // Owners pre-encode each schema's modules, so widening the fleet
        // keeps the single-shard hit rate: no request lands on a shard
        // that has to re-encode.
        let rate = |i: usize| configs[i]["hit_rate"].as_f64().unwrap();
        assert!(
            rate(2) >= rate(0),
            "4 shards {} must not trail 1 shard {}",
            rate(2),
            rate(0)
        );
        // Quick mode writes no artifact.
        assert!(!std::path::Path::new("BENCH_sharding.json").exists());
    }
}
