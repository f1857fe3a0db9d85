//! One runner per paper artifact. Each returns a [`Report`] with
//! human-readable markdown and machine-readable JSON.

mod ablations;
mod batching_exp;
mod persistence_exp;
mod real_figs;
mod resilience_exp;
mod serving_exp;
mod sharding_exp;
mod sim_figs;
mod threads_exp;
mod ttft_exp;

pub use ablations::ablations;
pub use batching_exp::batching;
pub use persistence_exp::persistence;
pub use resilience_exp::resilience;
pub use serving_exp::{rag, throughput};
pub use sharding_exp::sharding;
pub use threads_exp::threads;
pub use ttft_exp::ttft_breakdown;
pub use real_figs::{fig6_code_generation, fig7_personalization, fig8_parameterized, table1};
pub use sim_figs::{
    appendix, e2e, fig3, fig4, fig5, measured_fully_cached, memcpy, modelsize, table2,
};

use serde::Serialize;

/// One experiment's output.
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Paper artifact id (`fig3`, `table1`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Markdown body (tables plus commentary).
    pub markdown: String,
    /// Machine-readable results.
    pub json: serde_json::Value,
}

/// Every experiment id the `figures` binary accepts, in run order.
pub const ALL_IDS: [&str; 21] = [
    "fig3", "fig4", "fig5", "table1", "table2", "memcpy", "modelsize", "e2e", "fig6", "fig7",
    "fig8", "appendix", "ablations", "throughput", "rag", "threads", "ttft_breakdown",
    "resilience", "batching", "persistence", "sharding",
];

/// Runs an experiment by id. `quick` shrinks sample counts for smoke
/// tests.
pub fn run(id: &str, quick: bool) -> Option<Report> {
    match id {
        "fig3" => Some(fig3()),
        "fig4" => Some(fig4(quick)),
        "fig5" => Some(fig5(quick)),
        "table1" => Some(table1(quick)),
        "table2" => Some(table2()),
        "memcpy" => Some(memcpy()),
        "modelsize" => Some(modelsize()),
        "e2e" => Some(e2e()),
        "fig6" => Some(fig6_code_generation()),
        "fig7" => Some(fig7_personalization()),
        "fig8" => Some(fig8_parameterized()),
        "appendix" => Some(appendix()),
        "ablations" => Some(ablations(quick)),
        "throughput" => Some(throughput(quick)),
        "rag" => Some(rag(quick)),
        "threads" => Some(threads(quick)),
        "ttft_breakdown" => Some(ttft_breakdown(quick)),
        "resilience" => Some(resilience(quick)),
        "batching" => Some(batching(quick)),
        "persistence" => Some(persistence(quick)),
        "sharding" => Some(sharding(quick)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_none() {
        assert!(run("fig99", true).is_none());
    }

    #[test]
    fn all_ids_resolve() {
        // Only check dispatch for the cheap, purely-analytic experiments;
        // the measured ones run in the integration suite and binary.
        for id in ["fig3", "table2", "memcpy", "modelsize", "appendix"] {
            assert!(run(id, true).is_some(), "{id}");
        }
    }
}
