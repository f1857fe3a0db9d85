//! Attention-state storage for Prompt Cache (paper §4.1 and §4.2).
//!
//! This crate owns everything about *keeping* encoded prompt modules:
//!
//! * [`ModuleStore`] — a thread-safe, two-tier store. Every encoded
//!   module lives in host memory ("CPU memory (host DRAM)") under an
//!   optional host-capacity bound; an optional persistent [`disk`] tier
//!   catches demotions so modules survive restarts. When the bound is
//!   exceeded a configurable [`EvictionPolicy`] — the cache-replacement
//!   strategy the paper names as future work — picks the victims, which
//!   are *demoted* to disk when a disk tier exists and dropped otherwise.
//!   Reads share the stored allocation; the paper's GPU memory tier is
//!   modelled analytically in `pc-simulator`, not here.
//! * [`segment`] — the on-disk record framing, byte-for-byte specified in
//!   `docs/PERSISTENCE.md`.
//! * [`disk`] — the persistent tier itself ([`DiskTier`]): append-only
//!   segment files, a checksummed `INDEX`, scan-rebuild crash recovery,
//!   and corrupt-entry degradation.
//! * [`codec`] — a compact binary serialisation of encoded modules: the
//!   exact payload of every disk record.
//! * [`memory`] — Table 2's per-token memory accounting.
//! * [`analytics`] — opt-in per-module heat analytics
//!   ([`CacheAnalytics`]): hits, misses, degrades, evictions,
//!   relocations, bytes served zero-copy, and batched shared-row
//!   attribution, exported as labeled Prometheus series and a
//!   heat ranking.
//! * [`shard`] — consistent-hash schema→worker ownership ([`ShardMap`],
//!   rendezvous hashing) for the sharded serving fleet: deterministic,
//!   balanced, and stable under worker loss.
//!
//! Each module is stored exactly once, at canonical positions. Serving it
//! at another offset (deferred RoPE) is the attention tile's business in
//! `pc-model` — it rotates the query, not the stored keys — so this crate
//! holds no per-placement copies and nothing here needs invalidating when
//! a module moves.

#![warn(missing_docs)]

pub mod analytics;
pub mod codec;
pub mod disk;
mod eviction;
pub mod memory;
pub mod segment;
pub mod shard;
mod store;

pub use analytics::{CacheAnalytics, ModuleHeat};
pub use disk::{DiskConfig, DiskEntryInfo, DiskGet, DiskTier};
pub use eviction::{EvictionPolicy, ModuleStats};
pub use shard::ShardMap;
pub use store::{
    FetchFault, FetchFaultInjector, ModuleKey, ModuleSnapshot, ModuleStore, StoreConfig,
    StoreStats, Tier,
};
