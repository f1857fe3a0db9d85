//! The tiered prompt-module store (paper §4.1).
//!
//! Host memory holds encoded modules (it "can scale up to terabyte
//! levels"). A read hands out the stored allocation itself — nothing is
//! copied.
//!
//! Below it sits an optional persistent [`disk`](crate::disk) tier.
//! With [`StoreConfig::host_capacity_bytes`] bounded, host eviction
//! *demotes* modules to disk — their exact bytes — instead of dropping
//! them; a lookup that misses memory falls through to disk and promotes
//! the module back bit-identically, and a corrupt disk record degrades
//! to a miss (the engine re-encodes) rather than ever serving wrong
//! bytes.
//! [`ModuleStore::persist_all`] / [`ModuleStore::restore_all`] turn the
//! disk tier into a warm-restart snapshot.

use crate::analytics::{module_label, CacheAnalytics};
use crate::disk::{DiskConfig, DiskGet, DiskTier};
use crate::eviction::{EvictionPolicy, ModuleStats};
use parking_lot::Mutex;
use pc_model::KvCache;
use pc_telemetry::flight::STORE_SCOPE;
use pc_telemetry::{Counter, FlightEvent, FlightRecorder, Gauge, Telemetry};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// Identifies one encoded module: schema name + module path. Union
/// members are distinct keys; parameterised modules are stored with their
/// `<unk>` placeholders, so one key serves all argument values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModuleKey {
    /// Schema the module belongs to.
    pub schema: String,
    /// Hierarchical module path; `["<anon>", index]`-style paths are used
    /// by the engine for anonymous spans.
    pub path: Vec<String>,
}

impl ModuleKey {
    /// Convenience constructor.
    pub fn new(schema: &str, path: &[String]) -> Self {
        ModuleKey {
            schema: schema.to_owned(),
            path: path.to_vec(),
        }
    }
}

/// The memory a [`ModuleStore::get`] serves from. Host memory is the
/// only one: the store keeps no device tier, so nothing branches on this.
/// It survives only as `get`'s second argument, which the benchmark
/// harness (`benchmark/src/micro.rs`) still passes; it goes when the
/// harness next changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Host DRAM.
    Host,
}

/// Store configuration.
///
/// Build with [`Default`] plus the chainable setters:
///
/// ```
/// use pc_cache::{EvictionPolicy, StoreConfig};
///
/// let config = StoreConfig::default()
///     .host_capacity_bytes(1 << 20)
///     .policy(EvictionPolicy::Gdsf)
///     .verify_checksums(true);
/// assert_eq!(config.host_capacity_bytes, 1 << 20);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct StoreConfig {
    /// Picks the host entries to demote (or, with no disk tier, drop)
    /// when an insert or a disk promotion pushes the host tier over
    /// [`StoreConfig::host_capacity_bytes`].
    pub policy: EvictionPolicy,
    /// Verify each module's content checksum on every [`ModuleStore::get`].
    /// A mismatch (bit rot, a buggy writer, injected corruption) is
    /// **detected instead of served**: the entry is dropped, the lookup
    /// reports a miss, and `corruptions_detected` is counted — the engine
    /// then recomputes the span (graceful degradation). Off by default:
    /// verification is O(module bytes) per fetch.
    pub verify_checksums: bool,
    /// Maintain a per-module [`CacheAnalytics`] table (hits, misses,
    /// degrades, evictions, bytes shared, last-access tick,
    /// batched shared-row attribution). Off by default: a store without
    /// a table pays one `Option` check per would-be recording site.
    pub module_analytics: bool,
    /// Host-tier capacity in bytes (0 = unbounded, the default). When an
    /// insert pushes the host tier over this bound, the eviction policy
    /// picks victims among the other host entries and **demotes**
    /// them to the disk tier — or drops them (counted as evictions) when
    /// no disk tier is configured.
    pub host_capacity_bytes: usize,
    /// Optional persistent tier below host memory (see
    /// [`crate::disk`]). `None` (the default) keeps the store purely
    /// in-memory.
    pub disk: Option<DiskConfig>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            policy: EvictionPolicy::Lru,
            verify_checksums: false,
            module_analytics: false,
            host_capacity_bytes: 0,
            disk: None,
        }
    }
}

impl StoreConfig {
    /// Sets the host-tier eviction policy.
    #[must_use]
    pub fn policy(mut self, policy: EvictionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables/disables per-fetch checksum verification.
    #[must_use]
    pub fn verify_checksums(mut self, on: bool) -> Self {
        self.verify_checksums = on;
        self
    }

    /// Enables/disables the per-module analytics table.
    #[must_use]
    pub fn module_analytics(mut self, on: bool) -> Self {
        self.module_analytics = on;
        self
    }

    /// Sets the host-tier capacity in bytes (0 = unbounded).
    #[must_use]
    pub fn host_capacity_bytes(mut self, bytes: usize) -> Self {
        self.host_capacity_bytes = bytes;
        self
    }

    /// Configures the persistent disk tier.
    #[must_use]
    pub fn disk(mut self, disk: DiskConfig) -> Self {
        self.disk = Some(disk);
        self
    }
}

/// A fault decision for one module fetch, produced by a
/// [`FetchFaultInjector`]. Used only by fault-injection harnesses (the
/// `pc-faults` crate); production stores carry no injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchFault {
    /// No fault: the fetch proceeds normally.
    None,
    /// The fetch behaves as if the module was never stored (counted as a
    /// miss); the entry itself is untouched.
    Miss,
    /// The stored states are corrupted in place (one flipped bit) before
    /// the fetch proceeds. With [`StoreConfig::verify_checksums`] on, the
    /// corruption is detected and surfaces as a miss; with it off, the
    /// corrupt states are served silently — exactly the failure mode the
    /// checksum exists to catch.
    Corrupt,
}

/// Deterministic fault source consulted on every [`ModuleStore::get`].
/// Implementations must be pure functions of the key (plus their own
/// seed) so replays are reproducible across runs and thread schedules.
pub trait FetchFaultInjector: Send + Sync + std::fmt::Debug {
    /// The fault to apply to this lookup, if any.
    fn fault(&self, key: &ModuleKey) -> FetchFault;
}

/// Aggregate counters, retrievable with [`ModuleStore::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Host entries dropped by [`StoreConfig::host_capacity_bytes`]
    /// because no disk tier was there to demote them to (with one, the
    /// same victims count as `demotions`).
    pub evictions: u64,
    /// Checksum mismatches caught by [`StoreConfig::verify_checksums`].
    /// Each one also counts as a miss (the corrupt entry is dropped and
    /// the caller recomputes).
    pub corruptions_detected: u64,
    /// Host → disk demotions (each moved one module out of memory).
    pub demotions: u64,
    /// Disk → host promotions (each moved one module back into memory).
    pub promotions: u64,
    /// Lookups that missed memory but were served from the disk tier.
    /// Each also counts as a hit and a promotion.
    pub disk_hits: u64,
    /// Disk records dropped because their checksum failed or their
    /// payload would not decode. Each also counts as a miss (the caller
    /// re-encodes — the degrade path).
    pub disk_corruptions: u64,
}

/// Pre-resolved telemetry handles, so the store's hot paths never take the
/// registry lock. With disabled telemetry every handle is a no-op
/// ([`Counter::default`]/[`Gauge::default`]), costing one branch per call.
#[derive(Debug, Clone, Default)]
struct StoreMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    corruptions: Counter,
    demotions: Counter,
    promotions: Counter,
    disk_hits: Counter,
    disk_corruptions: Counter,
    host_bytes: Gauge,
    disk_bytes: Gauge,
    modules: Gauge,
}

impl StoreMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        StoreMetrics {
            hits: telemetry.counter("pc_cache_hits_total"),
            misses: telemetry.counter("pc_cache_misses_total"),
            evictions: telemetry.counter("pc_cache_evictions_total"),
            corruptions: telemetry.counter("pc_cache_corruptions_total"),
            demotions: telemetry.counter("pc_demotions_total"),
            promotions: telemetry.counter("pc_promotions_total"),
            disk_hits: telemetry.counter("pc_cache_disk_hits_total"),
            disk_corruptions: telemetry.counter("pc_cache_disk_corruptions_total"),
            host_bytes: telemetry.gauge("pc_cache_host_bytes"),
            disk_bytes: telemetry.gauge("pc_cache_disk_bytes"),
            modules: telemetry.gauge("pc_cache_modules"),
        }
    }
}

#[derive(Debug)]
struct Entry {
    cache: Arc<KvCache>,
    stats: ModuleStats,
    /// Content checksum taken at insert; re-verified on fetch when
    /// [`StoreConfig::verify_checksums`] is set.
    checksum: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<ModuleKey, Entry>,
    /// Bytes held by in-memory entries (the host tier occupancy that
    /// [`StoreConfig::host_capacity_bytes`] bounds).
    host_used: usize,
    clock: u64,
    stats: StoreStats,
    /// Fault-injection hook (test harnesses only); `None` in production.
    faults: Option<Arc<dyn FetchFaultInjector>>,
    /// The persistent tier, present iff [`StoreConfig::disk`].
    disk: Option<DiskTier>,
    /// Store-scoped lifecycle events (demote/restore/disk_corrupt).
    flight: Option<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("entries", &self.entries.len())
            .field("host_used", &self.host_used)
            .field("clock", &self.clock)
            .field("stats", &self.stats)
            .field("disk", &self.disk)
            .finish_non_exhaustive()
    }
}

/// FNV-1a over the cache's key/value bit patterns and positions — cheap,
/// deterministic, and sensitive to any single flipped bit.
fn content_checksum(cache: &KvCache) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u64| {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for layer in 0..cache.num_layers() {
        for v in cache.keys(layer) {
            eat(u64::from(v.to_bits()));
        }
        for v in cache.values(layer) {
            eat(u64::from(v.to_bits()));
        }
    }
    for &p in cache.positions() {
        eat(p as u64);
    }
    h
}

/// One stored entry as reported by [`ModuleStore::snapshot`] — the
/// `/debug/cache` inventory row.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleSnapshot {
    /// Canonical module id label (`schema:path/segments`).
    pub module: String,
    /// The full key.
    pub key: ModuleKey,
    /// Encoded size in bytes (for disk rows: the record's payload size).
    pub size_bytes: usize,
    /// The tier holding the entry: `"host"` or `"disk"`.
    pub tier: &'static str,
    /// Lookups served since insert.
    pub access_count: u64,
    /// Store logical clock at the most recent access.
    pub last_access: u64,
    /// Recompute cost supplied at insert (eviction input).
    pub recompute_cost: f64,
}

/// Thread-safe encoded-module storage: host memory over an optional
/// disk tier.
///
/// # Example
///
/// ```
/// use pc_cache::{ModuleKey, ModuleStore, StoreConfig, Tier};
/// use pc_model::KvCache;
///
/// let store = ModuleStore::new(StoreConfig::default());
/// let key = ModuleKey::new("travel", &["miami".into()]);
/// store.insert(key.clone(), KvCache::with_shape(2, 8), 1.0);
/// assert!(store.get(&key, Tier::Host).is_some());
/// ```
#[derive(Debug)]
pub struct ModuleStore {
    config: StoreConfig,
    inner: Mutex<Inner>,
    metrics: StoreMetrics,
    /// Per-module analytics, present iff [`StoreConfig::module_analytics`].
    analytics: Option<Arc<CacheAnalytics>>,
}

impl ModuleStore {
    /// Creates an empty store with telemetry disabled (the [`StoreStats`]
    /// counters are always on regardless).
    ///
    /// # Panics
    ///
    /// When [`StoreConfig::disk`] is set and the tier directory cannot be
    /// opened — use [`ModuleStore::open`] to handle that as a `Result`.
    pub fn new(config: StoreConfig) -> Self {
        Self::open(config).expect("disk tier open failed")
    }

    /// Creates an empty store, opening (and crash-recovering) the disk
    /// tier when one is configured.
    ///
    /// # Errors
    ///
    /// Filesystem errors from opening the disk tier. Corrupt or torn disk
    /// *contents* never error — they are recovered past (see
    /// [`crate::disk`]).
    pub fn open(config: StoreConfig) -> io::Result<Self> {
        Self::build(config, StoreMetrics::default())
    }

    /// Creates an empty store that mirrors its activity into `telemetry`:
    /// `pc_cache_{hits,misses,evictions,corruptions}_total`,
    /// `pc_{demotions,promotions}_total`, and
    /// `pc_cache_disk_{hits,corruptions}_total` counters plus
    /// `pc_cache_{host,disk}_bytes` / `pc_cache_modules` occupancy
    /// gauges. Handles are resolved once here, so recording never takes
    /// the registry lock.
    ///
    /// # Panics
    ///
    /// When [`StoreConfig::disk`] is set and the tier directory cannot be
    /// opened — use [`ModuleStore::open_with_telemetry`] for a `Result`.
    pub fn with_telemetry(config: StoreConfig, telemetry: &Telemetry) -> Self {
        Self::open_with_telemetry(config, telemetry).expect("disk tier open failed")
    }

    /// [`ModuleStore::with_telemetry`] as a `Result` (see
    /// [`ModuleStore::open`] for the error cases).
    ///
    /// # Errors
    ///
    /// Filesystem errors from opening the disk tier.
    pub fn open_with_telemetry(config: StoreConfig, telemetry: &Telemetry) -> io::Result<Self> {
        Self::build(config, StoreMetrics::resolve(telemetry))
    }

    fn build(config: StoreConfig, metrics: StoreMetrics) -> io::Result<Self> {
        let analytics = config.module_analytics.then(CacheAnalytics::new).map(Arc::new);
        let disk = match &config.disk {
            Some(disk_config) => Some(DiskTier::open(disk_config.clone())?),
            None => None,
        };
        if let Some(disk) = &disk {
            metrics.disk_bytes.set(disk.live_bytes() as i64);
        }
        Ok(ModuleStore {
            config,
            inner: Mutex::new(Inner {
                disk,
                ..Inner::default()
            }),
            metrics,
            analytics,
        })
    }

    /// Installs (or clears) the recorder receiving store-scoped flight
    /// events: `demote`, `restore`, and `disk_corrupt`.
    pub fn set_flight_recorder(&self, flight: Option<Arc<FlightRecorder>>) {
        self.inner.lock().flight = flight;
    }

    /// The per-module analytics table, if enabled via
    /// [`StoreConfig::module_analytics`]. The engine and scheduler use
    /// this to attribute zero-copy bytes, degrades, and batched
    /// shared-row reads back to modules.
    pub fn analytics(&self) -> Option<&Arc<CacheAnalytics>> {
        self.analytics.as_ref()
    }

    /// Inserts (or replaces) a module's encoded states and returns the
    /// stored allocation, so a caller serving the states it just inserted
    /// aliases the entry instead of keeping a copy.
    /// `recompute_cost` feeds cost-aware eviction; pass the encode time or
    /// FLOPs in any consistent unit.
    ///
    /// With [`StoreConfig::host_capacity_bytes`] bounded, an insert that
    /// pushes the host tier over capacity demotes policy-picked victims
    /// to the disk tier (or drops them when none is configured).
    pub fn insert(&self, key: ModuleKey, cache: KvCache, recompute_cost: f64) -> Arc<KvCache> {
        let cache = Arc::new(cache);
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let size = cache.size_bytes();
        let clock = inner.clock;
        let old_size = inner.entries.get(&key).map_or(0, |old| old.stats.size_bytes);
        let checksum = content_checksum(&cache);
        inner.entries.insert(
            key.clone(),
            Entry {
                cache: Arc::clone(&cache),
                stats: ModuleStats {
                    last_access: clock,
                    access_count: 0,
                    size_bytes: size,
                    recompute_cost,
                },
                checksum,
            },
        );
        inner.host_used += size;
        inner.host_used -= old_size;
        self.metrics.host_bytes.add(size as i64 - old_size as i64);
        self.enforce_host_capacity(&mut inner, &key);
        self.metrics.modules.set(inner.entries.len() as i64);
        cache
    }

    /// Demotes (or, with no disk tier, drops) host entries until `host_used` fits the configured bound. The entry
    /// named by `keep` is never a victim.
    fn enforce_host_capacity(&self, inner: &mut Inner, keep: &ModuleKey) {
        let cap = self.config.host_capacity_bytes;
        if cap == 0 {
            return;
        }
        while inner.host_used > cap {
            let candidates: Vec<(ModuleKey, ModuleStats)> = inner
                .entries
                .iter()
                .filter(|(k, _)| *k != keep)
                .map(|(k, e)| (k.clone(), e.stats))
                .collect();
            let stats: Vec<ModuleStats> = candidates.iter().map(|(_, s)| *s).collect();
            let Some(victim) = self.config.policy.victim(&stats) else {
                break; // nothing demotable (only `keep` is left)
            };
            let (victim_key, _) = &candidates[victim];
            if !self.demote(inner, victim_key) {
                break; // disk write failed: keep the entry resident
            }
        }
    }

    /// Moves one host entry down to the disk tier (or drops it when no
    /// disk tier is configured, counted as an eviction). Returns `false`
    /// when the disk write failed and the entry stays resident.
    fn demote(&self, inner: &mut Inner, key: &ModuleKey) -> bool {
        let Some(entry) = inner.entries.get(key) else {
            return false;
        };
        let size = entry.stats.size_bytes;
        let cost = entry.stats.recompute_cost;
        let cache = Arc::clone(&entry.cache);
        let to_disk = inner.disk.is_some();
        if let Some(disk) = inner.disk.as_mut() {
            if disk.put(key, &cache, cost).is_err() {
                return false;
            }
        }
        inner.entries.remove(key);
        inner.host_used -= size;
        self.metrics.host_bytes.add(-(size as i64));
        self.metrics.modules.set(inner.entries.len() as i64);
        if to_disk {
            inner.stats.demotions += 1;
            self.metrics.demotions.inc();
            self.metrics
                .disk_bytes
                .set(inner.disk.as_ref().expect("present").live_bytes() as i64);
            if let Some(flight) = &inner.flight {
                flight.record(
                    FlightEvent::new(STORE_SCOPE, "demote")
                        .field("module", module_label(key))
                        .field("bytes", size),
                );
            }
        } else {
            inner.stats.evictions += 1;
            self.metrics.evictions.inc();
            if let Some(a) = &self.analytics {
                a.record_eviction(key);
            }
        }
        true
    }

    /// Whether the store holds `key` in any tier (memory or disk).
    pub fn contains(&self, key: &ModuleKey) -> bool {
        let inner = self.inner.lock();
        inner.entries.contains_key(key)
            || inner.disk.as_ref().is_some_and(|d| d.contains(key))
    }

    /// Fetches a module's states: the stored allocation itself, shared,
    /// never a copy. `tier` is always [`Tier::Host`] (see its docs).
    ///
    /// A lookup that misses memory falls through to the disk tier (when
    /// configured): the record is verified, decoded, promoted back into
    /// host memory (counted as a hit, a disk hit, and a promotion). A
    /// corrupt disk record is dropped and reported as a miss — the
    /// degrade path.
    pub fn get(&self, key: &ModuleKey, _tier: Tier) -> Option<Arc<KvCache>> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.clock += 1;
        let clock = inner.clock;
        // Fault injection (harnesses only): an injected miss hides the
        // entry; injected corruption damages it in place so the checksum
        // verification below exercises the real detection path.
        if let Some(faults) = inner.faults.clone() {
            match faults.fault(key) {
                FetchFault::None => {}
                FetchFault::Miss => {
                    inner.stats.misses += 1;
                    self.metrics.misses.inc();
                    if let Some(a) = &self.analytics {
                        a.record_miss(key, clock);
                    }
                    return None;
                }
                FetchFault::Corrupt => {
                    Self::corrupt_entry(inner, key);
                }
            }
        }
        if !inner.entries.contains_key(key) {
            // Memory miss: fall through to the persistent tier.
            let from_disk = match inner.disk.as_mut() {
                Some(disk) => disk.get(key),
                None => DiskGet::Missing,
            };
            match from_disk {
                DiskGet::Module(cache, cost) => {
                    // Promote disk → host: the disk copy is consumed (a
                    // module lives in exactly one tier) and the decoded
                    // states become a fresh host entry with a fresh
                    // checksum.
                    let disk = inner.disk.as_mut().expect("matched above");
                    let _ = disk.remove(key);
                    let cache = *cache;
                    let size = cache.size_bytes();
                    let checksum = content_checksum(&cache);
                    inner.entries.insert(
                        key.clone(),
                        Entry {
                            cache: Arc::new(cache),
                            stats: ModuleStats {
                                last_access: clock,
                                access_count: 0,
                                size_bytes: size,
                                recompute_cost: cost,
                            },
                            checksum,
                        },
                    );
                    inner.host_used += size;
                    inner.stats.disk_hits += 1;
                    inner.stats.promotions += 1;
                    self.metrics.disk_hits.inc();
                    self.metrics.promotions.inc();
                    self.metrics.host_bytes.add(size as i64);
                    self.metrics.modules.set(inner.entries.len() as i64);
                    self.metrics
                        .disk_bytes
                        .set(inner.disk.as_ref().expect("present").live_bytes() as i64);
                    if let Some(flight) = &inner.flight {
                        flight.record(
                            FlightEvent::new(STORE_SCOPE, "restore")
                                .field("module", module_label(key))
                                .field("bytes", size),
                        );
                    }
                    self.enforce_host_capacity(inner, key);
                    // Fall through to the normal hit path below.
                }
                DiskGet::Corrupt => {
                    // Degrade: the poisoned record was dropped by the
                    // tier; report a miss so the caller re-encodes.
                    inner.stats.disk_corruptions += 1;
                    inner.stats.misses += 1;
                    self.metrics.disk_corruptions.inc();
                    self.metrics.misses.inc();
                    self.metrics
                        .disk_bytes
                        .set(inner.disk.as_ref().expect("present").live_bytes() as i64);
                    if let Some(flight) = &inner.flight {
                        flight.record(
                            FlightEvent::new(STORE_SCOPE, "disk_corrupt")
                                .field("module", module_label(key)),
                        );
                    }
                    if let Some(a) = &self.analytics {
                        a.record_miss(key, clock);
                    }
                    return None;
                }
                DiskGet::Missing => {
                    inner.stats.misses += 1;
                    self.metrics.misses.inc();
                    if let Some(a) = &self.analytics {
                        a.record_miss(key, clock);
                    }
                    return None;
                }
            }
        }
        if self.config.verify_checksums {
            let entry = &inner.entries[key];
            if content_checksum(&entry.cache) != entry.checksum {
                // Detected corruption: drop the poisoned entry and report
                // a miss so the caller recomputes instead of serving it.
                let size = entry.stats.size_bytes;
                inner.entries.remove(key);
                inner.host_used -= size;
                inner.stats.corruptions_detected += 1;
                inner.stats.misses += 1;
                self.metrics.corruptions.inc();
                self.metrics.misses.inc();
                self.metrics.host_bytes.add(-(size as i64));
                self.metrics.modules.set(inner.entries.len() as i64);
                if let Some(a) = &self.analytics {
                    a.record_miss(key, clock);
                }
                return None;
            }
        }
        inner.stats.hits += 1;
        self.metrics.hits.inc();
        if let Some(a) = &self.analytics {
            a.record_hit(key, clock);
        }
        let entry = inner.entries.get_mut(key).expect("checked above");
        entry.stats.last_access = clock;
        entry.stats.access_count += 1;
        Some(Arc::clone(&entry.cache))
    }

    /// Installs a [`FetchFaultInjector`] consulted on every `get` (or
    /// removes it with `None`). Fault injection is for resilience
    /// harnesses and tests; a store without an injector pays one `Option`
    /// check per fetch.
    pub fn set_fault_injector(&self, injector: Option<Arc<dyn FetchFaultInjector>>) {
        self.inner.lock().faults = injector;
    }

    /// Flips one bit in a stored module's states **without updating its
    /// checksum** — the deterministic corruption primitive behind fault
    /// injection. Returns `false` for unknown keys and empty modules.
    /// With [`StoreConfig::verify_checksums`] on, the next fetch detects
    /// the damage; with it off, the corrupt states are served as-is.
    pub fn corrupt_module(&self, key: &ModuleKey) -> bool {
        let mut inner = self.inner.lock();
        Self::corrupt_entry(&mut inner, key)
    }

    fn corrupt_entry(inner: &mut Inner, key: &ModuleKey) -> bool {
        let Some(entry) = inner.entries.get_mut(key) else {
            return false;
        };
        let src = &entry.cache;
        if src.is_empty() || src.num_layers() == 0 || src.kv_dim() == 0 {
            return false;
        }
        // Rebuild the cache with the first key value's low bit flipped —
        // `KvCache` exposes no interior mutability, which is exactly why
        // real code can't do this by accident.
        let d = src.kv_dim();
        let mut bad = KvCache::with_shape(src.num_layers(), d);
        for row in 0..src.len() {
            for layer in 0..src.num_layers() {
                let mut k = src.keys(layer)[row * d..(row + 1) * d].to_vec();
                let v = &src.values(layer)[row * d..(row + 1) * d];
                if row == 0 && layer == 0 {
                    k[0] = f32::from_bits(k[0].to_bits() ^ 1);
                }
                bad.push_token_layer(layer, &k, v);
            }
            bad.push_position(src.positions()[row]);
        }
        entry.cache = Arc::new(bad);
        true
    }

    /// Removes a module from every tier; returns whether it was present.
    pub fn remove(&self, key: &ModuleKey) -> bool {
        let mut inner = self.inner.lock();
        let mut removed = false;
        if let Some(e) = inner.entries.remove(key) {
            inner.host_used -= e.stats.size_bytes;
            self.metrics.host_bytes.add(-(e.stats.size_bytes as i64));
            self.metrics.modules.set(inner.entries.len() as i64);
            removed = true;
        }
        if let Some(disk) = inner.disk.as_mut() {
            removed |= disk.remove(key).unwrap_or(false);
            self.metrics.disk_bytes.set(disk.live_bytes() as i64);
        }
        removed
    }

    /// Drops every module belonging to `schema`, from every tier.
    pub fn remove_schema(&self, schema: &str) {
        let mut inner = self.inner.lock();
        let removed: Vec<ModuleKey> = inner
            .entries
            .keys()
            .filter(|k| k.schema == schema)
            .cloned()
            .collect();
        for k in removed {
            if let Some(e) = inner.entries.remove(&k) {
                inner.host_used -= e.stats.size_bytes;
                self.metrics.host_bytes.add(-(e.stats.size_bytes as i64));
            }
        }
        if let Some(disk) = inner.disk.as_mut() {
            for k in disk.keys() {
                if k.schema == schema {
                    let _ = disk.remove(&k);
                }
            }
            self.metrics.disk_bytes.set(disk.live_bytes() as i64);
        }
        self.metrics.modules.set(inner.entries.len() as i64);
    }

    /// Number of distinct stored modules across all tiers.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        let disk_only = inner.disk.as_ref().map_or(0, |d| {
            d.keys()
                .iter()
                .filter(|k| !inner.entries.contains_key(k))
                .count()
        });
        inner.entries.len() + disk_only
    }

    /// Whether the store is empty (all tiers).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total host bytes held by in-memory entries.
    pub fn host_bytes(&self) -> usize {
        self.inner.lock().host_used
    }

    /// Live bytes held by the disk tier (0 without one): whole records,
    /// so a little more than the f32 bytes the same modules occupy in
    /// memory.
    pub fn disk_bytes(&self) -> usize {
        self.inner.lock().disk.as_ref().map_or(0, DiskTier::live_bytes)
    }

    /// Number of live disk-tier entries (0 without a disk tier).
    pub fn disk_len(&self) -> usize {
        self.inner.lock().disk.as_ref().map_or(0, DiskTier::len)
    }

    /// Writes every in-memory module down to the disk tier (keeping it in
    /// memory) and flushes the tier's index — the snapshot half of warm
    /// restart. Returns how many modules were written.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when no disk tier is configured; otherwise
    /// filesystem errors from the writes.
    pub fn persist_all(&self) -> io::Result<usize> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(disk) = inner.disk.as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no disk tier configured",
            ));
        };
        let mut written = 0;
        for (key, entry) in &inner.entries {
            disk.put(key, &entry.cache, entry.stats.recompute_cost)?;
            written += 1;
        }
        disk.flush()?;
        self.metrics.disk_bytes.set(disk.live_bytes() as i64);
        Ok(written)
    }

    /// Promotes every disk-only module back into host memory (the
    /// restore half of warm restart), stopping early if the host
    /// capacity bound would be exceeded. Corrupt records are dropped and
    /// skipped. Returns how many modules were promoted.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when no disk tier is configured.
    pub fn restore_all(&self) -> io::Result<usize> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(disk) = inner.disk.as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no disk tier configured",
            ));
        };
        inner.clock += 1;
        let clock = inner.clock;
        let cap = self.config.host_capacity_bytes;
        let mut keys: Vec<ModuleKey> = disk
            .keys()
            .into_iter()
            .filter(|k| !inner.entries.contains_key(k))
            .collect();
        keys.sort_by(|a, b| (&a.schema, &a.path).cmp(&(&b.schema, &b.path)));
        let mut promoted = 0;
        for key in keys {
            let DiskGet::Module(cache, cost) = disk.get(&key) else {
                // Missing (raced) or corrupt (dropped by the tier):
                // skip; a later lookup degrades to re-encode.
                inner.stats.disk_corruptions += 1;
                self.metrics.disk_corruptions.inc();
                continue;
            };
            let cache = *cache;
            let size = cache.size_bytes();
            if cap > 0 && inner.host_used + size > cap {
                break; // warm what fits; leave the rest on disk
            }
            let _ = disk.remove(&key);
            let checksum = content_checksum(&cache);
            if let Some(flight) = &inner.flight {
                flight.record(
                    FlightEvent::new(STORE_SCOPE, "restore")
                        .field("module", module_label(&key))
                        .field("bytes", size),
                );
            }
            inner.entries.insert(
                key,
                Entry {
                    cache: Arc::new(cache),
                    stats: ModuleStats {
                        last_access: clock,
                        access_count: 0,
                        size_bytes: size,
                        recompute_cost: cost,
                    },
                    checksum,
                },
            );
            inner.host_used += size;
            inner.stats.promotions += 1;
            self.metrics.promotions.inc();
            self.metrics.host_bytes.add(size as i64);
            promoted += 1;
        }
        self.metrics.modules.set(inner.entries.len() as i64);
        self.metrics
            .disk_bytes
            .set(inner.disk.as_ref().expect("present").live_bytes() as i64);
        Ok(promoted)
    }

    /// Flushes the disk tier's index, if one is configured (no-op
    /// otherwise).
    ///
    /// # Errors
    ///
    /// Filesystem errors from the index write.
    pub fn flush_disk(&self) -> io::Result<()> {
        match self.inner.lock().disk.as_mut() {
            Some(disk) => disk.flush(),
            None => Ok(()),
        }
    }

    /// Flips one bit of `key`'s **on-disk** payload without updating the
    /// record checksum — the disk-tier corruption primitive behind fault
    /// injection (`pc-faults`). Returns `false` for keys with no disk
    /// record or when no disk tier is configured. The next disk read
    /// detects the damage, drops the record, and degrades to a miss.
    pub fn corrupt_disk_entry(&self, key: &ModuleKey) -> bool {
        self.inner
            .lock()
            .disk
            .as_mut()
            .is_some_and(|d| d.corrupt_record(key).unwrap_or(false))
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }

    /// Point-in-time snapshot of every stored entry across all tiers,
    /// sorted by module label — the `/debug/cache` inventory. Cheap
    /// relative to the entries it describes (clones keys, not KV states).
    /// Disk-only entries report their cold payload size and a zero
    /// access count.
    pub fn snapshot(&self) -> Vec<ModuleSnapshot> {
        let inner = self.inner.lock();
        let mut rows: Vec<ModuleSnapshot> = inner
            .entries
            .iter()
            .map(|(key, e)| ModuleSnapshot {
                module: module_label(key),
                key: key.clone(),
                size_bytes: e.stats.size_bytes,
                tier: "host",
                access_count: e.stats.access_count,
                last_access: e.stats.last_access,
                recompute_cost: e.stats.recompute_cost,
            })
            .collect();
        if let Some(disk) = &inner.disk {
            rows.extend(
                disk.entries()
                    .into_iter()
                    .filter(|info| !inner.entries.contains_key(&info.key))
                    .map(|info| ModuleSnapshot {
                        module: module_label(&info.key),
                        key: info.key,
                        size_bytes: info.payload_bytes,
                        tier: "disk",
                        access_count: 0,
                        last_access: 0,
                        recompute_cost: info.cost,
                    }),
            );
        }
        rows.sort_by(|a, b| a.module.cmp(&b.module));
        rows
    }

    /// All stored keys across all tiers (used by persistence and
    /// diagnostics).
    pub fn keys(&self) -> Vec<ModuleKey> {
        let inner = self.inner.lock();
        let mut keys: Vec<ModuleKey> = inner.entries.keys().cloned().collect();
        if let Some(disk) = &inner.disk {
            keys.extend(
                disk.keys()
                    .into_iter()
                    .filter(|k| !inner.entries.contains_key(k)),
            );
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(tokens: usize) -> KvCache {
        // 2 layers, kv_dim 4 → size = 2*2*tokens*4*4 bytes = 64·tokens.
        let mut c = KvCache::with_shape(2, 4);
        for t in 0..tokens {
            for l in 0..2 {
                c.push_token_layer(l, &[t as f32; 4], &[t as f32; 4]);
            }
            c.push_position(t);
        }
        c
    }

    fn key(name: &str) -> ModuleKey {
        ModuleKey::new("s", &[name.to_owned()])
    }

    #[test]
    fn insert_get_round_trip() {
        let store = ModuleStore::new(StoreConfig::default());
        store.insert(key("a"), module(3), 1.0);
        let got = store.get(&key("a"), Tier::Host).unwrap();
        assert_eq!(got.len(), 3);
        assert!(store.get(&key("b"), Tier::Host).is_none());
        let s = store.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn host_reads_never_copy() {
        let store = ModuleStore::new(StoreConfig::default());
        store.insert(key("a"), module(3), 1.0);
        let first = store.get(&key("a"), Tier::Host).unwrap();
        let second = store.get(&key("a"), Tier::Host).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "a read copied the states");
        assert_eq!(store.host_bytes(), module(3).size_bytes());
    }

    #[test]
    fn capacity_forces_eviction_lru() {
        let one = module(4).size_bytes();
        let store = ModuleStore::new(
            StoreConfig::default()
                .policy(EvictionPolicy::Lru)
                .host_capacity_bytes(2 * one),
        );
        store.insert(key("a"), module(4), 1.0);
        store.insert(key("b"), module(4), 1.0);
        // Touch a to make b the LRU, then bring in c.
        store.get(&key("a"), Tier::Host);
        store.insert(key("c"), module(4), 1.0);
        assert_eq!(store.stats().evictions, 1);
        assert!(store.contains(&key("a")) && store.contains(&key("c")));
        assert!(!store.contains(&key("b")), "the LRU entry was dropped");
        assert_eq!(store.host_bytes(), 2 * one);
    }

    #[test]
    fn replace_updates_host_accounting() {
        let store = ModuleStore::new(StoreConfig::default());
        store.insert(key("a"), module(4), 1.0);
        store.insert(key("a"), module(8), 1.0);
        assert_eq!(store.host_bytes(), module(8).size_bytes());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn remove_and_remove_schema() {
        let store = ModuleStore::new(StoreConfig::default());
        store.insert(key("a"), module(1), 1.0);
        store.insert(ModuleKey::new("other", &["x".into()]), module(1), 1.0);
        assert!(store.remove(&key("a")));
        assert!(!store.remove(&key("a")));
        store.remove_schema("other");
        assert!(store.is_empty());
    }

    #[test]
    fn host_bytes_tracks_inserts() {
        let store = ModuleStore::new(StoreConfig::default());
        store.insert(key("a"), module(2), 1.0);
        store.insert(key("b"), module(3), 1.0);
        assert_eq!(
            store.host_bytes(),
            module(2).size_bytes() + module(3).size_bytes()
        );
    }

    #[test]
    fn telemetry_mirrors_store_activity() {
        let telemetry = Telemetry::new();
        let store = ModuleStore::with_telemetry(StoreConfig::default(), &telemetry);
        let size = module(3).size_bytes();
        store.insert(key("a"), module(3), 1.0);
        store.get(&key("a"), Tier::Host);
        store.get(&key("a"), Tier::Host);
        store.get(&key("missing"), Tier::Host); // miss

        let snap = telemetry.snapshot();
        let counter = |n: &str| {
            snap.counters
                .iter()
                .find(|(name, _)| name == n)
                .map_or(0, |(_, v)| *v)
        };
        let gauge = |n: &str| {
            snap.gauges
                .iter()
                .find(|(name, _)| name == n)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(counter("pc_cache_hits_total"), 2);
        assert_eq!(counter("pc_cache_misses_total"), 1);
        assert_eq!(gauge("pc_cache_modules"), 1);
        assert_eq!(gauge("pc_cache_host_bytes"), size as i64);

        store.remove(&key("a"));
        let snap = telemetry.snapshot();
        let gauge = |n: &str| {
            snap.gauges
                .iter()
                .find(|(name, _)| name == n)
                .map_or(0, |(_, v)| *v)
        };
        assert_eq!(gauge("pc_cache_modules"), 0);
        assert_eq!(gauge("pc_cache_host_bytes"), 0);
    }

    #[test]
    fn corruption_is_detected_and_dropped_when_verifying() {
        let store = ModuleStore::new(StoreConfig {
            verify_checksums: true,
            ..Default::default()
        });
        store.insert(key("a"), module(3), 1.0);
        assert!(store.corrupt_module(&key("a")));
        assert!(store.get(&key("a"), Tier::Host).is_none(), "corrupt entry must not serve");
        let s = store.stats();
        assert_eq!(s.corruptions_detected, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 0);
        assert!(store.is_empty(), "poisoned entry dropped");
        assert_eq!(store.host_bytes(), 0);
    }

    #[test]
    fn corruption_serves_silently_without_verification() {
        // Documents the failure mode verify_checksums exists to prevent.
        let store = ModuleStore::new(StoreConfig::default());
        store.insert(key("a"), module(3), 1.0);
        let clean = store.get(&key("a"), Tier::Host).unwrap();
        store.corrupt_module(&key("a"));
        let dirty = store.get(&key("a"), Tier::Host).unwrap();
        assert_ne!(clean.keys(0), dirty.keys(0));
        assert_eq!(store.stats().corruptions_detected, 0);
    }

    #[test]
    fn corrupt_unknown_or_empty_module_is_noop() {
        let store = ModuleStore::new(StoreConfig::default());
        assert!(!store.corrupt_module(&key("missing")));
        store.insert(key("empty"), KvCache::with_shape(2, 4), 1.0);
        assert!(!store.corrupt_module(&key("empty")));
    }

    #[test]
    fn verified_clean_reads_still_hit() {
        let store = ModuleStore::new(StoreConfig {
            verify_checksums: true,
            ..Default::default()
        });
        store.insert(key("a"), module(4), 1.0);
        assert!(store.get(&key("a"), Tier::Host).is_some());
        assert!(store.get(&key("a"), Tier::Host).is_some());
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corruptions_detected), (2, 0, 0));
    }

    #[derive(Debug)]
    struct AlwaysFault(FetchFault);
    impl FetchFaultInjector for AlwaysFault {
        fn fault(&self, _key: &ModuleKey) -> FetchFault {
            self.0
        }
    }

    #[test]
    fn injected_miss_hides_entry_without_damage() {
        let store = ModuleStore::new(StoreConfig::default());
        store.insert(key("a"), module(2), 1.0);
        store.set_fault_injector(Some(Arc::new(AlwaysFault(FetchFault::Miss))));
        assert!(store.get(&key("a"), Tier::Host).is_none());
        assert_eq!(store.stats().misses, 1);
        store.set_fault_injector(None);
        assert!(store.get(&key("a"), Tier::Host).is_some(), "entry intact");
    }

    #[test]
    fn injected_corruption_is_caught_by_verification() {
        let store = ModuleStore::new(StoreConfig {
            verify_checksums: true,
            ..Default::default()
        });
        store.insert(key("a"), module(2), 1.0);
        store.set_fault_injector(Some(Arc::new(AlwaysFault(FetchFault::Corrupt))));
        assert!(store.get(&key("a"), Tier::Host).is_none());
        assert_eq!(store.stats().corruptions_detected, 1);
    }

    #[test]
    fn keys_lists_all() {
        let store = ModuleStore::new(StoreConfig::default());
        store.insert(key("a"), module(1), 1.0);
        store.insert(key("b"), module(1), 1.0);
        let mut names: Vec<String> = store.keys().iter().map(|k| k.path[0].clone()).collect();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn analytics_table_tracks_per_module_activity() {
        let one = module(4).size_bytes();
        let store = ModuleStore::new(
            StoreConfig::default()
                .host_capacity_bytes(2 * one)
                .module_analytics(true),
        );
        store.insert(key("a"), module(4), 1.0);
        store.insert(key("b"), module(4), 1.0);
        store.get(&key("a"), Tier::Host);
        store.get(&key("b"), Tier::Host);
        store.get(&key("a"), Tier::Host); // a is MRU, b is LRU
        store.insert(key("c"), module(4), 1.0); // evicts b
        store.get(&key("missing"), Tier::Host);

        let analytics = store.analytics().expect("enabled");
        let snap = analytics.snapshot();
        let row = |m: &str| snap.iter().find(|r| r.module == m).unwrap();
        assert_eq!(row("s:a").hits, 2);
        assert_eq!(row("s:b").evictions, 1);
        assert_eq!(row("s:missing").misses, 1);
        assert_eq!(snap[0].module, "s:a", "heat ranking leads with hottest");
        assert!(row("s:a").last_access_tick > 0);
        let text = analytics.prometheus_text();
        assert!(text.contains("pc_module_hits_total{module=\"s:a\"} 2"), "{text}");
        assert!(
            text.contains("pc_module_evictions_total{module=\"s:b\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn analytics_disabled_by_default() {
        let store = ModuleStore::new(StoreConfig::default());
        assert!(store.analytics().is_none());
    }

    #[test]
    fn snapshot_lists_entries_sorted() {
        let store = ModuleStore::new(StoreConfig::default());
        store.insert(key("b"), module(2), 3.0);
        store.insert(key("a"), module(4), 1.0);
        store.get(&key("a"), Tier::Host);
        let snap = store.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].module, "s:a");
        assert_eq!(snap[0].tier, "host");
        assert_eq!(snap[0].access_count, 1);
        assert_eq!(snap[0].size_bytes, module(4).size_bytes());
        assert_eq!(snap[1].module, "s:b");
        assert_eq!(snap[1].tier, "host");
        assert_eq!(snap[1].recompute_cost, 3.0);
    }

    fn temp_disk(tag: &str) -> DiskConfig {
        let dir = std::env::temp_dir().join(format!(
            "pc-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        DiskConfig::new(dir)
    }

    #[test]
    fn host_capacity_demotes_to_disk_and_promotes_back() {
        let one = module(4).size_bytes();
        let disk = temp_disk("demote");
        let dir = disk.dir.clone();
        let store = ModuleStore::new(
            StoreConfig::default()
                .policy(EvictionPolicy::Lru)
                .host_capacity_bytes(2 * one)
                .disk(disk),
        );
        for name in ["a", "b", "c"] {
            store.insert(key(name), module(4), 1.0);
        }
        // a was LRU: demoted to disk, still visible through the store.
        assert_eq!(store.stats().demotions, 1);
        assert_eq!(store.disk_len(), 1);
        assert_eq!(store.len(), 3);
        assert!(store.contains(&key("a")));
        assert!(store.disk_bytes() > 0);
        // Reading the demoted module falls through and promotes it back
        // (evicting another victim to stay under the host bound).
        let got = store.get(&key("a"), Tier::Host).expect("served from disk");
        assert_eq!(got.len(), 4);
        let s = store.stats();
        assert_eq!((s.disk_hits, s.promotions, s.hits), (1, 1, 1));
        assert_eq!(s.demotions, 2, "promoting a pushed out another victim");
        assert_eq!(store.host_bytes(), 2 * one);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn host_capacity_without_disk_drops_victims_as_evictions() {
        let one = module(4).size_bytes();
        let store = ModuleStore::new(StoreConfig::default().host_capacity_bytes(2 * one));
        for name in ["a", "b", "c"] {
            store.insert(key(name), module(4), 1.0);
        }
        let s = store.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.demotions, 0);
        assert_eq!(store.len(), 2);
        assert!(!store.contains(&key("a")));
    }

    #[test]
    fn corrupt_disk_record_degrades_to_miss_and_self_heals() {
        let one = module(4).size_bytes();
        let disk = temp_disk("corrupt");
        let dir = disk.dir.clone();
        let store = ModuleStore::new(
            StoreConfig::default().host_capacity_bytes(one).disk(disk),
        );
        store.insert(key("a"), module(4), 1.0);
        store.insert(key("b"), module(4), 1.0); // demotes a
        assert!(store.corrupt_disk_entry(&key("a")));
        assert!(
            store.get(&key("a"), Tier::Host).is_none(),
            "corrupt disk record must not serve"
        );
        let s = store.stats();
        assert_eq!((s.disk_corruptions, s.misses, s.disk_hits), (1, 1, 0));
        assert!(!store.contains(&key("a")), "poisoned record dropped");
        // Self-heal: the caller re-encodes and re-inserts.
        store.insert(key("a"), module(4), 1.0);
        assert!(store.get(&key("a"), Tier::Host).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_and_restore_round_trip_preserves_content() {
        let disk = temp_disk("persist");
        let dir = disk.dir.clone();
        let checksum_before;
        {
            let store = ModuleStore::new(StoreConfig::default().disk(disk.clone()));
            store.insert(key("a"), module(5), 2.0);
            store.insert(key("b"), module(3), 1.0);
            assert_eq!(store.persist_all().unwrap(), 2);
            checksum_before = content_checksum(&store.get(&key("a"), Tier::Host).unwrap());
        }
        // "Restart": a fresh store over the same directory.
        let store = ModuleStore::new(StoreConfig::default().disk(disk));
        assert_eq!(store.disk_len(), 2);
        assert_eq!(store.restore_all().unwrap(), 2);
        assert_eq!(store.stats().promotions, 2);
        let restored = store.get(&key("a"), Tier::Host).unwrap();
        assert_eq!(
            content_checksum(&restored),
            checksum_before,
            "f32 round trip is byte-identical"
        );
        assert_eq!(store.get(&key("b"), Tier::Host).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_without_disk_tier_errors() {
        let store = ModuleStore::new(StoreConfig::default());
        assert_eq!(
            store.persist_all().unwrap_err().kind(),
            std::io::ErrorKind::InvalidInput
        );
        assert_eq!(
            store.restore_all().unwrap_err().kind(),
            std::io::ErrorKind::InvalidInput
        );
        store.flush_disk().unwrap(); // no-op without a tier
    }

    #[test]
    fn snapshot_reports_disk_tier_rows() {
        let one = module(4).size_bytes();
        let disk = temp_disk("snaprows");
        let dir = disk.dir.clone();
        let store = ModuleStore::new(
            StoreConfig::default().host_capacity_bytes(one).disk(disk),
        );
        store.insert(key("a"), module(4), 1.0);
        store.insert(key("b"), module(4), 1.0); // demotes a
        let snap = store.snapshot();
        assert_eq!(snap.len(), 2);
        let row = |m: &str| snap.iter().find(|r| r.module == m).unwrap();
        assert_eq!(row("s:a").tier, "disk");
        assert_eq!(row("s:b").tier, "host");
        assert_eq!(
            row("s:a").size_bytes,
            crate::codec::encode(&module(4)).len(),
            "disk row reports the record's payload size"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insert_returns_the_stored_allocation() {
        let store = ModuleStore::new(StoreConfig::default());
        let stored = store.insert(key("a"), module(4), 1.0);
        let fetched = store.get(&key("a"), Tier::Host).unwrap();
        assert!(Arc::ptr_eq(&stored, &fetched), "insert handed back a copy");
    }

    #[test]
    fn store_flight_events_cover_demote_restore_corrupt() {
        let one = module(4).size_bytes();
        let disk = temp_disk("flight");
        let dir = disk.dir.clone();
        let store = ModuleStore::new(
            StoreConfig::default().host_capacity_bytes(one).disk(disk),
        );
        let flight = Arc::new(FlightRecorder::new(16));
        store.set_flight_recorder(Some(Arc::clone(&flight)));
        store.insert(key("a"), module(4), 1.0);
        store.insert(key("b"), module(4), 1.0); // demote a
        store.get(&key("a"), Tier::Host); // restore a (demotes b)
        store.corrupt_disk_entry(&key("b"));
        store.get(&key("b"), Tier::Host); // disk_corrupt
        let kinds: Vec<&str> = flight.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["demote", "restore", "demote", "disk_corrupt"]);
        assert!(flight.jsonl().contains("\"request\":\"store\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_access_is_safe() {
        let store = std::sync::Arc::new(ModuleStore::new(StoreConfig::default()));
        for i in 0..8 {
            store.insert(key(&format!("m{i}")), module(4), 1.0);
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = std::sync::Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..100 {
                        let k = key(&format!("m{}", (i + t) % 8));
                        let _ = store.get(&k, Tier::Host);
                    }
                });
            }
        });
        assert_eq!(store.stats().hits, 400);
    }
}
