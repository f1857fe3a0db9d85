//! Per-module cache analytics: the heat data behind `/debug/cache` and
//! the labeled `pc_module_*` Prometheus series.
//!
//! The aggregate [`crate::StoreStats`] counters say the cache is busy;
//! they cannot say **which modules** earn their residency. This table
//! records, per module id: hits, misses, graceful-degradation
//! recomputes, host-tier evictions, bytes served zero-copy,
//! the store's logical clock at last access, and — fed from the batched
//! scheduler's prefix-group accounting — how many KV rows of the module
//! were streamed *once per group* by the prefix-aware kernel. The
//! resulting heat ranking is exactly what a tiered store promotes and
//! demotes by, and what a sharded router places by.
//!
//! **Lock discipline.** The table is lock-light, mirroring the metrics
//! registry: one short mutex guards the label → counter-block map (and
//! the segment-id tag map), held only for the lookup; every counter is
//! an atomic, so the increment itself never holds the lock. The table is
//! opt-in ([`crate::StoreConfig::module_analytics`]); a store without
//! one pays a single `Option` check per would-be recording site.

use crate::store::ModuleKey;
use pc_model::SegmentId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on retained segment-id tags. Segment ids are pointer
/// identities; schema replacement mints new ones, so the map is pruned
/// wholesale past this bound rather than growing without limit (a brief
/// attribution gap, never unbounded memory).
const MAX_SEGMENT_TAGS: usize = 8192;

/// Atomic counter block for one module.
#[derive(Debug, Default)]
struct ModuleCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    degrades: AtomicU64,
    evictions: AtomicU64,
    relocations: AtomicU64,
    bytes_shared: AtomicU64,
    shared_rows: AtomicU64,
    last_access_tick: AtomicU64,
}

/// Point-in-time analytics for one module — one row of
/// [`CacheAnalytics::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleHeat {
    /// The module id: `schema:path/segments`.
    pub module: String,
    /// Store hits attributed to this module.
    pub hits: u64,
    /// Store misses (including corruption drops and injected misses).
    pub misses: u64,
    /// Graceful-degradation recomputes (missing/corrupt at fetch).
    pub degrades: u64,
    /// Host-tier evictions of this module.
    pub evictions: u64,
    /// Hits served at a non-zero placement shift: the canonical entry was
    /// reused at an offset other than the one it was encoded at (deferred
    /// RoPE: read in place, the query rotated). A subset of `hits`.
    pub relocations: u64,
    /// Bytes served zero-copy (`Arc`-aliased into session views).
    pub bytes_shared: u64,
    /// KV rows of this module streamed once per tile of prefix-group
    /// members by the batched attention kernel (row × layer units, matching
    /// `pc_kv_rows_shared_read_total`).
    pub shared_rows: u64,
    /// Store logical clock at the most recent access (0 = never).
    pub last_access_tick: u64,
}

impl ModuleHeat {
    /// The promotion score the heat ranking sorts by: accesses plus
    /// batched reuse, with relocated hits counted again on top. A module
    /// that is fetched often, anchors many prefix groups, *or* earns its
    /// keep across many different placements is hot; one with none of
    /// those is a demotion candidate.
    pub fn heat(&self) -> u64 {
        self.hits + self.shared_rows + self.relocations
    }
}

/// The per-module analytics table. See the [module docs](self).
#[derive(Debug, Default)]
pub struct CacheAnalytics {
    modules: Mutex<HashMap<String, Arc<ModuleCounters>>>,
    /// Segment pointer-identity → module counter block, so the batched
    /// scheduler's per-group shared-row accounting (which sees only
    /// [`SegmentId`]s) can be attributed back to modules.
    segments: Mutex<HashMap<SegmentId, Arc<ModuleCounters>>>,
}

/// The canonical module id label: `schema:path/segments`.
pub fn module_label(key: &ModuleKey) -> String {
    let mut label = String::with_capacity(key.schema.len() + 16);
    label.push_str(&key.schema);
    label.push(':');
    for (i, seg) in key.path.iter().enumerate() {
        if i > 0 {
            label.push('/');
        }
        label.push_str(seg);
    }
    label
}

impl CacheAnalytics {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn counters(&self, key: &ModuleKey) -> Arc<ModuleCounters> {
        let label = module_label(key);
        Arc::clone(self.modules.lock().entry(label).or_default())
    }

    /// Records a store hit at logical tick `tick`.
    pub fn record_hit(&self, key: &ModuleKey, tick: u64) {
        let c = self.counters(key);
        c.hits.fetch_add(1, Ordering::Relaxed);
        c.last_access_tick.store(tick, Ordering::Relaxed);
    }

    /// Records a store miss (not found, injected, or corruption-dropped)
    /// at logical tick `tick`.
    pub fn record_miss(&self, key: &ModuleKey, tick: u64) {
        let c = self.counters(key);
        c.misses.fetch_add(1, Ordering::Relaxed);
        c.last_access_tick.store(tick, Ordering::Relaxed);
    }

    /// Records a graceful-degradation recompute of the module.
    pub fn record_degrade(&self, key: &ModuleKey) {
        self.counters(key).degrades.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a host-tier eviction of the module (dropped by the host
    /// capacity bound with no disk tier to demote it to).
    pub fn record_eviction(&self, key: &ModuleKey) {
        self.counters(key).evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a hit served at a non-zero placement shift (the engine
    /// relocated the canonical entry, deferred RoPE).
    /// Call alongside — not instead of — the hit recorded by the store.
    pub fn record_relocation(&self, key: &ModuleKey) {
        self.counters(key).relocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` of the module served zero-copy into a session
    /// view.
    pub fn record_bytes_shared(&self, key: &ModuleKey, bytes: u64) {
        self.counters(key)
            .bytes_shared
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Tags a view segment with the module it aliases, so later
    /// [`CacheAnalytics::record_shared_rows_for_segment`] calls (from the
    /// batched scheduler, which sees only segment identities) land on the
    /// right module. Re-tagging an id overwrites.
    pub fn tag_segment(&self, id: SegmentId, key: &ModuleKey) {
        let counters = self.counters(key);
        let mut segments = self.segments.lock();
        if segments.len() >= MAX_SEGMENT_TAGS && !segments.contains_key(&id) {
            segments.clear();
        }
        segments.insert(id, counters);
    }

    /// Attributes `rows` shared-row reads (row × layer units) to the
    /// module tagged for `id`. Returns whether the segment was known.
    pub fn record_shared_rows_for_segment(&self, id: SegmentId, rows: u64) -> bool {
        let counters = self.segments.lock().get(&id).cloned();
        match counters {
            Some(c) => {
                c.shared_rows.fetch_add(rows, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Point-in-time heat ranking: hottest module first
    /// ([`ModuleHeat::heat`] descending, then last access descending,
    /// then label — fully deterministic for equal counters).
    pub fn snapshot(&self) -> Vec<ModuleHeat> {
        let mut rows: Vec<ModuleHeat> = self
            .modules
            .lock()
            .iter()
            .map(|(label, c)| ModuleHeat {
                module: label.clone(),
                hits: c.hits.load(Ordering::Relaxed),
                misses: c.misses.load(Ordering::Relaxed),
                degrades: c.degrades.load(Ordering::Relaxed),
                evictions: c.evictions.load(Ordering::Relaxed),
                relocations: c.relocations.load(Ordering::Relaxed),
                bytes_shared: c.bytes_shared.load(Ordering::Relaxed),
                shared_rows: c.shared_rows.load(Ordering::Relaxed),
                last_access_tick: c.last_access_tick.load(Ordering::Relaxed),
            })
            .collect();
        rows.sort_by(|a, b| {
            b.heat()
                .cmp(&a.heat())
                .then(b.last_access_tick.cmp(&a.last_access_tick))
                .then(a.module.cmp(&b.module))
        });
        rows
    }

    /// The labeled Prometheus series for every tracked module:
    /// `pc_module_*{module="…"}` counters plus the
    /// `pc_module_last_access_tick` gauge, with `# HELP`/`# TYPE`
    /// metadata per series name. Deterministic: modules sort by label
    /// within each series.
    pub fn prometheus_text(&self) -> String {
        let mut rows = self.snapshot();
        rows.sort_by(|a, b| a.module.cmp(&b.module));
        if rows.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        type SeriesRow = (&'static str, &'static str, fn(&ModuleHeat) -> u64);
        let series: [SeriesRow; 7] = [
            ("pc_module_hits_total", "counter", |m| m.hits),
            ("pc_module_misses_total", "counter", |m| m.misses),
            ("pc_module_degrades_total", "counter", |m| m.degrades),
            ("pc_module_evictions_total", "counter", |m| m.evictions),
            ("pc_module_relocations_total", "counter", |m| m.relocations),
            ("pc_module_kv_bytes_shared_total", "counter", |m| {
                m.bytes_shared
            }),
            ("pc_module_shared_rows_total", "counter", |m| m.shared_rows),
        ];
        for (name, kind, value) in series {
            let help = pc_telemetry::export::help_for(name);
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
            for m in &rows {
                let _ = writeln!(
                    out,
                    "{name}{{module=\"{}\"}} {}",
                    escape_label(&m.module),
                    value(m)
                );
            }
        }
        let name = "pc_module_last_access_tick";
        let help = pc_telemetry::export::help_for(name);
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge");
        for m in &rows {
            let _ = writeln!(
                out,
                "{name}{{module=\"{}\"}} {}",
                escape_label(&m.module),
                m.last_access_tick
            );
        }
        out
    }
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str) -> ModuleKey {
        ModuleKey::new("s", &[name.to_owned()])
    }

    #[test]
    fn label_joins_schema_and_path() {
        let k = ModuleKey::new("chat", &["<span>".into(), "3".into()]);
        assert_eq!(module_label(&k), "chat:<span>/3");
    }

    #[test]
    fn records_and_ranks_by_heat() {
        let a = CacheAnalytics::new();
        a.record_hit(&key("hot"), 1);
        a.record_hit(&key("hot"), 2);
        a.record_hit(&key("warm"), 3);
        a.record_miss(&key("cold"), 4);
        a.record_degrade(&key("cold"));
        let snap = a.snapshot();
        assert_eq!(snap[0].module, "s:hot");
        assert_eq!((snap[0].hits, snap[0].last_access_tick), (2, 2));
        assert_eq!(snap[1].module, "s:warm");
        assert_eq!(snap[2].module, "s:cold");
        assert_eq!((snap[2].misses, snap[2].degrades), (1, 1));
        assert!(snap[0].heat() > snap[2].heat());
    }

    #[test]
    fn segment_tags_route_shared_rows() {
        use pc_model::{KvCache, KvView};
        let a = CacheAnalytics::new();
        let mut cache = KvCache::with_shape(1, 2);
        cache.push_token_layer(0, &[0.0, 0.0], &[0.0, 0.0]);
        cache.push_position(0);
        let mut view = KvView::with_shape(1, 2);
        view.push_cache(Arc::new(cache)).unwrap();
        let id = view.segments()[0].id();
        assert!(!a.record_shared_rows_for_segment(id, 5), "untagged");
        a.tag_segment(id, &key("mod"));
        assert!(a.record_shared_rows_for_segment(id, 5));
        let snap = a.snapshot();
        assert_eq!(snap[0].shared_rows, 5);
    }

    #[test]
    fn relocations_count_and_raise_heat() {
        let a = CacheAnalytics::new();
        // Both modules have one hit; only "moved" was served at a shift.
        a.record_hit(&key("moved"), 1);
        a.record_relocation(&key("moved"));
        a.record_hit(&key("pinned"), 2);
        let snap = a.snapshot();
        assert_eq!(snap[0].module, "s:moved");
        assert_eq!(snap[0].relocations, 1);
        assert!(snap[0].heat() > snap[1].heat());
        let text = a.prometheus_text();
        assert!(
            text.contains("pc_module_relocations_total{module=\"s:moved\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pc_module_relocations_total{module=\"s:pinned\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn prometheus_text_is_labeled_and_complete() {
        let a = CacheAnalytics::new();
        a.record_hit(&key("a"), 1);
        a.record_bytes_shared(&key("a"), 128);
        let text = a.prometheus_text();
        assert!(text.contains("pc_module_hits_total{module=\"s:a\"} 1"), "{text}");
        assert!(
            text.contains("pc_module_kv_bytes_shared_total{module=\"s:a\"} 128"),
            "{text}"
        );
        assert!(text.contains("# HELP pc_module_hits_total "), "{text}");
        assert!(text.contains("# TYPE pc_module_last_access_tick gauge"), "{text}");
        // Every sample line is `name{labels} value` with a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn empty_table_exports_nothing() {
        assert_eq!(CacheAnalytics::new().prometheus_text(), "");
    }

    #[test]
    fn label_escaping() {
        let a = CacheAnalytics::new();
        a.record_hit(&ModuleKey::new("s\"x", &["p\\q".into()]), 1);
        let text = a.prometheus_text();
        assert!(text.contains("{module=\"s\\\"x:p\\\\q\"}"), "{text}");
    }
}
