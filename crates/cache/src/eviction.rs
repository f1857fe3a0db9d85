//! Eviction policies for the bounded host tier.
//!
//! The paper leaves "GPU cache replacement strategies optimized to achieve
//! the latency lower bound" to future work (§6); this module implements the
//! classic candidates. The store asks one of them for a victim whenever
//! [`StoreConfig::host_capacity_bytes`](crate::StoreConfig::host_capacity_bytes)
//! is exceeded, and the ablation bench (`eviction_ablation`) compares them
//! under Zipfian module popularity.

/// Per-module access statistics the policies score on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModuleStats {
    /// Logical timestamp of the most recent access.
    pub last_access: u64,
    /// Total number of accesses.
    pub access_count: u64,
    /// Size of the module's states in bytes.
    pub size_bytes: usize,
    /// Cost to re-encode the module if evicted (e.g. estimated
    /// milliseconds or FLOPs — any consistent unit).
    pub recompute_cost: f64,
}

/// Which module to demote (or drop) when the host tier is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Evict the least recently used module.
    #[default]
    Lru,
    /// Evict the least frequently used module (ties: least recent).
    Lfu,
    /// Greedy-Dual-Size-Frequency: evict the lowest
    /// `freq × cost / size` (ties: least recent). Balances popularity
    /// against footprint and recompute cost.
    Gdsf,
    /// Evict the largest module first (frees space fastest).
    SizeFirst,
}

impl EvictionPolicy {
    /// All policies, for ablation sweeps.
    pub const ALL: [EvictionPolicy; 4] = [
        EvictionPolicy::Lru,
        EvictionPolicy::Lfu,
        EvictionPolicy::Gdsf,
        EvictionPolicy::SizeFirst,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::Lfu => "lfu",
            EvictionPolicy::Gdsf => "gdsf",
            EvictionPolicy::SizeFirst => "size-first",
        }
    }

    /// Returns the index of the entry to evict from `candidates`
    /// (`None` when empty). Lower retention score evicts first.
    pub fn victim(self, candidates: &[ModuleStats]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let score = |s: &ModuleStats| -> (f64, u64) {
            match self {
                EvictionPolicy::Lru => (s.last_access as f64, s.last_access),
                EvictionPolicy::Lfu => (s.access_count as f64, s.last_access),
                EvictionPolicy::Gdsf => {
                    let size = s.size_bytes.max(1) as f64;
                    (s.access_count as f64 * s.recompute_cost.max(1e-9) / size, s.last_access)
                }
                // SizeFirst retains *small* modules: score = -size.
                EvictionPolicy::SizeFirst => (-(s.size_bytes as f64), s.last_access),
            }
        };
        candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let (sa, ta) = score(a);
                let (sb, tb) = score(b);
                sa.partial_cmp(&sb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ta.cmp(&tb))
            })
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(last: u64, count: u64, size: usize, cost: f64) -> ModuleStats {
        ModuleStats {
            last_access: last,
            access_count: count,
            size_bytes: size,
            recompute_cost: cost,
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = [stats(5, 1, 10, 1.0), stats(2, 9, 10, 1.0), stats(8, 1, 10, 1.0)];
        assert_eq!(EvictionPolicy::Lru.victim(&c), Some(1));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let c = [stats(1, 7, 10, 1.0), stats(9, 2, 10, 1.0), stats(5, 5, 10, 1.0)];
        assert_eq!(EvictionPolicy::Lfu.victim(&c), Some(1));
    }

    #[test]
    fn lfu_ties_break_to_least_recent() {
        let c = [stats(9, 3, 10, 1.0), stats(2, 3, 10, 1.0)];
        assert_eq!(EvictionPolicy::Lfu.victim(&c), Some(1));
    }

    #[test]
    fn gdsf_prefers_keeping_cheap_to_store_expensive_to_recompute() {
        // Same frequency: the big, cheap-to-recompute module goes first.
        let c = [
            stats(1, 5, 1_000_000, 1.0), // big, cheap
            stats(1, 5, 1_000, 1.0),     // small
            stats(1, 5, 1_000_000, 500.0), // big but very costly to redo
        ];
        assert_eq!(EvictionPolicy::Gdsf.victim(&c), Some(0));
    }

    #[test]
    fn size_first_evicts_largest() {
        let c = [stats(1, 1, 10, 1.0), stats(1, 1, 999, 1.0), stats(1, 1, 50, 1.0)];
        assert_eq!(EvictionPolicy::SizeFirst.victim(&c), Some(1));
    }

    #[test]
    fn empty_candidates_yield_none() {
        for p in EvictionPolicy::ALL {
            assert_eq!(p.victim(&[]), None);
        }
    }

    #[test]
    fn single_candidate_is_always_victim() {
        let c = [stats(1, 1, 1, 1.0)];
        for p in EvictionPolicy::ALL {
            assert_eq!(p.victim(&c), Some(0));
        }
    }
}
