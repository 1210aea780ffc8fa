//! An LRU cache for scores, keyed by (model generation, exact feature bits).
//!
//! Scoring is deterministic, so a cache hit returns the *identical* f64 the
//! model would produce. Keys store the full bit pattern of the feature
//! vector (not a lossy hash), so two vectors collide only if they are
//! bit-identical — in which case the cached score is exact by construction.
//! NaN feature vectors are refused rather than cached: NaN != NaN would make
//! key equality lie.
//!
//! Recency is tracked with a monotonically increasing tick and a
//! `BTreeMap<tick, key>` index, giving `O(log n)` get/insert/evict without
//! unsafe code or intrusive lists. Model hot-swaps need no explicit
//! invalidation: a new generation changes every key, and the old entries age
//! out of the LRU order naturally. Capacity is the one knob; there is no
//! expiry and no per-model budget.

use std::collections::{BTreeMap, HashMap};

/// Cache key: which model generation scored which exact feature vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScoreKey {
    generation: u64,
    feature_bits: Box<[u64]>,
}

impl ScoreKey {
    /// Builds a key from a model generation and a raw feature vector.
    /// Returns `None` if any feature is NaN (uncacheable: equality on the
    /// bit pattern would not imply equality of the vectors' semantics).
    pub fn new(generation: u64, features: &[f64]) -> Option<Self> {
        if features.iter().any(|f| f.is_nan()) {
            return None;
        }
        Some(ScoreKey {
            generation,
            feature_bits: features.iter().map(|f| f.to_bits()).collect(),
        })
    }
}

/// One cached score with its recency tick.
#[derive(Debug, Clone, Copy)]
struct Entry {
    score: f64,
    last_used: u64,
}

/// A fixed-capacity least-recently-used score cache.
#[derive(Debug)]
pub struct ScoreCache {
    capacity: usize,
    entries: HashMap<ScoreKey, Entry>,
    order: BTreeMap<u64, ScoreKey>,
    tick: u64,
}

impl ScoreCache {
    /// An LRU cache holding at most `capacity` scores; capacity 0 disables
    /// caching (every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        ScoreCache {
            capacity,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a score, refreshing the entry's recency on a hit.
    pub fn get(&mut self, key: &ScoreKey) -> Option<f64> {
        let tick = self.next_tick();
        let entry = self.entries.get_mut(key)?;
        self.order.remove(&entry.last_used);
        entry.last_used = tick;
        self.order.insert(tick, key.clone());
        Some(entry.score)
    }

    /// Inserts (or refreshes) a score, evicting the least recently used
    /// entry if the insert overflows the capacity.
    pub fn insert(&mut self, key: ScoreKey, score: f64) {
        if self.capacity == 0 {
            return;
        }
        let tick = self.next_tick();
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.score = score;
            self.order.remove(&entry.last_used);
            entry.last_used = tick;
            self.order.insert(tick, key);
            return;
        }
        self.entries.insert(
            key.clone(),
            Entry {
                score,
                last_used: tick,
            },
        );
        self.order.insert(tick, key);
        while self.entries.len() > self.capacity {
            let (_, oldest) = self
                .order
                .pop_first()
                .expect("order index and entry map stay in sync");
            self.entries.remove(&oldest);
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(generation: u64, features: &[f64]) -> ScoreKey {
        ScoreKey::new(generation, features).unwrap()
    }

    #[test]
    fn get_after_insert_returns_the_exact_score() {
        let mut cache = ScoreCache::new(4);
        let k = key(1, &[0.25, -3.5, 1e-300]);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), 0.123456789);
        assert_eq!(cache.get(&k), Some(0.123456789));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_is_part_of_the_key() {
        let mut cache = ScoreCache::new(4);
        cache.insert(key(1, &[1.0]), 0.1);
        cache.insert(key(2, &[1.0]), 0.9);
        assert_eq!(cache.get(&key(1, &[1.0])), Some(0.1));
        assert_eq!(cache.get(&key(2, &[1.0])), Some(0.9));
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut cache = ScoreCache::new(2);
        cache.insert(key(1, &[1.0]), 0.1);
        cache.insert(key(1, &[2.0]), 0.2);
        // Touch [1.0] so [2.0] becomes the LRU entry.
        assert!(cache.get(&key(1, &[1.0])).is_some());
        cache.insert(key(1, &[3.0]), 0.3);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1, &[2.0])).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1, &[1.0])).is_some());
        assert!(cache.get(&key(1, &[3.0])).is_some());
    }

    #[test]
    fn reinserting_refreshes_value_and_recency() {
        let mut cache = ScoreCache::new(2);
        cache.insert(key(1, &[1.0]), 0.1);
        cache.insert(key(1, &[2.0]), 0.2);
        cache.insert(key(1, &[1.0]), 0.15); // refresh, [2.0] now LRU
        cache.insert(key(1, &[3.0]), 0.3);
        assert_eq!(cache.get(&key(1, &[1.0])), Some(0.15));
        assert!(cache.get(&key(1, &[2.0])).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ScoreCache::new(0);
        cache.insert(key(1, &[1.0]), 0.5);
        assert!(cache.is_empty());
        assert!(cache.get(&key(1, &[1.0])).is_none());
    }

    #[test]
    fn nan_vectors_are_uncacheable() {
        assert!(ScoreKey::new(1, &[f64::NAN]).is_none());
        assert!(ScoreKey::new(1, &[1.0, f64::NAN, 2.0]).is_none());
        assert!(ScoreKey::new(1, &[f64::INFINITY]).is_some());
    }

    #[test]
    fn negative_zero_and_positive_zero_are_distinct_keys() {
        // Bit-exact keying: -0.0 and 0.0 differ in bits, and the scores for
        // the two vectors are identical anyway because scoring is a pure
        // function of the bits... of the *standardized* values, which can
        // differ. Distinct keys are the conservative, correct choice.
        let mut cache = ScoreCache::new(4);
        cache.insert(key(1, &[0.0]), 0.5);
        assert!(cache.get(&key(1, &[-0.0])).is_none());
    }
}
