//! The consistent-hash ring mapping model names to backend shards.
//!
//! Every backend owns `vnodes` pseudo-random points on a 64-bit circle; a
//! key is served by the backends that own the next points clockwise from
//! the key's own hash. Virtual nodes smooth the arc lengths so ownership is
//! close to uniform, and consistency comes from the circle itself: removing
//! a backend only reassigns the keys whose next-clockwise point belonged to
//! it — an expected `1/N` of the keyspace — while every other key keeps its
//! shard. (The classic Karger et al. construction; memcached's ketama and
//! the LSST/Qserv partitioning design both scale out this way.)
//!
//! The *preference list* of a key is the clockwise walk restricted to first
//! occurrences: backend of the first point, then the next distinct backend,
//! and so on. Replicas of a key are the first `R` entries, and the router
//! reads from them and nothing beyond: a backend past the first `R` may
//! still hold a superseded bundle. When a replica is ejected by its circuit
//! breaker the router tries it last, which is equivalent to removing it
//! from the ring for exactly as long as it stays ejected — no rehashing,
//! no coordination.

use std::collections::{BTreeMap, BTreeSet};

/// Virtual nodes per backend. 512 points per backend keeps the *arc
/// ownership* skew of an 8-shard ring near `1/√512 ≈ 4%` of uniform (the
/// property tests then bound arc skew plus key-sampling noise by ±25%), at
/// a memory cost of one `(u64, usize)` map entry per point — a few tens of
/// kilobytes for any realistic tier.
pub const DEFAULT_VNODES: usize = 512;

/// A consistent-hash ring over backend ids.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    points: BTreeMap<u64, usize>,
    members: BTreeSet<usize>,
}

impl HashRing {
    /// An empty ring with `vnodes` points per backend (clamped to ≥ 1).
    pub fn new(vnodes: usize) -> Self {
        HashRing {
            vnodes: vnodes.max(1),
            points: BTreeMap::new(),
            members: BTreeSet::new(),
        }
    }

    /// An empty ring with the default vnode count.
    pub fn with_default_vnodes() -> Self {
        Self::new(DEFAULT_VNODES)
    }

    /// Adds a backend's points to the ring (idempotent).
    pub fn add(&mut self, backend: usize) {
        if !self.members.insert(backend) {
            return;
        }
        for v in 0..self.vnodes {
            self.points.insert(Self::point(backend, v), backend);
        }
    }

    /// Removes a backend's points from the ring (idempotent). Only keys
    /// whose owning point belonged to this backend remap — an expected
    /// `1/N` of the keyspace.
    pub fn remove(&mut self, backend: usize) {
        if !self.members.remove(&backend) {
            return;
        }
        for v in 0..self.vnodes {
            self.points.remove(&Self::point(backend, v));
        }
    }

    /// Number of member backends.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `backend` is a member.
    pub fn contains(&self, backend: usize) -> bool {
        self.members.contains(&backend)
    }

    /// Member backend ids, ascending — what elasticity tests compare when
    /// asserting which ring a request snapshot observed.
    pub fn members(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().copied()
    }

    /// The backend owning `key`'s next-clockwise point, if any.
    pub fn primary(&self, key: &str) -> Option<usize> {
        self.walk(key).next()
    }

    /// Every member backend in `key`'s clockwise preference order; the
    /// first `R` entries are the key's replica set. The router never walks
    /// past them — this is the oracle the ring tests check
    /// [`HashRing::replicas`] against.
    pub fn preference(&self, key: &str) -> Vec<usize> {
        self.walk(key).collect()
    }

    /// The first `r` backends of the preference order (fewer if the ring is
    /// smaller than `r`).
    pub fn replicas(&self, key: &str, r: usize) -> Vec<usize> {
        self.walk(key).take(r).collect()
    }

    /// Clockwise walk from the key's hash, yielding each distinct backend
    /// once, in the order their points are encountered.
    fn walk(&self, key: &str) -> impl Iterator<Item = usize> + '_ {
        let start = hash_key(key);
        let mut seen = BTreeSet::new();
        let total = self.members.len();
        self.points
            .range(start..)
            .chain(self.points.range(..start))
            .map(|(_, &backend)| backend)
            .filter(move |&backend| seen.insert(backend))
            .take(total)
    }

    /// The ring point of one virtual node.
    fn point(backend: usize, vnode: usize) -> u64 {
        hash_key(&format!("backend-{backend}#vnode-{vnode}"))
    }
}

/// Hashes a key onto the ring: FNV-1a (shared with the bundle-digest
/// primitive in `pfr_core::persistence`) for byte mixing, then a
/// splitmix64 finalizer so short sequential names ("backend-0",
/// "backend-1", ...) spread over the whole 64-bit circle instead of
/// clustering.
pub fn hash_key(key: &str) -> u64 {
    let mut h = pfr_core::persistence::fnv1a(key.as_bytes());
    // splitmix64 finalizer.
    h = h.wrapping_add(0x9e3779b97f4a7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(n: usize) -> HashRing {
        let mut ring = HashRing::with_default_vnodes();
        for b in 0..n {
            ring.add(b);
        }
        ring
    }

    #[test]
    fn preference_lists_cover_every_member_exactly_once() {
        let ring = ring_of(5);
        for key in ["admissions", "recidivism", "credit", "x"] {
            let pref = ring.preference(key);
            assert_eq!(pref.len(), 5, "{key}");
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "{key}: {pref:?}");
            assert_eq!(ring.primary(key), Some(pref[0]));
            assert_eq!(ring.replicas(key, 2), pref[..2].to_vec());
        }
    }

    #[test]
    fn empty_ring_maps_nothing() {
        let ring = HashRing::with_default_vnodes();
        assert!(ring.is_empty());
        assert_eq!(ring.primary("model"), None);
        assert!(ring.preference("model").is_empty());
    }

    #[test]
    fn add_and_remove_are_idempotent() {
        let mut ring = ring_of(3);
        let before = ring.preference("m");
        ring.add(1);
        assert_eq!(ring.preference("m"), before);
        ring.remove(7);
        assert_eq!(ring.preference("m"), before);
        ring.remove(1);
        ring.remove(1);
        assert_eq!(ring.len(), 2);
        assert!(!ring.contains(1));
    }

    #[test]
    fn ownership_is_reasonably_uniform_across_8_shards() {
        let ring = ring_of(8);
        let keys = 4000;
        let mut counts = [0usize; 8];
        for i in 0..keys {
            counts[ring.primary(&format!("model-{i}")).unwrap()] += 1;
        }
        let ideal = keys as f64 / 8.0;
        for (b, &c) in counts.iter().enumerate() {
            let skew = (c as f64 - ideal).abs() / ideal;
            assert!(
                skew <= 0.25,
                "backend {b} owns {c} of {keys} keys ({:.1}% off uniform)",
                skew * 100.0
            );
        }
    }

    #[test]
    fn removing_one_backend_remaps_only_its_own_keys() {
        let n = 8;
        let keys: Vec<String> = (0..2000).map(|i| format!("model-{i}")).collect();
        for removed in 0..n {
            let mut ring = ring_of(n);
            let before: Vec<usize> = keys.iter().map(|k| ring.primary(k).unwrap()).collect();
            ring.remove(removed);
            let mut remapped = 0;
            for (key, &was) in keys.iter().zip(before.iter()) {
                let now = ring.primary(key).unwrap();
                if was == removed {
                    assert_ne!(now, removed, "{key} still maps to the removed backend");
                } else {
                    assert_eq!(now, was, "{key} moved although its shard survived");
                }
                if now != was {
                    remapped += 1;
                }
            }
            assert!(
                remapped as f64 <= 2.0 * keys.len() as f64 / n as f64,
                "removing {removed} remapped {remapped} of {} keys (> 2/N)",
                keys.len()
            );
        }
    }

    #[test]
    fn surviving_assignments_are_stable_under_growth() {
        let keys: Vec<String> = (0..1000).map(|i| format!("model-{i}")).collect();
        let mut ring = ring_of(4);
        let before: Vec<usize> = keys.iter().map(|k| ring.primary(k).unwrap()).collect();
        ring.add(4);
        let moved = keys
            .iter()
            .zip(before.iter())
            .filter(|(k, &was)| {
                let now = ring.primary(k).unwrap();
                // A key may only move *to* the new backend, never between
                // survivors.
                if now != was {
                    assert_eq!(now, 4, "{k} moved between surviving backends");
                }
                now != was
            })
            .count();
        // Expected 1/5 of keys move to the newcomer; allow generous slack.
        assert!(
            (100..=400).contains(&moved),
            "adding a 5th backend moved {moved} of 1000 keys"
        );
    }
}
