//! Cost-aware LRU cache: the in-memory tier of the artifact store.
//!
//! A plain LRU treats a 2-second and a 2-hour characterization as equally
//! replaceable. Here every entry carries its *recompute cost* (the
//! quantum-ops count its characterization consumed), and eviction picks the
//! **cheapest entry within the least-recently-used half** of the cache:
//! staleness still matters (a hot expensive entry is never at risk), but
//! among comparably stale entries the one that is cheapest to regenerate is
//! sacrificed first. This is a simplified GreedyDual-style policy that
//! keeps `get`/`insert` O(1) amortized and only pays O(n) on an eviction.

use std::collections::HashMap;
use std::hash::Hash;

/// An LRU cache whose eviction order is biased by per-entry recompute cost.
#[derive(Debug)]
pub struct CostAwareLru<K, V> {
    entries: HashMap<K, Slot<V>>,
    capacity: usize,
    /// Logical clock: bumped on every access, stored per entry as recency.
    clock: u64,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    cost: u64,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V> CostAwareLru<K, V> {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CostAwareLru {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a key, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(key).map(|slot| {
            slot.last_used = clock;
            &slot.value
        })
    }

    /// The stored recompute cost of a resident entry.
    pub fn cost_of(&self, key: &K) -> Option<u64> {
        self.entries.get(key).map(|slot| slot.cost)
    }

    /// Inserts an entry (replacing any previous value under the key),
    /// evicting per the cost-aware policy if the cache is over capacity.
    /// Returns the evicted `(key, value)` pairs.
    pub fn insert(&mut self, key: K, value: V, cost: u64) -> Vec<(K, V)> {
        self.clock += 1;
        self.entries.insert(
            key,
            Slot {
                value,
                cost,
                last_used: self.clock,
            },
        );
        let mut evicted = Vec::new();
        while self.entries.len() > self.capacity {
            if let Some(victim) = self.pick_victim() {
                if let Some(slot) = self.entries.remove(&victim) {
                    evicted.push((victim, slot.value));
                }
            } else {
                break;
            }
        }
        evicted
    }

    /// Drops every entry (the capacity is kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The cheapest entry among the least-recently-used half (see module
    /// docs). Never returns the single most-recent entry, so an insert
    /// cannot evict itself.
    fn pick_victim(&self) -> Option<K> {
        let n = self.entries.len();
        if n == 0 {
            return None;
        }
        let mut order: Vec<(&K, &Slot<V>)> = self.entries.iter().collect();
        order.sort_by_key(|(_, slot)| slot.last_used);
        // The stale half, but always at least one candidate and never the
        // most recently used entry.
        let window = (n / 2).max(1).min(n - 1).max(1);
        order[..window.min(n)]
            .iter()
            .min_by_key(|(_, slot)| (slot.cost, slot.last_used))
            .map(|(k, _)| (*k).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_enforced() {
        let mut lru = CostAwareLru::new(2);
        assert!(lru.insert("a", 1, 10).is_empty());
        assert!(lru.insert("b", 2, 10).is_empty());
        let evicted = lru.insert("c", 3, 10);
        assert_eq!(evicted.len(), 1);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn equal_costs_degrade_to_plain_lru() {
        let mut lru = CostAwareLru::new(2);
        lru.insert("a", 1, 5);
        lru.insert("b", 2, 5);
        assert_eq!(lru.get(&"a"), Some(&1)); // refresh a; b is now oldest
        let evicted = lru.insert("c", 3, 5);
        assert_eq!(evicted, vec![("b", 2)]);
        assert!(lru.get(&"a").is_some());
    }

    #[test]
    fn expensive_stale_entry_outlives_cheap_stale_entry() {
        let mut lru = CostAwareLru::new(3);
        lru.insert("gold", 1, 1_000_000); // expensive, oldest
        lru.insert("tin", 2, 10); // cheap, second-oldest
        lru.insert("fresh", 3, 10);
        // Both `gold` and `tin` are in the stale half; `tin` is cheaper.
        let evicted = lru.insert("new", 4, 10);
        assert_eq!(evicted, vec![("tin", 2)]);
        assert!(lru.get(&"gold").is_some());
    }

    #[test]
    fn hot_entry_is_never_the_victim() {
        let mut lru = CostAwareLru::new(1);
        lru.insert("only", 1, 0);
        let evicted = lru.insert("next", 2, 0);
        // With capacity 1 the previous entry goes, not the fresh insert.
        assert_eq!(evicted, vec![("only", 1)]);
        assert_eq!(lru.get(&"next"), Some(&2));
    }

    #[test]
    fn reinsert_updates_value_and_cost() {
        let mut lru = CostAwareLru::new(4);
        lru.insert("k", 1, 5);
        lru.insert("k", 2, 9);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&"k"), Some(&2));
        assert_eq!(lru.cost_of(&"k"), Some(9));
        lru.clear();
        assert!(lru.is_empty());
    }
}
