//! A sharded LRU cache of `RangeReach` answers.
//!
//! Geosocial query streams repeat themselves: popular vertices and popular
//! regions (a city center, a venue cluster) recur across clients, and a
//! `RangeReach` answer over an immutable index is a pure function of
//! `(vertex, rectangle)`. [`ResultCache`] memoizes those answers so a
//! repeated query costs one hash probe instead of an index traversal.
//!
//! ## Sharding
//!
//! The cache is split into `NUM_SHARDS` independent segments, each its
//! own mutex-protected LRU. A query locks exactly one shard, chosen by a
//! hash of the canonical key, so concurrent connection handlers rarely
//! contend. Hit/miss/eviction counters are relaxed atomics outside the
//! locks.
//!
//! ## Key canonicalization
//!
//! The key is the query vertex plus the four rectangle coordinates mapped
//! through [`f64::to_bits`], with negative zero folded onto positive zero
//! first. Bit-level keys make equality exact (no epsilon surprises), and
//! the `-0.0` fold keeps the one IEEE-754 case where distinct bit patterns
//! compare equal from splitting cache entries. `NaN` rectangles never
//! reach the cache: only *answered* queries are inserted, and a `NaN`
//! rectangle fails validation before evaluation.
//!
//! Entries are only ever inserted for successful answers — errors,
//! timeouts and cancellations are not cached, so a transient failure can
//! never be replayed from the cache.
//!
//! ## Epochs and `clear`
//!
//! Every key carries the epoch of the index that answered it, which the
//! caller passes to [`ResultCache::get_at`] and [`ResultCache::insert_at`].
//! The server gives every `(dataset, index version)` pair its own epoch,
//! so a hot `RELOAD` invalidates the old answers by changing the epoch it
//! probes with, not by emptying the cache: a batch still running on the
//! old index inserts under the old epoch, where no lookup for the new one
//! can match. [`ResultCache::clear`] only frees that memory. No lock is
//! held across the swap; staleness is structural, not timing-dependent.

use gsr_geo::Rect;
use gsr_graph::VertexId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked cache segments.
const NUM_SHARDS: usize = 8;

/// Sentinel slot index for the intrusive LRU list.
const NIL: u32 = u32::MAX;

/// Canonical bit pattern of one rectangle coordinate.
#[inline]
fn canon_bits(x: f64) -> u64 {
    // Fold -0.0 onto +0.0: they compare equal as queries, so they must
    // compare equal as keys.
    if x == 0.0 {
        0.0f64.to_bits()
    } else {
        x.to_bits()
    }
}

/// The canonical cache key of a `RangeReach` query, stamped with the
/// index epoch it was answered under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    epoch: u64,
    vertex: VertexId,
    rect: [u64; 4],
}

impl CacheKey {
    fn new(epoch: u64, vertex: VertexId, rect: &Rect) -> Self {
        CacheKey {
            epoch,
            vertex,
            rect: [
                canon_bits(rect.min_x),
                canon_bits(rect.min_y),
                canon_bits(rect.max_x),
                canon_bits(rect.max_y),
            ],
        }
    }

    /// FNV-1a over the key bytes; used only to pick a shard (the in-shard
    /// map uses the std hasher).
    fn shard_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        mix(self.epoch);
        mix(u64::from(self.vertex));
        for &w in &self.rect {
            mix(w);
        }
        h
    }
}

/// One cache entry in the slot arena, threaded into the shard's intrusive
/// doubly-linked recency list.
#[derive(Debug)]
struct Slot {
    key: CacheKey,
    value: bool,
    prev: u32,
    next: u32,
}

/// One mutex-protected cache segment: a hash map into a slot arena whose
/// slots form a doubly-linked list ordered by recency (head = MRU).
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, u32>,
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    free: Vec<u32>,
}

impl Shard {
    fn new() -> Self {
        Shard { head: NIL, tail: NIL, ..Shard::default() }
    }

    /// Unlinks slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links slot `i` at the head (most recently used).
    fn link_front(&mut self, i: u32) {
        let old = self.head;
        {
            let s = &mut self.slots[i as usize];
            s.prev = NIL;
            s.next = old;
        }
        match old {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// Evicts the least-recently-used entry; returns whether one existed.
    fn evict_tail(&mut self) -> bool {
        let t = self.tail;
        if t == NIL {
            return false;
        }
        self.unlink(t);
        let key = self.slots[t as usize].key;
        self.map.remove(&key);
        self.free.push(t);
        true
    }
}

/// Point-in-time cache counters; see [`ResultCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the index.
    pub misses: u64,
    /// Entries displaced to make room for new ones.
    pub evictions: u64,
}

/// The sharded LRU result cache. `Send + Sync`; share it behind an `Arc`
/// or borrow it from the server that owns it.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `entries` answers in total, spread over
    /// `NUM_SHARDS` segments (each gets `ceil(entries / NUM_SHARDS)`,
    /// but at least one, so tiny capacities still cache something).
    pub fn new(entries: usize) -> Self {
        ResultCache {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            per_shard_cap: entries.div_ceil(NUM_SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.shard_hash() % NUM_SHARDS as u64) as usize]
    }

    /// Looks up the answer cached under `epoch`, refreshing its recency on
    /// a hit.
    pub fn get_at(&self, epoch: u64, vertex: VertexId, rect: &Rect) -> Option<bool> {
        let key = CacheKey::new(epoch, vertex, rect);
        // A poisoned shard (a panic while locked) degrades to a miss.
        let Ok(mut shard) = self.shard(&key).lock() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match shard.map.get(&key).copied() {
            Some(i) => {
                shard.touch(i);
                let value = shard.slots[i as usize].value;
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores an answer under `epoch`, evicting the shard's
    /// least-recently-used entry when the shard is full. Re-inserting an
    /// existing key refreshes its value and recency.
    pub fn insert_at(&self, epoch: u64, vertex: VertexId, rect: &Rect, value: bool) {
        let key = CacheKey::new(epoch, vertex, rect);
        let Ok(mut shard) = self.shard(&key).lock() else { return };
        if let Some(i) = shard.map.get(&key).copied() {
            shard.slots[i as usize].value = value;
            shard.touch(i);
            return;
        }
        let mut evicted = false;
        if shard.map.len() >= self.per_shard_cap {
            evicted = shard.evict_tail();
        }
        let slot = Slot { key, value, prev: NIL, next: NIL };
        let i = match shard.free.pop() {
            Some(i) => {
                shard.slots[i as usize] = slot;
                i
            }
            None => {
                shard.slots.push(slot);
                (shard.slots.len() - 1) as u32
            }
        };
        shard.link_front(i);
        shard.map.insert(key, i);
        drop(shard);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of entries currently cached, over all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map_or(0, |g| g.map.len())).sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached entry, for a `RELOAD`. Counters are kept — a
    /// reload is not a measurement boundary. Entries inserted concurrently
    /// by batches still running on the old index carry the old epoch and
    /// age out through normal LRU pressure.
    pub fn clear(&self) {
        for shard in &self.shards {
            if let Ok(mut s) = shard.lock() {
                *s = Shard::new();
            }
        }
    }

    /// Zeroes the hit/miss/eviction counters for a `RESET` request. Cached
    /// entries are untouched — the cache's contents are exact answers over
    /// an immutable index, so there is nothing stale to drop; only the
    /// tallies restart.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// The hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x: f64) -> Rect {
        Rect::new(x, 0.0, x + 1.0, 1.0)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = ResultCache::new(64);
        assert_eq!(cache.get_at(0, 1, &rect(0.0)), None);
        cache.insert_at(0, 1, &rect(0.0), true);
        cache.insert_at(0, 2, &rect(0.0), false);
        assert_eq!(cache.get_at(0, 1, &rect(0.0)), Some(true));
        assert_eq!(cache.get_at(0, 2, &rect(0.0)), Some(false));
        assert_eq!(cache.get_at(0, 1, &rect(5.0)), None, "different rect, same vertex");
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn negative_zero_folds_onto_positive_zero() {
        let cache = ResultCache::new(8);
        cache.insert_at(0, 7, &Rect::new(-0.0, 0.0, 1.0, 1.0), true);
        assert_eq!(cache.get_at(0, 7, &Rect::new(0.0, -0.0, 1.0, 1.0)), Some(true));
        assert_eq!(cache.len(), 1, "both spellings share one entry");
    }

    #[test]
    fn lru_evicts_oldest_within_a_shard() {
        // Capacity 8 over 8 shards = 1 entry per shard: the second insert
        // into any shard must evict the first.
        let cache = ResultCache::new(8);
        for i in 0..64u32 {
            cache.insert_at(0, i, &rect(0.0), true);
        }
        assert!(cache.len() <= 8, "per-shard caps hold: {}", cache.len());
        // Each shard keeps one entry; every other insert into it evicted.
        assert!(cache.stats().evictions >= 64 - NUM_SHARDS as u64);
    }

    #[test]
    fn touch_on_get_protects_hot_entries() {
        // One shard in isolation: find two keys in the same shard.
        let cache = ResultCache::new(NUM_SHARDS * 2); // 2 per shard
        let mut same_shard: Vec<u32> = Vec::new();
        let probe = CacheKey::new(0, 0, &rect(0.0)).shard_hash() % NUM_SHARDS as u64;
        for v in 0..1024u32 {
            if CacheKey::new(0, v, &rect(0.0)).shard_hash() % NUM_SHARDS as u64 == probe {
                same_shard.push(v);
                if same_shard.len() == 3 {
                    break;
                }
            }
        }
        let [a, b, c] = same_shard[..] else {
            panic!("expected 3 colliding keys");
        };
        cache.insert_at(0, a, &rect(0.0), true);
        cache.insert_at(0, b, &rect(0.0), true);
        // Touch `a`, then overflow the shard: `b` (now LRU) must go.
        assert_eq!(cache.get_at(0, a, &rect(0.0)), Some(true));
        cache.insert_at(0, c, &rect(0.0), true);
        assert_eq!(cache.get_at(0, a, &rect(0.0)), Some(true), "recently used survives");
        assert_eq!(cache.get_at(0, b, &rect(0.0)), None, "LRU entry was evicted");
        assert_eq!(cache.get_at(0, c, &rect(0.0)), Some(true));
    }

    #[test]
    fn reset_stats_keeps_entries() {
        let cache = ResultCache::new(64);
        cache.insert_at(0, 1, &rect(0.0), true);
        assert_eq!(cache.get_at(0, 1, &rect(0.0)), Some(true));
        assert_eq!(cache.get_at(0, 2, &rect(0.0)), None);
        cache.reset_stats();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.len(), 1, "entries survive a counter reset");
        assert_eq!(cache.get_at(0, 1, &rect(0.0)), Some(true));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn clear_empties_the_cache_and_keeps_the_counters() {
        let cache = ResultCache::new(64);
        cache.insert_at(0, 1, &rect(0.0), true);
        cache.insert_at(0, 2, &rect(0.0), false);
        cache.clear();
        assert!(cache.is_empty(), "clear drops every entry");
        assert_eq!(cache.get_at(0, 1, &rect(0.0)), None);
        // Counters survive: the miss above is counted on top of the two
        // insert-time probes the test never made (inserts don't probe).
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn stale_epoch_inserts_are_unreachable_after_clear() {
        let cache = ResultCache::new(64);
        let (old_epoch, new_epoch) = (3, 4);
        cache.clear();
        // A batch that started before a reload races its insert in
        // afterwards, stamped with the epoch it pinned at batch start.
        cache.insert_at(old_epoch, 1, &rect(0.0), true);
        assert_eq!(cache.get_at(new_epoch, 1, &rect(0.0)), None, "stale answer never served");
        assert_eq!(cache.get_at(old_epoch, 1, &rect(0.0)), Some(true), "but it did land");
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let cache = ResultCache::new(64);
        cache.insert_at(0, 1, &rect(0.0), true);
        cache.insert_at(0, 1, &rect(0.0), false);
        assert_eq!(cache.get_at(0, 1, &rect(0.0)), Some(false));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_access_is_safe_and_consistent() {
        let cache = std::sync::Arc::new(ResultCache::new(256));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..500u32 {
                        let v = (t * 37 + i) % 64;
                        cache.insert_at(0, v, &rect(0.0), v % 2 == 0);
                        if let Some(ans) = cache.get_at(0, v, &rect(0.0)) {
                            assert_eq!(ans, v % 2 == 0, "value integrity under contention");
                        }
                    }
                });
            }
        });
        assert!(cache.len() <= 256);
    }
}
