//! The AP's object cache store: bounded capacity, TTL expiry, block list.
//!
//! Entries live in ordered maps so every walk (expiry purge, eviction
//! scans, per-priority accounting) visits objects in key order — part of
//! the simulator's bitwise-determinism contract (`clippy.toml` bans hash
//! collections workspace-wide).

use std::collections::{BTreeMap, BTreeSet};

use ape_dnswire::UrlHash;
use ape_simnet::SimTime;

use crate::object::ObjectMeta;

/// A cached object plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Object metadata.
    pub meta: ObjectMeta,
    /// Last access time (drives LRU).
    pub last_access: SimTime,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Fresh object present; can be served.
    Hit,
    /// Key is on the block list; the AP refuses to serve or delegate-cache it.
    Blocked,
    /// Object present but past its TTL (will be treated as absent).
    Expired,
    /// Never seen or previously evicted.
    Absent,
}

/// Bounded cache keyed by hashed URL.
///
/// The store only tracks metadata and byte accounting; actual payloads live
/// with the node runtimes. Capacity accounting uses the declared object
/// sizes (`s_d`).
///
/// # Examples
///
/// ```
/// use ape_cachealg::{AppId, CacheStore, Lookup, ObjectMeta, Priority};
/// use ape_dnswire::UrlHash;
/// use ape_simnet::{SimDuration, SimTime};
///
/// let mut store = CacheStore::new(5_000_000, 500_000);
/// let meta = ObjectMeta {
///     key: UrlHash::of("http://a/obj"),
///     app: AppId::new(1),
///     size: 10_000,
///     priority: Priority::HIGH,
///     expires_at: SimTime::from_secs(600),
///     fetch_latency: SimDuration::from_millis(30),
/// };
/// store.insert(meta.clone(), SimTime::ZERO);
/// assert_eq!(store.lookup(meta.key, SimTime::from_secs(1)), Lookup::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct CacheStore {
    capacity: u64,
    used: u64,
    entries: BTreeMap<UrlHash, Entry>,
    block_list: BTreeSet<UrlHash>,
    block_threshold: u64,
    /// No entry expires before this. Lowered on insert and left alone on
    /// removal, so it can be early (one wasted scan) but never late.
    next_expiry: SimTime,
}

impl CacheStore {
    /// Creates a store with `capacity` bytes; objects larger than
    /// `block_threshold` are block-listed instead of cached (the paper uses
    /// 5 MB and 500 KB respectively).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64, block_threshold: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        CacheStore {
            capacity,
            used: 0,
            entries: BTreeMap::new(),
            block_list: BTreeSet::new(),
            block_threshold,
            next_expiry: SimTime::MAX,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently accounted to cached objects.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still free.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no objects.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The block-list size threshold in bytes.
    pub fn block_threshold(&self) -> u64 {
        self.block_threshold
    }

    /// Whether `size` exceeds the block-list threshold.
    pub fn exceeds_block_threshold(&self, size: u64) -> bool {
        size > self.block_threshold
    }

    /// Classifies a key without mutating access metadata.
    pub fn peek(&self, key: UrlHash, now: SimTime) -> Lookup {
        if self.block_list.contains(&key) {
            return Lookup::Blocked;
        }
        match self.entries.get(&key) {
            Some(e) if e.meta.is_expired(now) => Lookup::Expired,
            Some(_) => Lookup::Hit,
            None => Lookup::Absent,
        }
    }

    /// Classifies a key and, on a hit, bumps its recency.
    pub fn lookup(&mut self, key: UrlHash, now: SimTime) -> Lookup {
        if self.block_list.contains(&key) {
            return Lookup::Blocked;
        }
        match self.entries.get_mut(&key) {
            Some(e) if e.meta.is_expired(now) => Lookup::Expired,
            Some(e) => {
                e.last_access = now;
                Lookup::Hit
            }
            None => Lookup::Absent,
        }
    }

    /// Inserts (or replaces) an object. The caller must have made room:
    /// inserting beyond capacity is a policy bug.
    ///
    /// # Panics
    ///
    /// Panics if the object does not fit in the remaining capacity or is
    /// block-list-sized (callers must check [`exceeds_block_threshold`]
    /// first).
    ///
    /// [`exceeds_block_threshold`]: Self::exceeds_block_threshold
    pub fn insert(&mut self, meta: ObjectMeta, now: SimTime) {
        assert!(
            !self.exceeds_block_threshold(meta.size),
            "object of {} bytes exceeds block threshold",
            meta.size
        );
        if let Some(old) = self.entries.remove(&meta.key) {
            self.used -= old.meta.size;
        }
        assert!(
            meta.size <= self.free(),
            "insert of {} bytes into {} free bytes; evict first",
            meta.size,
            self.free()
        );
        self.used += meta.size;
        self.next_expiry = self.next_expiry.min(meta.expires_at);
        self.entries.insert(
            meta.key,
            Entry {
                meta,
                last_access: now,
            },
        );
    }

    /// Removes an object, returning its entry if present.
    pub fn remove(&mut self, key: UrlHash) -> Option<Entry> {
        let entry = self.entries.remove(&key)?;
        self.used -= entry.meta.size;
        Some(entry)
    }

    /// Adds a key to the block list (and drops any cached copy).
    pub fn block(&mut self, key: UrlHash) {
        self.remove(key);
        self.block_list.insert(key);
    }

    /// Whether a key is block-listed.
    pub fn is_blocked(&self, key: UrlHash) -> bool {
        self.block_list.contains(&key)
    }

    /// Drops every expired object, returning their metadata in key order
    /// (callers advertise the keys and feed the sizes to policy hooks).
    pub fn purge_expired(&mut self, now: SimTime) -> Vec<ObjectMeta> {
        if now < self.next_expiry {
            return Vec::new();
        }
        let mut next_expiry = SimTime::MAX;
        let mut expired = Vec::new();
        for (key, e) in &self.entries {
            if e.meta.is_expired(now) {
                expired.push(*key);
            } else {
                next_expiry = next_expiry.min(e.meta.expires_at);
            }
        }
        self.next_expiry = next_expiry;
        expired
            .into_iter()
            .filter_map(|key| self.remove(key))
            .map(|entry| entry.meta)
            .collect()
    }

    /// Iterates over current entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values()
    }

    /// Looks up an entry without touching recency.
    pub fn get(&self, key: UrlHash) -> Option<&Entry> {
        self.entries.get(&key)
    }

    /// Keys of all cached objects, in key order. Used by the AP to batch
    /// per-domain flags.
    pub fn keys(&self) -> impl Iterator<Item = UrlHash> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{AppId, Priority};
    use ape_simnet::SimDuration;

    fn meta(url: &str, size: u64, expires_s: u64) -> ObjectMeta {
        ObjectMeta {
            key: UrlHash::of(url),
            app: AppId::new(1),
            size,
            priority: Priority::LOW,
            expires_at: SimTime::from_secs(expires_s),
            fetch_latency: SimDuration::from_millis(25),
        }
    }

    #[test]
    fn insert_lookup_hit() {
        let mut s = CacheStore::new(1000, 500);
        s.insert(meta("a", 100, 60), SimTime::ZERO);
        assert_eq!(
            s.lookup(UrlHash::of("a"), SimTime::from_secs(1)),
            Lookup::Hit
        );
        assert_eq!(s.used(), 100);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn unknown_key_is_absent() {
        let mut s = CacheStore::new(1000, 500);
        assert_eq!(s.lookup(UrlHash::of("nope"), SimTime::ZERO), Lookup::Absent);
    }

    #[test]
    fn expired_objects_report_expired_and_purge() {
        let mut s = CacheStore::new(1000, 500);
        s.insert(meta("a", 100, 10), SimTime::ZERO);
        assert_eq!(
            s.lookup(UrlHash::of("a"), SimTime::from_secs(11)),
            Lookup::Expired
        );
        let purged = s.purge_expired(SimTime::from_secs(11));
        assert_eq!(
            purged.iter().map(|m| m.key).collect::<Vec<_>>(),
            vec![UrlHash::of("a")]
        );
        assert_eq!(s.used(), 0);
        assert_eq!(
            s.lookup(UrlHash::of("a"), SimTime::from_secs(11)),
            Lookup::Absent
        );
    }

    #[test]
    fn blocked_keys_report_blocked() {
        let mut s = CacheStore::new(1000, 500);
        s.insert(meta("big", 100, 60), SimTime::ZERO);
        s.block(UrlHash::of("big"));
        assert_eq!(s.lookup(UrlHash::of("big"), SimTime::ZERO), Lookup::Blocked);
        assert!(s.is_blocked(UrlHash::of("big")));
        assert_eq!(s.used(), 0, "blocking drops the cached copy");
    }

    #[test]
    fn replace_updates_accounting() {
        let mut s = CacheStore::new(1000, 500);
        s.insert(meta("a", 100, 60), SimTime::ZERO);
        s.insert(meta("a", 300, 60), SimTime::from_secs(1));
        assert_eq!(s.used(), 300);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_frees_bytes() {
        let mut s = CacheStore::new(1000, 500);
        s.insert(meta("a", 100, 60), SimTime::ZERO);
        let entry = s.remove(UrlHash::of("a")).unwrap();
        assert_eq!(entry.meta.size, 100);
        assert_eq!(s.used(), 0);
        assert!(s.remove(UrlHash::of("a")).is_none());
    }

    #[test]
    #[should_panic(expected = "evict first")]
    fn over_capacity_insert_panics() {
        let mut s = CacheStore::new(150, 500);
        s.insert(meta("a", 100, 60), SimTime::ZERO);
        s.insert(meta("b", 100, 60), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "block threshold")]
    fn oversized_insert_panics() {
        let mut s = CacheStore::new(10_000, 500);
        s.insert(meta("big", 501, 60), SimTime::ZERO);
    }

    #[test]
    fn peek_does_not_touch_recency() {
        let mut s = CacheStore::new(1000, 500);
        s.insert(meta("a", 100, 60), SimTime::ZERO);
        assert_eq!(s.peek(UrlHash::of("a"), SimTime::from_secs(1)), Lookup::Hit);
        assert_eq!(s.get(UrlHash::of("a")).unwrap().last_access, SimTime::ZERO);
    }

    #[test]
    fn free_plus_used_is_capacity() {
        let mut s = CacheStore::new(1000, 500);
        s.insert(meta("a", 123, 60), SimTime::ZERO);
        assert_eq!(s.free() + s.used(), s.capacity());
        assert!(!s.is_empty());
        assert_eq!(s.iter().count(), 1);
        assert_eq!(s.keys().count(), 1);
    }

    #[test]
    fn threshold_checks() {
        let s = CacheStore::new(1000, 500);
        assert!(s.exceeds_block_threshold(501));
        assert!(!s.exceeds_block_threshold(500));
        assert_eq!(s.block_threshold(), 500);
    }
}
