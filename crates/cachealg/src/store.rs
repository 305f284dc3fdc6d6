//! The AP's object cache store: bounded capacity, TTL expiry, block list.
//!
//! Entries sit in a slab, a `Vec` of slots whose vacated slots form a free
//! list, and are found through a key-ordered `BTreeMap<UrlHash, u32>` of
//! slot numbers. Every walk by key (expiry purge, PACM's candidate build,
//! per-priority accounting) therefore visits objects in key order — part
//! of the simulator's bitwise-determinism contract (`clippy.toml` bans
//! hash collections workspace-wide).
//!
//! A doubly linked list through the slots, the recency list, holds every
//! entry in `(last_access, key)` order, least recent first
//! ([`CacheStore::by_recency`]); LRU's victims are a prefix of it. An entry
//! is linked in by walking back from the most recent end, past the entries
//! that rank after it. While the clock runs forward that walk passes only
//! entries touched at the same instant with a larger key, so a hit costs
//! constant time.
//!
//! The store also keeps each app's `(bytes, objects)` totals
//! ([`CacheStore::app_totals`]), the per-app storage PACM's fairness bound
//! is computed over. Every insert and removal updates them, and an app
//! leaves the map with its last object.

use std::collections::{BTreeMap, BTreeSet};

use ape_dnswire::UrlHash;
use ape_simnet::SimTime;

use crate::object::{AppId, ObjectMeta};

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

/// No slot: the end of the recency list or of the free list.
const NIL: u32 = u32::MAX;

/// One slab slot. A live slot's links are its recency-list neighbours; a
/// free slot keeps its last entry and links only `next`, the next free slot.
#[derive(Debug, Clone)]
struct Slot {
    entry: Entry,
    prev: u32,
    next: u32,
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
    /// Key to slot, for every cached object.
    index: BTreeMap<UrlHash, u32>,
    slots: Vec<Slot>,
    /// Head of the free list threaded through free slots' `next`.
    free_slot: u32,
    /// Ends of the recency list: least and most recently used.
    oldest: u32,
    newest: u32,
    /// Per-app `(bytes, objects)` over the cached objects; no app holds
    /// zero objects.
    apps: BTreeMap<AppId, (u64, u32)>,
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
            index: BTreeMap::new(),
            slots: Vec::new(),
            free_slot: NIL,
            oldest: NIL,
            newest: NIL,
            apps: BTreeMap::new(),
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
        self.index.len()
    }

    /// Each app's `(bytes, objects)` over the cached objects, by app id;
    /// apps with nothing cached are absent.
    pub fn app_totals(&self) -> &BTreeMap<AppId, (u64, u32)> {
        &self.apps
    }

    /// Whether the cache holds no objects.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
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
        match self.get(key) {
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
        let Some(&slot) = self.index.get(&key) else {
            return Lookup::Absent;
        };
        let entry = &mut self.slots[slot as usize].entry;
        if entry.meta.is_expired(now) {
            return Lookup::Expired;
        }
        entry.last_access = now;
        self.relink(slot);
        Lookup::Hit
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
        let replaced = self.index.get(&meta.key).copied();
        let freed = replaced.map_or(0, |slot| self.slots[slot as usize].entry.meta.size);
        assert!(
            meta.size <= self.free() + freed,
            "insert of {} bytes into {} free bytes; evict first",
            meta.size,
            self.free() + freed
        );
        if let Some(slot) = replaced {
            let old = &self.slots[slot as usize].entry.meta;
            self.uncount(old.app, old.size);
        }
        let totals = self.apps.entry(meta.app).or_default();
        totals.0 += meta.size;
        totals.1 += 1;
        self.used = self.used - freed + meta.size;
        self.next_expiry = self.next_expiry.min(meta.expires_at);
        let key = meta.key;
        let entry = Entry {
            meta,
            last_access: now,
        };
        match replaced {
            Some(slot) => {
                self.slots[slot as usize].entry = entry;
                self.relink(slot);
            }
            None => {
                let slot = self.alloc(entry);
                self.index.insert(key, slot);
                self.link(slot);
            }
        }
    }

    /// Removes an object, returning its entry if present.
    pub fn remove(&mut self, key: UrlHash) -> Option<Entry> {
        let slot = self.index.remove(&key)?;
        Some(self.release(slot))
    }

    /// Adds a key to the block list (and drops any cached copy).
    pub fn block(&mut self, key: UrlHash) {
        self.remove(key);
        self.block_list.insert(key);
    }

    /// Drops every expired object, returning their keys in key order.
    pub fn purge_expired(&mut self, now: SimTime) -> Vec<UrlHash> {
        if now < self.next_expiry {
            return Vec::new();
        }
        let mut next_expiry = SimTime::MAX;
        let mut expired = Vec::new();
        let slots = &self.slots;
        self.index.retain(|&key, &mut slot| {
            let meta = &slots[slot as usize].entry.meta;
            if meta.is_expired(now) {
                expired.push((key, slot));
                return false;
            }
            next_expiry = next_expiry.min(meta.expires_at);
            true
        });
        self.next_expiry = next_expiry;
        expired
            .into_iter()
            .map(|(key, slot)| {
                self.release(slot);
                key
            })
            .collect()
    }

    /// Iterates over current entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.index
            .values()
            .map(|&slot| &self.slots[slot as usize].entry)
    }

    /// Iterates over current entries in `(last_access, key)` order, least
    /// recently used first: the order LRU evicts in.
    pub fn by_recency(&self) -> impl Iterator<Item = &Entry> {
        let mut at = self.oldest;
        std::iter::from_fn(move || {
            (at != NIL).then(|| {
                let slot = &self.slots[at as usize];
                at = slot.next;
                &slot.entry
            })
        })
    }

    /// Looks up an entry without touching recency.
    pub fn get(&self, key: UrlHash) -> Option<&Entry> {
        let &slot = self.index.get(&key)?;
        Some(&self.slots[slot as usize].entry)
    }

    /// Keys of all cached objects, in key order. Used by the AP to batch
    /// per-domain flags.
    pub fn keys(&self) -> impl Iterator<Item = UrlHash> + '_ {
        self.index.keys().copied()
    }

    /// Puts `entry` in a free slot, or a new one, unlinked.
    fn alloc(&mut self, entry: Entry) -> u32 {
        if self.free_slot != NIL {
            let slot = self.free_slot;
            let free = &mut self.slots[slot as usize];
            self.free_slot = free.next;
            free.entry = entry;
            return slot;
        }
        let slot = u32::try_from(self.slots.len())
            .ok()
            .filter(|&slot| slot != NIL)
            .expect("a store holds fewer than 2^32 - 1 objects");
        self.slots.push(Slot {
            entry,
            prev: NIL,
            next: NIL,
        });
        slot
    }

    /// Unlinks the slot of an object already dropped from the index, frees
    /// it and its bytes, and returns its entry.
    fn release(&mut self, slot: u32) -> Entry {
        self.unlink(slot);
        let free = &mut self.slots[slot as usize];
        free.next = self.free_slot;
        self.free_slot = slot;
        let entry = free.entry.clone();
        self.used -= entry.meta.size;
        self.uncount(entry.meta.app, entry.meta.size);
        entry
    }

    /// Takes one object of `size` bytes off `app`'s totals.
    fn uncount(&mut self, app: AppId, size: u64) {
        let totals = self.apps.get_mut(&app).expect("a cached object's app");
        totals.0 -= size;
        totals.1 -= 1;
        if totals.1 == 0 {
            self.apps.remove(&app);
        }
    }

    fn rank(&self, slot: u32) -> (SimTime, UrlHash) {
        let entry = &self.slots[slot as usize].entry;
        (entry.last_access, entry.meta.key)
    }

    /// Links an unlinked `slot` into the recency list at its rank, found by
    /// walking back from the most recent end.
    fn link(&mut self, slot: u32) {
        let rank = self.rank(slot);
        let mut prev = self.newest;
        while prev != NIL && self.rank(prev) > rank {
            prev = self.slots[prev as usize].prev;
        }
        let next = match prev {
            NIL => self.oldest,
            prev => self.slots[prev as usize].next,
        };
        let linked = &mut self.slots[slot as usize];
        linked.prev = prev;
        linked.next = next;
        match prev {
            NIL => self.oldest = slot,
            prev => self.slots[prev as usize].next = slot,
        }
        match next {
            NIL => self.newest = slot,
            next => self.slots[next as usize].prev = slot,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.oldest = next,
            prev => self.slots[prev as usize].next = next,
        }
        match next {
            NIL => self.newest = prev,
            next => self.slots[next as usize].prev = prev,
        }
    }

    /// Moves `slot` to its rank after its `last_access` changed.
    fn relink(&mut self, slot: u32) {
        self.unlink(slot);
        self.link(slot);
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
        assert_eq!(
            s.purge_expired(SimTime::from_secs(11)),
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
