//! DNS transaction-id allocation, shared by every node that forwards
//! queries upstream (client, AP, LDNS).

/// Takes the next id from the wrapping counter `next`, skipping 0
/// (reserved) and every id `is_live` reports as still in flight: after
/// 65 535 queries the counter wraps and would otherwise collide with (and
/// orphan) an older pending query. `live` is the size of the caller's
/// pending map.
///
/// # Panics
///
/// Panics if all 65 535 ids are in flight at once; the pending maps are
/// bounded far below that, so this is a logic bug, not load.
pub(crate) fn alloc_txn(next: &mut u16, live: usize, is_live: impl Fn(u16) -> bool) -> u16 {
    assert!(live < u16::MAX as usize, "DNS txn space exhausted");
    loop {
        let txn = *next;
        *next = next.wrapping_add(1).max(1);
        if !is_live(txn) {
            return txn;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::alloc_txn;
    use std::collections::BTreeSet;

    fn alloc(next: &mut u16, live: &BTreeSet<u16>) -> u16 {
        alloc_txn(next, live.len(), |txn| live.contains(&txn))
    }

    #[test]
    fn skips_live_ids_across_wraparound() {
        let live = BTreeSet::from([7]);
        let mut next = 1;
        // Four trips around the 16-bit id space: the pinned in-flight
        // query must never be clobbered and 0 stays reserved.
        for _ in 0..262_144u32 {
            let txn = alloc(&mut next, &live);
            assert_ne!(txn, 0, "txn 0 is reserved");
            assert_ne!(txn, 7, "live txn reused after wraparound");
        }
    }

    #[test]
    fn finds_the_last_free_id() {
        // 65 534 of the 65 535 usable ids (0 is reserved) are in flight.
        let live: BTreeSet<u16> = (1..u16::MAX).collect();
        let mut next = 1;
        assert_eq!(alloc(&mut next, &live), u16::MAX);
        assert_eq!(alloc(&mut next, &live), u16::MAX, "still the only free id");
    }

    #[test]
    #[should_panic(expected = "txn space exhausted")]
    fn panics_when_every_id_is_live() {
        let live: BTreeSet<u16> = (1..=u16::MAX).collect();
        let _ = alloc(&mut 1, &live);
    }
}
