//! Values keyed by ids a node mints in increasing order.

use std::collections::VecDeque;
use std::ops::Index;

/// A window position whose id holds no value, or the end of the free list.
const VACANT: u32 = u32::MAX;

/// A slab slot: a live value, or the next free slot.
#[derive(Debug)]
enum Slot<T> {
    Live(T),
    Free(u32),
}

/// A map from ids minted in increasing order (a client's request and
/// execution ids) to their values, for state that is looked up by id and
/// never iterated.
///
/// The window holds one slot number per id, from the oldest live id up to
/// the newest inserted one, [`VACANT`] where that id's value was removed.
/// Removing the oldest live value moves the base past the run of vacancies
/// behind it, so the window spans only the ids still in flight. The values
/// sit out of line in a slab whose free slots form a list: a window of
/// `Option<T>` would give every vacancy the full size of a `T`.
#[derive(Debug)]
pub(crate) struct IdWindow<T> {
    /// The id at `window[0]`.
    base: u64,
    window: VecDeque<u32>,
    slots: Vec<Slot<T>>,
    /// The first free slot.
    free: u32,
}

impl<T> IdWindow<T> {
    /// An empty window.
    pub(crate) fn new() -> Self {
        IdWindow {
            base: 0,
            window: VecDeque::new(),
            slots: Vec::new(),
            free: VACANT,
        }
    }

    /// Number of live values.
    pub(crate) fn len(&self) -> usize {
        self.window.iter().filter(|&&slot| slot != VACANT).count()
    }

    /// Stores the value of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is live, or older than the oldest live id.
    pub(crate) fn insert(&mut self, id: u64, value: T) {
        if self.window.is_empty() {
            self.base = id;
        }
        let offset = id
            .checked_sub(self.base)
            .and_then(|offset| usize::try_from(offset).ok())
            .unwrap_or_else(|| panic!("id {id} is older than the oldest live id {}", self.base));
        if offset >= self.window.len() {
            self.window.resize(offset + 1, VACANT);
        }
        assert_eq!(self.window[offset], VACANT, "id {id} is already live");
        let slot = match self.free {
            VACANT => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&slot| slot != VACANT)
                    .expect("fewer than 2^32 - 1 live ids");
                self.slots.push(Slot::Live(value));
                slot
            }
            slot => {
                let Slot::Free(next) =
                    std::mem::replace(&mut self.slots[slot as usize], Slot::Live(value))
                else {
                    unreachable!("the free list holds only free slots");
                };
                self.free = next;
                slot
            }
        };
        self.window[offset] = slot;
    }

    /// The window offset and slot of `id`, if it is live.
    fn find(&self, id: u64) -> Option<(usize, usize)> {
        let offset = usize::try_from(id.checked_sub(self.base)?).ok()?;
        match *self.window.get(offset)? {
            VACANT => None,
            slot => Some((offset, slot as usize)),
        }
    }

    /// The value of `id`, if it is live.
    pub(crate) fn get(&self, id: u64) -> Option<&T> {
        let (_, slot) = self.find(id)?;
        match &self.slots[slot] {
            Slot::Live(value) => Some(value),
            Slot::Free(_) => unreachable!("a window position names a live slot"),
        }
    }

    /// The value of `id`, mutably, if it is live.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let (_, slot) = self.find(id)?;
        match &mut self.slots[slot] {
            Slot::Live(value) => Some(value),
            Slot::Free(_) => unreachable!("a window position names a live slot"),
        }
    }

    /// Removes and returns the value of `id`, if it is live.
    pub(crate) fn remove(&mut self, id: u64) -> Option<T> {
        let (offset, slot) = self.find(id)?;
        self.window[offset] = VACANT;
        while self.window.front() == Some(&VACANT) {
            self.window.pop_front();
            self.base += 1;
        }
        let Slot::Live(value) = std::mem::replace(&mut self.slots[slot], Slot::Free(self.free))
        else {
            unreachable!("a window position names a live slot");
        };
        self.free = slot as u32;
        Some(value)
    }
}

impl<T> Index<u64> for IdWindow<T> {
    type Output = T;

    fn index(&self, id: u64) -> &T {
        self.get(id)
            .unwrap_or_else(|| panic!("id {id} is not live"))
    }
}

#[cfg(test)]
mod tests {
    use super::IdWindow;

    fn filled(ids: std::ops::Range<u64>) -> IdWindow<u64> {
        let mut w = IdWindow::new();
        for id in ids {
            w.insert(id, id * 10);
        }
        w
    }

    #[test]
    fn removal_out_of_order() {
        let mut w = filled(1..6);
        assert_eq!(w.remove(3), Some(30));
        assert_eq!(w.remove(5), Some(50));
        assert_eq!(w.remove(3), None);
        assert_eq!(w.len(), 3);
        assert_eq!(
            (w.get(1), w.get(2), w.get(4)),
            (Some(&10), Some(&20), Some(&40))
        );
        assert_eq!(w[4], 40);
        *w.get_mut(2).expect("live") += 1;
        assert_eq!(w.remove(2), Some(21));
    }

    #[test]
    fn base_advances_over_a_run_of_vacancies() {
        let mut w = filled(1..7);
        for id in [2, 3, 4] {
            w.remove(id);
        }
        assert_eq!((w.base, w.window.len()), (1, 6));
        w.remove(1);
        assert_eq!((w.base, w.window.len()), (5, 2));
        // A freed slot is reused, so the slab does not grow.
        w.insert(7, 70);
        assert_eq!((w.slots.len(), w.len()), (6, 3));
        assert_eq!(w[7], 70);
    }

    #[test]
    fn ids_outside_the_window_are_absent() {
        let mut w = filled(10..13);
        w.remove(10);
        for id in [0, 9, 10, 13, 1 << 40, u64::MAX] {
            assert_eq!(w.get(id), None, "{id}");
            assert_eq!(w.get_mut(id), None, "{id}");
            assert_eq!(w.remove(id), None, "{id}");
        }
        assert_eq!(w.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn inserting_a_live_id_panics() {
        let mut w = filled(1..4);
        w.insert(2, 0);
    }

    #[test]
    fn empty_once_everything_is_removed() {
        let mut w = filled(1..5);
        for id in [4, 2, 1, 3] {
            assert!(w.remove(id).is_some());
        }
        assert!(w.window.is_empty());
        assert_eq!(w.len(), 0);
        // The next id starts a new window.
        w.insert(5, 50);
        assert_eq!((w.base, w.window.len(), w[5]), (5, 1, 50));
    }
}
