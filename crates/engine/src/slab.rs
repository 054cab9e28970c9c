//! Owner-checked slab storage for fleet-scale session slots.
//!
//! The engine keeps every live [`crate::session::Session`] in one
//! contiguous `Vec` of slots so that opening a tenant after a closure
//! reuses memory instead of growing the heap forever. Slots are
//! addressed by a dense `u32` index and stamped with the owning
//! tenant's interned id: because indices are recycled (LIFO free list,
//! so reuse is deterministic and cache-warm), a stale index held
//! elsewhere could otherwise alias a slot that now belongs to a
//! different tenant. Every accessor therefore takes the expected owner
//! and returns `None` on mismatch — a stale handle degrades to a miss,
//! never to another tenant's session. The churn fuzz in
//! `crates/engine/tests/fleet_eviction.rs` leans on this guard.
//!
//! The slab also tracks a per-slot `dirty` flag so the engine can keep
//! a duplicate-free list of sessions that queued work since the last
//! flush without scanning all 50k slots (see `engine::flush`).
//!
//! A flush works on sessions where they sit ([`Slab::flush_mut`]): it
//! drains and settles each dirty entry in place, so a session struct
//! moves only when it retires ([`Slab::remove`], into the engine's
//! spare list).

/// A slot store with owner-stamped entries and a LIFO free list.
///
/// `O(1)` insert/lookup/remove; iteration order over live entries is
/// slot order (ascending index), which is deterministic because both
/// allocation and recycling are.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<Entry<T>>>,
    /// Recycled slot indices, popped LIFO so reuse order is a pure
    /// function of the release order.
    free: Vec<u32>,
    /// Number of live entries (slots holding `Some`).
    live: usize,
}

#[derive(Debug)]
struct Entry<T> {
    owner: u32,
    dirty: bool,
    value: T,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Total slot capacity (live + free), i.e. the high-water mark of
    /// concurrent entries.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stores `value` for `owner` and returns its slot index, reusing
    /// a freed slot when one exists.
    pub(crate) fn insert(&mut self, owner: u32, value: T) -> u32 {
        self.live += 1;
        let entry = Entry {
            owner,
            dirty: false,
            value,
        };
        if let Some(idx) = self.free.pop() {
            if let Some(slot) = self.slots.get_mut(idx as usize) {
                *slot = Some(entry);
                return idx;
            }
        }
        let idx = self.slots.len() as u32;
        self.slots.push(Some(entry));
        idx
    }

    /// Borrows the entry at `idx` if it is live and owned by `owner`.
    pub(crate) fn get(&self, idx: u32, owner: u32) -> Option<&T> {
        match self.slots.get(idx as usize) {
            Some(Some(e)) if e.owner == owner => Some(&e.value),
            _ => None,
        }
    }

    /// Mutably borrows the entry at `idx` if it is live and owned by
    /// `owner`.
    pub(crate) fn get_mut(&mut self, idx: u32, owner: u32) -> Option<&mut T> {
        match self.slots.get_mut(idx as usize) {
            Some(Some(e)) if e.owner == owner => Some(&mut e.value),
            _ => None,
        }
    }

    /// Marks the entry dirty; returns `true` if it was clean (so the
    /// caller appends it to its dirty list exactly once per flush
    /// interval).
    pub(crate) fn mark_dirty(&mut self, idx: u32) -> bool {
        match self.slots.get_mut(idx as usize) {
            Some(Some(e)) if !e.dirty => {
                e.dirty = true;
                true
            }
            _ => false,
        }
    }

    /// Borrows the live entry at `idx` together with its owner for
    /// flush work — an in-place drain or the settle pass — and clears
    /// its dirty flag. For the engine's walk over its own dirty list,
    /// whose indices cannot go stale within one flush interval (slots
    /// are freed only by that walk).
    pub(crate) fn flush_mut(&mut self, idx: u32) -> Option<(u32, &mut T)> {
        match self.slots.get_mut(idx as usize) {
            Some(Some(e)) => {
                e.dirty = false;
                Some((e.owner, &mut e.value))
            }
            _ => None,
        }
    }

    /// Moves the live entry's value out and frees its slot for reuse.
    pub(crate) fn remove(&mut self, idx: u32) -> Option<T> {
        let entry = self.slots.get_mut(idx as usize)?.take()?;
        self.free.push(idx);
        self.live = self.live.saturating_sub(1);
        Some(entry.value)
    }

    /// Iterates live entries in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|e| (i as u32, &e.value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab: Slab<String> = Slab::new();
        let a = slab.insert(0, "a".to_string());
        let b = slab.insert(1, "b".to_string());
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a, 0).map(String::as_str), Some("a"));
        assert_eq!(slab.get(b, 1).map(String::as_str), Some("b"));
        assert_eq!(
            slab.flush_mut(a).map(|(o, v)| (o, v.clone())),
            Some((0, "a".to_string()))
        );
        assert_eq!(slab.remove(a).as_deref(), Some("a"));
        assert!(slab.get(a, 0).is_none(), "removed slot must miss");
        assert!(
            slab.remove(a).is_none(),
            "a freed slot is not removed twice"
        );
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn freed_slots_reuse_lifo() {
        let mut slab: Slab<u64> = Slab::new();
        let a = slab.insert(0, 10);
        let b = slab.insert(1, 11);
        slab.remove(a);
        slab.remove(b);
        // LIFO: b's slot (freed last) is handed out first.
        assert_eq!(slab.insert(2, 12), b);
        assert_eq!(slab.insert(3, 13), a);
        assert_eq!(slab.capacity(), 2, "no growth while free slots exist");
    }

    #[test]
    fn stale_index_never_aliases_new_owner() {
        let mut slab: Slab<u64> = Slab::new();
        let idx = slab.insert(7, 70);
        slab.remove(idx);
        let reused = slab.insert(9, 90);
        assert_eq!(idx, reused);
        // The old owner's handle misses; the new owner's hits.
        assert!(slab.get(idx, 7).is_none());
        assert_eq!(slab.get(idx, 9), Some(&90));
        assert!(slab.get_mut(idx, 7).is_none());
    }

    #[test]
    fn dirty_flag_dedupes_and_resets_on_drain() {
        let mut slab: Slab<u64> = Slab::new();
        let idx = slab.insert(0, 1);
        assert!(slab.mark_dirty(idx), "first mark reports clean->dirty");
        assert!(!slab.mark_dirty(idx), "second mark is a no-op");
        assert_eq!(slab.flush_mut(idx).map(|(_, v)| *v), Some(1));
        assert!(slab.mark_dirty(idx), "an in-place drain clears the flag");
    }

    #[test]
    fn iter_walks_slot_order_and_skips_holes() {
        let mut slab: Slab<u64> = Slab::new();
        let a = slab.insert(0, 10);
        let _b = slab.insert(1, 11);
        let _c = slab.insert(2, 12);
        slab.remove(a);
        let got: Vec<(u32, u64)> = slab.iter().map(|(i, v)| (i, *v)).collect();
        assert_eq!(got, vec![(1, 11), (2, 12)]);
    }
}
