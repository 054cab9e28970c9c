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
//! A value never moves once it is in its slot: a flush drains and
//! settles it there ([`Slab::flush_mut`]), and [`Slab::remove`] frees
//! the slot but leaves the value for the next [`Slab::open`] to reset
//! in place.

/// A slot store with owner-stamped entries and a LIFO free list.
///
/// `O(1)` open/lookup/remove. Which slot an open takes is a pure
/// function of the earlier opens and removes, because both allocation
/// and recycling are deterministic.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Entry<T>>,
    /// Freed slot indices, popped LIFO so reuse order is a pure
    /// function of the release order. Their entries keep their values.
    free: Vec<u32>,
}

#[derive(Debug)]
struct Entry<T> {
    owner: u32,
    /// The slot is occupied. A freed slot keeps its last value for the
    /// next open but answers no lookup.
    live: bool,
    dirty: bool,
    value: T,
}

impl<T> Slab<T> {
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of freed slots, each still holding its last value.
    pub(crate) fn vacant(&self) -> usize {
        self.free.len()
    }

    /// Inline bytes of every slot, live or freed: the high-water mark of
    /// concurrent entries times the slot layout, the value included.
    pub(crate) fn slot_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Entry<T>>()
    }

    /// Occupies a slot for `owner` and returns its index. The most
    /// recently freed slot is reused when one exists, with `reuse`
    /// resetting the value it kept in place; otherwise a new slot holds
    /// `build()`. On an error no slot is occupied.
    // hot-path
    pub(crate) fn open<E>(
        &mut self,
        owner: u32,
        reuse: impl FnOnce(&mut T) -> Result<(), E>,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<u32, E> {
        if let Some(&idx) = self.free.last() {
            if let Some(entry) = self.slots.get_mut(idx as usize) {
                reuse(&mut entry.value)?;
                entry.owner = owner;
                entry.live = true;
                entry.dirty = false;
                self.free.pop();
                return Ok(idx);
            }
        }
        let value = build()?;
        let idx = self.slots.len() as u32;
        self.slots.push(Entry {
            owner,
            live: true,
            dirty: false,
            value,
        });
        Ok(idx)
    }

    /// Borrows the entry at `idx` if it is live and owned by `owner`.
    pub(crate) fn get(&self, idx: u32, owner: u32) -> Option<&T> {
        match self.slots.get(idx as usize) {
            Some(e) if e.live && e.owner == owner => Some(&e.value),
            _ => None,
        }
    }

    /// Mutably borrows the entry at `idx` if it is live and owned by
    /// `owner`.
    pub(crate) fn get_mut(&mut self, idx: u32, owner: u32) -> Option<&mut T> {
        match self.slots.get_mut(idx as usize) {
            Some(e) if e.live && e.owner == owner => Some(&mut e.value),
            _ => None,
        }
    }

    /// Marks the entry dirty; returns `true` if it was clean (so the
    /// caller appends it to its dirty list exactly once per flush
    /// interval).
    pub(crate) fn mark_dirty(&mut self, idx: u32) -> bool {
        match self.slots.get_mut(idx as usize) {
            Some(e) if e.live && !e.dirty => {
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
            Some(e) if e.live => {
                e.dirty = false;
                Some((e.owner, &mut e.value))
            }
            _ => None,
        }
    }

    /// Frees the live slot at `idx` for reuse. The value stays in the
    /// slot for the next [`Slab::open`]; it is lent back so the caller
    /// can release what it should not keep.
    pub(crate) fn remove(&mut self, idx: u32) -> Option<&mut T> {
        let entry = self.slots.get_mut(idx as usize).filter(|e| e.live)?;
        entry.live = false;
        self.free.push(idx);
        Some(&mut entry.value)
    }

    /// Every slot's value, live or freed, in slot order — for
    /// accounting what the slab holds.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().map(|e| &e.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens a slot for `owner` holding `value`, reused or new.
    fn put<T: Clone>(slab: &mut Slab<T>, owner: u32, value: T) -> u32 {
        let reuse = |old: &mut T| {
            old.clone_from(&value);
            Ok::<(), ()>(())
        };
        let opened = slab.open(owner, reuse, || Ok(value.clone()));
        opened.expect("neither closure fails")
    }

    #[test]
    fn open_get_remove_roundtrip() {
        let mut slab: Slab<String> = Slab::new();
        let a = put(&mut slab, 0, "a".to_string());
        let b = put(&mut slab, 1, "b".to_string());
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a, 0).map(String::as_str), Some("a"));
        assert_eq!(slab.get(b, 1).map(String::as_str), Some("b"));
        assert_eq!(
            slab.flush_mut(a).map(|(o, v)| (o, v.clone())),
            Some((0, "a".to_string()))
        );
        assert_eq!(slab.remove(a).map(|v| v.as_str()), Some("a"));
        assert!(slab.get(a, 0).is_none(), "removed slot must miss");
        assert!(slab.flush_mut(a).is_none(), "a freed slot is not flushed");
        assert!(
            slab.remove(a).is_none(),
            "a freed slot is not removed twice"
        );
        assert_eq!((slab.len(), slab.vacant()), (1, 1));
    }

    #[test]
    fn freed_slots_reuse_lifo() {
        let mut slab: Slab<u64> = Slab::new();
        let a = put(&mut slab, 0, 10);
        let b = put(&mut slab, 1, 11);
        slab.remove(a);
        slab.remove(b);
        // LIFO: b's slot (freed last) is handed out first.
        assert_eq!(put(&mut slab, 2, 12), b);
        assert_eq!(put(&mut slab, 3, 13), a);
        assert_eq!(
            slab.slot_bytes(),
            2 * std::mem::size_of::<Entry<u64>>(),
            "no growth while free slots exist"
        );
    }

    #[test]
    fn reopen_resets_the_kept_value_in_place() {
        let mut slab: Slab<Vec<u64>> = Slab::new();
        let idx = put(&mut slab, 0, Vec::new());
        if let Some(v) = slab.get_mut(idx, 0) {
            v.reserve(64);
            v.push(1);
        }
        assert_eq!(
            slab.remove(idx).map(|v| v.len()),
            Some(1),
            "the value stays in its slot"
        );
        let reused = slab.open(
            5,
            |v: &mut Vec<u64>| {
                v.clear();
                Ok::<(), ()>(())
            },
            || unreachable!("a freed slot exists"),
        );
        assert_eq!(reused, Ok(idx));
        assert_eq!(
            slab.get(idx, 5).map(|v| (v.len(), v.capacity() >= 64)),
            Some((0, true))
        );
        // A failed reuse occupies nothing.
        slab.remove(idx);
        assert_eq!(slab.open(6, |_| Err("no"), || Err("no")), Err("no"));
        assert!(slab.get(idx, 6).is_none());
        assert_eq!((slab.len(), slab.vacant()), (0, 1));
        assert_eq!(
            slab.values().count(),
            1,
            "a freed slot still holds its value"
        );
    }

    #[test]
    fn stale_index_never_aliases_new_owner() {
        let mut slab: Slab<u64> = Slab::new();
        let idx = put(&mut slab, 7, 70);
        slab.remove(idx);
        let reused = put(&mut slab, 9, 90);
        assert_eq!(idx, reused);
        // The old owner's handle misses; the new owner's hits.
        assert!(slab.get(idx, 7).is_none());
        assert_eq!(slab.get(idx, 9), Some(&90));
        assert!(slab.get_mut(idx, 7).is_none());
    }

    #[test]
    fn dirty_flag_dedupes_and_resets_on_drain() {
        let mut slab: Slab<u64> = Slab::new();
        let idx = put(&mut slab, 0, 1);
        assert!(slab.mark_dirty(idx), "first mark reports clean->dirty");
        assert!(!slab.mark_dirty(idx), "second mark is a no-op");
        assert_eq!(slab.flush_mut(idx).map(|(_, v)| *v), Some(1));
        assert!(slab.mark_dirty(idx), "an in-place drain clears the flag");
        slab.remove(idx);
        assert!(!slab.mark_dirty(idx), "a freed slot is never dirty");
    }
}
