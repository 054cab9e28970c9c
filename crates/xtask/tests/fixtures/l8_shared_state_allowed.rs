//! Fixture: what L8/shared-state must NOT flag — the workspace's own
//! `Cell` figure type, the `MemOp::Atomic` enum variant, lazy-init
//! primitives, plain statics, justified allows, and test code.

use std::sync::OnceLock;

/// The bench crate's own figure cell — not `std::cell::Cell`.
pub struct Cell {
    pub runs: u32,
}

pub enum MemOp {
    Read,
    Write,
    Atomic,
}

pub fn classify(op: &MemOp, c: &Cell) -> u32 {
    match op {
        MemOp::Atomic => c.runs,
        _ => 0,
    }
}

static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
static LIMIT: u64 = 1024;

/// Owner-checked slab in the engine's style: plain vectors, integer
/// generations and values moved out and back in instead of interior
/// mutability. The names echo concurrency idioms ("slots", "free
/// list", "generation") but nothing here is shared state.
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    generation: u32,
}

impl<T> Slab<T> {
    pub fn take(&mut self, idx: usize) -> Option<T> {
        self.generation = self.generation.wrapping_add(1);
        self.slots.get_mut(idx).and_then(Option::take)
    }

    pub fn put_back(&mut self, idx: usize, value: T) {
        if let Some(slot) = self.slots.get_mut(idx) {
            *slot = Some(value);
        } else {
            self.free.push(idx as u32);
        }
    }
}

pub fn justified() {
    // lint:allow(shared-state) -- documented escape hatch exercised by the fixture
    let counter = std::sync::atomic::AtomicU64::new(0);
    let _ = counter;
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_lock() {
        let m = std::sync::Mutex::new(1u64);
        assert_eq!(*m.lock().unwrap(), 1);
    }
}
