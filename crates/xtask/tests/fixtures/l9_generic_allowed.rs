//! Fixture: what generic-call resolution must NOT connect — a concrete
//! type head (`String::new`, `Plain::from_profile`) resolves only into
//! that type's own impls, so an allocating impl of the same fn name on
//! another type stays out of reach; and a generic call whose every impl
//! is allocation-free stays clean.

pub trait Detector {
    fn from_profile(seed: u64) -> Self;
    fn reset(&mut self);
}

pub struct Plain {
    seed: u64,
}

impl Detector for Plain {
    fn from_profile(seed: u64) -> Self {
        Plain { seed }
    }

    fn reset(&mut self) {
        self.seed = 0;
    }
}

pub struct Named {
    name: String,
}

impl Named {
    /// Allocates; reachable only through a `Named::` head.
    fn new(seed: u64) -> Self {
        Named { name: format!("named-{seed}") }
    }
}

// hot-path
pub fn concrete(out: &mut String, seed: u64) -> Plain {
    // lint:allow(hot-alloc) -- the fixture needs a `String::new` call; only its resolution is under test
    *out = String::new();
    Plain::from_profile(seed)
}

// hot-path
pub fn generic<D: Detector>(det: &mut D) {
    D::reset(det);
}
