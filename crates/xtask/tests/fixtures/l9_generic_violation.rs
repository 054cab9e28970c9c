//! Fixture: an allocation behind a call through a generic parameter.
//! `D::from_profile(..)` names no concrete type, so a resolver that
//! matched the path head against impl subjects alone would drop the
//! edge; L9/hot-propagate must follow it into every impl of the fn.

pub trait Detector {
    fn from_profile(seed: u64) -> Self;
}

pub struct Monitor<D> {
    armed: Option<D>,
}

impl<D: Detector> Monitor<D> {
    /// Generic parameter declared on the impl block.
    // hot-path
    pub fn step(&mut self, seed: u64) {
        self.armed = Some(D::from_profile(seed));
    }
}

/// Generic parameter declared on the fn itself.
// hot-path
pub fn arm<T: Detector>(seed: u64) -> T {
    T::from_profile(seed)
}

pub struct Named {
    name: String,
}

impl Detector for Named {
    /// The hidden allocation: one hop behind the generic call.
    fn from_profile(seed: u64) -> Self {
        Named { name: format!("named-{seed}") }
    }
}
