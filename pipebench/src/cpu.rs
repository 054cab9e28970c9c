//! Pinning the measuring thread to one CPU at a time.
//!
//! On a shared host each CPU the process may use slows down on its own
//! (a neighbour busy on the same core), often for longer than a run, and
//! the scheduler leaves a lone busy thread where it is. Saturating passes
//! therefore rotate over the CPUs the process may use, so that the
//! fastest-pass estimators see every CPU rather than whichever one the
//! run happened to start on.

/// Bytes in glibc's `cpu_set_t` (1,024 CPUs).
const SET_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

type Mask = [u64; SET_BYTES / 8];

/// The CPUs the calling thread may run on when it was created.
#[derive(Debug)]
pub struct Cpus {
    allowed: Mask,
    ids: Vec<usize>,
}

impl Cpus {
    /// Reads the calling thread's affinity; an unreadable one rotates over
    /// nothing, and [`Cpus::pin`] then leaves the thread alone.
    pub fn new() -> Self {
        let mut allowed: Mask = [0; SET_BYTES / 8];
        // SAFETY: `allowed` is a writable buffer of exactly `SET_BYTES`
        // bytes, and pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, SET_BYTES, allowed.as_mut_ptr()) } == 0;
        if !ok {
            allowed = [0; SET_BYTES / 8];
        }
        let ids = (0..SET_BYTES * 8)
            .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        Cpus { allowed, ids }
    }

    /// Pins the calling thread to the `i`-th allowed CPU, cyclically.
    pub fn pin(&self, i: usize) {
        if let Some(&cpu) = self.ids.get(i % self.ids.len().max(1)) {
            let mut one: Mask = [0; SET_BYTES / 8];
            one[cpu / 64] = 1 << (cpu % 64);
            set(&one);
        }
    }

    /// Lets the calling thread run on every allowed CPU again.
    pub fn release(&self) {
        if !self.ids.is_empty() {
            set(&self.allowed);
        }
    }
}

fn set(mask: &Mask) {
    // SAFETY: `mask` is a readable buffer of exactly `SET_BYTES` bytes, and
    // pid 0 names the calling thread. A refusal leaves the affinity as it
    // was, which only costs the rotation, so the result is ignored.
    let _ = unsafe { sched_setaffinity(0, SET_BYTES, mask.as_ptr()) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_covers_the_allowed_cpus_and_release_restores_them() {
        let cpus = Cpus::new();
        assert!(!cpus.ids.is_empty());
        for i in 0..cpus.ids.len() {
            cpus.pin(i);
            assert_eq!(Cpus::new().ids, vec![cpus.ids[i]]);
        }
        cpus.release();
        assert_eq!(Cpus::new().ids, cpus.ids);
    }
}
