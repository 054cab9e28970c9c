//! Fixture: what the profile rule must NOT flag outside `memdos-core` —
//! profiling through the monitor, a profiler received from elsewhere,
//! prose and string mentions of Profiler::new, a longer type name, a
//! justified allow, and test code.

/// Profiles through the one supported surface. A comment mentioning
/// Profiler::default() is not a build.
pub fn profile(params: &SdsParams, feed: Feed) -> Result<Profile, CoreError> {
    let label = "built by Profiler::new(cfg)";
    debug_assert!(!label.is_empty());
    memdos_core::monitor::profile_stage(params, 4_000, feed)
}

/// Reading a profiler someone else built is not building one.
pub fn seen(profiler: &Profiler) -> u64 {
    profiler.observations()
}

pub fn stage_profiler() -> StageProfiler {
    StageProfiler::new()
}

pub fn justified(cfg: ProfilerConfig) -> Result<Profiler, CoreError> {
    // lint:allow(profile) -- documented escape hatch exercised by the fixture
    Profiler::new(cfg)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_profile_directly() {
        let mut profiler = Profiler::default();
        profiler.observe(obs());
    }
}
