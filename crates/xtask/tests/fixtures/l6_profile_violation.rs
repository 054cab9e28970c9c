//! Fixture: Stage-1 profiling outside `memdos-core` — every
//! `Profiler::new`/`Profiler::default` build must fire L6/profile.

pub fn profile(cfg: ProfilerConfig, feed: &[Observation]) -> Result<Profile, CoreError> {
    let mut profiler = Profiler::new(cfg)?;
    for &obs in feed {
        profiler.observe(obs);
    }
    profiler.finish()
}

pub fn default_profiler() -> memdos_core::profile::Profiler {
    memdos_core::profile::Profiler::default()
}
