//! The on-disk artifact cache behind `repro --cache`.
//!
//! Preparing an app (model generation + trace recording + profiling) and
//! planning its injections dominate a `repro` run's wall time, yet both are
//! pure functions of `(app, scale, configs)`. This cache memoizes them as
//! artifact files — `.itrace` recordings, `.iprof` profiles, `.iplan`
//! plans — keyed by app name, scale, and a hash of every configuration
//! that influences the bytes. Because the codecs are exact, a warm-cache
//! session is byte-identical to a cold one: same plans, same `SimResult`s,
//! same rendered tables.
//!
//! Cache misses (absent, corrupt, or key-mismatched files) silently fall
//! back to recomputation — a stale cache can cost time, never correctness.
//! Corrupt files are reported to stderr and overwritten.

use crate::session::Scale;
use ispy_baselines::asmdb::AsmDbConfig;
use ispy_core::planner::Plan;
use ispy_core::IspyConfig;
use ispy_profile::{ContentHasher, Profile};
use ispy_sim::SimConfig;
use ispy_trace::{Program, Trace};
use std::path::{Path, PathBuf};

/// The default cache directory (`repro --cache` with no `=DIR`).
pub const DEFAULT_CACHE_DIR: &str = ".ispy-cache";

/// A directory of memoized pipeline artifacts for one (scale, configs) key.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    dir: PathBuf,
    shrink: u32,
    events: usize,
    key: u64,
}

impl ArtifactCache {
    /// Opens (and creates) a cache rooted at `dir` for sessions at `scale`
    /// under the default simulator/planner configurations.
    ///
    /// The key folds in the artifact format version, the `Debug` rendering
    /// of every default config, the fixed machine and every fixed planner
    /// parameter, so changing any simulator or planner knob or constant,
    /// or the format itself, invalidates the whole cache rather than
    /// serving stale artifacts.
    pub fn new(dir: impl Into<PathBuf>, scale: Scale) -> Self {
        let mut key_src = format!("fmt={};", ispy_artifact::FORMAT_VERSION);
        key_src.push_str(&format!(
            "scale={}x{};sim={:?};machine={:?};ispy={:?};ispy_fixed={:?};asmdb={:?};\
             baseline_min_misses={}",
            scale.shrink,
            scale.events,
            SimConfig::default(),
            ispy_sim::config::MACHINE,
            IspyConfig::default(),
            ispy_core::config::FIXED,
            AsmDbConfig::default(),
            ispy_baselines::BASELINE_MIN_MISS_COUNT,
        ));
        // FNV-1a 64: stable across runs and platforms, which is all a cache
        // key needs (the artifact CRCs handle integrity).
        let mut key = ContentHasher::new();
        key.write_bytes(key_src.as_bytes());
        ArtifactCache {
            dir: dir.into(),
            shrink: scale.shrink,
            events: scale.events,
            key: key.finish(),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn stem(&self, app: &str) -> String {
        format!("{app}-s{}-e{}-c{:016x}", self.shrink, self.events, self.key)
    }

    /// Path of `app`'s recording artifact.
    pub fn trace_path(&self, app: &str) -> PathBuf {
        self.dir.join(format!("{}.itrace", self.stem(app)))
    }

    /// Path of `app`'s profile artifact.
    pub fn profile_path(&self, app: &str) -> PathBuf {
        self.dir.join(format!("{}.iprof", self.stem(app)))
    }

    /// Path of `app`'s plan artifact for `algo` (`"ispy"` or `"asmdb"`).
    pub fn plan_path(&self, app: &str, algo: &str) -> PathBuf {
        self.dir.join(format!("{}-{algo}.iplan", self.stem(app)))
    }

    /// Reports a cache file that exists but cannot be used.
    fn complain(path: &Path, what: &str) {
        eprintln!("warning: ignoring cache file {} ({what}); recomputing", path.display());
    }

    /// Loads `app`'s recording, or `None` on any miss.
    pub fn load_recording(&self, app: &str) -> Option<(Program, Trace)> {
        let path = self.trace_path(app);
        if !path.exists() {
            return None;
        }
        match ispy_trace::artifact::read_recording(&path) {
            Ok((program, trace)) if program.name() == app && trace.len() == self.events => {
                Some((program, trace))
            }
            Ok(_) => {
                Self::complain(&path, "app/scale mismatch");
                None
            }
            Err(e) => {
                Self::complain(&path, &e.to_string());
                None
            }
        }
    }

    /// Stores `app`'s recording (best-effort; failures only warn).
    pub fn store_recording(&self, app: &str, program: &Program, trace: &Trace) {
        let path = self.trace_path(app);
        if let Err(e) = ispy_trace::artifact::write_recording(program, trace, &path) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }

    /// Loads `app`'s profile, or `None` on any miss.
    pub fn load_profile(&self, app: &str) -> Option<Profile> {
        let path = self.profile_path(app);
        if !path.exists() {
            return None;
        }
        match ispy_profile::artifact::read_profile(&path) {
            Ok((label, profile)) if label == app => Some(profile),
            Ok(_) => {
                Self::complain(&path, "app mismatch");
                None
            }
            Err(e) => {
                Self::complain(&path, &e.to_string());
                None
            }
        }
    }

    /// Stores `app`'s profile (best-effort; failures only warn).
    pub fn store_profile(&self, app: &str, profile: &Profile) {
        let path = self.profile_path(app);
        if let Err(e) = ispy_profile::artifact::write_profile(app, profile, &path) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }

    /// Loads `app`'s plan for `algo`, or `None` on any miss.
    pub fn load_plan(&self, app: &str, algo: &str) -> Option<Plan> {
        let path = self.plan_path(app, algo);
        if !path.exists() {
            return None;
        }
        match ispy_core::artifact::read_plan(&path) {
            Ok((label, plan)) if label == app => Some(plan),
            Ok(_) => {
                Self::complain(&path, "app mismatch");
                None
            }
            Err(e) => {
                Self::complain(&path, &e.to_string());
                None
            }
        }
    }

    /// Stores `app`'s plan for `algo` (best-effort; failures only warn).
    pub fn store_plan(&self, app: &str, algo: &str, plan: &Plan) {
        let path = self.plan_path(app, algo);
        if let Err(e) = ispy_core::artifact::write_plan(app, plan, &path) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ispy_trace::apps;

    fn tmp_cache(tag: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("ispy-cache-test-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        ArtifactCache::new(dir, Scale::test())
    }

    #[test]
    fn recording_round_trips_through_cache() {
        let cache = tmp_cache("rec");
        let model = apps::kafka().scaled_down(Scale::test().shrink);
        let program = model.generate();
        let trace = program.record_trace(model.default_input(), Scale::test().events);
        assert!(cache.load_recording("kafka").is_none());
        cache.store_recording("kafka", &program, &trace);
        let (p2, t2) = cache.load_recording("kafka").expect("cache hit");
        assert_eq!(p2.blocks(), program.blocks());
        assert_eq!(t2, trace);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn corrupt_cache_file_is_a_miss_not_a_panic() {
        let cache = tmp_cache("corrupt");
        std::fs::create_dir_all(cache.dir()).unwrap();
        std::fs::write(cache.trace_path("kafka"), b"garbage bytes that are not an artifact")
            .unwrap();
        assert!(cache.load_recording("kafka").is_none());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn key_changes_with_scale() {
        let dir = std::env::temp_dir();
        let a = ArtifactCache::new(&dir, Scale::test());
        let b = ArtifactCache::new(&dir, Scale::quick());
        assert_ne!(a.trace_path("kafka"), b.trace_path("kafka"));
    }
}
