//! Regression guard for the committed wall-clock artifact.
//!
//! `BENCH_wallclock.json` is the repo's perf contract: the event-queue
//! microbenchmark numbers and the executor jobs sweep a change is not
//! allowed to regress. This module parses the artifact (both the committed
//! blessing and a freshly measured run) and checks the four clauses CI
//! enforces (`wallclock --guard <committed.json>`):
//!
//! 1. **Absolute ceiling** — `schedule_step` median ns/op at 100k pending
//!    may not exceed the committed value by more than 25 %.
//! 2. **Depth flatness** — `schedule_step` at 100k pending may not cost
//!    more than [`FLATNESS_LIMIT`]× its 1k-pending cost (the calendar
//!    queue's whole point; the old heap sat at 5.1×).
//! 3. **Jobs scaling** — on a host whose *measured* parallelism is ≥ 1.5
//!    (i.e. genuinely multi-core — containers often advertise cores they
//!    do not deliver), the jobs=2 sweep must show speedup ≥ 1.0. On a
//!    single effective core the clause is skipped: no harness can beat
//!    serial there, and the measured-parallelism field in the artifact
//!    records why.
//! 4. **Instrumentation overhead** — arming the streaming observability
//!    instruments (recording registry + windowed snapshots) may not slow
//!    the measured closed loop past
//!    [`INSTRUMENTED_OVERHEAD_LIMIT`]× the plain run. This clause is
//!    absolute (it compares the current run against itself, not against
//!    the blessing) and is skipped for artifacts that predate the field.
//!
//! Fields are read with the minimal extractor in [`crate::artifact`].

use crate::artifact::{flat_objects, num_after};

/// The artifact fields the guard compares.
#[derive(Debug, Clone, PartialEq)]
pub struct WallclockArtifact {
    /// `schedule_step` median ns/op at 1k pending.
    pub step_ns_1k: f64,
    /// `schedule_step` median ns/op at 100k pending.
    pub step_ns_100k: f64,
    /// `schedule_cancel` median ns/op at 1k pending.
    pub cancel_ns_1k: f64,
    /// `schedule_cancel` median ns/op at 100k pending.
    pub cancel_ns_100k: f64,
    /// Speedup of the jobs=2 sweep point over jobs=1 (absent in artifacts
    /// whose sweep did not include jobs=2).
    pub jobs2_speedup: Option<f64>,
    /// Logical CPU count of the host that produced the artifact.
    pub host_parallelism: u64,
    /// Measured 2-thread speedup of a CPU-bound probe on that host
    /// (see `executor::measured_parallelism`); older v1 artifacts that
    /// predate the field default to `host_parallelism` as a best guess.
    pub measured_parallelism: f64,
    /// Instrumented/plain wall-time ratio of the observability-overhead
    /// section (absent in artifacts that predate it).
    pub overhead_ratio: Option<f64>,
}

/// Finds the first object (within `json`) that contains all of
/// `markers` and a number under `key`, and returns that number.
fn obj_num(json: &str, markers: &[&str], key: &str) -> Option<f64> {
    flat_objects(json)
        .filter(|body| markers.iter().all(|m| body.contains(m)))
        .find_map(|body| num_after(body, key))
}

/// Parses the fields the guard needs out of a wallclock artifact.
pub fn parse_artifact(json: &str) -> Result<WallclockArtifact, String> {
    let queue = |bench: &str, pending: &str| -> Result<f64, String> {
        obj_num(
            json,
            &[
                &format!("\"bench\": \"{bench}\""),
                &format!("\"pending\": {pending},"),
            ],
            "median_ns_per_op",
        )
        .ok_or_else(|| format!("missing {bench}@{pending} in artifact"))
    };
    let host_parallelism = num_after(json, "host_parallelism")
        .ok_or_else(|| "missing host_parallelism".to_string())? as u64;
    Ok(WallclockArtifact {
        step_ns_1k: queue("schedule_step", "1000")?,
        step_ns_100k: queue("schedule_step", "100000")?,
        cancel_ns_1k: queue("schedule_cancel", "1000")?,
        cancel_ns_100k: queue("schedule_cancel", "100000")?,
        jobs2_speedup: obj_num(json, &["\"jobs\": 2,"], "speedup"),
        host_parallelism,
        measured_parallelism: num_after(json, "measured_parallelism")
            .unwrap_or(host_parallelism as f64),
        overhead_ratio: num_after(json, "overhead_ratio"),
    })
}

/// Headroom over the committed ns/op before the absolute clause fires.
pub const ABS_HEADROOM: f64 = 1.25;
/// Maximum allowed 100k/1k `schedule_step` cost ratio.
///
/// The calendar queue is amortized O(1) in queue depth, but constant-factor
/// cache effects remain: at 100k pending the working set (~4 MB of slots +
/// bucket entries) spills L2, so every op pays roughly one random
/// last-level-cache line plus TLB pressure that the fully-cached 1k
/// baseline (~48 KB) never sees. On the single-core Xeon blessing host the
/// steady-state ratio measures 2.2–2.5× run-to-run; the limit is that
/// envelope plus noise headroom. The structural failure modes this clause
/// defends against — tombstone silt or an O(n) scan reappearing in the hot
/// path — measured 5.1× before the calendar queue and blow well past this
/// limit. The tight day-to-day guard is the absolute ceiling above.
pub const FLATNESS_LIMIT: f64 = 2.75;
/// Measured parallelism below which the jobs clause is vacuous.
pub const MULTICORE_MIN: f64 = 1.5;
/// Maximum allowed instrumented/plain wall-time ratio.
///
/// The per-event cost of an armed registry is a dozen gauge samples
/// through cached [`GaugeHandle`]s (O(1) arena writes, no map walk, no
/// allocation — see `MetricsRegistry::sample_interned`) plus a handful
/// of O(1) histogram records and Space-Saving updates per request and a
/// snapshot-due check per event. Measured ratio on the blessing host is
/// ~1.15–1.4×; the name-keyed map-walk design this replaced measured
/// ~2.4× and would trip this clause. The limit leaves headroom for noisy
/// CI containers while still catching an accidental O(n) — a sort or
/// full-registry scan — sneaking back into the per-event path.
///
/// [`GaugeHandle`]: specfaas_sim::GaugeHandle
pub const INSTRUMENTED_OVERHEAD_LIMIT: f64 = 1.5;

/// Checks `current` against the `committed` blessing. Returns the list of
/// violated clauses (empty = pass).
pub fn check(current: &WallclockArtifact, committed: &WallclockArtifact) -> Vec<String> {
    let mut violations = Vec::new();
    let ceiling = committed.step_ns_100k * ABS_HEADROOM;
    if current.step_ns_100k > ceiling {
        violations.push(format!(
            "schedule_step@100k regressed: {:.1} ns/op > {:.1} (committed {:.1} × {ABS_HEADROOM})",
            current.step_ns_100k, ceiling, committed.step_ns_100k
        ));
    }
    let ratio = current.step_ns_100k / current.step_ns_1k;
    if ratio > FLATNESS_LIMIT {
        violations.push(format!(
            "schedule_step depth ratio not flat: 100k/1k = {ratio:.2}x > {FLATNESS_LIMIT}x \
             ({:.1} vs {:.1} ns/op)",
            current.step_ns_100k, current.step_ns_1k
        ));
    }
    if current.measured_parallelism >= MULTICORE_MIN {
        match current.jobs2_speedup {
            Some(s) if s < 1.0 => violations.push(format!(
                "jobs=2 sweep is a slowdown on a multi-core host \
                 (measured parallelism {:.2}): speedup {s:.3} < 1.0",
                current.measured_parallelism
            )),
            None => violations.push("jobs=2 sweep point missing from artifact".to_string()),
            _ => {}
        }
    }
    if let Some(r) = current.overhead_ratio {
        if r > INSTRUMENTED_OVERHEAD_LIMIT {
            violations.push(format!(
                "observability instruments too expensive: instrumented/plain ratio \
                 {r:.3}x > {INSTRUMENTED_OVERHEAD_LIMIT}x"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(step_1k: f64, step_100k: f64, jobs2: f64, measured: f64) -> WallclockArtifact {
        WallclockArtifact {
            step_ns_1k: step_1k,
            step_ns_100k: step_100k,
            cancel_ns_1k: 100.0,
            cancel_ns_100k: 150.0,
            jobs2_speedup: Some(jobs2),
            host_parallelism: 4,
            measured_parallelism: measured,
            overhead_ratio: Some(1.02),
        }
    }

    #[test]
    fn parses_the_committed_artifact_shape() {
        let json = r#"{
  "schema": "specfaas-bench/wallclock/v2",
  "quick": false,
  "host_parallelism": 1,
  "measured_parallelism": 1.02,
  "repeats": 5,
  "event_queue": [
    {"bench": "schedule_step", "pending": 1000, "ops": 400000, "median_ns_per_op": 126.51, "ops_per_sec": 7904222},
    {"bench": "schedule_step", "pending": 100000, "ops": 400000, "median_ns_per_op": 648.30, "ops_per_sec": 1542500},
    {"bench": "schedule_cancel", "pending": 1000, "ops": 400000, "median_ns_per_op": 109.51, "ops_per_sec": 9131232},
    {"bench": "schedule_cancel", "pending": 100000, "ops": 400000, "median_ns_per_op": 280.09, "ops_per_sec": 3570294}
  ],
  "jobs_sweep": [
    {"jobs": 1, "cells": 8, "median_secs": 0.132, "speedup": 1.000},
    {"jobs": 2, "cells": 8, "median_secs": 0.145, "speedup": 0.910},
    {"jobs": 4, "cells": 8, "median_secs": 0.140, "speedup": 0.942}
  ],
  "instrumented_overhead": {"app": "Login", "requests": 1000, "repeats": 3, "plain_secs": 0.4012, "instrumented_secs": 0.4141, "overhead_ratio": 1.0321}
}"#;
        let a = parse_artifact(json).unwrap();
        assert_eq!(a.step_ns_1k, 126.51);
        assert_eq!(a.step_ns_100k, 648.30);
        assert_eq!(a.cancel_ns_1k, 109.51);
        assert_eq!(a.cancel_ns_100k, 280.09);
        assert_eq!(a.jobs2_speedup, Some(0.910));
        assert_eq!(a.host_parallelism, 1);
        assert_eq!(a.measured_parallelism, 1.02);
        // Must pick the ratio key, not a number inside the overhead object
        // that happens to come first.
        assert_eq!(a.overhead_ratio, Some(1.0321));
    }

    #[test]
    fn v1_artifact_without_measured_parallelism_still_parses() {
        let json = r#"{
  "host_parallelism": 4,
  "event_queue": [
    {"bench": "schedule_step", "pending": 1000, "median_ns_per_op": 100.0},
    {"bench": "schedule_step", "pending": 100000, "median_ns_per_op": 150.0},
    {"bench": "schedule_cancel", "pending": 1000, "median_ns_per_op": 100.0},
    {"bench": "schedule_cancel", "pending": 100000, "median_ns_per_op": 150.0}
  ]
}"#;
        let a = parse_artifact(json).unwrap();
        assert_eq!(a.measured_parallelism, 4.0);
        assert_eq!(a.jobs2_speedup, None);
        assert_eq!(a.overhead_ratio, None);
    }

    #[test]
    fn overhead_clause_fires_past_the_limit_and_skips_when_absent() {
        let committed = artifact(100.0, 150.0, 1.0, 1.0);
        let mut current = artifact(100.0, 150.0, 1.6, 2.0);
        current.overhead_ratio = Some(INSTRUMENTED_OVERHEAD_LIMIT + 0.1);
        let v = check(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("instruments too expensive"));
        // Artifacts that predate the section skip the clause entirely.
        current.overhead_ratio = None;
        assert!(check(&current, &committed).is_empty());
    }

    #[test]
    fn passes_when_flat_and_scaling() {
        let committed = artifact(100.0, 150.0, 1.0, 1.0);
        let current = artifact(100.0, 160.0, 1.6, 2.0);
        assert!(check(&current, &committed).is_empty());
    }

    #[test]
    fn fails_on_absolute_regression() {
        let committed = artifact(100.0, 150.0, 1.0, 1.0);
        let current = artifact(100.0, 200.0, 1.6, 2.0);
        let v = check(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("regressed"));
    }

    #[test]
    fn fails_on_depth_ratio() {
        let committed = artifact(100.0, 500.0, 1.0, 1.0);
        let current = artifact(100.0, 300.0, 1.6, 2.0);
        let v = check(&current, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("depth ratio"));
    }

    #[test]
    fn jobs_clause_enforced_only_on_measured_multicore() {
        let committed = artifact(100.0, 150.0, 1.0, 1.0);
        // Single effective core: jobs=2 below 1.0 is tolerated.
        let single = artifact(100.0, 150.0, 0.91, 1.05);
        assert!(check(&single, &committed).is_empty());
        // Measured multi-core: the same sweep is a violation.
        let multi = artifact(100.0, 150.0, 0.91, 1.9);
        let v = check(&multi, &committed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("multi-core"));
    }
}
