//! Regression guard for the committed scale-run artifact.
//!
//! `BENCH_scale.json` is the scale-mode perf contract: the trace-driven
//! multi-tenant engine must keep sustaining ~10⁶-request runs at fleet
//! tenant counts. This module parses the artifact (committed blessing and
//! fresh run) and checks the clauses CI enforces
//! (`scale --guard <committed.json>`):
//!
//! 1. **Throughput floor at 10³ tenants** — the slower of the two engines
//!    (baseline / speculative) must sustain at least
//!    [`THROUGHPUT_HEADROOM`] × the committed sim-requests/sec, and never
//!    fall below the absolute floor [`ABS_THROUGHPUT_FLOOR`]. The relative
//!    clause catches hot-path regressions; the absolute one catches a
//!    stale blessing.
//! 2. **Memory-growth ceiling between tenant tiers** — between adjacent
//!    tiers, peak model memory may grow at most linearly in the tenant
//!    count (× [`MEM_GROWTH_SLACK`]). Per-request state is slab-pooled
//!    and metrics are streaming, so memory must scale with *tenants*
//!    (directory + warm pool), never with *requests*. Checked on every
//!    artifact that carries ≥ 2 tiers — including the committed blessing,
//!    so a bad re-bless cannot sneak in super-linear growth.
//! 3. **Speculation still wins** — every tier's `speculation_win` must
//!    stay ≥ [`MIN_SPEC_WIN`]; losing the win at scale would mean the
//!    flow-level engine no longer reproduces the paper's effect.
//!
//! Like [`crate::wallclock_guard`], fields are read with the minimal
//! extractor in [`crate::artifact`].

use crate::artifact::{flat_objects, num_after};

/// One tenant tier's guarded fields.
#[derive(Debug, Clone, PartialEq)]
pub struct TierRow {
    /// Tenant count of this tier.
    pub tenants: u64,
    /// Requests driven through the tier.
    pub requests: u64,
    /// Baseline engine sim-requests per wall-clock second.
    pub baseline_rps: f64,
    /// Speculative engine sim-requests per wall-clock second.
    pub spec_rps: f64,
    /// Baseline peak model memory in bytes.
    pub baseline_mem: f64,
    /// Speculative peak model memory in bytes.
    pub spec_mem: f64,
    /// Baseline mean latency / spec mean latency.
    pub speculation_win: f64,
}

/// The parsed artifact: one row per tenant tier, ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleArtifact {
    /// Tiers in ascending tenant order.
    pub tiers: Vec<TierRow>,
}

impl ScaleArtifact {
    /// The tier with exactly `tenants` tenants, if present.
    pub fn tier(&self, tenants: u64) -> Option<&TierRow> {
        self.tiers.iter().find(|t| t.tenants == tenants)
    }
}

/// Parses every tier object out of a scale artifact.
pub fn parse_artifact(json: &str) -> Result<ScaleArtifact, String> {
    let mut tiers = Vec::new();
    for body in flat_objects(json) {
        // A tier object carries both a tenant count and a win figure;
        // the top-level header object carries neither.
        if body.contains("\"tenants\":") && body.contains("\"speculation_win\":") {
            let get = |key: &str| -> Result<f64, String> {
                num_after(body, key).ok_or_else(|| format!("tier object missing `{key}`"))
            };
            tiers.push(TierRow {
                tenants: get("tenants")? as u64,
                requests: get("requests")? as u64,
                baseline_rps: get("baseline_req_per_sec")?,
                spec_rps: get("spec_req_per_sec")?,
                baseline_mem: get("baseline_peak_mem_bytes")?,
                spec_mem: get("spec_peak_mem_bytes")?,
                speculation_win: get("speculation_win")?,
            });
        }
    }
    if tiers.is_empty() {
        return Err("no tier objects found in scale artifact".to_string());
    }
    tiers.sort_by_key(|t| t.tenants);
    Ok(ScaleArtifact { tiers })
}

/// The tenant tier the throughput clauses anchor on.
pub const GUARD_TIER: u64 = 1_000;
/// Fraction of the committed throughput the current run must retain.
/// Generous because CI hosts are noisy and often single-core-throttled.
pub const THROUGHPUT_HEADROOM: f64 = 0.35;
/// Absolute floor on sim-requests/sec at the guard tier. A 10⁶-request
/// run must finish in well under a CI-feasible minute per engine.
pub const ABS_THROUGHPUT_FLOOR: f64 = 30_000.0;
/// Memory between adjacent tiers may grow at most linearly in the tenant
/// ratio, times this slack (hash-map load factors, LRU set reblancing).
pub const MEM_GROWTH_SLACK: f64 = 1.25;
/// Minimum speculation win (baseline mean / spec mean) at every tier.
pub const MIN_SPEC_WIN: f64 = 1.15;

/// Slower of the two engines at a tier — the figure the throughput
/// clauses bound.
fn min_rps(t: &TierRow) -> f64 {
    t.baseline_rps.min(t.spec_rps)
}

fn check_mem_growth(label: &str, art: &ScaleArtifact, violations: &mut Vec<String>) {
    for w in art.tiers.windows(2) {
        let (lo, hi) = (&w[0], &w[1]);
        let tenant_ratio = hi.tenants as f64 / lo.tenants as f64;
        let mem_lo = lo.baseline_mem.max(lo.spec_mem);
        let mem_hi = hi.baseline_mem.max(hi.spec_mem);
        if mem_lo <= 0.0 {
            continue;
        }
        let growth = mem_hi / mem_lo;
        let limit = tenant_ratio * MEM_GROWTH_SLACK;
        if growth > limit {
            violations.push(format!(
                "{label}: peak memory grew {growth:.2}x from {} to {} tenants \
                 (limit {limit:.2}x = tenant ratio {tenant_ratio:.0}x * {MEM_GROWTH_SLACK})",
                lo.tenants, hi.tenants
            ));
        }
    }
}

/// Evaluates every guard clause; returns human-readable violations
/// (empty = pass).
pub fn check(current: &ScaleArtifact, committed: &ScaleArtifact) -> Vec<String> {
    let mut violations = Vec::new();

    // Clause 1: throughput floor at the guard tier.
    match (current.tier(GUARD_TIER), committed.tier(GUARD_TIER)) {
        (Some(cur), Some(old)) => {
            let floor = min_rps(old) * THROUGHPUT_HEADROOM;
            if min_rps(cur) < floor {
                violations.push(format!(
                    "throughput at {GUARD_TIER} tenants: {:.0} req/s < floor {:.0} \
                     ({THROUGHPUT_HEADROOM} * committed {:.0})",
                    min_rps(cur),
                    floor,
                    min_rps(old)
                ));
            }
            if min_rps(cur) < ABS_THROUGHPUT_FLOOR {
                violations.push(format!(
                    "throughput at {GUARD_TIER} tenants: {:.0} req/s < absolute floor {:.0}",
                    min_rps(cur),
                    ABS_THROUGHPUT_FLOOR
                ));
            }
        }
        (None, _) => violations.push(format!(
            "current run has no {GUARD_TIER}-tenant tier (run `scale --tiers {GUARD_TIER}`)"
        )),
        (_, None) => violations.push(format!(
            "committed artifact has no {GUARD_TIER}-tenant tier"
        )),
    }

    // Clause 2: memory-growth ceiling between tiers, on both artifacts.
    if committed.tiers.len() >= 2 {
        check_mem_growth("committed", committed, &mut violations);
    }
    if current.tiers.len() >= 2 {
        check_mem_growth("current", current, &mut violations);
    }

    // Clause 3: speculation still wins at every tier of both artifacts.
    for (label, art) in [("committed", committed), ("current", current)] {
        for t in &art.tiers {
            if t.speculation_win < MIN_SPEC_WIN {
                violations.push(format!(
                    "{label}: speculation win {:.2}x at {} tenants < minimum {MIN_SPEC_WIN}x",
                    t.speculation_win, t.tenants
                ));
            }
        }
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(tenants: u64, rps: f64, mem: f64, win: f64) -> String {
        format!(
            "{{ \"tenants\": {tenants}, \"requests\": 1000000, \
             \"baseline_req_per_sec\": {rps}, \"baseline_mean_ms\": 60.0, \
             \"baseline_peak_mem_bytes\": {mem}, \
             \"spec_req_per_sec\": {rps}, \"spec_mean_ms\": 25.0, \
             \"spec_peak_mem_bytes\": {mem}, \"speculation_win\": {win} }}"
        )
    }

    fn artifact(tiers: &[String]) -> String {
        format!(
            "{{ \"schema\": \"specfaas-scale-v1\", \"seed\": 64133, \"tiers\": [\n{}\n] }}",
            tiers.join(",\n")
        )
    }

    fn healthy() -> String {
        artifact(&[
            tier(100, 300_000.0, 2_000_000.0, 2.0),
            tier(1_000, 250_000.0, 8_000_000.0, 2.1),
            tier(10_000, 200_000.0, 60_000_000.0, 1.9),
        ])
    }

    #[test]
    fn parses_all_tiers_in_ascending_order() {
        let art = parse_artifact(&healthy()).unwrap();
        assert_eq!(art.tiers.len(), 3);
        assert_eq!(art.tiers[0].tenants, 100);
        assert_eq!(art.tiers[2].tenants, 10_000);
        assert_eq!(art.tier(1_000).unwrap().baseline_rps, 250_000.0);
    }

    #[test]
    fn healthy_artifact_passes_against_itself() {
        let art = parse_artifact(&healthy()).unwrap();
        assert!(check(&art, &art).is_empty());
    }

    #[test]
    fn throughput_collapse_fires_clause_1() {
        let committed = parse_artifact(&healthy()).unwrap();
        let slow = artifact(&[
            tier(100, 300_000.0, 2_000_000.0, 2.0),
            tier(1_000, 40_000.0, 8_000_000.0, 2.1), // < 0.35 * 250k
            tier(10_000, 200_000.0, 60_000_000.0, 1.9),
        ]);
        let current = parse_artifact(&slow).unwrap();
        let v = check(&current, &committed);
        assert!(
            v.iter().any(|m| m.contains("throughput at 1000 tenants")),
            "{v:?}"
        );
    }

    #[test]
    fn absolute_floor_fires_even_with_slow_blessing() {
        // A stale blessing of 50k req/s would let 0.35x = 17.5k pass the
        // relative clause; the absolute floor still catches it.
        let slow_bless = artifact(&[tier(1_000, 50_000.0, 8_000_000.0, 2.0)]);
        let slower = artifact(&[tier(1_000, 20_000.0, 8_000_000.0, 2.0)]);
        let v = check(
            &parse_artifact(&slower).unwrap(),
            &parse_artifact(&slow_bless).unwrap(),
        );
        assert!(v.iter().any(|m| m.contains("absolute floor")), "{v:?}");
    }

    #[test]
    fn superlinear_memory_growth_fires_clause_2() {
        let committed = parse_artifact(&healthy()).unwrap();
        let bloated = artifact(&[
            tier(100, 300_000.0, 2_000_000.0, 2.0),
            // 100x memory for 10x tenants: request-proportional state leaked in.
            tier(1_000, 250_000.0, 200_000_000.0, 2.1),
            tier(10_000, 200_000.0, 2_000_000_000.0, 1.9),
        ]);
        let current = parse_artifact(&bloated).unwrap();
        let v = check(&current, &committed);
        assert!(v.iter().any(|m| m.contains("peak memory grew")), "{v:?}");
    }

    #[test]
    fn lost_speculation_win_fires_clause_3() {
        let committed = parse_artifact(&healthy()).unwrap();
        let flat = artifact(&[tier(1_000, 250_000.0, 8_000_000.0, 1.01)]);
        let current = parse_artifact(&flat).unwrap();
        let v = check(&current, &committed);
        assert!(v.iter().any(|m| m.contains("speculation win")), "{v:?}");
    }

    #[test]
    fn missing_guard_tier_is_a_violation() {
        let committed = parse_artifact(&healthy()).unwrap();
        let only_small = artifact(&[tier(100, 300_000.0, 2_000_000.0, 2.0)]);
        let current = parse_artifact(&only_small).unwrap();
        let v = check(&current, &committed);
        assert!(v.iter().any(|m| m.contains("no 1000-tenant tier")), "{v:?}");
    }

    #[test]
    fn garbage_fails_to_parse() {
        assert!(parse_artifact("{}").is_err());
        assert!(parse_artifact("not json at all").is_err());
    }

    #[test]
    fn committed_artifact_parses() {
        // The blessing checked into the repo must stay parseable; skip
        // quietly if it does not exist yet (first generation).
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
        if let Ok(json) = std::fs::read_to_string(path) {
            let art = parse_artifact(&json).expect("committed BENCH_scale.json parses");
            assert!(art.tier(100).is_some());
            assert!(art.tier(1_000).is_some());
            assert!(art.tier(10_000).is_some());
            assert!(check(&art, &art).is_empty(), "blessing passes vs itself");
        }
    }
}
