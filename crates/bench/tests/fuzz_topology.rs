//! Randomized DAG-topology equivalence fuzzing.
//!
//! The hand-built suites cover 19 fixed topologies; this test feeds
//! seeded *random* DAGs (bounded width/depth, wide fork/joins,
//! data-dependent branches, cross-boundary storage reads — see
//! `specfaas_apps::topology`) through the same cross-engine equivalence
//! harness as `equivalence_e2e`: for every generated app, the
//! speculative engine and the baseline must agree on final KV state,
//! request outcomes, and committed-function multisets.
//!
//! The seed budget is fixed (`DEFAULT_TOPOLOGIES`) so runs are
//! reproducible; set `FUZZ_TOPOLOGIES=<n>` to widen or narrow the sweep
//! (CI pins it explicitly).

use std::sync::Arc;

use specfaas_apps::AppBundle;
use specfaas_core::{SpecConfig, SpecCore, SpecEngine};
use specfaas_platform::{BaselineCore, BaselineEngine, EngineCore, RequestOutcome, RunMetrics};
use specfaas_sim::SimRng;
use specfaas_storage::Value;

/// Topologies checked per run unless `FUZZ_TOPOLOGIES` overrides it.
const DEFAULT_TOPOLOGIES: u64 = 100;
/// Requests fed to each engine per topology.
const REQUESTS: usize = 12;
/// Base of the seed range, so fuzz seeds never collide with suite seeds.
const SEED_BASE: u64 = 0xDA6_0000;

fn budget() -> u64 {
    std::env::var("FUZZ_TOPOLOGIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TOPOLOGIES)
}

fn inputs_for(bundle: &AppBundle, seed: u64) -> Vec<Value> {
    let mut rng = SimRng::seed(seed);
    (0..REQUESTS)
        .map(|_| (bundle.make_input)(&mut rng))
        .collect()
}

fn kv_dump(kv_pairs: Vec<(String, String)>) -> Vec<(String, String)> {
    let mut pairs = kv_pairs;
    pairs.sort();
    pairs
}

fn run_baseline(
    bundle: &AppBundle,
    seed: u64,
    inputs: &[Value],
) -> (RunMetrics, Vec<(String, String)>) {
    let mut e = BaselineEngine::new(BaselineCore::new(Arc::clone(&bundle.app), seed));
    e.prewarm();
    let mut rng = SimRng::seed(seed ^ 0x5eed);
    (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
    for input in inputs {
        e.run_single(input.clone());
    }
    let m = e.run_closed(0, |_| Value::Null);
    let dump = kv_dump(
        e.rt()
            .kv
            .iter()
            .map(|(k, v)| (k.to_string(), format!("{v:?}")))
            .collect(),
    );
    (m, dump)
}

fn run_spec(
    bundle: &AppBundle,
    seed: u64,
    inputs: &[Value],
) -> (RunMetrics, Vec<(String, String)>) {
    let mut e = SpecEngine::new(SpecCore::new(
        Arc::clone(&bundle.app),
        SpecConfig::full(),
        seed,
    ));
    e.prewarm();
    let mut rng = SimRng::seed(seed ^ 0x5eed);
    (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
    for input in inputs {
        e.run_single(input.clone());
    }
    let m = e.run_closed(0, |_| Value::Null);
    let dump = kv_dump(
        e.rt()
            .kv
            .iter()
            .map(|(k, v)| (k.to_string(), format!("{v:?}")))
            .collect(),
    );
    (m, dump)
}

#[test]
fn random_topologies_commit_identically_on_both_engines() {
    let n = budget();
    assert!(n > 0, "FUZZ_TOPOLOGIES must be positive");
    for t in 0..n {
        let topo_seed = SEED_BASE + t;
        let bundle = specfaas_apps::topology::random_bundle(topo_seed);
        let label = format!("topology seed {topo_seed:#x}");
        let inputs = inputs_for(&bundle, topo_seed);
        let (mb, kb) = run_baseline(&bundle, topo_seed, &inputs);
        let (ms, ks) = run_spec(&bundle, topo_seed, &inputs);

        assert_eq!(mb.completed, ms.completed, "{label}: completed diverge");
        assert_eq!(mb.failed, ms.failed, "{label}: failed diverge");
        assert_eq!(
            mb.records.len(),
            ms.records.len(),
            "{label}: record counts diverge"
        );
        for (i, (rb, rs)) in mb.records.iter().zip(&ms.records).enumerate() {
            assert_eq!(rb.outcome, rs.outcome, "{label}: request {i} outcome");
            assert_eq!(
                rb.outcome,
                RequestOutcome::Completed,
                "{label}: request {i} did not complete (fault-free run)"
            );
            let mut sb = rb.sequence.clone();
            let mut ss = rs.sequence.clone();
            sb.sort_unstable();
            ss.sort_unstable();
            assert_eq!(
                sb, ss,
                "{label}: request {i} committed-function multisets diverge"
            );
        }
        assert_eq!(kb, ks, "{label}: final KV-store state diverges");
    }
}

/// A mutated seed must change the topology (the generator is actually
/// sensitive to its seed, not collapsing to one shape).
#[test]
fn fuzz_seeds_generate_distinct_topologies() {
    let shapes: Vec<Vec<String>> = (0..16)
        .map(|t| {
            specfaas_apps::topology::random_bundle(SEED_BASE + t)
                .app
                .workflow
                .function_names()
                .iter()
                .map(|s| s.to_string())
                .collect()
        })
        .collect();
    let distinct: std::collections::HashSet<_> = shapes.iter().collect();
    assert!(
        distinct.len() > 8,
        "only {} distinct topologies in 16 seeds",
        distinct.len()
    );
}
