//! Cross-engine equivalence: speculation must be semantically invisible.
//!
//! For every suite application and several seeds, the speculative engine
//! and the baseline engine are fed the *same* pre-generated input
//! sequence, one request at a time. Speculation may only change *when*
//! work happens (latencies and core-time differ by design) — never *what*
//! is computed. So after the run both engines must agree on
//!
//! * the final KV-store state (every key and value),
//! * which requests completed vs. failed, and
//! * each request's committed function invocations (the observable
//!   control-flow path; compared as a multiset because parallel-stage
//!   siblings commit in a timing-dependent order on both engines).

use std::sync::Arc;

use specfaas_apps::AppBundle;
use specfaas_core::{PolicyConfig, SpecConfig, SpecCore, SpecEngine};
use specfaas_platform::{BaselineCore, BaselineEngine, RequestOutcome, RunMetrics};
use specfaas_sim::SimRng;
use specfaas_storage::Value;

const REQUESTS: usize = 40;
const SEEDS: [u64; 3] = [1, 0xE0, 0xFAA5];

/// The same inputs for both engines, drawn from an RNG *outside* either
/// engine so neither engine's internal draws can skew the workload.
fn inputs_for(bundle: &AppBundle, seed: u64) -> Vec<Value> {
    let mut rng = SimRng::seed(seed);
    (0..REQUESTS)
        .map(|_| (bundle.make_input)(&mut rng))
        .collect()
}

/// Sorted dump of the final KV state (iteration order is not specified).
fn kv_dump(kv_pairs: Vec<(String, String)>) -> Vec<(String, String)> {
    let mut pairs = kv_pairs;
    pairs.sort();
    pairs
}

/// Runs `inputs` one request at a time and returns the run metrics plus
/// the final KV state.
fn run_baseline(
    bundle: &AppBundle,
    seed: u64,
    inputs: &[Value],
) -> (RunMetrics, Vec<(String, String)>) {
    let mut e = BaselineEngine::new(BaselineCore::new(Arc::clone(&bundle.app), seed));
    e.prewarm();
    let mut rng = SimRng::seed(seed ^ 0x5eed);
    (bundle.seed)(&mut e.kv, &mut rng);
    for input in inputs {
        e.run_single(input.clone());
    }
    let m = e.run_closed(0, |_| Value::Null);
    let dump = kv_dump(
        e.kv.iter()
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
    (bundle.seed)(&mut e.kv, &mut rng);
    for input in inputs {
        e.run_single(input.clone());
    }
    let m = e.run_closed(0, |_| Value::Null);
    let dump = kv_dump(
        e.kv.iter()
            .map(|(k, v)| (k.to_string(), format!("{v:?}")))
            .collect(),
    );
    (m, dump)
}

#[test]
fn spec_and_baseline_agree_on_state_and_outputs() {
    for suite in specfaas_apps::all_suites() {
        for bundle in &suite.apps {
            for seed in SEEDS {
                let label = format!("{}/{}/seed={seed}", suite.name, bundle.app.name);
                let inputs = inputs_for(bundle, seed);
                let (mb, kb) = run_baseline(bundle, seed, &inputs);
                let (ms, ks) = run_spec(bundle, seed, &inputs);

                assert_eq!(
                    mb.completed, ms.completed,
                    "{label}: completed-request counts diverge"
                );
                assert_eq!(mb.failed, ms.failed, "{label}: failure counts diverge");
                assert_eq!(
                    mb.records.len(),
                    ms.records.len(),
                    "{label}: record counts diverge"
                );
                for (i, (rb, rs)) in mb.records.iter().zip(&ms.records).enumerate() {
                    assert_eq!(
                        rb.outcome, rs.outcome,
                        "{label}: request {i} outcome diverges"
                    );
                    // Parallel-stage siblings may commit in either order,
                    // so compare the committed invocations as a multiset.
                    let mut sb = rb.sequence.clone();
                    let mut ss = rs.sequence.clone();
                    sb.sort_unstable();
                    ss.sort_unstable();
                    assert_eq!(sb, ss, "{label}: request {i} committed functions diverge");
                    assert_eq!(
                        rb.outcome,
                        RequestOutcome::Completed,
                        "{label}: request {i} did not complete (fault-free run)"
                    );
                }
                assert_eq!(kb, ks, "{label}: final KV-store state diverges");
            }
        }
    }
}

/// Platform policies may only move *when* containers exist — never what
/// the workflow computes. Both engines under the same aggressive
/// non-default policy (round-robin placement, short-TTL unloading,
/// sequence-table prewarm) must still agree on outcomes, committed
/// function multisets and the final KV state.
#[test]
fn engines_agree_under_non_default_policy() {
    let policy = PolicyConfig::parse("place=round-robin+keepalive=ttl:150ms+prewarm=seq-table")
        .expect("policy spec parses");
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        for seed in [1u64, 0xE0] {
            let label = format!(
                "{}/{}/seed={seed}/policy={}",
                suite.name,
                bundle.app.name,
                policy.label()
            );
            let inputs = inputs_for(bundle, seed);

            let mut be = BaselineEngine::new(BaselineCore::new(Arc::clone(&bundle.app), seed));
            be.set_policies(&policy);
            be.prewarm();
            let mut rng = SimRng::seed(seed ^ 0x5eed);
            (bundle.seed)(&mut be.kv, &mut rng);
            for input in &inputs {
                be.run_single(input.clone());
            }
            let mb = be.run_closed(0, |_| Value::Null);

            let mut se = SpecEngine::new(SpecCore::new(
                Arc::clone(&bundle.app),
                SpecConfig::full(),
                seed,
            ));
            se.set_policies(&policy);
            se.prewarm();
            let mut rng = SimRng::seed(seed ^ 0x5eed);
            (bundle.seed)(&mut se.kv, &mut rng);
            for input in &inputs {
                se.run_single(input.clone());
            }
            let ms = se.run_closed(0, |_| Value::Null);

            assert_eq!(mb.completed, ms.completed, "{label}: completed diverge");
            assert_eq!(mb.failed, ms.failed, "{label}: failed diverge");
            for (i, (rb, rs)) in mb.records.iter().zip(&ms.records).enumerate() {
                assert_eq!(rb.outcome, rs.outcome, "{label}: request {i} outcome");
                let mut sb = rb.sequence.clone();
                let mut ss = rs.sequence.clone();
                sb.sort_unstable();
                ss.sort_unstable();
                assert_eq!(sb, ss, "{label}: request {i} committed functions");
            }
            let kb = kv_dump(
                be.kv
                    .iter()
                    .map(|(k, v)| (k.to_string(), format!("{v:?}")))
                    .collect(),
            );
            let ks = kv_dump(
                se.kv
                    .iter()
                    .map(|(k, v)| (k.to_string(), format!("{v:?}")))
                    .collect(),
            );
            assert_eq!(kb, ks, "{label}: final KV-store state diverges");
        }
    }
}

/// Speculation must stay invisible under training too: a spec engine
/// whose persistent tables were warmed by earlier invocations still
/// commits the same state as a cold one fed the same measured inputs.
#[test]
fn trained_spec_commits_the_same_state_as_cold_spec() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    let seed = 7u64;
    let inputs = inputs_for(&bundle, seed);

    let run = |train: u64| {
        let mut e = SpecEngine::new(SpecCore::new(
            Arc::clone(&bundle.app),
            SpecConfig::full(),
            seed,
        ));
        e.prewarm();
        let mut rng = SimRng::seed(seed ^ 0x5eed);
        (bundle.seed)(&mut e.kv, &mut rng);
        let gen = bundle.make_input.clone();
        e.run_closed(train, move |r| gen(r));
        // Reset storage so only the measured inputs shape the final state.
        e.kv.clear();
        let mut rng = SimRng::seed(seed ^ 0x5eed);
        (bundle.seed)(&mut e.kv, &mut rng);
        for input in &inputs {
            e.run_single(input.clone());
        }
        kv_dump(
            e.kv.iter()
                .map(|(k, v)| (k.to_string(), format!("{v:?}")))
                .collect(),
        )
    };

    assert_eq!(run(0), run(200), "training changed committed state");
}
