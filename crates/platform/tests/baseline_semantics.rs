//! Integration tests of the baseline engine's OpenWhisk semantics:
//! overheads accumulate sequentially, load inflates controller queueing,
//! and the closed-loop driver self-throttles at saturation.

use std::sync::Arc;

use specfaas_platform::{BaselineCore, BaselineEngine};
use specfaas_sim::{SimDuration, SimRng};
use specfaas_storage::Value;
use specfaas_workflow::expr::*;
use specfaas_workflow::{AppSpec, FunctionRegistry, FunctionSpec, Program, Workflow};

fn chain(n: usize, ms: u64) -> Arc<AppSpec> {
    let mut reg = FunctionRegistry::new();
    let mut names = Vec::new();
    for i in 0..n {
        let name = format!("c{i}");
        reg.register(FunctionSpec::new(
            &name,
            Program::builder().compute_ms(ms).ret(input()),
        ));
        names.push(name);
    }
    Arc::new(AppSpec::new(
        "Chain",
        "Test",
        reg,
        Workflow::sequence(names.iter().map(Workflow::task).collect()),
    ))
}

#[test]
fn response_time_scales_linearly_with_chain_length() {
    let times: Vec<f64> = [2usize, 4, 8]
        .iter()
        .map(|n| {
            let mut e = BaselineEngine::new(BaselineCore::new(chain(*n, 8), 1));
            e.prewarm();
            e.run_single(Value::Null).as_millis_f64()
        })
        .collect();
    // Strictly sequential execution: doubling the chain roughly doubles
    // the response (within overhead rounding).
    let r1 = times[1] / times[0];
    let r2 = times[2] / times[1];
    assert!((1.7..=2.3).contains(&r1), "2->4 scale {r1}");
    assert!((1.7..=2.3).contains(&r2), "4->8 scale {r2}");
}

#[test]
fn observation1_overhead_dominates_warm_execution() {
    // With 8ms functions the baseline spends more time on platform +
    // transfer than on execution, per Observation 1.
    let mut e = BaselineEngine::new(BaselineCore::new(chain(6, 8), 2));
    e.prewarm();
    e.run_single(Value::Null);
    let total_exec = 6.0 * 8.0;
    let response = e.run_single(Value::Null).as_millis_f64();
    let frac = total_exec / response;
    assert!(
        (0.30..=0.45).contains(&frac),
        "execution fraction {frac} outside Observation-1 band"
    );
}

#[test]
fn open_loop_latency_grows_with_load() {
    let measure = |rps: f64| {
        let mut e = BaselineEngine::new(BaselineCore::new(chain(6, 8), 3));
        e.prewarm();
        e.run_open(
            rps,
            SimDuration::from_secs(2),
            SimDuration::from_millis(200),
            |_: &mut SimRng| Value::Null,
        )
        .mean_response_ms()
    };
    let light = measure(20.0);
    let heavy = measure(150.0);
    assert!(
        heavy > light * 1.08,
        "controller queueing should inflate latency: {light} -> {heavy}"
    );
}

#[test]
fn closed_loop_self_throttles_at_saturation() {
    // A client pool far beyond capacity must still produce finite,
    // stable latencies (no unbounded queue).
    let mut e = BaselineEngine::new(BaselineCore::new(chain(6, 8), 4));
    e.prewarm();
    let m = e.run_concurrent(
        200,
        SimDuration::from_secs(3),
        SimDuration::from_millis(500),
        |_: &mut SimRng| Value::Null,
    );
    assert!(m.completed > 200, "served {}", m.completed);
    // Little's law: response ≈ clients / throughput.
    let expected = 200.0 / m.throughput_rps() * 1_000.0;
    let mean = m.mean_response_ms();
    assert!(
        (mean / expected - 1.0).abs() < 0.35,
        "Little's law violated: mean {mean}ms vs expected {expected}ms"
    );
}

#[test]
fn cold_start_only_once_per_container() {
    let app = chain(3, 5);
    let mut e = BaselineEngine::new(BaselineCore::new(Arc::clone(&app), 5));
    // No prewarm: 3 cold starts, then warm reuse.
    e.run_single(Value::Null);
    assert_eq!(e.cluster.cold_starts(), 3);
    e.run_single(Value::Null);
    assert_eq!(
        e.cluster.cold_starts(),
        3,
        "second request reuses containers"
    );
}
