//! Robustness and invariant tests for the speculative engine, beyond the
//! per-module unit tests: deep misprediction cascades, loop workflows,
//! concurrent-request isolation, and determinism under every squash
//! mechanism.

use std::sync::Arc;

use specfaas_core::{SpecConfig, SpecCore, SpecEngine, SquashMechanism};
use specfaas_platform::{BaselineCore, BaselineEngine, EngineCore};
use specfaas_sim::{SimDuration, SimRng};
use specfaas_storage::Value;
use specfaas_workflow::expr::*;
use specfaas_workflow::{AppSpec, FunctionRegistry, FunctionSpec, Program, Stmt, Workflow};

/// A workflow with a data-dependent loop: `check` counts down a field.
fn loop_app() -> Arc<AppSpec> {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "init",
        Program::builder()
            .compute_ms(3)
            .ret(make_map([("n", field(input(), "n")), ("acc", lit(0i64))])),
    ));
    reg.register(FunctionSpec::new(
        "check",
        Program::builder().compute_ms(2).ret(make_map([
            ("more", gt(field(input(), "n"), lit(0i64))),
            ("n", field(input(), "n")),
            ("acc", field(input(), "acc")),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "body",
        Program::builder().compute_ms(3).ret(make_map([
            ("n", sub(field(input(), "n"), lit(1i64))),
            ("acc", add(field(input(), "acc"), field(input(), "n"))),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "finish",
        Program::builder()
            .compute_ms(2)
            .set(lit("loop_result"), field(input(), "acc"))
            .ret(field(input(), "acc")),
    ));
    Arc::new(AppSpec::new(
        "Loopy",
        "Test",
        reg,
        Workflow::sequence(vec![
            Workflow::task("init"),
            Workflow::while_field("check", "more", Workflow::task("body")),
            Workflow::task("finish"),
        ]),
    ))
}

fn loop_expected(n: i64) -> i64 {
    // body adds (n) then decrements: acc = n + (n-1) + ... + 1.
    (1..=n).sum()
}

#[test]
fn loop_workflow_correct_on_baseline_and_spec() {
    let app = loop_app();
    for n in [0i64, 1, 3, 5] {
        let input = Value::map([("n", Value::Int(n))]);
        let mut base = BaselineEngine::new(BaselineCore::new(Arc::clone(&app), 1));
        base.prewarm();
        base.run_single(input.clone());
        assert_eq!(
            base.rt().kv.peek("loop_result"),
            Some(&Value::Int(loop_expected(n))),
            "baseline loop n={n}"
        );

        let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 1));
        spec.prewarm();
        spec.run_single(input.clone());
        spec.run_single(input); // speculated (loop unrolled from memo)
        assert_eq!(
            spec.rt().kv.peek("loop_result"),
            Some(&Value::Int(loop_expected(n))),
            "spec loop n={n}"
        );
    }
}

#[test]
fn loop_iteration_count_change_squashes_and_recovers() {
    let app = loop_app();
    let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 2));
    spec.prewarm();
    // Train with n=3 (loop runs 3 times)...
    for _ in 0..4 {
        spec.run_single(Value::map([("n", Value::Int(3))]));
    }
    // ...then run n=5: the loop-exit prediction is wrong mid-way.
    spec.run_single(Value::map([("n", Value::Int(5))]));
    assert_eq!(spec.rt().kv.peek("loop_result"), Some(&Value::Int(15)));
}

#[test]
fn deep_chain_hits_depth_limit_but_stays_correct() {
    let mut reg = FunctionRegistry::new();
    let mut names = Vec::new();
    for i in 0..30 {
        let name = format!("s{i}");
        reg.register(FunctionSpec::new(
            &name,
            Program::builder()
                .compute_ms(1)
                .ret(make_map([("v", add(field(input(), "v"), lit(1i64)))])),
        ));
        names.push(name);
    }
    let app = Arc::new(AppSpec::new(
        "Deep",
        "Test",
        reg,
        Workflow::sequence(names.iter().map(Workflow::task).collect()),
    ));
    let mut cfg = SpecConfig::full();
    cfg.max_depth = 6; // far below the chain length
    let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), cfg, 3));
    spec.prewarm();
    spec.run_single(Value::map([("v", Value::Int(0))]));
    spec.run_single(Value::map([("v", Value::Int(0))]));
    let m = spec.run_closed(0, |_| Value::Null);
    assert_eq!(m.records.len(), 2);
    assert_eq!(m.records[1].sequence.len(), 30);
}

#[test]
fn interleaved_requests_do_not_cross_speculate() {
    // Two requests in flight concurrently: each must see only its own
    // buffered writes (per-invocation Data Buffer).
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "writer",
        Program::builder()
            .compute_ms(10)
            .set(lit("shared"), field(input(), "tag"))
            .ret(make_map([("tag", field(input(), "tag"))])),
    ));
    reg.register(FunctionSpec::new(
        "reader",
        Program::builder()
            .get(lit("shared"), "s")
            .compute_ms(5)
            .set(concat([lit("seen:"), field(input(), "tag")]), var("s"))
            .ret(var("s")),
    ));
    let app = Arc::new(AppSpec::new(
        "Isolation",
        "Test",
        reg,
        Workflow::sequence(vec![Workflow::task("writer"), Workflow::task("reader")]),
    ));
    let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 4));
    spec.prewarm();
    // Train both tags.
    spec.run_single(Value::map([("tag", Value::Int(1))]));
    spec.run_single(Value::map([("tag", Value::Int(2))]));
    // Overlap them under open load: each request's reader must see its
    // own writer's value (forwarded through its own Data Buffer).
    let counter = std::sync::atomic::AtomicI64::new(0);
    let m = spec.run_open(
        300.0,
        SimDuration::from_secs(1),
        SimDuration::ZERO,
        move |_r: &mut SimRng| {
            let i = counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Value::map([("tag", Value::Int(1 + (i % 2)))])
        },
    );
    assert!(m.completed > 100);
    // In-order per request: seen:<tag> must equal <tag>.
    assert_eq!(spec.rt().kv.peek("seen:1"), Some(&Value::Int(1)));
    assert_eq!(spec.rt().kv.peek("seen:2"), Some(&Value::Int(2)));
}

#[test]
fn determinism_per_squash_mechanism() {
    for squash in [
        SquashMechanism::Lazy,
        SquashMechanism::ProcessKill,
        SquashMechanism::ContainerKill,
    ] {
        let run = |seed: u64| {
            let app = loop_app();
            let mut cfg = SpecConfig::full();
            cfg.squash = squash;
            let mut e = SpecEngine::new(SpecCore::new(app, cfg, seed));
            e.prewarm();
            let mut total = 0u64;
            for n in [3i64, 5, 3, 2, 5] {
                total += e.run_single(Value::map([("n", Value::Int(n))])).as_micros();
            }
            total
        };
        assert_eq!(run(9), run(9), "{squash:?} must be deterministic");
    }
}

#[test]
fn container_kill_makes_squashes_expensive() {
    // After a mispredicted branch, ContainerKill destroys the victim's
    // container, so the next use of that function pays a cold start.
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "cond",
        Program::builder()
            .compute_ms(4)
            .ret(make_map([("t", field(input(), "flag"))])),
    ));
    reg.register(FunctionSpec::new(
        "hot",
        Program::builder().compute_ms(4).ret(lit(1i64)),
    ));
    reg.register(FunctionSpec::new(
        "cold",
        Program::builder().compute_ms(4).ret(lit(0i64)),
    ));
    let app = Arc::new(AppSpec::new(
        "Kill",
        "Test",
        reg,
        Workflow::when_field(
            "cond",
            "t",
            Workflow::task("hot"),
            Some(Workflow::task("cold")),
        ),
    ));
    let run_with = |squash: SquashMechanism| {
        let mut cfg = SpecConfig::full();
        cfg.squash = squash;
        let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&app), cfg, 5));
        // Only ONE warm container per function: destruction hurts.
        let funcs: Vec<_> = app.registry.iter().map(|(id, _)| id).collect();
        e.rt_mut().cluster.prewarm_all(funcs, 1);
        for _ in 0..3 {
            e.run_single(Value::map([("flag", Value::Bool(true))]));
        }
        // Mispredict (squash 'hot'), then take the hot path again: with
        // ContainerKill the 'hot' container was destroyed.
        e.run_single(Value::map([("flag", Value::Bool(false))]));
        e.run_single(Value::map([("flag", Value::Bool(true))]))
    };
    let kill = run_with(SquashMechanism::ProcessKill);
    let container = run_with(SquashMechanism::ContainerKill);
    assert!(
        container > kill + SimDuration::from_millis(1000),
        "container-kill must force a cold start: {container} vs {kill}"
    );
}

#[test]
fn error_in_function_body_fails_gracefully() {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "bad",
        Program::builder()
            .compute_ms(2)
            .let_("x", div(lit(1i64), field(input(), "zero")))
            .ret(var("x")),
    ));
    reg.register(FunctionSpec::new(
        "after",
        Program::builder().compute_ms(2).ret(input()),
    ));
    let app = Arc::new(AppSpec::new(
        "Faulty",
        "Test",
        reg,
        Workflow::sequence(vec![Workflow::task("bad"), Workflow::task("after")]),
    ));
    let mut e = SpecEngine::new(SpecCore::new(app, SpecConfig::full(), 6));
    e.prewarm();
    // Division by zero inside `bad`: the invocation must still complete
    // (error document propagates) rather than hang.
    let d = e.run_single(Value::map([("zero", Value::Int(0))]));
    assert!(d > SimDuration::ZERO);
    let m = e.run_closed(0, |_| Value::Null);
    assert_eq!(m.completed, 1);
}

#[test]
fn stmt_level_loop_limit_is_contained() {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "spinner",
        Program::builder()
            .while_(
                lit(true),
                vec![Stmt::Compute(specfaas_workflow::DurationSpec::millis(1))],
                5,
            )
            .ret(lit("unreachable")),
    ));
    let app = Arc::new(AppSpec::new("Spin", "Test", reg, Workflow::task("spinner")));
    let mut e = SpecEngine::new(SpecCore::new(app, SpecConfig::full(), 7));
    e.prewarm();
    let d = e.run_single(Value::Null);
    // Runs 5 iterations then errors out; must terminate promptly.
    assert!(d < SimDuration::from_millis(100));
}

/// Every squash mechanism leaves no instance behind once a concurrent
/// drive has drained. Lazy squashing used to orphan instances still in
/// launch overhead; those never acquired a container, never ran and
/// stayed in the instance table forever.
#[test]
fn drained_runs_leave_no_live_instances_under_any_squash_mechanism() {
    use specfaas_apps::{dag, faaschain};
    let apps = [
        faaschain::banking(),
        faaschain::hotel_booking(),
        dag::finra_validate(),
    ];
    for bundle in &apps {
        for squash in [
            SquashMechanism::Lazy,
            SquashMechanism::ProcessKill,
            SquashMechanism::ContainerKill,
        ] {
            let config = SpecConfig {
                squash,
                ..SpecConfig::full()
            };
            let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&bundle.app), config, 7));
            e.prewarm();
            (bundle.seed)(&mut e.rt_mut().kv, &mut SimRng::seed(7 ^ 0x5eed));
            let gen = Arc::clone(&bundle.make_input);
            e.run_closed(100, move |r| gen(r));
            let gen = Arc::clone(&bundle.make_input);
            e.run_concurrent(16, SimDuration::from_secs(2), SimDuration::ZERO, move |r| {
                gen(r)
            });
            assert!(e.live_requests().is_empty());
            assert_eq!(
                e.live_instances(),
                0,
                "{} under {squash:?}: instances leaked",
                bundle.app.name
            );
        }
    }
}
