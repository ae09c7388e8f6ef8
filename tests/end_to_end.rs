//! Cross-crate integration tests: full applications through both
//! engines, checking functional equivalence and speculation invariants.

use std::sync::Arc;

use specfaas::prelude::*;

/// Builds a chain app whose final global state encodes the whole data
/// flow, so baseline-vs-SpecFaaS equivalence is externally observable.
fn audit_chain(n: usize) -> Arc<AppSpec> {
    let mut reg = FunctionRegistry::new();
    let mut names = Vec::new();
    for i in 0..n {
        let name = format!("f{i}");
        reg.register(FunctionSpec::new(
            &name,
            Program::builder()
                .compute_ms(4)
                .let_(
                    "next",
                    add(mul(field(input(), "v"), lit(3i64)), lit(i as i64)),
                )
                .set(concat([lit("audit:"), lit(i as i64)]), var("next"))
                .ret(make_map([("v", var("next"))])),
        ));
        names.push(name);
    }
    Arc::new(AppSpec::new(
        "AuditChain",
        "Test",
        reg,
        Workflow::sequence(names.iter().map(Workflow::task).collect()),
    ))
}

#[test]
fn speculative_execution_preserves_program_semantics() {
    let app = audit_chain(6);
    let input = Value::map([("v", Value::Int(5))]);

    let mut base = BaselineEngine::new(BaselineCore::new(Arc::clone(&app), 3));
    base.prewarm();
    base.run_single(input.clone());

    let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 3));
    spec.prewarm();
    // Two speculative runs (first trains, second speculates heavily).
    spec.run_single(input.clone());
    spec.run_single(input);

    // Every audit record must match the baseline exactly.
    for i in 0..6 {
        let key = format!("audit:{i}");
        assert_eq!(
            base.kv.peek(&key),
            spec.kv.peek(&key),
            "speculation changed observable state at {key}"
        );
    }
}

#[test]
fn speculation_gets_faster_with_training_and_never_wrong() {
    let app = audit_chain(8);
    let input = Value::map([("v", Value::Int(9))]);
    let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 5));
    spec.prewarm();
    let first = spec.run_single(input.clone());
    let second = spec.run_single(input.clone());
    let third = spec.run_single(input);
    assert!(
        second < first,
        "training should speed up: {first} -> {second}"
    );
    assert!(third <= second + SimDuration::from_millis(1));
    // audit:7 = folding v=9 through 8 stages.
    let mut v = 9i64;
    for i in 0..8 {
        v = v * 3 + i;
    }
    assert_eq!(spec.kv.peek("audit:7"), Some(&Value::Int(v)));
}

#[test]
fn all_16_paper_apps_agree_between_engines() {
    // Run every suite app once on both engines with identical inputs and
    // compare the committed function counts.
    for suite in specfaas::apps::all_suites() {
        for bundle in &suite.apps {
            let mut rng = SimRng::seed(77);
            let input = (bundle.make_input)(&mut rng);

            let mut base = BaselineEngine::new(BaselineCore::new(Arc::clone(&bundle.app), 9));
            base.prewarm();
            let mut srng = SimRng::seed(9);
            (bundle.seed)(&mut base.kv, &mut srng);
            base.run_single(input.clone());
            let mb = base.run_closed(0, |_| Value::Null);

            let mut spec = SpecEngine::new(SpecCore::new(
                Arc::clone(&bundle.app),
                SpecConfig::full(),
                9,
            ));
            spec.prewarm();
            let mut srng = SimRng::seed(9);
            (bundle.seed)(&mut spec.kv, &mut srng);
            spec.run_single(input);
            let ms = spec.run_closed(0, |_| Value::Null);

            assert_eq!(
                mb.records[0].sequence,
                ms.records[0].sequence,
                "{}: committed sequences diverge",
                bundle.name()
            );
        }
    }
}

#[test]
fn ablation_configs_order_sanely_on_a_chain() {
    // With everything deterministic and no data hazards, more speculation
    // can only help (or tie).
    let app = audit_chain(8);
    let input = Value::map([("v", Value::Int(2))]);
    let time_with = |cfg: SpecConfig| {
        let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&app), cfg, 13));
        e.prewarm();
        for _ in 0..2 {
            e.run_single(input.clone());
        }
        e.run_single(input.clone())
    };
    let full = time_with(SpecConfig::full());
    let bp_only = time_with(SpecConfig::branch_prediction_only());
    let mut none = SpecConfig::full();
    none.branch_prediction = false;
    none.memoization = false;
    let none_t = time_with(none);
    assert!(full <= bp_only, "full {full} vs bp-only {bp_only}");
    assert!(bp_only <= none_t, "bp-only {bp_only} vs none {none_t}");
}

#[test]
fn non_speculative_annotation_is_honoured_end_to_end() {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "a",
        Program::builder()
            .compute_ms(5)
            .ret(make_map([("v", lit(1i64))])),
    ));
    reg.register(FunctionSpec::with_annotations(
        "external",
        Program::builder()
            .compute_ms(5)
            .http(lit("https://example.com/charge"))
            .ret(make_map([("v", lit(2i64))])),
        Annotations::non_speculative(),
    ));
    let app = Arc::new(AppSpec::new(
        "Annotated",
        "Test",
        reg,
        Workflow::sequence(vec![Workflow::task("a"), Workflow::task("external")]),
    ));
    let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 21));
    spec.prewarm();
    spec.run_single(Value::Null);
    spec.run_single(Value::Null);
    let m = spec.run_closed(0, |_| Value::Null);
    for r in &m.records {
        assert_eq!(
            r.functions_squashed, 0,
            "non-speculative work never squashes"
        );
        assert_eq!(r.sequence.len(), 2);
    }
}

/// Snapshot of the global store, ordered for comparison.
fn kv_map(kv: &KvStore) -> std::collections::BTreeMap<String, Value> {
    kv.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
}

/// A fault plan every request should survive given a generous retry
/// budget: occasional crashes, transient storage errors, rare hangs.
fn survivable_plan() -> FaultPlan {
    FaultPlan::none()
        .with_container_crash(0.05)
        .with_kv_get(0.05)
        .with_kv_set(0.05)
        .with_hang(0.02)
}

fn generous_retries() -> RetryPolicy {
    RetryPolicy::default()
        .with_max_attempts(10)
        .with_timeout(SimDuration::from_secs(2))
}

#[test]
fn spec_under_survivable_faults_matches_fault_free_baseline_state() {
    // On every app of all three suites (FaaSChain, TrainTicket, Alibaba):
    // SpecFaaS with faults injected — but retries generous enough that
    // nothing aborts — must leave the global store exactly as a
    // fault-free baseline run does.
    for suite in specfaas::apps::all_suites() {
        for bundle in &suite.apps {
            let mut rng = SimRng::seed(0xFA);
            let inputs: Vec<Value> = (0..3).map(|_| (bundle.make_input)(&mut rng)).collect();

            let mut base = BaselineEngine::new(BaselineCore::new(Arc::clone(&bundle.app), 9));
            base.prewarm();
            let mut srng = SimRng::seed(9);
            (bundle.seed)(&mut base.kv, &mut srng);
            for i in &inputs {
                base.run_single(i.clone());
            }
            let mb = base.run_closed(0, |_| Value::Null);
            assert_eq!(
                mb.failed,
                0,
                "{}: fault-free baseline failed",
                bundle.name()
            );

            let mut spec = SpecEngine::new(SpecCore::new(
                Arc::clone(&bundle.app),
                SpecConfig::full(),
                9,
            ));
            spec.enable_faults(survivable_plan(), generous_retries());
            spec.prewarm();
            let mut srng = SimRng::seed(9);
            (bundle.seed)(&mut spec.kv, &mut srng);
            for i in &inputs {
                spec.run_single(i.clone());
            }
            let ms = spec.run_closed(0, |_| Value::Null);
            assert_eq!(
                ms.failed,
                0,
                "{}: a survivable fault aborted a request",
                bundle.name()
            );
            assert_eq!(
                kv_map(&base.kv),
                kv_map(&spec.kv),
                "{}: fault recovery diverged from fault-free state",
                bundle.name()
            );
        }
    }
}

#[test]
fn baseline_under_survivable_faults_matches_fault_free_state() {
    // Retried executions are at-least-once: values written must still be
    // those of a clean run.
    for suite in specfaas::apps::all_suites() {
        for bundle in &suite.apps {
            let mut rng = SimRng::seed(0xFB);
            let inputs: Vec<Value> = (0..3).map(|_| (bundle.make_input)(&mut rng)).collect();

            let run = |faulty: bool| {
                let mut e = BaselineEngine::new(BaselineCore::new(Arc::clone(&bundle.app), 9));
                if faulty {
                    e.enable_faults(survivable_plan(), generous_retries());
                }
                e.prewarm();
                let mut srng = SimRng::seed(9);
                (bundle.seed)(&mut e.kv, &mut srng);
                for i in &inputs {
                    e.run_single(i.clone());
                }
                let m = e.run_closed(0, |_| Value::Null);
                assert_eq!(m.failed, 0, "{}: request aborted", bundle.name());
                kv_map(&e.kv)
            };
            assert_eq!(
                run(false),
                run(true),
                "{}: baseline fault recovery changed observable state",
                bundle.name()
            );
        }
    }
}

#[test]
fn exhausted_retries_fail_terminally_without_panicking() {
    // Crash every execution with a minimal retry budget: every request
    // must abort cleanly with a Failed outcome — no drain panic, no
    // leaked request state.
    let app = audit_chain(4);
    for spec_engine in [false, true] {
        let (failed, live) = if spec_engine {
            let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 7));
            e.enable_faults(
                FaultPlan::none().with_container_crash(1.0),
                RetryPolicy::default().with_max_attempts(2),
            );
            e.prewarm();
            e.run_single(Value::map([("v", Value::Int(1))]));
            e.run_single(Value::map([("v", Value::Int(2))]));
            let m = e.run_closed(0, |_| Value::Null);
            (m.failed, m.records.len())
        } else {
            let mut e = BaselineEngine::new(BaselineCore::new(Arc::clone(&app), 7));
            e.enable_faults(
                FaultPlan::none().with_container_crash(1.0),
                RetryPolicy::default().with_max_attempts(2),
            );
            e.prewarm();
            e.run_single(Value::map([("v", Value::Int(1))]));
            e.run_single(Value::map([("v", Value::Int(2))]));
            let m = e.run_closed(0, |_| Value::Null);
            (m.failed, m.records.len())
        };
        assert_eq!(failed, 2, "engine spec={spec_engine}");
        assert_eq!(live, 2, "every aborted request leaves a record");
    }
}

#[test]
fn squash_mechanisms_all_converge_to_correct_state() {
    for squash in [
        SquashMechanism::Lazy,
        SquashMechanism::ProcessKill,
        SquashMechanism::ContainerKill,
    ] {
        // A branch app trained one way, then flipped: forces squashes.
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "cond",
            Program::builder()
                .compute_ms(4)
                .ret(make_map([("t", field(input(), "flag"))])),
        ));
        reg.register(FunctionSpec::new(
            "yes",
            Program::builder()
                .compute_ms(4)
                .set(lit("path"), lit("yes"))
                .ret(lit(1i64)),
        ));
        reg.register(FunctionSpec::new(
            "no",
            Program::builder()
                .compute_ms(4)
                .set(lit("path"), lit("no"))
                .ret(lit(0i64)),
        ));
        let app = Arc::new(AppSpec::new(
            "Flip",
            "Test",
            reg,
            Workflow::when_field(
                "cond",
                "t",
                Workflow::task("yes"),
                Some(Workflow::task("no")),
            ),
        ));
        let mut cfg = SpecConfig::full();
        cfg.squash = squash;
        let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&app), cfg, 31));
        e.prewarm();
        for _ in 0..4 {
            e.run_single(Value::map([("flag", Value::Bool(true))]));
        }
        // Mispredicted run: the wrong path is squashed; its write must
        // never reach global storage.
        e.run_single(Value::map([("flag", Value::Bool(false))]));
        let m = e.run_closed(0, |_| Value::Null);
        assert_eq!(
            e.kv.peek("path"),
            Some(&Value::str("no")),
            "{squash:?}: squashed path leaked state"
        );
        assert!(m.records.last().unwrap().functions_squashed >= 1);
    }
}
