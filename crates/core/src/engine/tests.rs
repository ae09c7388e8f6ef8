use super::*;
use specfaas_platform::{BaselineCore, BaselineEngine};
use specfaas_sim::{FaultPlan, RetryPolicy, SimRng};
use specfaas_workflow::expr::*;
use specfaas_workflow::{FunctionRegistry, FunctionSpec, Program, Workflow};

fn chain_app(n: usize, exec_ms: u64) -> AppSpec {
    let mut reg = FunctionRegistry::new();
    let mut names = Vec::new();
    for i in 0..n {
        let name = format!("f{i}");
        reg.register(FunctionSpec::new(
            &name,
            Program::builder()
                .compute_ms(exec_ms)
                .ret(make_map([("v", add(field(input(), "v"), lit(1i64)))])),
        ));
        names.push(name);
    }
    AppSpec::new(
        "Chain",
        "Test",
        reg,
        Workflow::sequence(names.iter().map(Workflow::task).collect()),
    )
}

fn fresh_input(_: &mut SimRng) -> Value {
    Value::map([("v", Value::Int(0))])
}

#[test]
fn single_request_completes_correctly() {
    let mut e = SpecEngine::new(SpecCore::new(
        Arc::new(chain_app(4, 5)),
        SpecConfig::full(),
        1,
    ));
    e.prewarm();
    let d = e.run_single(fresh_input(&mut SimRng::seed(0)));
    assert!(d > SimDuration::ZERO);
    let m = e.run_closed(0, fresh_input);
    assert_eq!(m.completed, 1);
    assert_eq!(m.records[0].sequence, vec![0, 1, 2, 3]);
}

#[test]
fn warmed_spec_is_faster_than_cold_spec() {
    let mut e = SpecEngine::new(SpecCore::new(
        Arc::new(chain_app(6, 5)),
        SpecConfig::full(),
        1,
    ));
    e.prewarm();
    let first = e.run_single(fresh_input(&mut SimRng::seed(0)));
    // Tables now know input → output for every function.
    let second = e.run_single(fresh_input(&mut SimRng::seed(0)));
    assert!(
        second < first,
        "memoized run {second} should beat cold run {first}"
    );
}

#[test]
fn spec_beats_baseline_on_chains() {
    let app = Arc::new(chain_app(8, 8));
    let mut base = BaselineEngine::new(BaselineCore::new(Arc::clone(&app), 1));
    base.prewarm();
    let base_d = base.run_single(fresh_input(&mut SimRng::seed(0)));

    let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 1));
    spec.prewarm();
    spec.run_single(fresh_input(&mut SimRng::seed(0))); // train
    let spec_d = spec.run_single(fresh_input(&mut SimRng::seed(0)));
    let speedup = base_d / spec_d;
    assert!(
        speedup > 2.0,
        "expected >2x speedup, got {speedup:.2} ({base_d} vs {spec_d})"
    );
}

#[test]
fn memoization_off_still_correct() {
    let mut cfg = SpecConfig::full();
    cfg.memoization = false;
    let mut e = SpecEngine::new(SpecCore::new(Arc::new(chain_app(4, 5)), cfg, 1));
    e.prewarm();
    e.run_single(fresh_input(&mut SimRng::seed(0)));
    e.run_single(fresh_input(&mut SimRng::seed(0)));
    let m = e.run_closed(0, fresh_input);
    assert_eq!(m.completed, 2);
    for r in &m.records {
        assert_eq!(r.sequence, vec![0, 1, 2, 3]);
        assert_eq!(r.functions_squashed, 0);
    }
}

/// A branch app whose outcome depends on input data.
fn branch_app() -> AppSpec {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "cond",
        Program::builder()
            .compute_ms(4)
            .ret(make_map([("ok", gt(field(input(), "x"), lit(10i64)))])),
    ));
    reg.register(FunctionSpec::new(
        "yes",
        Program::builder().compute_ms(4).ret(lit("yes")),
    ));
    reg.register(FunctionSpec::new(
        "no",
        Program::builder().compute_ms(4).ret(lit("no")),
    ));
    AppSpec::new(
        "Branchy",
        "Test",
        reg,
        Workflow::when_field(
            "cond",
            "ok",
            Workflow::task("yes"),
            Some(Workflow::task("no")),
        ),
    )
}

#[test]
fn branch_misprediction_squashes_and_recovers() {
    let mut e = SpecEngine::new(SpecCore::new(Arc::new(branch_app()), SpecConfig::full(), 1));
    e.prewarm();
    // Train: always taken.
    for _ in 0..5 {
        e.run_single(Value::map([("x", Value::Int(50))]));
    }
    // Now a not-taken input: predictor says taken, must squash "yes"
    // and run "no".
    e.run_single(Value::map([("x", Value::Int(5))]));
    let m = e.run_closed(0, fresh_input);
    let last = m.records.last().unwrap();
    let no = e.app().registry.lookup("no").unwrap().0;
    assert_eq!(*last.sequence.last().unwrap(), no);
    assert!(last.functions_squashed >= 1, "wrong path must be squashed");
}

#[test]
fn correct_prediction_overlaps_branch_target() {
    let mut e = SpecEngine::new(SpecCore::new(Arc::new(branch_app()), SpecConfig::full(), 1));
    e.prewarm();
    for _ in 0..5 {
        e.run_single(Value::map([("x", Value::Int(50))]));
    }
    let d = e.run_single(Value::map([("x", Value::Int(50))]));
    // cond (4ms) and yes (4ms) overlap: end-to-end well under the
    // serial 8ms + overheads.
    assert!(d < SimDuration::from_millis(16), "overlapped run took {d}");
    assert!(e.predictor().hit_rate().rate() > 0.8);
}

/// Producer writes a record that the consumer reads: out-of-order RAW
/// when speculated.
fn raw_dependence_app() -> AppSpec {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "producer",
        Program::builder()
            .compute_ms(6)
            .set(lit("shared"), field(input(), "v"))
            .ret(make_map([("v", field(input(), "v"))])),
    ));
    reg.register(FunctionSpec::new(
        "consumer",
        Program::builder()
            .get(lit("shared"), "s")
            .compute_ms(4)
            .ret(make_map([("read", var("s"))])),
    ));
    AppSpec::new(
        "RawDep",
        "Test",
        reg,
        Workflow::sequence(vec![Workflow::task("producer"), Workflow::task("consumer")]),
    )
}

#[test]
fn data_violation_detected_and_output_correct() {
    let mut cfg = SpecConfig::full();
    cfg.stall_optimization = false; // isolate the squash path
    let mut e = SpecEngine::new(SpecCore::new(Arc::new(raw_dependence_app()), cfg, 1));
    e.prewarm();
    // Train with v=1 so memoization launches the consumer early on
    // the next identical request.
    e.run_single(Value::map([("v", Value::Int(1))]));
    // Same input again: the consumer launches speculatively and reads
    // "shared" before the producer's buffered write → out-of-order
    // RAW → squash → re-execution reads the forwarded value.
    e.run_single(Value::map([("v", Value::Int(1))]));
    let m = e.run_closed(0, fresh_input);
    assert_eq!(e.rt().kv.peek("shared"), Some(&Value::Int(1)));
    assert!(
        m.records.last().unwrap().functions_squashed >= 1,
        "premature read should have been squashed"
    );
}

#[test]
fn stall_list_engages_after_repeated_squashes() {
    let mut cfg = SpecConfig::full();
    cfg.stall_after_squashes = 1;
    let mut e = SpecEngine::new(SpecCore::new(Arc::new(raw_dependence_app()), cfg, 1));
    e.prewarm();
    for _ in 0..6 {
        e.run_single(Value::map([("v", Value::Int(7))]));
    }
    assert!(
        e.stall_list().stalls_avoided() > 0,
        "stall list should have engaged"
    );
    // Once stalling, later runs squash nothing.
    e.run_single(Value::map([("v", Value::Int(7))]));
    let m = e.run_closed(0, fresh_input);
    assert_eq!(m.records.last().unwrap().functions_squashed, 0);
}

/// Implicit workflow: root calls two leaves.
fn implicit_app() -> AppSpec {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "leaf1",
        Program::builder()
            .compute_ms(6)
            .ret(add(field(input(), "n"), lit(100i64))),
    ));
    reg.register(FunctionSpec::new(
        "leaf2",
        Program::builder()
            .compute_ms(6)
            .ret(add(field(input(), "n"), lit(200i64))),
    ));
    reg.register(FunctionSpec::new(
        "root",
        Program::builder()
            .compute_ms(2)
            .call("leaf1", make_map([("n", field(input(), "k"))]), "r1")
            .call("leaf2", make_map([("n", field(input(), "k"))]), "r2")
            .compute_ms(2)
            .ret(make_list([var("r1"), var("r2")])),
    ));
    AppSpec::new("Implicit", "Test", reg, Workflow::task("root"))
}

#[test]
fn implicit_callees_overlap_after_training() {
    let app = Arc::new(implicit_app());
    let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 1));
    e.prewarm();
    let inp = Value::map([("k", Value::Int(3))]);
    let cold = e.run_single(inp.clone());
    let warm = e.run_single(inp.clone());
    assert!(
        warm < cold,
        "prefetched callees should overlap: cold {cold}, warm {warm}"
    );
    // And the result must still be correct: leaves at 103 and 203.
    let m = e.run_closed(0, fresh_input);
    assert_eq!(m.records.len(), 2);
    assert_eq!(m.records[1].functions_squashed, 0);
}

/// An implicit root whose callee arguments depend on *global state*,
/// so memoized callee inputs can go stale.
fn stateful_implicit_app() -> AppSpec {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "leaf",
        Program::builder()
            .compute_ms(6)
            .ret(add(field(input(), "n"), lit(100i64))),
    ));
    reg.register(FunctionSpec::new(
        "root",
        Program::builder()
            .compute_ms(2)
            .get(lit("mode"), "m")
            .call("leaf", make_map([("n", var("m"))]), "r")
            .ret(var("r")),
    ));
    AppSpec::new("StatefulImplicit", "Test", reg, Workflow::task("root"))
}

#[test]
fn implicit_wrong_callee_args_squash_and_recover() {
    let app = Arc::new(stateful_implicit_app());
    let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 1));
    e.prewarm();
    e.rt_mut().kv.set("mode", Value::Int(1));
    // Train: the memo row records callee input {n: 1}.
    e.run_single(Value::Null);
    e.run_single(Value::Null);
    // Flip the mode: the prefetched callee (args {n:1}) now
    // mismatches the actual call (args {n:2}) → squash + respawn.
    e.rt_mut().kv.set("mode", Value::Int(2));
    let d = e.run_single(Value::Null);
    assert!(d > SimDuration::ZERO);
    let m = e.run_closed(0, fresh_input);
    let rec = m.records.last().unwrap();
    assert!(rec.functions_squashed >= 1, "stale callee args must squash");
    // Committed sequence still has leaf then root.
    assert_eq!(rec.sequence.len(), 2);
}

#[test]
fn lazy_squash_wastes_more_cpu_than_process_kill() {
    let mk = |squash| {
        let mut cfg = SpecConfig::full();
        cfg.squash = squash;
        cfg.stall_optimization = false;
        let mut e = SpecEngine::new(SpecCore::new(Arc::new(branch_app()), cfg, 1));
        e.prewarm();
        // Train taken, then run many not-taken → constant squashes.
        for _ in 0..5 {
            e.run_single(Value::map([("x", Value::Int(50))]));
        }
        for _ in 0..10 {
            e.run_single(Value::map([("x", Value::Int(5))]));
        }
        let m = e.run_closed(0, fresh_input);
        m.squashed_core_time
    };
    let lazy = mk(SquashMechanism::Lazy);
    let kill = mk(SquashMechanism::ProcessKill);
    assert!(
        lazy > kill,
        "lazy squash should waste more CPU: lazy {lazy}, kill {kill}"
    );
}

#[test]
fn non_speculative_annotation_delays_launch() {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "a",
        Program::builder()
            .compute_ms(5)
            .ret(make_map([("v", lit(1i64))])),
    ));
    reg.register(FunctionSpec::with_annotations(
        "careful",
        Program::builder()
            .compute_ms(5)
            .ret(make_map([("v", lit(2i64))])),
        specfaas_workflow::Annotations::non_speculative(),
    ));
    let app = AppSpec::new(
        "Annotated",
        "Test",
        reg,
        Workflow::sequence(vec![Workflow::task("a"), Workflow::task("careful")]),
    );
    let mut e = SpecEngine::new(SpecCore::new(Arc::new(app), SpecConfig::full(), 1));
    e.prewarm();
    e.run_single(Value::Null);
    let d = e.run_single(Value::Null);
    // No overlap possible: careful waits for a to commit. Response is
    // at least the serial execution time.
    assert!(d >= SimDuration::from_millis(10), "no overlap allowed: {d}");
    let m = e.run_closed(0, fresh_input);
    assert_eq!(m.records.last().unwrap().functions_squashed, 0);
}

#[test]
fn pure_function_skip_avoids_execution() {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::with_annotations(
        "pure",
        Program::builder()
            .compute_ms(50)
            .ret(make_map([("v", lit(7i64))])),
        specfaas_workflow::Annotations::pure_function(),
    ));
    reg.register(FunctionSpec::new(
        "sink",
        Program::builder().compute_ms(2).ret(field(input(), "v")),
    ));
    let app = Arc::new(AppSpec::new(
        "Pure",
        "Test",
        reg,
        Workflow::sequence(vec![Workflow::task("pure"), Workflow::task("sink")]),
    ));
    let mut cfg = SpecConfig::full();
    cfg.pure_function_skip = true;
    let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&app), cfg, 1));
    e.prewarm();
    let first = e.run_single(Value::Null);
    let second = e.run_single(Value::Null);
    assert!(
        second < first / 2,
        "pure skip should avoid the 50ms body: first {first}, second {second}"
    );
}

#[test]
fn open_loop_load_completes() {
    let mut e = SpecEngine::new(SpecCore::new(
        Arc::new(chain_app(5, 5)),
        SpecConfig::full(),
        9,
    ));
    e.prewarm();
    let m = e.run_open(
        100.0,
        SimDuration::from_secs(2),
        SimDuration::from_millis(200),
        fresh_input,
    );
    assert!(m.completed > 100, "completed only {}", m.completed);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut e = SpecEngine::new(SpecCore::new(
            Arc::new(chain_app(5, 5)),
            SpecConfig::full(),
            7,
        ));
        e.prewarm();
        e.run_single(fresh_input(&mut SimRng::seed(0)));
        e.run_single(fresh_input(&mut SimRng::seed(0))).as_micros()
    };
    assert_eq!(run(), run());
}

// ------------------------------------------------------------------
// Fault injection
// ------------------------------------------------------------------

#[test]
fn empty_fault_plan_is_bit_identical_to_disabled() {
    let run = |enable: bool| {
        let mut e = SpecEngine::new(SpecCore::new(
            Arc::new(chain_app(5, 5)),
            SpecConfig::full(),
            7,
        ));
        if enable {
            e.enable_faults(FaultPlan::none(), RetryPolicy::default());
        }
        e.prewarm();
        let m = e.run_concurrent(
            4,
            SimDuration::from_secs(1),
            SimDuration::from_millis(100),
            fresh_input,
        );
        (
            m.completed,
            m.latency.mean_ms().to_bits(),
            m.squashed_core_time,
            m.useful_core_time,
        )
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn crash_faults_retry_and_recover() {
    let mut e = SpecEngine::new(SpecCore::new(
        Arc::new(chain_app(5, 5)),
        SpecConfig::full(),
        2,
    ));
    e.enable_faults(
        FaultPlan::none().with_container_crash(0.10),
        RetryPolicy::default().with_max_attempts(10),
    );
    e.prewarm();
    let m = e.run_closed(20, fresh_input);
    assert_eq!(m.completed, 20, "all requests survive with retries");
    assert_eq!(m.failed, 0);
    assert!(m.faults.crashes > 0, "crash faults should have fired");
    assert_eq!(m.faults.crashes, m.faults.retried);
    // Every record still committed the full chain, in order.
    for r in &m.records {
        assert_eq!(r.sequence, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.outcome, RequestOutcome::Completed);
    }
}

#[test]
fn exhausted_retries_abort_with_failed_outcome() {
    let mut e = SpecEngine::new(SpecCore::new(
        Arc::new(chain_app(3, 5)),
        SpecConfig::full(),
        1,
    ));
    e.enable_faults(
        FaultPlan::none().with_container_crash(1.0),
        RetryPolicy::default().with_max_attempts(2),
    );
    e.prewarm();
    let m = e.run_closed(3, fresh_input);
    assert_eq!(m.completed, 0, "every execution crashes");
    assert_eq!(m.failed, 3);
    assert!(m
        .records
        .iter()
        .all(|r| r.outcome == RequestOutcome::Failed));
    // Each aborted request burned its full retry budget.
    assert!(m.faults.crashes >= 3 * 2);
}

#[test]
fn kv_faults_retry_at_storage_level() {
    let mut e = SpecEngine::new(SpecCore::new(
        Arc::new(raw_dependence_app()),
        SpecConfig::full(),
        1,
    ));
    e.enable_faults(
        FaultPlan::none().with_kv_get(0.3).with_kv_set(0.3),
        RetryPolicy::default().with_max_attempts(10),
    );
    e.prewarm();
    let m = e.run_closed(15, |_| Value::map([("v", Value::Int(1))]));
    assert_eq!(m.completed, 15);
    assert_eq!(m.failed, 0);
    assert!(m.faults.kv_errors > 0, "KV faults should have fired");
    assert!(m.faults.retried > 0);
    // The winning write still landed.
    assert_eq!(e.rt().kv.peek("shared"), Some(&Value::Int(1)));
}

#[test]
fn hang_without_timeout_aborts_on_drain_instead_of_panicking() {
    let mut e = SpecEngine::new(SpecCore::new(
        Arc::new(chain_app(3, 5)),
        SpecConfig::full(),
        1,
    ));
    e.enable_faults(FaultPlan::none().with_hang(1.0), RetryPolicy::default());
    e.prewarm();
    // The first handler wedges forever; with no invocation timeout the
    // simulation drains and the request is aborted, not panicked on.
    e.run_single(fresh_input(&mut SimRng::seed(0)));
    let m = e.run_closed(0, fresh_input);
    assert_eq!(m.failed, 1);
    assert!(m.faults.hangs >= 1);
    assert_eq!(m.records[0].outcome, RequestOutcome::Failed);
}

#[test]
fn watchdog_detects_hangs_and_retries() {
    let mut e = SpecEngine::new(SpecCore::new(
        Arc::new(chain_app(3, 5)),
        SpecConfig::full(),
        1,
    ));
    // Hang only in a window covering the first execution; the retry
    // runs after the window closes and succeeds.
    e.enable_faults(
        FaultPlan::none()
            .with_hang(1.0)
            .with_window(SimTime::ZERO, Some(SimTime::from_millis(50))),
        RetryPolicy::default()
            .with_timeout(SimDuration::from_millis(100))
            .with_max_attempts(5),
    );
    e.prewarm();
    e.run_single(fresh_input(&mut SimRng::seed(0)));
    let m = e.run_closed(0, fresh_input);
    assert_eq!(m.completed, 1, "watchdog should rescue the hung request");
    assert!(m.faults.timeouts >= 1, "watchdog must have fired");
    assert!(m.faults.retried >= 1);
}

#[test]
fn slot_drops_only_delay_speculation() {
    let mut e = SpecEngine::new(SpecCore::new(
        Arc::new(chain_app(5, 5)),
        SpecConfig::full(),
        2,
    ));
    e.enable_faults(
        FaultPlan::none().with_slot_drop(1.0),
        RetryPolicy::default(),
    );
    e.prewarm();
    let m = e.run_closed(5, fresh_input);
    // Dropping speculative slots costs performance, never correctness.
    assert_eq!(m.completed, 5);
    assert_eq!(m.failed, 0);
    assert!(m.faults.slot_drops > 0, "non-head launches should drop");
    for r in &m.records {
        assert_eq!(r.sequence, vec![0, 1, 2, 3, 4]);
    }
}

#[test]
fn fault_timeline_is_deterministic_per_seed() {
    let run = || {
        let mut e = SpecEngine::new(SpecCore::new(
            Arc::new(chain_app(5, 5)),
            SpecConfig::full(),
            11,
        ));
        e.enable_faults(
            FaultPlan::none()
                .with_container_crash(0.15)
                .with_kv_get(0.1),
            RetryPolicy::default().with_max_attempts(8),
        );
        e.prewarm();
        let m = e.run_concurrent(
            3,
            SimDuration::from_secs(1),
            SimDuration::from_millis(100),
            fresh_input,
        );
        (m.completed, m.failed, m.faults)
    };
    assert_eq!(run(), run());
}

/// Wide fork/join: `src` fans out to `width` parallel branches whose
/// outputs join into `join` (which also reads a KV probe key), followed
/// by a two-function post-join chain — the shape the DAG suite stresses.
fn wide_join_app(width: usize) -> AppSpec {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "src",
        Program::builder()
            .compute_ms(4)
            .ret(make_map([("v", field(input(), "v"))])),
    ));
    let mut branches = Vec::new();
    for i in 0..width {
        let name = format!("b{i}");
        reg.register(FunctionSpec::new(
            &name,
            Program::builder()
                .compute_ms(4)
                .set(lit(format!("part:{i}")), field(input(), "v"))
                .ret(make_map([(
                    "p",
                    add(mul(field(input(), "v"), lit(10i64)), lit(i as i64)),
                )])),
        ));
        branches.push(Workflow::task(name));
    }
    // The join's input is the Value::List of branch outputs in
    // declaration order; it also reads global state ("probe").
    let mut sum = lit(0i64);
    for i in 0..width {
        sum = add(sum, field(index(input(), lit(i as i64)), "p"));
    }
    reg.register(FunctionSpec::new(
        "join",
        Program::builder()
            .get(lit("probe"), "g")
            .compute_ms(4)
            .ret(make_map([("sum", add(sum, var("g")))])),
    ));
    reg.register(FunctionSpec::new(
        "t0",
        Program::builder()
            .compute_ms(4)
            .ret(make_map([("sum", add(field(input(), "sum"), lit(1i64)))])),
    ));
    reg.register(FunctionSpec::new(
        "t1",
        Program::builder()
            .compute_ms(4)
            .set(lit("final"), field(input(), "sum"))
            .ret(field(input(), "sum")),
    ));
    AppSpec::new(
        "WideJoin",
        "Test",
        reg,
        Workflow::sequence(vec![
            Workflow::task("src"),
            Workflow::parallel(branches),
            Workflow::task("join"),
            Workflow::task("t0"),
            Workflow::task("t1"),
        ]),
    )
}

/// Expected value of the `final` KV key for input `v` and probe `g`:
/// sum of branch products `10v+i`, plus the probe, plus t0's increment.
fn wide_join_expected(width: usize, v: i64, g: i64) -> i64 {
    (0..width as i64).map(|i| 10 * v + i).sum::<i64>() + g + 1
}

#[test]
fn wide_join_commits_branches_in_declaration_order() {
    let width = 6;
    let app = Arc::new(wide_join_app(width));
    let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 1));
    e.prewarm();
    e.rt_mut().kv.set("probe", Value::Int(100));
    e.run_single(Value::map([("v", Value::Int(3))]));
    let m = e.run_closed(0, fresh_input);
    assert_eq!(m.completed, 1);
    let ids: Vec<u32> = [
        "src", "b0", "b1", "b2", "b3", "b4", "b5", "join", "t0", "t1",
    ]
    .iter()
    .map(|n| app.registry.lookup(n).unwrap().0)
    .collect();
    assert_eq!(
        m.records[0].sequence, ids,
        "commit order must be declaration order: src, branches, join, tail"
    );
    assert_eq!(
        e.rt().kv.peek("final"),
        Some(&Value::Int(wide_join_expected(width, 3, 100)))
    );
    for i in 0..width {
        assert_eq!(
            e.rt().kv.peek(&format!("part:{i}")),
            Some(&Value::Int(3)),
            "branch {i}'s disjoint write must land"
        );
    }
}

#[test]
fn wide_join_memo_rows_learned_at_commit_only() {
    let app = Arc::new(wide_join_app(4));
    let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 1));
    e.prewarm();
    e.rt_mut().kv.set("probe", Value::Int(1));
    assert_eq!(e.memos().total_entries(), 0);
    let cold = e.run_single(Value::map([("v", Value::Int(2))]));
    // Every committed function — src, the four branches, the join, and
    // both tail functions — earns exactly one memo row.
    for name in ["src", "b0", "b1", "b2", "b3", "join", "t0", "t1"] {
        let f = app.registry.lookup(name).unwrap().0;
        assert_eq!(e.memos().table(f).len(), 1, "{name} should have a memo row");
    }
    // The warmed identical request overlaps the post-join chain.
    let warm = e.run_single(Value::map([("v", Value::Int(2))]));
    assert!(
        warm < cold,
        "warmed wide-join run {warm} should beat cold run {cold}"
    );
    let m = e.run_closed(0, fresh_input);
    assert_eq!(m.records.last().unwrap().functions_squashed, 0);
}

#[test]
fn stale_probe_invalidates_join_memo_and_cascades() {
    let width = 4;
    let app = Arc::new(wide_join_app(width));
    let mut e = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 1));
    e.prewarm();
    e.rt_mut().kv.set("probe", Value::Int(1));
    // Train: the join's memo row now predicts a sum that embeds probe=1.
    for _ in 0..3 {
        e.run_single(Value::map([("v", Value::Int(5))]));
    }
    let trained = e.run_closed(0, fresh_input);
    assert_eq!(
        trained.records.last().unwrap().functions_squashed,
        0,
        "training runs must be squash-free"
    );
    assert_eq!(trained.squashed_core_time, SimDuration::ZERO);

    // Mutate the probe behind the engine's back: the join's memoized
    // output is now stale, so the speculatively launched post-join
    // chain (t0 → t1) runs on a wrong input and must be squashed.
    e.rt_mut().kv.set("probe", Value::Int(41));
    e.run_single(Value::map([("v", Value::Int(5))]));
    let m = e.run_closed(0, fresh_input);
    let last = m.records.last().unwrap();
    assert!(
        last.functions_squashed >= 2,
        "stale join output should cascade through both tail functions, \
         squashed only {}",
        last.functions_squashed
    );
    assert!(
        m.squashed_core_time > SimDuration::ZERO,
        "squash cascade must charge the Table-IV wasted-CPU ledger"
    );
    // Recovery is exact: the re-executed chain saw the fresh probe.
    assert_eq!(
        e.rt().kv.peek("final"),
        Some(&Value::Int(wide_join_expected(width, 5, 41)))
    );
}

#[test]
fn wide_join_final_state_matches_baseline() {
    let app = Arc::new(wide_join_app(5));
    let inputs: Vec<Value> = (0..8).map(|v| Value::map([("v", Value::Int(v))])).collect();

    let mut base = BaselineEngine::new(BaselineCore::new(Arc::clone(&app), 7));
    base.prewarm();
    base.rt_mut().kv.set("probe", Value::Int(9));
    for i in &inputs {
        base.run_single(i.clone());
    }
    let mb = base.run_closed(0, fresh_input);

    let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 7));
    spec.prewarm();
    spec.rt_mut().kv.set("probe", Value::Int(9));
    for i in &inputs {
        spec.run_single(i.clone());
    }
    let ms = spec.run_closed(0, fresh_input);

    assert_eq!(mb.completed, ms.completed);
    let dump = |kv: &specfaas_storage::KvStore| {
        let mut v: Vec<(String, String)> = kv
            .iter()
            .map(|(k, val)| (k.to_string(), format!("{val:?}")))
            .collect();
        v.sort();
        v
    };
    assert_eq!(dump(&base.rt().kv), dump(&spec.rt().kv));
    for (rb, rs) in mb.records.iter().zip(&ms.records) {
        let (mut sb, mut ss) = (rb.sequence.clone(), rs.sequence.clone());
        sb.sort_unstable();
        ss.sort_unstable();
        assert_eq!(sb, ss);
    }
}

/// Pins the promotion rule: one request commits two rows of the same
/// function plus a repeat of the first input. The repeat updates the
/// first row in place, non-empty callee inputs win over empty ones, and
/// rows take their LRU recency from their first commit.
#[test]
fn promotion_coalesces_repeats_in_first_commit_order() {
    let mut cfg = SpecConfig::full();
    cfg.memo_capacity = 2;
    let mut core = SpecCore::new(Arc::new(chain_app(2, 1)), cfg, 1);
    let (f, g) = (FuncId(0), FuncId(1));
    let doc = |k: &str, v: i64| Value::map([(k, Value::Int(v))]);
    let observed = |input: Value, output: Value, calls: Vec<(FuncId, Value)>| Observed {
        func: f,
        input,
        output,
        calls,
    };
    core.promote(vec![
        observed(doc("in", 1), doc("out", 10), vec![]),
        observed(doc("in", 2), doc("out", 20), vec![]),
        observed(doc("in", 1), doc("out", 11), vec![(g, doc("arg", 5))]),
        observed(doc("in", 1), doc("out", 12), vec![]),
    ]);

    let table = core.memos.table(f.0);
    assert_eq!(table.len(), 2);
    let first = table.peek(&doc("in", 1)).expect("repeated row");
    assert_eq!(first.output, doc("out", 12), "latest output wins");
    assert_eq!(
        first.callee_inputs,
        vec![doc("arg", 5)],
        "non-empty callee inputs win over the later empty ones"
    );
    // Every commit counts towards the call structure: one of four
    // invocations called g.
    assert_eq!(core.seqtable.callees_of(f)[0].callee, g);
    assert_eq!(core.seqtable.call_probability(f, 0), 0.25);

    // At capacity the victim is the row committed first, even though its
    // repeat was the request's last commit.
    core.memos
        .table_mut(f.0)
        .insert(doc("in", 3), doc("out", 30), vec![]);
    let table = core.memos.table(f.0);
    assert!(
        table.peek(&doc("in", 1)).is_none(),
        "first-committed row evicted"
    );
    assert!(table.peek(&doc("in", 2)).is_some());
    assert!(table.peek(&doc("in", 3)).is_some());
}
