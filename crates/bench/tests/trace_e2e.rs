//! End-to-end flight-recorder tests (DESIGN.md, "Observability").
//!
//! For one representative application per suite (FaaSChain, TrainTicket,
//! Alibaba) these tests run the speculative engine with the invariant
//! checker armed under a survivable fault plan and assert that
//!
//! * no invariant trips (commit order, leaked slots, core-time
//!   conservation, memo capacity),
//! * the Chrome-trace export parses,
//! * two same-seed runs produce byte-identical traces,
//! * the Chrome-trace export of two fixed runs per engine matches a
//!   pinned digest, and
//! * installing a disabled tracer leaves run metrics bit-identical.

use specfaas_bench::runner::{prepared_baseline, prepared_spec, traced_closed};
use specfaas_core::{SpecConfig, SquashMechanism};
use specfaas_platform::{EngineCore, RunMetrics};
use specfaas_sim::trace::{validate_json, Tracer};
use specfaas_sim::{FaultPlan, RetryPolicy, SimDuration};

const SEED: u64 = 0x7ace;
const TRAIN: u64 = 120;
const REQUESTS: u64 = 80;

fn plan() -> FaultPlan {
    FaultPlan::none()
        .with_container_crash(0.02)
        .with_kv_get(0.01)
        .with_kv_set(0.01)
        .with_hang(0.002)
}

fn policy() -> RetryPolicy {
    RetryPolicy::default()
        .with_max_attempts(8)
        .with_timeout(SimDuration::from_secs(2))
}

/// Runs one traced speculative measurement pass and returns the tracer
/// (with any recorded violations) plus the run metrics.
fn traced_spec_run(bundle: &specfaas_apps::AppBundle) -> (Tracer, RunMetrics) {
    traced_spec_run_with(bundle, SpecConfig::full())
}

/// [`traced_spec_run`] under an explicit speculation config.
fn traced_spec_run_with(
    bundle: &specfaas_apps::AppBundle,
    config: SpecConfig,
) -> (Tracer, RunMetrics) {
    let gen = bundle.make_input.clone();
    traced_closed(
        &mut prepared_spec(bundle, config, SEED, TRAIN),
        plan(),
        policy(),
        REQUESTS,
        move |r| gen(r),
    )
}

/// Runs one traced speculative pass under `ContainerKill` with one warm
/// container per function and node, so each container a squash or a
/// crash discards forces a cold start. (With [`prepared_spec`]'s full
/// pools a container-kill run traces exactly like a process-kill one.)
fn traced_container_kill_run(bundle: &specfaas_apps::AppBundle) -> (Tracer, RunMetrics) {
    let config = SpecConfig {
        squash: SquashMechanism::ContainerKill,
        ..SpecConfig::full()
    };
    let mut engine = prepared_spec(bundle, config, SEED, TRAIN);
    let funcs: Vec<_> = bundle.app.registry.iter().map(|(id, _)| id).collect();
    engine.rt_mut().cluster.prewarm_all(funcs, 1);
    let gen = bundle.make_input.clone();
    traced_closed(&mut engine, plan(), policy(), REQUESTS, move |r| gen(r))
}

fn assert_clean(tracer: &Tracer, label: &str) {
    assert!(
        tracer.violations().is_empty(),
        "{label}: invariant violations: {:#?}",
        tracer.violations()
    );
    assert!(
        !tracer.events().is_empty(),
        "{label}: tracer recorded no events"
    );
    let json = tracer.export_chrome_json();
    validate_json(&json).unwrap_or_else(|e| panic!("{label}: bad trace JSON: {e}"));
}

#[test]
fn invariants_hold_across_all_suites_under_faults() {
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        let label = format!("{}/{}", suite.name, bundle.app.name);
        let (tracer, m) = traced_spec_run(bundle);
        assert_clean(&tracer, &label);
        assert!(m.completed > 0, "{label}: no requests completed");
    }
}

#[test]
fn same_seed_runs_emit_byte_identical_traces() {
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        let label = format!("{}/{}", suite.name, bundle.app.name);
        let (a, _) = traced_spec_run(bundle);
        let (b, _) = traced_spec_run(bundle);
        assert_eq!(a.events(), b.events(), "{label}: event streams diverge");
        assert_eq!(
            a.export_chrome_json(),
            b.export_chrome_json(),
            "{label}: exported JSON diverges"
        );
    }
}

#[test]
fn baseline_engine_passes_invariants_under_faults() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    let gen = bundle.make_input.clone();
    let (tracer, m) = traced_closed(
        &mut prepared_baseline(&bundle, SEED),
        plan(),
        policy(),
        REQUESTS,
        move |r| gen(r),
    );
    assert_clean(&tracer, "Baseline/HotelBooking");
    assert!(m.completed > 0);
}

#[test]
fn disabled_tracer_leaves_metrics_bit_identical() {
    let bundle = specfaas_apps::trainticket::ticket_app();

    let run = |install_disabled: bool| -> RunMetrics {
        let mut spec = prepared_spec(&bundle, SpecConfig::full(), SEED, TRAIN);
        spec.enable_faults(plan(), policy());
        if install_disabled {
            spec.set_tracer(Tracer::disabled());
        }
        let gen = bundle.make_input.clone();
        spec.run_closed(REQUESTS, move |r| gen(r))
    };

    let plain = run(false);
    let traced = run(true);
    assert_eq!(plain.completed, traced.completed);
    assert_eq!(plain.failed, traced.failed);
    assert_eq!(plain.useful_core_time, traced.useful_core_time);
    assert_eq!(plain.squashed_core_time, traced.squashed_core_time);
    assert_eq!(plain.latency.mean_ms(), traced.latency.mean_ms());
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins the exported Chrome trace of HotelBooking and TcktApp on both
/// engines under faults, and of the speculative engine under the lazy
/// and container-kill squash mechanisms (orphan stepping, lazy kills and
/// non-reusable container release have no other byte-level pin). The
/// first four digests were taken before the engines' instrumentation
/// moved behind `Runtime::record`, the rest before the instance
/// lifecycle moved into `platform::exec`; any change to event order,
/// payload or export format moves them.
#[test]
fn chrome_trace_digests_are_pinned() {
    let pinned: [(&str, &str, u64); 8] = [
        ("HotelBooking", "spec", 0x7046_e96a_52af_a5aa),
        ("HotelBooking", "baseline", 0xd51a_73d2_a120_3225),
        ("TcktApp", "spec", 0xacf6_3838_a23f_d8f0),
        ("TcktApp", "baseline", 0x70d8_a4fb_5486_956e),
        ("HotelBooking", "spec-lazy", 0xbbab_e395_9e18_4d3a),
        ("HotelBooking", "spec-container-kill", 0x8b2b_f6a9_8180_a045),
        ("TcktApp", "spec-lazy", 0xe78f_8b74_edea_0620),
        ("TcktApp", "spec-container-kill", 0x2391_ac5f_599b_343b),
    ];
    let mut got = Vec::new();
    for (app, engine, _) in pinned {
        let bundle = match app {
            "HotelBooking" => specfaas_apps::faaschain::hotel_booking(),
            _ => specfaas_apps::trainticket::ticket_app(),
        };
        let gen = bundle.make_input.clone();
        let (tracer, _) = match engine {
            "spec" => traced_spec_run(&bundle),
            "spec-lazy" => traced_spec_run_with(
                &bundle,
                SpecConfig {
                    squash: SquashMechanism::Lazy,
                    ..SpecConfig::full()
                },
            ),
            "spec-container-kill" => traced_container_kill_run(&bundle),
            _ => traced_closed(
                &mut prepared_baseline(&bundle, SEED),
                plan(),
                policy(),
                REQUESTS,
                move |r| gen(r),
            ),
        };
        got.push((app, engine, fnv1a64(tracer.export_chrome_json().as_bytes())));
    }
    assert_eq!(got, pinned, "Chrome trace digests moved");
}
