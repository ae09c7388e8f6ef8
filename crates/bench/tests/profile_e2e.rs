//! End-to-end tests for the metrics registry and trace analytics
//! (DESIGN.md, "Observability").
//!
//! For one representative application per suite these tests assert that
//!
//! * arming the metrics registry leaves `RunMetrics` bit-identical for
//!   both engines (sampling never touches the RNG or the event queue),
//! * two same-seed runs produce byte-identical Prometheus and CSV
//!   exports,
//! * the Prometheus exposition for a fixed app and seed matches a
//!   checked-in golden file per engine (re-bless with `BLESS_GOLDEN=1`),
//! * every registry counter and every event-mirroring `RunMetrics`
//!   counter equals the count of its trace event,
//! * squash attribution recovered from the trace reconciles exactly
//!   with the engine's squashed-CPU ledger (Table IV), and
//! * per-request critical-path phase buckets sum exactly to the
//!   end-to-end latency.

use std::collections::BTreeMap;

use specfaas_bench::analysis::{analyze, check_paths_exact};
use specfaas_bench::runner::{instrumented_closed, prepared_baseline, prepared_spec};
use specfaas_core::SpecConfig;
use specfaas_platform::RunMetrics;
use specfaas_sim::timeseries::MetricsRegistry;
use specfaas_sim::trace::{TraceEvent, TraceEventKind, Tracer};
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

/// One instrumented measurement pass. `engine` is `"spec"` or
/// `"baseline"`; `record` arms the registry (a disabled registry is
/// installed otherwise, which must be a no-op).
fn instrumented_run(
    bundle: &specfaas_apps::AppBundle,
    engine: &str,
    record: bool,
) -> (Tracer, MetricsRegistry, RunMetrics) {
    let registry = if record {
        MetricsRegistry::recording()
    } else {
        MetricsRegistry::disabled()
    };
    let gen = bundle.make_input.clone();
    match engine {
        "spec" => instrumented_closed(
            &mut prepared_spec(bundle, SpecConfig::full(), SEED, TRAIN),
            plan(),
            policy(),
            registry,
            REQUESTS,
            move |r| gen(r),
        ),
        "baseline" => instrumented_closed(
            &mut prepared_baseline(bundle, SEED),
            plan(),
            policy(),
            registry,
            REQUESTS,
            move |r| gen(r),
        ),
        other => panic!("unknown engine {other}"),
    }
}

fn assert_metrics_eq(a: &RunMetrics, b: &RunMetrics, label: &str) {
    assert_eq!(a.completed, b.completed, "{label}: completed diverged");
    assert_eq!(a.failed, b.failed, "{label}: failed diverged");
    assert_eq!(
        a.useful_core_time, b.useful_core_time,
        "{label}: useful core-time diverged"
    );
    assert_eq!(
        a.squashed_core_time, b.squashed_core_time,
        "{label}: squashed core-time diverged"
    );
    assert_eq!(
        a.mean_response_ms(),
        b.mean_response_ms(),
        "{label}: latency diverged"
    );
    assert_eq!(
        a.p99_response_ms(),
        b.p99_response_ms(),
        "{label}: streaming p99 diverged"
    );
}

#[test]
fn registry_is_invisible_to_run_metrics_on_both_engines() {
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        for engine in ["spec", "baseline"] {
            let label = format!("{}/{}/{engine}", suite.name, bundle.app.name);
            let (_, _, plain) = instrumented_run(bundle, engine, false);
            let (_, registry, recorded) = instrumented_run(bundle, engine, true);
            assert!(registry.enabled(), "{label}: registry not armed");
            assert_metrics_eq(&plain, &recorded, &label);
        }
    }
}

#[test]
fn same_seed_runs_emit_byte_identical_exports() {
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        let label = format!("{}/{}", suite.name, bundle.app.name);
        let (_, ra, _) = instrumented_run(bundle, "spec", true);
        let (_, rb, _) = instrumented_run(bundle, "spec", true);
        assert_eq!(
            ra.export_prometheus(),
            rb.export_prometheus(),
            "{label}: Prometheus exposition diverges"
        );
        assert_eq!(
            ra.export_csv(),
            rb.export_csv(),
            "{label}: CSV time series diverges"
        );
    }
}

#[test]
fn prometheus_exposition_matches_golden_file() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    for (engine, path) in [
        (
            "spec",
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/hotel_booking_spec.prom"
            ),
        ),
        (
            "baseline",
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/hotel_booking_baseline.prom"
            ),
        ),
    ] {
        let (_, registry, _) = instrumented_run(&bundle, engine, true);
        let got = registry.export_prometheus();
        if std::env::var_os("BLESS_GOLDEN").is_some() {
            std::fs::write(path, &got).expect("failed to bless golden file");
            continue;
        }
        let want = std::fs::read_to_string(path)
            .expect("golden file missing; run with BLESS_GOLDEN=1 to create it");
        assert_eq!(
            got, want,
            "{engine}: Prometheus exposition drifted from the golden file; \
             re-bless with BLESS_GOLDEN=1 if the change is intentional"
        );
    }
}

#[test]
fn squash_attribution_reconciles_with_engine_ledger() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    for engine in ["spec", "baseline"] {
        let (tracer, _, m) = instrumented_run(&bundle, engine, true);
        assert!(tracer.violations().is_empty(), "{engine}: violations");
        let a = analyze(tracer.events());
        assert_eq!(
            a.squash.total, m.squashed_core_time,
            "{engine}: attributed squash total != Table-IV ledger"
        );
        let by_site: SimDuration = a.squash.by_site.iter().map(|(_, amt, _)| *amt).sum();
        assert_eq!(
            by_site, a.squash.total,
            "{engine}: per-site attribution does not sum to the total"
        );
    }
}

#[test]
fn critical_path_phases_sum_to_latency() {
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        for engine in ["spec", "baseline"] {
            let label = format!("{}/{}/{engine}", suite.name, bundle.app.name);
            let (tracer, _, m) = instrumented_run(bundle, engine, true);
            let a = analyze(tracer.events());
            assert!(
                !a.requests.is_empty(),
                "{label}: no request paths recovered"
            );
            assert_eq!(
                a.requests.len() as u64,
                m.completed + m.failed,
                "{label}: path count != terminal requests"
            );
            let broken = check_paths_exact(&a);
            assert!(
                broken.is_empty(),
                "{label}: phase buckets do not sum to latency for {broken:?}"
            );
        }
    }
}

/// The registry's `*_total` counters as `series -> value`, read from the
/// Prometheus exposition. The KV operation counters are left out: KV
/// operations emit no trace event.
fn registry_counters(registry: &MetricsRegistry) -> BTreeMap<String, u64> {
    registry
        .export_prometheus()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            let name = series.split('{').next().unwrap_or(series);
            name.ends_with("_total") && !name.starts_with("specfaas_kv_")
        })
        .map(|(series, v)| (series.to_string(), v.parse().expect("counter value")))
        .collect()
}

/// The counters a trace implies, keyed like [`registry_counters`].
fn counters_from_events(events: &[TraceEvent]) -> BTreeMap<String, u64> {
    let mut want: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        let (series, by) = match &ev.kind {
            TraceEventKind::RequestArrival { .. } => {
                ("specfaas_requests_submitted_total".to_string(), 1)
            }
            TraceEventKind::SlotLaunch { .. } => {
                ("specfaas_functions_started_total".to_string(), 1)
            }
            TraceEventKind::ContainerAcquire { cold: true, .. } => {
                ("specfaas_cold_starts_total".to_string(), 1)
            }
            TraceEventKind::ContainerAcquire { cold: false, .. } => {
                ("specfaas_warm_starts_total".to_string(), 1)
            }
            TraceEventKind::MemoHit { .. } => ("specfaas_memo_hits_total".to_string(), 1),
            TraceEventKind::BranchPredict { .. } => {
                ("specfaas_branch_predictions_total".to_string(), 1)
            }
            TraceEventKind::Squash { cause, .. } => (
                format!("specfaas_squashes_total{{cause=\"{}\"}}", cause.name()),
                1,
            ),
            TraceEventKind::SquashCharge { amount, .. } => (
                "specfaas_squashed_core_us_total".to_string(),
                amount.as_micros(),
            ),
            TraceEventKind::FaultInjected { site, .. } => (
                format!("specfaas_faults_injected_total{{site=\"{site}\"}}"),
                1,
            ),
            TraceEventKind::Commit { .. } => ("specfaas_commits_total".to_string(), 1),
            TraceEventKind::Terminal {
                completed: true, ..
            } => ("specfaas_requests_completed_total".to_string(), 1),
            TraceEventKind::Terminal {
                completed: false, ..
            } => ("specfaas_requests_failed_total".to_string(), 1),
            TraceEventKind::Span { .. }
            | TraceEventKind::BranchResolve { .. }
            | TraceEventKind::Replay { .. }
            | TraceEventKind::RetryBackoff { .. } => continue,
        };
        *want.entry(series).or_insert(0) += by;
    }
    want
}

fn count(events: &[TraceEvent], pred: impl Fn(&TraceEventKind) -> bool) -> u64 {
    events.iter().filter(|e| pred(&e.kind)).count() as u64
}

fn faults_at(events: &[TraceEvent], sites: &[&str]) -> u64 {
    count(
        events,
        |k| matches!(k, TraceEventKind::FaultInjected { site, .. } if sites.contains(site)),
    )
}

#[test]
fn counters_match_trace_events_on_both_engines() {
    // The shared plan, and the same plan with speculative slot drops
    // (whose relaunch emits `RetryBackoff` without counting a retry).
    let mut spec_slot_drops = 0;
    for plan in [plan(), plan().with_slot_drop(0.02)] {
        for suite in specfaas_apps::all_suites() {
            let bundle = &suite.apps[0];
            for engine in ["spec", "baseline"] {
                let label = format!("{}/{}/{engine}", suite.name, bundle.app.name);
                let gen = bundle.make_input.clone();
                let registry = MetricsRegistry::recording();
                let (tracer, registry, m) = match engine {
                    "spec" => instrumented_closed(
                        &mut prepared_spec(bundle, SpecConfig::full(), SEED, TRAIN),
                        plan.clone(),
                        policy(),
                        registry,
                        REQUESTS,
                        move |r| gen(r),
                    ),
                    _ => instrumented_closed(
                        &mut prepared_baseline(bundle, SEED),
                        plan.clone(),
                        policy(),
                        registry,
                        REQUESTS,
                        move |r| gen(r),
                    ),
                };
                let ev = tracer.events();
                assert_eq!(
                    registry_counters(&registry),
                    counters_from_events(ev),
                    "{label}: registry counters disagree with the trace"
                );

                let arrivals = count(ev, |k| matches!(k, TraceEventKind::RequestArrival { .. }));
                let launches = count(ev, |k| matches!(k, TraceEventKind::SlotLaunch { .. }));
                let backoffs = count(ev, |k| matches!(k, TraceEventKind::RetryBackoff { .. }));
                let f = &m.faults;
                assert_eq!(m.submitted, arrivals, "{label}: submitted");
                assert_eq!(m.functions_started, launches, "{label}: functions_started");
                assert_eq!(
                    f.crashes,
                    faults_at(ev, &["container_crash"]),
                    "{label}: crashes"
                );
                assert_eq!(f.hangs, faults_at(ev, &["hang"]), "{label}: hangs");
                assert_eq!(
                    f.kv_errors,
                    faults_at(ev, &["kv_get", "kv_set"]),
                    "{label}: kv"
                );
                assert_eq!(
                    f.slot_drops,
                    faults_at(ev, &["slot_drop"]),
                    "{label}: drops"
                );
                assert_eq!(f.timeouts, faults_at(ev, &["timeout"]), "{label}: timeouts");
                let injected = count(
                    ev,
                    |k| matches!(k, TraceEventKind::FaultInjected { site, .. } if *site != "timeout"),
                );
                assert_eq!(f.injected, injected, "{label}: injected");
                assert!(f.injected > 0, "{label}: no fault injected");
                assert_eq!(
                    f.retried + f.slot_drops,
                    backoffs,
                    "{label}: retried + slot drops != RetryBackoff events"
                );
                if engine == "baseline" {
                    assert_eq!(f.slot_drops, 0, "{label}: the baseline never drops slots");
                } else {
                    spec_slot_drops += f.slot_drops;
                }
            }
        }
    }
    assert!(spec_slot_drops > 0, "no speculative slot was dropped");
}
