//! Fault-injection ablation: how the baseline and SpecFaaS engines hold
//! up when containers crash, storage errors transiently, and handlers
//! hang (DESIGN.md, "Failure model").
//!
//! Two sweeps:
//!
//! * **Fault-rate sweep** — identical fault plans against both engines
//!   at increasing per-site probabilities: goodput, failure counts and
//!   mean completed-request response. SpecFaaS additionally reports the
//!   dependent speculative work squashed because a committed-path
//!   execution faulted.
//! * **Retry-budget sweep** — at a fixed fault rate, how the abort rate
//!   falls as the retry budget grows.

use specfaas_bench::report::{f1, pct, Table};
use specfaas_bench::runner::{faulted_closed, prepared_baseline, prepared_spec};
use specfaas_core::SpecConfig;
use specfaas_sim::{FaultPlan, RetryPolicy, SimDuration};

const SEED: u64 = 0xFA17;
const REQUESTS: u64 = 200;

fn plan_at(p: f64) -> FaultPlan {
    FaultPlan::none()
        .with_container_crash(p)
        .with_kv_get(p / 2.0)
        .with_kv_set(p / 2.0)
        .with_hang(p / 10.0)
}

fn policy() -> RetryPolicy {
    RetryPolicy::default()
        .with_max_attempts(5)
        .with_timeout(SimDuration::from_secs(2))
}

fn fault_rate_sweep() {
    println!("== Fault-rate sweep (HotelBooking, retry budget 5) ==\n");
    let bundle = specfaas_apps::faaschain::hotel_booking();
    let mut t = Table::new([
        "Rate",
        "Engine",
        "Done",
        "Failed",
        "Injected",
        "Retried",
        "FaultSquash",
        "MeanResp(ms)",
    ]);
    for p in [0.0f64, 0.005, 0.01, 0.02, 0.05] {
        let gen = bundle.make_input.clone();
        let mb = faulted_closed(
            &mut prepared_baseline(&bundle, SEED),
            plan_at(p),
            policy(),
            REQUESTS,
            move |r| gen(r),
        );
        t.row([
            pct(p),
            "Baseline".to_string(),
            mb.completed.to_string(),
            mb.failed.to_string(),
            mb.faults.injected.to_string(),
            mb.faults.retried.to_string(),
            "-".to_string(),
            f1(mb.mean_response_ms()),
        ]);

        let gen = bundle.make_input.clone();
        let ms = faulted_closed(
            &mut prepared_spec(&bundle, SpecConfig::full(), SEED, 300),
            plan_at(p),
            policy(),
            REQUESTS,
            move |r| gen(r),
        );
        t.row([
            pct(p),
            "SpecFaaS".to_string(),
            ms.completed.to_string(),
            ms.failed.to_string(),
            ms.faults.injected.to_string(),
            ms.faults.retried.to_string(),
            ms.faults.squashed_due_to_fault.to_string(),
            f1(ms.mean_response_ms()),
        ]);
    }
    println!("{}", t.render());
    println!("Identical seeds and plans: rerunning this binary reproduces every cell.\n");
}

fn retry_budget_sweep() {
    println!("== Retry-budget sweep (TcktApp, 2% crash / 1% KV fault rate) ==\n");
    let bundle = specfaas_apps::trainticket::ticket_app();
    let mut t = Table::new(["MaxAttempts", "Done", "Failed", "Retried", "Aborted%"]);
    for attempts in [1u32, 2, 3, 5, 8] {
        let gen = bundle.make_input.clone();
        let m = faulted_closed(
            &mut prepared_spec(&bundle, SpecConfig::full(), SEED, 300),
            plan_at(0.02),
            RetryPolicy::default()
                .with_max_attempts(attempts)
                .with_timeout(SimDuration::from_secs(2)),
            REQUESTS,
            move |r| gen(r),
        );
        let total = (m.completed + m.failed).max(1);
        t.row([
            attempts.to_string(),
            m.completed.to_string(),
            m.failed.to_string(),
            m.faults.retried.to_string(),
            pct(m.failed as f64 / total as f64),
        ]);
    }
    println!("{}", t.render());
    println!("A budget of 1 means no retries: every injected fault aborts its request.\n");
}

fn main() {
    fault_rate_sweep();
    retry_budget_sweep();
}
