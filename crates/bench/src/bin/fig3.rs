//! Fig. 3 — average per-function response-time breakdown under
//! cold-start conditions, per suite.
//!
//! One cold request per application (no pre-warming); each function
//! invocation's time is attributed to Container Creation, Runtime Setup,
//! Platform Overhead, Transfer Function Overhead and Function Execution.
//! The last column checks Observation 1 on a separate warmed-up run:
//! function execution as a share of warm per-function response.
//!
//! `--jobs N` runs the per-app cold/warm measurements on N worker
//! threads; output is byte-identical to serial.

use specfaas_apps::all_suites;
use specfaas_bench::executor::{self, ExperimentCell};
use specfaas_bench::report::{f1, pct, Table};
use specfaas_platform::{BaselineCore, BaselineEngine, Breakdown, EngineCore};
use specfaas_sim::SimRng;

/// Per-app cell: (cold breakdowns, warm breakdowns of the last request).
fn measure_app(bundle: &specfaas_apps::AppBundle) -> (Vec<Breakdown>, Vec<Breakdown>) {
    // Cold: fresh engine, first request pays full cold start.
    let mut e = BaselineEngine::new(BaselineCore::new(bundle.app.clone(), 2));
    let mut rng = SimRng::seed(11);
    (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
    let gen = bundle.make_input.clone();
    let m = e.run_closed(1, move |r| gen(r));
    let cold = m.breakdowns.clone();

    // Warm: pre-warmed engine, measure the third request.
    let mut e = BaselineEngine::new(BaselineCore::new(bundle.app.clone(), 2));
    e.prewarm();
    let mut rng = SimRng::seed(12);
    (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
    let gen = bundle.make_input.clone();
    let m = e.run_closed(3, move |r| gen(r));
    // Keep only the last request's function breakdowns.
    let last = m.records.last().expect("completed").functions_run as usize;
    let warm = m.breakdowns[m.breakdowns.len() - last..].to_vec();
    (cold, warm)
}

fn main() {
    let jobs = executor::jobs_from_args();
    println!("== Fig. 3: cold-start response-time breakdown (per function, ms) ==\n");
    let suites = all_suites();

    let mut cells: Vec<ExperimentCell<(Vec<Breakdown>, Vec<Breakdown>)>> = Vec::new();
    for suite in &suites {
        for bundle in &suite.apps {
            cells.push(ExperimentCell::new(
                format!("fig3/{}/{}", suite.name, bundle.name()),
                move || measure_app(bundle),
            ));
        }
    }
    let results = executor::run_cells(jobs, cells);

    let mut t = Table::new([
        "Suite",
        "ContainerCreation",
        "RuntimeSetup",
        "Platform",
        "Transfer",
        "Execution",
        "Exec% (warm)",
    ]);
    let mut it = results.into_iter();
    for suite in &suites {
        let mut cold = Vec::new();
        let mut warm = Vec::new();
        for _ in &suite.apps {
            let (c, w) = it.next().expect("one result per cell");
            cold.extend_from_slice(&c);
            warm.extend_from_slice(&w);
        }
        let c = Breakdown::mean_of(&cold);
        let w = Breakdown::mean_of(&warm);
        t.row([
            suite.name.to_string(),
            f1(c.container_creation.as_millis_f64()),
            f1(c.runtime_setup.as_millis_f64()),
            f1(c.platform.as_millis_f64()),
            f1(c.transfer.as_millis_f64()),
            f1(c.execution.as_millis_f64()),
            pct(w.execution_fraction()),
        ]);
    }
    println!("{}", t.render());
    println!("Paper reference: container creation ~1500 ms dominates cold start;");
    println!("warm function execution is only 33-42% of per-function response");
    println!("(Obs. 1). Note: for implicit workflows the RPC hop between caller");
    println!("and callee is charged to the caller's execution (the caller blocks),");
    println!("so the Transfer column applies to explicit workflows.");
}
