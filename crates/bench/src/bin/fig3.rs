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

/// Per-app cell: the Fig. 3 breakdown total of the cold request and of
/// the warm third request, each with the function invocations in it.
fn measure_app(bundle: &specfaas_apps::AppBundle) -> [(Breakdown, u64); 2] {
    // Cold: fresh engine, first request pays full cold start.
    let mut e = BaselineEngine::new(BaselineCore::new(bundle.app.clone(), 2));
    let mut rng = SimRng::seed(11);
    (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
    let gen = bundle.make_input.clone();
    let cold = e.run_closed(1, move |r| gen(r));

    // Warm: pre-warmed engine, two unmeasured requests, then measure the
    // third on its own.
    let mut e = BaselineEngine::new(BaselineCore::new(bundle.app.clone(), 2));
    e.prewarm();
    let mut rng = SimRng::seed(12);
    (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
    let gen = bundle.make_input.clone();
    let mut input = move |r: &mut SimRng| gen(r);
    e.run_closed(2, &mut input);
    let warm = e.run_closed(1, input);
    [cold, warm].map(|m| (m.breakdown_total, m.breakdowns_filed))
}

fn main() {
    let jobs = executor::jobs_from_args();
    println!("== Fig. 3: cold-start response-time breakdown (per function, ms) ==\n");
    let suites = all_suites();

    let mut cells: Vec<ExperimentCell<[(Breakdown, u64); 2]>> = Vec::new();
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
        // Suite means: summed totals over summed invocation counts.
        let mut sums = [(Breakdown::default(), 0); 2];
        for _ in &suite.apps {
            let cell = it.next().expect("one result per cell");
            for (sum, (total, n)) in sums.iter_mut().zip(cell) {
                sum.0.merge(&total);
                sum.1 += n;
            }
        }
        let [c, w] = sums.map(|(total, n)| total.mean_over(n));
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
