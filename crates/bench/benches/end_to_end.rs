//! End-to-end engine benchmarks: simulated single-invocation latency of
//! the baseline vs SpecFaaS (the microscopic version of Fig. 11), and
//! simulator throughput on a full application.
//!
//! Uses the crate's own wall-clock harness (`specfaas_bench::microbench`)
//! because the offline build environment cannot fetch `criterion`.

use std::sync::Arc;

use specfaas_bench::microbench::bench;
use specfaas_core::{SpecConfig, SpecCore, SpecEngine};
use specfaas_platform::{BaselineCore, BaselineEngine};
use specfaas_sim::SimRng;

fn bench_single_invocation() {
    let bundle = specfaas_apps::faaschain::banking();

    {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::clone(&bundle.app), 1));
        e.prewarm();
        let mut rng = SimRng::seed(1);
        (bundle.seed)(&mut e.kv, &mut rng);
        let input = (bundle.make_input)(&mut rng);
        bench("single_invocation/baseline", 200, &mut || {
            e.run_single(input.clone());
        });
    }

    {
        let mut e = SpecEngine::new(SpecCore::new(
            Arc::clone(&bundle.app),
            SpecConfig::full(),
            1,
        ));
        e.prewarm();
        let mut rng = SimRng::seed(1);
        (bundle.seed)(&mut e.kv, &mut rng);
        let input = (bundle.make_input)(&mut rng);
        for _ in 0..5 {
            e.run_single(input.clone());
        }
        bench("single_invocation/specfaas_trained", 200, &mut || {
            e.run_single(input.clone());
        });
    }
}

fn bench_closed_loop_throughput() {
    let bundle = specfaas_apps::trainticket::ticket_app();
    bench("simulation/100_requests_specfaas", 5, &mut || {
        let mut e = SpecEngine::new(SpecCore::new(
            Arc::clone(&bundle.app),
            SpecConfig::full(),
            2,
        ));
        e.prewarm();
        let mut rng = SimRng::seed(2);
        (bundle.seed)(&mut e.kv, &mut rng);
        let gen = bundle.make_input.clone();
        let m = e.run_closed(100, move |r| gen(r));
        assert_eq!(m.completed, 100);
    });
}

fn main() {
    bench_single_invocation();
    bench_closed_loop_throughput();
}
