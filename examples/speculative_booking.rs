//! A realistic booking workload under load: the FlightBooking app from
//! the FaaSChain suite driven by a Poisson arrival process, comparing
//! baseline and SpecFaaS latency distributions.
//!
//! ```text
//! cargo run --release --example speculative_booking
//! ```

use std::sync::Arc;

use specfaas::prelude::*;
use specfaas_apps::faaschain;
use specfaas_sim::SimDuration;

fn main() {
    let bundle = faaschain::flight_booking();
    println!(
        "application: {} ({} functions, {} branches)",
        bundle.name(),
        bundle.app.registry.len(),
        bundle.app.workflow.branch_count()
    );

    let duration = SimDuration::from_secs(4);
    let warmup = SimDuration::from_millis(400);

    // Baseline under a 100-requests/second Poisson load.
    let mut base = BaselineEngine::new(BaselineCore::new(Arc::clone(&bundle.app), 7));
    base.prewarm();
    let mut rng = SimRng::seed(7);
    (bundle.seed)(&mut base.rt_mut().kv, &mut rng);
    let gen = bundle.make_input.clone();
    let mb = base.run_open(100.0, duration, warmup, move |r| gen(r));

    // SpecFaaS, trained on 300 prior invocations, same load.
    let mut spec = SpecEngine::new(SpecCore::new(
        Arc::clone(&bundle.app),
        SpecConfig::full(),
        7,
    ));
    spec.prewarm();
    let mut rng = SimRng::seed(7);
    (bundle.seed)(&mut spec.rt_mut().kv, &mut rng);
    let gen = bundle.make_input.clone();
    spec.run_closed(300, move |r| gen(r));
    let gen = bundle.make_input.clone();
    let ms = spec.run_open(100.0, duration, warmup, move |r| gen(r));

    println!("\n                 baseline    SpecFaaS");
    println!(
        "mean response:   {:>7.1}ms  {:>7.1}ms",
        mb.mean_response_ms(),
        ms.mean_response_ms()
    );
    println!(
        "P50 response:    {:>7.1}ms  {:>7.1}ms",
        mb.p50_response_ms(),
        ms.p50_response_ms()
    );
    println!(
        "P99 response:    {:>7.1}ms  {:>7.1}ms",
        mb.p99_response_ms(),
        ms.p99_response_ms()
    );
    println!("requests served: {:>9}  {:>9}", mb.completed, ms.completed);
    println!("\nspeculation statistics:");
    println!(
        "  branch predictor hit rate: {:.1}%",
        ms.branch_hits.rate() * 100.0
    );
    println!(
        "  memoization hit rate:      {:.1}%",
        ms.memo_hits.rate() * 100.0
    );
    println!("  functions squashed:        {}", ms.functions_squashed);
    println!(
        "  speedup (mean):            {:.2}x",
        mb.mean_response_ms() / ms.mean_response_ms()
    );
}
