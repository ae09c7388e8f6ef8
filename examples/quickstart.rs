//! Quickstart: build a small serverless application, run it on the
//! conventional (OpenWhisk-style) baseline and on SpecFaaS, and compare
//! end-to-end response times.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use specfaas::prelude::*;

fn main() {
    // 1. Define an application: three functions composed in sequence
    //    behind an authentication branch (OpenWhisk-Composer style).
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "Auth",
        Program::builder()
            .compute_ms(5)
            .ret(make_map([("ok", field(input(), "valid"))])),
    ));
    reg.register(FunctionSpec::new(
        "Work",
        Program::builder()
            .compute_ms(9)
            .get(lit("config"), "cfg")
            .ret(make_map([("result", add(field(input(), "x"), var("cfg")))])),
    ));
    reg.register(FunctionSpec::new(
        "Store",
        Program::builder()
            .compute_ms(6)
            .set(lit("last_result"), field(input(), "result"))
            .ret(make_map([("stored", lit(true))])),
    ));
    reg.register(FunctionSpec::new(
        "Reject",
        Program::builder().compute_ms(2).ret(lit("denied")),
    ));
    let workflow = Workflow::when_field(
        "Auth",
        "ok",
        Workflow::sequence(vec![Workflow::task("Work"), Workflow::task("Store")]),
        Some(Workflow::task("Reject")),
    );
    let app = Arc::new(AppSpec::new("Quickstart", "Demo", reg, workflow));

    let request = Value::map([("valid", Value::Bool(true)), ("x", Value::Int(40))]);

    // 2. Conventional execution: each function waits for its
    //    predecessor, paying platform + conductor overheads in between.
    let mut baseline = BaselineEngine::new(BaselineCore::new(Arc::clone(&app), 42));
    baseline.prewarm();
    baseline.rt_mut().kv.set("config", Value::Int(2));
    let base_time = baseline.run_single(request.clone());
    println!("baseline response:  {base_time}");
    assert_eq!(baseline.rt().kv.peek("last_result"), Some(&Value::Int(42)));

    // 3. SpecFaaS: the same requests with speculative execution. The
    //    first request trains the branch predictor and memoization
    //    tables; later identical requests overlap all three functions.
    let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), SpecConfig::full(), 42));
    spec.prewarm();
    spec.rt_mut().kv.set("config", Value::Int(2));
    spec.run_single(request.clone()); // training invocation
    let spec_time = spec.run_single(request);
    println!("SpecFaaS response:  {spec_time}");
    assert_eq!(spec.rt().kv.peek("last_result"), Some(&Value::Int(42)));

    println!(
        "speedup:            {:.2}x",
        base_time.as_millis_f64() / spec_time.as_millis_f64()
    );
    println!(
        "branch predictor hit rate: {:.0}%",
        spec.predictor().hit_rate().rate() * 100.0
    );
}
