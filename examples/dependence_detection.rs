//! Demonstrates the Data Buffer's dependence machinery directly: an
//! application where a producer function writes a record that a
//! downstream consumer reads. Under speculation the consumer launches
//! early, reads stale state, and is squashed and re-executed when the
//! producer's buffered write surfaces the out-of-order RAW dependence —
//! after enough squashes, the stall list converts squashes into stalls.
//!
//! ```text
//! cargo run --release --example dependence_detection
//! ```

use std::sync::Arc;

use specfaas::prelude::*;

fn main() {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "Reserve",
        Program::builder()
            .compute_ms(8)
            .get(lit("inventory"), "left")
            .set(lit("inventory"), sub(var("left"), lit(1i64)))
            .set(lit("reservation"), field(input(), "order"))
            .ret(make_map([("order", field(input(), "order"))])),
    ));
    reg.register(FunctionSpec::new(
        "Invoice",
        Program::builder()
            // Reads the record the predecessor writes: a cross-function
            // RAW dependence through global storage.
            .get(lit("reservation"), "resv")
            .compute_ms(5)
            .ret(make_map([("invoiced", var("resv"))])),
    ));
    let app = Arc::new(AppSpec::new(
        "Inventory",
        "Demo",
        reg,
        Workflow::sequence(vec![Workflow::task("Reserve"), Workflow::task("Invoice")]),
    ));

    let mut cfg = SpecConfig::full();
    cfg.stall_after_squashes = 2;
    let mut spec = SpecEngine::new(SpecCore::new(Arc::clone(&app), cfg, 11));
    spec.prewarm();
    spec.rt_mut().kv.set("inventory", Value::Int(100));

    let request = Value::map([("order", Value::Int(9001))]);
    for i in 0..6 {
        let d = spec.run_single(request.clone());
        let m = spec.run_closed(0, |_| Value::Null);
        let last = m.records.last();
        println!(
            "run {i}: {d}, squashed {} function(s), stalls so far {}",
            last.map(|r| r.functions_squashed).unwrap_or(0),
            spec.stall_list().stalls_avoided(),
        );
    }
    println!(
        "\nfinal inventory: {} (100 - 6 reservations, despite speculation)",
        spec.rt().kv.peek("inventory").unwrap()
    );
    assert_eq!(spec.rt().kv.peek("inventory"), Some(&Value::Int(94)));
    assert!(
        spec.stall_list().stalls_avoided() > 0,
        "stall list should have engaged"
    );
    println!("stall list engaged: squashes converted into stalls.");
}
