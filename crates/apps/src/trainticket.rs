//! TrainTicket: five implicit-workflow applications shaped after the
//! serverless TrainTicket port (paper §VII, Table II).
//!
//! Each application is a multi-tier call tree (§II-C): a root function
//! calls service functions as subroutines, which may call further leaf
//! services — up to DAG depth 3, averaging ~11 functions per app and
//! ~4.8 callees per calling function (Table I). Several functions
//! communicate through global storage (seat inventory, order records),
//! exercising the Data Buffer, and many leaves are pure (§VIII-B reports
//! >57.6 % pure invocations for this suite).

use specfaas_storage::Value;
use specfaas_workflow::expr::*;
use specfaas_workflow::{Annotations, AppSpec, FunctionRegistry, FunctionSpec, Program, Workflow};

use crate::datasets::TicketDataset;
use crate::suite::AppBundle;

/// All five TrainTicket applications.
pub fn apps() -> Vec<AppBundle> {
    vec![
        ticket_app(),
        trip_info_app(),
        query_travel(),
        get_left_tickets(),
        cancel_app(),
    ]
}

fn dataset_bundle(app: AppSpec) -> AppBundle {
    let ds = TicketDataset::standard();
    let seed_ds = ds.clone();
    AppBundle::new(
        app,
        move |rng| ds.draw_request(rng),
        move |kv, rng| {
            seed_ds.seed(kv, rng);
            // Order/user records used by the booking/cancel flows.
            for u in 0..100 {
                kv.set(
                    format!("account:acct:{u}"),
                    Value::map([("active", Value::Bool(true))]),
                );
                kv.set(
                    format!("order:ord:{u}"),
                    Value::map([
                        ("route", Value::str(format!("route:{}", u % 20))),
                        ("fare", Value::Int(100)),
                    ]),
                );
            }
        },
    )
}

/// Pure leaf: compute-only transformation of its input.
fn pure_leaf(name: &str, ms: u64) -> FunctionSpec {
    FunctionSpec::with_annotations(
        name,
        Program::builder()
            .compute_jitter_ms(ms, 0.1)
            .ret(make_map([("r", hash_of(input()))])),
        Annotations::pure_function(),
    )
}

/// Leaf that reads one storage record derived from an input field.
fn reader_leaf(name: &str, ms: u64, prefix: &str, field_name: &str) -> FunctionSpec {
    FunctionSpec::new(
        name,
        Program::builder()
            .compute_jitter_ms(ms, 0.1)
            .get(concat([lit(prefix), field(input(), field_name)]), "rec")
            .ret(make_map([("rec", var("rec"))])),
    )
}

/// TcktApp — book a ticket: verify account, query seats & price
/// (each via sub-services), reserve (writes inventory), record order.
/// 11 functions, depth 3.
pub fn ticket_app() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(reader_leaf("verifyAccount", 4, "account:acct:", "acctKey"));
    reg.register(reader_leaf("seatService", 5, "seats:", "route"));
    reg.register(pure_leaf("seatLayout", 4));
    reg.register(FunctionSpec::new(
        "queryTicket",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call(
                "seatService",
                make_map([("route", field(input(), "route"))]),
                "seats",
            )
            .call(
                "seatLayout",
                make_map([("route", field(input(), "route"))]),
                "layout",
            )
            .ret(make_map([
                ("route", field(input(), "route")),
                ("left", field(var("seats"), "rec")),
            ])),
    ));
    reg.register(reader_leaf("priceService", 4, "price:", "route"));
    reg.register(pure_leaf("discountService", 5));
    reg.register(FunctionSpec::new(
        "computePrice",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call(
                "priceService",
                make_map([("route", field(input(), "route"))]),
                "base",
            )
            .call(
                "discountService",
                make_map([("fare", field(input(), "fare"))]),
                "disc",
            )
            .ret(make_map([(
                "total",
                add(field(var("base"), "rec"), field(input(), "fare")),
            )])),
    ));
    reg.register(FunctionSpec::new(
        "reserveSeat",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .get(concat([lit("seats:"), field(input(), "route")]), "left")
            .set(
                concat([lit("seats:"), field(input(), "route")]),
                sub(var("left"), lit(1i64)),
            )
            .ret(make_map([("reserved", lit(true))])),
    ));
    reg.register(FunctionSpec::new(
        "recordOrder",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .set(concat([lit("order:"), hash_of(input())]), input())
            .ret(make_map([("order", hash_of(input()))])),
    ));
    reg.register(FunctionSpec::new(
        "notifyUser",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .http(lit("https://notify/ticket"))
            .ret(make_map([("sent", lit(true))])),
    ));
    reg.register(FunctionSpec::new(
        "bookTicket",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .let_(
                "acct",
                concat([
                    lit("acct:"),
                    modulo(hash_of(field(input(), "route")), lit(100i64)),
                ]),
            )
            .call(
                "verifyAccount",
                make_map([("acctKey", var("acct"))]),
                "acct_ok",
            )
            .call(
                "queryTicket",
                make_map([("route", field(input(), "route"))]),
                "ticket",
            )
            .call(
                "computePrice",
                make_map([
                    ("route", field(input(), "route")),
                    ("fare", field(input(), "fare")),
                ]),
                "price",
            )
            .call(
                "reserveSeat",
                make_map([("route", field(input(), "route"))]),
                "resv",
            )
            .call(
                "recordOrder",
                make_map([
                    ("route", field(input(), "route")),
                    ("total", field(var("price"), "total")),
                ]),
                "order",
            )
            .call("notifyUser", var("order"), "note")
            .ret(make_map([
                ("order", field(var("order"), "order")),
                ("total", field(var("price"), "total")),
            ])),
    ));
    dataset_bundle(AppSpec::new(
        "TcktApp",
        "TrainTicket",
        reg,
        Workflow::task("bookTicket"),
    ))
}

/// TripInApp — trip information gather: the root fans out to five
/// services, two of which call their own leaves. 12 functions, depth 3.
pub fn trip_info_app() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(reader_leaf("routeService", 4, "routeinfo:", "route"));
    reg.register(pure_leaf("trainTypeService", 5));
    reg.register(reader_leaf("stationService", 4, "routeinfo:", "route"));
    reg.register(pure_leaf("timetableService", 6));
    reg.register(reader_leaf("seatAvailability", 4, "seats:", "route"));
    reg.register(pure_leaf("weatherService", 5));
    reg.register(pure_leaf("foodMenuService", 4));
    reg.register(FunctionSpec::new(
        "stationDetails",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call("stationService", input(), "st")
            .call("weatherService", input(), "wx")
            .ret(make_map([("st", var("st")), ("wx", var("wx"))])),
    ));
    reg.register(FunctionSpec::new(
        "onboardInfo",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call("foodMenuService", input(), "menu")
            .call("trainTypeService", input(), "tt")
            .ret(make_map([("menu", var("menu")), ("tt", var("tt"))])),
    ));
    reg.register(pure_leaf("rankResults", 7));
    reg.register(FunctionSpec::new(
        "tripInfo",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call(
                "routeService",
                make_map([("route", field(input(), "route"))]),
                "route",
            )
            .call(
                "timetableService",
                make_map([("route", field(input(), "route"))]),
                "times",
            )
            .call(
                "seatAvailability",
                make_map([("route", field(input(), "route"))]),
                "seats",
            )
            .call(
                "stationDetails",
                make_map([("route", field(input(), "route"))]),
                "stations",
            )
            .call(
                "onboardInfo",
                make_map([("route", field(input(), "route"))]),
                "onboard",
            )
            .call(
                "rankResults",
                make_list([var("route"), var("times"), var("seats")]),
                "ranked",
            )
            .ret(make_map([
                ("ranked", field(var("ranked"), "r")),
                ("seats", field(var("seats"), "rec")),
            ])),
    ));
    dataset_bundle(AppSpec::new(
        "TripInApp",
        "TrainTicket",
        reg,
        Workflow::task("tripInfo"),
    ))
}

/// QueryTrvl — travel-plan query: route candidates, prices, transfers.
/// 11 functions, depth 3.
pub fn query_travel() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(reader_leaf("directRoutes", 5, "routeinfo:", "route"));
    reg.register(pure_leaf("transferRoutes", 7));
    reg.register(pure_leaf("highSpeedFilter", 4));
    reg.register(FunctionSpec::new(
        "routeCandidates",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call("directRoutes", input(), "direct")
            .call("transferRoutes", input(), "transfer")
            .call("highSpeedFilter", input(), "hs")
            .ret(make_map([("direct", var("direct")), ("hs", var("hs"))])),
    ));
    reg.register(reader_leaf("basePrice", 4, "price:", "route"));
    reg.register(pure_leaf("seasonalAdjust", 4));
    reg.register(FunctionSpec::new(
        "priceAll",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call("basePrice", input(), "base")
            .call("seasonalAdjust", input(), "adj")
            .ret(make_map([(
                "price",
                add(field(var("base"), "rec"), field(var("adj"), "r")),
            )])),
    ));
    reg.register(reader_leaf("seatCheck", 4, "seats:", "route"));
    reg.register(pure_leaf("comfortScore", 5));
    reg.register(pure_leaf("sortPlans", 6));
    reg.register(FunctionSpec::new(
        "queryTravel",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call(
                "routeCandidates",
                make_map([("route", field(input(), "route"))]),
                "cands",
            )
            .call(
                "priceAll",
                make_map([
                    ("route", field(input(), "route")),
                    ("date", field(input(), "date")),
                ]),
                "prices",
            )
            .call(
                "seatCheck",
                make_map([("route", field(input(), "route"))]),
                "seats",
            )
            .call("comfortScore", var("cands"), "comfort")
            .call(
                "sortPlans",
                make_list([var("cands"), var("prices")]),
                "sorted",
            )
            .ret(make_map([
                ("plans", field(var("sorted"), "r")),
                ("price", field(var("prices"), "price")),
            ])),
    ));
    dataset_bundle(AppSpec::new(
        "QueryTrvl",
        "TrainTicket",
        reg,
        Workflow::task("queryTravel"),
    ))
}

/// GetLeftApp — remaining-ticket query: inventory reads per segment plus
/// config lookups. 10 functions, depth 3.
pub fn get_left_tickets() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(reader_leaf("segmentInventory", 4, "seats:", "route"));
    reg.register(reader_leaf("routeMeta", 4, "routeinfo:", "route"));
    reg.register(pure_leaf("segmentSplit", 5));
    reg.register(FunctionSpec::new(
        "inventoryScan",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call("segmentSplit", input(), "segs")
            .call("segmentInventory", input(), "inv")
            .call("routeMeta", input(), "meta")
            .ret(make_map([("left", field(var("inv"), "rec"))])),
    ));
    reg.register(pure_leaf("holdEstimator", 5));
    reg.register(pure_leaf("classBreakdown", 4));
    reg.register(FunctionSpec::new(
        "adjustForHolds",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call("holdEstimator", input(), "holds")
            .call("classBreakdown", input(), "classes")
            .ret(make_map([(
                "left",
                sub(
                    field(input(), "left"),
                    modulo(field(var("holds"), "r"), lit(5i64)),
                ),
            )])),
    ));
    reg.register(pure_leaf("formatAnswer", 4));
    reg.register(FunctionSpec::new(
        "cacheAnswer",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .set(
                concat([lit("leftcache:"), field(input(), "route")]),
                field(input(), "left"),
            )
            .ret(input()),
    ));
    reg.register(FunctionSpec::new(
        "getLeftTickets",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call(
                "inventoryScan",
                make_map([("route", field(input(), "route"))]),
                "scan",
            )
            .call(
                "adjustForHolds",
                make_map([
                    ("route", field(input(), "route")),
                    ("left", field(var("scan"), "left")),
                ]),
                "adj",
            )
            .call("formatAnswer", var("adj"), "fmt")
            .call(
                "cacheAnswer",
                make_map([
                    ("route", field(input(), "route")),
                    ("left", field(var("adj"), "left")),
                ]),
                "cached",
            )
            .ret(make_map([("left", field(var("adj"), "left"))])),
    ));
    dataset_bundle(AppSpec::new(
        "GetLeftApp",
        "TrainTicket",
        reg,
        Workflow::task("getLeftTickets"),
    ))
}

/// CancelApp — cancel an order: lookup, refund computation (sub-calls),
/// inventory return (writes), notification. 11 functions, depth 3.
pub fn cancel_app() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "orderLookup",
        Program::builder()
            .compute_jitter_ms(4, 0.1)
            .get(concat([lit("order:"), field(input(), "orderKey")]), "order")
            .ret(make_map([("order", var("order"))])),
    ));
    reg.register(pure_leaf("refundPolicy", 5));
    reg.register(pure_leaf("feeCalculator", 4));
    reg.register(FunctionSpec::new(
        "computeRefund",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call("refundPolicy", input(), "policy")
            .call("feeCalculator", input(), "fee")
            .ret(make_map([(
                "refund",
                sub(
                    field(input(), "fare"),
                    modulo(field(var("fee"), "r"), lit(20i64)),
                ),
            )])),
    ));
    reg.register(FunctionSpec::new(
        "returnSeat",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .get(concat([lit("seats:"), field(input(), "route")]), "left")
            .set(
                concat([lit("seats:"), field(input(), "route")]),
                add(var("left"), lit(1i64)),
            )
            .ret(make_map([("returned", lit(true))])),
    ));
    reg.register(FunctionSpec::new(
        "writeRefund",
        Program::builder()
            .compute_jitter_ms(4, 0.1)
            .set(
                concat([lit("refund:"), field(input(), "orderKey")]),
                field(input(), "refund"),
            )
            .ret(input()),
    ));
    reg.register(pure_leaf("auditEntry", 4));
    reg.register(FunctionSpec::new(
        "paymentGateway",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .http(lit("https://pay/refund"))
            .ret(make_map([("gw", lit("ok"))])),
    ));
    reg.register(FunctionSpec::new(
        "processRefund",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .call("writeRefund", input(), "wr")
            .call("paymentGateway", input(), "gw")
            .call("auditEntry", input(), "audit")
            .ret(make_map([("refunded", lit(true))])),
    ));
    reg.register(FunctionSpec::new(
        "notifyCancel",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .http(lit("https://notify/cancel"))
            .ret(make_map([("sent", lit(true))])),
    ));
    reg.register(FunctionSpec::new(
        "cancelTicket",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .let_(
                "okey",
                concat([
                    lit("ord:"),
                    modulo(hash_of(field(input(), "route")), lit(100i64)),
                ]),
            )
            .call(
                "orderLookup",
                make_map([("orderKey", var("okey"))]),
                "order",
            )
            .call(
                "computeRefund",
                make_map([
                    ("fare", field(input(), "fare")),
                    ("date", field(input(), "date")),
                ]),
                "refund",
            )
            .call(
                "returnSeat",
                make_map([("route", field(input(), "route"))]),
                "seat",
            )
            .call(
                "processRefund",
                make_map([
                    ("orderKey", var("okey")),
                    ("refund", field(var("refund"), "refund")),
                ]),
                "proc",
            )
            .call("notifyCancel", var("proc"), "note")
            .ret(make_map([("refund", field(var("refund"), "refund"))])),
    ));
    dataset_bundle(AppSpec::new(
        "CancelApp",
        "TrainTicket",
        reg,
        Workflow::task("cancelTicket"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_platform::EngineCore;
    use specfaas_sim::SimRng;
    use specfaas_workflow::analysis::RegistryProfile;

    #[test]
    fn suite_shape_matches_table1() {
        let apps = apps();
        assert_eq!(apps.len(), 5);
        let fns: usize = apps.iter().map(|a| a.app.registry.len()).sum();
        let avg = fns as f64 / 5.0;
        assert!(
            (10.0..=13.0).contains(&avg),
            "avg functions {avg}, paper reports 11.2"
        );
        for a in &apps {
            assert!(a.app.is_implicit(), "{} must be implicit", a.name());
        }
    }

    #[test]
    fn many_functions_are_pure() {
        // §VIII-B: >57.6% of TrainTicket invocations hit pure functions;
        // statically a large share of our functions are pure too.
        let apps = apps();
        let mut pure = 0usize;
        let mut total = 0usize;
        for a in &apps {
            let p = RegistryProfile::of(&a.app.registry);
            pure += (p.pure_fraction * p.functions as f64).round() as usize;
            total += p.functions;
        }
        let frac = pure as f64 / total as f64;
        assert!(frac > 0.3, "pure fraction {frac}");
    }

    #[test]
    fn apps_run_on_baseline_with_calls() {
        use specfaas_platform::{BaselineCore, BaselineEngine};
        for bundle in apps() {
            let mut e = BaselineEngine::new(BaselineCore::new(bundle.app.clone(), 11));
            e.prewarm();
            let mut rng = SimRng::seed(2);
            (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
            let input = (bundle.make_input)(&mut rng);
            let d = e.run_single(input);
            assert!(
                d.as_millis() > 20,
                "{} too fast for a multi-tier app: {d}",
                bundle.name()
            );
        }
    }

    #[test]
    fn apps_speed_up_under_specfaas_after_training() {
        use specfaas_core::{SpecConfig, SpecCore, SpecEngine};
        use specfaas_platform::{BaselineCore, BaselineEngine};
        let bundle = trip_info_app();
        let mut rng = SimRng::seed(3);

        let mut base = BaselineEngine::new(BaselineCore::new(bundle.app.clone(), 5));
        base.prewarm();
        (bundle.seed)(&mut base.rt_mut().kv, &mut rng);
        let fixed_input = Value::map([
            ("route", Value::str("route:0")),
            ("date", Value::Int(1)),
            ("fare", Value::Int(45)),
        ]);
        let bd = base.run_single(fixed_input.clone());

        let mut spec = SpecEngine::new(SpecCore::new(bundle.app.clone(), SpecConfig::full(), 5));
        spec.prewarm();
        let mut rng2 = SimRng::seed(3);
        (bundle.seed)(&mut spec.rt_mut().kv, &mut rng2);
        for _ in 0..3 {
            spec.run_single(fixed_input.clone());
        }
        let sd = spec.run_single(fixed_input);
        assert!(
            bd / sd > 1.5,
            "implicit app should overlap callees: {bd} vs {sd}"
        );
    }

    #[test]
    fn seat_inventory_round_trip() {
        use specfaas_platform::{BaselineCore, BaselineEngine};
        let bundle = ticket_app();
        let mut e = BaselineEngine::new(BaselineCore::new(bundle.app.clone(), 13));
        e.prewarm();
        let mut rng = SimRng::seed(4);
        (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
        let before = e.rt().kv.peek("seats:route:0").unwrap().as_int().unwrap();
        e.run_single(Value::map([
            ("route", Value::str("route:0")),
            ("date", Value::Int(1)),
            ("fare", Value::Int(45)),
        ]));
        let after = e.rt().kv.peek("seats:route:0").unwrap().as_int().unwrap();
        assert_eq!(after, before - 1, "reserveSeat must decrement inventory");
    }
}
