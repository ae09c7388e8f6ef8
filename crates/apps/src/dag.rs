//! DAG: three DAG-heavy, data-parallel applications with wide fork/join
//! sections — the workload shapes of SeBS-style serverless benchmarks
//! and the FINRA case study, which the paper's three suites barely touch.
//!
//! * [`word_count`] — MapReduce-style word count: one splitter fans out
//!   to eight mappers that each buffer a large intermediate record, and
//!   a reducer joins all eight outputs (and reads one intermediate back
//!   through the Data Buffer across the join boundary).
//! * [`ml_pipeline`] — ML inference: preprocess → four parallel model
//!   stages → aggregate, then a data-dependent confidence branch.
//! * [`finra_validate`] — FINRA-style trade validation: a portfolio
//!   fetch fans out to six validation rules (each with its own audit
//!   write), a merge joins the verdicts, and a data-dependent branch
//!   settles or rejects the trade — mispredictions squash across the
//!   join boundary.
//!
//! Branch outcomes are data-dependent but biased like the rest of the
//! explicit suite (see [`crate::faaschain::BRANCH_BIAS`]) so the
//! predictor converges yet still mispredicts on real inputs.

use specfaas_storage::Value;
use specfaas_workflow::expr::*;
use specfaas_workflow::{AppSpec, FunctionRegistry, FunctionSpec, Program, Workflow};

use crate::datasets::UserPool;
use crate::faaschain::BRANCH_BIAS;
use crate::suite::AppBundle;

/// Fan-out width of the word-count map stage.
pub const MAP_WIDTH: usize = 8;
/// Number of parallel model stages in the ML pipeline.
pub const MODEL_STAGES: usize = 4;
/// Number of parallel validation rules in the FINRA app.
pub const RULES: usize = 6;

fn users() -> UserPool {
    UserPool::new(200, 1.2)
}

/// All three DAG applications.
pub fn apps() -> Vec<AppBundle> {
    vec![word_count(), ml_pipeline(), finra_validate()]
}

/// WordCount — MapReduce-style: Split → 8 parallel mappers → Reduce →
/// Publish. Each mapper buffers a large intermediate record under its
/// own key; the reducer reads one of them back, exercising Data-Buffer
/// forwarding across the join.
pub fn word_count() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "Split",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .get(concat([lit("doc:"), field(input(), "doc")]), "text")
            .ret(make_map([
                ("doc", field(input(), "doc")),
                ("text", var("text")),
            ])),
    ));
    for i in 0..MAP_WIDTH {
        let shard = i as i64;
        reg.register(FunctionSpec::new(
            format!("Map{i}"),
            Program::builder()
                .compute_jitter_ms(7, 0.1)
                // Shard-local count: data-dependent on the document text.
                .set(
                    concat([lit(format!("wc:part:{i}:")), field(input(), "doc")]),
                    make_map([
                        (
                            "count",
                            modulo(
                                add(hash_of(field(input(), "text")), lit(shard)),
                                lit(1_000i64),
                            ),
                        ),
                        // A bulky intermediate value, as real map outputs are.
                        (
                            "words",
                            concat([
                                hash_of(field(input(), "text")),
                                lit(":"),
                                hash_of(concat([field(input(), "doc"), lit(shard)])),
                            ]),
                        ),
                    ]),
                )
                .ret(make_map([
                    ("doc", field(input(), "doc")),
                    (
                        "count",
                        modulo(
                            add(hash_of(field(input(), "text")), lit(shard)),
                            lit(1_000i64),
                        ),
                    ),
                ])),
        ));
    }
    // Reduce's input is the join list of all MAP_WIDTH mapper outputs.
    let mut total = field(index(input(), lit(0i64)), "count");
    for i in 1..MAP_WIDTH {
        total = add(total, field(index(input(), lit(i as i64)), "count"));
    }
    reg.register(FunctionSpec::new(
        "Reduce",
        Program::builder()
            .compute_jitter_ms(9, 0.1)
            // Read one buffered intermediate back through the Data Buffer:
            // an in-order RAW dependence that crosses the join boundary.
            .get(
                concat([lit("wc:part:3:"), field(index(input(), lit(3i64)), "doc")]),
                "probe",
            )
            .ret(make_map([
                ("doc", field(index(input(), lit(0i64)), "doc")),
                ("total", add(total, field(var("probe"), "count"))),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "Publish",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .set(
                concat([lit("wc:result:"), field(input(), "doc")]),
                make_map([("total", field(input(), "total"))]),
            )
            .ret(make_map([
                ("doc", field(input(), "doc")),
                ("total", field(input(), "total")),
            ])),
    ));
    let wf = Workflow::sequence(vec![
        Workflow::task("Split"),
        Workflow::parallel(
            (0..MAP_WIDTH)
                .map(|i| Workflow::task(format!("Map{i}")))
                .collect(),
        ),
        Workflow::task("Reduce"),
        Workflow::task("Publish"),
    ]);
    let app = AppSpec::new("WordCount", "DAG", reg, wf);
    AppBundle::new(
        app,
        move |rng| Value::map([("doc", Value::str(format!("doc:{}", rng.zipf(120, 1.2))))]),
        move |kv, rng| {
            for d in 0..120 {
                kv.set(
                    format!("doc:doc:{d}"),
                    Value::Int(1_000 + rng.zipf(5_000, 1.1) as i64),
                );
            }
        },
    )
}

/// MLPipeline — Ingest → Featurize → 4 parallel model stages →
/// Aggregate → confidence branch (store/publish vs human review).
pub fn ml_pipeline() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "Ingest",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .get(lit("model:mean"), "mean")
            .ret(make_map([
                ("sample", field(input(), "sample")),
                ("prior", field(input(), "prior")),
                ("base", var("mean")),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "Featurize",
        Program::builder().compute_jitter_ms(8, 0.1).ret(make_map([
            (
                "f",
                modulo(
                    add(hash_of(field(input(), "sample")), field(input(), "base")),
                    lit(10_000i64),
                ),
            ),
            ("prior", field(input(), "prior")),
        ])),
    ));
    for i in 0..MODEL_STAGES {
        let stage = i as i64;
        reg.register(FunctionSpec::new(
            format!("Model{i}"),
            Program::builder()
                .compute_jitter_ms(9, 0.1)
                .get(lit(format!("model:w{i}")), "w")
                .ret(make_map([
                    (
                        "s",
                        modulo(
                            add(hash_of(field(input(), "f")), mul(var("w"), lit(stage + 1))),
                            lit(100i64),
                        ),
                    ),
                    ("prior", field(input(), "prior")),
                ])),
        ));
    }
    let mut score = field(index(input(), lit(0i64)), "s");
    for i in 1..MODEL_STAGES {
        score = add(score, field(index(input(), lit(i as i64)), "s"));
    }
    reg.register(FunctionSpec::new(
        "Aggregate",
        Program::builder().compute_jitter_ms(6, 0.1).ret(make_map([
            ("score", score),
            ("prior", field(index(input(), lit(0i64)), "prior")),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "Threshold",
        Program::builder().compute_jitter_ms(4, 0.1).ret(make_map([
            // Mostly follows the biased prior, but genuinely data-dependent:
            // an extreme ensemble score overrides it.
            (
                "confident",
                and(
                    field(input(), "prior"),
                    le(field(input(), "score"), lit(392i64)),
                ),
            ),
            ("score", field(input(), "score")),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "StoreVerdict",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .set(
                concat([lit("ml:verdict:"), hash_of(field(input(), "score"))]),
                make_map([("score", field(input(), "score"))]),
            )
            .ret(input()),
    ));
    reg.register(FunctionSpec::new(
        "Serve",
        Program::builder()
            .compute_jitter_ms(4, 0.1)
            .ret(make_map([("status", lit("served"))])),
    ));
    reg.register(FunctionSpec::new(
        "HumanReview",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .set(
                concat([lit("ml:review:"), hash_of(field(input(), "score"))]),
                make_map([("score", field(input(), "score"))]),
            )
            .ret(make_map([("status", lit("review"))])),
    ));
    let wf = Workflow::sequence(vec![
        Workflow::task("Ingest"),
        Workflow::task("Featurize"),
        Workflow::parallel(
            (0..MODEL_STAGES)
                .map(|i| Workflow::task(format!("Model{i}")))
                .collect(),
        ),
        Workflow::task("Aggregate"),
        Workflow::when_field(
            "Threshold",
            "confident",
            Workflow::sequence(vec![
                Workflow::task("StoreVerdict"),
                Workflow::task("Serve"),
            ]),
            Some(Workflow::task("HumanReview")),
        ),
    ]);
    let app = AppSpec::new("MLPipeline", "DAG", reg, wf);
    AppBundle::new(
        app,
        move |rng| {
            Value::map([
                ("sample", Value::Int(rng.zipf(4_000, 1.1) as i64)),
                ("prior", Value::Bool(rng.chance(BRANCH_BIAS))),
            ])
        },
        move |kv, rng| {
            kv.set("model:mean", Value::Int(64 + rng.zipf(64, 1.3) as i64));
            for i in 0..MODEL_STAGES {
                kv.set(
                    format!("model:w{i}"),
                    Value::Int(3 + rng.zipf(97, 1.2) as i64),
                );
            }
        },
    )
}

/// FinraValidate — FetchPortfolio fans out to six validation rules (each
/// buffering an audit record), MergeVerdicts joins the six verdicts and
/// reads one audit back, then a data-dependent branch settles or rejects
/// the trade. A mispredicted verdict squashes the speculated settlement
/// chain across the join boundary.
pub fn finra_validate() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "FetchPortfolio",
        Program::builder()
            .compute_jitter_ms(7, 0.1)
            .get(concat([lit("portfolio:"), field(input(), "user")]), "pos")
            .ret(make_map([
                ("user", field(input(), "user")),
                ("trade", field(input(), "trade")),
                ("qty", field(input(), "qty")),
                ("sym", field(input(), "sym")),
                ("pos", var("pos")),
            ])),
    ));
    // Six rules: each computes a data-dependent verdict from storage and
    // buffers an audit record under a rule-private key.
    let rule = |name: &str, get_key: Expr, get_var: &str, ok: Expr| {
        FunctionSpec::new(
            name,
            Program::builder()
                .compute_jitter_ms(6, 0.1)
                .get(get_key, get_var)
                .set(
                    concat([
                        lit(format!("audit:{}:", name.to_lowercase())),
                        field(input(), "user"),
                    ]),
                    make_map([("ok", ok.clone()), ("trade", field(input(), "trade"))]),
                )
                .ret(make_map([
                    ("ok", ok),
                    ("user", field(input(), "user")),
                    ("trade", field(input(), "trade")),
                ])),
        )
    };
    reg.register(rule(
        "RuleMargin",
        concat([lit("margin:"), field(input(), "user")]),
        "m",
        le(field(input(), "trade"), var("m")),
    ));
    reg.register(rule(
        "RuleLimit",
        concat([lit("limit:"), field(input(), "sym")]),
        "l",
        le(field(input(), "qty"), var("l")),
    ));
    reg.register(rule(
        "RulePrice",
        concat([lit("price:"), field(input(), "sym")]),
        "p",
        le(mul(field(input(), "qty"), var("p")), lit(1_000_000i64)),
    ));
    reg.register(rule(
        "RuleRisk",
        concat([lit("risk:"), field(input(), "sym")]),
        "r",
        lt(
            modulo(add(hash_of(input()), var("r")), lit(100i64)),
            lit(97i64),
        ),
    ));
    reg.register(rule(
        "RuleCompliance",
        concat([lit("sanctions:"), field(input(), "user")]),
        "s",
        eq(var("s"), lit(0i64)),
    ));
    reg.register(rule(
        "RuleLiquidity",
        concat([lit("liquidity:"), field(input(), "sym")]),
        "q",
        ge(var("q"), field(input(), "qty")),
    ));
    // MergeVerdicts joins all six rule outputs and reads one buffered
    // audit record back across the join.
    let mut valid = field(index(input(), lit(0i64)), "ok");
    for i in 1..RULES {
        valid = and(valid, field(index(input(), lit(i as i64)), "ok"));
    }
    reg.register(FunctionSpec::new(
        "MergeVerdicts",
        Program::builder()
            .compute_jitter_ms(7, 0.1)
            .get(
                concat([
                    lit("audit:rulemargin:"),
                    field(index(input(), lit(0i64)), "user"),
                ]),
                "a0",
            )
            .ret(make_map([
                ("valid", and(valid, field(var("a0"), "ok"))),
                ("user", field(index(input(), lit(0i64)), "user")),
                ("trade", field(index(input(), lit(0i64)), "trade")),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "CheckValid",
        Program::builder().compute_jitter_ms(4, 0.1).ret(make_map([
            ("valid", field(input(), "valid")),
            ("user", field(input(), "user")),
            ("trade", field(input(), "trade")),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "ReserveFunds",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .get(concat([lit("cash:"), field(input(), "user")]), "cash")
            .set(
                concat([lit("cash:"), field(input(), "user")]),
                sub(var("cash"), field(input(), "trade")),
            )
            .ret(input()),
    ));
    reg.register(FunctionSpec::new(
        "WriteSettlement",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .set(concat([lit("settle:"), field(input(), "user")]), input())
            .ret(make_map([("status", lit("settled"))])),
    ));
    reg.register(FunctionSpec::new(
        "Reject",
        Program::builder()
            .compute_jitter_ms(4, 0.1)
            .set(
                concat([lit("reject:"), field(input(), "user")]),
                make_map([("trade", field(input(), "trade"))]),
            )
            .ret(make_map([("status", lit("rejected"))])),
    ));
    let wf = Workflow::sequence(vec![
        Workflow::task("FetchPortfolio"),
        Workflow::parallel(vec![
            Workflow::task("RuleMargin"),
            Workflow::task("RuleLimit"),
            Workflow::task("RulePrice"),
            Workflow::task("RuleRisk"),
            Workflow::task("RuleCompliance"),
            Workflow::task("RuleLiquidity"),
        ]),
        Workflow::task("MergeVerdicts"),
        Workflow::when_field(
            "CheckValid",
            "valid",
            Workflow::sequence(vec![
                Workflow::task("ReserveFunds"),
                Workflow::task("WriteSettlement"),
            ]),
            Some(Workflow::task("Reject")),
        ),
    ]);
    let app = AppSpec::new("FinraValidate", "DAG", reg, wf);
    let pool = users();
    let seed_pool = pool.clone();
    AppBundle::new(
        app,
        move |rng| {
            let amounts = [150i64, 400, 900, 2_200, 7_000, 180_000];
            Value::map([
                ("user", Value::str(pool.draw(rng))),
                ("trade", Value::Int(amounts[rng.zipf(amounts.len(), 1.7)])),
                ("qty", Value::Int(1 + rng.zipf(6, 1.5) as i64)),
                ("sym", Value::str(format!("sym:{}", rng.zipf(24, 1.3)))),
            ])
        },
        move |kv, rng| {
            seed_pool.seed(kv, rng);
            for i in 0..seed_pool.len() {
                kv.set(
                    format!("portfolio:user:{i}"),
                    Value::Int(10 + (i as i64 % 90)),
                );
                kv.set(format!("margin:user:{i}"), Value::Int(100_000));
                // A small minority of users is sanctioned: a genuinely
                // data-dependent (and occasionally mispredicted) verdict.
                let sanctioned = i % 23 == 21;
                kv.set(
                    format!("sanctions:user:{i}"),
                    Value::Int(if sanctioned { 1 } else { 0 }),
                );
                kv.set(format!("cash:user:{i}"), Value::Int(5_000_000));
            }
            for s in 0..24 {
                kv.set(format!("limit:sym:{s}"), Value::Int(500));
                kv.set(
                    format!("price:sym:{s}"),
                    Value::Int(90 + (s as i64 * 13) % 240),
                );
                kv.set(
                    format!("risk:sym:{s}"),
                    Value::Int(rng.zipf(50, 1.1) as i64),
                );
                kv.set(format!("liquidity:sym:{s}"), Value::Int(1_000));
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_platform::EngineCore;
    use specfaas_sim::SimRng;

    #[test]
    fn suite_shape_is_dag_heavy() {
        let apps = apps();
        assert_eq!(apps.len(), 3);
        for a in &apps {
            assert!(!a.app.is_implicit(), "{} should be explicit", a.name());
            let wide = a
                .app
                .compiled
                .entries
                .iter()
                .map(|e| e.join_arity)
                .max()
                .unwrap();
            assert!(
                wide >= MODEL_STAGES as u32,
                "{} join arity {wide} is not wide",
                a.name()
            );
        }
        let widest = apps
            .iter()
            .flat_map(|a| a.app.compiled.entries.iter().map(|e| e.join_arity))
            .max()
            .unwrap();
        assert_eq!(widest, MAP_WIDTH as u32, "WordCount has the widest join");
    }

    #[test]
    fn all_apps_run_on_baseline() {
        use specfaas_platform::{BaselineCore, BaselineEngine};
        for bundle in apps() {
            let mut e = BaselineEngine::new(BaselineCore::new(bundle.app.clone(), 7));
            e.prewarm();
            let mut rng = SimRng::seed(1);
            (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
            for _ in 0..3 {
                let input = (bundle.make_input)(&mut rng);
                let d = e.run_single(input);
                assert!(
                    d.as_millis() > 5,
                    "{} finished suspiciously fast: {d}",
                    bundle.name()
                );
            }
        }
    }

    #[test]
    fn all_apps_run_on_specfaas_without_error_outputs() {
        use specfaas_core::{SpecConfig, SpecCore, SpecEngine};
        for bundle in apps() {
            let mut e = SpecEngine::new(SpecCore::new(bundle.app.clone(), SpecConfig::full(), 7));
            e.prewarm();
            let mut rng = SimRng::seed(1);
            (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
            for _ in 0..10 {
                let input = (bundle.make_input)(&mut rng);
                e.run_single(input);
            }
            let m = e.run_closed(0, |_| Value::Null);
            assert_eq!(m.completed, 10, "{} lost requests", bundle.name());
            for r in &m.records {
                assert!(!r.sequence.is_empty(), "{} empty sequence", bundle.name());
            }
        }
    }

    #[test]
    fn finra_verdicts_are_biased_but_not_constant() {
        use specfaas_platform::{BaselineCore, BaselineEngine};
        let bundle = finra_validate();
        let mut e = BaselineEngine::new(BaselineCore::new(bundle.app.clone(), 3));
        e.prewarm();
        let mut rng = SimRng::seed(11);
        (bundle.seed)(&mut e.rt_mut().kv, &mut rng);
        let reject = bundle.app.registry.lookup("Reject").unwrap().0;
        let settle = bundle.app.registry.lookup("WriteSettlement").unwrap().0;
        for _ in 0..120 {
            e.run_single((bundle.make_input)(&mut rng));
        }
        let m = e.run_closed(0, |_| Value::Null);
        let rejected = m
            .records
            .iter()
            .filter(|r| r.sequence.contains(&reject))
            .count();
        let settled = m
            .records
            .iter()
            .filter(|r| r.sequence.contains(&settle))
            .count();
        assert!(rejected > 0, "no trade was ever rejected");
        assert!(settled > rejected, "settlement should dominate");
    }
}
