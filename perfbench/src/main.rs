//! The repository benchmark: host throughput, peak memory and simulated
//! latency of the speculative engine, the baseline and the flow-level
//! fleet, plus an outside-in per-layer host-time split.
//!
//! ```text
//! perfbench --workload <implicit-closed|explicit-open|fleet-trace>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload runs per process, on one thread. The run repeats a fixed
//! amount of simulated work (a *rep*) until `--seconds` have passed, and
//! at least [`MIN_REPS`] times. With `--trace 0` it prints the end-to-end
//! metrics (host figures are medians over reps); with `--trace 1` it
//! alternates untraced and traced reps and prints the per-layer metrics.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when any output check fails. See `README.md` alongside.

mod detailed;
mod fleet;
mod metrics;
mod probes;
mod report;
mod spans;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use specfaas_sim::{LogHistogram, SimDuration};

use detailed::{AppRun, Detailed, EngineRun, Load, Outcome, Tracing};
use report::{hist_quantile_ms, median, Metrics};

/// Reps every run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Child spans the traced run keeps in memory (and writes out).
const SPAN_CAP: usize = 50_000;

/// Largest share of the traced wall time the step and dispatch spans
/// may leave uncovered before the run fails its reconciliation check.
const RESIDUAL_BOUND: f64 = 0.10;

/// `implicit-closed`: the TrainTicket and Alibaba apps (implicit call
/// graphs, repeated inputs, read-mostly storage) under closed-loop High
/// load.
const IMPLICIT_CLOSED: Detailed = Detailed {
    suites: &["TrainTicket", "Alibaba"],
    load: Load::Closed,
    window: SimDuration::from_secs(6),
};

/// `explicit-open`: the FaaSChain and DAG apps (branches, fork/join,
/// buffered writes) under open-loop Poisson arrivals at 50 rps per app.
const EXPLICIT_OPEN: Detailed = Detailed {
    suites: &["FaaSChain", "DAG"],
    load: Load::Open { rps: 50.0 },
    window: SimDuration::from_secs(40),
};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    ImplicitClosed,
    ExplicitOpen,
    FleetTrace,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "implicit-closed" => Some(Workload::ImplicitClosed),
            "explicit-open" => Some(Workload::ExplicitOpen),
            "fleet-trace" => Some(Workload::FleetTrace),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ImplicitClosed => "implicit-closed",
            Workload::ExplicitOpen => "explicit-open",
            Workload::FleetTrace => "fleet-trace",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <implicit-closed|explicit-open|fleet-trace> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if kv.insert(key, value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let get = |k: &str| {
        kv.get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds takes a whole number".to_string())?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number".to_string())?,
        seconds,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    })
}

/// What a run measured and checked.
#[derive(Default)]
struct Run {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Run {
    fn set(&mut self, name: impl Into<String>, v: f64) {
        let name = name.into();
        assert!(
            self.values.insert(name.clone(), v).is_none(),
            "{name} set twice"
        );
    }

    fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// The metrics named by `names`, in that order; a name without a value
    /// is an error in the benchmark itself.
    fn metrics(&self, names: &[(String, &'static str)]) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in names {
            let v = *self
                .values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            m.push(name.clone(), v, unit);
        }
        assert_eq!(m.0.len(), self.values.len(), "unlisted metric measured");
        m
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

// ---------------------------------------------------------------------
// Detailed engines
// ---------------------------------------------------------------------

fn engine<'a>(a: &'a AppRun, e: &str) -> &'a EngineRun {
    if e == "spec" {
        &a.spec
    } else {
        &a.baseline
    }
}

fn outcomes(rep: &[AppRun]) -> Vec<(&Outcome, &Outcome)> {
    rep.iter()
        .map(|a| (&a.spec.outcome, &a.baseline.outcome))
        .collect()
}

/// Output checks on one rep, and its equality with the reference rep.
fn check_rep(run: &mut Run, label: &str, rep: &[AppRun], reference: &[AppRun]) {
    for a in rep {
        for e in metrics::ENGINES {
            let o = &engine(a, e).outcome;
            run.check(&format!("{label} {}/{e}", a.app), o.check());
            run.attempted += o.submitted;
            run.failed += o.failed;
        }
    }
    if outcomes(rep) != outcomes(reference) {
        run.errors.push(format!(
            "{label}: simulated outputs differ from the first rep of the same seed"
        ));
    }
}

/// Simulated end-to-end metrics of one rep (identical for every rep of a
/// seed).
fn sim_metrics(run: &mut Run, rep: &[AppRun], notes: &mut Vec<String>) {
    for e in metrics::ENGINES {
        let mut h = LogHistogram::new();
        for a in rep {
            h.merge(&engine(a, e).outcome.latency);
        }
        run.set(format!("{e}_p50_ms"), hist_quantile_ms(&h, 0.50));
        run.set(format!("{e}_p99_ms"), hist_quantile_ms(&h, 0.99));
        notes.push(format!(
            "{e}: p50 and p99 over {} completed requests ({} beyond p99)",
            h.count(),
            h.count() / 100
        ));
    }
    // Fig. 11: per-app baseline mean over spec mean, geometric mean.
    let logs: f64 = rep
        .iter()
        .map(|a| (a.baseline.outcome.latency.mean() / a.spec.outcome.latency.mean()).ln())
        .sum();
    run.set("speedup", (logs / rep.len() as f64).exp());
    let (squashed, useful) = rep.iter().fold((0, 0), |(s, u), a| {
        (
            s + a.spec.outcome.squashed_core_us,
            u + a.spec.outcome.useful_core_us,
        )
    });
    run.set(
        "spec_useful_core_frac",
        ratio(useful as f64, (squashed + useful) as f64),
    );
}

fn detailed_run(w: &Detailed, args: &Args, notes: &mut Vec<String>) -> Run {
    let mut run = Run::default();
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut reps: Vec<Vec<AppRun>> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        reps.push(detailed::run_rep(w, args.seed, None));
    }
    for (i, rep) in reps.iter().enumerate() {
        check_rep(&mut run, &format!("rep {i}"), rep, &reps[0]);
    }
    for e in metrics::ENGINES {
        let per_rep: Vec<f64> = reps
            .iter()
            .map(|rep| {
                let done: u64 = rep.iter().map(|a| engine(a, e).outcome.completed).sum();
                let ns: u64 = rep.iter().map(|a| engine(a, e).drive_ns).sum();
                done as f64 / secs(ns)
            })
            .collect();
        notes.push(format!("{e} req/s per rep: {per_rep:.0?}"));
        run.set(format!("{e}_req_per_s"), median(&per_rep));
    }
    let setup: Vec<f64> = reps
        .iter()
        .map(|rep| secs(rep.iter().map(|a| a.setup_ns).sum()))
        .collect();
    run.set("setup_s", median(&setup));
    sim_metrics(&mut run, &reps[0], notes);
    notes.push(format!(
        "{} reps in {:.1} s",
        reps.len(),
        start.elapsed().as_secs_f64()
    ));
    run
}

/// Name prefixes of the fleet layers' per-layer metrics.
const FLEET_LAYERS: &[&str] = &[
    "fleet.",
    "tracegen.",
    "warm_pool.",
    "spec.fleet",
    "baseline.fleet",
];

/// Reports 0 for the layers a workload never exercises: the fleet layers
/// on a detailed workload (`fleet == false`), the detailed-engine layers
/// on the fleet workload. A metric of the workload's own layers that was
/// not measured stays missing and fails the run.
fn zero_unexercised(run: &mut Run, fleet: bool) {
    for (name, _) in metrics::per_layer() {
        let fleet_layer = FLEET_LAYERS.iter().any(|p| name.starts_with(p));
        if fleet_layer != fleet && !run.values.contains_key(&name) {
            run.set(name, 0.0);
        }
    }
}

fn detailed_traced(w: &Detailed, args: &Args, notes: &mut Vec<String>) -> (Run, Tracing) {
    let mut run = Run::default();
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut tracing = Tracing::new(SPAN_CAP);
    let reference = detailed::run_rep(w, args.seed, None);
    check_rep(&mut run, "untraced rep 0", &reference, &reference);
    // Alternate traced and untraced reps; each pair gives one overhead
    // ratio per engine.
    let mut overhead: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut untraced: Option<Vec<AppRun>> = None;
    let mut pairs = 0;
    loop {
        let traced = detailed::run_rep(w, args.seed, Some(&mut tracing));
        check_rep(
            &mut run,
            &format!("traced rep {pairs}"),
            &traced,
            &reference,
        );
        let base = untraced.as_deref().unwrap_or(&reference);
        for (i, e) in metrics::ENGINES.into_iter().enumerate() {
            let ns = |rep: &[AppRun]| rep.iter().map(|a| engine(a, e).drive_ns).sum::<u64>() as f64;
            overhead[i].push(ns(&traced) / ns(base));
        }
        pairs += 1;
        if pairs >= 2 && start.elapsed() >= budget {
            break;
        }
        let next = detailed::run_rep(w, args.seed, None);
        check_rep(
            &mut run,
            &format!("untraced rep {pairs}"),
            &next,
            &reference,
        );
        untraced = Some(next);
    }
    notes.push(format!("{pairs} traced/untraced rep pairs"));

    for (i, e) in metrics::ENGINES.into_iter().enumerate() {
        let split = if e == "spec" {
            &tracing.spec
        } else {
            &tracing.baseline
        };
        let (names, fault_only) = detailed::event_kinds(e);
        let reqs = split.completed as f64;
        let ns_per_tick = tracing.log.ns_per_tick();
        let ns = |ticks: u64| ticks as f64 * ns_per_tick;
        run.set(
            format!("{e}.event.step_ns"),
            ratio(ns(split.step), split.steps as f64),
        );
        for (k, name) in names.iter().enumerate() {
            if fault_only.contains(name) {
                if split.kind_n[k] != 0 {
                    run.errors.push(format!(
                        "{e}: {} {name} events with faults off",
                        split.kind_n[k]
                    ));
                }
                continue;
            }
            run.set(
                format!("{e}.dispatch.{name}.ns_per_req"),
                ns(split.kind[k]) / reqs,
            );
            run.set(
                format!("{e}.dispatch.{name}.per_req"),
                split.kind_n[k] as f64 / reqs,
            );
        }
        // Reconciliation: step + Σ dispatch + residual == traced wall.
        let frac = split.residual() as f64 / split.wall as f64;
        if frac > RESIDUAL_BOUND {
            run.errors.push(format!(
                "{e}: residual {frac:.4} of traced wall time exceeds {RESIDUAL_BOUND}"
            ));
        }
        run.set(format!("{e}.host.residual_frac"), frac);
        run.set(format!("{e}.trace.overhead"), median(&overhead[i]));

        let out: Vec<&Outcome> = reference.iter().map(|a| &engine(a, e).outcome).collect();
        let sum = |f: &dyn Fn(&Outcome) -> u64| out.iter().map(|o| f(o)).sum::<u64>() as f64;
        let done = sum(&|o| o.completed);
        run.set(format!("{e}.event.per_req"), sum(&|o| o.events) / done);
        run.set(format!("{e}.latency.samples"), done);
        run.set(
            format!("{e}.container.cold_starts"),
            sum(&|o| o.cold_starts),
        );
        run.set(
            format!("{e}.container.warm_rate"),
            ratio(
                sum(&|o| o.warm_starts),
                sum(&|o| o.warm_starts + o.cold_starts),
            ),
        );
        run.set(format!("{e}.container.evictions"), sum(&|o| o.evictions));
        run.set(
            format!("{e}.cluster.cpu_util"),
            out.iter().map(|o| o.cpu_util()).sum::<f64>() / out.len() as f64,
        );
        run.set(format!("{e}.kv.reads_per_req"), sum(&|o| o.kv_reads) / done);
        run.set(
            format!("{e}.kv.writes_per_req"),
            sum(&|o| o.kv_writes) / done,
        );
        if e == "spec" {
            let started = sum(&|o| o.functions_started);
            run.set("spec.functions.started_per_req", started / done);
            run.set(
                "spec.functions.squashed_frac",
                ratio(sum(&|o| o.functions_squashed), started),
            );
            let predictions = sum(&|o| o.speculation[1]);
            run.set("spec.branch.predictions_per_req", predictions / done);
            run.set(
                "spec.branch.accuracy",
                ratio(sum(&|o| o.speculation[0]), predictions),
            );
            let lookups = sum(&|o| o.speculation[3]);
            run.set("spec.memo.lookups_per_req", lookups / done);
            run.set(
                "spec.memo.hit_rate",
                ratio(sum(&|o| o.speculation[2]), lookups),
            );
            let squashed = sum(&|o| o.squashed_core_us);
            run.set(
                "spec.wasted_core_frac",
                ratio(squashed, squashed + sum(&|o| o.useful_core_us)),
            );
        }
    }
    let submitted: u64 = reference
        .iter()
        .map(|a| a.spec.outcome.submitted + a.baseline.outcome.submitted)
        .sum();
    let failed: u64 = reference
        .iter()
        .map(|a| a.spec.outcome.failed + a.baseline.outcome.failed)
        .sum();
    run.set("failed_frac", ratio(failed as f64, submitted as f64));

    for (name, ns) in probes::run(w.suites, args.seed, &mut tracing.log) {
        run.set(name, ns);
    }
    zero_unexercised(&mut run, false);
    (run, tracing)
}

// ---------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------

/// One fleet rep: `[baseline, spec]`.
fn fleet_rep(trace_seeds: &[u64], mut log: Option<&mut spans::SpanLog>) -> [fleet::ModeRun; 2] {
    [false, true].map(|spec| fleet::run_mode(trace_seeds, spec, log.as_deref_mut()))
}

fn check_fleet(
    run: &mut Run,
    label: &str,
    rep: &[fleet::ModeRun; 2],
    reference: &[fleet::ModeRun; 2],
) {
    let want = fleet::REQUESTS_PER_TRACE * rep[0].traces.len() as u64;
    for m in rep {
        run.attempted += want;
        run.failed += want.saturating_sub(m.completed());
        if m.completed() != want {
            run.errors.push(format!(
                "{label}: {} of {want} trace requests completed",
                m.completed()
            ));
        }
    }
    let same = rep
        .iter()
        .zip(reference)
        .all(|(a, b)| a.fingerprint() == b.fingerprint());
    if !same {
        run.errors.push(format!(
            "{label}: simulated outputs differ from the first rep of the same seed"
        ));
    }
}

fn fleet_run(args: &Args, notes: &mut Vec<String>) -> Run {
    let mut run = Run::default();
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let seeds = fleet::trace_seeds(args.seed);
    let mut reps: Vec<[fleet::ModeRun; 2]> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        reps.push(fleet_rep(&seeds, None));
    }
    for (i, rep) in reps.iter().enumerate() {
        check_fleet(&mut run, &format!("rep {i}"), rep, &reps[0]);
    }
    for (i, e) in ["baseline", "spec"].into_iter().enumerate() {
        let per_rep: Vec<f64> = reps
            .iter()
            .map(|r| r[i].completed() as f64 / secs(r[i].run_ns))
            .collect();
        notes.push(format!("{e} req/s per rep: {per_rep:.0?}"));
        run.set(format!("{e}_req_per_s"), median(&per_rep));
    }
    let setup: Vec<f64> = reps
        .iter()
        .map(|r| secs(r[0].setup_ns + r[1].setup_ns))
        .collect();
    run.set("setup_s", median(&setup));
    let [base, spec] = &reps[0];
    let (base_h, spec_h) = (base.latency(), spec.latency());
    for (e, h) in [("spec", &spec_h), ("baseline", &base_h)] {
        run.set(format!("{e}_p50_ms"), hist_quantile_ms(h, 0.50));
        run.set(format!("{e}_p99_ms"), hist_quantile_ms(h, 0.99));
        notes.push(format!(
            "{e}: p50 and p99 over {} steady-state requests ({} beyond p99)",
            h.count(),
            h.count() / 100
        ));
    }
    run.set("speedup", base_h.mean() / spec_h.mean());
    run.set("spec_useful_core_frac", 1.0 - spec.wasted_frac());
    notes.push(format!(
        "{} reps in {:.1} s",
        reps.len(),
        start.elapsed().as_secs_f64()
    ));
    run
}

fn fleet_traced(args: &Args, notes: &mut Vec<String>) -> (Run, spans::SpanLog) {
    let mut run = Run::default();
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut log = spans::SpanLog::new(SPAN_CAP);
    let seeds = fleet::trace_seeds(args.seed);
    let reference = fleet_rep(&seeds, None);
    check_fleet(&mut run, "untraced rep 0", &reference, &reference);
    let (mut run_ns, mut requests, mut reps) = (0u64, 0u64, 0);
    while reps < 2 || start.elapsed() < budget {
        let rep = fleet_rep(&seeds, Some(&mut log));
        check_fleet(&mut run, &format!("traced rep {reps}"), &rep, &reference);
        for m in &rep {
            run_ns += m.run_ns;
            requests += m.completed();
        }
        reps += 1;
    }
    notes.push(format!("{reps} traced reps"));
    run.set("fleet.run_ns_per_req", run_ns as f64 / requests as f64);
    let (ns, arrivals) = fleet::tracegen_probe(&seeds, &mut log);
    let want = fleet::REQUESTS_PER_TRACE * seeds.len() as u64;
    if arrivals != want {
        run.errors
            .push(format!("traces generated {arrivals} of {want} arrivals"));
    }
    run.set("tracegen.ns_per_arrival", ns);
    let capacity = reference[0].traces[0].warm_capacity;
    run.set(
        "warm_pool.op_ns",
        fleet::warm_pool_probe(&seeds, capacity, &mut log),
    );
    for (e, m) in [("baseline", &reference[0]), ("spec", &reference[1])] {
        run.set(format!("{e}.fleet.cold_rate"), m.cold_rate());
        run.set(format!("{e}.fleet.evictions"), m.evictions() as f64);
        run.set(format!("{e}.fleet.peak_live"), m.peak_live() as f64);
        run.set(
            format!("{e}.fleet.model_mem_bytes"),
            m.model_mem_bytes() as f64,
        );
        run.set(
            format!("{e}.fleet.prewarm_issued"),
            m.prewarm_issued() as f64,
        );
    }
    run.set("spec.wasted_core_frac", reference[1].wasted_frac());
    run.set("failed_frac", 0.0);
    zero_unexercised(&mut run, true);
    (run, log)
}

/// Writes the traced run's spans as Chrome-trace JSON under `out/` in
/// the benchmark's directory and checks the file parses.
fn write_trace(
    workload: Workload,
    seed: u64,
    log: &spans::SpanLog,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.trace.json", workload.name()));
    let json = log.to_chrome_json();
    specfaas_sim::trace::validate_json(&json).map_err(|e| format!("trace JSON: {e}"))?;
    std::fs::write(&path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
    let back =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    specfaas_sim::trace::validate_json(&back).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "trace: {} spans ({} dropped past the cap) in {}",
        log.spans().len(),
        log.dropped(),
        path.display()
    ));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut notes = Vec::new();
    let detailed = match args.workload {
        Workload::ImplicitClosed => Some(IMPLICIT_CLOSED),
        Workload::ExplicitOpen => Some(EXPLICIT_OPEN),
        Workload::FleetTrace => None,
    };
    let (mut run, names) = if args.trace {
        let (mut run, log) = match detailed {
            Some(w) => {
                let (run, tracing) = detailed_traced(&w, &args, &mut notes);
                (run, tracing.log)
            }
            None => fleet_traced(&args, &mut notes),
        };
        let written = write_trace(args.workload, args.seed, &log, &mut notes);
        run.check("trace file", written);
        (run, metrics::per_layer())
    } else {
        let mut run = match detailed {
            Some(w) => detailed_run(&w, &args, &mut notes),
            None => fleet_run(&args, &mut notes),
        };
        match report::peak_rss_mb() {
            Some(mb) => run.set("peak_rss_mb", mb),
            None => {
                run.errors.push("VmHWM unreadable".into());
                run.set("peak_rss_mb", 0.0);
            }
        }
        let names = metrics::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        (run, names)
    };
    if run.failed > 0 {
        run.errors.push(format!(
            "{} of {} requests failed",
            run.failed, run.attempted
        ));
    }
    println!(
        "workload {} seed {} trace {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for n in &notes {
        println!("  {n}");
    }
    for e in &run.errors {
        eprintln!("check failed: {e}");
    }
    let metrics = run.metrics(&names);
    for m in &metrics.0 {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = run.errors.is_empty();
    println!(
        "{}",
        report::result_line(correct, run.attempted, run.failed, &metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload fleet-trace --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::FleetTrace);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet-trace --seed 1 --seconds 1 --trace 2",
            "--workload fleet-trace --seed x --seconds 1 --trace 0",
            "--workload fleet-trace --seed 1 --seconds 0 --trace 0",
            "--workload fleet-trace --seed 1 --trace 0",
            "--workload fleet-trace --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload fleet-trace --seed 1 --seed 2 --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
