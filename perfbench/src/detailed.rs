//! The two detailed-engine workloads: every app of a set of suites, run
//! on the trained speculative engine and on the baseline, through the
//! repository's own protocol (`runner::prepared_*`, `Harness` drivers).
//!
//! A *rep* prepares and drives every app once per engine. Set-up and the
//! timed drive are timed apart, engines are dropped as soon as they have
//! run, so the process's peak resident set is that of the largest single
//! engine run.
//!
//! The traced rep does not call `Harness::run_concurrent`/`run_open`: it
//! re-drives the same public loop (`admit`, `sim.step`, `dispatch`,
//! `tick_snapshots`, `live_requests`, `abort`) here, timing every
//! `Simulator::step` and every `dispatch`, so the host time of a request
//! splits into the event queue and one self time per event kind.

use std::sync::Arc;
use std::time::Instant;

use specfaas_apps::{suite_named, AppBundle};
use specfaas_bench::runner::{baseline_single_ms, clients_for, prepared_baseline, prepared_spec};
use specfaas_core::engine::Ev as SpecEv;
use specfaas_core::{SpecConfig, SpecCore};
use specfaas_platform::baseline::Ev as BaseEv;
use specfaas_platform::{BaselineCore, EngineCore, Harness, NodeId, RunMetrics, Workload};
use specfaas_sim::{LogHistogram, SimDuration, SimRng};
use specfaas_storage::Value;

use crate::spans::{SpanId, SpanLog};

/// Closed-loop load level (requests/s offered to the baseline), the
/// paper's High load: `clients = clients_for(HIGH_LOAD_RPS, single_ms)`.
pub const HIGH_LOAD_RPS: f64 = 500.0;

/// Closed-loop training invocations of the speculative engine (the
/// runner's default, `ExperimentParams::train_requests`).
const TRAIN_REQUESTS: u64 = 300;

/// Unloaded baseline requests averaged to size the closed-loop client
/// pool. The runner's grids use 3; on the Alibaba apps that leaves the
/// pool size swinging by up to 2x with the seed (AliOnlPurch: 56 to 103
/// clients), which moves every closed-loop percentile with it.
const SIZING_REQUESTS: u64 = 100;

/// Closed-loop drive before the timed window, part of set-up. The pool's
/// first burst of simultaneous requests pays the container start-ups;
/// left in the timed window, that burst sits right at its p99 and moves
/// it with the seed. (The runner drops its first 500 ms from the metrics
/// instead, which would leave `completed + failed == submitted`
/// uncheckable.)
const CLOSED_WARM_UP: SimDuration = SimDuration::from_secs(1);

/// Runs the closed-loop warm-up drive on a prepared engine.
fn warm_up_closed<E: Core>(h: &mut Harness<E>, clients: u32, bundle: &AppBundle) {
    let gen = Arc::clone(&bundle.make_input);
    h.run_concurrent(clients, CLOSED_WARM_UP, SimDuration::ZERO, move |r| gen(r));
}

/// How a detailed workload offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// A fixed client pool sized for [`HIGH_LOAD_RPS`] from the
    /// baseline's unloaded response; each client sends its next request
    /// when the last one completes.
    Closed,
    /// Poisson arrivals at a fixed rate, regardless of completions.
    Open {
        /// Arrival rate per app, requests per simulated second.
        rps: f64,
    },
}

/// One detailed-engine workload.
#[derive(Debug, Clone, Copy)]
pub struct Detailed {
    /// Suites whose apps the workload runs, in registry order.
    pub suites: &'static [&'static str],
    /// The load generator.
    pub load: Load,
    /// Simulated generation window per app and engine (no warm-up is
    /// excluded, so every submitted request is counted).
    pub window: SimDuration,
}

/// The event-kind names of an engine's event enum, indexed by
/// discriminant, and the request id an event carries.
pub trait EventKinds {
    /// Kind names, in declaration order.
    const NAMES: &'static [&'static str];
    /// Names of kinds only fault injection schedules.
    const FAULT_ONLY: &'static [&'static str];
    /// `(kind index, request id)` of one event.
    fn kind(&self) -> (usize, Option<u64>);
}

impl EventKinds for SpecEv {
    const NAMES: &'static [&'static str] = &[
        "Arrival",
        "Launch",
        "ContainerReady",
        "Resume",
        "CommitApply",
        "SquashRelease",
        "KvRetry",
        "RetrySlot",
        "Timeout",
        "Complete",
    ];
    const FAULT_ONLY: &'static [&'static str] = &["KvRetry", "RetrySlot", "Timeout"];
    fn kind(&self) -> (usize, Option<u64>) {
        match self {
            SpecEv::Arrival => (0, None),
            SpecEv::Launch(_) => (1, None),
            SpecEv::ContainerReady(_) => (2, None),
            SpecEv::Resume(..) => (3, None),
            SpecEv::CommitApply(r, _) => (4, Some(r.0)),
            SpecEv::SquashRelease(..) => (5, None),
            SpecEv::KvRetry(..) => (6, None),
            SpecEv::RetrySlot(r, _) => (7, Some(r.0)),
            SpecEv::Timeout(_) => (8, None),
            SpecEv::Complete(r) => (9, Some(r.0)),
        }
    }
}

impl EventKinds for BaseEv {
    const NAMES: &'static [&'static str] = &[
        "Arrival",
        "Launch",
        "ContainerReady",
        "Resume",
        "Transfer",
        "KvRetry",
        "Retry",
        "Timeout",
        "Complete",
    ];
    const FAULT_ONLY: &'static [&'static str] = &["KvRetry", "Retry", "Timeout"];
    fn kind(&self) -> (usize, Option<u64>) {
        match self {
            BaseEv::Arrival => (0, None),
            BaseEv::Launch(_) => (1, None),
            BaseEv::ContainerReady(_) => (2, None),
            BaseEv::Resume(..) => (3, None),
            BaseEv::Transfer { req, .. } => (4, Some(req.0)),
            BaseEv::KvRetry(..) => (5, None),
            BaseEv::Retry { req, .. } => (6, Some(req.0)),
            BaseEv::Timeout(_) => (7, None),
            BaseEv::Complete(r) => (8, Some(r.0)),
        }
    }
}

/// `(kind names, fault-only kind names)` of an engine's events, by the
/// engine's metric label.
pub fn event_kinds(engine: &str) -> (&'static [&'static str], &'static [&'static str]) {
    if engine == SpecCore::LABEL {
        (SpecEv::NAMES, SpecEv::FAULT_ONLY)
    } else {
        (BaseEv::NAMES, BaseEv::FAULT_ONLY)
    }
}

/// What the benchmark needs from an engine core beyond [`EngineCore`].
pub trait Core: EngineCore<Ev: EventKinds> {
    /// Engine label used in metric names.
    const LABEL: &'static str;
    /// Cumulative `[branch hits, branch predictions, memo hits, memo
    /// lookups]` (zeros for an engine that does not speculate).
    fn speculation_counts(&self) -> [u64; 4];
}

impl Core for SpecCore {
    const LABEL: &'static str = "spec";
    fn speculation_counts(&self) -> [u64; 4] {
        let b = self.predictor().hit_rate();
        let m = self.memos().hit_rate();
        [b.hits(), b.total(), m.hits(), m.total()]
    }
}

impl Core for BaselineCore {
    const LABEL: &'static str = "baseline";
    fn speculation_counts(&self) -> [u64; 4] {
        [0; 4]
    }
}

/// Everything one engine's drive produced in simulated terms. Two drives
/// of the same app, engine and seed must produce equal outcomes, traced
/// or not.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub functions_started: u64,
    pub functions_squashed: u64,
    pub squashed_core_us: u64,
    pub useful_core_us: u64,
    /// `RunMetrics::cpu_utilization`, as bits so equality is exact.
    pub cpu_util_bits: u64,
    pub sim_end_us: u64,
    pub latency: LogHistogram,
    pub events: u64,
    pub kv_reads: u64,
    pub kv_writes: u64,
    pub cold_starts: u64,
    pub warm_starts: u64,
    pub evictions: u64,
    pub live_instances: usize,
    /// `[branch hits, predictions, memo hits, lookups]` during the drive.
    pub speculation: [u64; 4],
}

impl Outcome {
    /// Fraction of busy core time spent on squashed work.
    pub fn cpu_util(&self) -> f64 {
        f64::from_bits(self.cpu_util_bits)
    }

    /// Output checks: every submitted request terminated, none failed,
    /// and no function instance outlived the drain.
    pub fn check(&self) -> Result<(), String> {
        if self.completed + self.failed != self.submitted {
            return Err(format!(
                "completed {} + failed {} != submitted {}",
                self.completed, self.failed, self.submitted
            ));
        }
        if self.failed != 0 {
            return Err(format!("{} requests failed with faults off", self.failed));
        }
        if self.live_instances != 0 {
            return Err(format!(
                "{} instances live after the drain",
                self.live_instances
            ));
        }
        if self.completed == 0 {
            return Err("no request completed".into());
        }
        Ok(())
    }
}

/// Cumulative engine counters read before and after a drive.
fn counters<E: Core>(h: &Harness<E>) -> [u64; 10] {
    let rt = h.core.rt();
    let (mut cold, mut warm, mut evicted) = (0, 0, 0);
    for i in 0..rt.cluster.nodes() {
        let pool = &rt.cluster.node(NodeId(i)).containers;
        cold += pool.cold_starts();
        warm += pool.warm_starts();
        evicted += pool.evictions();
    }
    let s = h.core.speculation_counts();
    [
        rt.sim.events_delivered(),
        rt.kv.read_count(),
        rt.kv.write_count(),
        cold,
        warm,
        evicted,
        s[0],
        s[1],
        s[2],
        s[3],
    ]
}

fn outcome<E: Core>(h: &Harness<E>, m: &RunMetrics, before: [u64; 10]) -> Outcome {
    let after = counters(h);
    let d = |i: usize| after[i] - before[i];
    Outcome {
        submitted: m.submitted,
        completed: m.completed,
        failed: m.failed,
        functions_started: m.functions_started,
        functions_squashed: m.functions_squashed,
        squashed_core_us: m.squashed_core_time.as_micros(),
        useful_core_us: m.useful_core_time.as_micros(),
        cpu_util_bits: m.cpu_utilization.to_bits(),
        sim_end_us: h.core.rt().sim.now().as_micros(),
        latency: m.latency_hist.clone(),
        events: d(0),
        kv_reads: d(1),
        kv_writes: d(2),
        cold_starts: d(3),
        warm_starts: d(4),
        evictions: d(5),
        live_instances: h.core.live_instances(),
        speculation: [d(6), d(7), d(8), d(9)],
    }
}

/// Host time of one engine's traced drives, split by layer call, in
/// span-log clock ticks.
#[derive(Debug, Clone, Default)]
pub struct HostSplit {
    /// Wall time of the traced drives (root spans).
    pub wall: u64,
    /// Time inside `Simulator::step`.
    pub step: u64,
    /// `Simulator::step` calls.
    pub steps: u64,
    /// Self time of `dispatch`, per event kind.
    pub kind: Vec<u64>,
    /// Events dispatched, per event kind.
    pub kind_n: Vec<u64>,
    /// Requests completed in the traced drives.
    pub completed: u64,
}

impl HostSplit {
    fn for_kinds(n: usize) -> Self {
        HostSplit {
            kind: vec![0; n],
            kind_n: vec![0; n],
            ..HostSplit::default()
        }
    }

    /// Wall time no step or dispatch span covers (admission, snapshot
    /// ticks, drain checks, span recording, loop and clock overhead). The
    /// spans never overlap, so `step + Σ dispatch + residual == wall`
    /// exactly.
    pub fn residual(&self) -> u64 {
        let covered = self.step + self.kind.iter().sum::<u64>();
        assert!(
            covered <= self.wall,
            "spans cover {covered} of a {} wall",
            self.wall
        );
        self.wall - covered
    }
}

/// Span log plus the per-engine host split of the traced reps.
#[derive(Debug)]
pub struct Tracing {
    pub log: SpanLog,
    pub spec: HostSplit,
    pub baseline: HostSplit,
}

impl Tracing {
    pub fn new(span_cap: usize) -> Self {
        Tracing {
            log: SpanLog::new(span_cap),
            spec: HostSplit::for_kinds(SpecEv::NAMES.len()),
            baseline: HostSplit::for_kinds(BaseEv::NAMES.len()),
        }
    }
}

/// The traced replacement for `Harness::drain_all`: step until the queue
/// is empty and no request is live, aborting requests that outlive the
/// queue (and letting freed closed-loop clients resubmit).
fn drain_traced<E: Core>(
    h: &mut Harness<E>,
    log: &mut SpanLog,
    root: SpanId,
    split: &mut HostSplit,
) {
    loop {
        loop {
            let t0 = log.now();
            let step = h.core.rt_mut().sim.step();
            let t1 = log.now();
            let Some((_, ev)) = step else {
                split.step += t1 - t0;
                split.steps += 1;
                log.child(root, "sim.step", t0, t1, None);
                break;
            };
            let (kind, req) = ev.kind();
            h.core.dispatch(ev);
            let t2 = log.now();
            split.step += t1 - t0;
            split.steps += 1;
            split.kind[kind] += t2 - t1;
            split.kind_n[kind] += 1;
            log.child(root, "sim.step", t0, t1, None);
            log.child(root, E::Ev::NAMES[kind], t1, t2, req);
            h.core.rt_mut().tick_snapshots();
        }
        let t0 = log.now();
        let stuck = h.core.live_requests();
        log.child(root, "live_requests", t0, log.now(), None);
        if stuck.is_empty() {
            break;
        }
        for r in stuck {
            let t0 = log.now();
            h.core.abort(r);
            log.child(root, "abort", t0, log.now(), Some(r.0));
        }
    }
}

/// The traced replacement for `Harness::run_concurrent` (`warmup` zero).
fn concurrent_traced<E: Core>(
    h: &mut Harness<E>,
    clients: u32,
    window: SimDuration,
    input: impl FnMut(&mut SimRng) -> Value + 'static,
    log: &mut SpanLog,
    root: SpanId,
    split: &mut HostSplit,
) -> RunMetrics {
    {
        let rt = h.core.rt_mut();
        let start = rt.sim.now();
        rt.closed_loop = true;
        rt.input_gen = Some(Box::new(input));
        rt.gen_deadline = start + window;
        rt.measure_from = start;
        rt.cluster.reset_utilization(start);
    }
    for _ in 0..clients.max(1) {
        let v = {
            let rt = h.core.rt_mut();
            let Some(mut g) = rt.input_gen.take() else {
                continue;
            };
            let v = g(&mut rt.rng);
            rt.input_gen = Some(g);
            v
        };
        let t0 = log.now();
        let req = h.core.admit(v);
        log.child(root, "admit", t0, log.now(), Some(req.0));
    }
    drain_traced(h, log, root, split);
    h.core.rt_mut().closed_loop = false;
    take_metrics(h)
}

/// The traced replacement for `Harness::run_open` (`warmup` zero).
fn open_traced<E: Core>(
    h: &mut Harness<E>,
    rps: f64,
    window: SimDuration,
    input: impl FnMut(&mut SimRng) -> Value + 'static,
    log: &mut SpanLog,
    root: SpanId,
    split: &mut HostSplit,
) -> RunMetrics {
    {
        let rt = h.core.rt_mut();
        let start = rt.sim.now();
        rt.workload = Some(Workload::poisson(rps));
        rt.input_gen = Some(Box::new(input));
        rt.gen_deadline = start + window;
        rt.measure_from = start;
        rt.cluster.reset_utilization(start);
        rt.sim.schedule_now(E::arrival());
    }
    drain_traced(h, log, root, split);
    take_metrics(h)
}

/// The end of both load drivers: take the run's metrics and stamp the
/// window and utilization exactly as the harness does. (The harness's
/// end-of-run invariant check only runs with a checking tracer armed,
/// which the benchmark never arms.)
fn take_metrics<E: Core>(h: &mut Harness<E>) -> RunMetrics {
    let rt = h.core.rt_mut();
    let end = rt.sim.now();
    let mut m = std::mem::take(&mut rt.metrics);
    m.window = rt.gen_deadline.saturating_since(rt.measure_from);
    m.cpu_utilization = rt.cluster.utilization(end.min(rt.gen_deadline));
    h.core.finalize_metrics(&mut m);
    m
}

/// One engine's timed drive of one app.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Host time of the drive (the load driver call only).
    pub drive_ns: u64,
    /// Simulated results.
    pub outcome: Outcome,
}

/// Drives a prepared engine under `load` for `window` and returns its
/// outcome. With `tracing`, the benchmark's traced loop replaces the
/// harness driver.
fn drive<E: Core>(
    h: &mut Harness<E>,
    app: &str,
    load: Load,
    clients: u32,
    window: SimDuration,
    bundle: &AppBundle,
    tracing: Option<&mut Tracing>,
) -> EngineRun {
    let gen = Arc::clone(&bundle.make_input);
    let input = move |r: &mut SimRng| gen(r);
    let before = counters(h);
    let (m, drive_ns) = match tracing {
        None => {
            let t0 = Instant::now();
            let m = match load {
                Load::Closed => h.run_concurrent(clients, window, SimDuration::ZERO, input),
                Load::Open { rps } => h.run_open(rps, window, SimDuration::ZERO, input),
            };
            (m, t0.elapsed().as_nanos() as u64)
        }
        Some(t) => {
            let split = if E::LABEL == "spec" {
                &mut t.spec
            } else {
                &mut t.baseline
            };
            let root = t.log.open_root(format!("drive {app}/{}", E::LABEL));
            let m = match load {
                Load::Closed => {
                    concurrent_traced(h, clients, window, input, &mut t.log, root, split)
                }
                Load::Open { rps } => open_traced(h, rps, window, input, &mut t.log, root, split),
            };
            let wall = t.log.close(root);
            split.wall += wall;
            split.completed += m.completed;
            (m, (wall as f64 * t.log.ns_per_tick()) as u64)
        }
    };
    EngineRun {
        drive_ns,
        outcome: outcome(h, &m, before),
    }
}

/// One app's results in one rep.
#[derive(Debug, Clone)]
pub struct AppRun {
    pub app: String,
    /// Host time before the timed drives: client sizing, engine builds,
    /// pre-warm, KV seeding, speculative training, baseline warm-up.
    pub setup_ns: u64,
    pub spec: EngineRun,
    pub baseline: EngineRun,
}

/// Prepares and drives every app of `w` once per engine.
pub fn run_rep(w: &Detailed, seed: u64, mut tracing: Option<&mut Tracing>) -> Vec<AppRun> {
    let mut out = Vec::new();
    for suite in w.suites {
        for bundle in suite_named(suite).apps {
            let app = bundle.name().to_string();
            let t0 = Instant::now();
            let clients = match w.load {
                Load::Closed => clients_for(
                    HIGH_LOAD_RPS,
                    baseline_single_ms(&bundle, seed, SIZING_REQUESTS),
                ),
                Load::Open { .. } => 0,
            };
            let mut spec = prepared_spec(&bundle, SpecConfig::full(), seed, TRAIN_REQUESTS);
            if let Load::Closed = w.load {
                warm_up_closed(&mut spec, clients, &bundle);
            }
            let mut setup_ns = t0.elapsed().as_nanos() as u64;
            let spec_run = drive(
                &mut spec,
                &app,
                w.load,
                clients,
                w.window,
                &bundle,
                tracing.as_deref_mut(),
            );
            drop(spec);

            let t0 = Instant::now();
            let mut base = prepared_baseline(&bundle, seed);
            // The runner's baseline warm-up before a measured window.
            let warm = match w.load {
                Load::Closed => 30,
                Load::Open { .. } => 50,
            };
            let gen = Arc::clone(&bundle.make_input);
            base.run_closed(warm, move |r| gen(r));
            if let Load::Closed = w.load {
                warm_up_closed(&mut base, clients, &bundle);
            }
            setup_ns += t0.elapsed().as_nanos() as u64;
            let base_run = drive(
                &mut base,
                &app,
                w.load,
                clients,
                w.window,
                &bundle,
                tracing.as_deref_mut(),
            );
            out.push(AppRun {
                app,
                setup_ns,
                spec: spec_run,
                baseline: base_run,
            });
        }
    }
    out
}
