//! The `fleet-trace` workload: the flow-level multi-tenant
//! [`ScaleEngine`] at the 1000-tenant tier over the 19 registered app
//! templates, on the diurnal Poisson + Zipf trace, in baseline and
//! speculative mode. It never touches the interpreter, memo tables, Data
//! Buffer or KV store, so it is the no-change control for optimisations
//! of the detailed engines (and they are the control for this one).

use std::sync::Arc;
use std::time::Instant;

use specfaas_apps::all_app_specs;
use specfaas_platform::fleet::{Fleet, ScaleConfig, ScaleEngine, ScaleStats, TemplateProfile};
use specfaas_platform::{PolicyConfig, WarmPool};
use specfaas_sim::tracegen::{Arrival, TraceConfig, TraceGen};
use specfaas_sim::{LogHistogram, SimRng, SimTime};

use crate::spans::SpanLog;

/// Tenants of the fleet (the guarded tier of `BENCH_scale.json`).
pub const TENANTS: u32 = 1_000;

/// Requests per trace (about half a diurnal period at the default rate;
/// one trace per template makes a rep about 10^6 requests per mode, the
/// request count of `BENCH_scale.json`'s tiers).
pub const REQUESTS_PER_TRACE: u64 = 50_000;

/// Arrivals per `TraceGen::fill` call, as the engine batches them.
const FILL_BATCH: usize = 4_096;

/// The traces a workload seed stands for: one per template, each the
/// first seed in a stream drawn from the workload seed whose hottest
/// tenant runs that template.
///
/// Under Zipf(1.1) popularity over 1000 tenants the hottest tenant alone
/// carries about a sixth of a trace's requests, and a trace's rank
/// permutation decides which template it runs. Depending on that
/// template, the trace's baseline p99 is either about 0.14 s or 1–3 s,
/// so a handful of random traces mixes the two kinds in proportions
/// that swing with the seed. Stratifying on the hottest
/// tenant's template gives every seed the same mix of both kinds, so
/// the tails still show on every run while the figures stay comparable
/// across seeds.
pub fn trace_seeds(seed: u64) -> Vec<u64> {
    let templates = templates();
    let n = templates.len();
    let fleet = Fleet::new(templates, TENANTS);
    let mut by_template: Vec<Option<u64>> = vec![None; n];
    let mut rng = SimRng::seed(seed);
    while by_template.iter().any(Option::is_none) {
        let candidate = rng.uniform_u64(u64::MAX);
        let hottest = TraceGen::new(trace_config(candidate))
            .zipf()
            .tenant_of_rank(0);
        let slot = &mut by_template[fleet.template_index(hottest) as usize];
        if slot.is_none() {
            *slot = Some(candidate);
        }
    }
    by_template.into_iter().flatten().collect()
}

/// The trace config of one trace seed.
pub fn trace_config(trace_seed: u64) -> TraceConfig {
    TraceConfig::new(TENANTS, REQUESTS_PER_TRACE, trace_seed)
}

/// One mode's run over every trace of a seed.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// Template derivation plus `ScaleEngine::new`, summed over traces.
    pub setup_ns: u64,
    /// `ScaleEngine::run`, summed over traces.
    pub run_ns: u64,
    /// Each trace's streaming stats.
    pub traces: Vec<ScaleStats>,
}

impl ModeRun {
    /// Requests completed over all traces.
    pub fn completed(&self) -> u64 {
        self.traces.iter().map(|s| s.completed).sum()
    }

    /// Steady-state latency over all traces.
    pub fn latency(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for s in &self.traces {
            h.merge(&s.latency);
        }
        h
    }

    fn sum(&self, f: impl Fn(&ScaleStats) -> u64) -> u64 {
        self.traces.iter().map(f).sum()
    }

    fn max(&self, f: impl Fn(&ScaleStats) -> u64) -> u64 {
        self.traces.iter().map(f).max().unwrap_or(0)
    }

    /// Squashed over busy core time, pooled.
    pub fn wasted_frac(&self) -> f64 {
        self.sum(|s| s.wasted_core_us) as f64 / self.sum(|s| s.busy_core_us).max(1) as f64
    }

    /// Cold over all container acquisitions, pooled.
    pub fn cold_rate(&self) -> f64 {
        let cold = self.sum(|s| s.cold_starts);
        cold as f64 / (cold + self.sum(|s| s.warm_starts)).max(1) as f64
    }

    pub fn evictions(&self) -> u64 {
        self.sum(|s| s.evictions)
    }

    pub fn prewarm_issued(&self) -> u64 {
        self.sum(|s| s.prewarm_issued)
    }

    /// Largest per-trace peak of concurrently live requests.
    pub fn peak_live(&self) -> u64 {
        self.max(|s| u64::from(s.peak_live))
    }

    /// Largest per-trace peak of the engine's own memory accounting.
    pub fn model_mem_bytes(&self) -> u64 {
        self.max(|s| s.peak_mem_bytes)
    }

    /// The simulated results two runs of one seed must share.
    pub fn fingerprint(&self) -> Vec<(Vec<u64>, &LogHistogram)> {
        self.traces
            .iter()
            .map(|s| {
                let counts = vec![
                    s.completed,
                    s.sim_span.as_micros(),
                    s.cold_starts,
                    s.warm_starts,
                    s.evictions,
                    s.wasted_core_us,
                    s.busy_core_us,
                    u64::from(s.peak_live),
                    s.peak_mem_bytes,
                    u64::from(s.cores),
                    u64::from(s.warm_capacity),
                    s.prewarm_issued,
                ];
                (counts, &s.latency)
            })
            .collect()
    }
}

fn templates() -> Vec<Arc<TemplateProfile>> {
    all_app_specs()
        .iter()
        .map(|a| Arc::new(TemplateProfile::from_app(a)))
        .collect()
}

/// Sets up and runs one mode on every trace of `seed`. With a span log,
/// each trace's set-up and run are recorded under one root span.
pub fn run_mode(trace_seeds: &[u64], speculative: bool, mut log: Option<&mut SpanLog>) -> ModeRun {
    let label = if speculative { "spec" } else { "baseline" };
    let tick = |log: &Option<&mut SpanLog>| log.as_ref().map_or(0, |l| l.now());
    let mut out = ModeRun {
        setup_ns: 0,
        run_ns: 0,
        traces: Vec::new(),
    };
    for &trace_seed in trace_seeds {
        let (k0, t0) = (tick(&log), Instant::now());
        let cfg = ScaleConfig::new(trace_config(trace_seed), speculative);
        let engine = ScaleEngine::new(cfg, templates());
        let (k1, t1) = (tick(&log), Instant::now());
        let stats = engine.run();
        let (k2, t2) = (tick(&log), Instant::now());
        if let Some(l) = log.as_deref_mut() {
            let root = l.open_root(format!("fleet/{label}/trace {trace_seed:#x}"));
            l.child(root, "fleet.setup", k0, k1, None);
            l.child(root, "ScaleEngine::run", k1, k2, None);
            l.close(root);
        }
        out.setup_ns += (t1 - t0).as_nanos() as u64;
        out.run_ns += (t2 - t1).as_nanos() as u64;
        out.traces.push(stats);
    }
    out
}

/// Host nanoseconds per arrival of `TraceGen::fill` on the workload's
/// trace configs, and the number of arrivals generated.
pub fn tracegen_probe(trace_seeds: &[u64], log: &mut SpanLog) -> (f64, u64) {
    let mut batch: Vec<Arrival> = Vec::with_capacity(FILL_BATCH);
    let root = log.open_root("tracegen".to_string());
    let mut total = 0u64;
    let mut n = 0u64;
    for &trace_seed in trace_seeds {
        let mut gen = TraceGen::new(trace_config(trace_seed));
        loop {
            batch.clear();
            let t0 = log.now();
            let got = gen.fill(&mut batch, FILL_BATCH);
            let t1 = log.now();
            if got == 0 {
                break;
            }
            log.child(root, "TraceGen::fill", t0, t1, None);
            total += t1 - t0;
            n += got as u64;
        }
    }
    log.close(root);
    (total as f64 * log.ns_per_tick() / n.max(1) as f64, n)
}

/// Host nanoseconds per `WarmPool` acquire + release pair, replaying each
/// trace's function sequence (every stage of every arrival's template)
/// against a fresh pool of the capacity the engine sized, under the
/// default keep-alive policy.
pub fn warm_pool_probe(trace_seeds: &[u64], capacity: u32, log: &mut SpanLog) -> f64 {
    let fleet = Fleet::new(templates(), TENANTS);
    let keepalive = PolicyConfig::default().build_keepalive();
    let root = log.open_root("warm_pool".to_string());
    let (mut total, mut n) = (0u64, 0usize);
    for &trace_seed in trace_seeds {
        let mut gen = TraceGen::new(trace_config(trace_seed));
        let mut arrivals: Vec<Arrival> = Vec::new();
        while gen.fill(&mut arrivals, FILL_BATCH) > 0 {}
        let ops: Vec<(u32, SimTime)> = arrivals
            .iter()
            .flat_map(|a| {
                let stages = fleet.template_of(a.tenant).stages.len() as u16;
                let fleet = &fleet;
                (0..stages).map(move |s| (fleet.gfunc(a.tenant, s), a.time))
            })
            .collect();
        let mut pool = WarmPool::new(capacity);
        let t0 = log.now();
        for &(g, now) in &ops {
            std::hint::black_box(pool.acquire(g, now, &*keepalive));
            pool.release(g, now, &*keepalive);
        }
        let t1 = log.now();
        log.child(root, "WarmPool::acquire+release", t0, t1, None);
        total += t1 - t0;
        n += ops.len();
    }
    log.close(root);
    total as f64 * log.ns_per_tick() / n.max(1) as f64
}
