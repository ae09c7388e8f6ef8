//! The SpecFaaS engine: the speculative controller driving the platform
//! substrate (paper §V–§VI).
//!
//! Per application invocation the engine maintains a [`Pipeline`] of
//! program-ordered function slots and a [`DataBuffer`]. It repeatedly
//! picks the next function from the [`SequenceTable`] (predicting branch
//! outcomes and memoizing data dependences), launches it — possibly
//! speculatively — on the cluster, detects mispredictions and dependence
//! violations, squashes and re-launches offenders, and commits functions
//! strictly in order. Persistent structures (sequence table, branch
//! predictor, memoization tables, stall list) live across invocations and
//! are only ever updated with committed, non-speculative data (§V-E).

use specfaas_sim::hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

use specfaas_platform::cluster::NodeId;
use specfaas_platform::exec::{
    InstanceId, InstanceState, KvAttempt, KvOp, LifecycleEvent, Resumed,
};
use specfaas_platform::metrics::{InvocationRecord, RequestOutcome, RunMetrics};
use specfaas_platform::workload::RequestId;
use specfaas_sim::trace::{SquashCause, TraceEventKind};
use specfaas_sim::FaultSite;
use specfaas_sim::{GaugeHandle, SimDuration, SimTime};
use specfaas_storage::Value;
use specfaas_workflow::{AppSpec, Effect, EntryKind, FuncId, Interp, Program};

use crate::config::{SpecConfig, SquashMechanism};
use crate::databuffer::{DataBuffer, ReadResult};
use crate::memo::MemoTables;
use crate::pipeline::{Pipeline, SlotId, SlotRole, SlotState};
use crate::predictor::{BranchPredictor, BranchSite, PathHistory, Prediction};
use crate::seqtable::SequenceTable;
use crate::stall::StallList;
use specfaas_platform::harness::{self, EngineCore, Harness, Runtime};

/// Events of the speculative engine. Only nameable as the
/// [`EngineCore::Ev`] associated type.
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    Arrival,
    /// Spec-launch overhead paid; acquire container + core.
    Launch(InstanceId),
    /// Cold start finished.
    ContainerReady(InstanceId),
    /// The instance's pending effect completed; step the interpreter.
    Resume(InstanceId, Option<Value>),
    /// Commit controller service finished; apply the commit.
    CommitApply(RequestId, SlotId),
    /// Process-kill / container-kill squash finished; release resources.
    SquashRelease(InstanceId, bool),
    /// Backoff after a transient KV fault elapsed; retry the operation.
    KvRetry(InstanceId, KvOp, u32),
    /// Backoff after a slot fault elapsed; the slot may relaunch.
    RetrySlot(RequestId, SlotId),
    /// Invocation watchdog fired for the instance.
    Timeout(InstanceId),
    /// Final response delivered.
    Complete(RequestId),
}

impl LifecycleEvent for Ev {
    fn launch(id: InstanceId) -> Self {
        Ev::Launch(id)
    }
    fn container_ready(id: InstanceId) -> Self {
        Ev::ContainerReady(id)
    }
    fn resume(id: InstanceId, value: Option<Value>) -> Self {
        Ev::Resume(id, value)
    }
    fn kv_retry(id: InstanceId, op: KvOp, attempt: u32) -> Self {
        Ev::KvRetry(id, op, attempt)
    }
    fn timeout(id: InstanceId) -> Self {
        Ev::Timeout(id)
    }
}

/// Why a squash happens (drives reset-vs-remove semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SquashKind {
    /// Control misprediction: wrong-path slots are removed outright.
    WrongPath,
    /// Data misprediction: the first victim re-executes with a corrected
    /// input; everything after it is removed.
    WrongInput,
    /// Data-dependence violation: the first victim re-executes with the
    /// same input (it will now read forwarded data); the rest is removed.
    Violation,
    /// Injected fault on the first victim's instance: it re-executes with
    /// the same input after backoff; dependents are removed and counted
    /// as squashed-due-to-fault.
    Fault,
}

#[derive(Debug, Default)]
struct CallState {
    /// Call-site cursor (how many calls the caller has issued).
    cursor: usize,
    /// Prefetched callee slots, in call order, not yet consumed.
    prefetched: Vec<SlotId>,
}

#[derive(Debug)]
struct StalledRead {
    slot: SlotId,
    inst: InstanceId,
    key: String,
    producer: SlotId,
}

/// One committed function execution: its memoization row and its direct
/// call structure. A consumed callee or a committed slot hands its
/// documents over by move; the record reaches the persistent tables only
/// when the whole invocation completes (so speculative data never leaks
/// into them, §V-E).
#[derive(Debug)]
struct Observed {
    func: FuncId,
    input: Value,
    output: Value,
    /// Direct callees in call order, with the input passed to each.
    calls: Vec<(FuncId, Value)>,
}

#[derive(Debug)]
struct Req {
    arrived: SimTime,
    ctrl: NodeId,
    measured: bool,
    pipeline: Pipeline,
    buffer: DataBuffer,
    slot_inst: FxHashMap<SlotId, InstanceId>,
    call_state: FxHashMap<SlotId, CallState>,
    /// Callee slot → caller slot blocked waiting for it.
    waiting_callers: FxHashMap<SlotId, SlotId>,
    /// Caller slot → callee args it is waiting to consume (revalidated on
    /// callee completion).
    waiting_args: FxHashMap<SlotId, Value>,
    stalled_reads: Vec<StalledRead>,
    /// Slots whose HTTP request is deferred until they are head.
    deferred_http: FxHashMap<SlotId, InstanceId>,
    /// Slots whose program-order successor has been created.
    extended: FxHashSet<SlotId>,
    /// Core-time consumed by completed-but-uncommitted slots.
    slot_cpu: FxHashMap<SlotId, SimDuration>,
    /// Fork-join contributions: join entry → (payloads by pipeline pos).
    fork_joins: FxHashMap<usize, Vec<Value>>,
    /// Consumed-callee observations, tagged with the top-level entry slot
    /// they work for and moved to `observed` when that slot commits.
    call_records: Vec<(SlotId, Observed)>,
    /// Commit currently being processed.
    committing: Option<SlotId>,
    /// Failed attempts per slot (fault-injection retry accounting).
    attempts: FxHashMap<SlotId, u32>,
    /// Slots whose relaunch is held until their retry backoff elapses.
    retry_hold: FxHashSet<SlotId>,
    /// Committed executions, in commit order.
    observed: Vec<Observed>,
    /// Resolved branches `(entry, path, taken)`, in commit order.
    branches: Vec<(usize, PathHistory, bool)>,
    committed_sequence: Vec<u32>,
    functions_run: u32,
    functions_squashed: u32,
    end_committed: bool,
    completed: bool,
}

/// The request and slot a live, unsquashed instance executes.
struct InstMeta {
    req: RequestId,
    slot: SlotId,
}

/// The SpecFaaS speculative execution engine for one application: the
/// generic [`Harness`] driving the speculative [`SpecCore`].
///
/// # Example
///
/// ```no_run
/// use specfaas_core::{SpecConfig, SpecCore, SpecEngine};
/// # fn app() -> specfaas_workflow::AppSpec { unimplemented!() }
/// let app = std::sync::Arc::new(app());
/// let mut engine = SpecEngine::new(SpecCore::new(app, SpecConfig::full(), 42));
/// engine.prewarm();
/// // Warm the predictor + memoization tables, then measure.
/// engine.run_closed(200, |_rng| specfaas_storage::Value::Null);
/// let metrics = engine.run_closed(100, |_rng| specfaas_storage::Value::Null);
/// println!("mean response: {:.2} ms", metrics.mean_response_ms());
/// ```
pub type SpecEngine = Harness<SpecCore>;

/// The speculative engine core: SpecFaaS policy state (sequence table,
/// branch predictor, memoization tables, stall list, pipelines) layered
/// over the shared [`Runtime`]. Drive it through [`SpecEngine`] or any
/// [`Harness`]; on its own it only implements [`EngineCore`].
pub struct SpecCore {
    /// Engine-agnostic runtime substrate (clock, RNG, cluster, storage,
    /// faults, tracer, registry, run bookkeeping, instances).
    rt: Runtime<Ev>,
    /// Speculation policy.
    pub config: SpecConfig,
    /// Core time a dying handler keeps its core busy between the kill and
    /// its `SquashRelease` (the kill latency). Deliberately *not* part of
    /// [`RunMetrics::squashed_core_time`] (which reproduces the paper's
    /// wasted-CPU attribution at kill time); tracked here so the
    /// conservation invariant `useful + squashed == busy` still closes.
    squash_kill_busy: SimDuration,
    /// `squash_kill_busy` value at tracer install / last end-of-run check.
    kill_busy_base: SimDuration,
    /// Live instances whose launch was speculative (registry-gated;
    /// pruned lazily at sample time). Feeds the in-flight-speculation
    /// gauge without touching the unconditional instance bookkeeping.
    spec_live: FxHashSet<InstanceId>,
    /// Cached `(inflight_spec_slots, memo_entries)` gauge instruments
    /// ([`specfaas_sim::MetricsRegistry::sample_interned`]): per-event
    /// sampling without a registry map walk.
    spec_gauge_h: (Option<GaugeHandle>, Option<GaugeHandle>),
    seqtable: SequenceTable,
    predictor: BranchPredictor,
    memos: MemoTables,
    stall_list: StallList,
    meta: FxHashMap<InstanceId, InstMeta>,
    /// Lazily squashed instances still running in the background.
    orphans: FxHashSet<InstanceId>,
    requests: FxHashMap<RequestId, Req>,
}

impl EngineCore for SpecCore {
    type Ev = Ev;
    // Lazy-squash orphans can still be live after the last closed-loop
    // request completes; the spec driver has always drained them so
    // their events cannot leak into a later run. (The baseline has no
    // background work and never drained here — the flag preserves both
    // behaviors bit-identically.)
    const DRAIN_ON_CLOSED: bool = true;

    fn rt(&self) -> &Runtime<Ev> {
        &self.rt
    }

    fn rt_mut(&mut self) -> &mut Runtime<Ev> {
        &mut self.rt
    }

    fn arrival() -> Ev {
        Ev::Arrival
    }

    fn admit(&mut self, input: Value) -> RequestId {
        self.submit_request(input)
    }

    fn dispatch(&mut self, ev: Ev) {
        self.handle(ev);
    }

    fn request_live(&self, req: RequestId) -> bool {
        self.requests.contains_key(&req)
    }

    fn live_requests(&self) -> Vec<RequestId> {
        let mut live: Vec<RequestId> = self.requests.keys().copied().collect();
        live.sort(); // HashMap order is not deterministic
        live
    }

    fn abort(&mut self, req: RequestId) {
        self.abort_request(req);
    }

    fn stuck_requests(&self) -> Vec<String> {
        let mut ids: Vec<RequestId> = self.requests.keys().copied().collect();
        ids.sort(); // HashMap order is not deterministic
        ids.into_iter()
            .map(|rid| {
                let req = &self.requests[&rid];
                let slots: Vec<String> = req
                    .pipeline
                    .iter_order()
                    .map(|sid| {
                        let sl = req.pipeline.slot(sid).expect("live");
                        format!(
                            "{sid}:{:?}:{:?}(in={} spec={})",
                            sl.func,
                            sl.state,
                            sl.input.is_some(),
                            sl.input_speculative
                        )
                    })
                    .collect();
                format!(
                    "req {:?}: committing={:?} end={} slots=[{}] waiting={:?} stalls={} defhttp={} waitargs={:?}",
                    rid.0,
                    req.committing,
                    req.end_committed,
                    slots.join(", "),
                    req.waiting_callers,
                    req.stalled_reads.len(),
                    req.deferred_http.len(),
                    req.waiting_args.keys().collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    fn on_tracer_installed(&mut self) {
        self.kill_busy_base = self.squash_kill_busy;
    }

    fn take_unattributed_squash_busy(&mut self) -> SimDuration {
        let delta = self.squash_kill_busy - self.kill_busy_base;
        self.kill_busy_base = self.squash_kill_busy;
        delta
    }

    fn finalize_metrics(&self, m: &mut RunMetrics) {
        m.branch_hits = self.predictor.hit_rate();
        m.memo_hits = self.memos.hit_rate();
    }
}

impl SpecCore {
    /// Creates the speculative core for `app` under `config`, seeded
    /// with `seed`.
    pub fn new(app: Arc<AppSpec>, config: SpecConfig, seed: u64) -> Self {
        let functions = app.registry.len();
        let seqtable = SequenceTable::new(app.compiled.clone());
        SpecCore {
            rt: Runtime::new(app, seed),
            predictor: BranchPredictor::new(config.branch_confidence_window),
            memos: MemoTables::new(functions, config.memo_capacity),
            stall_list: StallList::new(config.stall_after_squashes),
            config,
            squash_kill_busy: SimDuration::ZERO,
            kill_busy_base: SimDuration::ZERO,
            spec_live: FxHashSet::default(),
            spec_gauge_h: (None, None),
            seqtable,
            meta: FxHashMap::default(),
            orphans: FxHashSet::default(),
            requests: FxHashMap::default(),
        }
    }

    /// The branch predictor (for hit-rate reporting).
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// The memoization tables (for hit-rate and size reporting).
    pub fn memos(&self) -> &MemoTables {
        &self.memos
    }

    /// The stall list (for squash-minimization statistics).
    pub fn stall_list(&self) -> &StallList {
        &self.stall_list
    }

    /// Samples every occupancy gauge at the current sim-time. Called after
    /// each handled event; one branch when the registry is disabled. The
    /// registry collapses consecutive duplicate values, so steady states
    /// cost one stored sample regardless of event volume.
    fn sample_gauges(&mut self) {
        if !self.rt.registry.enabled() {
            return;
        }
        let now = self.rt.sim.now();
        self.rt.sample_cluster_gauges(now);
        self.spec_live
            .retain(|id| self.rt.instances.contains_key(id));
        self.rt.registry.sample_interned(
            &mut self.spec_gauge_h.0,
            now,
            "specfaas_inflight_spec_slots",
            "",
            "",
            self.spec_live.len() as u64,
        );
        self.rt.registry.sample_interned(
            &mut self.spec_gauge_h.1,
            now,
            "specfaas_memo_entries",
            "",
            "",
            self.memos.total_entries() as u64,
        );
        self.rt.sample_kv_gauge(now);
    }

    // ------------------------------------------------------------------
    // Request lifecycle
    // ------------------------------------------------------------------

    fn submit_request(&mut self, input: Value) -> RequestId {
        let id = self.rt.alloc_req();
        let ctrl = self.rt.cluster.pick_controller();
        let now = self.rt.sim.now();
        let mut req = Req {
            arrived: now,
            ctrl,
            measured: now >= self.rt.measure_from,
            pipeline: Pipeline::new(),
            buffer: DataBuffer::new(),
            slot_inst: FxHashMap::default(),
            call_state: FxHashMap::default(),
            waiting_callers: FxHashMap::default(),
            waiting_args: FxHashMap::default(),
            stalled_reads: Vec::new(),
            deferred_http: FxHashMap::default(),
            extended: FxHashSet::default(),
            slot_cpu: FxHashMap::default(),
            fork_joins: FxHashMap::default(),
            call_records: Vec::new(),
            committing: None,
            attempts: FxHashMap::default(),
            retry_hold: FxHashSet::default(),
            observed: Vec::new(),
            branches: Vec::new(),
            committed_sequence: Vec::new(),
            functions_run: 0,
            functions_squashed: 0,
            end_committed: false,
            completed: false,
        };
        let start = self.seqtable.start();
        let func = self.seqtable.func_at(start);
        let slot =
            req.pipeline
                .push_back(func, SlotRole::Entry { entry: start }, PathHistory::start());
        {
            let s = req.pipeline.slot_mut(slot).expect("fresh slot");
            s.input = Some(input);
            s.non_speculative = self.rt.app.registry.spec(func).annotations.non_speculative;
        }
        self.requests.insert(id, req);
        self.rt
            .record(now, TraceEventKind::RequestArrival { req: id.0 });
        // Predict the start function's output so extension can speculate
        // past it immediately.
        self.refresh_prediction(id, slot);
        self.pump(id);
        id
    }

    // ------------------------------------------------------------------
    // Drivers
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival => harness::handle_arrival(self),
            Ev::Launch(id) => self.rt.on_launch(id),
            Ev::ContainerReady(id) => self.rt.try_start(id),
            Ev::Resume(id, v) => self.on_resume(id, v),
            Ev::CommitApply(req, slot) => self.on_commit_apply(req, slot),
            Ev::SquashRelease(id, reusable) => self.on_squash_release(id, reusable),
            Ev::Complete(req) => self.on_complete(req),
            Ev::KvRetry(id, op, attempt) => self.on_kv_retry(id, op, attempt),
            Ev::RetrySlot(req, slot) => self.on_retry_slot(req, slot),
            Ev::Timeout(id) => self.on_timeout(id),
        }
        // Gauges observe post-event state; a disabled registry makes this
        // a single branch.
        self.sample_gauges();
    }

    /// Re-issues a KV operation after its storage backoff. The
    /// instance may have been squashed in the meantime, in which case
    /// the retry is dropped.
    fn on_kv_retry(&mut self, id: InstanceId, op: KvOp, attempt: u32) {
        let Some(meta) = self.meta.get(&id) else {
            return;
        };
        let (req_id, slot_id) = (meta.req, meta.slot);
        match op {
            KvOp::Get { key } => self.handle_get(req_id, slot_id, id, key, attempt),
            KvOp::Set { key, value } => self.handle_set(req_id, slot_id, id, key, value, attempt),
        }
    }
}

mod commit;
mod dispatch;
mod exec;
mod squash;

#[cfg(test)]
mod tests;
