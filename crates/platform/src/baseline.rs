//! The baseline execution engine: conventional OpenWhisk-style workflow
//! execution, against which SpecFaaS is compared.
//!
//! Semantics reproduced from §II-B and §III:
//!
//! * Functions execute strictly sequentially: a function is only scheduled
//!   once its control and data dependences are resolved.
//! * Every function launch pays *Platform Overhead* (front-end/controller/
//!   worker communication plus queued controller service).
//! * Every workflow transition pays *Transfer Function Overhead* (worker→
//!   controller communication plus queued conductor execution for explicit
//!   workflows; an RPC hop for implicit calls).
//! * A caller in an implicit workflow blocks — holding its core — while a
//!   callee runs (Fig. 10(d)).
//! * Cold containers pay container creation + runtime setup; warm
//!   containers fork a handler instantly.

use specfaas_sim::hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

use specfaas_sim::trace::{Phase, TraceEventKind};
use specfaas_sim::FaultSite;
use specfaas_sim::{SimDuration, SimTime};
use specfaas_storage::Value;
use specfaas_workflow::{AppSpec, Effect, EntryKind, FuncId};

use crate::cluster::NodeId;
use crate::container::ContainerAcquire;
use crate::exec::{FnInstance, InstanceId, InstanceState};
use crate::harness::{self, EngineCore, Harness, Runtime};
use crate::metrics::{InvocationRecord, RequestOutcome};
use crate::workload::RequestId;

/// Events of the baseline engine (exposed only as the [`EngineCore::Ev`]
/// associated type).
#[doc(hidden)]
#[derive(Debug)]
pub enum Ev {
    /// A new application request arrives (the generator re-arms itself).
    Arrival,
    /// Platform overhead paid; acquire container + core for the instance.
    Launch(InstanceId),
    /// Cold start finished; acquire a core.
    ContainerReady(InstanceId),
    /// The instance's pending effect completed; step the interpreter.
    Resume(InstanceId, Option<Value>),
    /// Transfer overhead paid; launch workflow entry `entry` of `req` with
    /// the given payload. `from` is the entry that produced the payload:
    /// parallel joins use it to merge branch outputs in declaration order
    /// (compile order), not arrival order, so the merged document is
    /// independent of branch timing — exactly like the speculative
    /// engine's in-order pipeline commit.
    Transfer {
        req: RequestId,
        from: usize,
        entry: usize,
        payload: Value,
    },
    /// Backoff after a transient KV fault elapsed; retry the operation.
    KvRetry(InstanceId, KvOp, u32),
    /// Backoff after an instance fault elapsed; relaunch the function.
    Retry {
        /// The request being retried.
        req: RequestId,
        ctx: InstCtx,
        func: FuncId,
        input: Value,
        attempt: u32,
    },
    /// Invocation watchdog fired for the instance.
    Timeout(InstanceId),
    /// Final response delivered to the client.
    Complete(RequestId),
}

/// A storage operation being retried across transient KV faults.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum KvOp {
    Get { key: String },
    Set { key: String, value: Value },
}

/// Why an instance exists: a workflow-entry cursor or an implicit callee.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub enum InstCtx {
    /// Executes workflow entry `entry` of request `req`.
    Entry { req: RequestId, entry: usize },
    /// Executes a subroutine call on behalf of `caller`.
    Callee { req: RequestId, caller: InstanceId },
}

#[derive(Debug)]
struct JoinState {
    need: u32,
    /// `(source entry, payload)` pairs; sorted by source entry at merge
    /// time so the joined list follows branch declaration order.
    outputs: Vec<(usize, Value)>,
}

#[derive(Debug)]
struct ReqState {
    arrived: SimTime,
    ctrl: NodeId,
    /// Number of workflow cursors in flight (forks add, joins subtract).
    cursors: u32,
    joins: FxHashMap<usize, JoinState>,
    functions_run: u32,
    sequence: Vec<u32>,
    /// Output of the last cursor to finish (the response payload).
    last_output: Value,
    /// Counted toward metrics (arrived inside the measurement window)?
    measured: bool,
}

/// The baseline (conventional OpenWhisk) engine for one application: the
/// generic [`Harness`] driving a [`BaselineCore`].
///
/// # Example
///
/// ```no_run
/// use specfaas_platform::{BaselineCore, BaselineEngine};
/// # fn app() -> specfaas_workflow::AppSpec { unimplemented!() }
/// let mut engine = BaselineEngine::new(BaselineCore::new(std::sync::Arc::new(app()), 42));
/// engine.prewarm();
/// let metrics = engine.run_closed(100, |_rng| specfaas_storage::Value::Null);
/// println!("mean response: {:.1} ms", metrics.mean_response_ms());
/// ```
pub type BaselineEngine = Harness<BaselineCore>;

/// The baseline engine core: strictly sequential function scheduling on
/// top of the shared [`Runtime`]. Load drivers and instrument attachment
/// live in the [`Harness`]; only baseline-specific policy state lives
/// here.
pub struct BaselineCore {
    /// Engine-agnostic runtime state (clock, RNG, cluster, KV, faults,
    /// tracer, registry, metrics, generation state).
    rt: Runtime<Ev>,
    /// Retry attempt the instance is executing (absent = first attempt).
    attempt_of: FxHashMap<InstanceId, u32>,
    /// Instances that have acquired a container (released on teardown).
    has_container: FxHashSet<InstanceId>,
    instances: FxHashMap<InstanceId, FnInstance>,
    ctxs: FxHashMap<InstanceId, InstCtx>,
    requests: FxHashMap<RequestId, ReqState>,
}

impl std::ops::Deref for BaselineCore {
    type Target = Runtime<Ev>;
    fn deref(&self) -> &Runtime<Ev> {
        &self.rt
    }
}

impl std::ops::DerefMut for BaselineCore {
    fn deref_mut(&mut self) -> &mut Runtime<Ev> {
        &mut self.rt
    }
}

impl EngineCore for BaselineCore {
    type Ev = Ev;

    // Leftover events after the last closed-loop request are kept, as the
    // historical baseline driver did (bit-identical refactor rule).
    const DRAIN_ON_CLOSED: bool = false;

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
        let mut stuck: Vec<RequestId> = self.requests.keys().copied().collect();
        stuck.sort(); // HashMap order is not deterministic
        stuck
    }

    fn abort(&mut self, req: RequestId) {
        self.abort_request(req);
    }

    fn live_instances(&self) -> usize {
        self.instances.len()
    }

    fn stuck_requests(&self) -> Vec<String> {
        let mut ids: Vec<RequestId> = self.requests.keys().copied().collect();
        ids.sort(); // HashMap order is not deterministic
        ids.into_iter()
            .map(|rid| {
                let req = &self.requests[&rid];
                let mut insts: Vec<InstanceId> = self
                    .ctxs
                    .iter()
                    .filter(|(_, c)| {
                        matches!(
                            c,
                            InstCtx::Entry { req: r, .. } | InstCtx::Callee { req: r, .. }
                                if *r == rid
                        )
                    })
                    .map(|(id, _)| *id)
                    .collect();
                insts.sort();
                let insts: Vec<String> = insts
                    .into_iter()
                    .map(|id| match self.instances.get(&id) {
                        Some(i) => format!("{}:{:?}:{:?}", id.0, i.func, i.state),
                        None => format!("{}:<pending>", id.0),
                    })
                    .collect();
                format!(
                    "req {}: cursors={} run={} joins={} insts=[{}]",
                    rid.0,
                    req.cursors,
                    req.functions_run,
                    req.joins.len(),
                    insts.join(", "),
                )
            })
            .collect()
    }
}

impl BaselineCore {
    /// Creates the baseline core for `app`, seeded with `seed`.
    pub fn new(app: Arc<AppSpec>, seed: u64) -> Self {
        BaselineCore {
            rt: Runtime::new(app, seed),
            attempt_of: FxHashMap::default(),
            has_container: FxHashSet::default(),
            instances: FxHashMap::default(),
            ctxs: FxHashMap::default(),
            requests: FxHashMap::default(),
        }
    }

    /// Samples every gauge at the current simulated time (post-event
    /// state). A disabled registry makes this a single branch.
    fn sample_gauges(&mut self) {
        if !self.rt.registry.enabled() {
            return;
        }
        let now = self.rt.sim.now();
        self.rt.sample_cluster_gauges(now);
        self.rt.sample_kv_gauge(now);
    }

    /// Request the instance works for, for trace labelling (`u64::MAX`
    /// when the context is already gone).
    fn req_of(&self, id: InstanceId) -> u64 {
        match self.ctxs.get(&id) {
            Some(InstCtx::Entry { req, .. }) | Some(InstCtx::Callee { req, .. }) => req.0,
            None => u64::MAX,
        }
    }

    /// Submits one request at the current simulated time.
    fn submit_request(&mut self, input: Value) -> RequestId {
        let id = self.rt.alloc_req();
        let ctrl = self.rt.cluster.pick_controller();
        let now = self.rt.sim.now();
        self.requests.insert(
            id,
            ReqState {
                arrived: now,
                ctrl,
                cursors: 1,
                joins: FxHashMap::default(),
                functions_run: 0,
                sequence: Vec::new(),
                last_output: Value::Null,
                measured: now >= self.rt.measure_from,
            },
        );
        self.rt
            .record(now, TraceEventKind::RequestArrival { req: id.0 });
        let start = self.rt.app.compiled.start;
        // The workflow start is never a join target, so `from` is moot.
        self.launch_entry(id, start, usize::MAX, input);
        id
    }

    /// Starts the platform-overhead phase for a workflow entry. `from` is
    /// the entry whose output `payload` is (joins merge by it).
    fn launch_entry(&mut self, req: RequestId, entry: usize, from: usize, payload: Value) {
        // Parallel join entries only run once all branches arrive.
        let arity = self.rt.app.compiled.entries[entry].join_arity;
        if arity > 1 {
            let state = self.requests.get_mut(&req).expect("live request");
            let join = state.joins.entry(entry).or_insert(JoinState {
                need: arity,
                outputs: Vec::new(),
            });
            join.outputs.push((from, payload));
            if (join.outputs.len() as u32) < join.need {
                // This cursor merges into the join.
                state.cursors -= 1;
                return;
            }
            let mut outputs = state.joins.remove(&entry).expect("join present").outputs;
            // Declaration order, not arrival order: branch entries are
            // compiled in declaration order, so sorting by source entry
            // makes the merge independent of branch completion timing.
            outputs.sort_by_key(|(from, _)| *from);
            let merged: Vec<Value> = outputs.into_iter().map(|(_, v)| v).collect();
            let merged = Value::List(merged.into());
            // Earlier arrivals already merged their cursors; the final
            // arrival continues as the single join cursor.
            self.spawn_function(req, InstCtx::Entry { req, entry }, merged);
            return;
        }
        self.spawn_function(req, InstCtx::Entry { req, entry }, payload);
    }

    /// Creates the instance and charges platform overhead.
    fn spawn_function(&mut self, req: RequestId, ctx: InstCtx, input: Value) {
        let func = match &ctx {
            InstCtx::Entry { entry, .. } => self.rt.app.compiled.entries[*entry].func,
            InstCtx::Callee { .. } => unreachable!("callee spawns go through spawn_callee"),
        };
        self.spawn_named(req, ctx, func, input);
    }

    fn spawn_named(
        &mut self,
        req: RequestId,
        ctx: InstCtx,
        func: FuncId,
        input: Value,
    ) -> InstanceId {
        let now = self.rt.sim.now();
        let ctrl = self.requests[&req].ctrl;
        let delay = self.rt.model.platform_fixed
            + self
                .rt
                .cluster
                .controller_delay(ctrl, now, self.rt.model.controller_service);
        let id = self.alloc_inst();
        let node = self.rt.cluster.pick_node(func);
        let program = self.rt.app.registry.spec(func).program.clone();
        let child_rng = self.rt.rng.split();
        let mut inst = FnInstance::new(id, func, node, &program, input, child_rng, now);
        inst.breakdown.platform = delay;
        self.instances.insert(id, inst);
        self.ctxs.insert(id, ctx);
        if let Some(r) = self.requests.get_mut(&req) {
            r.functions_run += 1;
        }
        self.rt.record(
            now,
            TraceEventKind::SlotLaunch {
                req: req.0,
                slot: id.0,
                func: func.0,
                speculative: false,
            },
        );
        if self.rt.tracer.enabled() {
            self.rt.tracer.emit(
                now,
                TraceEventKind::Span {
                    req: req.0,
                    func: func.0,
                    node: node.0 as u32,
                    phase: Phase::Platform,
                    end: now + delay,
                },
            );
        }
        self.rt.sim.schedule_in(delay, Ev::Launch(id));
        // Invocation watchdog: the only recovery path for a hung handler.
        if let Some(t) = self.rt.retry.invocation_timeout {
            self.rt.sim.schedule_in(t, Ev::Timeout(id));
        }
        id
    }

    /// Handles container acquisition after platform overhead.
    fn on_launch(&mut self, id: InstanceId) {
        // The instance may have been torn down by a fault while the
        // launch overhead was in flight.
        let Some(inst) = self.instances.get_mut(&id) else {
            return;
        };
        let node = inst.node;
        let func = inst.func;
        self.has_container.insert(id);
        let now = self.rt.sim.now();
        let acquired = self
            .rt
            .cluster
            .acquire_container(node, func, now, &self.rt.model);
        let req = self.req_of(id);
        self.rt.record(
            now,
            TraceEventKind::ContainerAcquire {
                req,
                func: func.0,
                node: node.0 as u32,
                cold: matches!(acquired, ContainerAcquire::Cold(_)),
            },
        );
        match acquired {
            ContainerAcquire::Warm => self.try_start(id),
            ContainerAcquire::Cold(d) => {
                let inst = self.instances.get_mut(&id).expect("live instance");
                inst.breakdown.container_creation = self.rt.model.container_creation;
                inst.breakdown.runtime_setup = self.rt.model.runtime_setup;
                inst.state = InstanceState::ColdStarting;
                if self.rt.tracer.enabled() {
                    let cc = if self.rt.model.container_creation < d {
                        self.rt.model.container_creation
                    } else {
                        d
                    };
                    self.rt.tracer.emit(
                        now,
                        TraceEventKind::Span {
                            req,
                            func: func.0,
                            node: node.0 as u32,
                            phase: Phase::ContainerCreation,
                            end: now + cc,
                        },
                    );
                    if cc < d {
                        self.rt.tracer.emit(
                            now + cc,
                            TraceEventKind::Span {
                                req,
                                func: func.0,
                                node: node.0 as u32,
                                phase: Phase::RuntimeSetup,
                                end: now + d,
                            },
                        );
                    }
                }
                self.rt.sim.schedule_in(d, Ev::ContainerReady(id));
            }
        }
    }

    /// Acquires a core or queues for one.
    fn try_start(&mut self, id: InstanceId) {
        let now = self.rt.sim.now();
        let Some(inst) = self.instances.get_mut(&id) else {
            return;
        };
        let node = inst.node;
        if self.rt.cluster.node_mut(node).cores.try_acquire(now) {
            inst.state = InstanceState::Running;
            inst.started_at = Some(now);
            self.rt.sim.schedule_now(Ev::Resume(id, None));
        } else {
            inst.state = InstanceState::WaitingCore;
            self.rt.cluster.node_mut(node).cores.enqueue(id);
        }
    }

    /// Releases the caller's execution slot while it blocks.
    fn block_instance(&mut self, id: InstanceId) {
        let now = self.rt.sim.now();
        let Some(inst) = self.instances.get_mut(&id) else {
            return;
        };
        if inst.state != InstanceState::Running {
            return;
        }
        if let Some(start) = inst.started_at.take() {
            inst.accumulated_core += now - start;
            if self.rt.tracer.enabled() {
                let (func, node) = (inst.func.0, inst.node.0 as u32);
                self.rt.tracer.emit(
                    start,
                    TraceEventKind::Span {
                        req: match self.ctxs.get(&id) {
                            Some(InstCtx::Entry { req, .. })
                            | Some(InstCtx::Callee { req, .. }) => req.0,
                            None => u64::MAX,
                        },
                        func,
                        node,
                        phase: Phase::Execution,
                        end: now,
                    },
                );
            }
        }
        inst.state = InstanceState::Blocked;
        let node = inst.node;
        if let Some(next) = self.rt.cluster.node_mut(node).cores.release(now) {
            self.grant_core(next, now);
        }
    }

    /// Hands a freed slot to a queued instance and starts/resumes it.
    fn grant_core(&mut self, next: InstanceId, now: SimTime) {
        if let Some(w) = self.instances.get_mut(&next) {
            w.state = InstanceState::Running;
            w.started_at = Some(now);
            let resume = w.pending_resume.take().unwrap_or(None);
            self.rt.sim.schedule_now(Ev::Resume(next, resume));
        }
    }

    /// Steps the interpreter and schedules the effect's completion.
    fn on_resume(&mut self, id: InstanceId, resume: Option<Value>) {
        // A blocked instance must re-acquire an execution slot first.
        let now = self.rt.sim.now();
        if self
            .instances
            .get(&id)
            .map(|i| i.state == InstanceState::Blocked)
            .unwrap_or(false)
        {
            let inst = self.instances.get_mut(&id).expect("live");
            let node = inst.node;
            if self.rt.cluster.node_mut(node).cores.try_acquire(now) {
                let inst = self.instances.get_mut(&id).expect("live");
                inst.state = InstanceState::Running;
                inst.started_at = Some(now);
                // fall through and step with the resume value
            } else {
                let inst = self.instances.get_mut(&id).expect("live");
                inst.pending_resume = Some(resume);
                inst.state = InstanceState::WaitingCore;
                self.rt.cluster.node_mut(node).cores.enqueue(id);
                return;
            }
        }
        // Fault injection at the step boundary: the handler's container
        // crashes, or the handler wedges (hang) and stops making progress.
        // Only before the handler externalizes a write: the baseline
        // applies writes eagerly, so a retry of a partially externalized
        // handler would double-apply non-idempotent effects. We model
        // crashes as fail-stop before the point of no return (real
        // platforms demand idempotent handlers for at-least-once retry).
        if self.rt.faults.enabled()
            && self
                .instances
                .get(&id)
                .map(|i| !i.externalized)
                .unwrap_or(false)
        {
            if self.rt.faults.roll(FaultSite::ContainerCrash, now) {
                let req = self.req_of(id);
                self.rt.record(
                    now,
                    TraceEventKind::FaultInjected {
                        req,
                        site: "container_crash",
                    },
                );
                self.fault_instance(id);
                return;
            }
            if self.rt.faults.roll(FaultSite::Hang, now) {
                let req = self.req_of(id);
                self.rt
                    .record(now, TraceEventKind::FaultInjected { req, site: "hang" });
                // The wedged handler keeps its core and container but
                // schedules nothing further; only the invocation
                // watchdog (if configured) can recover it.
                return;
            }
        }
        let Some(inst) = self.instances.get_mut(&id) else {
            return; // squashed / stale event
        };
        let effect = match inst.step(resume) {
            Ok(e) => e,
            Err(err) => {
                // A failed invocation: treat as completing with an error
                // document so the workflow can proceed deterministically.
                let out = Value::map([("error", Value::str(err.to_string()))]);
                self.finish_instance(id, out);
                return;
            }
        };
        match effect {
            Effect::Compute(d) => {
                inst.breakdown.execution += d;
                self.rt.sim.schedule_in(d, Ev::Resume(id, None));
            }
            Effect::Get { key } => self.kv_access(id, KvOp::Get { key }, 1),
            Effect::Set { key, value } => self.kv_access(id, KvOp::Set { key, value }, 1),
            Effect::Http { .. } => {
                let lat = self.rt.model.http_latency;
                inst.breakdown.execution += lat;
                self.rt.sim.schedule_in(lat, Ev::Resume(id, None));
            }
            Effect::FileWrite { name, data } => {
                inst.files.insert(name, data);
                self.rt.sim.schedule_now(Ev::Resume(id, None));
            }
            Effect::FileRead { name } => {
                let v = inst.files.get(&name).cloned().unwrap_or(Value::Null);
                self.rt.sim.schedule_now(Ev::Resume(id, Some(v)));
            }
            Effect::Call { func, args } => {
                // Implicit workflow: spawn the callee; the caller blocks
                // holding its core (Fig. 10(d)).
                let (InstCtx::Entry { req, .. } | InstCtx::Callee { req, .. }) = self.ctxs[&id];
                // The caller's handler blocks on the RPC; the OS yields
                // its hardware thread (the container slot stays held).
                self.block_instance(id);
                match self.rt.app.registry.lookup(&func) {
                    Some(callee) => {
                        self.spawn_named(req, InstCtx::Callee { req, caller: id }, callee, args);
                    }
                    None => {
                        // Unknown callee: resolve to Null after an RPC hop.
                        self.rt.sim.schedule_in(
                            self.rt.model.transfer_fixed,
                            Ev::Resume(id, Some(Value::Null)),
                        );
                    }
                }
            }
            Effect::Done(out) => {
                inst.state = InstanceState::Done;
                inst.output = Some(out.clone());
                self.finish_instance(id, out);
            }
        }
    }

    /// Releases resources and routes the output onward.
    fn finish_instance(&mut self, id: InstanceId, output: Value) {
        let now = self.rt.sim.now();
        let inst = self.instances.remove(&id).expect("live instance");
        let ctx = self.ctxs.remove(&id).expect("instance context");
        self.attempt_of.remove(&id);
        self.has_container.remove(&id);
        // Account useful core time and release the slot.
        if let Some(start) = inst.started_at {
            self.rt.metrics.useful_core_time += inst.accumulated_core + (now - start);
            if self.rt.tracer.enabled() {
                let req = match &ctx {
                    InstCtx::Entry { req, .. } | InstCtx::Callee { req, .. } => req.0,
                };
                self.rt.tracer.emit(
                    start,
                    TraceEventKind::Span {
                        req,
                        func: inst.func.0,
                        node: inst.node.0 as u32,
                        phase: Phase::Execution,
                        end: now,
                    },
                );
            }
            if let Some(next) = self.rt.cluster.node_mut(inst.node).cores.release(now) {
                self.grant_core(next, now);
            }
        }
        self.rt
            .cluster
            .release_container(inst.node, inst.func, now, true);
        self.rt.metrics.breakdowns.push(inst.breakdown);

        match ctx {
            InstCtx::Entry { req, entry } => {
                let Some(state) = self.requests.get_mut(&req) else {
                    return;
                };
                state.sequence.push(inst.func.0);
                state.last_output = output.clone();
                let ctrl = state.ctrl;
                // Conductor / transfer overhead for the next transition.
                let transfer = self.rt.model.transfer_fixed
                    + self
                        .rt
                        .cluster
                        .controller_delay(ctrl, now, self.rt.model.conductor_service);
                match self.rt.app.compiled.entries[entry].kind.clone() {
                    EntryKind::Simple { next } => match next {
                        Some(n) => {
                            self.charge_transfer(id, transfer);
                            self.rt.sim.schedule_in(
                                transfer,
                                Ev::Transfer {
                                    req,
                                    from: entry,
                                    entry: n,
                                    payload: output,
                                },
                            );
                        }
                        None => self.cursor_done(req),
                    },
                    EntryKind::Branch {
                        field,
                        taken,
                        not_taken,
                    } => {
                        let cond = match &field {
                            Some(f) => output.get_field(f).cloned().unwrap_or(Value::Null),
                            None => output.clone(),
                        };
                        let target = if cond.truthy() { taken } else { not_taken };
                        match target {
                            Some(n) => {
                                // Branch functions route: the selected
                                // target receives the branch's *input*
                                // payload (§VIII-B: successors of a branch
                                // take the same input as the branch).
                                let payload = inst.interp.input().clone();
                                self.charge_transfer(id, transfer);
                                self.rt.sim.schedule_in(
                                    transfer,
                                    Ev::Transfer {
                                        req,
                                        from: entry,
                                        entry: n,
                                        payload,
                                    },
                                );
                            }
                            None => self.cursor_done(req),
                        }
                    }
                    EntryKind::Fork { branches, join: _ } => {
                        let state = self.requests.get_mut(&req).expect("live request");
                        state.cursors += branches.len() as u32 - 1;
                        self.charge_transfer(id, transfer);
                        for b in branches {
                            self.rt.sim.schedule_in(
                                transfer,
                                Ev::Transfer {
                                    req,
                                    from: entry,
                                    entry: b,
                                    payload: output.clone(),
                                },
                            );
                        }
                    }
                }
            }
            InstCtx::Callee { req, caller } => {
                if let Some(state) = self.requests.get_mut(&req) {
                    state.sequence.push(inst.func.0);
                }
                // RPC return hop, then resume the blocked caller.
                self.rt.sim.schedule_in(
                    self.rt.model.transfer_fixed,
                    Ev::Resume(caller, Some(output)),
                );
            }
        }
    }

    fn charge_transfer(&mut self, _id: InstanceId, transfer: SimDuration) {
        // Transfer time is attributed at the request level via breakdowns
        // of subsequent launches; record it on the last pushed breakdown.
        if let Some(b) = self.rt.metrics.breakdowns.last_mut() {
            b.transfer += transfer;
        }
    }

    // ------------------------------------------------------------------
    // Fault handling: transient KV retries, instance retries, aborts
    // ------------------------------------------------------------------

    /// Performs a storage operation, rolling for a transient KV fault
    /// first. A faulted operation retries after exponential backoff;
    /// exhausting the retry budget escalates to an instance fault.
    fn kv_access(&mut self, id: InstanceId, op: KvOp, attempt: u32) {
        if !self.instances.contains_key(&id) {
            return; // instance torn down while a retry was pending
        }
        let now = self.rt.sim.now();
        let site = match &op {
            KvOp::Get { .. } => FaultSite::KvGet,
            KvOp::Set { .. } => FaultSite::KvSet,
        };
        if self.rt.faults.enabled() && self.rt.faults.roll(site, now) {
            let site = match &op {
                KvOp::Get { .. } => "kv_get",
                KvOp::Set { .. } => "kv_set",
            };
            let req = self.req_of(id);
            self.rt
                .record(now, TraceEventKind::FaultInjected { req, site });
            if attempt >= self.rt.retry.max_attempts {
                self.fault_instance(id);
                return;
            }
            let backoff = self.rt.retry.backoff(attempt);
            if let Some(inst) = self.instances.get_mut(&id) {
                inst.breakdown.retry_backoff += backoff;
            }
            let func = self
                .instances
                .get(&id)
                .map(|i| i.func.0)
                .unwrap_or(u32::MAX);
            self.rt.record(
                now,
                TraceEventKind::RetryBackoff {
                    req,
                    func,
                    attempt: attempt + 1,
                    backoff,
                },
            );
            self.rt.metrics.faults.retried += 1;
            self.rt
                .sim
                .schedule_in(backoff, Ev::KvRetry(id, op, attempt + 1));
            return;
        }
        match op {
            KvOp::Get { key } => {
                let lat = self.rt.kv.latency().read;
                let val = self.rt.kv.get(&key).cloned().unwrap_or(Value::Null);
                if let Some(inst) = self.instances.get_mut(&id) {
                    inst.breakdown.execution += lat;
                }
                self.rt.kv_issued(now + lat, false);
                self.rt.sim.schedule_in(lat, Ev::Resume(id, Some(val)));
            }
            KvOp::Set { key, value } => {
                let lat = self.rt.kv.latency().write;
                self.rt.kv.set(key, value);
                if let Some(inst) = self.instances.get_mut(&id) {
                    inst.breakdown.execution += lat;
                    inst.externalized = true;
                }
                self.rt.kv_issued(now + lat, true);
                // Retrying a caller replays its whole call subtree, so a
                // callee's write externalizes every transitive caller too.
                let mut cur = id;
                while let Some(InstCtx::Callee { caller, .. }) = self.ctxs.get(&cur) {
                    let caller = *caller;
                    if let Some(ci) = self.instances.get_mut(&caller) {
                        ci.externalized = true;
                    }
                    cur = caller;
                }
                self.rt.sim.schedule_in(lat, Ev::Resume(id, None));
            }
        }
    }

    /// Force-removes an instance that died (crash, hang timeout,
    /// exhausted KV retries, or request abort), releasing whatever core
    /// slot, queue position and container it holds. Its container is not
    /// reusable: the handler did not exit cleanly.
    fn teardown_instance(&mut self, id: InstanceId) -> Option<FnInstance> {
        let now = self.rt.sim.now();
        let inst = self.instances.remove(&id)?;
        let charge_req = self.req_of(id);
        match inst.state {
            InstanceState::Running => {
                let wasted = inst.accumulated_core
                    + inst
                        .started_at
                        .map(|s| now - s)
                        .unwrap_or(SimDuration::ZERO);
                self.rt
                    .charge_squashed(charge_req, inst.func, "teardown", 0, wasted);
                if self.rt.tracer.enabled() {
                    if let Some(s) = inst.started_at {
                        let req = self.req_of(id);
                        self.rt.tracer.emit(
                            s,
                            TraceEventKind::Span {
                                req,
                                func: inst.func.0,
                                node: inst.node.0 as u32,
                                phase: Phase::Execution,
                                end: now,
                            },
                        );
                    }
                }
                if inst.started_at.is_some() {
                    if let Some(next) = self.rt.cluster.node_mut(inst.node).cores.release(now) {
                        self.grant_core(next, now);
                    }
                }
            }
            InstanceState::Blocked => {
                self.rt.charge_squashed(
                    charge_req,
                    inst.func,
                    "teardown",
                    0,
                    inst.accumulated_core,
                );
            }
            InstanceState::WaitingCore => {
                // Past blocked stints count as wasted work even though no
                // core is held at teardown time.
                self.rt.charge_squashed(
                    charge_req,
                    inst.func,
                    "teardown",
                    0,
                    inst.accumulated_core,
                );
                self.rt
                    .cluster
                    .node_mut(inst.node)
                    .cores
                    .remove_waiter(|w| *w == id);
            }
            _ => {}
        }
        if self.has_container.remove(&id) {
            self.rt
                .cluster
                .release_container(inst.node, inst.func, now, false);
        }
        Some(inst)
    }

    /// An instance suffered an unrecoverable-in-place fault: tear it
    /// down, then relaunch the same function after backoff — or abort
    /// the whole request once the retry budget is exhausted.
    fn fault_instance(&mut self, id: InstanceId) {
        let Some(inst) = self.teardown_instance(id) else {
            return;
        };
        let Some(ctx) = self.ctxs.remove(&id) else {
            return;
        };
        let attempt = self.attempt_of.remove(&id).unwrap_or(1);
        let req = match &ctx {
            InstCtx::Entry { req, .. } | InstCtx::Callee { req, .. } => *req,
        };
        if !self.requests.contains_key(&req) {
            return; // request already aborted
        }
        if attempt >= self.rt.retry.max_attempts {
            self.abort_request(req);
            return;
        }
        self.rt.metrics.faults.retried += 1;
        let input = inst.interp.input().clone();
        let now = self.rt.sim.now();
        self.rt.record(
            now,
            TraceEventKind::RetryBackoff {
                req: req.0,
                func: inst.func.0,
                attempt: attempt + 1,
                backoff: self.rt.retry.backoff(attempt),
            },
        );
        self.rt.sim.schedule_in(
            self.rt.retry.backoff(attempt),
            Ev::Retry {
                req,
                ctx,
                func: inst.func,
                input,
                attempt: attempt + 1,
            },
        );
    }

    /// Invocation watchdog: a handler still live past the timeout is
    /// treated as hung and goes through the instance fault path. A
    /// blocked caller (legitimately waiting on a live callee) gets its
    /// watchdog re-armed instead of killed.
    fn on_timeout(&mut self, id: InstanceId) {
        let Some(inst) = self.instances.get(&id) else {
            return;
        };
        if !self.ctxs.contains_key(&id) {
            return;
        }
        match inst.state {
            InstanceState::Done => {}
            InstanceState::Blocked => {
                if let Some(t) = self.rt.retry.invocation_timeout {
                    self.rt.sim.schedule_in(t, Ev::Timeout(id));
                }
            }
            _ => {
                let now = self.rt.sim.now();
                let req = self.req_of(id);
                self.rt.record(
                    now,
                    TraceEventKind::FaultInjected {
                        req,
                        site: "timeout",
                    },
                );
                self.fault_instance(id);
            }
        }
    }

    /// Terminally fails a request after its retry budget is exhausted
    /// (or it wedged with no recovery path): tears down every instance
    /// still working for it and records a [`RequestOutcome::Failed`].
    fn abort_request(&mut self, req: RequestId) {
        let now = self.rt.sim.now();
        let Some(state) = self.requests.remove(&req) else {
            return;
        };
        let mut victims: Vec<InstanceId> = self
            .ctxs
            .iter()
            .filter(|(_, c)| {
                matches!(c, InstCtx::Entry { req: r, .. } | InstCtx::Callee { req: r, .. } if *r == req)
            })
            .map(|(id, _)| *id)
            .collect();
        victims.sort(); // HashMap order is not deterministic
        for id in victims {
            // Teardown first so trace spans can still resolve the request.
            self.teardown_instance(id);
            self.ctxs.remove(&id);
            self.attempt_of.remove(&id);
        }
        self.rt.record(
            now,
            TraceEventKind::Terminal {
                req: req.0,
                completed: false,
            },
        );
        if state.measured {
            self.rt.metrics.record_failure(InvocationRecord {
                arrived: state.arrived,
                completed: now,
                functions_run: state.functions_run,
                functions_squashed: 0,
                sequence: state.sequence,
                outcome: RequestOutcome::Failed,
            });
        } else {
            self.rt.metrics.faults.aborted += 1;
        }
        // Closed loop: the client observes the failure and issues its
        // next request.
        harness::closed_loop_resubmit(self);
    }

    /// One workflow cursor reached the end of the workflow.
    fn cursor_done(&mut self, req: RequestId) {
        let Some(state) = self.requests.get_mut(&req) else {
            return;
        };
        state.cursors -= 1;
        if state.cursors == 0 {
            self.rt
                .sim
                .schedule_in(self.rt.model.response_return, Ev::Complete(req));
        }
    }

    fn on_complete(&mut self, req: RequestId) {
        let now = self.rt.sim.now();
        let Some(state) = self.requests.remove(&req) else {
            return;
        };
        self.rt.record(
            now,
            TraceEventKind::Terminal {
                req: req.0,
                completed: true,
            },
        );
        if state.measured {
            self.rt.record_completion(InvocationRecord {
                arrived: state.arrived,
                completed: now,
                functions_run: state.functions_run,
                functions_squashed: 0,
                sequence: state.sequence,
                outcome: RequestOutcome::Completed,
            });
        }
        // Closed loop: this client immediately issues its next request.
        harness::closed_loop_resubmit(self);
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival => harness::handle_arrival(self),
            Ev::Launch(id) => self.on_launch(id),
            Ev::ContainerReady(id) => self.try_start(id),
            Ev::Resume(id, v) => self.on_resume(id, v),
            Ev::Transfer {
                req,
                from,
                entry,
                payload,
            } => {
                if self.requests.contains_key(&req) {
                    self.launch_entry(req, entry, from, payload);
                }
            }
            Ev::KvRetry(id, op, attempt) => self.kv_access(id, op, attempt),
            Ev::Retry {
                req,
                ctx,
                func,
                input,
                attempt,
            } => {
                if self.requests.contains_key(&req) {
                    let id = self.spawn_named(req, ctx, func, input);
                    self.attempt_of.insert(id, attempt);
                    let now = self.rt.sim.now();
                    self.rt.record(
                        now,
                        TraceEventKind::Replay {
                            req: req.0,
                            slot: id.0,
                        },
                    );
                }
            }
            Ev::Timeout(id) => self.on_timeout(id),
            Ev::Complete(req) => self.on_complete(req),
        }
        // Gauges observe post-event state; a disabled registry makes this
        // a single branch.
        self.sample_gauges();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_sim::{FaultPlan, RetryPolicy};
    use specfaas_workflow::expr::*;
    use specfaas_workflow::{FunctionRegistry, FunctionSpec, Program, Workflow};

    /// A three-function chain: a -> b -> c, each 5ms of compute; b doubles
    /// the running total read from its input.
    fn chain_app() -> AppSpec {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "a",
            Program::builder()
                .compute_ms(5)
                .ret(make_map([("v", lit(1i64))])),
        ));
        reg.register(FunctionSpec::new(
            "b",
            Program::builder()
                .compute_ms(5)
                .ret(make_map([("v", mul(field(input(), "v"), lit(2i64)))])),
        ));
        reg.register(FunctionSpec::new(
            "c",
            Program::builder()
                .compute_ms(5)
                .ret(make_map([("v", add(field(input(), "v"), lit(10i64)))])),
        ));
        AppSpec::new(
            "Chain",
            "Test",
            reg,
            Workflow::sequence(vec![
                Workflow::task("a"),
                Workflow::task("b"),
                Workflow::task("c"),
            ]),
        )
    }

    fn branch_app() -> AppSpec {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "cond",
            Program::builder()
                .compute_ms(2)
                .ret(make_map([("ok", gt(field(input(), "x"), lit(10i64)))])),
        ));
        reg.register(FunctionSpec::new(
            "yes",
            Program::builder().compute_ms(2).ret(lit("yes")),
        ));
        reg.register(FunctionSpec::new(
            "no",
            Program::builder().compute_ms(2).ret(lit("no")),
        ));
        AppSpec::new(
            "Branchy",
            "Test",
            reg,
            Workflow::when_field(
                "cond",
                "ok",
                Workflow::task("yes"),
                Some(Workflow::task("no")),
            ),
        )
    }

    fn implicit_app() -> AppSpec {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "leaf",
            Program::builder()
                .compute_ms(4)
                .ret(add(field(input(), "n"), lit(100i64))),
        ));
        reg.register(FunctionSpec::new(
            "root",
            Program::builder()
                .compute_ms(3)
                .call("leaf", make_map([("n", lit(1i64))]), "r1")
                .call("leaf", make_map([("n", lit(2i64))]), "r2")
                .compute_ms(3)
                .ret(make_list([var("r1"), var("r2")])),
        ));
        AppSpec::new("Implicit", "Test", reg, Workflow::task("root"))
    }

    #[test]
    fn warm_chain_completes_with_expected_shape() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        e.prewarm();
        let d = e.run_single(Value::Null);
        // 3 functions × (platform ~5.5ms + exec 5ms) + 2 transfers ~6.5ms
        // + response return 1ms ≈ 45ms; allow slack.
        assert!(d > SimDuration::from_millis(30), "too fast: {d}");
        assert!(d < SimDuration::from_millis(70), "too slow: {d}");
        assert_eq!(e.metrics.records.len(), 1);
        let rec = &e.metrics.records[0];
        assert_eq!(rec.sequence, vec![0, 1, 2]);
        assert_eq!(rec.functions_run, 3);
    }

    #[test]
    fn cold_chain_is_dominated_by_container_creation() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        // no prewarm
        let d = e.run_single(Value::Null);
        assert!(
            d > SimDuration::from_millis(3 * 1850),
            "3 cold starts expected: {d}"
        );
        assert_eq!(e.cluster.cold_starts(), 3);
    }

    #[test]
    fn second_invocation_reuses_warm_containers() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        let cold = e.run_single(Value::Null);
        let warm = e.run_single(Value::Null);
        assert!(warm < cold / 10);
        assert_eq!(e.cluster.cold_starts(), 3, "no new cold starts");
    }

    #[test]
    fn branch_takes_data_dependent_path() {
        let app = Arc::new(branch_app());
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::clone(&app), 1));
        e.prewarm();
        e.run_single(Value::map([("x", Value::Int(50))]));
        e.run_single(Value::map([("x", Value::Int(5))]));
        let yes = app.registry.lookup("yes").unwrap().0;
        let no = app.registry.lookup("no").unwrap().0;
        assert_eq!(e.metrics.records[0].sequence[1], yes);
        assert_eq!(e.metrics.records[1].sequence[1], no);
    }

    #[test]
    fn implicit_calls_block_caller_and_return_values() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(implicit_app()), 1));
        e.prewarm();
        let d = e.run_single(Value::Null);
        // Root compute 6ms + two callees 4ms each + overheads, strictly
        // sequential.
        assert!(d > SimDuration::from_millis(14), "too fast: {d}");
        let rec = &e.metrics.records[0];
        // Callees complete before the root.
        assert_eq!(rec.functions_run, 3);
        assert_eq!(rec.sequence.len(), 3);
        assert_eq!(*rec.sequence.last().unwrap(), 1, "root commits last");
    }

    #[test]
    fn parallel_fork_join_merges_outputs() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "pre",
            Program::builder().compute_ms(1).ret(lit(7i64)),
        ));
        reg.register(FunctionSpec::new(
            "b1",
            Program::builder()
                .compute_ms(1)
                .ret(add(input(), lit(1i64))),
        ));
        reg.register(FunctionSpec::new(
            "b2",
            Program::builder()
                .compute_ms(1)
                .ret(add(input(), lit(2i64))),
        ));
        reg.register(FunctionSpec::new(
            "join",
            Program::builder().compute_ms(1).ret(len(input())),
        ));
        let app = AppSpec::new(
            "Par",
            "Test",
            reg,
            Workflow::sequence(vec![
                Workflow::task("pre"),
                Workflow::parallel(vec![Workflow::task("b1"), Workflow::task("b2")]),
                Workflow::task("join"),
            ]),
        );
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(app), 3));
        e.prewarm();
        e.run_single(Value::Null);
        let rec = &e.metrics.records[0];
        assert_eq!(rec.functions_run, 4);
        // join sees a 2-element list; last committed function is join (id 3).
        assert_eq!(*rec.sequence.last().unwrap(), 3);
    }

    #[test]
    fn open_loop_run_completes_requests() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 5));
        e.prewarm();
        let m = e.run_open(
            50.0,
            SimDuration::from_secs(2),
            SimDuration::from_millis(200),
            |_| Value::Null,
        );
        assert!(m.completed > 50, "completed {}", m.completed);
        assert!(m.throughput_rps() > 30.0);
        assert!(m.mean_response_ms() > 10.0);
    }

    #[test]
    fn storage_effects_update_global_state() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "writer",
            Program::builder()
                .set(lit("shared"), lit(41i64))
                .ret(lit(true)),
        ));
        reg.register(FunctionSpec::new(
            "reader",
            Program::builder()
                .get(lit("shared"), "v")
                .ret(add(var("v"), lit(1i64))),
        ));
        let app = AppSpec::new(
            "RW",
            "Test",
            reg,
            Workflow::sequence(vec![Workflow::task("writer"), Workflow::task("reader")]),
        );
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(app), 1));
        e.prewarm();
        e.run_single(Value::Null);
        assert_eq!(e.kv.peek("shared"), Some(&Value::Int(41)));
        assert_eq!(e.requests.len(), 0, "request state cleaned up");
    }

    #[test]
    fn exec_fraction_matches_observation1() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        e.prewarm();
        e.run_single(Value::Null);
        let mean = crate::metrics::Breakdown::mean_of(&e.metrics.breakdowns);
        let frac = mean.execution_fraction();
        assert!(
            (0.25..=0.55).contains(&frac),
            "execution fraction {frac} out of plausible warm band"
        );
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    #[test]
    fn empty_fault_plan_is_bit_identical_to_disabled() {
        let run = |enable: bool| {
            let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 3));
            if enable {
                e.enable_faults(FaultPlan::none(), RetryPolicy::default());
            }
            e.prewarm();
            let m = e.run_concurrent(
                4,
                SimDuration::from_secs(1),
                SimDuration::from_millis(100),
                |_| Value::Null,
            );
            (
                m.completed,
                m.latency.mean_ms().to_bits(),
                m.useful_core_time,
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn crash_faults_retry_and_recover() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        e.enable_faults(
            FaultPlan::none().with_container_crash(0.15),
            RetryPolicy::default().with_max_attempts(10),
        );
        e.prewarm();
        let m = e.run_closed(20, |_| Value::Null);
        assert_eq!(m.completed, 20, "all requests survive with retries");
        assert_eq!(m.failed, 0);
        assert!(m.faults.crashes > 0, "crash faults should have fired");
        assert_eq!(m.faults.crashes, m.faults.retried);
        for r in &m.records {
            assert_eq!(r.sequence, vec![0, 1, 2]);
        }
    }

    #[test]
    fn exhausted_retries_abort_with_failed_outcome() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        e.enable_faults(
            FaultPlan::none().with_container_crash(1.0),
            RetryPolicy::default().with_max_attempts(2),
        );
        e.prewarm();
        let m = e.run_closed(3, |_| Value::Null);
        assert_eq!(m.completed, 0);
        assert_eq!(m.failed, 3);
        assert!(m
            .records
            .iter()
            .all(|r| r.outcome == RequestOutcome::Failed));
        assert_eq!(e.requests.len(), 0, "aborted request state cleaned up");
    }

    #[test]
    fn kv_faults_retry_without_corrupting_state() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSpec::new(
            "writer",
            Program::builder()
                .set(lit("shared"), lit(41i64))
                .ret(lit(true)),
        ));
        let app = AppSpec::new("W", "Test", reg, Workflow::task("writer"));
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(app), 1));
        e.enable_faults(
            FaultPlan::none().with_kv_set(0.5),
            RetryPolicy::default().with_max_attempts(10),
        );
        e.prewarm();
        let m = e.run_closed(10, |_| Value::Null);
        assert_eq!(m.completed, 10);
        assert!(m.faults.kv_errors > 0);
        assert_eq!(e.kv.peek("shared"), Some(&Value::Int(41)));
    }

    #[test]
    fn watchdog_rescues_hung_invocations() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        e.enable_faults(
            FaultPlan::none()
                .with_hang(1.0)
                .with_window(SimTime::ZERO, Some(SimTime::from_millis(30))),
            RetryPolicy::default()
                .with_timeout(SimDuration::from_millis(100))
                .with_max_attempts(5),
        );
        e.prewarm();
        e.run_single(Value::Null);
        let m = e.run_closed(0, |_| Value::Null);
        assert_eq!(m.completed, 1, "watchdog should rescue the hung request");
        assert!(m.faults.timeouts >= 1);
        assert!(m.faults.retried >= 1);
    }

    #[test]
    fn stuck_report_names_hung_requests() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        e.enable_faults(FaultPlan::none().with_hang(1.0), RetryPolicy::default());
        e.prewarm();
        assert!(e.stuck_report().is_empty(), "no requests in flight yet");
        // Submit directly (bypassing the drivers' abort-on-drain) and
        // step the simulation dry: the injected hang wedges the request
        // with no event left to wake it.
        let req = e.core.admit(Value::Null);
        while let Some((_, ev)) = e.sim.step() {
            e.core.dispatch(ev);
        }
        let report = e.stuck_report();
        assert_eq!(report.len(), 1, "one wedged request: {report:?}");
        assert!(
            report[0].starts_with(&format!("req {}:", req.0)),
            "report names the request: {}",
            report[0]
        );
        assert!(
            report[0].contains("insts=["),
            "report lists instance states: {}",
            report[0]
        );
        // Aborting the wedged request (what the drivers' drain does)
        // records the failure and empties the report again.
        e.core.abort(req);
        assert!(e.stuck_report().is_empty());
        let m = e.run_closed(0, |_| Value::Null);
        assert_eq!(m.failed, 1);
    }

    #[test]
    fn hang_without_timeout_aborts_on_drain() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        e.enable_faults(FaultPlan::none().with_hang(1.0), RetryPolicy::default());
        e.prewarm();
        e.run_single(Value::Null);
        let m = e.run_closed(0, |_| Value::Null);
        assert_eq!(m.failed, 1);
        assert!(m.faults.hangs >= 1);
    }

    #[test]
    fn fault_counters_are_deterministic_per_seed() {
        let run = || {
            let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 9));
            e.enable_faults(
                FaultPlan::none().with_container_crash(0.2).with_kv_get(0.1),
                RetryPolicy::default().with_max_attempts(8),
            );
            e.prewarm();
            let m = e.run_concurrent(
                3,
                SimDuration::from_secs(1),
                SimDuration::from_millis(100),
                |_| Value::Null,
            );
            (m.completed, m.failed, m.faults)
        };
        assert_eq!(run(), run());
    }
}
