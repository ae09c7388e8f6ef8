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
//!
//! Instance lifecycle: see [`crate::exec`]; this core decides what a
//! crash, a write or a call means.

use specfaas_sim::hash::FxHashMap;
use std::sync::Arc;

use specfaas_sim::trace::{Phase, TraceEventKind};
use specfaas_sim::{SimDuration, SimTime};
use specfaas_storage::Value;
use specfaas_workflow::{AppSpec, Effect, EntryKind, FuncId};

use crate::cluster::NodeId;
use crate::exec::{InstanceId, KvAttempt, KvOp, LifecycleEvent, Resumed};
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

/// Why an instance exists: a workflow-entry cursor or an implicit callee.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum InstCtx {
    /// Executes workflow entry `entry` of its request.
    Entry { entry: usize },
    /// Executes a subroutine call on behalf of `caller`.
    Callee { caller: InstanceId },
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
    /// tracer, registry, metrics, generation state, instances).
    rt: Runtime<Ev>,
    /// Why each live instance exists, and the attempt it is executing
    /// (1 for the first).
    ctxs: FxHashMap<InstanceId, (InstCtx, u32)>,
    requests: FxHashMap<RequestId, ReqState>,
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

    fn stuck_requests(&self) -> Vec<String> {
        let mut ids: Vec<RequestId> = self.requests.keys().copied().collect();
        ids.sort(); // HashMap order is not deterministic
        ids.into_iter()
            .map(|rid| {
                let req = &self.requests[&rid];
                let insts: Vec<String> = self
                    .instances_of(rid)
                    .into_iter()
                    .map(|id| {
                        let i = &self.rt.instances[&id];
                        format!("{}:{:?}:{:?}", id.0, i.func, i.state)
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

    /// The live instances working for `req`, sorted by id (HashMap order
    /// is not deterministic).
    fn instances_of(&self, req: RequestId) -> Vec<InstanceId> {
        let mut ids: Vec<InstanceId> = self
            .rt
            .instances
            .values()
            .filter(|i| i.req == req)
            .map(|i| i.id)
            .collect();
        ids.sort();
        ids
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
        let input = if arity > 1 {
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
            // Earlier arrivals already merged their cursors; the final
            // arrival continues as the single join cursor.
            outputs.sort_by_key(|(from, _)| *from);
            let merged: Vec<Value> = outputs.into_iter().map(|(_, v)| v).collect();
            Value::List(merged.into())
        } else {
            payload
        };
        let func = self.rt.app.compiled.entries[entry].func;
        self.spawn(req, InstCtx::Entry { entry }, func, input, 1);
    }

    /// Creates the instance (attempt `attempt` of its function) and
    /// charges platform overhead.
    fn spawn(
        &mut self,
        req: RequestId,
        ctx: InstCtx,
        func: FuncId,
        input: Value,
        attempt: u32,
    ) -> InstanceId {
        let now = self.rt.sim.now();
        let ctrl = self.requests[&req].ctrl;
        let service = self.rt.model.controller_service;
        let id = self.rt.spawn_instance(req, func, input, ctrl, service);
        self.ctxs.insert(id, (ctx, attempt));
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
            let inst = &self.rt.instances[&id];
            let span = TraceEventKind::Span {
                req: req.0,
                func: func.0,
                node: inst.node.0 as u32,
                phase: Phase::Platform,
                end: now + inst.breakdown.platform,
            };
            self.rt.tracer.emit(now, span);
        }
        id
    }

    /// Steps the interpreter and interprets the effect.
    fn on_resume(&mut self, id: InstanceId, resume: Option<Value>) {
        let effect = match self.rt.resume(id, resume) {
            Resumed::Parked => return,
            Resumed::Crashed => return self.fault_instance(id),
            Resumed::Effect(effect) => effect,
        };
        match effect {
            Effect::Get { key } => self.kv_access(id, KvOp::Get { key }, 1),
            Effect::Set { key, value } => self.kv_access(id, KvOp::Set { key, value }, 1),
            Effect::Http { .. } => {
                let lat = self.rt.model.http_latency;
                let inst = self.rt.instances.get_mut(&id).expect("live instance");
                inst.breakdown.execution += lat;
                self.rt.sim.schedule_in(lat, Ev::Resume(id, None));
            }
            Effect::Call { func, args } => {
                // Implicit workflow: spawn the callee; the caller's
                // handler blocks on the RPC and the OS yields its hardware
                // thread (the container slot stays held, Fig. 10(d)).
                let req = self.rt.instances[&id].req;
                self.rt.block(id);
                match self.rt.app.registry.lookup(&func) {
                    Some(callee) => {
                        self.spawn(req, InstCtx::Callee { caller: id }, callee, args, 1);
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
            Effect::Done(out) => self.finish_instance(id, out),
            Effect::Compute(_) | Effect::FileRead { .. } | Effect::FileWrite { .. } => {
                unreachable!("completed by Runtime::step")
            }
        }
    }

    /// Releases resources and routes the output onward.
    fn finish_instance(&mut self, id: InstanceId, output: Value) {
        let now = self.rt.sim.now();
        let inst = self.rt.finish(id).expect("live instance");
        let (ctx, _) = self.ctxs.remove(&id).expect("instance context");
        self.rt.metrics.useful_core_time += inst.core_time(now);
        let req = inst.req;
        let entry = match ctx {
            InstCtx::Entry { entry } => entry,
            InstCtx::Callee { caller } => {
                if let Some(state) = self.requests.get_mut(&req) {
                    state.sequence.push(inst.func.0);
                }
                // RPC return hop, then resume the blocked caller.
                self.rt.sim.schedule_in(
                    self.rt.model.transfer_fixed,
                    Ev::Resume(caller, Some(output)),
                );
                return;
            }
        };
        let Some(state) = self.requests.get_mut(&req) else {
            return;
        };
        state.sequence.push(inst.func.0);
        let ctrl = state.ctrl;
        // Conductor / transfer overhead for the next transition.
        let transfer = self.rt.model.transfer_fixed
            + self
                .rt
                .cluster
                .controller_delay(ctrl, now, self.rt.model.conductor_service);
        let app = Arc::clone(&self.rt.app);
        let (targets, payload) = match &app.compiled.entries[entry].kind {
            EntryKind::Simple { next } => (next.as_slice(), output),
            EntryKind::Branch {
                field,
                taken,
                not_taken,
            } => {
                let cond = match field {
                    Some(f) => output.get_field(f).cloned().unwrap_or(Value::Null),
                    None => output,
                };
                let target = if cond.truthy() { taken } else { not_taken };
                // Branch functions route: the selected target receives
                // the branch's *input* payload (§VIII-B: successors of a
                // branch take the same input as the branch).
                (target.as_slice(), inst.interp.input().clone())
            }
            EntryKind::Fork { branches, join: _ } => (branches.as_slice(), output),
        };
        if targets.is_empty() {
            return self.cursor_done(req);
        }
        // A fork turns this cursor into one per branch.
        let state = self.requests.get_mut(&req).expect("live request");
        state.cursors += targets.len() as u32 - 1;
        self.charge_transfer(transfer);
        for &to in targets {
            self.rt.sim.schedule_in(
                transfer,
                Ev::Transfer {
                    req,
                    from: entry,
                    entry: to,
                    payload: payload.clone(),
                },
            );
        }
    }

    fn charge_transfer(&mut self, transfer: SimDuration) {
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
        if !self.rt.instances.contains_key(&id) {
            return; // instance torn down while a retry was pending
        }
        let write = matches!(op, KvOp::Set { .. });
        match self.rt.kv_attempt(id, write, attempt, || op.clone()) {
            KvAttempt::Proceed => {}
            KvAttempt::Retrying => return,
            KvAttempt::Exhausted => return self.fault_instance(id),
        }
        match op {
            KvOp::Get { key } => {
                let lat = self.rt.kv.latency().read;
                let val = self.rt.kv.get(&key).cloned().unwrap_or(Value::Null);
                self.rt.storage_done(id, lat, false, Some(val));
            }
            KvOp::Set { key, value } => {
                let lat = self.rt.kv.latency().write;
                self.rt.kv.set(key, value);
                // The write is the point of no return for fault injection
                // (`FnInstance::externalized`). Retrying a caller replays
                // its whole call subtree, so a callee's write externalizes
                // every transitive caller too.
                let mut cur = id;
                loop {
                    if let Some(inst) = self.rt.instances.get_mut(&cur) {
                        inst.externalized = true;
                    }
                    match self.ctxs.get(&cur) {
                        Some((InstCtx::Callee { caller }, _)) => cur = *caller,
                        _ => break,
                    }
                }
                self.rt.storage_done(id, lat, true, None);
            }
        }
    }

    /// An instance suffered an unrecoverable-in-place fault: tear it
    /// down (its container is not reusable: the handler did not exit
    /// cleanly), then relaunch the same function after backoff — or abort
    /// the whole request once the retry budget is exhausted.
    fn fault_instance(&mut self, id: InstanceId) {
        let Some(inst) = self.rt.stop(id, "teardown", 0, false) else {
            return;
        };
        let Some((ctx, attempt)) = self.ctxs.remove(&id) else {
            return;
        };
        let req = inst.req;
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
        let backoff = self.rt.retry.backoff(attempt);
        self.rt.record(
            now,
            TraceEventKind::RetryBackoff {
                req: req.0,
                func: inst.func.0,
                attempt: attempt + 1,
                backoff,
            },
        );
        self.rt.sim.schedule_in(
            backoff,
            Ev::Retry {
                req,
                ctx,
                func: inst.func,
                input,
                attempt: attempt + 1,
            },
        );
    }

    /// Terminally fails a request after its retry budget is exhausted
    /// (or it wedged with no recovery path): tears down every instance
    /// still working for it and records a [`RequestOutcome::Failed`].
    fn abort_request(&mut self, req: RequestId) {
        let now = self.rt.sim.now();
        let Some(state) = self.requests.remove(&req) else {
            return;
        };
        for id in self.instances_of(req) {
            self.rt.stop(id, "teardown", 0, false);
            self.ctxs.remove(&id);
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
            Ev::Launch(id) => self.rt.on_launch(id),
            Ev::ContainerReady(id) => self.rt.try_start(id),
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
                    let id = self.spawn(req, ctx, func, input, attempt);
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
            Ev::Timeout(id) => {
                if self.rt.watchdog_fired(id) {
                    self.fault_instance(id);
                }
            }
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
        assert_eq!(e.rt().metrics.records.len(), 1);
        let rec = &e.rt().metrics.records[0];
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
        assert_eq!(e.rt().cluster.cold_starts(), 3);
    }

    #[test]
    fn second_invocation_reuses_warm_containers() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        let cold = e.run_single(Value::Null);
        let warm = e.run_single(Value::Null);
        assert!(warm < cold / 10);
        assert_eq!(e.rt().cluster.cold_starts(), 3, "no new cold starts");
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
        assert_eq!(e.rt().metrics.records[0].sequence[1], yes);
        assert_eq!(e.rt().metrics.records[1].sequence[1], no);
    }

    #[test]
    fn implicit_calls_block_caller_and_return_values() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(implicit_app()), 1));
        e.prewarm();
        let d = e.run_single(Value::Null);
        // Root compute 6ms + two callees 4ms each + overheads, strictly
        // sequential.
        assert!(d > SimDuration::from_millis(14), "too fast: {d}");
        let rec = &e.rt().metrics.records[0];
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
        let rec = &e.rt().metrics.records[0];
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
        assert_eq!(e.rt().kv.peek("shared"), Some(&Value::Int(41)));
        assert_eq!(e.requests.len(), 0, "request state cleaned up");
    }

    #[test]
    fn exec_fraction_matches_observation1() {
        let mut e = BaselineEngine::new(BaselineCore::new(Arc::new(chain_app()), 1));
        e.prewarm();
        e.run_single(Value::Null);
        let mean = crate::metrics::Breakdown::mean_of(&e.rt().metrics.breakdowns);
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
        assert_eq!(e.rt().kv.peek("shared"), Some(&Value::Int(41)));
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
        while let Some((_, ev)) = e.rt_mut().sim.step() {
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
