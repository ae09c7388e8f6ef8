//! Function instances and their platform lifecycle.
//!
//! An instance binds together an interpreter execution, the node / core
//! slot / container it occupies, its private temp-file namespace (the
//! copy-on-write scheme of §VI), and timing bookkeeping for the Fig. 3
//! breakdown.
//!
//! What happens to a launched handler is the invoker's job, whichever
//! engine launched it: container acquisition or cold start, core
//! queueing, blocking on a call, an injected crash or hang, a transient
//! KV error, teardown. [`Runtime`] owns the instance table, and the
//! `impl` block here owns those mechanics once. An engine core keeps only
//! its policy: what a crash, a read, a write or a call *means*. The
//! events the lifecycle schedules are built through [`LifecycleEvent`],
//! which both engines' event enums implement.

use specfaas_sim::hash::FxHashMap;
use std::fmt;

use specfaas_sim::trace::{Phase, TraceEventKind, Tracer};
use specfaas_sim::{FaultSite, SimDuration, SimRng, SimTime, Simulator};
use specfaas_storage::Value;
use specfaas_workflow::{Effect, FuncId, Interp, ProgError, Program};

use crate::cluster::NodeId;
use crate::container::ContainerAcquire;
use crate::harness::Runtime;
use crate::metrics::Breakdown;
use crate::workload::RequestId;

/// Identifier of a function instance (one handler process execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// In launch overhead, or waiting for its container to be created
    /// (cold start).
    ColdStarting,
    /// Waiting in a node's core queue.
    WaitingCore,
    /// Executing (or in a short storage wait) while holding a core.
    Running,
    /// Blocked (waiting on a callee, a stalled read, or a deferred side
    /// effect) with its execution slot *released* — the OS deschedules a
    /// blocked handler process; the container stays allocated.
    Blocked,
    /// Killed by a squash; its core frees after the kill latency.
    Squashed,
}

/// One executing handler process.
#[derive(Debug)]
pub struct FnInstance {
    /// This instance's id.
    pub id: InstanceId,
    /// The request the instance works for.
    pub req: RequestId,
    /// The function being executed.
    pub func: FuncId,
    /// Node hosting the handler.
    pub node: NodeId,
    /// Interpreter state.
    pub interp: Interp,
    /// Per-instance RNG (timing jitter).
    pub rng: SimRng,
    /// Lifecycle state.
    pub state: InstanceState,
    /// True once the instance has acquired a container (released on
    /// teardown).
    pub container: bool,
    /// Private temp-file namespace (discarded at handler exit, §VI).
    pub files: FxHashMap<String, Value>,
    /// When the handler's current running stint started on a core.
    pub started_at: Option<SimTime>,
    /// Per-component time attribution for Fig. 3.
    pub breakdown: Breakdown,
    /// Core time accumulated across earlier running stints (before
    /// blocking released the slot).
    pub accumulated_core: SimDuration,
    /// Resume value stashed while the instance waits to re-acquire a
    /// core after being unblocked.
    pub pending_resume: Option<Option<Value>>,
    /// True once the handler has applied a write to shared storage.
    /// Engines that apply writes eagerly (the baseline) set it, and no
    /// crash or hang strikes the handler afterwards: retrying a partially
    /// externalized handler would double-apply non-idempotent effects.
    pub externalized: bool,
}

impl FnInstance {
    /// Creates an instance of `func`, working for `req`, about to launch
    /// with `input`.
    pub fn new(
        id: InstanceId,
        req: RequestId,
        func: FuncId,
        node: NodeId,
        program: &Program,
        input: Value,
        rng: SimRng,
    ) -> Self {
        FnInstance {
            id,
            req,
            func,
            node,
            interp: Interp::new(program, input),
            rng,
            state: InstanceState::ColdStarting,
            container: false,
            files: FxHashMap::default(),
            started_at: None,
            breakdown: Breakdown::default(),
            accumulated_core: SimDuration::ZERO,
            pending_resume: None,
            externalized: false,
        }
    }

    /// Steps the interpreter with an optional resume value.
    ///
    /// # Errors
    /// Propagates program errors (treated by engines as failed
    /// invocations).
    pub fn step(&mut self, resume: Option<Value>) -> Result<Effect, ProgError> {
        self.interp.step(resume, &mut self.rng)
    }

    /// Core time consumed up to `now`: earlier stints plus the current
    /// one.
    pub fn core_time(&self, now: SimTime) -> SimDuration {
        self.accumulated_core
            + self
                .started_at
                .map(|s| now - s)
                .unwrap_or(SimDuration::ZERO)
    }

    /// Emits the [`Phase::Execution`] span of one running stint,
    /// `start..end`, into `tracer` (a no-op when it is disabled).
    pub fn trace_execution(&self, tracer: &mut Tracer, start: SimTime, end: SimTime) {
        if tracer.enabled() {
            tracer.emit(
                start,
                TraceEventKind::Span {
                    req: self.req.0,
                    func: self.func.0,
                    node: self.node.0 as u32,
                    phase: Phase::Execution,
                    end,
                },
            );
        }
    }
}

/// A storage operation being retried across transient KV faults.
#[derive(Debug, Clone)]
pub enum KvOp {
    /// A read of `key`.
    Get {
        /// The key read.
        key: String,
    },
    /// A write of `value` to `key`.
    Set {
        /// The key written.
        key: String,
        /// The value written.
        value: Value,
    },
}

/// The instance events an engine's event enum must be able to carry: the
/// ones [`Runtime`]'s lifecycle mechanics schedule.
pub trait LifecycleEvent {
    /// Launch overhead paid; acquire a container and a core.
    fn launch(id: InstanceId) -> Self;
    /// Cold start finished; acquire a core.
    fn container_ready(id: InstanceId) -> Self;
    /// The instance's pending effect completed; step the interpreter.
    fn resume(id: InstanceId, value: Option<Value>) -> Self;
    /// Backoff after a transient KV fault elapsed; retry the operation.
    fn kv_retry(id: InstanceId, op: KvOp, attempt: u32) -> Self;
    /// Invocation watchdog fired for the instance.
    fn timeout(id: InstanceId) -> Self;
}

/// What [`Runtime::resume`] leaves to the engine.
#[derive(Debug)]
pub enum Resumed {
    /// Nothing: the instance is gone, queued for a core, wedged by an
    /// injected hang, or its effect was scheduled by [`Runtime::step`].
    Parked,
    /// An injected container crash struck at the step boundary; the
    /// handler is dead and the engine decides what that means.
    Crashed,
    /// An effect only the engine can interpret: `Get`, `Set`, `Http`,
    /// `Call` or `Done` (a program error arrives as `Done` with an
    /// `{"error": …}` document).
    Effect(Effect),
}

/// Outcome of [`Runtime::kv_attempt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvAttempt {
    /// No fault: perform the operation now.
    Proceed,
    /// A transient fault struck; a retry is scheduled after backoff.
    Retrying,
    /// A fault struck and the retry budget is spent: the handler faults.
    Exhausted,
}

impl<Ev: LifecycleEvent> Runtime<Ev> {
    /// Creates an instance of `func` for `req` and starts its launch
    /// overhead: the fixed platform cost plus `service` queued at
    /// controller `ctrl`. Schedules its launch and, when an invocation
    /// timeout is set, its watchdog.
    pub fn spawn_instance(
        &mut self,
        req: RequestId,
        func: FuncId,
        input: Value,
        ctrl: NodeId,
        service: SimDuration,
    ) -> InstanceId {
        let now = self.sim.now();
        let delay = self.model.platform_fixed + self.cluster.controller_delay(ctrl, now, service);
        let id = self.alloc_inst();
        let node = self.cluster.pick_node(func);
        let program = &self.app.registry.spec(func).program;
        let mut inst = FnInstance::new(id, req, func, node, program, input, self.rng.split());
        inst.breakdown.platform = delay;
        self.instances.insert(id, inst);
        self.sim.schedule_in(delay, Ev::launch(id));
        // Invocation watchdog: the only recovery path for a hung handler.
        if let Some(t) = self.retry.invocation_timeout {
            self.sim.schedule_in(t, Ev::timeout(id));
        }
        id
    }

    /// Launch overhead paid: acquires a warm container and a core, or
    /// starts a cold start.
    pub fn on_launch(&mut self, id: InstanceId) {
        // The instance may have been torn down while the launch overhead
        // was in flight.
        let Some(inst) = self.instances.get_mut(&id) else {
            return;
        };
        inst.container = true;
        let (req, func, node) = (inst.req.0, inst.func, inst.node);
        let now = self.sim.now();
        let acquired = self.cluster.acquire_container(node, func, now, &self.model);
        self.record(
            now,
            TraceEventKind::ContainerAcquire {
                req,
                func: func.0,
                node: node.0 as u32,
                cold: matches!(acquired, ContainerAcquire::Cold(_)),
            },
        );
        let ContainerAcquire::Cold(d) = acquired else {
            self.try_start(id);
            return;
        };
        let inst = self.instances.get_mut(&id).expect("live instance");
        inst.breakdown.container_creation = self.model.container_creation;
        inst.breakdown.runtime_setup = self.model.runtime_setup;
        inst.state = InstanceState::ColdStarting;
        if self.tracer.enabled() {
            // Fig. 3 cold-start spans: container creation, then runtime
            // setup for whatever remains of the delay.
            let cc = self.model.container_creation.min(d);
            let (func, node) = (func.0, node.0 as u32);
            let span = |phase, end| TraceEventKind::Span {
                req,
                func,
                node,
                phase,
                end,
            };
            self.tracer
                .emit(now, span(Phase::ContainerCreation, now + cc));
            if cc < d {
                self.tracer
                    .emit(now + cc, span(Phase::RuntimeSetup, now + d));
            }
        }
        self.sim.schedule_in(d, Ev::container_ready(id));
    }

    /// Acquires a core for a launched instance, or queues it for one.
    pub fn try_start(&mut self, id: InstanceId) {
        let now = self.sim.now();
        let Some(inst) = self.instances.get_mut(&id) else {
            return;
        };
        let cores = &mut self.cluster.node_mut(inst.node).cores;
        if cores.try_acquire(now) {
            inst.state = InstanceState::Running;
            inst.started_at = Some(now);
            self.sim.schedule_now(Ev::resume(id, None));
        } else {
            inst.state = InstanceState::WaitingCore;
            cores.enqueue(id);
        }
    }

    /// Releases a running instance's core while it blocks (on a callee, a
    /// stalled read, or a deferred side effect). A blocked handler process
    /// is descheduled by the OS; its container stays allocated.
    pub fn block(&mut self, id: InstanceId) {
        let now = self.sim.now();
        let Some(inst) = self.instances.get_mut(&id) else {
            return;
        };
        if inst.state != InstanceState::Running {
            return;
        }
        if let Some(start) = inst.started_at.take() {
            inst.accumulated_core += now - start;
            inst.trace_execution(&mut self.tracer, start, now);
        }
        inst.state = InstanceState::Blocked;
        let node = inst.node;
        self.free_core(node, now);
    }

    /// Frees one core of `node`, handing it straight to the next queued
    /// instance, which starts or resumes.
    fn free_core(&mut self, node: NodeId, now: SimTime) {
        let Some(next) = self.cluster.node_mut(node).cores.release(now) else {
            return;
        };
        if let Some(w) = self.instances.get_mut(&next) {
            w.state = InstanceState::Running;
            w.started_at = Some(now);
            let resume = w.pending_resume.take().unwrap_or(None);
            self.sim.schedule_now(Ev::resume(next, resume));
        }
    }

    /// An instance's pending effect completed. A blocked instance first
    /// re-acquires a core (or queues, stashing `resume`); then the
    /// step-boundary fault roll, then one interpreter step.
    ///
    /// The roll injects a container crash or a hang, but never into a
    /// handler that has externalized a write. A hung handler keeps its
    /// core and container and schedules nothing further: only the
    /// invocation watchdog can recover it.
    pub fn resume(&mut self, id: InstanceId, resume: Option<Value>) -> Resumed {
        let now = self.sim.now();
        let Some(inst) = self.instances.get_mut(&id) else {
            return Resumed::Parked;
        };
        if inst.state == InstanceState::Blocked {
            let cores = &mut self.cluster.node_mut(inst.node).cores;
            if !cores.try_acquire(now) {
                inst.pending_resume = Some(resume);
                inst.state = InstanceState::WaitingCore;
                cores.enqueue(id);
                return Resumed::Parked;
            }
            inst.state = InstanceState::Running;
            inst.started_at = Some(now);
        }
        if self.faults.enabled() && !inst.externalized {
            let req = inst.req.0;
            if self.faults.roll(FaultSite::ContainerCrash, now) {
                let site = "container_crash";
                self.record(now, TraceEventKind::FaultInjected { req, site });
                return Resumed::Crashed;
            }
            if self.faults.roll(FaultSite::Hang, now) {
                let site = "hang";
                self.record(now, TraceEventKind::FaultInjected { req, site });
                return Resumed::Parked;
            }
        }
        match step(&mut self.sim, inst, resume) {
            Some(effect) => Resumed::Effect(effect),
            None => Resumed::Parked,
        }
    }

    /// Steps the interpreter once, with no core or fault check. Completes
    /// the effects that mean the same under every policy (compute and
    /// temp-file accesses) and returns any other.
    pub fn step(&mut self, id: InstanceId, resume: Option<Value>) -> Option<Effect> {
        let inst = self.instances.get_mut(&id)?;
        step(&mut self.sim, inst, resume)
    }

    /// The invocation watchdog fired for `id`. Returns true, recording the
    /// timeout, when a live handler is treated as hung and must take the
    /// engine's fault path. A blocked handler (legitimately waiting on a
    /// callee, a stalled read or a deferred side effect) gets its watchdog
    /// re-armed instead.
    pub fn watchdog_fired(&mut self, id: InstanceId) -> bool {
        let Some(inst) = self.instances.get(&id) else {
            return false;
        };
        match inst.state {
            InstanceState::Squashed => false,
            InstanceState::Blocked => {
                if let Some(t) = self.retry.invocation_timeout {
                    self.sim.schedule_in(t, Ev::timeout(id));
                }
                false
            }
            _ => {
                let (now, req) = (self.sim.now(), inst.req.0);
                let site = "timeout";
                self.record(now, TraceEventKind::FaultInjected { req, site });
                true
            }
        }
    }

    /// Rolls for a transient KV fault on attempt `attempt` of a read (or,
    /// if `write`, a write) by `id`. On a fault with budget left, schedules
    /// the retry after backoff; the retried operation is built by `op`
    /// only then, so fault-free runs never copy the key or value.
    pub fn kv_attempt(
        &mut self,
        id: InstanceId,
        write: bool,
        attempt: u32,
        op: impl FnOnce() -> KvOp,
    ) -> KvAttempt {
        let now = self.sim.now();
        let (site, name) = if write {
            (FaultSite::KvSet, "kv_set")
        } else {
            (FaultSite::KvGet, "kv_get")
        };
        if !self.faults.enabled() || !self.faults.roll(site, now) {
            return KvAttempt::Proceed;
        }
        let (req, func) = self
            .instances
            .get(&id)
            .map_or((u64::MAX, u32::MAX), |i| (i.req.0, i.func.0));
        let site = name;
        self.record(now, TraceEventKind::FaultInjected { req, site });
        if attempt >= self.retry.max_attempts {
            return KvAttempt::Exhausted;
        }
        let backoff = self.retry.backoff(attempt);
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.breakdown.retry_backoff += backoff;
        }
        self.record(
            now,
            TraceEventKind::RetryBackoff {
                req,
                func,
                attempt: attempt + 1,
                backoff,
            },
        );
        self.metrics.faults.retried += 1;
        self.sim
            .schedule_in(backoff, Ev::kv_retry(id, op(), attempt + 1));
        KvAttempt::Retrying
    }

    /// Completes a storage access by `id` that takes `latency`: charges it
    /// to the handler's execution time, counts the operation and resumes
    /// the handler with `value` when it lands.
    pub fn storage_done(
        &mut self,
        id: InstanceId,
        latency: SimDuration,
        write: bool,
        value: Option<Value>,
    ) {
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.breakdown.execution += latency;
        }
        let now = self.sim.now();
        self.kv_issued(now + latency, write);
        self.sim.schedule_in(latency, Ev::resume(id, value));
    }

    /// Removes `id` outside a clean exit (a crash, hang timeout, exhausted
    /// KV retries, an abort or an immediate squash kill) and frees what it
    /// holds: its core, ending its execution span, or its place in a core
    /// queue, and its container, returned to the pool only if `reusable`.
    /// The core time it consumed is charged to the squashed-CPU ledger
    /// under `site` and `cascade`.
    pub fn stop(
        &mut self,
        id: InstanceId,
        site: &'static str,
        cascade: u32,
        reusable: bool,
    ) -> Option<FnInstance> {
        let now = self.sim.now();
        let inst = self.instances.remove(&id)?;
        let (req, func) = (inst.req.0, inst.func);
        match inst.state {
            InstanceState::Running => {
                self.charge_squashed(req, func, site, cascade, inst.core_time(now));
                if let Some(s) = inst.started_at {
                    inst.trace_execution(&mut self.tracer, s, now);
                    self.free_core(inst.node, now);
                }
            }
            // Past blocked stints count as wasted work even though no core
            // is held now.
            InstanceState::Blocked => {
                self.charge_squashed(req, func, site, cascade, inst.accumulated_core);
            }
            InstanceState::WaitingCore => {
                self.charge_squashed(req, func, site, cascade, inst.accumulated_core);
                let cores = &mut self.cluster.node_mut(inst.node).cores;
                cores.remove_waiter(|w| *w == id);
            }
            InstanceState::ColdStarting | InstanceState::Squashed => {}
        }
        if inst.container {
            self.cluster
                .release_container(inst.node, func, now, reusable);
        }
        Some(inst)
    }

    /// Removes `id` once its handler process has exited: frees its core
    /// (if it holds one) and returns its container to the pool, reused
    /// unless `reusable` is false.
    pub fn release(&mut self, id: InstanceId, reusable: bool) -> Option<FnInstance> {
        let now = self.sim.now();
        let inst = self.instances.remove(&id)?;
        if inst.started_at.is_some() {
            self.free_core(inst.node, now);
        }
        self.cluster
            .release_container(inst.node, inst.func, now, reusable);
        Some(inst)
    }

    /// A handler returned: [`Runtime::release`] it, file its Fig. 3
    /// breakdown and end its execution span.
    pub fn finish(&mut self, id: InstanceId) -> Option<FnInstance> {
        let inst = self.release(id, true)?;
        self.metrics.file_breakdown(&inst.breakdown);
        if let Some(s) = inst.started_at {
            inst.trace_execution(&mut self.tracer, s, self.sim.now());
        }
        Some(inst)
    }
}

/// [`Runtime::step`] on an instance already looked up.
fn step<Ev: LifecycleEvent>(
    sim: &mut Simulator<Ev>,
    inst: &mut FnInstance,
    resume: Option<Value>,
) -> Option<Effect> {
    let id = inst.id;
    let effect = inst.step(resume).unwrap_or_else(|err| {
        // A failed invocation completes with an error document, so the
        // workflow proceeds deterministically.
        Effect::Done(Value::map([("error", Value::str(err.to_string()))]))
    });
    match effect {
        Effect::Compute(d) => {
            inst.breakdown.execution += d;
            sim.schedule_in(d, Ev::resume(id, None));
        }
        Effect::FileWrite { name, data } => {
            inst.files.insert(name, data);
            sim.schedule_now(Ev::resume(id, None));
        }
        Effect::FileRead { name } => {
            let v = inst.files.get(&name).cloned().unwrap_or(Value::Null);
            sim.schedule_now(Ev::resume(id, Some(v)));
        }
        effect => return Some(effect),
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_workflow::expr::lit;

    fn instance(p: &Program) -> FnInstance {
        FnInstance::new(
            InstanceId(1),
            RequestId(0),
            FuncId(0),
            NodeId(0),
            p,
            Value::Null,
            SimRng::seed(1),
        )
    }

    #[test]
    fn instance_runs_program_to_done() {
        let p = Program::builder().compute_ms(2).ret(lit("out"));
        let mut inst = instance(&p);
        assert!(matches!(inst.step(None).unwrap(), Effect::Compute(_)));
        assert!(matches!(inst.step(None).unwrap(), Effect::Done(_)));
    }

    #[test]
    fn files_namespace_starts_empty() {
        let p = Program::builder().ret(lit(1i64));
        let inst = instance(&p);
        assert!(inst.files.is_empty());
        assert_eq!(inst.state, InstanceState::ColdStarting);
        assert!(!inst.container);
    }

    #[test]
    fn core_time_adds_the_current_stint() {
        let p = Program::builder().ret(lit(1i64));
        let mut inst = instance(&p);
        let now = SimTime::from_millis(10);
        assert_eq!(inst.core_time(now), SimDuration::ZERO);
        inst.accumulated_core = SimDuration::from_millis(3);
        inst.started_at = Some(SimTime::from_millis(6));
        assert_eq!(inst.core_time(now), SimDuration::from_millis(7));
    }
}
