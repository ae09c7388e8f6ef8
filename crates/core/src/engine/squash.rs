//! Squashing (§VI, "Minimizing Squash Cost"), instance teardown,
//! slot-fault retries, watchdog timeouts and request aborts.
use super::*;

impl SpecCore {
    /// Squashes `first` and every later slot. `kind` decides whether
    /// `first` is reset in place (re-execute) or removed (wrong path).
    pub(super) fn squash_from(&mut self, req_id: RequestId, first: SlotId, kind: SquashKind) {
        let Some(req) = self.requests.get(&req_id) else {
            return;
        };
        let Some(pos) = req.pipeline.position(first) else {
            return;
        };
        let victims: Vec<SlotId> = req.pipeline.order()[pos..].to_vec();

        let cause = match kind {
            SquashKind::WrongPath => SquashCause::WrongPath,
            SquashKind::WrongInput => SquashCause::WrongInput,
            SquashKind::Violation => SquashCause::Violation,
            SquashKind::Fault => SquashCause::Fault,
        };
        let cascade = victims.len() as u32;
        let now = self.rt.sim.now();
        self.rt.record(
            now,
            TraceEventKind::Squash {
                req: req_id.0,
                slot: first.0,
                cause,
                cascade,
            },
        );
        // Dependents torn down because a committed-path execution
        // faulted (not because speculation was wrong).
        if kind == SquashKind::Fault {
            self.rt.metrics.faults.squashed_due_to_fault += victims.len() as u64 - 1;
        }
        // Fork-branch heads are spawned exactly once, at their fork's
        // commit (extend_one defers fan-out). A head caught in the squash
        // suffix is a *parallel* sibling, not a dependent: removing it
        // would lose it forever and starve the join, so reset it in place
        // instead.
        let mut fork_heads: FxHashSet<usize> = FxHashSet::default();
        for i in 0..self.seqtable.compiled().entries.len() {
            if let EntryKind::Fork { branches, .. } = self.seqtable.kind_at(i) {
                fork_heads.extend(branches.iter().copied());
            }
        }
        for (i, v) in victims.iter().enumerate() {
            let req = self.requests.get(&req_id).expect("live");
            let is_fork_head = matches!(
                req.pipeline.slot(*v).map(|s| s.role),
                Some(SlotRole::Entry { entry }) if fork_heads.contains(&entry)
            );
            let reset_in_place = (i == 0 && kind != SquashKind::WrongPath) || is_fork_head;
            self.squash_slot(req_id, *v, reset_in_place, cause.name(), cascade);
        }
        // Callers waiting on removed callees: their Call will be
        // re-issued when the caller (also squashed) re-executes, or the
        // callee slot is respawned on demand. Clean any dangling waits.
        let req = self.requests.get_mut(&req_id).expect("live");
        req.waiting_callers
            .retain(|callee, _| req.pipeline.slot(*callee).is_some());
        req.stalled_reads
            .retain(|sr| req.pipeline.slot(sr.slot).is_some());
        if kind == SquashKind::Fault {
            // A removed dependent may have been the created program-order
            // successor of a *surviving* entry slot (a faulted callee's
            // caller, say). Victims form a strict suffix, so only the last
            // surviving entry slot can be affected: clear its extension
            // mark so the successor is recreated. Re-extending a
            // terminally-extended slot just re-marks it, so this is safe
            // even when nothing was lost.
            if let Some(&last_entry) = req.pipeline.order().iter().rev().find(|s| {
                matches!(
                    req.pipeline.slot(**s).expect("live").role,
                    SlotRole::Entry { .. }
                )
            }) {
                req.extended.remove(&last_entry);
            }
        }
        self.pump(req_id);
    }

    pub(super) fn squash_slot(
        &mut self,
        req_id: RequestId,
        slot_id: SlotId,
        reset_in_place: bool,
        site: &'static str,
        cascade: u32,
    ) {
        let req = self.requests.get_mut(&req_id).expect("live");
        let Some(func) = req.pipeline.slot(slot_id).map(|s| s.func) else {
            return;
        };
        req.functions_squashed += 1;
        req.buffer.squash(slot_id);
        req.extended.remove(&slot_id);
        req.deferred_http.remove(&slot_id);
        req.call_state.remove(&slot_id);
        req.call_records.retain(|(entry, _)| *entry != slot_id);
        let wasted = req.slot_cpu.remove(&slot_id);
        let inst = req.slot_inst.remove(&slot_id);
        // CPU spent on a now-squashed execution is wasted work.
        if let Some(t) = wasted {
            self.rt.charge_squashed(req_id.0, func, site, cascade, t);
        }
        // Kill the running instance per the configured mechanism.
        if let Some(inst_id) = inst {
            self.kill_instance(inst_id, req_id, site, cascade);
        }
        let req = self.requests.get_mut(&req_id).expect("live");
        if reset_in_place {
            let slot = req.pipeline.slot_mut(slot_id).expect("live");
            slot.state = SlotState::Created;
            slot.output = None;
            slot.predicted_output = None;
            slot.predicted_taken = None;
            slot.learned_calls.clear();
            // input/input_speculative left to the caller to fix up.
            self.refresh_prediction(req_id, slot_id);
        } else {
            req.pipeline.remove(slot_id);
        }
    }

    /// Applies the configured squash mechanism to a live instance.
    /// `site`/`cascade` label the squash for wasted-CPU attribution.
    pub(super) fn kill_instance(
        &mut self,
        id: InstanceId,
        req_id: RequestId,
        site: &'static str,
        cascade: u32,
    ) {
        let now = self.rt.sim.now();
        let Some(inst) = self.instances.get(&id) else {
            return;
        };
        let (inst_state, inst_node, inst_func, inst_started, inst_acc) = (
            inst.state,
            inst.node,
            inst.func,
            inst.started_at,
            inst.accumulated_core,
        );
        let meta_acquired = self
            .meta
            .get(&id)
            .map(|m| m.container_acquired)
            .unwrap_or(false);
        match self.config.squash {
            SquashMechanism::Lazy => {
                // Let it run to completion in the background; outputs are
                // never propagated. Blocked instances wait on callees
                // that are themselves being squashed — they cannot make
                // progress and terminate instead (their container frees).
                self.meta.remove(&id);
                if matches!(
                    inst_state,
                    InstanceState::Running
                        | InstanceState::ColdStarting
                        | InstanceState::WaitingCore
                ) {
                    self.orphans.insert(id);
                } else {
                    if inst_state == InstanceState::Blocked {
                        self.rt
                            .charge_squashed(req_id.0, inst_func, site, cascade, inst_acc);
                        if meta_acquired {
                            self.rt
                                .cluster
                                .release_container(inst_node, inst_func, now, true);
                        }
                    }
                    self.instances.remove(&id);
                }
            }
            SquashMechanism::ProcessKill | SquashMechanism::ContainerKill => {
                let reusable = self.config.squash == SquashMechanism::ProcessKill;
                match inst_state {
                    InstanceState::Running => {
                        // The handler dies after the kill latency; the core
                        // frees then. Wasted-CPU attribution happens now
                        // (matching the paper's squash-cost accounting);
                        // the kill-latency window itself goes into
                        // `squash_kill_busy` at SquashRelease.
                        if let Some(s) = inst_started {
                            self.rt.charge_squashed(
                                req_id.0,
                                inst_func,
                                site,
                                cascade,
                                (now - s) + inst_acc,
                            );
                        }
                        if self.rt.tracer.enabled() {
                            if let (Some(s), Some(m)) = (inst_started, self.meta.get(&id)) {
                                self.rt.tracer.emit(
                                    s,
                                    TraceEventKind::Span {
                                        req: m.req.0,
                                        func: inst_func.0,
                                        node: inst_node.0 as u32,
                                        phase: Phase::Execution,
                                        end: now + self.rt.model.process_kill,
                                    },
                                );
                            }
                        }
                        self.rt.sim.schedule_in(
                            self.rt.model.process_kill,
                            Ev::SquashRelease(id, reusable),
                        );
                        // Remove from maps now so stale Resume events are
                        // ignored; keep the instance for resource release.
                        self.meta.remove(&id);
                        if let Some(i) = self.instances.get_mut(&id) {
                            i.state = InstanceState::Squashed;
                        }
                    }
                    InstanceState::WaitingCore => {
                        // Past blocked stints are wasted work even though
                        // the instance holds no core right now.
                        self.rt
                            .charge_squashed(req_id.0, inst_func, site, cascade, inst_acc);
                        self.rt
                            .cluster
                            .node_mut(inst_node)
                            .cores
                            .remove_waiter(|w| *w == id);
                        if meta_acquired {
                            self.rt
                                .cluster
                                .release_container(inst_node, inst_func, now, reusable);
                        }
                        self.meta.remove(&id);
                        self.instances.remove(&id);
                    }
                    InstanceState::Blocked => {
                        // Holds no core; count its past stints as wasted
                        // and free the container after the kill latency.
                        self.rt
                            .charge_squashed(req_id.0, inst_func, site, cascade, inst_acc);
                        self.meta.remove(&id);
                        self.instances.remove(&id);
                        if meta_acquired {
                            self.rt
                                .cluster
                                .release_container(inst_node, inst_func, now, reusable);
                        }
                    }
                    InstanceState::ColdStarting => {
                        // Container creation already ran to completion in
                        // the model's accounting; return it to the pool.
                        self.meta.remove(&id);
                        self.instances.remove(&id);
                        if meta_acquired {
                            self.rt
                                .cluster
                                .release_container(inst_node, inst_func, now, true);
                        }
                    }
                    _ => {
                        self.meta.remove(&id);
                        self.instances.remove(&id);
                    }
                }
            }
        }
    }

    pub(super) fn on_squash_release(&mut self, id: InstanceId, reusable: bool) {
        let now = self.rt.sim.now();
        let Some(inst) = self.instances.remove(&id) else {
            return;
        };
        // The stint up to the kill was already charged to
        // squashed_core_time by `kill_instance`; the core stayed busy for
        // the kill latency since then, which only the conservation ledger
        // sees.
        if inst.started_at.is_some() {
            self.squash_kill_busy += self.rt.model.process_kill;
        }
        self.release_instance_resources(&inst, reusable, now);
    }

    pub(super) fn release_instance_resources(
        &mut self,
        inst: &FnInstance,
        reusable: bool,
        now: SimTime,
    ) {
        if inst.started_at.is_some() {
            if let Some(next) = self.rt.cluster.node_mut(inst.node).cores.release(now) {
                self.grant_core(next, now);
            }
        }
        self.rt
            .cluster
            .release_container(inst.node, inst.func, now, reusable);
    }

    /// Steps a lazily-squashed orphan instance: effects proceed against
    /// committed global state, writes are dropped, calls resolve to Null.
    pub(super) fn orphan_step(&mut self, id: InstanceId, resume: Option<Value>) {
        let now = self.rt.sim.now();
        let inst = self.instances.get_mut(&id).expect("orphan live");
        let effect = match inst.step(resume) {
            Ok(e) => e,
            Err(_) => Effect::Done(Value::Null),
        };
        match effect {
            Effect::Compute(d) => {
                self.rt.sim.schedule_in(d, Ev::Resume(id, None));
            }
            Effect::Get { key } => {
                let v = self.rt.kv.get(&key).cloned().unwrap_or(Value::Null);
                self.rt.kv_issued(now + self.rt.kv.latency().read, false);
                self.rt
                    .sim
                    .schedule_in(self.rt.kv.latency().read, Ev::Resume(id, Some(v)));
            }
            Effect::Set { .. } => {
                // Dropped: squashed state never propagates — but the
                // handler still waits out the write latency.
                self.rt.kv_issued(now + self.rt.kv.latency().write, true);
                self.rt
                    .sim
                    .schedule_in(self.rt.kv.latency().write, Ev::Resume(id, None));
            }
            Effect::Http { .. } => {
                // Never performed for squashed functions.
                self.rt.sim.schedule_now(Ev::Resume(id, None));
            }
            Effect::FileWrite { name, data } => {
                inst.files.insert(name, data);
                self.rt.sim.schedule_now(Ev::Resume(id, None));
            }
            Effect::FileRead { name } => {
                let v = inst.files.get(&name).cloned().unwrap_or(Value::Null);
                self.rt.sim.schedule_now(Ev::Resume(id, Some(v)));
            }
            Effect::Call { .. } => {
                self.rt.sim.schedule_in(
                    self.rt.model.transfer_fixed,
                    Ev::Resume(id, Some(Value::Null)),
                );
            }
            Effect::Done(_) => {
                let inst = self.instances.remove(&id).expect("orphan live");
                self.orphans.remove(&id);
                // Everything this orphan ever ran was wasted: its final
                // stint plus any stints accumulated while it was blocked
                // before being squashed. The owning request is unknown by
                // now (lazy squash drops the metadata at kill time).
                let wasted = inst.accumulated_core
                    + inst
                        .started_at
                        .map(|s| now - s)
                        .unwrap_or(SimDuration::ZERO);
                self.rt
                    .charge_squashed(u64::MAX, inst.func, "orphan_done", 0, wasted);
                self.release_instance_resources(&inst, true, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Fault handling: slot retries with backoff, request aborts
    // ------------------------------------------------------------------

    /// Force-removes an instance that died (crash, hang timeout,
    /// exhausted KV retries, or request abort), releasing whatever core
    /// slot, queue position and container it holds. Unlike
    /// `kill_instance` this ignores the configured squash mechanism: the
    /// handler is already dead, so even lazy squashing cannot keep it
    /// running. Its container is not reusable.
    pub(super) fn teardown_instance(&mut self, id: InstanceId) {
        let now = self.rt.sim.now();
        let meta = self.meta.remove(&id);
        let acquired = meta.as_ref().map(|m| m.container_acquired).unwrap_or(false);
        let meta_req = meta.map(|m| m.req);
        self.orphans.remove(&id);
        let Some(inst) = self.instances.remove(&id) else {
            return;
        };
        let charge_req = meta_req.unwrap_or(RequestId(u64::MAX));
        match inst.state {
            InstanceState::Running => {
                let wasted = inst.accumulated_core
                    + inst
                        .started_at
                        .map(|s| now - s)
                        .unwrap_or(SimDuration::ZERO);
                self.rt
                    .charge_squashed(charge_req.0, inst.func, "teardown", 0, wasted);
                if self.rt.tracer.enabled() {
                    if let (Some(s), Some(req)) = (inst.started_at, meta_req) {
                        self.rt.tracer.emit(
                            s,
                            TraceEventKind::Span {
                                req: req.0,
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
                    charge_req.0,
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
                    charge_req.0,
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
        if acquired {
            self.rt
                .cluster
                .release_container(inst.node, inst.func, now, false);
        }
    }

    /// The instance executing `slot_id` suffered an unrecoverable-in-
    /// place fault (container crash, hang timeout, or exhausted storage
    /// retries). The slot and every dependent are squashed; the slot
    /// relaunches after backoff — or the whole request aborts once its
    /// retry budget is exhausted.
    pub(super) fn slot_fault(&mut self, req_id: RequestId, slot_id: SlotId) {
        // The faulted handler is dead on the spot, not squash-killed.
        let inst = self
            .requests
            .get_mut(&req_id)
            .and_then(|r| r.slot_inst.remove(&slot_id));
        if let Some(inst_id) = inst {
            self.teardown_instance(inst_id);
        }
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        if req.pipeline.slot(slot_id).is_none() {
            return; // already squashed away
        }
        let failures = req.attempts.entry(slot_id).or_insert(0);
        *failures += 1;
        let failures = *failures;
        if failures >= self.rt.retry.max_attempts {
            self.abort_request(req_id);
            return;
        }
        // Hold the relaunch until the backoff elapses; squash the slot
        // (reset in place, keeping its input) and its dependents now.
        req.retry_hold.insert(slot_id);
        self.rt.metrics.faults.retried += 1;
        let backoff = self.rt.retry.backoff(failures);
        let func = req.pipeline.slot(slot_id).map(|s| s.func.0);
        let now = self.rt.sim.now();
        self.rt.record(
            now,
            TraceEventKind::RetryBackoff {
                req: req_id.0,
                func: func.unwrap_or(u32::MAX),
                attempt: failures + 1,
                backoff,
            },
        );
        self.squash_from(req_id, slot_id, SquashKind::Fault);
        self.rt
            .sim
            .schedule_in(backoff, Ev::RetrySlot(req_id, slot_id));
    }

    /// Backoff elapsed: the held slot may launch again (it was reset in
    /// place by the fault squash, so the ordinary pump relaunches it).
    pub(super) fn on_retry_slot(&mut self, req_id: RequestId, slot_id: SlotId) {
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        req.retry_hold.remove(&slot_id);
        let now = self.rt.sim.now();
        self.rt.record(
            now,
            TraceEventKind::Replay {
                req: req_id.0,
                slot: slot_id.0,
            },
        );
        self.pump(req_id);
    }

    /// Invocation watchdog: a handler still live past the timeout is
    /// treated as hung and goes through the slot fault path. A blocked
    /// handler (legitimately waiting on a callee, stall, or deferred
    /// side effect) gets its watchdog re-armed instead of killed.
    pub(super) fn on_timeout(&mut self, id: InstanceId) {
        if self.orphans.contains(&id) {
            return;
        }
        let Some(meta) = self.meta.get(&id) else {
            return;
        };
        let (req_id, slot_id) = (meta.req, meta.slot);
        let Some(inst) = self.instances.get(&id) else {
            return;
        };
        match inst.state {
            InstanceState::Done | InstanceState::Squashed => {}
            InstanceState::Blocked => {
                if let Some(t) = self.rt.retry.invocation_timeout {
                    self.rt.sim.schedule_in(t, Ev::Timeout(id));
                }
            }
            _ => {
                let now = self.rt.sim.now();
                self.rt.record(
                    now,
                    TraceEventKind::FaultInjected {
                        req: req_id.0,
                        site: "timeout",
                    },
                );
                self.slot_fault(req_id, slot_id);
            }
        }
    }

    /// Terminally fails a request: tears down every instance still
    /// working for it, discards its speculative state, and records a
    /// [`RequestOutcome::Failed`]. Committed work (already flushed to
    /// global storage) stays, matching a real platform where a workflow
    /// aborts midway.
    pub(super) fn abort_request(&mut self, req_id: RequestId) {
        let now = self.rt.sim.now();
        let Some(req) = self.requests.remove(&req_id) else {
            return;
        };
        let mut victims: Vec<InstanceId> = req.slot_inst.values().copied().collect();
        victims.sort(); // HashMap order is not deterministic
        for id in victims {
            self.teardown_instance(id);
        }
        let mut wasted: Vec<(SlotId, SimDuration)> =
            req.slot_cpu.iter().map(|(s, t)| (*s, *t)).collect();
        wasted.sort_by_key(|(s, _)| *s); // HashMap order is not deterministic
        for (slot, t) in wasted {
            let func = req
                .pipeline
                .slot(slot)
                .map(|s| s.func)
                .unwrap_or(FuncId(u32::MAX));
            self.rt.charge_squashed(req_id.0, func, "abort", 0, t);
        }
        self.rt.record(
            now,
            TraceEventKind::Terminal {
                req: req_id.0,
                completed: false,
            },
        );
        self.rt.metrics.functions_squashed += u64::from(req.functions_squashed);
        if req.measured {
            self.rt.metrics.record_failure(InvocationRecord {
                arrived: req.arrived,
                completed: now,
                functions_run: req.functions_run,
                functions_squashed: req.functions_squashed,
                sequence: req.committed_sequence,
                outcome: RequestOutcome::Failed,
            });
        } else {
            self.rt.metrics.faults.aborted += 1;
        }
        // Closed loop: the client observes the failure and issues its
        // next request.
        harness::closed_loop_resubmit(self);
    }
}
