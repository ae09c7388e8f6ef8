//! Instance event handling: launch, cold start, interpreter resume,
//! KV effects with fault retries, calls and HTTP gating (§V-C).
use super::*;

impl SpecCore {
    pub(super) fn on_launch(&mut self, id: InstanceId) {
        let Some(meta) = self.meta.get_mut(&id) else {
            return; // killed before launch
        };
        meta.container_acquired = true;
        let req_id = meta.req;
        let inst = self.instances.get_mut(&id).expect("live instance");
        let node = inst.node;
        let func = inst.func;
        let now = self.rt.sim.now();
        let acquired = self
            .rt
            .cluster
            .acquire_container(node, func, now, &self.rt.model);
        self.rt.record(
            now,
            TraceEventKind::ContainerAcquire {
                req: req_id.0,
                func: func.0,
                node: node.0 as u32,
                cold: matches!(acquired, ContainerAcquire::Cold(_)),
            },
        );
        match acquired {
            ContainerAcquire::Warm => self.try_start(id),
            ContainerAcquire::Cold(d) => {
                let inst = self.instances.get_mut(&id).expect("live");
                inst.breakdown.container_creation = self.rt.model.container_creation;
                inst.breakdown.runtime_setup = self.rt.model.runtime_setup;
                inst.state = InstanceState::ColdStarting;
                if self.rt.tracer.enabled() {
                    // Fig. 3 cold-start spans: container creation, then
                    // runtime setup for whatever remains of the delay.
                    let cc = if self.rt.model.container_creation < d {
                        self.rt.model.container_creation
                    } else {
                        d
                    };
                    self.rt.tracer.emit(
                        now,
                        TraceEventKind::Span {
                            req: req_id.0,
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
                                req: req_id.0,
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

    pub(super) fn try_start(&mut self, id: InstanceId) {
        if !self.instances.contains_key(&id) {
            return;
        }
        let now = self.rt.sim.now();
        let inst = self.instances.get_mut(&id).expect("live");
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

    pub(super) fn on_resume(&mut self, id: InstanceId, resume: Option<Value>) {
        if !self.instances.contains_key(&id) {
            return; // killed
        }
        if self.orphans.contains(&id) {
            self.orphan_step(id, resume);
            return;
        }
        let Some(meta) = self.meta.get(&id) else {
            return; // squashed; awaiting SquashRelease
        };
        let (req_id, slot_id) = (meta.req, meta.slot);
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
        if self.rt.faults.enabled() {
            if self.rt.faults.roll(FaultSite::ContainerCrash, now) {
                self.rt.record(
                    now,
                    TraceEventKind::FaultInjected {
                        req: req_id.0,
                        site: "container_crash",
                    },
                );
                self.slot_fault(req_id, slot_id);
                return;
            }
            if self.rt.faults.roll(FaultSite::Hang, now) {
                self.rt.record(
                    now,
                    TraceEventKind::FaultInjected {
                        req: req_id.0,
                        site: "hang",
                    },
                );
                // The wedged handler keeps its core and container but
                // schedules nothing further; only the invocation
                // watchdog (if configured) can recover it.
                return;
            }
        }
        let inst = self.instances.get_mut(&id).expect("live");
        let effect = match inst.step(resume) {
            Ok(e) => e,
            Err(err) => {
                let out = Value::map([("error", Value::str(err.to_string()))]);
                self.complete_slot(req_id, slot_id, id, out);
                return;
            }
        };
        match effect {
            Effect::Compute(d) => {
                inst.breakdown.execution += d;
                self.rt.sim.schedule_in(d, Ev::Resume(id, None));
            }
            Effect::Get { key } => self.handle_get(req_id, slot_id, id, key, 1),
            Effect::Set { key, value } => self.handle_set(req_id, slot_id, id, key, value, 1),
            Effect::Http { .. } => {
                let req = self.requests.get(&req_id).expect("live");
                if Self::effectively_head(req, slot_id) {
                    self.rt
                        .sim
                        .schedule_in(self.rt.model.http_latency, Ev::Resume(id, None));
                } else {
                    // Deferred until the function turns non-speculative
                    // (§VI, "Side-effect Handling").
                    let req = self.requests.get_mut(&req_id).expect("live");
                    req.deferred_http.insert(slot_id, id);
                    self.block_instance(id);
                }
            }
            Effect::FileWrite { name, data } => {
                inst.files.insert(name, data);
                self.rt.sim.schedule_now(Ev::Resume(id, None));
            }
            Effect::FileRead { name } => {
                let v = inst.files.get(&name).cloned().unwrap_or(Value::Null);
                self.rt.sim.schedule_now(Ev::Resume(id, Some(v)));
            }
            Effect::Call { func, args } => self.handle_call(req_id, slot_id, id, &func, args),
            Effect::Done(out) => self.complete_slot(req_id, slot_id, id, out),
        }
    }

    /// Releases the instance's execution slot while it blocks (waiting
    /// on a callee, a stalled read, or a deferred side effect). A blocked
    /// handler process is descheduled by the OS; its container stays
    /// allocated.
    pub(super) fn block_instance(&mut self, id: InstanceId) {
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
                if let Some(m) = self.meta.get(&id) {
                    self.rt.tracer.emit(
                        start,
                        TraceEventKind::Span {
                            req: m.req.0,
                            func: inst.func.0,
                            node: inst.node.0 as u32,
                            phase: Phase::Execution,
                            end: now,
                        },
                    );
                }
            }
        }
        inst.state = InstanceState::Blocked;
        let node = inst.node;
        if let Some(next) = self.rt.cluster.node_mut(node).cores.release(now) {
            self.grant_core(next, now);
        }
    }

    /// Hands a freed slot to a queued instance and starts/resumes it.
    pub(super) fn grant_core(&mut self, next: InstanceId, now: SimTime) {
        if let Some(w) = self.instances.get_mut(&next) {
            w.state = InstanceState::Running;
            w.started_at = Some(now);
            let resume = w.pending_resume.take().unwrap_or(None);
            self.rt.sim.schedule_now(Ev::Resume(next, resume));
        }
    }

    /// Rolls for a transient KV fault at `site` on behalf of `id`.
    /// Returns true if a fault was injected and handled (retry scheduled
    /// or escalated); the storage operation must then not proceed. The
    /// retried operation is built by `op` only when a retry is scheduled,
    /// so fault-free runs never copy the key or value.
    pub(super) fn kv_fault(
        &mut self,
        req_id: RequestId,
        slot_id: SlotId,
        id: InstanceId,
        site: FaultSite,
        op: impl FnOnce() -> KvOp,
        attempt: u32,
    ) -> bool {
        let now = self.rt.sim.now();
        if !self.rt.faults.enabled() || !self.rt.faults.roll(site, now) {
            return false;
        }
        let site = match site {
            FaultSite::KvGet => "kv_get",
            _ => "kv_set",
        };
        self.rt.record(
            now,
            TraceEventKind::FaultInjected {
                req: req_id.0,
                site,
            },
        );
        if attempt >= self.rt.retry.max_attempts {
            // Storage retries exhausted: the whole execution faults.
            self.slot_fault(req_id, slot_id);
            return true;
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
                req: req_id.0,
                func,
                attempt: attempt + 1,
                backoff,
            },
        );
        self.rt.metrics.faults.retried += 1;
        self.rt
            .sim
            .schedule_in(backoff, Ev::KvRetry(id, op(), attempt + 1));
        true
    }

    /// Storage read through the Data Buffer (§V-C).
    pub(super) fn handle_get(
        &mut self,
        req_id: RequestId,
        slot_id: SlotId,
        id: InstanceId,
        key: String,
        attempt: u32,
    ) {
        let op = || KvOp::Get { key: key.clone() };
        if self.kv_fault(req_id, slot_id, id, FaultSite::KvGet, op, attempt) {
            return;
        }
        let lat = self.rt.kv.latency().read + self.rt.model.data_buffer_hop;
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        // The slot may have been squashed away while this operation was
        // in flight (kill latency); reads from dying executions are void.
        let Some(slot) = req.pipeline.slot(slot_id) else {
            return;
        };
        let my_func = slot.func;

        // Stall-list check (§V-C): if this (producer, consumer, record)
        // has squashed before, stall instead of reading prematurely.
        if self.config.stall_optimization {
            let producers = self.stall_list.producers_for(my_func, &key);
            if !producers.is_empty() {
                let my_pos = req.pipeline.position(slot_id).expect("live");
                let pending_producer = req.pipeline.iter_order().take(my_pos).find(|p| {
                    let s = req.pipeline.slot(*p).expect("live");
                    producers.contains(&s.func)
                        && s.state != SlotState::Completed
                        && !req.buffer.has_write(*p, &key)
                });
                if let Some(producer) = pending_producer {
                    req.stalled_reads.push(StalledRead {
                        slot: slot_id,
                        inst: id,
                        key,
                        producer,
                    });
                    self.stall_list.record_stall();
                    self.block_instance(id);
                    return;
                }
            }
        }
        let value = match req.buffer.read(slot_id, &key, &req.pipeline) {
            ReadResult::Forwarded(v) => v,
            ReadResult::Global => self.rt.kv.get(&key).cloned().unwrap_or(Value::Null),
        };
        if let Some(inst) = self.instances.get_mut(&id) {
            inst.breakdown.execution += lat;
        }
        let now = self.rt.sim.now();
        self.rt.kv_issued(now + lat, false);
        self.rt.sim.schedule_in(lat, Ev::Resume(id, Some(value)));
    }

    /// Storage write through the Data Buffer: buffered, with out-of-order
    /// RAW detection (§V-C).
    pub(super) fn handle_set(
        &mut self,
        req_id: RequestId,
        slot_id: SlotId,
        id: InstanceId,
        key: String,
        value: Value,
        attempt: u32,
    ) {
        let op = || KvOp::Set {
            key: key.clone(),
            value: value.clone(),
        };
        if self.kv_fault(req_id, slot_id, id, FaultSite::KvSet, op, attempt) {
            return;
        }
        let lat = self.rt.kv.latency().write + self.rt.model.data_buffer_hop;
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        // Writes from squashed-in-flight executions are void (§V-E).
        let Some(slot) = req.pipeline.slot(slot_id) else {
            return;
        };
        let my_func = slot.func;
        let victims = req.buffer.write(slot_id, &key, value, &req.pipeline);

        // Remember the producer→consumer pairs that squash (stall list).
        if let Some(first) = victims.first() {
            let consumer_func = req.pipeline.slot(*first).map(|s| s.func);
            if let Some(cf) = consumer_func {
                self.stall_list.record_squash(my_func, cf, &key);
            }
            let first = *first;
            self.squash_from(req_id, first, SquashKind::Violation);
        }

        // Release any stalled reads waiting for this producer+key.
        self.release_stalls(req_id, Some((slot_id, key)));

        if let Some(inst) = self.instances.get_mut(&id) {
            inst.breakdown.execution += lat;
        }
        let now = self.rt.sim.now();
        self.rt.kv_issued(now + lat, true);
        self.rt.sim.schedule_in(lat, Ev::Resume(id, None));
    }

    /// Re-resolves stalled reads whose producer wrote the record,
    /// completed, or disappeared.
    pub(super) fn release_stalls(&mut self, req_id: RequestId, wrote: Option<(SlotId, String)>) {
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        let mut released = Vec::new();
        req.stalled_reads.retain(|sr| {
            let producer_live = req.pipeline.slot(sr.producer).is_some();
            let producer_done = req
                .pipeline
                .slot(sr.producer)
                .map(|s| s.state == SlotState::Completed)
                .unwrap_or(true);
            let produced = req.buffer.has_write(sr.producer, &sr.key)
                || wrote
                    .as_ref()
                    .map(|(p, k)| *p == sr.producer && *k == sr.key)
                    .unwrap_or(false);
            if !producer_live || producer_done || produced {
                released.push((sr.slot, sr.inst, sr.key.clone()));
                false
            } else {
                true
            }
        });
        for (slot, inst, key) in released {
            // Re-issue the read, now past the stall window.
            if self.instances.contains_key(&inst) {
                self.handle_get(req_id, slot, inst, key, 1);
            }
        }
    }

    /// Implicit-workflow call: match against prefetched callees or spawn
    /// on demand (§V-D).
    pub(super) fn handle_call(
        &mut self,
        req_id: RequestId,
        caller_slot: SlotId,
        caller_inst: InstanceId,
        func_name: &str,
        args: Value,
    ) {
        let Some(callee_func) = self.rt.app.registry.lookup(func_name) else {
            // Unknown callee: resolve as Null after an RPC hop.
            self.rt.sim.schedule_in(
                self.rt.model.transfer_fixed,
                Ev::Resume(caller_inst, Some(Value::Null)),
            );
            return;
        };
        let Some(req) = self.requests.get_mut(&req_id) else {
            return;
        };
        if req.pipeline.slot(caller_slot).is_none() {
            return; // caller squashed while the call was in flight
        }
        let cs = req.call_state.entry(caller_slot).or_default();
        let site = cs.cursor;
        cs.cursor += 1;

        // Drop leading prefetch entries whose slots were squashed away.
        while let Some(&h) = cs.prefetched.first() {
            if req.pipeline.slot(h).is_none() {
                cs.prefetched.remove(0);
            } else {
                break;
            }
        }
        // Is there a prefetched callee slot for this site?
        let prefetched = cs.prefetched.first().copied();
        if let Some(cslot) = prefetched {
            let matches = req
                .pipeline
                .slot(cslot)
                .map(|s| {
                    s.func == callee_func
                        && s.input.as_ref() == Some(&args)
                        && matches!(s.role, SlotRole::Callee { site: ps, .. } if ps == site)
                })
                .unwrap_or(false);
            if matches {
                let cs = req.call_state.get_mut(&caller_slot).expect("present");
                cs.prefetched.remove(0);
                let state = req.pipeline.slot(cslot).expect("live").state;
                if state == SlotState::Completed {
                    self.consume_callee(req_id, caller_slot, caller_inst, cslot);
                } else {
                    // Stall the caller until the callee completes (§V-D);
                    // the blocked caller yields its execution slot.
                    req.waiting_callers.insert(cslot, caller_slot);
                    req.waiting_args.insert(caller_slot, args);
                    self.block_instance(caller_inst);
                    // The callee may just have become the non-speculative
                    // execution point: release its deferred side effects.
                    self.release_deferred_http(req_id);
                }
                return;
            }
            // Mismatch: squash the wrong prefetch (and everything after).
            let cs = req.call_state.get_mut(&caller_slot).expect("present");
            cs.prefetched.remove(0);
            self.squash_from(req_id, cslot, SquashKind::WrongPath);
        }

        // Spawn the callee on demand (non-speculative input).
        let req = self.requests.get_mut(&req_id).expect("live");
        let caller_path = req.pipeline.slot(caller_slot).expect("live").path;
        let anchor = Self::block_end(req, caller_slot);
        let cslot = req.pipeline.insert_after(
            anchor,
            callee_func,
            SlotRole::Callee {
                caller: caller_slot,
                site,
            },
            caller_path,
        );
        {
            let s = req.pipeline.slot_mut(cslot).expect("fresh");
            s.input = Some(args.clone());
            s.non_speculative = self
                .rt
                .app
                .registry
                .spec(callee_func)
                .annotations
                .non_speculative;
        }
        req.waiting_callers.insert(cslot, caller_slot);
        req.waiting_args.insert(caller_slot, args);
        let launchable = {
            let req = self.requests.get(&req_id).expect("live");
            let slot = req.pipeline.slot(cslot).expect("live");
            !slot.non_speculative || req.pipeline.is_head(cslot)
        };
        self.block_instance(caller_inst);
        if launchable {
            self.launch_slot(req_id, cslot);
        }
        self.release_deferred_http(req_id);
    }

    /// True when `slot` is non-speculative in the paper's sense: it is
    /// the pipeline head, or it is a callee whose entire caller chain is
    /// head-and-blocked-waiting on it (§V-D: the caller stalls at the
    /// call site, so the callee is the actual execution point).
    pub(super) fn effectively_head(req: &Req, slot: SlotId) -> bool {
        let mut cur = slot;
        loop {
            if req.pipeline.is_head(cur) {
                return true;
            }
            let Some(s) = req.pipeline.slot(cur) else {
                return false;
            };
            match s.role {
                SlotRole::Callee { caller, .. }
                    if req.waiting_callers.get(&cur) == Some(&caller) =>
                {
                    cur = caller;
                }
                _ => return false,
            }
        }
    }

    /// The top-level entry slot a callee ultimately works for (walks the
    /// caller chain).
    pub(super) fn entry_ancestor(req: &Req, slot: SlotId) -> Option<SlotId> {
        let mut cur = slot;
        loop {
            let s = req.pipeline.slot(cur)?;
            match s.role {
                SlotRole::Entry { .. } => return Some(cur),
                SlotRole::Callee { caller, .. } => cur = caller,
            }
        }
    }

    /// Resumes any deferred side effects whose slot has become
    /// effectively non-speculative.
    pub(super) fn release_deferred_http(&mut self, req_id: RequestId) {
        let Some(req) = self.requests.get(&req_id) else {
            return;
        };
        let ready: Vec<(SlotId, InstanceId)> = req
            .deferred_http
            .iter()
            .filter(|(slot, _)| Self::effectively_head(req, **slot))
            .map(|(s, i)| (*s, *i))
            .collect();
        let req = self.requests.get_mut(&req_id).expect("live");
        for (slot, inst) in ready {
            req.deferred_http.remove(&slot);
            self.rt
                .sim
                .schedule_in(self.rt.model.http_latency, Ev::Resume(inst, None));
        }
    }

    /// Folds a completed callee into its caller: merge Data Buffer
    /// columns, record learning, remove the callee slot, resume the
    /// caller with the callee's output.
    pub(super) fn consume_callee(
        &mut self,
        req_id: RequestId,
        caller_slot: SlotId,
        caller_inst: InstanceId,
        callee_slot: SlotId,
    ) {
        let req = self.requests.get_mut(&req_id).expect("live");
        req.buffer.merge(callee_slot, caller_slot);
        let callee = req.pipeline.remove(callee_slot);
        req.extended.remove(&callee_slot);
        req.waiting_callers.remove(&callee_slot);
        req.waiting_args.remove(&caller_slot);
        let input = callee.input.expect("callee input");
        let output = callee.output.expect("completed callee");
        req.committed_sequence.push(callee.func.0);
        // The caller's memo row records its *direct* calls only.
        if let Some(caller) = req.pipeline.slot_mut(caller_slot) {
            caller.learned_calls.push((callee.func, input.clone()));
        }
        // Hand the callee's own observation (with its direct callee list)
        // to the owning entry slot for commit-time promotion.
        if let Some(entry) = Self::entry_ancestor(req, caller_slot) {
            req.call_records.push((
                entry,
                Observed {
                    func: callee.func,
                    input,
                    output: output.clone(),
                    calls: callee.learned_calls,
                },
            ));
        }
        req.call_state.remove(&callee_slot);
        // Move callee CPU accounting into the caller's bucket.
        if let Some(t) = req.slot_cpu.remove(&callee_slot) {
            *req.slot_cpu.entry(caller_slot).or_insert(SimDuration::ZERO) += t;
        }
        self.rt.sim.schedule_in(
            self.rt.model.data_buffer_hop,
            Ev::Resume(caller_inst, Some(output)),
        );
    }
}
