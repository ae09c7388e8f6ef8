//! Function instances: a running handler process.
//!
//! An instance binds together an interpreter execution, the node / core
//! slot / container it occupies, its private temp-file namespace (the
//! copy-on-write scheme of §VI), and timing bookkeeping for the Fig. 3
//! breakdown.

use specfaas_sim::hash::FxHashMap;
use std::fmt;

use specfaas_sim::{SimRng, SimTime};
use specfaas_storage::Value;
use specfaas_workflow::{Effect, FuncId, Interp, ProgError};

use crate::cluster::NodeId;
use crate::metrics::Breakdown;

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
    /// Waiting for its container to be created (cold start).
    ColdStarting,
    /// Waiting in a node's core queue.
    WaitingCore,
    /// Executing (or in a short storage wait) while holding a core.
    Running,
    /// Blocked (waiting on a callee, a stalled read, or a deferred side
    /// effect) with its execution slot *released* — the OS deschedules a
    /// blocked handler process; the container stays allocated.
    Blocked,
    /// Finished; output available.
    Done,
    /// Killed by a squash.
    Squashed,
}

/// One executing handler process.
#[derive(Debug)]
pub struct FnInstance {
    /// This instance's id.
    pub id: InstanceId,
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
    /// Private temp-file namespace (discarded at handler exit, §VI).
    pub files: FxHashMap<String, Value>,
    /// When the launch was initiated (for breakdown accounting).
    pub launched_at: SimTime,
    /// When the handler actually started executing on a core.
    pub started_at: Option<SimTime>,
    /// Per-component time attribution for Fig. 3.
    pub breakdown: Breakdown,
    /// Core time accumulated across earlier running stints (before
    /// blocking released the slot).
    pub accumulated_core: specfaas_sim::SimDuration,
    /// Resume value stashed while the instance waits to re-acquire a
    /// core after being unblocked.
    pub pending_resume: Option<Option<Value>>,
    /// Output document, once done.
    pub output: Option<Value>,
    /// True once the handler has applied a write to shared storage.
    /// Engines that apply writes eagerly (the baseline) use this as the
    /// fault-injection point of no return: retrying a partially
    /// externalized handler would double-apply non-idempotent effects.
    pub externalized: bool,
}

impl FnInstance {
    /// Creates an instance about to launch `func` with `input`.
    pub fn new(
        id: InstanceId,
        func: FuncId,
        node: NodeId,
        program: &specfaas_workflow::Program,
        input: Value,
        rng: SimRng,
        launched_at: SimTime,
    ) -> Self {
        FnInstance {
            id,
            func,
            node,
            interp: Interp::new(program, input),
            rng,
            state: InstanceState::ColdStarting,
            files: FxHashMap::default(),
            launched_at,
            started_at: None,
            breakdown: Breakdown::default(),
            accumulated_core: specfaas_sim::SimDuration::ZERO,
            pending_resume: None,
            output: None,
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

    /// True if the instance still occupies a core slot.
    pub fn holds_core(&self) -> bool {
        matches!(self.state, InstanceState::Running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_workflow::expr::lit;
    use specfaas_workflow::Program;

    #[test]
    fn instance_runs_program_to_done() {
        let p = Program::builder().compute_ms(2).ret(lit("out"));
        let mut inst = FnInstance::new(
            InstanceId(1),
            FuncId(0),
            NodeId(0),
            &p,
            Value::Null,
            SimRng::seed(1),
            SimTime::ZERO,
        );
        assert!(matches!(inst.step(None).unwrap(), Effect::Compute(_)));
        assert!(matches!(inst.step(None).unwrap(), Effect::Done(_)));
    }

    #[test]
    fn files_namespace_starts_empty() {
        let p = Program::builder().ret(lit(1i64));
        let inst = FnInstance::new(
            InstanceId(1),
            FuncId(0),
            NodeId(0),
            &p,
            Value::Null,
            SimRng::seed(1),
            SimTime::ZERO,
        );
        assert!(inst.files.is_empty());
        assert_eq!(inst.state, InstanceState::ColdStarting);
        assert!(!inst.holds_core());
    }
}
