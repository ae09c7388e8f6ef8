#![warn(missing_docs)]

//! # specfaas-platform
//!
//! An OpenWhisk-shaped serverless platform substrate running on the
//! discrete-event simulator, plus the conventional (baseline) workflow
//! execution engine that SpecFaaS is compared against.
//!
//! The paper's testbed is Apache OpenWhisk on five 24-core (2-way SMT)
//! AMD EPYC 7402P servers (§VII). This crate reproduces that environment
//! as explicit, calibrated models:
//!
//! * [`overheads`] — every response-time component of the paper's Fig. 3:
//!   container creation, runtime setup, platform overhead, transfer
//!   function overhead, plus storage and squash costs (§VI).
//! * [`cluster`] — nodes × execution slots with FIFO queueing, and the
//!   per-node controller service stations whose queueing delay is what
//!   makes overheads grow with load.
//! * [`container`] — container lifecycle: cold start, warm pools, and the
//!   initializer/handler process model that makes SpecFaaS squashes cheap
//!   (§VI, "Minimizing Squash Cost").
//! * [`exec`] — function instances (a running interpreter bound to a
//!   node, core slot, container and private temp-file namespace) and
//!   the instance lifecycle both engines share.
//! * [`harness`] — the shared engine-runtime layer: a [`Runtime`] of
//!   engine-agnostic state embedded in each engine core, the
//!   [`EngineCore`] trait, and the generic [`Harness`] driver that owns
//!   the load drivers and all instrument attachment.
//! * [`policy`] — the pluggable platform-policy layer: placement,
//!   keep-alive and prewarm as traits, with the paper's fixed platform as
//!   the bit-identical defaults, threaded through both the single-app
//!   cluster path and the multi-tenant fleet.
//! * [`baseline`] — the conventional OpenWhisk execution engine: strictly
//!   sequential function scheduling through controller + conductor,
//!   expressed as an [`EngineCore`].
//! * [`workload`] — Poisson arrival generation (§VII) and request-level
//!   bookkeeping.
//! * [`metrics`] — response times, per-component breakdowns, throughput
//!   and utilization measurements.

pub mod baseline;
pub mod cluster;
pub mod container;
pub mod exec;
pub mod fleet;
pub mod harness;
pub mod metrics;
pub mod overheads;
pub mod policy;
pub mod scoreboard;
pub mod workload;

pub use baseline::{BaselineCore, BaselineEngine};
pub use cluster::{Cluster, NodeId};
pub use container::{ContainerAcquire, ContainerPool, FuncContainerStats};
pub use exec::{FnInstance, InstanceId, InstanceState};
pub use fleet::{Fleet, ScaleConfig, ScaleEngine, ScaleStats, TemplateProfile, WarmPool};
pub use harness::{EngineCore, Harness, Runtime};
pub use metrics::{Breakdown, FaultStats, InvocationRecord, RequestOutcome, RunMetrics};
pub use overheads::OverheadModel;
pub use policy::{
    KeepAliveChoice, KeepAlivePolicy, PlacementChoice, PlacementPolicy, PolicyConfig,
    PrewarmChoice, PrewarmPolicy,
};
pub use scoreboard::ScoreboardRow;
pub use workload::{Load, RequestId, Workload};
