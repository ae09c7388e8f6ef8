#![warn(missing_docs)]

//! # specfaas-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! SpecFaaS paper's evaluation (§VIII). One binary per artifact:
//!
//! | Binary   | Paper artifact |
//! |----------|----------------|
//! | `table1` | Table I — application-suite characterization |
//! | `fig3`   | Fig. 3 — cold-start response-time breakdown |
//! | `fig4`   | Fig. 4 — CDF of P50–P90 node CPU utilization |
//! | `obs2`   | Observation 2 — most-popular-sequence share |
//! | `obs34`  | Observations 3/4/5 — side-effect & blob-trace stats |
//! | `fig11`  | Fig. 11 — speedup per application × load |
//! | `fig12`  | Fig. 12 — speedup breakdown (cumulative ablation) |
//! | `table3` | Table III — effective throughput under QoS |
//! | `fig13`  | Fig. 13 — normalized P99 tail latency |
//! | `fig14`  | Fig. 14 — speedup vs branch-prediction hit rate |
//! | `table4` | Table IV — CPU utilization of squash mechanisms |
//! | `run_all`| everything above, in sequence |
//!
//! Two diagnostic binaries sit outside the paper's figure set:
//!
//! | Binary    | Purpose |
//! |-----------|---------|
//! | `faults`  | fault-injection ablation: fault-rate and retry-budget sweeps |
//! | `trace`   | flight recorder: invariant-checked run, `--trace` exports Chrome-trace JSON |
//! | `profile` | metrics registry + trace analytics: Prometheus/CSV export, critical paths, squash attribution |
//! | `scale`   | trace-driven multi-tenant scale runs: 10⁶+ requests across {10², 10³, 10⁴} tenants, guarded by `BENCH_scale.json` |
//!
//! The library half provides the shared measurement protocol
//! ([`runner`]), plain-text table rendering ([`report`]), and post-hoc
//! trace analytics ([`analysis`]).

pub mod analysis;
pub mod artifact;
pub mod executor;
pub mod microbench;
pub mod report;
pub mod runner;
pub mod scale_guard;
pub mod wallclock_guard;

pub use executor::{run_cells, ExperimentCell};
pub use runner::{
    measure_baseline_open, measure_spec_open, prepared_baseline, prepared_spec, ExperimentParams,
};
