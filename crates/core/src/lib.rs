//! # hybrid-core — the hybrid scale-up/out Hadoop architecture
//!
//! The paper's contribution, as a library: deployment
//! [`architecture::Architecture`]s (the Table I measurement matrix, the
//! hybrid architecture, and the equal-cost THadoop/RHadoop baselines),
//! single-job measurement [`runner`]s with parallel sweeps, and §V
//! [`trace`]-driven workload replay.
//!
//! ```
//! use hybrid_core::{run_job, Architecture};
//! use workload::apps;
//!
//! // One 1 GB Grep on the scale-up cluster with remote storage:
//! let r = run_job(Architecture::UpOfs, &apps::grep(), 1 << 30);
//! assert!(r.succeeded());
//! ```

pub mod architecture;
pub mod runner;
pub mod trace;

pub use architecture::{Architecture, Deployment, DeploymentTuning, StorageKind};
pub use mapreduce::{ParallelStats, ReplayParallelism};
pub use runner::{
    cross_point_sweep, cross_point_sweep_with, grids, run_job, run_job_with, series_of, sweep,
    sweep_with,
};
pub use trace::{
    quantile_stats, run_trace, run_trace_adaptive_roundtrip_streaming_with,
    run_trace_adaptive_streaming_with, run_trace_adaptive_with, run_trace_streaming_with,
    run_trace_tenants_with, run_trace_with, TenantAttribution, TenantOutcome, TraceOutcome,
};
