//! # cluster — hardware models for the hybrid scale-up/out testbed
//!
//! Declares machines (cores, RAM, disks, NICs, RAM disks), wires their
//! devices into a [`simcore::FlowNetwork`], and carries the two pieces of
//! deployment-level physics the paper's measurements depend on:
//!
//! - the **interconnect fabric** ([`fabric::FabricSpec`]): per-hop and
//!   per-storage-request latencies of the 10 Gb/s Myrinet;
//! - the **cost model** ([`cost`]): the paper compares clusters of *equal
//!   price*, and every experiment here asserts the same parity.
//!
//! [`presets`] pins the Clemson Palmetto hardware from the paper's §II-C;
//! it is the single home of all calibration constants.

pub mod cost;
pub mod fabric;
pub mod machine;
pub mod presets;
pub mod spec;

pub use fabric::FabricSpec;
pub use machine::{DiskSpec, MachineSpec, NicSpec, RamdiskSpec, GB, KB, MB, TB};
pub use spec::{BuiltCluster, ClusterSpec, Node, NodeId};
