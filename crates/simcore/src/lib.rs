//! # simcore — deterministic discrete-event simulation engine
//!
//! The foundation of the hybrid scale-up/out Hadoop reproduction: a minimal,
//! fully deterministic discrete-event kernel plus the fluid flow network in
//! which every hardware component (disk, RAM disk, NIC, remote storage
//! server) is a fair-shared resource.
//!
//! Layers above this crate:
//! - `cluster` declares machines and wires their devices into a
//!   [`FlowNetwork`];
//! - `storage` turns file reads/writes into sequences of flows
//!   (`IoPlan`s);
//! - `mapreduce` owns the [`EventQueue`] at run time and drives tasks
//!   through slots and flows.
//!
//! ## Determinism contract
//!
//! A simulation run is a pure function of `(specification, seed)`:
//! - the event queue breaks timestamp ties in insertion (FIFO) order;
//! - time is integer microseconds, so ordering never depends on float
//!   comparisons;
//! - all randomness flows through [`rng::substream`] so independent
//!   components draw from decorrelated substreams.

pub mod dist;
pub mod event;
pub mod fault;
pub mod flownet;
pub mod rng;
pub mod time;

pub use event::{EventQueue, QueuedEvent};
pub use fault::{
    FaultPlan, FaultRates, NodeFault, NodeFaultKind, RackStormRates, ServerFault, ServerFaultKind,
};
pub use flownet::{FlowId, FlowLogEntry, FlowNetwork, Generation, NetResourceId};
pub use rng::DetRng;
pub use time::{SimDuration, SimTime, TICKS_PER_SEC};
