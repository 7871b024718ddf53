//! Multi-resource fluid flows.
//!
//! Disks, RAM disks, NICs and remote storage servers are fair-shared
//! devices, and real transfers cross several of them at once — an HDFS
//! remote read occupies the source disk, the source NIC and the destination
//! NIC simultaneously — so a transfer's rate is governed by the tightest of
//! those shares. [`FlowNetwork`] models this directly:
//!
//! > rate(f) = min over resources r on f's path of ( capacity(r) / n(r) ),
//! > optionally capped per flow, where n(r) is the number of flows touching r.
//!
//! This is max-min fairness *without slack redistribution*: when a flow is
//! bottlenecked elsewhere, its unused share on other resources is not handed
//! to competitors. The approximation is conservative (never optimistic about
//! bandwidth), deterministic, and cheap — the properties that matter for
//! reproducing the paper's orderings.
//!
//! # Engine contract
//!
//! A network cannot know its flows' completion times in advance: every
//! arrival or departure changes the shares. Any membership or capacity
//! change therefore bumps one global [`Generation`], and the engine keeps a
//! single pending completion event per network:
//!
//! 1. After a change, the engine asks [`FlowNetwork::next_completion_time`]
//!    and schedules a completion event stamped with
//!    [`FlowNetwork::generation`].
//! 2. When the event pops, the engine compares its stamp with the current
//!    generation and ignores it if stale.
//! 3. A fresh event calls [`FlowNetwork::poll_completions`], which advances
//!    the fluid state to `now` and returns every flow that has finished.
//!
//! Between consecutive events no membership changes occur, so all rates are
//! constant and linear advancement is exact. Completion times are rounded
//! **up** to the next tick so that by the time the event fires the flow has
//! received its service; the float residue this leaves, below a
//! thousandth of a byte, counts as finished.
//!
//! # Incremental rates
//!
//! A flow's rate depends only on its cap and on the capacity and flow count
//! of the resources on its path. A resource whose count or capacity changes
//! is marked dirty, and the next pass over the flows recomputes the rate of
//! exactly the flows that touch a dirty resource; every other cached rate
//! would come out bit for bit the same. Rates are refreshed inside a pass
//! the network makes anyway — the credit loop of `advance`, or the scan of
//! [`FlowNetwork::next_completion_time`] — so an epoch walks the flows
//! twice: the credit, then the refresh and the scan together.

use crate::time::{SimDuration, SimTime, TICKS_PER_SEC};

/// Identifies one flow (an in-flight transfer) within the whole simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// Monotone counter identifying a membership epoch of a [`FlowNetwork`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Generation(pub u64);

/// Index of a resource within a [`FlowNetwork`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NetResourceId(pub u32);

/// Residual bytes below this threshold count as finished: completion times
/// are rounded up to whole ticks, and the float credit that lands on the
/// rounded time can leave a sub-byte residue.
const DONE_EPS_BYTES: f64 = 1e-3;

/// Paths of up to this many hops are stored inside the flow. The storage
/// planners emit at most four (an HDFS pipeline hop: source disk, source
/// NIC, destination NIC, destination disk).
const INLINE_HOPS: usize = 4;

#[derive(Debug, Clone)]
struct NetResource {
    name: String,
    capacity: f64,
    active: u32,
    /// Set when `active` or `capacity` changed since the last rate refresh;
    /// the id is then also listed in [`FlowNetwork::dirty`].
    dirty: bool,
    bytes_served: f64,
    /// Total length of the closed busy periods.
    busy: SimDuration,
    /// Start of the open busy period; meaningful while `active > 0`.
    busy_since: SimTime,
}

/// A flow's hops: inline when short, on the heap otherwise.
#[derive(Debug, Clone)]
enum Path {
    Inline {
        len: u8,
        hops: [NetResourceId; INLINE_HOPS],
    },
    Spilled(Box<[NetResourceId]>),
}

impl Path {
    fn new(path: &[NetResourceId]) -> Self {
        if path.len() <= INLINE_HOPS {
            let mut hops = [NetResourceId(0); INLINE_HOPS];
            hops[..path.len()].copy_from_slice(path);
            Path::Inline {
                len: path.len() as u8,
                hops,
            }
        } else {
            Path::Spilled(path.into())
        }
    }

    fn hops(&self) -> &[NetResourceId] {
        match self {
            Path::Inline { len, hops } => &hops[..*len as usize],
            Path::Spilled(hops) => hops,
        }
    }
}

#[derive(Debug, Clone)]
struct NetFlow {
    id: FlowId,
    /// False once the flow completed or was cancelled: a tombstone that
    /// keeps [`FlowNetwork::flows`] sorted until the next compaction.
    live: bool,
    remaining: f64,
    /// Rate under the current membership, unless a hop is dirty.
    rate: f64,
    rate_cap: Option<f64>,
    bytes_total: f64,
    started: SimTime,
    path: Path,
}

/// One finished (or aborted) flow, as recorded by the opt-in flow log.
///
/// The log exists for observability: [`FlowNetwork::poll_completions`]
/// removes flows before returning their ids, so a caller that wants start
/// times and sizes after the fact enables logging and drains entries
/// instead of re-deriving them. Flow identity is all the network knows —
/// callers attach their own semantics (shuffle vs. HDFS read vs.
/// re-replication) by joining on [`FlowId`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlowLogEntry {
    /// The flow's id.
    pub id: FlowId,
    /// Total bytes the flow was created with.
    pub bytes: f64,
    /// When the flow entered the network.
    pub started: SimTime,
    /// When it completed or was cancelled.
    pub ended: SimTime,
    /// True if the flow was aborted rather than run to completion.
    pub cancelled: bool,
}

/// A set of shared resources and the composite flows crossing them.
///
/// Flows live in a `Vec` sorted by [`FlowId`]: the fluid credit loop must
/// accumulate `bytes_served` in FlowId order for byte-reproducible traces,
/// and the engine issues increasing ids, so an arrival is a push and the
/// passes walk memory in order. A departure leaves a tombstone, compacted
/// away once tombstones outnumber live flows; lookups binary-search. Rates
/// are cached per flow and refreshed only where a resource changed (see
/// the module docs), busy time is kept as busy periods that open and close
/// where a resource's flow count crosses zero, and flows that cross the
/// completion threshold are recorded in `done_buf` as they cross, so
/// polling does not rescan the whole network.
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    resources: Vec<NetResource>,
    /// Ascending by id, tombstones included.
    flows: Vec<NetFlow>,
    /// Number of live entries in `flows`.
    live: usize,
    /// Resources marked dirty since the last rate refresh.
    dirty: Vec<NetResourceId>,
    last_update: SimTime,
    generation: u64,
    /// Flows whose `remaining` has crossed [`DONE_EPS_BYTES`] and which have
    /// not yet been returned by [`Self::poll_completions`] (may contain ids
    /// cancelled since they crossed).
    done_buf: Vec<FlowId>,
    log_flows: bool,
    flow_log: Vec<FlowLogEntry>,
}

/// The rate rule: the cap, lowered to each hop's fair share in path order.
fn rate_of(resources: &[NetResource], rate_cap: Option<f64>, path: &[NetResourceId]) -> f64 {
    let mut rate = rate_cap.unwrap_or(f64::INFINITY);
    for &r in path {
        let res = &resources[r.0 as usize];
        debug_assert!(res.active > 0);
        rate = rate.min(res.capacity / res.active as f64);
    }
    if rate.is_finite() {
        rate
    } else {
        // Pathless, uncapped flow: completes instantly (latency-only).
        f64::MAX
    }
}

/// Recompute `fl`'s rate if a hop on its path is dirty.
fn refresh_rate(resources: &[NetResource], fl: &mut NetFlow) {
    let path = fl.path.hops();
    if path.iter().any(|r| resources[r.0 as usize].dirty) {
        fl.rate = rate_of(resources, fl.rate_cap, path);
    }
}

impl FlowNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a resource with aggregate `capacity` bytes/s.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite capacity.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> NetResourceId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        let id = NetResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(NetResource {
            name: name.into(),
            capacity,
            active: 0,
            dirty: false,
            bytes_served: 0.0,
            busy: SimDuration::ZERO,
            busy_since: SimTime::ZERO,
        });
        id
    }

    /// Name of resource `r`.
    pub fn resource_name(&self, r: NetResourceId) -> &str {
        &self.resources[r.0 as usize].name
    }

    /// Capacity of resource `r` in bytes/s.
    pub fn resource_capacity(&self, r: NetResourceId) -> f64 {
        self.resources[r.0 as usize].capacity
    }

    /// Change the capacity of resource `r` at time `now` (fault injection: a
    /// degraded storage server serves at a fraction of its rated bandwidth).
    ///
    /// Advances the fluid state first so service already rendered is credited
    /// at the old rate, then bumps the generation so the engine reschedules
    /// its pending completion event against the new rates.
    ///
    /// # Panics
    /// Panics on non-positive or non-finite capacity.
    pub fn set_resource_capacity(
        &mut self,
        now: SimTime,
        r: NetResourceId,
        capacity: f64,
    ) -> Generation {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        self.advance(now);
        self.resources[r.0 as usize].capacity = capacity;
        self.mark_dirty(r);
        self.generation += 1;
        Generation(self.generation)
    }

    /// Bytes served by resource `r` so far (advanced state only).
    pub fn resource_bytes_served(&self, r: NetResourceId) -> f64 {
        self.resources[r.0 as usize].bytes_served
    }

    /// Time resource `r` has spent with ≥1 active flow, up to the last update.
    pub fn resource_busy_time(&self, r: NetResourceId) -> SimDuration {
        let res = &self.resources[r.0 as usize];
        if res.active > 0 {
            res.busy + self.last_update.since(res.busy_since)
        } else {
            res.busy
        }
    }

    /// Number of flows currently touching resource `r`.
    pub fn resource_active_flows(&self, r: NetResourceId) -> u32 {
        self.resources[r.0 as usize].active
    }

    /// Number of registered resources.
    pub fn num_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.live
    }

    /// Current membership epoch.
    pub fn generation(&self) -> Generation {
        Generation(self.generation)
    }

    /// Enable or disable the flow log. Off by default; when off, nothing is
    /// recorded and the network's behavior is identical byte for byte —
    /// logging only ever appends to a side vector after the fluid state has
    /// already been advanced.
    pub fn set_flow_logging(&mut self, on: bool) {
        self.log_flows = on;
    }

    /// Take all accumulated [`FlowLogEntry`] records, in completion order
    /// (within one poll, ordered by `FlowId` like the returned ids).
    pub fn drain_flow_log(&mut self) -> Vec<FlowLogEntry> {
        std::mem::take(&mut self.flow_log)
    }

    /// Current rate of flow `f` in bytes/s, or `None` if not active.
    pub fn flow_rate(&self, f: FlowId) -> Option<f64> {
        self.find(f).map(|i| {
            let fl = &self.flows[i];
            rate_of(&self.resources, fl.rate_cap, fl.path.hops())
        })
    }

    /// Index of live flow `id` in `flows`.
    fn find(&self, id: FlowId) -> Option<usize> {
        self.flows
            .binary_search_by_key(&id, |fl| fl.id)
            .ok()
            .filter(|&i| self.flows[i].live)
    }

    fn mark_dirty(&mut self, r: NetResourceId) {
        let res = &mut self.resources[r.0 as usize];
        if !res.dirty {
            res.dirty = true;
            self.dirty.push(r);
        }
    }

    /// End a rate refresh: every live flow has just been visited, so every
    /// cached rate is current.
    fn clear_dirty(&mut self) {
        for r in self.dirty.drain(..) {
            self.resources[r.0 as usize].dirty = false;
        }
    }

    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "flow network time went backwards");
        let dt = now.since(self.last_update).as_secs_f64();
        if dt > 0.0 && self.live > 0 {
            // Rates are constant over (last_update, now]: membership changes
            // always advance first, and completions are event boundaries.
            let refresh = !self.dirty.is_empty();
            // Accumulate in FlowId order: `bytes_served` sums floats across
            // flows, so any other order would leak ULP noise into otherwise
            // byte-reproducible traces. `flows` is stored in that order.
            let resources = &mut self.resources;
            let done_buf = &mut self.done_buf;
            for fl in self.flows.iter_mut().filter(|fl| fl.live) {
                if refresh {
                    refresh_rate(resources, fl);
                }
                let was_done = fl.remaining <= DONE_EPS_BYTES;
                let credit = (fl.rate * dt).min(fl.remaining);
                fl.remaining -= credit;
                // A composite flow moves its bytes through each device on the
                // path, so each device serves the full credit.
                for &r in fl.path.hops() {
                    resources[r.0 as usize].bytes_served += credit;
                }
                if !was_done && fl.remaining <= DONE_EPS_BYTES {
                    done_buf.push(fl.id);
                }
            }
            if refresh {
                self.clear_dirty();
            }
        }
        self.last_update = now;
    }

    /// Start a flow of `bytes` across `path` at time `now`. An empty path
    /// with no cap completes on the next poll (pure-latency transfers).
    ///
    /// Returns the new generation for completion-event stamping.
    ///
    /// # Panics
    /// Panics if `id` is already active or `bytes` is negative/non-finite.
    pub fn add_flow(
        &mut self,
        now: SimTime,
        id: FlowId,
        bytes: f64,
        path: &[NetResourceId],
        rate_cap: Option<f64>,
    ) -> Generation {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "flow size must be non-negative"
        );
        self.advance(now);
        // Ids normally arrive in increasing order, so the slot is the end (a
        // push); an older id revives its tombstone or is inserted in place.
        let slot = self.flows.binary_search_by_key(&id, |fl| fl.id);
        if let Ok(i) = slot {
            assert!(!self.flows[i].live, "flow {id:?} already active");
        }
        for &r in path {
            let res = &mut self.resources[r.0 as usize];
            if res.active == 0 {
                res.busy_since = now;
            }
            res.active += 1;
            self.mark_dirty(r);
        }
        // A pathless, uncapped flow has infinite rate: it is a pure-latency
        // transfer whose bytes are already "delivered".
        let remaining = if path.is_empty() && rate_cap.is_none() {
            0.0
        } else {
            bytes
        };
        if remaining <= DONE_EPS_BYTES {
            self.done_buf.push(id);
        }
        let flow = NetFlow {
            id,
            live: true,
            remaining,
            rate: rate_of(&self.resources, rate_cap, path),
            rate_cap,
            bytes_total: bytes,
            started: now,
            path: Path::new(path),
        };
        match slot {
            Ok(i) => self.flows[i] = flow,
            Err(i) => self.flows.insert(i, flow),
        }
        self.live += 1;
        self.generation += 1;
        Generation(self.generation)
    }

    /// Tombstone the live flow at index `i` and release its hops at `now`.
    fn release(&mut self, i: usize, now: SimTime) {
        let fl = &mut self.flows[i];
        fl.live = false;
        self.live -= 1;
        for &r in fl.path.hops() {
            let res = &mut self.resources[r.0 as usize];
            res.active -= 1;
            if res.active == 0 {
                res.busy += now.since(res.busy_since);
            }
            if !res.dirty {
                res.dirty = true;
                self.dirty.push(r);
            }
        }
    }

    /// Drop the tombstones once they outnumber the live flows.
    fn compact(&mut self) {
        if self.flows.len() - self.live > self.live {
            self.flows.retain(|fl| fl.live);
        }
    }

    /// Abort a flow, returning its unserved bytes (`None` if not active).
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.advance(now);
        let i = self.find(id)?;
        self.release(i, now);
        self.generation += 1;
        let flow = &self.flows[i];
        let remaining = flow.remaining;
        if self.log_flows {
            self.flow_log.push(FlowLogEntry {
                id,
                bytes: flow.bytes_total,
                started: flow.started,
                ended: now,
                cancelled: true,
            });
        }
        self.compact();
        Some(remaining)
    }

    /// Advance to `now` and remove+return all finished flows in FlowId order.
    pub fn poll_completions(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        if self.done_buf.is_empty() {
            return Vec::new();
        }
        // `done_buf` holds every flow that has crossed the completion
        // threshold since the previous poll; ids no longer live were
        // cancelled, and an id cancelled and re-added counts only if its
        // new flow is finished too.
        let mut done = std::mem::take(&mut self.done_buf);
        done.sort_unstable();
        done.dedup();
        done.retain(|&id| {
            self.find(id)
                .is_some_and(|i| self.flows[i].remaining <= DONE_EPS_BYTES)
        });
        debug_assert!(
            done.len()
                == self
                    .flows
                    .iter()
                    .filter(|fl| fl.live && fl.remaining <= DONE_EPS_BYTES)
                    .count(),
            "done buffer out of sync with flow residuals"
        );
        if !done.is_empty() {
            for &id in &done {
                let i = self.find(id).expect("completion of unknown flow");
                self.release(i, now);
                if self.log_flows {
                    let flow = &self.flows[i];
                    self.flow_log.push(FlowLogEntry {
                        id,
                        bytes: flow.bytes_total,
                        started: flow.started,
                        ended: now,
                        cancelled: false,
                    });
                }
            }
            self.compact();
            self.generation += 1;
        }
        done
    }

    /// Absolute time of the next completion assuming no membership changes,
    /// rounded up to a whole tick.
    pub fn next_completion_time(&mut self, now: SimTime) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        // One pass refreshes the rates a change made stale and takes the
        // minimum over the flows' completion keys.
        let refresh = !self.dirty.is_empty();
        let since = now.since(self.last_update).as_secs_f64();
        let resources = &self.resources;
        let mut min_secs = f64::INFINITY;
        for fl in self.flows.iter_mut().filter(|fl| fl.live) {
            if refresh {
                refresh_rate(resources, fl);
            }
            let rate = fl.rate;
            if rate <= 0.0 {
                continue;
            }
            let remaining = (fl.remaining - rate * since).max(0.0);
            min_secs = min_secs.min(remaining / rate);
        }
        if refresh {
            self.clear_dirty();
        }
        if !min_secs.is_finite() {
            return None;
        }
        let ticks = (min_secs * TICKS_PER_SEC as f64).ceil() as u64;
        Some(now + SimDuration(ticks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut FlowNetwork, mut now: SimTime) -> Vec<(SimTime, FlowId)> {
        let mut out = Vec::new();
        let mut guard = 0;
        while let Some(t) = net.next_completion_time(now) {
            now = t;
            for id in net.poll_completions(now) {
                out.push((now, id));
            }
            guard += 1;
            assert!(guard < 10_000, "drain did not converge");
        }
        out
    }

    #[test]
    fn single_resource_behaves_like_ps() {
        let mut net = FlowNetwork::new();
        let disk = net.add_resource("disk", 100.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 500.0, &[disk], None);
        net.add_flow(SimTime::ZERO, FlowId(2), 500.0, &[disk], None);
        let done = drain(&mut net, SimTime::ZERO);
        assert_eq!(done.len(), 2);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 10.0).abs() < 1e-3);
        }
    }

    #[test]
    fn min_share_across_path_governs() {
        let mut net = FlowNetwork::new();
        let disk = net.add_resource("disk", 100.0);
        let nic = net.add_resource("nic", 1000.0);
        // Lone flow across disk+nic: disk is the bottleneck.
        net.add_flow(SimTime::ZERO, FlowId(1), 500.0, &[disk, nic], None);
        assert!((net.flow_rate(FlowId(1)).unwrap() - 100.0).abs() < 1e-9);
        let done = drain(&mut net, SimTime::ZERO);
        assert!((done[0].0.as_secs_f64() - 5.0).abs() < 1e-3);
    }

    #[test]
    fn contention_on_shared_hop_slows_both() {
        let mut net = FlowNetwork::new();
        let d1 = net.add_resource("disk1", 1000.0);
        let d2 = net.add_resource("disk2", 1000.0);
        let nic = net.add_resource("nic", 100.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 500.0, &[d1, nic], None);
        net.add_flow(SimTime::ZERO, FlowId(2), 500.0, &[d2, nic], None);
        // Both bottlenecked by the shared NIC at 50 B/s each.
        assert!((net.flow_rate(FlowId(1)).unwrap() - 50.0).abs() < 1e-9);
        let done = drain(&mut net, SimTime::ZERO);
        for (t, _) in &done {
            assert!((t.as_secs_f64() - 10.0).abs() < 1e-3);
        }
    }

    #[test]
    fn no_slack_redistribution_is_conservative() {
        let mut net = FlowNetwork::new();
        let slow = net.add_resource("slow", 10.0);
        let shared = net.add_resource("shared", 100.0);
        // Flow 1 bottlenecked at 10 B/s by `slow`; flow 2 only on `shared`.
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[slow, shared], None);
        net.add_flow(SimTime::ZERO, FlowId(2), 100.0, &[shared], None);
        // Flow 2 gets its fair share (50), not the slack (90).
        assert!((net.flow_rate(FlowId(2)).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn rate_cap_applies() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("server", 1000.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[r], Some(10.0));
        assert!((net.flow_rate(FlowId(1)).unwrap() - 10.0).abs() < 1e-9);
        let done = drain(&mut net, SimTime::ZERO);
        assert!((done[0].0.as_secs_f64() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn empty_path_completes_immediately() {
        let mut net = FlowNetwork::new();
        net.add_flow(SimTime::from_secs(2), FlowId(9), 42.0, &[], None);
        let t = net.next_completion_time(SimTime::from_secs(2)).unwrap();
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(net.poll_completions(t), vec![FlowId(9)]);
    }

    #[test]
    fn departure_releases_shares() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 100.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[r], None);
        net.add_flow(SimTime::ZERO, FlowId(2), 1000.0, &[r], None);
        let t1 = net.next_completion_time(SimTime::ZERO).unwrap();
        assert_eq!(net.poll_completions(t1), vec![FlowId(1)]);
        assert_eq!(net.resource_active_flows(r), 1);
        assert!((net.flow_rate(FlowId(2)).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cancel_restores_counts_and_returns_residual() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 100.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 500.0, &[r], None);
        let left = net.cancel_flow(SimTime::from_secs(2), FlowId(1)).unwrap();
        assert!((left - 300.0).abs() < 1e-6);
        assert_eq!(net.resource_active_flows(r), 0);
        assert_eq!(net.cancel_flow(SimTime::from_secs(2), FlowId(1)), None);
    }

    #[test]
    fn flow_log_records_lifetimes_when_enabled() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 100.0);
        // Logging off: nothing recorded.
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[r], None);
        let t = net.next_completion_time(SimTime::ZERO).unwrap();
        net.poll_completions(t);
        assert!(net.drain_flow_log().is_empty());
        // Logging on: completion and cancellation both land in the log.
        net.set_flow_logging(true);
        net.add_flow(t, FlowId(2), 200.0, &[r], None);
        net.add_flow(t, FlowId(3), 1000.0, &[r], None);
        let t2 = net.next_completion_time(t).unwrap();
        net.poll_completions(t2);
        net.cancel_flow(t2, FlowId(3)).unwrap();
        let log = net.drain_flow_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].id, FlowId(2));
        assert_eq!(
            (log[0].started, log[0].ended, log[0].cancelled),
            (t, t2, false)
        );
        assert!((log[0].bytes - 200.0).abs() < 1e-9);
        assert_eq!((log[1].id, log[1].cancelled), (FlowId(3), true));
        // Drain empties the log.
        assert!(net.drain_flow_log().is_empty());
    }

    #[test]
    fn accounting_charges_every_hop() {
        let mut net = FlowNetwork::new();
        let a = net.add_resource("a", 100.0);
        let b = net.add_resource("b", 200.0);
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[a, b], None);
        let t = net.next_completion_time(SimTime::ZERO).unwrap();
        net.poll_completions(t);
        assert!((net.resource_bytes_served(a) - 100.0).abs() < 1e-3);
        assert!((net.resource_bytes_served(b) - 100.0).abs() < 1e-3);
        assert!((net.resource_busy_time(a).as_secs_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn tombstones_compact_and_ids_may_return() {
        let mut net = FlowNetwork::new();
        let r = net.add_resource("disk", 100.0);
        for i in 0..4 {
            net.add_flow(SimTime::ZERO, FlowId(i), 100.0, &[r], None);
        }
        net.cancel_flow(SimTime::ZERO, FlowId(1));
        assert_eq!((net.flows.len(), net.active_flows()), (4, 3));
        // A cancelled id revives its tombstone.
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &[r], None);
        assert_eq!((net.flows.len(), net.active_flows()), (4, 4));
        for i in 1..4 {
            net.cancel_flow(SimTime::ZERO, FlowId(i));
        }
        assert_eq!(net.flows.len(), 1, "tombstones outnumbered the live flow");
        // An older id slots in before the newest one.
        net.add_flow(SimTime::ZERO, FlowId(5), 100.0, &[r], None);
        net.add_flow(SimTime::ZERO, FlowId(2), 100.0, &[r], None);
        assert_eq!(net.active_flows(), 3);
        assert!(net.flows.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(net.resource_active_flows(r), 3);
    }

    #[test]
    fn long_paths_spill_to_the_heap() {
        let mut net = FlowNetwork::new();
        let hops: Vec<_> = (0..5)
            .map(|i| net.add_resource(format!("r{i}"), 100.0 * (i + 1) as f64))
            .collect();
        net.add_flow(SimTime::ZERO, FlowId(1), 100.0, &hops, None);
        assert!(matches!(net.flows[0].path, Path::Spilled(_)));
        assert_eq!(net.flow_rate(FlowId(1)), Some(100.0));
        let done = drain(&mut net, SimTime::ZERO);
        assert_eq!(done, vec![(SimTime::from_secs(1), FlowId(1))]);
        for r in hops {
            assert!((net.resource_bytes_served(r) - 100.0).abs() < 1e-3);
        }
    }
}
