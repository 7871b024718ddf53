//! Differential test of [`FlowNetwork`] against the flow network it
//! replaced.
//!
//! `reference` below is the previous implementation, copied verbatim (only
//! its imports changed): flows in a `BTreeMap`, every rate recomputed once
//! per membership epoch, busy time credited to every active resource on
//! every advance. The incremental network must match it bit for bit. Seeded
//! operation sequences drive both in lock step, and after every operation
//! the test compares each return value and every observable of the two
//! networks by `to_bits`.

use simcore::rng::{substream, DetRng};
use simcore::{FlowId, FlowLogEntry, FlowNetwork, NetResourceId, SimDuration, SimTime};
use std::collections::BTreeSet;

mod reference {
    use simcore::{
        FlowId, FlowLogEntry, Generation, NetResourceId, SimDuration, SimTime, TICKS_PER_SEC,
    };
    use std::collections::BTreeMap;

    /// Residual bytes below this threshold count as finished (see `flownet` docs).
    const DONE_EPS_BYTES: f64 = 1e-3;

    #[derive(Debug, Clone)]
    struct NetResource {
        name: String,
        capacity: f64,
        active: u32,
        bytes_served: f64,
        busy: SimDuration,
    }

    #[derive(Debug, Clone)]
    struct NetFlow {
        remaining: f64,
        bytes_total: f64,
        started: SimTime,
        path: Vec<NetResourceId>,
        rate_cap: Option<f64>,
        /// Rate as of the current membership epoch; only meaningful while
        /// [`FlowNetwork::rates_fresh`] is set.
        rate: f64,
    }

    /// A set of shared resources and the composite flows crossing them.
    ///
    /// Flows live in a `BTreeMap` keyed by [`FlowId`]: the fluid credit loop
    /// must accumulate `bytes_served` in FlowId order for byte-reproducible
    /// traces, and ordered storage makes that the natural iteration order
    /// instead of a per-advance collect-and-sort. Per-flow rates are cached per
    /// membership epoch (`rates_fresh`), and flows that cross the completion
    /// threshold are recorded in `done_buf` as they cross, so polling does not
    /// rescan the whole network.
    #[derive(Debug, Clone, Default)]
    pub struct FlowNetwork {
        resources: Vec<NetResource>,
        flows: BTreeMap<FlowId, NetFlow>,
        last_update: SimTime,
        generation: u64,
        /// True while every `NetFlow::rate` reflects the current membership.
        /// Cleared by any membership or capacity change.
        rates_fresh: bool,
        /// Flows whose `remaining` has crossed [`DONE_EPS_BYTES`] and which have
        /// not yet been returned by [`Self::poll_completions`] (may contain ids
        /// cancelled since they crossed).
        done_buf: Vec<FlowId>,
        log_flows: bool,
        flow_log: Vec<FlowLogEntry>,
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
            let id =
                NetResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
            self.resources.push(NetResource {
                name: name.into(),
                capacity,
                active: 0,
                bytes_served: 0.0,
                busy: SimDuration::ZERO,
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
            self.rates_fresh = false;
            self.generation += 1;
            Generation(self.generation)
        }

        /// Bytes served by resource `r` so far (advanced state only).
        pub fn resource_bytes_served(&self, r: NetResourceId) -> f64 {
            self.resources[r.0 as usize].bytes_served
        }

        /// Time resource `r` has spent with ≥1 active flow, up to the last update.
        pub fn resource_busy_time(&self, r: NetResourceId) -> SimDuration {
            self.resources[r.0 as usize].busy
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
            self.flows.len()
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
            self.flows.get(&f).map(|fl| self.rate_of(fl))
        }

        fn rate_of(&self, flow: &NetFlow) -> f64 {
            let mut rate = flow.rate_cap.unwrap_or(f64::INFINITY);
            for &r in &flow.path {
                let res = &self.resources[r.0 as usize];
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

        /// Recompute every flow's cached rate for the current membership. Called
        /// lazily: at most once per membership epoch, by whichever of `advance`
        /// or [`Self::next_completion_time`] needs rates first.
        fn refresh_rates(&mut self) {
            let resources = &self.resources;
            for fl in self.flows.values_mut() {
                let mut rate = fl.rate_cap.unwrap_or(f64::INFINITY);
                for &r in &fl.path {
                    let res = &resources[r.0 as usize];
                    debug_assert!(res.active > 0);
                    rate = rate.min(res.capacity / res.active as f64);
                }
                fl.rate = if rate.is_finite() {
                    rate
                } else {
                    // Pathless, uncapped flow: completes instantly (latency-only).
                    f64::MAX
                };
            }
            self.rates_fresh = true;
        }

        fn advance(&mut self, now: SimTime) {
            debug_assert!(now >= self.last_update, "flow network time went backwards");
            let dt = now.since(self.last_update).as_secs_f64();
            if dt > 0.0 && !self.flows.is_empty() {
                // Rates are constant over (last_update, now]: membership changes
                // always advance first, and completions are event boundaries.
                if !self.rates_fresh {
                    self.refresh_rates();
                }
                // Accumulate in FlowId order: `bytes_served` sums floats across
                // flows, so unordered iteration would leak per-process ULP noise
                // into otherwise byte-reproducible traces. The BTreeMap iterates
                // in exactly that order.
                let resources = &mut self.resources;
                let done_buf = &mut self.done_buf;
                for (&id, fl) in self.flows.iter_mut() {
                    let was_done = fl.remaining <= DONE_EPS_BYTES;
                    let credit = (fl.rate * dt).min(fl.remaining);
                    fl.remaining -= credit;
                    // A composite flow moves its bytes through each device on the
                    // path, so each device serves the full credit.
                    for &r in &fl.path {
                        resources[r.0 as usize].bytes_served += credit;
                    }
                    if !was_done && fl.remaining <= DONE_EPS_BYTES {
                        done_buf.push(id);
                    }
                }
                let busy_dt = now.since(self.last_update);
                for res in &mut self.resources {
                    if res.active > 0 {
                        res.busy += busy_dt;
                    }
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
            assert!(!self.flows.contains_key(&id), "flow {id:?} already active");
            for &r in path {
                self.resources[r.0 as usize].active += 1;
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
            self.flows.insert(
                id,
                NetFlow {
                    remaining,
                    bytes_total: bytes,
                    started: now,
                    path: path.to_vec(),
                    rate_cap,
                    rate: 0.0,
                },
            );
            self.rates_fresh = false;
            self.generation += 1;
            Generation(self.generation)
        }

        /// Abort a flow, returning its unserved bytes (`None` if not active).
        pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
            self.advance(now);
            let flow = self.flows.remove(&id)?;
            for &r in &flow.path {
                self.resources[r.0 as usize].active -= 1;
            }
            self.rates_fresh = false;
            self.generation += 1;
            if self.log_flows {
                self.flow_log.push(FlowLogEntry {
                    id,
                    bytes: flow.bytes_total,
                    started: flow.started,
                    ended: now,
                    cancelled: true,
                });
            }
            Some(flow.remaining)
        }

        /// Advance to `now` and remove+return all finished flows in FlowId order.
        pub fn poll_completions(&mut self, now: SimTime) -> Vec<FlowId> {
            self.advance(now);
            if self.done_buf.is_empty() {
                return Vec::new();
            }
            // `done_buf` holds every flow that has crossed the completion
            // threshold since the previous poll; cancelled flows are filtered out
            // (a flow's `remaining` never grows, so anything still present is
            // still finished).
            let mut done: Vec<FlowId> = std::mem::take(&mut self.done_buf)
                .into_iter()
                .filter(|id| self.flows.contains_key(id))
                .collect();
            debug_assert!(
                done.len()
                    == self
                        .flows
                        .values()
                        .filter(|fl| fl.remaining <= DONE_EPS_BYTES)
                        .count(),
                "done buffer out of sync with flow residuals"
            );
            if !done.is_empty() {
                done.sort_unstable();
                for id in &done {
                    let flow = self.flows.remove(id).expect("completion of unknown flow");
                    for &r in &flow.path {
                        self.resources[r.0 as usize].active -= 1;
                    }
                    if self.log_flows {
                        self.flow_log.push(FlowLogEntry {
                            id: *id,
                            bytes: flow.bytes_total,
                            started: flow.started,
                            ended: now,
                            cancelled: false,
                        });
                    }
                }
                self.rates_fresh = false;
                self.generation += 1;
            }
            done
        }

        /// Absolute time of the next completion assuming no membership changes,
        /// rounded up to a whole tick.
        pub fn next_completion_time(&mut self, now: SimTime) -> Option<SimTime> {
            if self.flows.is_empty() {
                return None;
            }
            if !self.rates_fresh {
                self.refresh_rates();
            }
            let since = now.since(self.last_update).as_secs_f64();
            let mut min_secs = f64::INFINITY;
            for fl in self.flows.values() {
                let rate = fl.rate;
                if rate <= 0.0 {
                    continue;
                }
                let remaining = (fl.remaining - rate * since).max(0.0);
                min_secs = min_secs.min(remaining / rate);
            }
            if !min_secs.is_finite() {
                return None;
            }
            let ticks = (min_secs * TICKS_PER_SEC as f64).ceil() as u64;
            Some(now + SimDuration(ticks))
        }
    }
}

const SEEDS: u64 = 48;
const OPS: usize = 400;
const RESOURCES: usize = 6;
const MAX_LIVE: usize = 40;
const DONE_EPS_BYTES: f64 = 1e-3;

/// How often each case the test claims to cover came up.
#[derive(Default)]
struct Coverage {
    out_of_order: u32,
    readded_after_cancel: u32,
    pathless: u32,
    capped: u32,
    zero_bytes: u32,
    five_hops: u32,
    capacity_changes: u32,
    zero_gaps: u32,
    peeks_without_advance: u32,
    completions: u32,
    cancellations: u32,
}

/// Both networks, driven in lock step.
struct Pair {
    old: reference::FlowNetwork,
    new: FlowNetwork,
    resources: Vec<NetResourceId>,
    now: SimTime,
    next_id: u64,
    live: BTreeSet<u64>,
    /// Ids that may be added again: skipped by the increasing counter,
    /// cancelled before they finished, or completed and polled. (A flow
    /// cancelled after it finished stays in the reference's completion
    /// buffer until the next poll, where re-adding its id trips the
    /// reference's own consistency assertion.)
    reusable: Vec<u64>,
    /// Whether each reusable id was last cancelled (true) or polled.
    cancelled: BTreeSet<u64>,
    seed: u64,
    op: usize,
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

fn log_bits(log: Vec<FlowLogEntry>) -> Vec<(FlowId, u64, SimTime, SimTime, bool)> {
    log.into_iter()
        .map(|e| (e.id, e.bytes.to_bits(), e.started, e.ended, e.cancelled))
        .collect()
}

impl Pair {
    fn new(seed: u64, rng: &mut DetRng) -> Self {
        let mut old = reference::FlowNetwork::new();
        let mut new = FlowNetwork::new();
        let resources = (0..RESOURCES)
            .map(|i| {
                let capacity = rng.range_f64(1e4, 1e7);
                let a = old.add_resource(format!("r{i}"), capacity);
                let b = new.add_resource(format!("r{i}"), capacity);
                assert_eq!(a, b);
                b
            })
            .collect();
        Pair {
            old,
            new,
            resources,
            now: SimTime::ZERO,
            next_id: 0,
            live: BTreeSet::new(),
            reusable: Vec::new(),
            cancelled: BTreeSet::new(),
            seed,
            op: 0,
        }
    }

    fn at(&self) -> String {
        format!("seed {} op {} at {:?}", self.seed, self.op, self.now)
    }

    /// Move the clock forward by nothing or by a random gap.
    fn gap(&mut self, rng: &mut DetRng, cov: &mut Coverage) {
        if rng.chance(0.5) {
            cov.zero_gaps += 1;
        } else {
            self.now += SimDuration(rng.range_usize(1, 3_000_000) as u64);
        }
    }

    fn add(&mut self, rng: &mut DetRng, cov: &mut Coverage) {
        self.gap(rng, cov);
        let id = if !self.reusable.is_empty() && rng.chance(0.3) {
            let id = self
                .reusable
                .swap_remove(rng.range_usize(0, self.reusable.len()));
            if self.cancelled.remove(&id) {
                cov.readded_after_cancel += 1;
            }
            if id < self.next_id - 1 {
                cov.out_of_order += 1;
            }
            id
        } else {
            if rng.chance(0.1) {
                self.reusable.push(self.next_id);
                self.next_id += 1;
            }
            self.next_id += 1;
            self.next_id - 1
        };
        let bytes = if rng.chance(0.08) {
            cov.zero_bytes += 1;
            0.0
        } else if rng.chance(0.05) {
            rng.range_f64(0.0, 2.0 * DONE_EPS_BYTES)
        } else {
            rng.range_f64(1.0, 1e7)
        };
        let hops = if rng.chance(0.08) {
            cov.pathless += 1;
            0
        } else if rng.chance(0.08) {
            cov.five_hops += 1;
            5
        } else {
            rng.range_usize(1, 5)
        };
        let path: Vec<NetResourceId> = (0..hops)
            .map(|_| self.resources[rng.range_usize(0, RESOURCES)])
            .collect();
        let cap = if rng.chance(0.25) {
            cov.capped += 1;
            Some(rng.range_f64(10.0, 1e6))
        } else {
            None
        };
        let a = self.old.add_flow(self.now, FlowId(id), bytes, &path, cap);
        let b = self.new.add_flow(self.now, FlowId(id), bytes, &path, cap);
        assert_eq!(a, b, "{}: add_flow({id})", self.at());
        self.live.insert(id);
    }

    fn cancel(&mut self, rng: &mut DetRng, cov: &mut Coverage) {
        self.gap(rng, cov);
        let id = if !self.live.is_empty() && rng.chance(0.8) {
            *self
                .live
                .iter()
                .nth(rng.range_usize(0, self.live.len()))
                .unwrap()
        } else {
            rng.range_usize(0, self.next_id as usize + 3) as u64
        };
        let a = self.old.cancel_flow(self.now, FlowId(id));
        let b = self.new.cancel_flow(self.now, FlowId(id));
        assert_eq!(bits(a), bits(b), "{}: cancel_flow({id})", self.at());
        if let Some(left) = b {
            cov.cancellations += 1;
            self.live.remove(&id);
            if left > DONE_EPS_BYTES {
                self.reusable.push(id);
                self.cancelled.insert(id);
            }
        }
    }

    fn poll(&mut self, cov: &mut Coverage) {
        let a = self.old.poll_completions(self.now);
        let b = self.new.poll_completions(self.now);
        assert_eq!(a, b, "{}: poll_completions", self.at());
        for id in b {
            cov.completions += 1;
            self.live.remove(&id.0);
            self.reusable.push(id.0);
        }
    }

    fn next_completion(&mut self, at: SimTime) -> Option<SimTime> {
        let a = self.old.next_completion_time(at);
        let b = self.new.next_completion_time(at);
        assert_eq!(a, b, "{}: next_completion_time({at:?})", self.at());
        b
    }

    /// The engine's loop: ask for the next completion, jump there, poll.
    fn step(&mut self, rng: &mut DetRng, cov: &mut Coverage) {
        match self.next_completion(self.now) {
            Some(t) => {
                self.now = t;
                self.poll(cov);
            }
            None => self.gap(rng, cov),
        }
    }

    /// Ask for the next completion from a later clock than the networks'
    /// last update, as the engine does after killing an attempt that owns
    /// no flows; then maybe poll at the answer.
    fn peek(&mut self, rng: &mut DetRng, cov: &mut Coverage) {
        self.now += SimDuration(rng.range_usize(1, 3_000_000) as u64);
        cov.peeks_without_advance += 1;
        if let Some(t) = self.next_completion(self.now) {
            if rng.chance(0.5) {
                self.now = t;
                self.poll(cov);
            }
        }
    }

    fn set_capacity(&mut self, rng: &mut DetRng, cov: &mut Coverage) {
        self.gap(rng, cov);
        let r = self.resources[rng.range_usize(0, RESOURCES)];
        let capacity = rng.range_f64(1e4, 1e7);
        let a = self.old.set_resource_capacity(self.now, r, capacity);
        let b = self.new.set_resource_capacity(self.now, r, capacity);
        assert_eq!(a, b, "{}: set_resource_capacity", self.at());
        cov.capacity_changes += 1;
    }

    /// Every observable of the two networks, compared bit for bit.
    fn check(&mut self) {
        let at = self.at();
        let (old, new) = (&mut self.old, &mut self.new);
        assert_eq!(old.generation(), new.generation(), "{at}: generation");
        assert_eq!(old.active_flows(), new.active_flows(), "{at}: active_flows");
        assert_eq!(new.active_flows(), self.live.len(), "{at}: live set");
        assert_eq!(old.num_resources(), new.num_resources(), "{at}");
        for &r in &self.resources {
            assert_eq!(old.resource_name(r), new.resource_name(r), "{at}");
            assert_eq!(
                old.resource_capacity(r).to_bits(),
                new.resource_capacity(r).to_bits(),
                "{at}: capacity of {r:?}"
            );
            assert_eq!(
                old.resource_bytes_served(r).to_bits(),
                new.resource_bytes_served(r).to_bits(),
                "{at}: bytes served by {r:?}"
            );
            assert_eq!(
                old.resource_busy_time(r),
                new.resource_busy_time(r),
                "{at}: busy time of {r:?}"
            );
            assert_eq!(
                old.resource_active_flows(r),
                new.resource_active_flows(r),
                "{at}: active flows on {r:?}"
            );
        }
        // Every live id, plus ids that are not (or no longer) live.
        let probes = self.live.iter().copied().chain([self.next_id, 0]);
        for id in probes.chain(self.reusable.iter().copied()) {
            assert_eq!(
                bits(old.flow_rate(FlowId(id))),
                bits(new.flow_rate(FlowId(id))),
                "{at}: rate of flow {id}"
            );
        }
        assert_eq!(
            log_bits(old.drain_flow_log()),
            log_bits(new.drain_flow_log()),
            "{at}: flow log"
        );
    }
}

#[test]
fn incremental_network_matches_the_reference_bit_for_bit() {
    let mut cov = Coverage::default();
    for seed in 0..SEEDS {
        let mut rng = substream(0xF10E, seed);
        let mut pair = Pair::new(seed, &mut rng);
        let logging = rng.chance(0.5);
        pair.old.set_flow_logging(logging);
        pair.new.set_flow_logging(logging);
        for op in 0..OPS {
            pair.op = op;
            let roll = rng.range_usize(0, 100);
            match roll {
                0..=34 if pair.live.len() < MAX_LIVE => pair.add(&mut rng, &mut cov),
                35..=46 => pair.cancel(&mut rng, &mut cov),
                47..=54 => pair.peek(&mut rng, &mut cov),
                55..=61 => {
                    pair.gap(&mut rng, &mut cov);
                    pair.poll(&mut cov);
                }
                62..=66 => pair.set_capacity(&mut rng, &mut cov),
                _ => pair.step(&mut rng, &mut cov),
            }
            pair.check();
        }
        // Drain what is left through the engine's loop.
        let mut guard = 0;
        while pair.new.active_flows() > 0 {
            pair.step(&mut rng, &mut cov);
            pair.check();
            guard += 1;
            assert!(guard < 10_000, "seed {seed}: drain did not converge");
        }
    }
    // The cases the sequences are meant to cover all came up.
    for (name, n) in [
        ("out-of-order ids", cov.out_of_order),
        ("ids re-added after a cancel", cov.readded_after_cancel),
        ("pathless flows", cov.pathless),
        ("capped flows", cov.capped),
        ("zero-byte flows", cov.zero_bytes),
        ("five-hop flows", cov.five_hops),
        ("capacity changes", cov.capacity_changes),
        ("zero time gaps", cov.zero_gaps),
        (
            "completion queries without an advance",
            cov.peeks_without_advance,
        ),
        ("completions", cov.completions),
        ("cancellations", cov.cancellations),
    ] {
        assert!(n > 10, "only {n} {name}");
    }
}
