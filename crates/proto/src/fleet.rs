//! The fault-tolerant edge fleet: N consistent-hashed nodes over an
//! origin shield.
//!
//! [`crate::ShardedEngine`] scales *one* cache across cores. This module
//! models what a CDN actually deploys: a **fleet** of N edge nodes, each
//! an independent cache, with requests routed by a consistent-hash ring
//! ([`HashRing`]), a shared origin-shield tier (a [`CdnServer`] wrapping
//! an LRU) that edge misses funnel through before touching the fallible
//! origin, and node-level fault injection ([`NodeFaultConfig`]) that
//! takes whole nodes down and up on trace time. When a node is down the
//! ring fails over to its successors; when it rejoins, only its
//! ring-adjacent key range moves back (bounded rehash). A peer-hint
//! protocol lets a node that misses fetch from a ring peer that recently
//! completed an origin fetch, instead of re-asking the shield or origin.
//!
//! # Determinism contract
//!
//! [`FleetReport::stable_json`] and `--obs` exports are byte-identical at
//! any `--threads` setting because the fleet reuses the engine's sharding
//! discipline wholesale (see `ARCHITECTURE.md`):
//!
//! - the keyspace is split into `n_shards` shards with
//!   [`lhr_sim::shard::shard_of`]; a shard owns a slice of **every**
//!   node's cache, the shield slice, and the peer-hint table for its
//!   objects, so all cross-node interaction for one object (failover,
//!   hints, shield coalescing) happens inside one shard, replayed in
//!   trace order by exactly one worker;
//! - which node serves a request is a pure function of (object id, trace
//!   time): the ring is static and node liveness is a precompiled
//!   schedule of down windows, so routing never depends on thread timing;
//!   it is evaluated once per request (see *Routing cost* below);
//! - node-fault presets derive per-node randomness from
//!   `node_seed = shard_seed(seed, node_index)` — a pure function, the
//!   `node_seed` derivation documented in `ARCHITECTURE.md`;
//! - per-shard shield fault plans are seeded with
//!   [`lhr_sim::shard::shard_seed`], and the merge runs in fixed shard
//!   order, then fixed node order.
//!
//! # Routing cost
//!
//! A request is routed by **one** ring lookup: [`HashRing`] hashes the id,
//! jumps through a 4 096-bucket index to the first ring point at or after
//! the hash (a forward scan of about one point, where a binary search took
//! eight steps) and walks clockwise from there, which yields the primary
//! and the first live successor together. Liveness is not re-derived per
//! request either: [`NodeFaultConfig`] is compiled once per replay into a
//! timeline — the sorted window edges, and for every segment between two
//! edges a down-node bitmask and each node's restart epoch, filled in by
//! calling [`NodeFaultConfig::down`] and [`NodeFaultConfig::epoch`] at the
//! segment's lower edge, so those two stay the only definition of
//! liveness. Each shard keeps a cursor into the timeline and searches it
//! again only when trace time leaves the cursor's segment.
//!
//! # Hint expiry
//!
//! Every 512th request of a shard drops the hints older than
//! [`FleetConfig::hint_ttl_secs`]. The tick is pinned, not amortised: an
//! expired hint still in the table when its object is next missed is
//! refused *visibly* (a sampled request trace gains a
//! `peer_hint{owner, hit:false}` step), so sweeping at any other cadence
//! changes `--obs` exports (`tests/serving_golden.rs`, `fleet-expiry-*`).
//! What the sweep does not do is scan the table: publish times ascend
//! with the trace (a [`Trace`] never runs backwards), so the expired hints
//! are a prefix of the publish log — a queue of `(id, publish time)`
//! records — and the sweep reads that log alone. The log keeps its own records
//! because the replay consumes its trace: a shard's requests are freed as
//! it steps past them ([`Partition`]).

use crate::fault::keyed_uniform;
use crate::latency::{self, EDGE_RTT_MS};
use crate::server::{kv, CdnServer, ServeOutcome, ServerConfig};
use crate::tally::{announce, gauge_wall_secs, per_sec, Tally};
use lhr_obs::trace::TraceBuilder;
use lhr_obs::{Event, EventKind, Obs};
use lhr_policies::Lru;
use lhr_sim::ledger::Ledger;
use lhr_sim::shard::{shard_seed, Partition, RouteConfig};
use lhr_sim::CachePolicy;
use lhr_trace::{ObjectId, Request, Time, Trace};
use lhr_util::hash::{FastHasher, FastMap};
use lhr_util::json::ToJson;
use lhr_util::sync::resolve_threads;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::time::Instant;

/// Draw-stream constant separating node-fault draws from the origin
/// fault plan's streams.
const STREAM_NODE: u64 = 0x4E_0D_E5;

/// The most nodes a fleet supports (failover walks track visited nodes
/// in a u64 bitmask).
pub const MAX_NODES: usize = 64;

/// SplitMix64's avalanche finalizer. [`FastHasher`] is multiplicative —
/// plenty for bucketing map keys, but its raw output of small dense
/// inputs is lattice-structured, which makes consecutive ring points
/// cluster and hands one node most of the keyspace (measured 67% for
/// node 0 of 4 without this). The finalizer restores uniform arcs:
/// max/mean keyspace share stays under ~1.2 at 64 vnodes.
fn finalize(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Domain tags separating the two ring hash streams. They must be
/// distinct and nonzero: hashing a leading zero word is an identity on
/// [`FastHasher`]'s state, so without tags node 0's vnode points would
/// *equal* the key hashes of ids `0..vnodes` and capture every small id.
const RING_POINT_TAG: u64 = 0x52_49_4E_47; // "RING"
const RING_KEY_TAG: u64 = 0x4B_45_59; // "KEY"

/// Hashes one ring point `(node, replica)` with the workspace's
/// fixed-seed [`FastHasher`] plus the avalanche finalizer —
/// deterministic across processes.
fn ring_point(node: u64, replica: u64) -> u64 {
    let mut h = FastHasher::default();
    h.write_u64(RING_POINT_TAG);
    h.write_u64(node);
    h.write_u64(replica);
    finalize(h.finish())
}

/// Hashes an object id onto the ring.
fn ring_key(id: ObjectId) -> u64 {
    let mut h = FastHasher::default();
    h.write_u64(RING_KEY_TAG);
    h.write_u64(id);
    finalize(h.finish())
}

/// Leading hash bits that index [`HashRing`]'s bucket table.
const RING_BUCKET_BITS: u32 = 12;

/// A consistent-hash ring: `vnodes` points per node, sorted by hash.
/// Lookup walks clockwise from the key's hash to the first point; with a
/// liveness predicate, [`Self::node_for`] keeps walking to ring
/// successors, so removing node X only remaps keys whose primary is X
/// (bounded rehash — asserted by `tests/fleet.rs`).
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point hash, node)` sorted by hash.
    points: Vec<(u64, u16)>,
    /// `first[b]` is the index of the first point whose hash has leading
    /// [`RING_BUCKET_BITS`] bits `>= b` (`points.len()` when none has), so
    /// a lookup starts its scan at most one bucket's worth of points
    /// before its successor.
    first: Vec<u32>,
    n_nodes: usize,
}

impl HashRing {
    /// Builds the ring for `n_nodes` with `vnodes` points per node
    /// (64 is a good default; more points even out the key ranges).
    pub fn new(n_nodes: usize, vnodes: usize) -> Self {
        assert!(
            (1..=MAX_NODES).contains(&n_nodes),
            "fleet supports 1..={MAX_NODES} nodes, got {n_nodes}"
        );
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(n_nodes * vnodes);
        for node in 0..n_nodes {
            for replica in 0..vnodes {
                points.push((ring_point(node as u64, replica as u64), node as u16));
            }
        }
        points.sort_unstable();
        let mut first = Vec::with_capacity(1 << RING_BUCKET_BITS);
        let mut below = 0;
        for bucket in 0..1usize << RING_BUCKET_BITS {
            while below < points.len() && Self::bucket(points[below].0) < bucket {
                below += 1;
            }
            first.push(u32::try_from(below).expect("ring points fit a u32 index"));
        }
        HashRing {
            points,
            first,
            n_nodes,
        }
    }

    /// Number of nodes on the ring.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    fn bucket(hash: u64) -> usize {
        (hash >> (u64::BITS - RING_BUCKET_BITS)) as usize
    }

    /// Index of the first ring point at or clockwise-after hash `h`: every
    /// point of an earlier bucket is below `h`, so the scan starts at the
    /// first point of `h`'s own bucket.
    fn successor(&self, h: u64) -> usize {
        let mut i = self.first[Self::bucket(h)] as usize;
        while i < self.points.len() && self.points[i].0 < h {
            i += 1;
        }
        if i == self.points.len() {
            0
        } else {
            i
        }
    }

    /// One lookup, both answers: `id`'s primary, and the first node
    /// clockwise from it (itself included) that `live` accepts.
    fn route(&self, id: ObjectId, live: impl Fn(usize) -> bool) -> (usize, Option<usize>) {
        let start = self.successor(ring_key(id));
        let primary = self.points[start].1 as usize;
        let mut tried = 0u64;
        let mut at = start;
        for _ in 0..self.points.len() {
            let node = self.points[at].1 as usize;
            if tried & (1 << node) == 0 {
                tried |= 1 << node;
                if live(node) {
                    return (primary, Some(node));
                }
                if tried.count_ones() as usize == self.n_nodes {
                    break;
                }
            }
            at += 1;
            if at == self.points.len() {
                at = 0;
            }
        }
        (primary, None)
    }

    /// The node that owns `id` when every node is live.
    pub fn primary(&self, id: ObjectId) -> usize {
        self.route(id, |_| true).0
    }

    /// The first *live* node clockwise from `id`'s primary, or `None`
    /// when every node is down. Keys whose primary is live never move —
    /// this is the bounded-rehash property.
    pub fn node_for(&self, id: ObjectId, live: impl Fn(usize) -> bool) -> Option<usize> {
        self.route(id, live).1
    }
}

/// A deterministic node-level fault schedule: explicit down windows on
/// trace time, compiled once from a preset (or written by hand). Unlike
/// [`crate::FaultConfig`] — which makes the *origin* fallible — this
/// takes whole edge nodes off the ring.
#[derive(Debug, Clone, Default)]
pub struct NodeFaultConfig {
    /// Base seed. Presets derive per-node draws from
    /// `node_seed = shard_seed(seed, node_index)`, so the schedule is a
    /// pure function of `(seed, n_nodes, duration)`.
    pub seed: u64,
    /// Down windows as `(node, start_secs, end_secs)`; a node is down
    /// for `start <= t < end`.
    pub windows: Vec<(usize, f64, f64)>,
    /// Whether a node that completes a down window rejoins with an
    /// *empty* cache (process restart) instead of its pre-fault contents
    /// (network partition).
    pub cold_restart: bool,
}

impl NodeFaultConfig {
    /// The node-fault preset vocabulary, in CLI order.
    pub fn preset_names() -> &'static [&'static str] {
        &["none", "node-flaky", "node-brownout", "node-churn"]
    }

    /// Compiles a named preset for a fleet of `n_nodes` over a trace of
    /// `duration_secs`:
    ///
    /// - `none` — every node stays up.
    /// - `node-flaky` — each node blips out for four ~1.2% windows at
    ///   seeded times (transient network partitions; caches survive).
    /// - `node-brownout` — one seeded node is hard-down for the middle
    ///   30% of the trace (the availability-floor scenario).
    /// - `node-churn` — a rolling restart: each node in turn is down for
    ///   8% of the trace and rejoins **cold**.
    pub fn preset(name: &str, seed: u64, n_nodes: usize, duration_secs: f64) -> Option<Self> {
        let d = duration_secs.max(0.0);
        let mut config = NodeFaultConfig {
            seed,
            windows: Vec::new(),
            cold_restart: false,
        };
        match name {
            "none" => {}
            "node-flaky" => {
                for node in 0..n_nodes {
                    let node_seed = shard_seed(seed, node);
                    for w in 0..4u64 {
                        let start = keyed_uniform(node_seed, STREAM_NODE, w) * d * 0.95;
                        config.windows.push((node, start, start + d * 0.012));
                    }
                }
            }
            "node-brownout" => {
                let node = (seed % n_nodes.max(1) as u64) as usize;
                config.windows.push((node, 0.35 * d, 0.65 * d));
            }
            "node-churn" => {
                config.cold_restart = true;
                for node in 0..n_nodes {
                    let start = d * (node as f64 + 1.0) / (n_nodes as f64 + 2.0);
                    config.windows.push((node, start, start + 0.08 * d));
                }
            }
            _ => return None,
        }
        Some(config)
    }

    /// Whether `node` is down at trace time `t` (seconds).
    pub fn down(&self, node: usize, t: f64) -> bool {
        self.windows
            .iter()
            .any(|&(n, start, end)| n == node && t >= start && t < end)
    }

    /// How many of `node`'s down windows have *completed* by `t` — the
    /// node's restart epoch. A change in epoch is what triggers the cold
    /// rejoin flush under [`Self::cold_restart`].
    pub fn epoch(&self, node: usize, t: f64) -> u64 {
        self.windows
            .iter()
            .filter(|&&(n, _, end)| n == node && t >= end)
            .count() as u64
    }
}

/// A [`NodeFaultConfig`] compiled for one replay: between two consecutive
/// window edges no comparison in [`NodeFaultConfig::down`] or
/// [`NodeFaultConfig::epoch`] changes its answer, so each such segment
/// stores those answers once — obtained by calling the two at the
/// segment's lower edge, never re-derived — and a request reads them
/// through its shard's [`Segment`] cursor.
struct Liveness {
    n_nodes: usize,
    /// The distinct non-NaN window edges, ascending. Segment `k` holds the
    /// times with exactly `k` edges at or below them. A request's time is
    /// never NaN (trace time is whole microseconds), so no segment is kept
    /// for one.
    edges: Vec<f64>,
    /// Per segment, bit `n` set while node `n` is down.
    down: Vec<u64>,
    /// Per segment, every node's restart epoch (`n_nodes` a segment).
    epochs: Vec<u64>,
}

/// A shard's position in the [`Liveness`] timeline: the segment the last
/// request's time fell in, with its bounds and down mask copied out.
#[derive(Debug, Clone, Copy)]
struct Segment {
    index: usize,
    /// The segment is `lo <= t < hi`; both NaN (so no time is inside)
    /// before the first request.
    lo: f64,
    hi: f64,
    down: u64,
}

impl Segment {
    /// A cursor that has to search on first use.
    const COLD: Segment = Segment {
        index: 0,
        lo: f64::NAN,
        hi: f64::NAN,
        down: 0,
    };
}

impl Liveness {
    fn compile(faults: &NodeFaultConfig, n_nodes: usize) -> Self {
        let mut edges: Vec<f64> = faults
            .windows
            .iter()
            .flat_map(|&(_, start, end)| [start, end])
            .filter(|edge| !edge.is_nan())
            .collect();
        edges.sort_unstable_by(f64::total_cmp);
        edges.dedup();
        let mut timeline = Liveness {
            n_nodes,
            down: Vec::with_capacity(edges.len() + 1),
            epochs: Vec::with_capacity((edges.len() + 1) * n_nodes),
            edges,
        };
        // One representative time per segment: below every edge, then each
        // edge (the lower end of the segment it opens).
        let below = std::iter::once(f64::NEG_INFINITY);
        for t in below.chain(timeline.edges.iter().copied()) {
            let down = (0..n_nodes)
                .filter(|&node| faults.down(node, t))
                .fold(0u64, |mask, node| mask | 1 << node);
            timeline.down.push(down);
            timeline
                .epochs
                .extend((0..n_nodes).map(|node| faults.epoch(node, t)));
        }
        timeline
    }

    /// Moves `cursor` to the segment holding `t`; a search only when `t`
    /// has left the segment the cursor is in.
    #[inline]
    fn seek(&self, cursor: &mut Segment, t: f64) {
        if !(t >= cursor.lo && t < cursor.hi) {
            *cursor = self.search(t);
        }
    }

    fn search(&self, t: f64) -> Segment {
        let index = self.edges.partition_point(|&edge| edge <= t);
        Segment {
            index,
            lo: if index == 0 {
                f64::NEG_INFINITY
            } else {
                self.edges[index - 1]
            },
            hi: self.edges.get(index).copied().unwrap_or(f64::INFINITY),
            down: self.down[index],
        }
    }

    /// `node`'s restart epoch throughout `segment`.
    #[inline]
    fn epoch(&self, segment: &Segment, node: usize) -> u64 {
        self.epochs[segment.index * self.n_nodes + node]
    }
}

/// Configuration of the edge fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Aggregate edge capacity in bytes, split evenly across nodes (and
    /// within each node across shards).
    pub total_capacity: u64,
    /// Edge nodes on the ring (1..=[`MAX_NODES`]).
    pub n_nodes: usize,
    /// Virtual-node points per node on the hash ring.
    pub vnodes: usize,
    /// Origin-shield capacity in bytes. `0` keeps the shield tier as a
    /// pass-through that still coalesces concurrent misses and runs the
    /// hardened origin path (retries, breaker, stale serving).
    pub shield_capacity: u64,
    /// Fixed shard count — part of the deterministic configuration,
    /// never derived from the thread count.
    pub n_shards: usize,
    /// Worker threads.
    pub route: RouteConfig,
    /// The shield's serving path: latency model, freshness, **origin**
    /// faults and resilience. `deterministic` is forced on, as in the
    /// engine.
    pub server: ServerConfig,
    /// Node-level down/up schedule.
    pub node_faults: NodeFaultConfig,
    /// How long a peer hint stays trustworthy, seconds.
    pub hint_ttl_secs: f64,
    /// Whether the peer-hint protocol is enabled.
    pub peer_hints: bool,
}

impl FleetConfig {
    /// A 4-node, 8-shard fleet with 64 vnodes per node, a shield sized
    /// at a quarter of the edge capacity, and peer hints on.
    pub fn new(total_capacity: u64) -> Self {
        FleetConfig {
            total_capacity,
            n_nodes: 4,
            vnodes: 64,
            shield_capacity: total_capacity / 4,
            n_shards: 8,
            route: RouteConfig::default(),
            server: ServerConfig::default(),
            node_faults: NodeFaultConfig::default(),
            hint_ttl_secs: 3600.0,
            peer_hints: true,
        }
    }
}

/// What a fleet replay reports: fleet-wide serving figures plus per-node
/// vectors merged in fixed node order.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// `fleet({policy})x{n_nodes}`.
    pub name: String,
    /// Trace name.
    pub trace: String,
    /// Nodes on the ring.
    pub n_nodes: u64,
    /// Virtual-node points per node.
    pub vnodes: u64,
    /// Shards the keyspace was split across.
    pub n_shards: u64,
    /// Worker threads (machine-dependent when `threads = 0` was
    /// configured; zeroed by [`Self::stable_json`]).
    pub threads: u64,
    /// Replayed requests per wall-clock second; zeroed by
    /// [`Self::stable_json`].
    pub requests_per_sec: f64,
    /// Measured (post-warmup) requests.
    pub requests: u64,
    /// Requests served out of the routed node's own cache, %.
    pub edge_hit_pct: f64,
    /// Bytes served from fleet RAM (edge hits + peer fetches) over bytes
    /// requested, %.
    pub byte_hit_pct: f64,
    /// Shield lookups (edge misses that reached the shield) answered
    /// from the shield cache, %.
    pub shield_hit_pct: f64,
    /// Edge misses served from a ring peer via the hint protocol.
    pub peer_hits: u64,
    /// Bytes *not* fetched from the origin over bytes requested, % —
    /// the figure a shield tier exists to maximize.
    pub origin_offload_pct: f64,
    /// Measured requests that were served successfully, %.
    pub availability_pct: f64,
    /// Requests answered with an error after resilience was exhausted
    /// (excludes `unrouted`).
    pub errors_served: u64,
    /// Requests dropped because every node was down at once.
    pub unrouted: u64,
    /// Requests re-routed to a ring successor because their primary node
    /// was down.
    pub failovers: u64,
    /// Requests served from an expired copy (RFC 5861 paths).
    pub stale_served: u64,
    /// Origin fetch retries.
    pub retries: u64,
    /// Misses that joined an in-flight shield fetch.
    pub coalesced_fetches: u64,
    /// Circuit-breaker trips across shield shards.
    pub breaker_opens: u64,
    /// Breaker recoveries.
    pub breaker_closes: u64,
    /// Mean user-perceived latency, ms.
    pub mean_latency_ms: f64,
    /// P90 latency, ms.
    pub p90_latency_ms: f64,
    /// P99 latency, ms.
    pub p99_latency_ms: f64,
    /// Origin-side traffic, Gbps over the trace duration.
    pub wan_gbps: f64,
    /// Peak metadata overhead across node caches and shield, GB.
    pub peak_mem_gb: f64,
    /// Requests routed to each node (including warmup), node order.
    pub per_node_requests: Vec<u64>,
    /// Each node's local hit ratio over its measured requests, %.
    pub per_node_hit_pct: Vec<f64>,
    /// Error responses attributed to each node, node order.
    pub per_node_errors: Vec<u64>,
    /// Hottest-node load over the mean node load (1.0 = perfectly even);
    /// pure function of `per_node_requests`.
    pub node_imbalance: f64,
    /// Wall time of the whole replay; zeroed by [`Self::stable_json`].
    pub replay_wall_secs: f64,
}

lhr_util::impl_json!(struct FleetReport {
    name,
    trace,
    n_nodes,
    vnodes,
    n_shards,
    threads,
    requests_per_sec,
    requests,
    edge_hit_pct,
    byte_hit_pct,
    shield_hit_pct,
    peer_hits,
    origin_offload_pct,
    availability_pct,
    errors_served,
    unrouted,
    failovers,
    stale_served,
    retries,
    coalesced_fetches,
    breaker_opens,
    breaker_closes,
    mean_latency_ms,
    p90_latency_ms,
    p99_latency_ms,
    wan_gbps,
    peak_mem_gb,
    per_node_requests,
    per_node_hit_pct,
    per_node_errors,
    node_imbalance,
    replay_wall_secs,
});

impl FleetReport {
    /// JSON with every machine-dependent field zeroed (wall time,
    /// requests/sec, thread count). Byte-identical at any `--threads`
    /// setting; `scripts/verify.sh` diffs exactly this.
    pub fn stable_json(&self) -> String {
        let mut stable = self.clone();
        stable.replay_wall_secs = 0.0;
        stable.threads = 0;
        stable.requests_per_sec = 0.0;
        stable.to_json().to_string()
    }
}

/// How one request was ultimately served.
enum Served {
    /// Out of the routed node's own cache.
    EdgeHit,
    /// From ring peer `n` via the hint protocol.
    Peer(usize),
    /// Through the shield tier (hit, origin fetch, or error — the
    /// [`ServeOutcome`] flags say which).
    Shield,
    /// Dropped: every node was down.
    Unrouted,
}

/// Read-only per-replay context shared by every worker.
struct FleetCtx<'a, B> {
    ring: &'a HashRing,
    liveness: &'a Liveness,
    cold_restart: bool,
    hint_ttl_secs: f64,
    peer_hints: bool,
    node_capacity: u64,
    build: &'a B,
}

/// One node's slice of one shard: its cache slice plus per-node
/// accounting.
struct NodeSlice<P> {
    policy: P,
    /// Restart epoch last observed for this node (cold-restart flushes
    /// fire on change).
    epoch: u64,
    counts: NodeCounts,
}

/// One node's accounting within one shard; summed over shards in shard
/// order by the merge.
#[derive(Default, Clone, Copy)]
struct NodeCounts {
    /// Requests routed here, including warmup.
    seen: u64,
    /// Measured requests routed here.
    measured: u64,
    /// Measured requests served out of this node's own cache.
    hits: u64,
    /// Measured error responses attributed to this node.
    errors: u64,
}

/// What only a fleet counts, over measured requests; summed over shards
/// in shard order by the merge.
#[derive(Default)]
struct FleetCounts {
    edge_hits: u64,
    peer_hits: u64,
    shield_hits: u64,
    shield_lookups: u64,
    unrouted: u64,
    failovers: u64,
}

/// One shard's peer hints: `id → (node that last filled it, publish
/// time)`, plus the publish log that lets [`Self::expire`] find the expired
/// ones without scanning the table.
struct Hints {
    table: FastMap<ObjectId, (u32, f64)>,
    /// `(id, publish time)` of every publish, oldest first. A record whose
    /// hint has since been republished or dropped is stale and skipped.
    /// A shard publishes at its requests' times, which ascend (a [`Trace`]
    /// never runs backwards: every reader and generator keeps it so, and
    /// `Trace::validate` checks it), so the expired hints are a prefix.
    log: VecDeque<(ObjectId, Time)>,
}

impl Hints {
    fn new() -> Self {
        Hints {
            table: FastMap::default(),
            log: VecDeque::new(),
        }
    }

    /// Records that `node` filled `req`'s object at that request's time,
    /// no earlier than the last publish.
    fn publish(&mut self, req: &Request, node: u32) {
        debug_assert!(self.log.back().is_none_or(|&(_, last)| last <= req.ts));
        self.table.insert(req.id, (node, req.ts.as_secs_f64()));
        self.log.push_back((req.id, req.ts));
    }

    /// Drops every hint with `t - published > ttl` — exactly the set a
    /// scan of the table would, since `t - published` falls as `published`
    /// rises along the log.
    fn expire(&mut self, t: f64, ttl: f64) {
        while let Some(&(id, ts)) = self.log.front() {
            let published = ts.as_secs_f64();
            if t - published <= ttl {
                break;
            }
            self.log.pop_front();
            if self.table.get(&id).is_some_and(|&(_, at)| at == published) {
                self.table.remove(&id);
            }
        }
    }
}

/// One shard of the whole fleet: a slice of every node's cache, the
/// shield slice (a [`CdnServer`], which owns the origin side), the
/// peer-hint table, and the accumulators — all owned by exactly one
/// worker (see the module docs). Everything a single cache also counts
/// lives in the shared [`Tally`], where a *hit* means served from fleet
/// RAM (edge or peer) and an *error* includes unrouted requests.
struct FleetShard<P: CachePolicy> {
    nodes: Vec<NodeSlice<P>>,
    shield: CdnServer<Lru>,
    hints: Hints,
    /// Where this shard's trace time stands in the liveness timeline.
    live: Segment,
    counts: FleetCounts,
    tally: Tally,
}

/// What the merge keeps of a finished [`FleetShard`]: its counters, and
/// the name its node policies go by.
struct FinishedShard {
    tally: Tally,
    counts: FleetCounts,
    nodes: Vec<NodeCounts>,
    policy: String,
}

impl<P: CachePolicy> FleetShard<P> {
    fn meta_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.policy.metadata_overhead_bytes())
            .sum::<u64>()
            + self.shield.policy().metadata_overhead_bytes()
    }

    /// Serves one request at live node `n`: edge cache, then peer hint,
    /// then the shield's hardened origin path.
    fn serve_at<B>(
        &mut self,
        ctx: &FleetCtx<'_, B>,
        s: usize,
        n: usize,
        req: &Request,
        mut tb: Option<&mut TraceBuilder>,
    ) -> (ServeOutcome, Served)
    where
        B: Fn(usize, usize, u64, Option<&Obs>) -> P + Sync,
    {
        // A node that completed a down window since we last routed to it
        // rejoins here; under cold restart its slice is rebuilt empty.
        let t = req.ts.as_secs_f64();
        let epoch = ctx.liveness.epoch(&self.live, n);
        if self.nodes[n].epoch != epoch {
            self.nodes[n].epoch = epoch;
            if ctx.cold_restart {
                let fresh = (ctx.build)(n, s, ctx.node_capacity, self.tally.ledger.obs());
                self.nodes[n].policy = fresh;
            }
        }
        self.nodes[n].counts.seen += 1;

        // Fused present-check + hit processing; on a miss, `handle`
        // makes the admission decision regardless of where the fill
        // comes from (peer or shield).
        let hit = match self.nodes[n].policy.hit_check(req) {
            Some(outcome) => outcome.is_hit(),
            None => self.nodes[n].policy.handle(req).is_hit(),
        };
        if let Some(tb) = tb.as_deref_mut() {
            tb.push(
                "edge_lookup",
                req.size,
                vec![kv("node", n as u64), kv("hit", hit)],
            );
        }
        let ram_hit = |extra_ms: f64| ServeOutcome {
            hit: true,
            ..ServeOutcome::ok(
                latency::hit_latency_ms(req.size, 0.0) + extra_ms,
                latency::service_ms(req.size, true, 0.0),
            )
        };
        if hit {
            return (ram_hit(0.0), Served::EdgeHit);
        }

        // Peer hint: a ring peer recently filled this object — fetch it
        // intra-PoP (one extra edge RTT) instead of asking the shield.
        if ctx.peer_hints {
            if let Some(&(owner, published)) = self.hints.table.get(&req.id) {
                let owner = owner as usize;
                let usable = owner != n
                    && t - published <= ctx.hint_ttl_secs
                    && self.live.down & (1 << owner) == 0
                    && self.nodes[owner].policy.contains(req.id);
                if let Some(tb) = tb.as_deref_mut() {
                    if usable {
                        tb.advance(EDGE_RTT_MS);
                    }
                    tb.push(
                        "peer_hint",
                        req.size,
                        vec![kv("owner", owner as u64), kv("hit", usable)],
                    );
                }
                if usable {
                    return (ram_hit(EDGE_RTT_MS), Served::Peer(owner));
                }
                // Stale hint (expired, peer down, or evicted): drop it
                // so the next miss doesn't re-probe.
                self.hints.table.remove(&req.id);
            }
        }

        // Shield tier: the full hardened origin path (freshness, stale
        // serving, retries, breaker, coalescing), plus the edge→shield
        // hop on top of whatever the shield charged. The shield's own
        // `edge_lookup` step that follows carries the shield-cache hit
        // flag for this `shield_lookup` hop.
        if let Some(tb) = tb.as_deref_mut() {
            tb.advance(EDGE_RTT_MS);
            tb.push("shield_lookup", req.size, vec![kv("node", n as u64)]);
        }
        let mut so = self.shield.serve(req, tb);
        so.latency_ms += EDGE_RTT_MS;
        if !so.error {
            // Publish: node `n` now holds the object, so ring peers can
            // shield-fetch from it instead of origin-fetching.
            self.hints.publish(req, n as u32);
        }
        (so, Served::Shield)
    }

    /// Serves one request of this shard's subsequence.
    fn step<B>(&mut self, ctx: &FleetCtx<'_, B>, s: usize, i: usize, req: &Request)
    where
        B: Fn(usize, usize, u64, Option<&Obs>) -> P + Sync,
    {
        let t = req.ts.as_secs_f64();
        if self.tally.tick() {
            let meta_bytes = self.meta_bytes();
            self.tally.ledger.sample_meta(meta_bytes);
            self.shield.housekeep(req.ts);
            // On this tick and no other: a hint that outlives its TTL in
            // the table is refused visibly (see the module docs).
            self.hints.expire(t, ctx.hint_ttl_secs);
        }

        // Routing is a pure function of (id, trace time), evaluated once:
        // one ring lookup against this segment's down mask.
        ctx.liveness.seek(&mut self.live, t);
        let down = self.live.down;
        let (primary, chosen) = ctx.ring.route(req.id, |node| down & (1 << node) == 0);
        let failed_over = chosen.filter(|&n| n != primary);

        // A fleet reads no eviction counter: its windows count none.
        let mut tb = self.tally.begin(i, req, || 0);
        if let (Some(tb), Some(n)) = (tb.as_mut(), failed_over) {
            tb.push(
                "failover",
                0,
                vec![kv("from", primary as u64), kv("to", n as u64)],
            );
        }

        let (mut served, kind) = match chosen {
            // Whole fleet down: the request fails at the client after one
            // edge round trip.
            None => (
                ServeOutcome::failed(latency::error_latency_ms(0.0), 0.0),
                Served::Unrouted,
            ),
            Some(n) => self.serve_at(ctx, s, n, req, tb.as_mut()),
        };
        served.degraded |= failed_over.is_some();
        // The tally's hit is the fleet's: served from fleet RAM. Whether
        // the shield had the object only feeds the shield hit ratio.
        let shield_hit = matches!(kind, Served::Shield) && served.hit;
        served.hit = matches!(kind, Served::EdgeHit | Served::Peer(_));

        // Warmup is by global trace index, identical at any thread count.
        if self.tally.ledger.measures(i) {
            let counts = &mut self.counts;
            match kind {
                Served::EdgeHit => counts.edge_hits += 1,
                Served::Peer(peer) => {
                    counts.peer_hits += 1;
                    // A peer fill touches neither shield nor origin, so no
                    // other event of this request can precede this one.
                    if let Some(obs) = self.tally.ledger.obs() {
                        obs.emit(
                            Event::new(t, EventKind::PeerHint)
                                .field("id", req.id)
                                .field("peer", peer as u64),
                        );
                    }
                }
                Served::Shield => {
                    counts.shield_lookups += 1;
                    counts.shield_hits += shield_hit as u64;
                }
                Served::Unrouted => counts.unrouted += 1,
            }
            if let Some(n) = chosen {
                let node = &mut self.nodes[n].counts;
                node.measured += 1;
                node.hits += matches!(kind, Served::EdgeHit) as u64;
                node.errors += served.error as u64;
            }
            counts.failovers += failed_over.is_some() as u64;
        }
        let origin = self.shield.origin_stats();
        self.tally.record(i, req, &served, tb, origin);
    }

    /// Once the shard's subsequence is exhausted: takes the final metadata
    /// sample, flushes the shard recorder (windows, counters, histogram)
    /// and keeps only what the merge reads — the node slices, the shield
    /// and the hints are dropped here.
    fn finish(mut self) -> FinishedShard {
        let meta_bytes = self.meta_bytes();
        self.tally.ledger.sample_meta(meta_bytes);
        let (errors, c) = (self.tally.ledger.totals().errors, &self.counts);
        if let Some(obs) = self.tally.finish("fleet.", 0) {
            obs.counter_add("fleet.edge_hits", c.edge_hits);
            obs.counter_add("fleet.peer_hits", c.peer_hits);
            obs.counter_add("fleet.shield_hits", c.shield_hits);
            obs.counter_add("fleet.errors", errors - c.unrouted);
            obs.counter_add("fleet.unrouted", c.unrouted);
            obs.counter_add("fleet.failovers", c.failovers);
        }
        FinishedShard {
            policy: self.nodes[0].policy.name().to_string(),
            nodes: self.nodes.iter().map(|slice| slice.counts).collect(),
            counts: self.counts,
            tally: self.tally,
        }
    }
}

/// The fleet engine: replays a trace across N consistent-hashed edge
/// nodes over an origin shield, with node-level fault injection, and
/// merges per-shard, per-node results in fixed order.
///
/// ```
/// use lhr_policies::Lru;
/// use lhr_proto::fleet::{FleetConfig, FleetEngine, NodeFaultConfig};
/// use lhr_sim::shard::RouteConfig;
/// use lhr_trace::{Request, Time, Trace};
///
/// let mut trace = Trace::new("t");
/// for i in 0..4_000u64 {
///     trace.push(Request::new(Time::from_secs(i), (i * 7) % 100, 1 << 10));
/// }
/// let run = |threads: usize| {
///     let mut config = FleetConfig::new(64 << 10);
///     config.n_shards = 4;
///     config.route = RouteConfig { threads };
///     config.node_faults =
///         NodeFaultConfig::preset("node-churn", 7, config.n_nodes, 4_000.0).unwrap();
///     FleetEngine::new(config).replay(&trace, |_node, _shard, cap, _obs| Lru::new(cap))
/// };
/// // The determinism contract: byte-identical stable reports at any
/// // thread count, faults and all.
/// assert_eq!(run(1).stable_json(), run(3).stable_json());
/// ```
pub struct FleetEngine {
    config: FleetConfig,
    obs: Option<Obs>,
}

impl FleetEngine {
    /// Creates a fleet engine; the shield's `deterministic` is forced on,
    /// as in [`crate::ShardedEngine`].
    pub fn new(mut config: FleetConfig) -> Self {
        config.server.deterministic = true;
        FleetEngine { config, obs: None }
    }

    /// Attaches a master observability recorder; per-shard recorders are
    /// merged into it in fixed shard order ([`Obs::absorb_shards`]).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Replays `trace` across the fleet. `build(node, shard, capacity,
    /// shard_obs)` constructs one node's cache slice for one shard; it
    /// must be `Fn + Sync` because slices are built on the worker that
    /// claims their shard, and churn presets rebuild them mid-replay
    /// (derive per-slice seeds as `shard_seed(shard_seed(base, node),
    /// shard)`). A shard's node slices, shield slice and hints are dropped
    /// on that worker right after the shard's last request, so at most
    /// `route.threads × n_nodes` slices are alive at once (plus one being
    /// rebuilt per worker).
    ///
    /// A trace handed over by value is consumed: each shard's requests are
    /// freed as its run steps past them ([`Partition`]). A borrowed one is
    /// cloned first.
    pub fn replay<'t, P, B>(&self, trace: impl Into<Cow<'t, Trace>>, build: B) -> FleetReport
    where
        P: CachePolicy + Send,
        B: Fn(usize, usize, u64, Option<&Obs>) -> P + Sync,
    {
        let trace = trace.into().into_owned();
        let (len, duration) = (trace.len(), trace.duration());
        let n_shards = self.config.n_shards.max(1);
        let n_nodes = self.config.n_nodes.clamp(1, MAX_NODES);
        let node_capacity =
            (self.config.total_capacity / (n_nodes as u64 * n_shards as u64)).max(1);
        let shield_capacity = self.config.shield_capacity / n_shards as u64;
        let ring = HashRing::new(n_nodes, self.config.vnodes);
        let warmup = self.config.server.warmup_requests;
        let master = self.obs.as_ref();
        let liveness = Liveness::compile(&self.config.node_faults, n_nodes);
        let ctx = FleetCtx {
            ring: &ring,
            liveness: &liveness,
            cold_restart: self.config.node_faults.cold_restart,
            hint_ttl_secs: self.config.hint_ttl_secs,
            peer_hints: self.config.peer_hints,
            node_capacity,
            build: &build,
        };

        // As in the engine: the partition pass and building each shard
        // count as replay time.
        let wall_start = Instant::now();
        let partition = Partition::new(trace.requests, n_shards);
        let measured: Vec<usize> = (0..n_shards)
            .map(|s| partition.measured(s, warmup))
            .collect();
        let mut shards: Vec<FinishedShard> = partition.run(
            &self.config.route,
            |s| {
                let ledger = Ledger::shard(master, warmup);
                FleetShard {
                    nodes: (0..n_nodes)
                        .map(|node| NodeSlice {
                            policy: build(node, s, node_capacity, ledger.obs()),
                            epoch: 0,
                            counts: NodeCounts::default(),
                        })
                        .collect(),
                    shield: CdnServer::new(
                        Lru::new(shield_capacity),
                        self.config.server.for_shard(s),
                    ),
                    hints: Hints::new(),
                    live: Segment::COLD,
                    counts: FleetCounts::default(),
                    tally: Tally::new(ledger, measured[s]),
                }
            },
            |state, s, i, req| state.step(&ctx, s, i, req),
            |_s, state| state.finish(),
        );
        let wall_secs = wall_start.elapsed().as_secs_f64();
        let threads = resolve_threads(self.config.route.threads).clamp(1, n_shards);

        // As in the engine: stamped once shard 0's slices have a name, and
        // still ahead of every shard's records.
        let name = format!("fleet({})x{}", shards[0].policy, n_nodes);
        if let Some(master) = master {
            announce(master, &name, &trace.name, &self.config.server.faults);
            master.set_meta("nodes", n_nodes as u64);
            master.set_meta("shards", n_shards as u64);
            for &(node, start, end) in &self.config.node_faults.windows {
                master.emit(
                    Event::new(start, EventKind::NodeDown)
                        .field("node", node as u64)
                        .field("until_secs", end),
                );
                master.emit(Event::new(end, EventKind::NodeUp).field("node", node as u64));
            }
        }

        // Merge in fixed shard order, then fixed node order.
        let mut counts = FleetCounts::default();
        let mut node_seen = vec![0u64; n_nodes];
        let mut node_measured = vec![0u64; n_nodes];
        let mut node_hits = vec![0u64; n_nodes];
        let mut node_errors = vec![0u64; n_nodes];
        for shard in &shards {
            counts.edge_hits += shard.counts.edge_hits;
            counts.peer_hits += shard.counts.peer_hits;
            counts.shield_hits += shard.counts.shield_hits;
            counts.shield_lookups += shard.counts.shield_lookups;
            counts.unrouted += shard.counts.unrouted;
            counts.failovers += shard.counts.failovers;
            for (node, slice) in shard.nodes.iter().enumerate() {
                node_seen[node] += slice.seen;
                node_measured[node] += slice.measured;
                node_hits[node] += slice.hits;
                node_errors[node] += slice.errors;
            }
        }
        let mut total = Tally::merge(shards.iter_mut().map(|s| &mut s.tally), master, len);
        let served = total.report(name, &trace.name, duration, wall_secs);

        let pct = |part: f64, whole: f64| {
            if whole <= 0.0 {
                0.0
            } else {
                part / whole * 100.0
            }
        };
        let totals = total.ledger.totals();
        let (measured, bytes_served) = (totals.requests, totals.bytes_requested);
        let origin_offload_pct = if bytes_served == 0 {
            100.0
        } else {
            (1.0 - total.wan_bytes as f64 / bytes_served as f64) * 100.0
        };
        let node_imbalance = crate::engine::shard_skew(&node_seen).0;
        let per_node_hit_pct: Vec<f64> = node_hits
            .iter()
            .zip(&node_measured)
            .map(|(&h, &m)| pct(h as f64, m as f64))
            .collect();

        if let Some(master) = master {
            master.gauge_set("fleet.node_imbalance", node_imbalance);
            master.gauge_set("fleet.origin_offload_pct", origin_offload_pct);
            gauge_wall_secs(master, wall_secs);
        }

        FleetReport {
            name: served.name,
            trace: served.trace,
            n_nodes: n_nodes as u64,
            vnodes: self.config.vnodes.max(1) as u64,
            n_shards: n_shards as u64,
            threads: threads as u64,
            requests_per_sec: per_sec(len, wall_secs),
            requests: measured,
            edge_hit_pct: pct(counts.edge_hits as f64, measured as f64),
            byte_hit_pct: pct(totals.bytes_hit as f64, bytes_served as f64),
            shield_hit_pct: pct(counts.shield_hits as f64, counts.shield_lookups as f64),
            peer_hits: counts.peer_hits,
            origin_offload_pct,
            availability_pct: served.availability_pct,
            errors_served: served.errors_served - counts.unrouted,
            unrouted: counts.unrouted,
            failovers: counts.failovers,
            stale_served: served.stale_served,
            retries: served.retries,
            coalesced_fetches: served.coalesced_fetches,
            breaker_opens: served.breaker_opens,
            breaker_closes: served.breaker_closes,
            mean_latency_ms: served.mean_latency_ms,
            p90_latency_ms: served.p90_latency_ms,
            p99_latency_ms: served.p99_latency_ms,
            wan_gbps: served.wan_gbps,
            peak_mem_gb: served.peak_mem_gb,
            per_node_requests: node_seen,
            per_node_hit_pct,
            per_node_errors: node_errors,
            node_imbalance,
            replay_wall_secs: wall_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::Time;
    use lhr_util::json::{FromJson, Json};
    use lhr_util::rng::{rngs::StdRng, Rng, SeedableRng};

    fn trace(n: usize, objects: u64, size: u64) -> Trace {
        let mut t = Trace::new("fleet-test");
        for i in 0..n {
            t.push(Request::new(
                Time::from_secs(i as u64),
                (i as u64 * 7) % objects,
                size,
            ));
        }
        t
    }

    fn config(threads: usize, total_capacity: u64) -> FleetConfig {
        let mut c = FleetConfig::new(total_capacity);
        c.n_shards = 4;
        c.route = RouteConfig { threads };
        c
    }

    #[test]
    fn ring_covers_every_node_and_is_stable() {
        let ring = HashRing::new(5, 64);
        let mut seen = [0u64; 5];
        for id in 0..10_000u64 {
            let n = ring.primary(id);
            assert_eq!(n, ring.primary(id), "primary is a pure function");
            assert_eq!(
                ring.node_for(id, |_| true),
                Some(n),
                "all-live routing equals the primary"
            );
            seen[n] += 1;
        }
        assert!(seen.iter().all(|&c| c > 0), "{seen:?}");
    }

    #[test]
    fn ring_keyspace_is_balanced() {
        // Regression: without the avalanche finalizer and domain tags,
        // node 0 owned two thirds of the keyspace *and* captured every
        // id below `vnodes` (its points equalled those ids' key hashes).
        let ring = HashRing::new(4, 64);
        let mut counts = [0u64; 4];
        for id in 0..40_000u64 {
            counts[ring.primary(id)] += 1;
        }
        for (node, &c) in counts.iter().enumerate() {
            assert!(
                (5_500..=14_500).contains(&c),
                "node {node} owns {c} of 40k uniform ids: {counts:?}"
            );
        }
        let mut small = [0u64; 4];
        for id in 0..64u64 {
            small[ring.primary(id)] += 1;
        }
        assert!(small.iter().all(|&c| c > 0), "dense ids cluster: {small:?}");
    }

    #[test]
    fn ring_failover_is_bounded_rehash() {
        let ring = HashRing::new(4, 64);
        let down = 2usize;
        for id in 0..5_000u64 {
            let primary = ring.primary(id);
            let rerouted = ring.node_for(id, |n| n != down);
            if primary != down {
                assert_eq!(rerouted, Some(primary), "live primaries never move");
            } else {
                let got = rerouted.expect("three nodes are still live");
                assert_ne!(got, down);
            }
        }
        assert_eq!(ring.node_for(7, |_| false), None, "all-down is unrouted");
    }

    /// The lookup this module had before the bucket index and the single
    /// walk: binary search, then `primary` and `node_for` each on their own.
    fn reference_successor(ring: &HashRing, h: u64) -> usize {
        let i = ring.points.partition_point(|&(p, _)| p < h);
        if i == ring.points.len() {
            0
        } else {
            i
        }
    }

    fn reference_node_for(ring: &HashRing, id: ObjectId, live: u64) -> Option<usize> {
        let start = reference_successor(ring, ring_key(id));
        let mut tried = 0u64;
        for k in 0..ring.points.len() {
            let node = ring.points[(start + k) % ring.points.len()].1 as usize;
            if tried & (1 << node) != 0 {
                continue;
            }
            tried |= 1 << node;
            if live & (1 << node) != 0 {
                return Some(node);
            }
        }
        None
    }

    #[test]
    fn bucket_index_successor_equals_binary_search() {
        let mut rng = StdRng::seed_from_u64(20);
        for n_nodes in [1usize, 2, 5, 64] {
            for vnodes in [1usize, 64, 4096] {
                let ring = HashRing::new(n_nodes, vnodes);
                assert_eq!(ring.points.len(), n_nodes * vnodes);
                let mut probes = vec![0, 1, u64::MAX - 1, u64::MAX];
                for &(hash, _) in &ring.points {
                    probes.extend([hash.wrapping_sub(1), hash, hash.wrapping_add(1)]);
                }
                probes.extend((0..4_000).map(|_| rng.gen::<u64>()));
                for h in probes {
                    assert_eq!(
                        ring.successor(h),
                        reference_successor(&ring, h),
                        "{n_nodes} nodes x {vnodes} vnodes, hash {h:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_walk_equals_primary_then_node_for() {
        let mut rng = StdRng::seed_from_u64(21);
        for (n_nodes, vnodes) in [(1usize, 1usize), (1, 64), (2, 1), (5, 64), (64, 3)] {
            let ring = HashRing::new(n_nodes, vnodes);
            let all = u64::MAX >> (64 - n_nodes);
            for _ in 0..3_000 {
                let id = rng.gen::<u64>() >> rng.gen_range(0u32..64);
                // Everything up, everything down, one node up, anything.
                let live = match rng.gen_range(0u32..6) {
                    0 => all,
                    1 => 0,
                    2 => 1 << rng.gen_range(0..n_nodes),
                    _ => rng.gen::<u64>() & all,
                };
                let primary = ring.points[reference_successor(&ring, ring_key(id))].1 as usize;
                let chosen = reference_node_for(&ring, id, live);
                let is_live = |node: usize| live & (1 << node) != 0;
                assert_eq!(ring.route(id, is_live), (primary, chosen));
                assert_eq!(ring.primary(id), primary);
                assert_eq!(ring.node_for(id, is_live), chosen);
            }
        }
    }

    /// Holds the compiled timeline to `down` / `epoch` at every edge of
    /// `faults`, one ulp either side of each, and both infinities: through
    /// a cold cursor, and through one cursor dragged across the probes
    /// forwards, backwards and shuffled.
    fn assert_timeline_matches(faults: &NodeFaultConfig, n_nodes: usize, rng: &mut StdRng) {
        let timeline = Liveness::compile(faults, n_nodes);
        let mut probes = vec![f64::NEG_INFINITY, f64::INFINITY, 0.0, -0.0];
        for &(_, start, end) in &faults.windows {
            for edge in [start, end].into_iter().filter(|edge| !edge.is_nan()) {
                probes.extend([edge.next_down(), edge, edge.next_up()]);
            }
        }
        let check = |cursor: &mut Segment, t: f64| {
            timeline.seek(cursor, t);
            for node in 0..n_nodes {
                assert_eq!(
                    cursor.down & (1 << node) != 0,
                    faults.down(node, t),
                    "down({node}, {t}) under {faults:?}"
                );
                assert_eq!(
                    timeline.epoch(cursor, node),
                    faults.epoch(node, t),
                    "epoch({node}, {t}) under {faults:?}"
                );
            }
        };
        for &t in &probes {
            let mut cold = Segment::COLD;
            check(&mut cold, t);
        }
        let mut cursor = Segment::COLD;
        let mut order = probes.clone();
        order.extend(probes.iter().rev());
        for _ in 0..3 {
            rng.shuffle(&mut probes);
            order.extend(&probes);
        }
        for t in order {
            check(&mut cursor, t);
        }
    }

    #[test]
    fn compiled_timeline_equals_down_and_epoch() {
        let mut rng = StdRng::seed_from_u64(22);
        for name in NodeFaultConfig::preset_names() {
            for (seed, n_nodes, duration) in [(7, 4, 1000.0), (42, 1, 0.0), (3, 64, 86_400.0)] {
                let faults = NodeFaultConfig::preset(name, seed, n_nodes, duration).unwrap();
                assert_timeline_matches(&faults, n_nodes, &mut rng);
            }
        }
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let by_hand: [&[(usize, f64, f64)]; 8] = [
            // Overlapping, nested and touching windows of one node.
            &[(0, 1.0, 5.0), (0, 3.0, 8.0), (0, 4.0, 4.5), (0, 8.0, 9.0)],
            // Empty and inverted windows (never down, still count as
            // completed), and two nodes sharing edges.
            &[(1, 2.0, 2.0), (1, 6.0, 3.0), (2, 3.0, 6.0), (0, 3.0, 6.0)],
            // Infinite edges on either side.
            &[
                (0, -inf, 2.0),
                (1, 2.0, inf),
                (2, -inf, inf),
                (3, inf, -inf),
            ],
            // NaN edges of either sign: the comparison is false.
            &[(0, nan, 5.0), (1, 1.0, -nan), (2, -nan, nan), (3, 1.0, 5.0)],
            // A node the fleet does not have (and one past the mask).
            &[
                (4, 1.0, 2.0),
                (64, 0.0, 9.0),
                (200, 3.0, 4.0),
                (1, 1.5, 3.5),
            ],
            // Signed zeros and subnormal neighbours.
            &[(0, -0.0, 0.0), (1, 0.0, 5e-324), (2, -5e-324, -0.0)],
            // The same window twice.
            &[(3, 1.0, 2.0), (3, 1.0, 2.0)],
            &[],
        ];
        for windows in by_hand {
            for cold_restart in [false, true] {
                let faults = NodeFaultConfig {
                    seed: 1,
                    windows: windows.to_vec(),
                    cold_restart,
                };
                assert_timeline_matches(&faults, 4, &mut rng);
            }
        }
        // Random schedules over a small grid of times, so edges collide.
        for _ in 0..200 {
            let n_nodes = rng.gen_range(1usize..6);
            let windows = (0..rng.gen_range(0usize..8))
                .map(|_| {
                    let mut edge = || match rng.gen_range(0u32..12) {
                        0 => nan,
                        1 => inf,
                        2 => -inf,
                        _ => rng.gen_range(0u32..8) as f64 * 0.5,
                    };
                    let (start, end) = (edge(), edge());
                    (rng.gen_range(0usize..7), start, end)
                })
                .collect();
            let faults = NodeFaultConfig {
                seed: 1,
                windows,
                cold_restart: false,
            };
            assert_timeline_matches(&faults, n_nodes, &mut rng);
        }
    }

    #[test]
    fn hint_log_equals_a_table_scan() {
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..300 {
            let mut micros = 1_000_000u64;
            let requests: Vec<Request> = (0..rng.gen_range(1usize..400))
                .map(|_| {
                    if rng.gen_bool(0.7) {
                        micros += rng.gen_range(0u64..300_000);
                    }
                    // Few ids, so hints are republished and records go stale.
                    Request::new(Time::from_micros(micros), rng.gen_range(0u64..12), 1)
                })
                .collect();
            let ttl = match case % 7 {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => f64::NAN,
                3 => -1.0,
                _ => rng.gen_range(0.0..3.0),
            };
            let mut hints = Hints::new();
            let mut reference: FastMap<ObjectId, (u32, f64)> = FastMap::default();
            for (i, req) in requests.iter().enumerate() {
                let t = req.ts.as_secs_f64();
                match rng.gen_range(0u32..10) {
                    // The tick, now and then at a time of its own.
                    0 | 1 => {
                        let t = if rng.gen_bool(0.2) {
                            rng.gen_range(0.0..20.0)
                        } else {
                            t
                        };
                        hints.expire(t, ttl);
                        reference.retain(|_, &mut (_, published)| t - published <= ttl);
                    }
                    // A refused lookup drops the hint.
                    2 | 3 => {
                        assert_eq!(hints.table.get(&req.id), reference.get(&req.id));
                        hints.table.remove(&req.id);
                        reference.remove(&req.id);
                    }
                    _ => {
                        let node = rng.gen_range(0u32..4);
                        hints.publish(req, node);
                        reference.insert(req.id, (node, t));
                    }
                }
                assert_eq!(hints.table, reference, "case {case}, request {i}");
                assert!(
                    hints.log.len() <= i + 1 && hints.table.len() <= hints.log.len(),
                    "every live hint has a record"
                );
            }
        }
    }

    #[test]
    fn presets_compile_to_deterministic_schedules() {
        assert!(NodeFaultConfig::preset("nope", 1, 4, 100.0).is_none());
        let none = NodeFaultConfig::preset("none", 1, 4, 100.0).unwrap();
        assert!(none.windows.is_empty());

        let brown = NodeFaultConfig::preset("node-brownout", 6, 4, 1000.0).unwrap();
        assert_eq!(brown.windows, vec![(2, 350.0, 650.0)]);
        assert!(brown.down(2, 400.0) && !brown.down(2, 700.0) && !brown.down(1, 400.0));
        assert_eq!(brown.epoch(2, 400.0), 0);
        assert_eq!(brown.epoch(2, 650.0), 1);

        let churn = NodeFaultConfig::preset("node-churn", 9, 4, 1000.0).unwrap();
        assert!(churn.cold_restart);
        assert_eq!(churn.windows.len(), 4);
        let flaky_a = NodeFaultConfig::preset("node-flaky", 3, 2, 1000.0).unwrap();
        let flaky_b = NodeFaultConfig::preset("node-flaky", 3, 2, 1000.0).unwrap();
        assert_eq!(flaky_a.windows, flaky_b.windows, "pure function of seed");
        assert_eq!(flaky_a.windows.len(), 8);
    }

    #[test]
    fn replay_is_identical_across_thread_counts_under_churn() {
        let t = trace(12_000, 200, 1 << 14);
        let run = |threads: usize| {
            let mut c = config(threads, 64 << 14);
            c.node_faults =
                NodeFaultConfig::preset("node-churn", 5, c.n_nodes, t.duration().as_secs_f64())
                    .unwrap();
            FleetEngine::new(c)
                .replay(&t, |_, _, cap, _| Lru::new(cap))
                .stable_json()
        };
        let baseline = run(1);
        assert_eq!(baseline, run(2));
        assert_eq!(baseline, run(8));
    }

    #[test]
    fn brownout_fails_over_and_stays_available() {
        let t = trace(16_000, 300, 1 << 14);
        let run = |preset: &str| {
            let mut c = config(2, 128 << 14);
            c.node_faults =
                NodeFaultConfig::preset(preset, 6, c.n_nodes, t.duration().as_secs_f64()).unwrap();
            FleetEngine::new(c).replay(&t, |_, _, cap, _| Lru::new(cap))
        };
        let calm = run("none");
        let brown = run("node-brownout");
        assert_eq!(calm.failovers, 0);
        assert_eq!(calm.unrouted, 0);
        assert!(brown.failovers > 0, "down node must re-route");
        assert_eq!(brown.unrouted, 0, "three live nodes remain");
        // The origin is infallible here, so failover keeps every request
        // served: availability stays at 100%, far above the no-failover
        // analytic floor of ~92.5% (30% downtime × 1/4 of the keyspace).
        assert!(brown.availability_pct > 99.99, "{}", brown.availability_pct);
        assert!(
            brown.origin_offload_pct <= calm.origin_offload_pct + 1e-9,
            "offload can only degrade under faults: {} vs {}",
            brown.origin_offload_pct,
            calm.origin_offload_pct
        );
    }

    #[test]
    fn peer_hints_reduce_origin_traffic() {
        // Churn makes nodes rejoin *cold*: a rejoined node misses keys
        // its ring successor absorbed (and published hints for) during
        // the window, so the hint path serves them intra-fleet. Capacity
        // is ample so the peers still hold those keys.
        let t = trace(16_000, 300, 1 << 14);
        let run = |peer_hints: bool| {
            let mut c = config(1, 1 << 26);
            c.peer_hints = peer_hints;
            c.shield_capacity = 0;
            c.node_faults =
                NodeFaultConfig::preset("node-churn", 6, c.n_nodes, t.duration().as_secs_f64())
                    .unwrap();
            FleetEngine::new(c).replay(&t, |_, _, cap, _| Lru::new(cap))
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with.peer_hits > 0,
            "cold rejoins must exercise the hint path"
        );
        assert_eq!(without.peer_hits, 0);
        assert!(
            with.origin_offload_pct >= without.origin_offload_pct,
            "{} vs {}",
            with.origin_offload_pct,
            without.origin_offload_pct
        );
    }

    #[test]
    fn zero_capacity_shield_still_serves() {
        let t = trace(4_000, 100, 1 << 10);
        let mut c = config(1, 32 << 10);
        c.shield_capacity = 0;
        let report = FleetEngine::new(c).replay(&t, |_, _, cap, _| Lru::new(cap));
        assert_eq!(report.shield_hit_pct, 0.0);
        assert!(report.availability_pct > 99.99);
        assert!(report.requests > 0);
    }

    #[test]
    fn report_json_roundtrips() {
        let t = trace(3_000, 80, 1 << 10);
        let report = FleetEngine::new(config(1, 64 << 10)).replay(&t, |_, _, cap, _| Lru::new(cap));
        let json = report.to_json().to_string();
        let back = FleetReport::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.to_json().to_string(), json);
        assert_eq!(back.n_nodes, 4);
        assert_eq!(back.per_node_requests.len(), 4);
    }
}
