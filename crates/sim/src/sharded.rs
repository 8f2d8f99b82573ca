//! The sharded multi-worker datapath.
//!
//! [`ShardedNic`] RSS-hashes packets by flow key onto `N` worker shards,
//! each owning a private [`Executor`] with its own runtime-profile shard,
//! and merges per-shard profiles/observations back into one
//! [`RuntimeProfile`] / [`ExecObservations`] at profile-window boundaries
//! (`take_profile` / `take_observations`).
//!
//! # The run loop
//!
//! Persistent worker threads, spawned at construction and joined on
//! drop, each spinning a DPDK-style run loop: burst-dequeue packets from
//! a private SPSC ring ([`crate::ring`]), execute them, accumulate
//! shard-local aggregates, park when idle. The dispatcher hashes packets
//! onto rings and never waits mid-batch: it is *work-conserving* — when
//! a ring fills, or at end-of-batch drain, the dispatcher executes
//! bursts itself through the same shard-locked path the workers use
//! instead of blocking on them. There is no global arrival stamping, no
//! cross-shard record sort, and no per-batch thread spawn, and on a
//! single-CPU host a batch drains with zero context switches.
//!
//! The single-threaded reference is [`SmartNic`](crate::SmartNic). What
//! the run loop **preserves** exactly against it (asserted by
//! `tests/runloop_differential.rs`):
//!
//! - **Forwarding decisions and packet mutations.** A flow lives on
//!   exactly one shard and rings are FIFO, so the k-th packet of a flow
//!   sees the same table/cache state as in a single-threaded run.
//! - **Per-flow packet order.** Same argument.
//! - **Integer batch statistics** (packet/drop/migration/counter-update
//!   counts) and the **p99 latency** (reduced from the exact merged
//!   latency multiset, which is partition-invariant).
//! - **Sampled counters and histograms, for any worker count.** Sampling
//!   is keyed per flow ([`SampleKeying::FlowKeyed`]): the decision for a
//!   packet depends only on `(flow_hash, per-flow index)`, both
//!   partition-invariant, so profiles and latency histograms merged at a
//!   window boundary are bit-identical across worker counts and to a
//!   [`SmartNic`](crate::SmartNic) with flow-keyed sampling. With
//!   `sample_every == 1` every packet is sampled and profiles also match
//!   the `SmartNic` default (global-sequence) schedule bit-for-bit.
//!
//! What the run loop **relaxes**:
//!
//! - **Global arrival interleaving.** Floating-point aggregates whose
//!   value depends on summation order — mean latency, core busy time and
//!   hence throughput — are accumulated per shard and summed in shard
//!   order, so they can differ from the single-threaded result in the
//!   last ULPs (they are still deterministic for a fixed worker count).
//! - **Arrival-clock pacing is shard-local.** A shard paces its
//!   executor clock by its own packet index, so time-dependent runtime
//!   state (cache insertion rate limiters) sees per-shard schedules.
//!
//! # Control plane: fan-out vs. live reconfiguration
//!
//! By default, control-plane operations (`insert_entry`, `remove_entry`,
//! `replace_table`, `deploy`, cache management) fan out to every shard
//! under its lock so all workers always run the same program — simple,
//! but the control plane serializes against packet execution at burst
//! granularity.
//!
//! With **live reconfiguration** enabled (`set_live_reconfig(true)`),
//! program-changing operations instead *publish* as numbered generations
//! on an epoch/RCU chain (`GenChain` in `generation.rs`) without touching
//! any shard lock:
//! `deploy` publishes a whole-program swap (with a pre-built compiled
//! pipeline the shards adopt by cloning), entry ops publish deltas, and
//! every dispatched packet is tagged with the generation current at
//! dispatch. A shard adopts pending generations lazily when the first
//! packet tagged with a newer one reaches it, so:
//!
//! - **No torn reads**: a packet executes under exactly the generation
//!   it was dispatched with — adoption is monotone and happens *between*
//!   packets, never mid-packet.
//! - **No drops or stalls**: publication never blocks the datapath, and
//!   in-flight packets complete under their old generation.
//! - **Worker-count-invariant attribution**: the generation tag is a
//!   pure function of the packet's position in the arrival stream
//!   relative to the publishes, so per-generation packet counts (and,
//!   with flow-keyed sampling, merged profiles) are identical for any
//!   worker count.
//!
//! Quiescence is detected at `wait_idle` (every public call that drains
//! the rings): drained shards are fast-forwarded to the latest
//! generation and the chain prefix every shard has adopted is reclaimed,
//! so the chain is empty in steady state.
//!
//! Non-program operations (instrumentation, placement, engine mode,
//! cache flushes/limits) always fan out: they mutate shard-local runtime
//! state, and the shard mutex serializes them at burst granularity
//! without tearing any packet.
//!
//! Caveat: flow-cache *runtime state* is shard-local. Each shard has its
//! own LRU of the configured capacity and its own insertion rate
//! limiter, so under eviction or rate-limit pressure a sharded run
//! matches one [`SmartNic`](crate::SmartNic) *per shard*, each fed its
//! `flow_hash % workers` partition, rather than a single one (more
//! aggregate capacity, more aggregate insertion budget). Equivalence to
//! one single-threaded NIC holds exactly for programs without flow
//! caches, and for cached programs whose working set and insertion rate
//! stay under the per-shard limits.

use crate::backend::{LiveSwap, NicBackend};
use crate::exec::{EngineMode, ExecReport, Executor, SampleKeying};
use crate::generation::{GenChain, GenKind, PatchOp};
use crate::nic::{BatchStats, BatchTotals, NicConfig, ShardMode};
use crate::observe::ExecObservations;
use crate::packet::Packet;
use crate::ring;
use crate::specialize::{self, HotKeySketch, SpecConfig, SpecStats};
use crate::sync::{AtomicBool, AtomicU64, Mutex, Ordering};
use fxhash::FxHashMap;
use pipeleon_cost::{CostParams, MemoryTier, Placement, RuntimeProfile};
use pipeleon_ir::{IrError, NextHops, NodeId, ProgramGraph, Table, TableEntry};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};
use std::time::Instant;

/// Total in-flight ring slots across all shards. Per-shard capacity is
/// this divided by the worker count (clamped to
/// [`RING_CAPACITY_MIN`]..=[`RING_CAPACITY_MAX`]): a dispatcher can keep
/// well ahead of the workers before hitting backpressure, but the
/// aggregate in-flight window stays bounded so staged items are still
/// cache-warm when their worker dequeues them — with per-shard capacity
/// fixed instead, high worker counts would stage entire batches cold.
const RING_TOTAL_SLOTS: usize = 4096;
const RING_CAPACITY_MIN: usize = 512;
const RING_CAPACITY_MAX: usize = 8192;
/// Maximum items a worker dequeues (and processes under one lock
/// acquisition) per run-loop iteration.
const BURST: usize = 512;
/// Idle spins before a worker parks.
const SPIN_BUDGET: u32 = 64;
/// How many packets ahead a drain loop prefetches slot storage.
const PREFETCH_AHEAD: usize = 8;
/// Items the dispatcher stages per shard before bursting them into the
/// shard's ring (the DPDK tx-burst idiom). Staging through a tiny,
/// constantly reused buffer keeps the dispatcher's write target hot and
/// turns ring-slot writes into sequential runs: pushing items one at a
/// time round-robin across many rings makes every slot write a stray
/// access to a different buffer, which defeats the hardware prefetcher
/// once the ring count grows.
const STAGE_BURST: usize = 64;

/// One unit of work travelling through a shard ring.
#[derive(Debug)]
struct WorkItem {
    /// Position in the caller's input slice (`process_batch` scatter);
    /// unused by measurement batches.
    idx: u32,
    /// The generation current when the dispatcher staged this packet.
    /// The shard adopts pending generations up to this id before
    /// executing the packet — so attribution is a pure function of
    /// stream position, independent of worker count and timing.
    gen: u64,
    pkt: Packet,
}

/// What the worker does with each packet of the current batch.
#[derive(Debug, Clone, Copy)]
enum BatchCtx {
    /// `process_batch`: execute with the executor clock as set by the
    /// dispatcher and keep `(idx, packet, report)` for scatter-back.
    Forward,
    /// `measure`: shard-local arrival pacing plus statistic aggregation.
    Measure {
        batch_start_s: f64,
        line_pps: f64,
        cores: usize,
        default_bytes: usize,
    },
}

/// Shard-local batch aggregates, merged deterministically (in shard
/// order) after the batch drains.
#[derive(Debug, Default)]
struct BatchAgg {
    totals: BatchTotals,
    core_busy_ns: Vec<f64>,
    latencies: Vec<f64>,
}

impl BatchAgg {
    fn reset(&mut self) {
        self.totals = BatchTotals::default();
        self.core_busy_ns.clear();
        self.latencies.clear();
    }
}

/// Everything the consumer side of a shard mutates, behind the shard
/// mutex: the executor state *and* the ring consumer handle. Keeping the
/// consumer inside the mutex makes the datapath *work-conserving*: a
/// burst is dequeued and executed by whoever holds the lock — normally
/// the shard's worker thread, but also the dispatcher when it would
/// otherwise wait (ring-full backpressure, end-of-batch drain). The ring
/// stays single-producer (only the dispatcher pushes) and
/// single-consumer-at-a-time (the mutex serializes the consumer handle,
/// and its lock/unlock edges order the cursor state between alternating
/// drainers).
#[derive(Debug)]
struct ShardState {
    exec: Executor,
    ctx: BatchCtx,
    agg: BatchAgg,
    /// `process_batch` results awaiting scatter-back.
    out: Vec<(u32, Packet, ExecReport)>,
    /// Packet index within the current measurement batch (shard-local
    /// arrival pacing).
    local_idx: u64,
    /// Consumer side of the shard's SPSC ring.
    rx: ring::Consumer<WorkItem>,
    /// Generation this shard has adopted (0 = the construction-time
    /// program). Monotone; see [`ShardState::adopt_to`].
    gen: u64,
    /// Whether live reconfiguration is on (mirrors the dispatcher's
    /// flag; gates per-generation accounting off the non-live hot path).
    live: bool,
    /// Packets executed per generation since live reconfiguration was
    /// enabled — the "every packet attributable to exactly one
    /// generation" ledger.
    gen_packets: FxHashMap<u64, u64>,
    /// The shared publication chain (same `Arc` on every shard and the
    /// dispatcher).
    chain: Arc<GenChain>,
}

impl ShardState {
    /// Applies every generation in `(self.gen, target]`, in publication
    /// order, then records the new watermark. Patches older than the
    /// last full deploy in the span are superseded by it (the deploy
    /// carries the whole already-patched program), so adoption starts at
    /// that deploy. Forward-only: a fast-forwarded shard never re-applies
    /// or rolls back.
    fn adopt_to(&mut self, target: u64) {
        if target <= self.gen {
            return;
        }
        let span = self.chain.pending(self.gen, target);
        let start = span
            .iter()
            .rposition(|n| matches!(n.kind, GenKind::Deploy { .. }))
            .unwrap_or(0);
        for node in &span[start..] {
            match &node.kind {
                GenKind::Deploy { graph, compiled } => {
                    self.exec.adopt_graph(graph.clone(), compiled.clone());
                }
                // Control validated each patch on its replica before
                // publishing, and every shard holds the same program, so
                // shard-side application cannot fail.
                GenKind::Patch(PatchOp::Insert { node, entry }) => {
                    let _ = self.exec.insert_entry(*node, entry.clone());
                }
                GenKind::Patch(PatchOp::Remove { node, index }) => {
                    let _ = self.exec.remove_entry(*node, *index);
                }
                GenKind::Patch(PatchOp::Replace { node, table, next }) => {
                    let _ = self.exec.replace_table(*node, table.clone(), next.clone());
                }
            }
        }
        self.gen = target;
    }

    fn run_item(&mut self, item: &mut WorkItem) {
        if item.gen > self.gen {
            self.adopt_to(item.gen);
        }
        if self.live {
            *self.gen_packets.entry(self.gen).or_insert(0) += 1;
        }
        match self.ctx {
            BatchCtx::Forward => {
                let r = self.exec.process(&mut item.pkt);
                let pkt = std::mem::replace(&mut item.pkt, Packet::with_slots(Vec::new()));
                self.out.push((item.idx, pkt, r));
            }
            BatchCtx::Measure {
                batch_start_s,
                line_pps,
                cores,
                default_bytes,
            } => {
                self.exec.now_s = batch_start_s + self.local_idx as f64 / line_pps;
                self.local_idx += 1;
                let core = (item.pkt.flow_hash() % cores as u64) as usize;
                let bytes = if item.pkt.bytes > 0 {
                    item.pkt.bytes
                } else {
                    default_bytes
                };
                let r = self.exec.process(&mut item.pkt);
                let agg = &mut self.agg;
                if agg.core_busy_ns.len() < cores {
                    agg.core_busy_ns.resize(cores, 0.0);
                }
                agg.core_busy_ns[core] += r.latency_ns;
                agg.latencies.push(r.latency_ns);
                agg.totals.add(
                    r.latency_ns,
                    r.dropped,
                    r.migrations as u64,
                    r.counter_updates as u64,
                    (bytes * 8) as f64,
                );
            }
        }
    }
}

/// One shard: state behind a mutex plus the idle-detection counters.
#[derive(Debug)]
struct ShardCell {
    state: Mutex<ShardState>,
    /// Items fully processed by the worker (monotone total). The
    /// dispatcher compares it against its own enqueue count to detect
    /// batch drain.
    processed: AtomicU64,
    /// Mirror of the shard's adopted generation, published after each
    /// drained burst. Never ahead of `ShardState::gen`, so the chain
    /// prefix `≤ min(adopted)` is provably unreachable and safe to
    /// reclaim.
    adopted: AtomicU64,
    stop: AtomicBool,
}

/// Dispatcher-side scratch for the window-boundary merge, reused across
/// measurement batches so the merge path is allocation-free in steady
/// state (see `measure_end`).
#[derive(Debug, Default)]
struct MergeScratch {
    core_busy_ns: Vec<f64>,
    latencies: Vec<f64>,
}

/// An open streaming measurement window (between `measure_begin` and
/// `measure_end`). Pacing parameters are snapshotted at `begin` so every
/// fed chunk continues the same arrival schedule — a begin/feed*/end
/// window measures identically to one `measure` call over the
/// concatenated traffic.
#[derive(Debug)]
struct MeasureStream {
    batch_start_s: f64,
    line_pps: f64,
    cores: usize,
    offered_gbps: f64,
    /// Packets fed so far.
    n: u64,
}

/// The persistent run-loop worker machinery.
#[derive(Debug)]
struct RunLoopWorkers {
    producers: Vec<ring::Producer<WorkItem>>,
    /// Unpark handles, index-aligned with `producers`.
    threads: Vec<Thread>,
    joins: Vec<JoinHandle<()>>,
    /// Whether to wake workers mid-dispatch so they overlap with the
    /// arriving batch. Pure scheduler churn on a single-CPU host (the
    /// worker can only run by preempting the dispatcher, and the
    /// work-conserving dispatcher drains every ring itself anyway), so
    /// it is enabled only when real parallelism exists.
    wake_during_dispatch: bool,
}

/// Moves every staged item into the shard's ring, helping drain on
/// ring-full backpressure, and returns how many were moved. `stage` is
/// empty on return. (`STAGE_BURST` never exceeds ring capacity, and the
/// help drain empties the ring, so the loop always terminates.)
fn flush_stage(
    producer: &mut ring::Producer<WorkItem>,
    cell: &ShardCell,
    stage: &mut Vec<WorkItem>,
    help: &mut Vec<WorkItem>,
) -> u64 {
    let n = stage.len() as u64;
    let mut it = stage.drain(..);
    while it.len() > 0 {
        if producer.push_burst(&mut it) == 0 {
            drain_burst(cell, help);
        }
    }
    n
}

/// Dequeues and executes everything currently in `cell`'s ring, one
/// [`BURST`] at a time, under a single shard-lock hold, crediting
/// `processed`. Returns how many items ran (0 when the ring is empty).
/// Called by the shard's worker thread *and* by the dispatcher when it
/// helps out; `buf` is the caller's reusable burst buffer. Draining to empty per lock acquisition matters at high
/// worker counts: every acquisition switches the executing thread onto a
/// different shard's executor state, so fewer, larger drains keep that
/// state hot longer.
fn drain_burst(cell: &ShardCell, buf: &mut Vec<WorkItem>) -> usize {
    let mut st = cell.state.lock().expect("shard state poisoned");
    let mut total = 0usize;
    loop {
        let n = st.rx.pop_burst(buf, BURST);
        if n == 0 {
            break;
        }
        for i in 0..buf.len() {
            // A shard's burst is every w-th packet of the arrival
            // stream, so the slot storage walk is strided; tell the
            // cache about it a few packets ahead.
            if let Some(ahead) = buf.get(i + PREFETCH_AHEAD) {
                ahead.pkt.prefetch();
            }
            st.run_item(&mut buf[i]);
        }
        buf.clear();
        total += n;
    }
    if total > 0 {
        // ORDERING: Release — publishes the shard-state mutations of
        // this drain (made under the lock above) to the dispatcher's
        // Acquire load in `reclaim_adopted`: a chain node is only
        // reclaimed after the adoption that read it happens-before the
        // reclaim decision.
        cell.adopted.store(st.gen, Ordering::Release);
        // ORDERING: Release — pairs with the dispatcher's Acquire loads
        // in `wait_idle`/`in_flight`/`flush_stage`: when the dispatcher
        // observes `processed == enqueued`, every item's execution (and
        // its profile/stat writes under the shard lock) happens-before
        // whatever the dispatcher does next with the results.
        cell.processed.fetch_add(total as u64, Ordering::Release);
    }
    total
}

fn worker_loop(cell: Arc<ShardCell>) {
    let mut burst: Vec<WorkItem> = Vec::with_capacity(BURST);
    let mut spins: u32 = 0;
    loop {
        if drain_burst(&cell, &mut burst) == 0 {
            // ORDERING: Acquire — pairs with `Drop`'s Release store:
            // observing `stop` also shows every item enqueued before the
            // flag was raised (checked by the fresh drain above).
            if cell.stop.load(Ordering::Acquire) {
                // Fresh look at the ring *after* observing stop: items
                // enqueued before the flag must still drain. (The
                // drain_burst above re-read the cursors under the lock,
                // so an empty result here really means drained.)
                break;
            }
            spins += 1;
            if spins < SPIN_BUDGET {
                std::hint::spin_loop();
            } else {
                // Plain park is safe: every enqueue path unparks after
                // its Release store, and `unpark` tokens make that
                // wakeup stick even if we were not parked yet. The
                // `Drop` teardown also unparks after setting `stop`, and
                // the work-conserving dispatcher never depends on this
                // thread making progress.
                thread::park();
                spins = 0;
            }
            continue;
        }
        spins = 0;
    }
}

/// A software SmartNIC whose datapath is sharded over `N` parallel
/// run-loop workers by flow hash (RSS). See the module docs for its
/// determinism guarantees against the single-threaded
/// [`SmartNic`](crate::SmartNic).
#[derive(Debug)]
pub struct ShardedNic {
    shards: Vec<Arc<ShardCell>>,
    /// Control replica: receives every control-plane op but no packets,
    /// so `graph()` / `params()` can be served without locking a shard.
    control: Executor,
    run: RunLoopWorkers,
    /// Items ever enqueued per shard (dispatcher-side totals, compared
    /// against `ShardCell::processed` to detect drain).
    enqueued: Vec<u64>,
    config: NicConfig,
    merge_scratch: MergeScratch,
    /// The dispatcher's own burst buffer for helping drain shard rings
    /// (work-conserving dispatch; see [`drain_burst`]).
    help_scratch: Vec<WorkItem>,
    /// Per-shard tx-burst staging buffers (see [`STAGE_BURST`]); always
    /// empty between public calls.
    stage: Vec<Vec<WorkItem>>,
    /// Global simulation clock in seconds.
    now_s: f64,
    /// Clock value at the last `take_profile` (profile window start).
    last_take_s: f64,
    /// The generation publication chain (shared with every shard).
    chain: Arc<GenChain>,
    /// Whether live reconfiguration is enabled.
    live: bool,
    /// Cached `chain.latest()` — the dispatcher is the sole publisher,
    /// so its cache is always exact; work items are tagged with it.
    latest_gen: u64,
    /// The most recent live program swap (telemetry).
    last_swap: Option<LiveSwap>,
    /// Open streaming measurement window, if any.
    measuring: Option<MeasureStream>,
    /// Specialization planning thresholds (plans are built centrally on
    /// the dispatcher from merged cross-shard profile state).
    spec_cfg: SpecConfig,
    /// The last taken (merged) profile window, retained so a specialize
    /// step right after a window boundary still sees a full window.
    last_profile: RuntimeProfile,
    /// The last taken window's merged hot-key sketches (same retention).
    last_sketches: HashMap<NodeId, HotKeySketch>,
}

impl ShardedNic {
    /// Deploys `graph` on a NIC with `workers` parallel shards (clamped
    /// to at least 1), spawning one run-loop worker thread per shard.
    pub fn new(graph: ProgramGraph, params: CostParams, workers: usize) -> Result<Self, IrError> {
        let workers = workers.max(1);
        let chain = Arc::new(GenChain::new());
        let capacity = (RING_TOTAL_SLOTS / workers).clamp(RING_CAPACITY_MIN, RING_CAPACITY_MAX);
        let mut shards = Vec::with_capacity(workers);
        let mut producers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let mut exec = Executor::new(graph.clone(), params.clone())?;
            exec.set_sample_keying(SampleKeying::FlowKeyed);
            let (tx, rx) = ring::spsc::<WorkItem>(capacity);
            producers.push(tx);
            shards.push(Arc::new(ShardCell {
                state: Mutex::new(ShardState {
                    exec,
                    ctx: BatchCtx::Forward,
                    agg: BatchAgg::default(),
                    out: Vec::new(),
                    local_idx: 0,
                    rx,
                    gen: 0,
                    live: false,
                    gen_packets: FxHashMap::default(),
                    chain: Arc::clone(&chain),
                }),
                processed: AtomicU64::new(0),
                adopted: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            }));
        }
        let control = Executor::new(graph, params)?;
        let mut threads = Vec::with_capacity(workers);
        let mut joins = Vec::with_capacity(workers);
        for cell in &shards {
            let cell = Arc::clone(cell);
            let handle = thread::Builder::new()
                .name("pipeleon-shard".into())
                .spawn(move || worker_loop(cell))
                .expect("spawn shard worker");
            threads.push(handle.thread().clone());
            joins.push(handle);
        }
        Ok(Self {
            shards,
            control,
            run: RunLoopWorkers {
                producers,
                threads,
                joins,
                wake_during_dispatch: thread::available_parallelism().map_or(1, |n| n.get()) > 1,
            },
            enqueued: vec![0; workers],
            config: NicConfig::default(),
            merge_scratch: MergeScratch::default(),
            help_scratch: Vec::with_capacity(BURST),
            stage: (0..workers)
                .map(|_| Vec::with_capacity(STAGE_BURST))
                .collect(),
            now_s: 0.0,
            last_take_s: 0.0,
            chain,
            live: false,
            latest_gen: 0,
            last_swap: None,
            measuring: None,
            spec_cfg: SpecConfig::default(),
            last_profile: RuntimeProfile::empty(),
            last_sketches: HashMap::new(),
        })
    }

    /// Same as [`ShardedNic::new`]: [`ShardMode::RunLoop`] is the only
    /// mode, so `mode` is ignored. Kept because the `perfbench` harness
    /// calls it; remove it together with that call.
    pub fn with_mode(
        graph: ProgramGraph,
        params: CostParams,
        workers: usize,
        _mode: ShardMode,
    ) -> Result<Self, IrError> {
        Self::new(graph, params, workers)
    }

    /// Sets the measurement configuration.
    pub fn with_config(mut self, config: NicConfig) -> Self {
        self.config = config;
        self
    }

    /// Always [`ShardMode::RunLoop`], the only mode. Kept because the
    /// `perfbench` harness forwards [`NicBackend::shard_mode`]; remove
    /// it together with that trait method.
    pub fn shard_mode(&self) -> ShardMode {
        ShardMode::RunLoop
    }

    /// Blocks until every shard has processed everything enqueued for
    /// it — by *helping*: the dispatcher drains pending rings itself
    /// through the same [`drain_burst`] path the workers use, instead of
    /// waking them and waiting. On a single-CPU host the whole batch
    /// tail then runs with zero context switches; on multi-CPU hosts
    /// pending shards are unparked first so their workers race the
    /// dispatcher for bursts and the lock arbitrates. Termination is
    /// structural: a shard with `processed < enqueued` always has its
    /// remaining items either in the ring (the next `drain_burst` takes
    /// them) or mid-execution under the shard lock (the lock acquisition
    /// inside `drain_burst` waits them out).
    fn wait_idle(&mut self) {
        let run = &self.run;
        if run.wake_during_dispatch {
            for (i, cell) in self.shards.iter().enumerate() {
                // ORDERING: Acquire — pairs with the worker's Release
                // fetch_add in `drain_burst` (see there); an equal count
                // means all processing effects are visible here.
                if cell.processed.load(Ordering::Acquire) != self.enqueued[i] {
                    run.threads[i].unpark();
                }
            }
        }
        loop {
            let mut all_drained = true;
            for (i, cell) in self.shards.iter().enumerate() {
                // ORDERING: Acquire — same edge as above; the batch is
                // only declared drained once every worker's Release
                // publication has been observed.
                if cell.processed.load(Ordering::Acquire) != self.enqueued[i] {
                    all_drained = false;
                    drain_burst(cell, &mut self.help_scratch);
                }
            }
            if all_drained {
                break;
            }
        }
        if self.live {
            // Quiescence: every ring is drained, so fast-forwarding a
            // shard cannot skip a generation an in-flight packet still
            // needs — there are none. This is the RCU grace-period end:
            // all shards reach `latest_gen`, the whole chain prefix
            // becomes unreachable, and reclaiming it bounds memory under
            // swap storms. It also zeroes executor deltas (cache stats
            // reset at adoption) identically on every shard, keeping
            // window merges worker-count-invariant even when some shards
            // saw no post-swap packets.
            let latest = self.latest_gen;
            debug_assert_eq!(
                latest,
                self.chain.latest(),
                "dispatcher is the sole publisher, so its cache is exact"
            );
            for cell in &self.shards {
                let mut st = cell.state.lock().expect("shard state poisoned");
                st.adopt_to(latest);
                // ORDERING: Release — same edge as the `drain_burst`
                // publication: the adoption work under the lock
                // happens-before any reclaim that observes this value.
                cell.adopted.store(st.gen, Ordering::Release);
            }
            self.chain.reclaim(latest);
        }
    }

    /// Packets enqueued to shard rings but not yet processed.
    fn in_flight(&self) -> u64 {
        self.shards
            .iter()
            .enumerate()
            // ORDERING: Acquire — pairs with `drain_burst`'s Release
            // fetch_add; monotone, so a stale read only overstates the
            // in-flight count (never invents completion).
            .map(|(i, c)| self.enqueued[i] - c.processed.load(Ordering::Acquire))
            .sum()
    }

    /// Drops every chain node all shards have provably adopted (called
    /// opportunistically at publish time; `wait_idle` reclaims the rest).
    fn reclaim_adopted(&self) {
        let min = self
            .shards
            .iter()
            // ORDERING: Acquire — pairs with the Release stores of
            // `adopted` in `drain_burst`/`wait_idle`/`process_one`: a
            // node is dropped only after every shard's walk past it is
            // visible, so no shard can still read a reclaimed node
            // (verified by the GenChain reclaim model).
            .map(|c| c.adopted.load(Ordering::Acquire))
            .min()
            .unwrap_or(0);
        self.chain.reclaim(min);
    }

    /// Number of worker shards.
    pub fn num_workers(&self) -> usize {
        self.shards.len()
    }

    /// The deployed program (identical on every shard).
    pub fn graph(&self) -> &ProgramGraph {
        self.control.graph()
    }

    /// Every shard's deployed program, in shard order (cloned out of the
    /// shard mutexes). Control-plane fan-out keeps these identical;
    /// tests assert it.
    pub fn shard_graphs(&self) -> Vec<ProgramGraph> {
        self.shards
            .iter()
            .map(|c| {
                c.state
                    .lock()
                    .expect("shard state poisoned")
                    .exec
                    .graph()
                    .clone()
            })
            .collect()
    }

    /// The target parameters.
    pub fn params(&self) -> &CostParams {
        self.control.params()
    }

    /// Current simulation time in seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Enables or disables live reconfiguration (see the module docs).
    /// Drains in-flight work first so the mode flip itself is never
    /// concurrent with packets dispatched under the old regime.
    pub fn set_live_reconfig(&mut self, on: bool) {
        if self.live == on {
            return;
        }
        self.wait_idle();
        self.live = on;
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.live = on;
        }
    }

    /// Whether live reconfiguration is enabled.
    pub fn live_reconfig(&self) -> bool {
        self.live
    }

    /// The most recent live program swap, if any.
    pub fn last_swap(&self) -> Option<LiveSwap> {
        self.last_swap
    }

    /// Packets executed per generation since live reconfiguration was
    /// enabled, merged across shards. Each packet is counted under
    /// exactly one generation — the one it was dispatched with — so the
    /// counts sum to the packets processed and are identical for any
    /// worker count.
    pub fn generation_counts(&self) -> BTreeMap<u64, u64> {
        let mut merged = BTreeMap::new();
        for cell in &self.shards {
            let st = cell.state.lock().expect("shard state poisoned");
            for (&g, &c) in &st.gen_packets {
                *merged.entry(g).or_insert(0) += c;
            }
        }
        merged
    }

    /// Live-reconfigures every shard with a new program layout. With
    /// live reconfiguration on this *publishes* a new
    /// generation concurrent with packet flow — no shard lock is taken,
    /// in-flight packets complete under the old program — and records
    /// the swap ([`ShardedNic::last_swap`]). Otherwise it fans out to
    /// every shard synchronously.
    pub fn deploy(&mut self, graph: ProgramGraph) -> Result<(), IrError> {
        if self.live {
            let t0 = Instant::now();
            self.control.deploy(graph.clone())?;
            // Build the compiled pipeline once, centrally: adopters
            // clone it instead of each lowering the program mid-burst.
            let compiled = self.control.compiled_clone();
            let id = self.chain.publish(GenKind::Deploy { graph, compiled });
            self.latest_gen = id;
            self.last_swap = Some(LiveSwap {
                generation: id,
                in_flight: self.in_flight(),
                latency_ns: t0.elapsed().as_nanos() as f64,
            });
            self.reclaim_adopted();
            return Ok(());
        }
        let mut out = self.control.deploy(graph.clone());
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            if let Err(e) = st.exec.deploy(graph.clone()) {
                out = Err(e);
            }
        }
        out
    }

    /// Inserts a table entry on every shard (control-plane API). All
    /// shards hold identical graphs, so the operation either succeeds or
    /// fails identically everywhere; the last shard's result is returned.
    /// With live reconfiguration on, a validated insert publishes as a
    /// delta generation instead of pausing the datapath.
    pub fn insert_entry(&mut self, node: NodeId, entry: TableEntry) -> Result<(), IrError> {
        if self.live {
            self.control.insert_entry(node, entry.clone())?;
            self.latest_gen = self
                .chain
                .publish(GenKind::Patch(PatchOp::Insert { node, entry }));
            self.reclaim_adopted();
            return Ok(());
        }
        let mut out = self.control.insert_entry(node, entry.clone());
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            if let Err(e) = st.exec.insert_entry(node, entry.clone()) {
                out = Err(e);
            }
        }
        out
    }

    /// Removes a table entry by index on every shard (control-plane API).
    /// Publishes as a delta generation under live reconfiguration.
    pub fn remove_entry(&mut self, node: NodeId, index: usize) -> Result<TableEntry, IrError> {
        if self.live {
            let removed = self.control.remove_entry(node, index)?;
            self.latest_gen = self
                .chain
                .publish(GenKind::Patch(PatchOp::Remove { node, index }));
            self.reclaim_adopted();
            return Ok(removed);
        }
        let mut out = self.control.remove_entry(node, index);
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            out = st.exec.remove_entry(node, index);
        }
        out
    }

    /// Replaces a table definition in place on every shard. Publishes as
    /// a delta generation under live reconfiguration.
    pub fn replace_table(
        &mut self,
        node: NodeId,
        table: Table,
        next: Option<NextHops>,
    ) -> Result<(), IrError> {
        if self.live {
            self.control
                .replace_table(node, table.clone(), next.clone())?;
            self.latest_gen =
                self.chain
                    .publish(GenKind::Patch(PatchOp::Replace { node, table, next }));
            self.reclaim_adopted();
            return Ok(());
        }
        let mut out = self
            .control
            .replace_table(node, table.clone(), next.clone());
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            if let Err(e) = st.exec.replace_table(node, table.clone(), next.clone()) {
                out = Err(e);
            }
        }
        out
    }

    /// Flushes one flow cache on every shard.
    pub fn flush_cache(&mut self, node: NodeId) {
        self.control.flush_cache(node);
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.exec.flush_cache(node);
        }
    }

    /// Total live entries in a flow cache's runtime state across shards.
    pub fn cache_len(&self, node: NodeId) -> usize {
        self.shards
            .iter()
            .map(|c| {
                c.state
                    .lock()
                    .expect("shard state poisoned")
                    .exec
                    .cache_len(node)
            })
            .sum()
    }

    /// Sets a flow cache's insertion rate limit on every shard (each
    /// shard gets the full budget — see the module docs caveat).
    pub fn set_cache_insertion_limit(&mut self, node: NodeId, rate_per_s: f64) {
        self.control.set_cache_insertion_limit(node, rate_per_s);
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.exec.set_cache_insertion_limit(node, rate_per_s);
        }
    }

    /// Enables counter instrumentation with `sample_every` packet
    /// sampling on every shard.
    pub fn set_instrumentation(&mut self, enabled: bool, sample_every: u64) {
        self.control.set_instrumentation(enabled, sample_every);
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.exec.set_instrumentation(enabled, sample_every);
        }
    }

    /// Sets node placements on every shard.
    pub fn set_placement(&mut self, placement: Vec<Placement>) {
        self.control.set_placement(placement.clone());
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.exec.set_placement(placement.clone());
        }
    }

    /// Assigns tables to memory tiers on every shard.
    pub fn set_memory_tiers(&mut self, tiers: Vec<MemoryTier>) {
        self.control.set_memory_tiers(tiers.clone());
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.exec.set_memory_tiers(tiers.clone());
        }
    }

    /// Selects the packet-execution engine on every shard.
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        self.control.set_engine_mode(mode);
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.exec.set_engine_mode(mode);
        }
    }

    /// The currently selected packet-execution engine (identical on every
    /// shard; control-plane fan-out keeps them in sync).
    pub fn engine_mode(&self) -> EngineMode {
        self.control.engine_mode()
    }

    /// Processes a batch of packets in place (no arrival pacing),
    /// returning one report per packet in input order. Packets stream
    /// through the worker rings and results are scattered back by input
    /// position.
    pub fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        assert!(
            u32::try_from(packets.len()).is_ok(),
            "process_batch is limited to u32::MAX packets"
        );
        let nw = self.shards.len();
        let gen = self.latest_gen;
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.ctx = BatchCtx::Forward;
            st.exec.now_s = self.now_s;
            st.out.clear();
        }
        self.dispatch(packets.iter_mut().enumerate().map(|(i, slot)| {
            let pkt = std::mem::replace(slot, Packet::with_slots(Vec::new()));
            let shard = (pkt.flow_hash() % nw as u64) as usize;
            (
                shard,
                WorkItem {
                    idx: i as u32,
                    gen,
                    pkt,
                },
            )
        }));
        self.wait_idle();
        let mut reports: Vec<Option<ExecReport>> = vec![None; packets.len()];
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            for (idx, pkt, r) in st.out.drain(..) {
                packets[idx as usize] = pkt;
                reports[idx as usize] = Some(r);
            }
        }
        reports
            .into_iter()
            .map(|r| r.expect("every dispatched packet reports back"))
            .collect()
    }

    /// Streams `(shard, item)` pairs onto the worker rings via the
    /// per-shard tx-burst stage: items collect in a tiny hot buffer and
    /// enter the ring [`STAGE_BURST`] at a time as one sequential slot
    /// run. On ring-full backpressure the dispatcher *helps*: it drains
    /// the full ring itself through the same locked path the workers use
    /// rather than yielding the CPU and hoping a worker runs —
    /// work-conserving on a single-CPU host. When real parallelism
    /// exists, a shard is additionally unparked at every flush so its
    /// worker overlaps with the arriving batch.
    fn dispatch(&mut self, items: impl Iterator<Item = (usize, WorkItem)>) {
        let run = &mut self.run;
        let shards = &self.shards;
        let help = &mut self.help_scratch;
        let enqueued = &mut self.enqueued;
        let stage = &mut self.stage;
        let nw = enqueued.len();
        for (shard, item) in items {
            stage[shard].push(item);
            if stage[shard].len() >= STAGE_BURST {
                enqueued[shard] += flush_stage(
                    &mut run.producers[shard],
                    &shards[shard],
                    &mut stage[shard],
                    help,
                );
                if run.wake_during_dispatch {
                    run.threads[shard].unpark();
                }
            }
        }
        for shard in 0..nw {
            if !stage[shard].is_empty() {
                enqueued[shard] += flush_stage(
                    &mut run.producers[shard],
                    &shards[shard],
                    &mut stage[shard],
                    help,
                );
            }
            // ORDERING: Acquire — pairs with `drain_burst`'s Release
            // fetch_add; a lagging count means the worker may be parked
            // with work pending, so kick it.
            if run.wake_during_dispatch
                && shards[shard].processed.load(Ordering::Acquire) != enqueued[shard]
            {
                run.threads[shard].unpark();
            }
        }
    }

    /// Processes one packet on the shard its flow hashes to (no arrival
    /// pacing), on the caller's thread. Sampling is flow-keyed, so
    /// reports match a flow-keyed single-threaded
    /// [`SmartNic`](crate::SmartNic) packet-for-packet.
    pub fn process_one(&mut self, packet: &mut Packet) -> ExecReport {
        let shard = (packet.flow_hash() % self.shards.len() as u64) as usize;
        let cell = &self.shards[shard];
        let mut st = cell.state.lock().expect("shard state poisoned");
        if self.live {
            if self.latest_gen > st.gen {
                st.adopt_to(self.latest_gen);
                // ORDERING: Release — same edge as the `drain_burst`
                // publication of `adopted` (see there).
                cell.adopted.store(st.gen, Ordering::Release);
            }
            let g = st.gen;
            *st.gen_packets.entry(g).or_insert(0) += 1;
        }
        st.exec.now_s = self.now_s;
        st.exec.process(packet)
    }

    /// Takes the merged profile collected across all shards since the
    /// last call — the window-boundary merge: counters fold via
    /// [`RuntimeProfile::merge`], the window is the global clock delta,
    /// and distinct-key counts come from exact cross-shard unions of the
    /// raw key sets.
    pub fn take_profile(&mut self) -> RuntimeProfile {
        let mut merged = RuntimeProfile::empty();
        let mut union: HashMap<NodeId, fxhash::FxHashSet<crate::SmallKey>> = HashMap::new();
        let mut sketches: HashMap<NodeId, HotKeySketch> = HashMap::new();
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            let (p, distinct) = st.exec.take_profile_split();
            merged.merge(&p);
            for (node, set) in distinct {
                union.entry(node).or_default().extend(set);
            }
            for (node, sk) in st.exec.take_hot_sketches() {
                sketches
                    .entry(node)
                    .and_modify(|e| e.merge(&sk))
                    .or_insert(sk);
            }
        }
        for (node, set) in union {
            merged.set_distinct_keys(node, set.len() as u64);
        }
        merged.window_s = (self.now_s - self.last_take_s).max(1e-9);
        self.last_take_s = self.now_s;
        self.last_profile = merged.clone();
        self.last_sketches = sketches;
        merged
    }

    /// Takes the merged latency observations across all shards since the
    /// last call — the window-boundary merge. Histogram merging is
    /// bit-exact (integer bucket sums) and the flow-keyed sampled-packet
    /// *set* is partition-invariant, so the merged histograms are
    /// identical for any worker count.
    pub fn take_observations(&mut self) -> ExecObservations {
        let mut merged = ExecObservations::new();
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            merged.merge(&st.exec.take_observations());
        }
        merged
    }

    /// Sets the specialization planning thresholds.
    pub fn set_spec_config(&mut self, cfg: SpecConfig) {
        self.spec_cfg = cfg;
    }

    /// The merged cross-shard specialization planning inputs: the
    /// retained last profile window folded with whatever every shard has
    /// accumulated since, and the hot-key sketches likewise.
    fn spec_inputs(&self) -> (RuntimeProfile, HashMap<NodeId, HotKeySketch>) {
        let mut profile = self.last_profile.clone();
        let mut sketches = self.last_sketches.clone();
        for cell in &self.shards {
            let st = cell.state.lock().expect("shard state poisoned");
            profile.merge(st.exec.sampled_profile());
            st.exec.peek_hot_sketches_into(&mut sketches);
        }
        (profile, sketches)
    }

    /// Builds one specialization plan from the merged cross-shard
    /// profile state and applies it to the compiled datapath everywhere.
    /// Returns `true` if the pipeline changed.
    ///
    /// With live reconfiguration on the specialized
    /// pipeline is compiled once on the control replica and *published*
    /// as a deploy generation on the epoch/RCU chain — shards adopt it
    /// concurrent with packet flow, in-flight packets complete under the
    /// verbatim lowering, and the swap is reported via
    /// [`ShardedNic::last_swap`] exactly like a live program deploy
    /// (including deploy semantics for shard-local cache runtime state).
    /// Otherwise the plan fans out to every shard under its lock, which
    /// swaps only the compiled pipeline (burst-granularity, bit-exact,
    /// cache state untouched) — the same effect as
    /// [`SmartNic::specialize`](crate::SmartNic::specialize) per shard.
    pub fn specialize(&mut self) -> bool {
        let (profile, sketches) = self.spec_inputs();
        let plan =
            specialize::build_plan(self.control.graph(), &profile, &sketches, &self.spec_cfg);
        if self.live {
            let t0 = Instant::now();
            if self.control.specialize_with(&plan).is_none() {
                return false;
            }
            let graph = self.control.graph().clone();
            let compiled = self.control.compiled_clone();
            let id = self.chain.publish(GenKind::Deploy { graph, compiled });
            self.latest_gen = id;
            self.last_swap = Some(LiveSwap {
                generation: id,
                in_flight: self.in_flight(),
                latency_ns: t0.elapsed().as_nanos() as f64,
            });
            self.reclaim_adopted();
            return true;
        }
        let applied = self.control.specialize_with(&plan).is_some();
        if applied {
            for cell in &self.shards {
                let mut st = cell.state.lock().expect("shard state poisoned");
                st.exec.specialize_with(&plan);
            }
        }
        applied
    }

    /// Reverts the compiled datapath to the verbatim lowering on every
    /// shard. Returns `true` if it was specialized. Under live
    /// reconfiguration this too publishes as a deploy generation.
    pub fn despecialize(&mut self) -> bool {
        if self.live {
            let t0 = Instant::now();
            if self.control.despecialize().is_none() {
                return false;
            }
            let graph = self.control.graph().clone();
            let compiled = self.control.compiled_clone();
            let id = self.chain.publish(GenKind::Deploy { graph, compiled });
            self.latest_gen = id;
            self.last_swap = Some(LiveSwap {
                generation: id,
                in_flight: self.in_flight(),
                latency_ns: t0.elapsed().as_nanos() as f64,
            });
            self.reclaim_adopted();
            return true;
        }
        let reverted = self.control.despecialize().is_some();
        if reverted {
            for cell in &self.shards {
                let mut st = cell.state.lock().expect("shard state poisoned");
                st.exec.despecialize();
            }
        }
        reverted
    }

    /// Current specialization counters: plan/epoch state from the
    /// control replica (shards apply the same plans, or adopt them
    /// silently through the generation chain), guard hit/miss telemetry
    /// summed across the shards that actually execute packets.
    pub fn spec_stats(&self) -> SpecStats {
        let mut stats = self.control.spec_stats();
        for cell in &self.shards {
            let st = cell.state.lock().expect("shard state poisoned");
            let s = st.exec.spec_stats();
            stats.guard_hits += s.guard_hits;
            stats.guard_misses += s.guard_misses;
        }
        stats
    }

    /// Runs a batch offered at line rate through the sharded datapath
    /// and reports achieved throughput and latency statistics. Advances
    /// the simulation clock by the batch's arrival time. Against
    /// [`SmartNic::measure`](crate::SmartNic::measure) the results
    /// preserve every integer statistic and the p99 exactly and the
    /// float aggregates up to summation order (module docs).
    pub fn measure<I>(&mut self, packets: I) -> BatchStats
    where
        I: IntoIterator<Item = Packet>,
    {
        self.measure_begin();
        self.measure_feed(packets);
        self.measure_end()
    }

    /// Opens a streaming measurement window: snapshots the pacing
    /// parameters and resets per-shard aggregates. Chunks fed with
    /// [`ShardedNic::measure_feed`] continue one arrival schedule;
    /// [`ShardedNic::measure_end`] drains and returns the merged stats.
    pub fn measure_begin(&mut self) {
        debug_assert!(self.measuring.is_none(), "measurement window already open");
        let cores = self.params().num_cores.max(1);
        let line_pps = self.params().line_rate_pps(self.config.packet_bytes);
        let offered_gbps = self.params().line_rate_gbps;
        let default_bytes = self.config.packet_bytes;
        let batch_start_s = self.now_s;
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            st.ctx = BatchCtx::Measure {
                batch_start_s,
                line_pps,
                cores,
                default_bytes,
            };
            st.local_idx = 0;
            st.agg.reset();
        }
        self.measuring = Some(MeasureStream {
            batch_start_s,
            line_pps,
            cores,
            offered_gbps,
            n: 0,
        });
    }

    /// Feeds one chunk into the open measurement window. This only
    /// *dispatches* — it does not wait for the chunk to drain, so
    /// control-plane generations published between feeds land genuinely
    /// mid-flight.
    pub fn measure_feed<I>(&mut self, packets: I)
    where
        I: IntoIterator<Item = Packet>,
    {
        let nw = self.shards.len();
        let gen = self.latest_gen;
        let mut n = 0u64;
        self.dispatch(packets.into_iter().map(|pkt| {
            n += 1;
            let shard = (pkt.flow_hash() % nw as u64) as usize;
            (shard, WorkItem { idx: 0, gen, pkt })
        }));
        self.measuring.as_mut().expect("measure_begin first").n += n;
    }

    /// Closes the measurement window: waits for every fed packet to
    /// drain (quiescing the generation chain in live mode) and returns
    /// the merged statistics for the whole window.
    pub fn measure_end(&mut self) -> BatchStats {
        self.wait_idle();
        let stream = self.measuring.take().expect("measure_begin first");
        let MeasureStream {
            batch_start_s,
            line_pps,
            cores,
            offered_gbps,
            n,
        } = stream;

        if n > 0 {
            self.now_s = batch_start_s + n as f64 / line_pps;
        }
        // Deterministic window-boundary merge, in shard order, into the
        // persistent scratch (allocation-free in steady state: a fresh
        // multi-hundred-KB allocation here pays for consolidating the
        // small-chunk debris the workers' packet processing left in the
        // allocator, which grows with worker count and would be charged
        // straight to the batch's wall clock).
        let scratch = &mut self.merge_scratch;
        scratch.core_busy_ns.clear();
        scratch.core_busy_ns.resize(cores, 0.0);
        scratch.latencies.clear();
        scratch.latencies.reserve(n as usize);
        let mut totals = BatchTotals::default();
        for cell in &self.shards {
            let mut st = cell.state.lock().expect("shard state poisoned");
            // Align every shard clock to the batch end so subsequent
            // direct access observes a consistent global time.
            st.exec.now_s = self.now_s;
            st.ctx = BatchCtx::Forward;
            let agg = &mut st.agg;
            for (i, v) in agg.core_busy_ns.iter().enumerate() {
                scratch.core_busy_ns[i] += v;
            }
            scratch.latencies.extend_from_slice(&agg.latencies);
            totals.merge(&agg.totals);
            agg.reset();
        }
        // The sorted latency multiset is partition-invariant, so the p99
        // is exact.
        totals.reduce(
            &scratch.core_busy_ns,
            &mut scratch.latencies,
            line_pps,
            offered_gbps,
        )
    }
}

impl Drop for ShardedNic {
    fn drop(&mut self) {
        for cell in &self.shards {
            // ORDERING: Release — everything enqueued before teardown
            // happens-before the flag: a worker that observes `stop`
            // (Acquire) and then finds its ring empty has provably
            // processed all of it.
            cell.stop.store(true, Ordering::Release);
        }
        for t in &self.run.threads {
            t.unpark();
        }
        for j in self.run.joins.drain(..) {
            j.join().expect("shard worker panicked");
        }
    }
}

impl NicBackend for ShardedNic {
    fn graph(&self) -> &ProgramGraph {
        ShardedNic::graph(self)
    }

    fn params(&self) -> &CostParams {
        ShardedNic::params(self)
    }

    fn deploy(&mut self, graph: ProgramGraph) -> Result<(), IrError> {
        ShardedNic::deploy(self, graph)
    }

    fn take_profile(&mut self) -> RuntimeProfile {
        ShardedNic::take_profile(self)
    }

    fn take_observations(&mut self) -> ExecObservations {
        ShardedNic::take_observations(self)
    }

    fn insert_entry(&mut self, node: NodeId, entry: TableEntry) -> Result<(), IrError> {
        ShardedNic::insert_entry(self, node, entry)
    }

    fn remove_entry(&mut self, node: NodeId, index: usize) -> Result<TableEntry, IrError> {
        ShardedNic::remove_entry(self, node, index)
    }

    fn replace_table(
        &mut self,
        node: NodeId,
        table: Table,
        next: Option<NextHops>,
    ) -> Result<(), IrError> {
        ShardedNic::replace_table(self, node, table, next)
    }

    fn flush_cache(&mut self, node: NodeId) {
        ShardedNic::flush_cache(self, node)
    }

    fn set_cache_insertion_limit(&mut self, node: NodeId, rate_per_s: f64) {
        ShardedNic::set_cache_insertion_limit(self, node, rate_per_s)
    }

    fn set_instrumentation(&mut self, enabled: bool, sample_every: u64) {
        ShardedNic::set_instrumentation(self, enabled, sample_every)
    }

    fn set_engine_mode(&mut self, mode: EngineMode) {
        ShardedNic::set_engine_mode(self, mode)
    }

    fn engine_mode(&self) -> EngineMode {
        ShardedNic::engine_mode(self)
    }

    fn shard_mode(&self) -> ShardMode {
        ShardedNic::shard_mode(self)
    }

    fn process_one(&mut self, packet: &mut Packet) -> ExecReport {
        ShardedNic::process_one(self, packet)
    }

    fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        ShardedNic::process_batch(self, packets)
    }

    fn measure_batch(&mut self, packets: Vec<Packet>) -> BatchStats {
        self.measure(packets)
    }

    fn now_s(&self) -> f64 {
        ShardedNic::now_s(self)
    }

    fn set_live_reconfig(&mut self, on: bool) {
        ShardedNic::set_live_reconfig(self, on)
    }

    fn live_reconfig(&self) -> bool {
        ShardedNic::live_reconfig(self)
    }

    fn last_swap(&self) -> Option<LiveSwap> {
        ShardedNic::last_swap(self)
    }

    fn measure_begin(&mut self) {
        ShardedNic::measure_begin(self)
    }

    fn measure_feed(&mut self, packets: Vec<Packet>) {
        ShardedNic::measure_feed(self, packets)
    }

    fn measure_end(&mut self) -> BatchStats {
        ShardedNic::measure_end(self)
    }

    fn set_spec_config(&mut self, cfg: SpecConfig) {
        ShardedNic::set_spec_config(self, cfg)
    }

    fn specialize(&mut self) -> bool {
        ShardedNic::specialize(self)
    }

    fn despecialize(&mut self) -> bool {
        ShardedNic::despecialize(self)
    }

    fn spec_stats(&self) -> SpecStats {
        ShardedNic::spec_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmartNic;
    use pipeleon_ir::{MatchKind, Primitive, ProgramBuilder};

    fn linear_program(tables: usize) -> ProgramGraph {
        let mut b = ProgramBuilder::new();
        let f = b.field("x");
        let mut first = None;
        for i in 0..tables {
            let t = b
                .table(format!("t{i}"))
                .key(f, MatchKind::Exact)
                .action("a", vec![Primitive::Nop])
                .finish();
            first.get_or_insert(t);
        }
        b.seal(first.unwrap()).unwrap()
    }

    fn packets(n: usize) -> Vec<Packet> {
        (0..n).map(|i| Packet::with_slots(vec![i as u64])).collect()
    }

    #[test]
    fn runloop_matches_smartnic_integer_stats_and_decisions() {
        let g = linear_program(8);
        let params = CostParams::bluefield2();
        let mut oracle = SmartNic::new(g.clone(), params.clone()).unwrap();
        let mut runloop = ShardedNic::new(g, params, 4).unwrap();
        assert_eq!(runloop.shard_mode(), ShardMode::RunLoop);
        let a = oracle.measure(packets(4000));
        let b = runloop.measure(packets(4000));
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.counter_updates, b.counter_updates);
        assert_eq!(a.p99_latency_ns.to_bits(), b.p99_latency_ns.to_bits());
        assert!((a.mean_latency_ns - b.mean_latency_ns).abs() < 1e-6);
        assert!((a.throughput_gbps - b.throughput_gbps).abs() < 1e-6);
        assert_eq!(oracle.now_s(), runloop.now_s());
    }

    #[test]
    fn runloop_sampled_profiles_are_worker_count_invariant() {
        // The satellite-3 regression: per-shard sequence stamping must
        // not skew sampling. Flow-keyed sampling makes the sampled
        // *set* identical for every worker count, so window-merged
        // profiles and histograms are bit-identical across 1/2/8
        // workers even at sample_every > 1.
        let g = linear_program(6);
        let params = CostParams::bluefield2();
        let batch = packets(6000);
        let mut reference: Option<(RuntimeProfile, ExecObservations)> = None;
        for workers in [1usize, 2, 8] {
            let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
            nic.set_instrumentation(true, 8);
            nic.measure(batch.clone());
            let got = (nic.take_profile(), nic.take_observations());
            assert!(got.0.total_packets > 0, "sampling must pick packets");
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(want.0, got.0, "profile changed at workers={workers}");
                    assert_eq!(want.1, got.1, "histograms changed at workers={workers}");
                }
            }
        }
    }

    #[test]
    fn runloop_process_batch_preserves_input_order() {
        let g = linear_program(4);
        let params = CostParams::bluefield2();
        let mut single = SmartNic::new(g.clone(), params.clone()).unwrap();
        let mut sharded = ShardedNic::new(g, params, 4).unwrap();
        let mut a = packets(1000);
        let mut b = a.clone();
        let ra = single.process_batch(&mut a);
        let rb = sharded.process_batch(&mut b);
        assert_eq!(ra, rb, "uninstrumented reports match packet-for-packet");
        assert_eq!(a, b, "packet mutations match in input order");
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let nic = ShardedNic::new(linear_program(2), CostParams::bluefield2(), 0).unwrap();
        assert_eq!(nic.num_workers(), 1);
    }

    #[test]
    fn empty_batch_is_harmless() {
        let mut nic = ShardedNic::new(linear_program(2), CostParams::bluefield2(), 4).unwrap();
        let s = nic.measure(Vec::new());
        assert_eq!(s.packets, 0);
        assert_eq!(s.throughput_gbps, 0.0);
        assert_eq!(nic.now_s(), 0.0);
    }

    #[test]
    fn clock_advances_with_batches() {
        let mut nic = ShardedNic::new(linear_program(2), CostParams::bluefield2(), 3).unwrap();
        nic.measure(packets(1000));
        let t1 = nic.now_s();
        assert!(t1 > 0.0);
        nic.measure(packets(1000));
        assert!(nic.now_s() > t1);
    }
}
