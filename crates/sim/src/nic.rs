//! The multicore SmartNIC model: RSS dispatch, line-rate arrival, and
//! throughput/latency measurement.
//!
//! Packets are dispatched to `num_cores` run-to-completion cores by flow
//! hash (RSS). A batch of `n` packets arrives paced at line rate; the
//! achieved throughput is `total_bits / max(arrival_time, busiest core's
//! busy time)`, capping at line rate exactly when the cores keep up — the
//! same observable the paper's TRex measurements produce.

use crate::backend::LiveSwap;
use crate::exec::{EngineMode, ExecReport, Executor, PacketTrace, SampleKeying};
use crate::packet::Packet;
use crate::specialize::{self, HotKeySketch, SpecConfig, SpecStats};
use pipeleon_cost::{CostParams, Placement, RuntimeProfile};
use pipeleon_ir::{IrError, NodeId, ProgramGraph, TableEntry};
use std::collections::HashMap;
use std::time::Instant;

/// How the sharded datapath ([`ShardedNic`](crate::ShardedNic))
/// coordinates its workers. [`ShardMode::RunLoop`] is the only mode; the
/// type stays because the `perfbench` harness names it (through
/// [`ShardedNic::with_mode`](crate::ShardedNic::with_mode) and
/// [`NicBackend::shard_mode`](crate::NicBackend::shard_mode)). Remove it
/// together with those uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// Persistent per-worker run loops fed by SPSC rings: no global
    /// arrival stamping, no cross-shard sort, merge deferred to window
    /// boundaries. Forwarding decisions, per-flow order, and every
    /// integer statistic match the single-threaded [`SmartNic`]
    /// exactly; float aggregates may differ in the last bits because
    /// summation order is per-shard. See the `sharded` module docs for
    /// the full invariant set.
    #[default]
    RunLoop,
}

impl ShardMode {
    /// Parses a CLI `--shard-mode` value.
    pub fn parse(s: &str) -> Option<ShardMode> {
        match s {
            "run-loop" | "runloop" => Some(ShardMode::RunLoop),
            _ => None,
        }
    }
}

/// Measurement configuration.
#[derive(Debug, Clone, Copy)]
pub struct NicConfig {
    /// Wire size used for throughput conversion when a packet does not
    /// carry its own (§5.1: 512 B everywhere).
    pub packet_bytes: usize,
    /// Internal chunk granularity for batch-oriented execution
    /// ([`SmartNic::process_batch`] and the CLI `--batch` flag). Purely a
    /// processing granularity: results are bit-identical for any value.
    pub batch: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        Self {
            packet_bytes: Packet::DEFAULT_BYTES,
            batch: 32,
        }
    }
}

/// Aggregate statistics over one measured batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Packets processed.
    pub packets: u64,
    /// Packets dropped by the program.
    pub dropped: u64,
    /// Mean per-packet latency (ns).
    pub mean_latency_ns: f64,
    /// 99th-percentile latency (ns).
    pub p99_latency_ns: f64,
    /// Achieved throughput (Gbit/s), capped at line rate.
    pub throughput_gbps: f64,
    /// Offered load (Gbit/s) — the line rate.
    pub offered_gbps: f64,
    /// Total ASIC↔CPU migrations.
    pub migrations: u64,
    /// Total counter updates performed.
    pub counter_updates: u64,
}

/// What one packet contributed to a measured batch. [`SmartNic::measure`]
/// reduces these through [`BatchStats::from_records`]; the sharded
/// datapath applies the same reduction to shard-local aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// RSS core the packet was dispatched to (must be `< num_cores`).
    pub core: usize,
    /// Accounted latency (ns).
    pub latency_ns: f64,
    /// Whether the program dropped the packet.
    pub dropped: bool,
    /// ASIC↔CPU migrations performed.
    pub migrations: u64,
    /// Counter updates performed (after sampling).
    pub counter_updates: u64,
    /// Wire size in bits, for throughput conversion.
    pub bits: f64,
}

impl BatchStats {
    /// Reduces per-packet records into batch statistics. `records` must be
    /// in arrival order: float accumulation order (core busy-time, total
    /// bits, mean) is fixed by it, which makes the result
    /// bit-reproducible.
    pub fn from_records(
        records: &[PacketRecord],
        num_cores: usize,
        line_pps: f64,
        offered_gbps: f64,
    ) -> BatchStats {
        let mut core_busy_ns = vec![0.0f64; num_cores.max(1)];
        let mut latencies: Vec<f64> = Vec::with_capacity(records.len());
        let mut totals = BatchTotals::default();
        for r in records {
            core_busy_ns[r.core] += r.latency_ns;
            latencies.push(r.latency_ns);
            totals.add(
                r.latency_ns,
                r.dropped,
                r.migrations,
                r.counter_updates,
                r.bits,
            );
        }
        totals.reduce(&core_busy_ns, &mut latencies, line_pps, offered_gbps)
    }
}

/// Counts and running float sums of a measured batch. `from_records`
/// accumulates them in arrival order; each shard of the sharded datapath
/// accumulates its own and they are summed in shard order at the window
/// boundary. Both paths then share [`BatchTotals::reduce`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct BatchTotals {
    dropped: u64,
    migrations: u64,
    counter_updates: u64,
    bits: f64,
    lat_sum: f64,
}

impl BatchTotals {
    /// Folds in one packet's contribution.
    #[inline]
    pub(crate) fn add(
        &mut self,
        latency_ns: f64,
        dropped: bool,
        migrations: u64,
        counter_updates: u64,
        bits: f64,
    ) {
        self.lat_sum += latency_ns;
        self.bits += bits;
        self.dropped += dropped as u64;
        self.migrations += migrations;
        self.counter_updates += counter_updates;
    }

    /// Sums another batch's totals into this one.
    pub(crate) fn merge(&mut self, other: &BatchTotals) {
        self.dropped += other.dropped;
        self.migrations += other.migrations;
        self.counter_updates += other.counter_updates;
        self.bits += other.bits;
        self.lat_sum += other.lat_sum;
    }

    /// The final reduction. `latencies` is the batch's latency multiset
    /// in any order (sorted in place) and `core_busy_ns` the per-core
    /// busy time: throughput is `bits / max(arrival time, busiest
    /// core)`, capped at the offered load.
    pub(crate) fn reduce(
        &self,
        core_busy_ns: &[f64],
        latencies: &mut [f64],
        line_pps: f64,
        offered_gbps: f64,
    ) -> BatchStats {
        let n = latencies.len() as u64;
        if n == 0 {
            return BatchStats {
                packets: 0,
                dropped: 0,
                mean_latency_ns: 0.0,
                p99_latency_ns: 0.0,
                throughput_gbps: 0.0,
                offered_gbps,
                migrations: 0,
                counter_updates: 0,
            };
        }
        let arrival_ns = n as f64 / line_pps * 1e9;
        let busiest_ns = core_busy_ns.iter().cloned().fold(0.0f64, f64::max);
        let duration_ns = arrival_ns.max(busiest_ns);
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("no NaN latencies"));
        // Nearest-rank percentile: the smallest value with at least
        // ceil(0.99·n) samples at or below it. The previous
        // `(n·0.99) as usize` truncation over-indexed (n=100 picked the
        // max instead of the 99th of 100).
        let rank = ((n as f64 * 0.99).ceil() as usize).clamp(1, latencies.len());
        BatchStats {
            packets: n,
            dropped: self.dropped,
            mean_latency_ns: self.lat_sum / n as f64,
            p99_latency_ns: latencies[rank - 1],
            throughput_gbps: (self.bits / duration_ns).min(offered_gbps),
            offered_gbps,
            migrations: self.migrations,
            counter_updates: self.counter_updates,
        }
    }
}

/// A software SmartNIC: an [`Executor`] behind multicore RSS dispatch.
///
/// ```
/// use pipeleon_cost::CostParams;
/// use pipeleon_ir::{MatchKind, MatchValue, ProgramBuilder, TableEntry};
/// use pipeleon_sim::{Packet, SmartNic};
///
/// let mut b = ProgramBuilder::new();
/// let f = b.field("x");
/// let acl = b
///     .table("acl")
///     .key(f, MatchKind::Exact)
///     .action_nop("permit")
///     .action_drop("deny")
///     .entry(TableEntry::new(vec![MatchValue::Exact(13)], 1))
///     .finish();
/// let program = b.seal(acl).unwrap();
///
/// let mut nic = SmartNic::new(program.clone(), CostParams::bluefield2()).unwrap();
/// let mut pkt = Packet::new(&program.fields);
/// pkt.set(f, 13);
/// assert!(nic.process_one(&mut pkt).dropped);
///
/// // Batch measurement at line-rate arrival.
/// let batch: Vec<Packet> = (0..1000)
///     .map(|i| {
///         let mut p = Packet::new(&program.fields);
///         p.set(f, i);
///         p
///     })
///     .collect();
/// let stats = nic.measure(batch);
/// assert_eq!(stats.packets, 1000);
/// assert!(stats.throughput_gbps > 0.0);
/// ```
#[derive(Debug)]
pub struct SmartNic {
    exec: Executor,
    config: NicConfig,
    /// Whether live reconfiguration is enabled (deploys adopt the new
    /// program in place, preserving the pending profile window — the
    /// single-threaded reference for the sharded live datapath).
    live: bool,
    /// Monotone live-deploy counter (the single-threaded analogue of the
    /// sharded generation chain's ids, counting deploys only).
    generation: u64,
    /// The most recent live swap (telemetry).
    last_swap: Option<LiveSwap>,
    /// Open streaming measurement window, if any.
    measuring: Option<SmartMeasure>,
    /// Specialization planning thresholds.
    spec_cfg: SpecConfig,
    /// The last taken profile window, retained for specialize steps that
    /// run right after a window boundary (the controller's tick has
    /// already consumed the live counters by then).
    last_profile: RuntimeProfile,
    /// Hot-key sketches taken with the last profile window.
    last_sketches: HashMap<NodeId, HotKeySketch>,
}

/// An open streaming measurement window on a [`SmartNic`] (between
/// `measure_begin` and `measure_end`). Pacing continues across feeds, so
/// a begin/feed*/end window is bit-identical to one `measure` call over
/// the concatenated traffic.
#[derive(Debug)]
struct SmartMeasure {
    batch_start_s: f64,
    line_pps: f64,
    cores: usize,
    offered_gbps: f64,
    records: Vec<PacketRecord>,
    n: u64,
}

impl SmartNic {
    /// Deploys `graph` on a NIC with the given target parameters.
    pub fn new(graph: ProgramGraph, params: CostParams) -> Result<Self, IrError> {
        Ok(Self {
            exec: Executor::new(graph, params)?,
            config: NicConfig::default(),
            live: false,
            generation: 0,
            last_swap: None,
            measuring: None,
            spec_cfg: SpecConfig::default(),
            last_profile: RuntimeProfile::empty(),
            last_sketches: HashMap::new(),
        })
    }

    /// Sets the measurement configuration.
    pub fn with_config(mut self, config: NicConfig) -> Self {
        self.config = config;
        self
    }

    /// The deployed program.
    pub fn graph(&self) -> &ProgramGraph {
        self.exec.graph()
    }

    /// The target parameters.
    pub fn params(&self) -> &CostParams {
        self.exec.params()
    }

    /// Direct access to the executor (placement, instrumentation, caches).
    pub fn executor_mut(&mut self) -> &mut Executor {
        &mut self.exec
    }

    /// Live-reconfigures the NIC with a new program layout. With live
    /// reconfiguration enabled ([`SmartNic::set_live_reconfig`]), the
    /// swap *adopts* the new program in place: the pending profile
    /// window, sampled observations, flow sequence counts, placements,
    /// and instrumentation carry across — exactly the semantics each
    /// shard of a live [`crate::ShardedNic`] applies when it adopts a
    /// published generation, making this NIC the single-threaded
    /// reference for live-reconfiguration differentials. Without live
    /// mode, the classic deploy resets the profile window.
    pub fn deploy(&mut self, graph: ProgramGraph) -> Result<(), IrError> {
        if self.live {
            let t0 = Instant::now();
            graph.validate()?;
            self.exec.adopt_graph(graph, None);
            self.generation += 1;
            self.last_swap = Some(LiveSwap {
                generation: self.generation,
                // Single-threaded: nothing is ever in flight at a swap.
                in_flight: 0,
                latency_ns: t0.elapsed().as_nanos() as f64,
            });
            return Ok(());
        }
        self.exec.deploy(graph)
    }

    /// Enables or disables live reconfiguration (swap-in-place deploys).
    pub fn set_live_reconfig(&mut self, on: bool) {
        self.live = on;
    }

    /// Whether live reconfiguration is enabled.
    pub fn live_reconfig(&self) -> bool {
        self.live
    }

    /// The most recent live program swap, if any.
    pub fn last_swap(&self) -> Option<LiveSwap> {
        self.last_swap
    }

    /// Inserts a table entry (control-plane API).
    pub fn insert_entry(&mut self, node: NodeId, entry: TableEntry) -> Result<(), IrError> {
        self.exec.insert_entry(node, entry)
    }

    /// Removes a table entry by index (control-plane API).
    pub fn remove_entry(&mut self, node: NodeId, index: usize) -> Result<TableEntry, IrError> {
        self.exec.remove_entry(node, index)
    }

    /// Flushes one flow cache.
    pub fn flush_cache(&mut self, node: NodeId) {
        self.exec.flush_cache(node)
    }

    /// Replaces a table definition in place (see
    /// [`Executor::replace_table`]).
    pub fn replace_table(
        &mut self,
        node: NodeId,
        table: pipeleon_ir::Table,
        next: Option<pipeleon_ir::NextHops>,
    ) -> Result<(), IrError> {
        self.exec.replace_table(node, table, next)
    }

    /// Sets a flow cache's insertion rate limit.
    pub fn set_cache_insertion_limit(&mut self, node: NodeId, rate_per_s: f64) {
        self.exec.set_cache_insertion_limit(node, rate_per_s)
    }

    /// Enables counter instrumentation with `sample_every` packet sampling.
    pub fn set_instrumentation(&mut self, enabled: bool, sample_every: u64) {
        self.exec.set_instrumentation(enabled, sample_every)
    }

    /// Selects how sampling decisions are keyed (see [`SampleKeying`]).
    /// [`SampleKeying::FlowKeyed`] makes this NIC the single-threaded
    /// reference for the run-loop sharded datapath's sampled counters
    /// and histograms.
    pub fn set_sample_keying(&mut self, keying: SampleKeying) {
        self.exec.set_sample_keying(keying)
    }

    /// Sets node placements for heterogeneous execution.
    pub fn set_placement(&mut self, placement: Vec<Placement>) {
        self.exec.set_placement(placement)
    }

    /// Assigns tables to memory tiers (§6 hierarchical-memory extension).
    pub fn set_memory_tiers(&mut self, tiers: Vec<pipeleon_cost::MemoryTier>) {
        self.exec.set_memory_tiers(tiers)
    }

    /// Takes the profile collected since the last call. The window (and
    /// its hot-key sketches) is retained for the next specialize step.
    pub fn take_profile(&mut self) -> RuntimeProfile {
        let p = self.exec.take_profile();
        self.last_profile = p.clone();
        self.last_sketches = self.exec.take_hot_sketches();
        p
    }

    /// Sets the specialization planning thresholds.
    pub fn set_spec_config(&mut self, cfg: SpecConfig) {
        self.spec_cfg = cfg;
    }

    /// Builds a specialization plan from the last profile window (merged
    /// with whatever has accumulated since) and applies it to the
    /// compiled pipeline. Returns `true` if the pipeline changed.
    ///
    /// Deliberately *generation-silent*: the specialized pipeline is the
    /// same program, bit-exactly — it is not a reconfiguration, and it
    /// neither bumps the deploy generation nor reports a live swap.
    pub fn specialize(&mut self) -> bool {
        let mut profile = self.last_profile.clone();
        profile.merge(self.exec.sampled_profile());
        let mut sketches = self.last_sketches.clone();
        self.exec.peek_hot_sketches_into(&mut sketches);
        let plan = specialize::build_plan(self.exec.graph(), &profile, &sketches, &self.spec_cfg);
        self.exec.specialize_with(&plan).is_some()
    }

    /// Reverts the compiled pipeline to the verbatim lowering. Returns
    /// `true` if it was specialized.
    pub fn despecialize(&mut self) -> bool {
        self.exec.despecialize().is_some()
    }

    /// Current specialization counters and state.
    pub fn spec_stats(&self) -> SpecStats {
        self.exec.spec_stats()
    }

    /// Takes the latency histograms recorded for sampled packets since
    /// the last call.
    pub fn take_observations(&mut self) -> crate::observe::ExecObservations {
        self.exec.take_observations()
    }

    /// Current simulation time in seconds.
    pub fn now_s(&self) -> f64 {
        self.exec.now_s
    }

    /// Selects the packet-execution engine ([`EngineMode`]): the
    /// reference interpreter or the compiled datapath (the default).
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        self.exec.set_engine_mode(mode)
    }

    /// The currently selected packet-execution engine.
    pub fn engine_mode(&self) -> EngineMode {
        self.exec.engine_mode()
    }

    /// Processes one packet (single-core semantics; no arrival pacing).
    pub fn process_one(&mut self, packet: &mut Packet) -> ExecReport {
        self.exec.process(packet)
    }

    /// Processes a batch of packets in place (single-core semantics; no
    /// arrival pacing), returning one report per packet. On the compiled
    /// engine the pipeline is compiled once and reused across the whole
    /// batch with zero steady-state heap allocations per packet.
    pub fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        self.exec.process_batch(packets)
    }

    /// Processes one packet with a trace.
    pub fn process_one_traced(
        &mut self,
        packet: &mut Packet,
        trace: &mut PacketTrace,
    ) -> ExecReport {
        self.exec.process_traced(packet, trace)
    }

    /// Runs a batch offered at line rate through the multicore NIC and
    /// reports achieved throughput and latency statistics. Advances the
    /// simulation clock by the batch's arrival time.
    pub fn measure<I>(&mut self, packets: I) -> BatchStats
    where
        I: IntoIterator<Item = Packet>,
    {
        self.measure_begin();
        self.measure_feed(packets);
        self.measure_end()
    }

    /// Opens a streaming measurement window (snapshotting the pacing
    /// parameters and the window's start time).
    pub fn measure_begin(&mut self) {
        debug_assert!(self.measuring.is_none(), "measurement window already open");
        self.measuring = Some(SmartMeasure {
            batch_start_s: self.exec.now_s,
            line_pps: self.exec.params().line_rate_pps(self.config.packet_bytes),
            cores: self.exec.params().num_cores.max(1),
            offered_gbps: self.exec.params().line_rate_gbps,
            records: Vec::new(),
            n: 0,
        });
    }

    /// Feeds one chunk into the open measurement window; pacing
    /// continues from the previous feed, so control-plane operations
    /// between feeds land at chunk boundaries of one continuous
    /// arrival schedule.
    pub fn measure_feed<I>(&mut self, packets: I)
    where
        I: IntoIterator<Item = Packet>,
    {
        let stream = self.measuring.as_mut().expect("measure_begin first");
        for mut pkt in packets {
            // Arrival pacing drives the simulation clock (rate limiters,
            // phase timing).
            self.exec.now_s = stream.batch_start_s + stream.n as f64 / stream.line_pps;
            let core = (pkt.flow_hash() % stream.cores as u64) as usize;
            let bytes = if pkt.bytes > 0 {
                pkt.bytes
            } else {
                self.config.packet_bytes
            };
            let r = self.exec.process(&mut pkt);
            stream.records.push(PacketRecord {
                core,
                latency_ns: r.latency_ns,
                dropped: r.dropped,
                migrations: r.migrations as u64,
                counter_updates: r.counter_updates as u64,
                bits: (bytes * 8) as f64,
            });
            stream.n += 1;
        }
    }

    /// Closes the measurement window, advancing the clock to the
    /// window's end and returning the merged statistics.
    pub fn measure_end(&mut self) -> BatchStats {
        let stream = self.measuring.take().expect("measure_begin first");
        if stream.n > 0 {
            let arrival_ns = stream.n as f64 / stream.line_pps * 1e9;
            self.exec.now_s = stream.batch_start_s + arrival_ns / 1e9;
        }
        BatchStats::from_records(
            &stream.records,
            stream.cores,
            stream.line_pps,
            stream.offered_gbps,
        )
    }

    /// Convenience: measures the mean per-packet latency of a batch
    /// without arrival pacing (used for cost-model calibration).
    pub fn mean_latency<I>(&mut self, packets: I) -> f64
    where
        I: IntoIterator<Item = Packet>,
    {
        let mut sum = 0.0;
        let mut n = 0u64;
        for mut pkt in packets {
            sum += self.exec.process(&mut pkt).latency_ns;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Nearest-rank p99 over latencies 1..=n ns is exactly ceil(0.99·n).
    /// The pre-fix truncating index `(n·0.99) as usize` returned the max
    /// for n=100 (rank 100) instead of the nearest-rank value (rank 99).
    #[test]
    fn p99_is_nearest_rank() {
        for (n, expected) in [(1u64, 1.0), (99, 99.0), (100, 99.0), (101, 100.0)] {
            let records: Vec<PacketRecord> = (0..n)
                .map(|i| PacketRecord {
                    core: 0,
                    latency_ns: (i + 1) as f64,
                    dropped: false,
                    migrations: 0,
                    counter_updates: 0,
                    bits: 4096.0,
                })
                .collect();
            let s = BatchStats::from_records(&records, 1, 1e6, 100.0);
            assert_eq!(
                s.p99_latency_ns, expected,
                "n={n}: expected nearest-rank p99 {expected}, got {}",
                s.p99_latency_ns
            );
        }
    }

    #[test]
    fn small_program_hits_line_rate() {
        let mut nic = SmartNic::new(linear_program(2), CostParams::bluefield2()).unwrap();
        let s = nic.measure(packets(5000));
        assert_eq!(s.packets, 5000);
        assert!(
            (s.throughput_gbps - s.offered_gbps).abs() < 1e-6,
            "got {} vs offered {}",
            s.throughput_gbps,
            s.offered_gbps
        );
    }

    #[test]
    fn large_program_falls_below_line_rate() {
        let mut nic = SmartNic::new(linear_program(40), CostParams::bluefield2()).unwrap();
        let s = nic.measure(packets(5000));
        assert!(
            s.throughput_gbps < s.offered_gbps * 0.95,
            "got {} vs offered {}",
            s.throughput_gbps,
            s.offered_gbps
        );
        assert!(s.mean_latency_ns > 0.0);
        assert!(s.p99_latency_ns >= s.mean_latency_ns * 0.5);
    }

    #[test]
    fn throughput_monotonically_decreases_with_program_size() {
        let mut prev = f64::INFINITY;
        for n in [5, 15, 30, 45] {
            let mut nic = SmartNic::new(linear_program(n), CostParams::bluefield2()).unwrap();
            let s = nic.measure(packets(3000));
            assert!(
                s.throughput_gbps <= prev + 1e-9,
                "throughput increased with more tables"
            );
            prev = s.throughput_gbps;
        }
    }

    #[test]
    fn clock_advances_with_batches() {
        let mut nic = SmartNic::new(linear_program(2), CostParams::bluefield2()).unwrap();
        assert_eq!(nic.now_s(), 0.0);
        nic.measure(packets(1000));
        let t1 = nic.now_s();
        assert!(t1 > 0.0);
        nic.measure(packets(1000));
        assert!(nic.now_s() > t1);
    }

    #[test]
    fn empty_batch_is_harmless() {
        let mut nic = SmartNic::new(linear_program(2), CostParams::bluefield2()).unwrap();
        let s = nic.measure(Vec::new());
        assert_eq!(s.packets, 0);
        assert_eq!(s.throughput_gbps, 0.0);
    }

    #[test]
    fn mean_latency_matches_process_one() {
        let mut nic = SmartNic::new(linear_program(3), CostParams::bluefield2()).unwrap();
        let single = nic.process_one(&mut Packet::with_slots(vec![7])).latency_ns;
        let mean = nic.mean_latency(packets(100));
        assert!((single - mean).abs() < 1e-9);
    }
}
