//! Abstraction over simulated NIC datapaths.
//!
//! [`NicBackend`] is the surface the runtime layer needs from a datapath:
//! the control-plane entry API, live reconfiguration, profile collection,
//! and batch measurement. [`SmartNic`] (single-threaded) and
//! [`crate::ShardedNic`] (multi-worker) both implement it, so a
//! `SimTarget` can be backed by either interchangeably.

use crate::exec::{EngineMode, ExecReport};
use crate::nic::{BatchStats, ShardMode};
use crate::observe::ExecObservations;
use crate::packet::Packet;
use crate::specialize::{SpecConfig, SpecStats};
use crate::SmartNic;
use pipeleon_cost::{CostParams, RuntimeProfile};
use pipeleon_ir::{IrError, NextHops, NodeId, ProgramGraph, Table, TableEntry};

/// What a live program swap looked like from the datapath's side:
/// recorded by backends at every [`NicBackend::deploy`] that published a
/// new generation while live reconfiguration was enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveSwap {
    /// The generation id the deploy published (monotone per backend).
    pub generation: u64,
    /// Packets enqueued but not yet processed at the instant of
    /// publication — they complete under the *old* generation.
    pub in_flight: u64,
    /// Wall-clock latency of the publish step itself (validation +
    /// compile + chain append), in nanoseconds. The datapath never
    /// stalls for this: it is control-plane latency, not downtime.
    pub latency_ns: f64,
}

/// A simulated NIC datapath: program deployment, control-plane entry
/// management, instrumentation, and line-rate batch measurement.
pub trait NicBackend {
    /// The deployed program.
    fn graph(&self) -> &ProgramGraph;

    /// The target parameters.
    fn params(&self) -> &CostParams;

    /// Live-reconfigures the datapath with a new program layout.
    fn deploy(&mut self, graph: ProgramGraph) -> Result<(), IrError>;

    /// Takes the profile collected since the last call.
    fn take_profile(&mut self) -> RuntimeProfile;

    /// Takes the latency histograms recorded for sampled packets since
    /// the last call. Sharded datapaths merge per-shard histograms
    /// deterministically before returning.
    fn take_observations(&mut self) -> ExecObservations;

    /// Inserts a table entry (control-plane API).
    fn insert_entry(&mut self, node: NodeId, entry: TableEntry) -> Result<(), IrError>;

    /// Removes a table entry by index (control-plane API).
    fn remove_entry(&mut self, node: NodeId, index: usize) -> Result<TableEntry, IrError>;

    /// Replaces a table definition in place.
    fn replace_table(
        &mut self,
        node: NodeId,
        table: Table,
        next: Option<NextHops>,
    ) -> Result<(), IrError>;

    /// Flushes one flow cache.
    fn flush_cache(&mut self, node: NodeId);

    /// Sets a flow cache's insertion rate limit.
    fn set_cache_insertion_limit(&mut self, node: NodeId, rate_per_s: f64);

    /// Enables counter instrumentation with `sample_every` packet sampling.
    fn set_instrumentation(&mut self, enabled: bool, sample_every: u64);

    /// Selects the packet-execution engine: the reference interpreter or
    /// the compiled datapath (the default). Both produce bit-identical
    /// results; the compiled engine is the fast path.
    fn set_engine_mode(&mut self, mode: EngineMode);

    /// The currently selected packet-execution engine.
    fn engine_mode(&self) -> EngineMode;

    /// The worker-coordination mode of the datapath. Always
    /// [`ShardMode::RunLoop`], the only mode; kept because the
    /// `perfbench` harness forwards it. Remove it together with that
    /// forwarding.
    fn shard_mode(&self) -> ShardMode {
        ShardMode::RunLoop
    }

    /// Processes one packet (no arrival pacing).
    fn process_one(&mut self, packet: &mut Packet) -> ExecReport;

    /// Processes a batch of packets in place (no arrival pacing),
    /// returning one report per packet. The default implementation loops
    /// [`NicBackend::process_one`]; datapaths with a batch-oriented fast
    /// path override it.
    fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        packets.iter_mut().map(|p| self.process_one(p)).collect()
    }

    /// Runs a batch offered at line rate and reports throughput/latency.
    fn measure_batch(&mut self, packets: Vec<Packet>) -> BatchStats;

    /// Current simulation time in seconds.
    fn now_s(&self) -> f64;

    /// Enables or disables live reconfiguration: when on, control-plane
    /// operations publish as generations concurrent with packet flow
    /// instead of pausing the datapath. Backends without a live mode
    /// ignore the call (their control plane already runs between
    /// packets).
    fn set_live_reconfig(&mut self, _on: bool) {}

    /// Whether live reconfiguration is enabled.
    fn live_reconfig(&self) -> bool {
        false
    }

    /// The most recent live program swap, if any. `None` until the first
    /// live deploy (and always `None` on backends without a live mode).
    fn last_swap(&self) -> Option<LiveSwap> {
        None
    }

    /// Opens a streaming measurement window (see
    /// [`NicBackend::measure_feed`]). The default implementation is a
    /// no-op: backends without a streaming path treat each feed as its
    /// own batch.
    fn measure_begin(&mut self) {}

    /// Feeds one chunk of line-rate traffic into the open measurement
    /// window *without waiting for it to drain* — on a live sharded
    /// backend, control-plane generations published between feeds land
    /// genuinely mid-flight. Pacing is continuous across feeds: the
    /// chunks of one begin/feed/end window measure identically to a
    /// single `measure_batch` of their concatenation.
    fn measure_feed(&mut self, packets: Vec<Packet>) {
        let _ = self.measure_batch(packets);
    }

    /// Closes the streaming measurement window: waits for every fed
    /// packet to drain and returns the merged statistics for the whole
    /// window.
    fn measure_end(&mut self) -> BatchStats {
        self.measure_batch(Vec::new())
    }

    /// Sets the thresholds that drive specialization planning. Backends
    /// without a specializing datapath ignore the call.
    fn set_spec_config(&mut self, _cfg: SpecConfig) {}

    /// Builds a specialization plan from the last profile window and
    /// applies it to the compiled datapath (bit-exactly — a specialized
    /// pipeline is the same program, faster on the profiled traffic).
    /// Returns `true` if the pipeline changed; the default (for backends
    /// without a compiled datapath) never specializes.
    fn specialize(&mut self) -> bool {
        false
    }

    /// Reverts the compiled datapath to its verbatim lowering. Returns
    /// `true` if it was specialized.
    fn despecialize(&mut self) -> bool {
        false
    }

    /// Current specialization counters and state.
    fn spec_stats(&self) -> SpecStats {
        SpecStats::default()
    }
}

impl NicBackend for SmartNic {
    fn graph(&self) -> &ProgramGraph {
        SmartNic::graph(self)
    }

    fn params(&self) -> &CostParams {
        SmartNic::params(self)
    }

    fn deploy(&mut self, graph: ProgramGraph) -> Result<(), IrError> {
        SmartNic::deploy(self, graph)
    }

    fn take_profile(&mut self) -> RuntimeProfile {
        SmartNic::take_profile(self)
    }

    fn take_observations(&mut self) -> ExecObservations {
        SmartNic::take_observations(self)
    }

    fn insert_entry(&mut self, node: NodeId, entry: TableEntry) -> Result<(), IrError> {
        SmartNic::insert_entry(self, node, entry)
    }

    fn remove_entry(&mut self, node: NodeId, index: usize) -> Result<TableEntry, IrError> {
        SmartNic::remove_entry(self, node, index)
    }

    fn replace_table(
        &mut self,
        node: NodeId,
        table: Table,
        next: Option<NextHops>,
    ) -> Result<(), IrError> {
        SmartNic::replace_table(self, node, table, next)
    }

    fn flush_cache(&mut self, node: NodeId) {
        SmartNic::flush_cache(self, node)
    }

    fn set_cache_insertion_limit(&mut self, node: NodeId, rate_per_s: f64) {
        SmartNic::set_cache_insertion_limit(self, node, rate_per_s)
    }

    fn set_instrumentation(&mut self, enabled: bool, sample_every: u64) {
        SmartNic::set_instrumentation(self, enabled, sample_every)
    }

    fn set_engine_mode(&mut self, mode: EngineMode) {
        SmartNic::set_engine_mode(self, mode)
    }

    fn engine_mode(&self) -> EngineMode {
        SmartNic::engine_mode(self)
    }

    fn process_one(&mut self, packet: &mut Packet) -> ExecReport {
        SmartNic::process_one(self, packet)
    }

    fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        SmartNic::process_batch(self, packets)
    }

    fn measure_batch(&mut self, packets: Vec<Packet>) -> BatchStats {
        self.measure(packets)
    }

    fn now_s(&self) -> f64 {
        SmartNic::now_s(self)
    }

    fn set_live_reconfig(&mut self, on: bool) {
        SmartNic::set_live_reconfig(self, on)
    }

    fn live_reconfig(&self) -> bool {
        SmartNic::live_reconfig(self)
    }

    fn last_swap(&self) -> Option<LiveSwap> {
        SmartNic::last_swap(self)
    }

    fn measure_begin(&mut self) {
        SmartNic::measure_begin(self)
    }

    fn measure_feed(&mut self, packets: Vec<Packet>) {
        SmartNic::measure_feed(self, packets)
    }

    fn measure_end(&mut self) -> BatchStats {
        SmartNic::measure_end(self)
    }

    fn set_spec_config(&mut self, cfg: SpecConfig) {
        SmartNic::set_spec_config(self, cfg)
    }

    fn specialize(&mut self) -> bool {
        SmartNic::specialize(self)
    }

    fn despecialize(&mut self) -> bool {
        SmartNic::despecialize(self)
    }

    fn spec_stats(&self) -> SpecStats {
        SmartNic::spec_stats(self)
    }
}
