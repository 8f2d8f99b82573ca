//! A [`NicBackend`] that delegates every call and records a `sim.*` span
//! around it, so time spent in the datapath inside `net` (the ingest
//! server's `poll_once`) and inside `runtime` (a controller `tick`) is
//! measured from outside those layers.

use crate::trace::span;
use pipeleon_cost::{CostParams, RuntimeProfile};
use pipeleon_ir::{IrError, NextHops, NodeId, ProgramGraph, Table, TableEntry};
use pipeleon_sim::{
    BatchStats, EngineMode, ExecObservations, ExecReport, LiveSwap, NicBackend, Packet, ShardMode,
    SpecConfig, SpecStats,
};

/// Span-recording wrapper around any backend. Also sums the flow-cache
/// lookups of every profile it hands out, which the controller consumes
/// before the benchmark could read them.
pub struct TracedNic<N> {
    /// The wrapped backend.
    pub inner: N,
    /// Flow-cache hits summed over every profile taken.
    pub cache_hits: u64,
    /// Flow-cache misses summed over every profile taken.
    pub cache_misses: u64,
}

impl<N> TracedNic<N> {
    /// Wraps `inner`.
    pub fn new(inner: N) -> Self {
        TracedNic {
            inner,
            cache_hits: 0,
            cache_misses: 0,
        }
    }
}

impl<N: NicBackend> NicBackend for TracedNic<N> {
    fn graph(&self) -> &ProgramGraph {
        span("sim.graph", || self.inner.graph())
    }

    fn params(&self) -> &CostParams {
        span("sim.params", || self.inner.params())
    }

    fn deploy(&mut self, graph: ProgramGraph) -> Result<(), IrError> {
        span("sim.deploy", || self.inner.deploy(graph))
    }

    fn take_profile(&mut self) -> RuntimeProfile {
        let p = span("sim.take_profile", || self.inner.take_profile());
        for c in p.cache_stats.values() {
            self.cache_hits += c.hits;
            self.cache_misses += c.misses;
        }
        p
    }

    fn take_observations(&mut self) -> ExecObservations {
        span("sim.take_observations", || self.inner.take_observations())
    }

    fn insert_entry(&mut self, node: NodeId, entry: TableEntry) -> Result<(), IrError> {
        span("sim.entry", || self.inner.insert_entry(node, entry))
    }

    fn remove_entry(&mut self, node: NodeId, index: usize) -> Result<TableEntry, IrError> {
        span("sim.entry", || self.inner.remove_entry(node, index))
    }

    fn replace_table(
        &mut self,
        node: NodeId,
        table: Table,
        next: Option<NextHops>,
    ) -> Result<(), IrError> {
        span("sim.entry", || self.inner.replace_table(node, table, next))
    }

    fn flush_cache(&mut self, node: NodeId) {
        span("sim.flush_cache", || self.inner.flush_cache(node))
    }

    fn set_cache_insertion_limit(&mut self, node: NodeId, rate_per_s: f64) {
        span("sim.set_cache_limit", || {
            self.inner.set_cache_insertion_limit(node, rate_per_s)
        })
    }

    fn set_instrumentation(&mut self, enabled: bool, sample_every: u64) {
        span("sim.set_instrumentation", || {
            self.inner.set_instrumentation(enabled, sample_every)
        })
    }

    fn set_engine_mode(&mut self, mode: EngineMode) {
        span("sim.set_engine_mode", || self.inner.set_engine_mode(mode))
    }

    fn engine_mode(&self) -> EngineMode {
        span("sim.engine_mode", || self.inner.engine_mode())
    }

    fn shard_mode(&self) -> ShardMode {
        span("sim.shard_mode", || self.inner.shard_mode())
    }

    fn process_one(&mut self, packet: &mut Packet) -> ExecReport {
        span("sim.process_one", || self.inner.process_one(packet))
    }

    fn process_batch(&mut self, packets: &mut [Packet]) -> Vec<ExecReport> {
        span("sim.process_batch", || self.inner.process_batch(packets))
    }

    fn measure_batch(&mut self, packets: Vec<Packet>) -> BatchStats {
        span("sim.measure", || self.inner.measure_batch(packets))
    }

    fn now_s(&self) -> f64 {
        span("sim.now_s", || self.inner.now_s())
    }

    fn set_live_reconfig(&mut self, on: bool) {
        span("sim.set_live_reconfig", || self.inner.set_live_reconfig(on))
    }

    fn live_reconfig(&self) -> bool {
        span("sim.live_reconfig", || self.inner.live_reconfig())
    }

    fn last_swap(&self) -> Option<LiveSwap> {
        span("sim.last_swap", || self.inner.last_swap())
    }

    fn measure_begin(&mut self) {
        span("sim.measure", || self.inner.measure_begin())
    }

    fn measure_feed(&mut self, packets: Vec<Packet>) {
        span("sim.measure", || self.inner.measure_feed(packets))
    }

    fn measure_end(&mut self) -> BatchStats {
        span("sim.measure", || self.inner.measure_end())
    }

    fn set_spec_config(&mut self, cfg: SpecConfig) {
        span("sim.set_spec_config", || self.inner.set_spec_config(cfg))
    }

    fn specialize(&mut self) -> bool {
        span("sim.specialize", || self.inner.specialize())
    }

    fn despecialize(&mut self) -> bool {
        span("sim.specialize", || self.inner.despecialize())
    }

    fn spec_stats(&self) -> SpecStats {
        span("sim.spec_stats", || self.inner.spec_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use pipeleon_sim::SmartNic;
    use pipeleon_workloads::scenarios::NfComposition;

    /// Wrapping changes nothing a packet or a profile window can see:
    /// verdicts, reports, batch statistics and specialization all match
    /// the bare backend bit for bit, traced or not.
    #[test]
    fn wrapped_and_bare_backends_agree() {
        let nf = NfComposition::build();
        let params = CostParams::emulated_nic();
        for tracing in [false, true] {
            if tracing {
                trace::start();
            }
            let mut bare = SmartNic::new(nf.graph.clone(), params.clone()).unwrap();
            let mut wrapped =
                TracedNic::new(SmartNic::new(nf.graph.clone(), params.clone()).unwrap());
            NicBackend::set_instrumentation(&mut bare, true, 4);
            wrapped.set_instrumentation(true, 4);
            for (w, shares) in [[0.8, 0.1], [0.1, 0.8], [0.1, 0.1]].iter().enumerate() {
                let batch = nf.traffic(shares, 256, w as u64).batch(2_000);
                let mut a = batch.clone();
                let mut b = batch.clone();
                let ra = NicBackend::process_batch(&mut bare, &mut a);
                let rb = wrapped.process_batch(&mut b);
                assert_eq!(a, b, "verdicts differ in window {w}");
                assert_eq!(ra.len(), rb.len());
                for (x, y) in ra.iter().zip(&rb) {
                    assert_eq!(x.latency_ns.to_bits(), y.latency_ns.to_bits());
                    assert_eq!((x.dropped, x.probes), (y.dropped, y.probes));
                }
                let sa = NicBackend::measure_batch(&mut bare, batch.clone());
                let sb = wrapped.measure_batch(batch);
                assert_eq!(sa, sb, "batch stats differ in window {w}");
                let pa = NicBackend::take_profile(&mut bare);
                let pb = wrapped.take_profile();
                assert_eq!(pa.total_packets, pb.total_packets);
                assert_eq!(
                    NicBackend::specialize(&mut bare),
                    wrapped.specialize(),
                    "specialization decisions differ in window {w}"
                );
                assert_eq!(NicBackend::spec_stats(&bare), wrapped.spec_stats());
            }
            let spans = trace::finish();
            assert_eq!(spans.is_empty(), !tracing);
            if tracing {
                let agg = trace::aggregate(&spans);
                assert_eq!(agg["sim.process_batch"].calls, 3);
                assert_eq!(agg["sim.measure"].calls, 3);
            }
        }
    }
}
