//! Differential suite for profile-guided specialization of the compiled
//! datapath (DESIGN.md §17).
//!
//! The contract under test: a specialized pipeline — hot-key guards,
//! direct-index ways, hot-chain layout — is observationally
//! *bit-identical* to the unspecialized compiled engine and the
//! interpreter. Per-packet reports (latency bits, drops, probes), packet
//! mutations, merged profiles, batch statistics and latency histograms
//! must all match across worker counts 1/2/8 on the run-loop sharded
//! datapath, with specialization applied mid-window. Live runs additionally publish
//! specialized pipelines through the generation-swap path and must lose
//! zero packets.
//!
//! Two proptests pin the lifecycle: entry ops that strip a specialized
//! table followed by an explicit despecialize must be indistinguishable
//! from a scratch compile of the final program, and a controller facing
//! a flipped traffic distribution must de-specialize on the guard-miss
//! signal and re-converge onto the new hot keys.

use pipeleon::search::Optimizer;
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::{MatchValue, TableEntry};
use pipeleon_runtime::{Controller, ControllerConfig, SimTarget, Target};
use pipeleon_sim::{BatchStats, EngineMode, ExecReport, Packet, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::SkewedPipeline;
use proptest::prelude::*;

/// The sharded-equivalence matrix, reused from the other differentials.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Skew steep enough that the top flow clears the conservative
/// Boyer–Moore majority bar ([`pipeleon_sim::SpecConfig::hot_fraction`])
/// with a guard-miss rate comfortably under the controller's
/// de-specialization threshold.
const HOT_SKEW: f64 = 3.0;

fn params() -> CostParams {
    CostParams::bluefield2()
}

fn assert_stats_identical(a: BatchStats, b: BatchStats, ctx: &str) {
    // Bitwise, not approximate: specialization must apply every latency
    // term with identical operands in identical order.
    assert_eq!(
        a.mean_latency_ns.to_bits(),
        b.mean_latency_ns.to_bits(),
        "{ctx}: mean latency"
    );
    assert_eq!(
        a.p99_latency_ns.to_bits(),
        b.p99_latency_ns.to_bits(),
        "{ctx}: p99 latency"
    );
    assert_eq!(a, b, "{ctx}: full stats");
}

fn assert_reports_identical(a: &ExecReport, b: &ExecReport, ctx: &str) {
    assert_eq!(
        a.latency_ns.to_bits(),
        b.latency_ns.to_bits(),
        "{ctx}: latency bits"
    );
    assert_eq!(a, b, "{ctx}: full report");
}

/// One sharded run: engine `mode`, with an optional mid-window
/// specialization pass between the two halves of the batch.
fn sharded_run(
    s: &SkewedPipeline,
    workers: usize,
    engine: EngineMode,
    batch: &[Packet],
    specialize: bool,
) -> (
    BatchStats,
    pipeleon_cost::RuntimeProfile,
    pipeleon_sim::ExecObservations,
    pipeleon_sim::SpecStats,
) {
    let mut nic = ShardedNic::new(s.graph.clone(), params(), workers).unwrap();
    nic.set_engine_mode(engine);
    nic.set_instrumentation(true, 1);
    let mid = batch.len() / 2;
    nic.measure_begin();
    nic.measure_feed(batch[..mid].iter().cloned());
    if specialize {
        nic.specialize();
    }
    nic.measure_feed(batch[mid..].iter().cloned());
    let stats = nic.measure_end();
    let spec = nic.spec_stats();
    (stats, nic.take_profile(), nic.take_observations(), spec)
}

/// The tentpole invariant: specialized vs unspecialized vs interpreter,
/// bit-identical merged stats / profiles / histograms, across the worker
/// matrix, with the plan applied mid-window.
#[test]
fn specialized_runs_match_both_oracles_bit_for_bit() {
    let s = SkewedPipeline::build(3, 2);
    let batch = s.traffic(HOT_SKEW, 400, 11).batch(4_000);
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        let (si, pi, oi, _) = sharded_run(&s, workers, EngineMode::Interpreter, &batch, false);
        let (sc, pc, oc, _) = sharded_run(&s, workers, EngineMode::Compiled, &batch, false);
        let (ss, ps, os, spec) = sharded_run(&s, workers, EngineMode::Compiled, &batch, true);
        assert_stats_identical(si, sc, &format!("{ctx}: interp vs compiled"));
        assert_stats_identical(sc, ss, &format!("{ctx}: compiled vs specialized"));
        assert_eq!(pi, pc, "{ctx}: interp vs compiled profile");
        assert_eq!(pc, ps, "{ctx}: compiled vs specialized profile");
        assert_eq!(oi, oc, "{ctx}: interp vs compiled observations");
        assert_eq!(oc, os, "{ctx}: compiled vs specialized observations");
        assert!(
            spec.specializations >= 1,
            "{ctx}: the mid-window pass must have applied a plan"
        );
    }
}

/// Guard fallback, single-threaded and per-packet: after specializing on
/// skewed traffic, both guard hits (the baked hot key) and guard misses
/// (everything else) must produce reports bit-identical to an
/// interpreter that never specialized.
#[test]
fn guard_hits_and_misses_stay_bit_exact_per_packet() {
    let s = SkewedPipeline::build(3, 2);
    let mut interp = SmartNic::new(s.graph.clone(), params()).unwrap();
    interp.set_engine_mode(EngineMode::Interpreter);
    interp.set_instrumentation(true, 1);
    let mut spec = SmartNic::new(s.graph.clone(), params()).unwrap();
    spec.set_engine_mode(EngineMode::Compiled);
    spec.set_instrumentation(true, 1);
    let mut warm = s.traffic(HOT_SKEW, 200, 5);
    for (i, p) in warm.batch(2_000).into_iter().enumerate() {
        let mut a = p.clone();
        let mut b = p;
        let ra = interp.process_one(&mut a);
        let rb = spec.process_one(&mut b);
        assert_reports_identical(&ra, &rb, &format!("warm packet {i}"));
        assert_eq!(a, b, "warm packet {i} contents diverged");
    }
    assert!(spec.specialize(), "skewed warmup must yield a plan");
    assert!(
        spec.spec_stats().specialized_tables > 0,
        "plan must have specialized at least one table"
    );
    // Mixed probe phase: the Zipf head repeatedly hits the guard, the
    // tail falls through it.
    let mut probe = s.traffic(HOT_SKEW, 200, 6);
    for (i, p) in probe.batch(2_000).into_iter().enumerate() {
        let mut a = p.clone();
        let mut b = p;
        let ra = interp.process_one(&mut a);
        let rb = spec.process_one(&mut b);
        assert_reports_identical(&ra, &rb, &format!("probe packet {i}"));
        assert_eq!(a, b, "probe packet {i} contents diverged");
    }
    let st = spec.spec_stats();
    assert!(st.guard_hits > 0, "hot key must hit the guard: {st:?}");
    assert!(st.guard_misses > 0, "cold keys must fall through: {st:?}");
    assert_eq!(interp.take_profile(), spec.take_profile(), "profiles");
    assert_eq!(
        interp.take_observations(),
        spec.take_observations(),
        "observations"
    );
}

/// Live specialization: the plan publishes through the generation-swap
/// path mid-window, under traffic, at every worker count — losing zero
/// packets and keeping merged stats bit-identical to an unspecialized
/// run at the same worker count (shard merges are float-order sensitive,
/// so the oracle must shard identically). A second window de-specializes
/// live the same way.
#[test]
fn live_specialize_swaps_lose_zero_packets() {
    let s = SkewedPipeline::build(3, 2);
    let batch = s.traffic(HOT_SKEW, 400, 17).batch(4_000);
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        // Oracle: same worker count, never specialized, two windows.
        let mut oracle = ShardedNic::new(s.graph.clone(), params(), workers).unwrap();
        oracle.set_instrumentation(true, 1);
        let w1 = oracle.measure(batch.clone());
        let w2 = oracle.measure(batch.clone());
        let mut nic = ShardedNic::new(s.graph.clone(), params(), workers).unwrap();
        nic.set_live_reconfig(true);
        nic.set_instrumentation(true, 1);
        let mid = batch.len() / 2;
        nic.measure_begin();
        nic.measure_feed(batch[..mid].iter().cloned());
        assert!(nic.specialize(), "{ctx}: live specialize must apply");
        nic.measure_feed(batch[mid..].iter().cloned());
        let stats = nic.measure_end();
        assert_eq!(
            stats.packets,
            batch.len() as u64,
            "{ctx}: window 1 lost packets"
        );
        assert_stats_identical(w1, stats, &format!("{ctx}: window 1 vs oracle"));
        let swap = nic
            .last_swap()
            .expect("live specialize publishes a generation");
        assert!(swap.generation >= 1, "{ctx}: no generation published");
        assert!(nic.spec_stats().specialized_tables > 0, "{ctx}");
        // Window 2: de-specialize live, same zero-loss requirement.
        nic.measure_begin();
        nic.measure_feed(batch[..mid].iter().cloned());
        assert!(nic.despecialize(), "{ctx}: live despecialize must apply");
        nic.measure_feed(batch[mid..].iter().cloned());
        let stats = nic.measure_end();
        assert_eq!(
            stats.packets,
            batch.len() as u64,
            "{ctx}: window 2 lost packets"
        );
        assert_stats_identical(w2, stats, &format!("{ctx}: window 2 vs oracle"));
        assert_eq!(
            nic.spec_stats().specialized_tables,
            0,
            "{ctx}: despecialize must strip every table"
        );
        assert!(
            nic.last_swap().expect("second swap").generation > swap.generation,
            "{ctx}: despecialize must publish a newer generation"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Lifecycle soundness: specialize, churn entries (entry ops on a
    /// specialized table auto-strip it), then explicitly despecialize —
    /// the result must be indistinguishable from an executor that
    /// compiles the final program from scratch after the same ops.
    #[test]
    fn entry_ops_then_despecialize_matches_scratch_compile(
        ops in prop::collection::vec((0usize..2, 0u64..16), 1..12),
        traffic_seed in 0u64..500,
    ) {
        let s = SkewedPipeline::build(2, 2);
        let mut spec = SmartNic::new(s.graph.clone(), params()).unwrap();
        spec.set_engine_mode(EngineMode::Compiled);
        spec.set_instrumentation(true, 1);
        // `scratch` interprets until after the ops, then one full compile.
        let mut scratch = SmartNic::new(s.graph.clone(), params()).unwrap();
        scratch.set_engine_mode(EngineMode::Interpreter);
        scratch.set_instrumentation(true, 1);
        let mut warm = s.traffic(HOT_SKEW, 150, traffic_seed);
        for (i, p) in warm.batch(1_000).into_iter().enumerate() {
            let mut a = p.clone();
            let mut b = p;
            let ra = spec.process_one(&mut a);
            let rb = scratch.process_one(&mut b);
            prop_assert_eq!(ra, rb, "warm packet {} diverged", i);
        }
        prop_assert!(spec.specialize(), "skewed warmup must yield a plan");
        // Entry churn on the exact flow tables; ops touching specialized
        // tables strip them (despecializations counts each strip).
        let mut lens = vec![4usize; s.exact.len()];
        for &(t, k) in &ops {
            let table = s.exact[t % s.exact.len()];
            let idx = t % s.exact.len();
            if lens[idx] > 0 && k.is_multiple_of(3) {
                let at = (k as usize) % lens[idx];
                let a = spec.remove_entry(table, at).unwrap();
                let b = scratch.remove_entry(table, at).unwrap();
                prop_assert_eq!(a, b, "removed different entries");
                lens[idx] -= 1;
            } else {
                let e = TableEntry::new(vec![MatchValue::Exact(100 + k)], 0);
                spec.insert_entry(table, e.clone()).unwrap();
                scratch.insert_entry(table, e).unwrap();
                lens[idx] += 1;
            }
        }
        spec.despecialize();
        prop_assert_eq!(
            spec.spec_stats().specialized_tables, 0,
            "nothing may stay specialized after an explicit despecialize"
        );
        scratch.set_engine_mode(EngineMode::Compiled);
        let mut probe = s.traffic(HOT_SKEW, 150, traffic_seed + 1);
        for (i, p) in probe.batch(1_000).into_iter().enumerate() {
            let mut a = p.clone();
            let mut b = p;
            let ra = spec.process_one(&mut a);
            let rb = scratch.process_one(&mut b);
            prop_assert_eq!(ra.latency_ns.to_bits(), rb.latency_ns.to_bits(),
                "post-op packet {} latency diverged", i);
            prop_assert_eq!(ra, rb, "post-op packet {} diverged", i);
            prop_assert_eq!(&a, &b, "post-op packet {} contents diverged", i);
        }
        prop_assert_eq!(spec.take_profile(), scratch.take_profile());
    }

    /// Drift recovery: a controller that specialized onto one traffic
    /// distribution must de-specialize when the distribution flips (every
    /// baked guard misses at once) and then re-converge onto the flipped
    /// distribution's hot keys.
    #[test]
    fn controller_despecializes_on_flip_then_reconverges(seed in 0u64..100) {
        let s = SkewedPipeline::build(2, 1);
        let mut nic = SmartNic::new(s.graph.clone(), params()).unwrap();
        nic.set_engine_mode(EngineMode::Compiled);
        nic.set_instrumentation(true, 1);
        let optimizer = Optimizer::new(CostModel::new(params()));
        // Reoptimization is fully suppressed — an infinite gain bar keeps
        // the original (cache-free) layout deployed, and an infinite drift
        // threshold disables the profile-drift despecialization shortcut —
        // so the guard-miss rate alone must carry the decision.
        let cfg = ControllerConfig {
            change_threshold: f64::INFINITY,
            min_gain_ns: f64::INFINITY,
            ..ControllerConfig::default()
        };
        let mut c = Controller::new(SimTarget::live(nic), s.graph.clone(), optimizer, cfg)
            .unwrap();
        let window = |c: &mut Controller<SimTarget>, flipped: bool, w: u64| {
            let mut gen = if flipped {
                s.traffic_flipped(HOT_SKEW, 150, seed * 10 + w)
            } else {
                s.traffic(HOT_SKEW, 150, seed * 10 + w)
            };
            for mut p in gen.batch(1_500) {
                c.target.nic.process_one(&mut p);
            }
            c.tick().unwrap()
        };
        for w in 0..2 {
            window(&mut c, false, w);
        }
        let st = c.target.spec_stats();
        prop_assert!(st.specializations >= 1, "no specialization: {:?}", st);
        prop_assert!(st.specialized_tables > 0, "nothing specialized: {:?}", st);
        // The flip: guards all miss; the next tick must de-specialize.
        window(&mut c, true, 100);
        let st = c.target.spec_stats();
        prop_assert!(
            st.despecializations >= 1,
            "flip must de-specialize: {:?}", st
        );
        prop_assert_eq!(c.health().despecializations, st.despecializations);
        // Stable flipped windows: the loop re-converges onto the new
        // distribution and its guards hit again.
        for w in 0..2 {
            window(&mut c, true, 101 + w);
        }
        let st = c.target.spec_stats();
        prop_assert!(
            st.specialized_tables > 0,
            "must re-specialize onto the flipped distribution: {:?}", st
        );
        let hits_before = st.guard_hits;
        window(&mut c, true, 200);
        let st = c.target.spec_stats();
        prop_assert!(
            st.guard_hits > hits_before,
            "re-baked guards must hit flipped traffic: {:?}", st
        );
    }
}
