//! Differential suite for the compiled datapath: the flat, index-addressed
//! [`EngineMode::Compiled`] pipeline must be observationally *bit-identical*
//! to the interpreter it lowers — same per-packet reports (latency bits,
//! drops, migrations, probes, counter updates), same packet mutations, same
//! traces, same merged profiles, batch statistics, and latency histograms —
//! for every example program, a synthetic-program seed matrix, flow-cache
//! programs, mid-stream entry churn, chaos-fault controller runs, and
//! worker counts 1/2/8.
//!
//! A proptest additionally pins the incremental-recompile contract: patching
//! one table after an entry op must be indistinguishable from compiling the
//! final program from scratch.

use pipeleon::search::Optimizer;
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::{
    json, CacheRole, FieldRef, MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder,
    ProgramGraph, TableEntry,
};
use pipeleon_runtime::{
    graph_fingerprint, Controller, ControllerConfig, FaultConfig, FaultyTarget, RuntimeError,
    SimTarget, Target,
};
use pipeleon_sim::{
    BatchStats, EngineMode, ExecReport, Executor, Packet, PacketTrace, ShardedNic, SmartNic,
};
use pipeleon_workloads::scenarios::AclPipeline;
use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};
use pipeleon_workloads::traffic::FlowGen;
use proptest::prelude::*;

/// The sharded-equivalence matrix, reused: 1 is the degenerate shard,
/// 2 the smallest real split, 8 more shards than distinct flows in some
/// phases.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Same fixed seed matrix CI runs for the chaos suite.
const SYNTH_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Deterministic op-mix generator (distinct from any engine PRNG).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Seeded flow traffic over every field any table of `g` matches on.
fn key_traffic(g: &ProgramGraph, flows: usize, seed: u64, packets: usize) -> Vec<Packet> {
    let mut flow_fields = Vec::new();
    for (_, t) in g.tables() {
        for k in &t.keys {
            if !flow_fields.contains(&k.field) {
                flow_fields.push(k.field);
            }
        }
    }
    FlowGen::new(g.fields.len(), flow_fields, flows, seed)
        .with_zipf(1.1)
        .batch(packets)
}

/// Counter-by-counter profile comparison, so a regression names the first
/// diverging counter instead of dumping two whole profiles.
fn assert_profiles_identical(
    interp: &pipeleon_cost::RuntimeProfile,
    compiled: &pipeleon_cost::RuntimeProfile,
    ctx: &str,
) {
    assert_eq!(
        interp.total_packets, compiled.total_packets,
        "{ctx}: total_packets"
    );
    let mut ie: Vec<_> = interp.edges().collect();
    let mut ce: Vec<_> = compiled.edges().collect();
    ie.sort();
    ce.sort();
    assert_eq!(ie, ce, "{ctx}: edge counters");
    let mut ia: Vec<_> = interp.actions().collect();
    let mut ca: Vec<_> = compiled.actions().collect();
    ia.sort();
    ca.sort();
    assert_eq!(ia, ca, "{ctx}: action counters");
    assert_eq!(
        interp.cache_stats, compiled.cache_stats,
        "{ctx}: cache stats"
    );
    assert_eq!(
        interp.distinct_keys, compiled.distinct_keys,
        "{ctx}: distinct keys"
    );
    assert_eq!(
        interp.entry_update_rates, compiled.entry_update_rates,
        "{ctx}: entry update rates"
    );
    assert_eq!(interp.window_s, compiled.window_s, "{ctx}: window");
    assert_eq!(interp, compiled, "{ctx}: full profile");
}

fn assert_stats_identical(a: BatchStats, b: BatchStats, ctx: &str) {
    // Bitwise, not approximate: both engines must apply every latency
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

/// A pair of single-worker NICs on the same program, one per engine.
fn nic_pair(g: &ProgramGraph, params: &CostParams, sample_every: u64) -> (SmartNic, SmartNic) {
    let mut interp = SmartNic::new(g.clone(), params.clone()).unwrap();
    interp.set_engine_mode(EngineMode::Interpreter);
    let mut compiled = SmartNic::new(g.clone(), params.clone()).unwrap();
    compiled.set_engine_mode(EngineMode::Compiled);
    if sample_every > 0 {
        interp.set_instrumentation(true, sample_every);
        compiled.set_instrumentation(true, sample_every);
    }
    (interp, compiled)
}

/// Single-worker differential: every packet traced through both engines;
/// reports, packet mutations, traces, profiles and histograms must all be
/// bit-identical.
fn assert_single_worker_identical(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &[Packet],
    sample_every: u64,
    ctx: &str,
) {
    let (mut interp, mut compiled) = nic_pair(g, params, sample_every);
    let mut ti = PacketTrace::default();
    let mut tc = PacketTrace::default();
    for (i, p) in batch.iter().enumerate() {
        let mut a = p.clone();
        let mut b = p.clone();
        let ra = interp.process_one_traced(&mut a, &mut ti);
        let rb = compiled.process_one_traced(&mut b, &mut tc);
        assert_reports_identical(&ra, &rb, &format!("{ctx}: packet {i}"));
        assert_eq!(a, b, "{ctx}: packet {i} contents diverged");
        assert_eq!(ti, tc, "{ctx}: packet {i} trace diverged");
    }
    assert_profiles_identical(
        &interp.take_profile(),
        &compiled.take_profile(),
        &format!("{ctx}: single worker"),
    );
    assert_eq!(
        interp.take_observations(),
        compiled.take_observations(),
        "{ctx}: observations diverged"
    );
}

/// Sharded differential across the worker matrix: merged batch stats,
/// merged profiles and merged histograms per engine must match.
fn assert_sharded_identical(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &[Packet],
    sample_every: u64,
    ctx: &str,
) {
    for workers in WORKER_COUNTS {
        let mut interp = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        interp.set_engine_mode(EngineMode::Interpreter);
        let mut compiled = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        compiled.set_engine_mode(EngineMode::Compiled);
        if sample_every > 0 {
            interp.set_instrumentation(true, sample_every);
            compiled.set_instrumentation(true, sample_every);
        }
        let ctx = format!("{ctx}: workers={workers}");
        assert_stats_identical(
            interp.measure(batch.to_vec()),
            compiled.measure(batch.to_vec()),
            &ctx,
        );
        assert_profiles_identical(&interp.take_profile(), &compiled.take_profile(), &ctx);
        assert_eq!(
            interp.take_observations(),
            compiled.take_observations(),
            "{ctx}: observations diverged"
        );
    }
}

fn example_programs() -> Vec<(String, ProgramGraph)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut out = Vec::new();
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/programs exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .map(|e| e.path())
        .collect();
    names.sort();
    for path in names {
        let text = std::fs::read_to_string(&path).unwrap();
        let g = json::from_json_string(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        out.push((path.file_stem().unwrap().to_string_lossy().into_owned(), g));
    }
    assert!(!out.is_empty(), "no example programs found");
    out
}

#[test]
fn example_programs_match_bit_for_bit() {
    let params = CostParams::bluefield2();
    for (name, g) in example_programs() {
        let batch = key_traffic(&g, 300, 0xE0 + name.len() as u64, 1_000);
        assert_single_worker_identical(&g, &params, &batch, 1, &format!("example {name}"));
        assert_sharded_identical(&g, &params, &batch, 1, &format!("example {name}"));
    }
}

#[test]
fn synth_seed_matrix_matches_bit_for_bit() {
    for &seed in &SYNTH_SEEDS {
        let cfg = SynthConfig {
            pipelets: 2 + (seed % 3) as usize,
            pipelet_len: 2 + (seed % 2) as usize,
            match_mix: if seed % 2 == 0 {
                MatchMix::default_mix()
            } else {
                MatchMix::all_exact()
            },
            drop_fraction: if seed.is_multiple_of(3) { 0.25 } else { 0.0 },
            write_fraction: 0.2,
            seed,
            ..SynthConfig::default()
        };
        let g = synthesize(&cfg);
        let params = if seed % 2 == 0 {
            CostParams::agilio_cx()
        } else {
            CostParams::emulated_nic()
        };
        let batch = key_traffic(&g, 500, seed * 101, 1_000);
        assert_single_worker_identical(&g, &params, &batch, 4, &format!("synth seed {seed}"));
        assert_sharded_identical(&g, &params, &batch, 4, &format!("synth seed {seed}"));
    }
}

#[test]
fn uninstrumented_runs_also_match() {
    // The raw datapath (what the throughput benchmark times) with
    // sampling entirely off.
    let g = synthesize(&SynthConfig {
        drop_fraction: 0.1,
        seed: 21,
        ..SynthConfig::default()
    });
    let params = CostParams::bluefield2();
    let batch = key_traffic(&g, 400, 9, 2_000);
    let (mut interp, mut compiled) = nic_pair(&g, &params, 0);
    let mut ba = batch.clone();
    let mut bb = batch;
    let ra = interp.process_batch(&mut ba);
    let rb = compiled.process_batch(&mut bb);
    assert_eq!(ra.len(), rb.len());
    for (i, (a, b)) in ra.iter().zip(&rb).enumerate() {
        assert_reports_identical(a, b, &format!("uninstrumented packet {i}"));
    }
    assert_eq!(ba, bb, "uninstrumented packet contents diverged");
}

/// Builds: cache(keys=[x]) -ByAction-> [hit -> sink, miss -> heavy -> sink]
/// — the same shape the optimizer's flow-cache plans deploy.
fn cached_flow_program() -> (ProgramGraph, NodeId) {
    let mut b = ProgramBuilder::new();
    let x = b.field("x");
    let y = b.field("y");
    let heavy = b
        .table("heavy")
        .key(x, MatchKind::Ternary)
        .action("mark", vec![Primitive::set(y, 1)])
        .default_action(0)
        .entry(TableEntry::with_priority(
            vec![MatchValue::Ternary {
                value: 0,
                mask: 0xF,
            }],
            0,
            1,
        ))
        .finish();
    b.set_next(heavy, None);
    let cache = b
        .table("cache")
        .key(x, MatchKind::Exact)
        .action_nop("hit")
        .action_nop("miss")
        .default_action(1)
        .cache_role(CacheRole::FlowCache)
        .max_entries(64)
        .by_action(vec![None, Some(heavy)])
        .finish();
    (b.seal(cache).unwrap(), cache)
}

#[test]
fn flow_cache_state_and_charges_match() {
    let (g, cache) = cached_flow_program();
    let params = CostParams::bluefield2();
    let (mut interp, mut compiled) = nic_pair(&g, &params, 2);
    // 96 distinct flows against a 64-entry LRU: misses, hits, replays
    // and evictions all occur. Process, flush, reprocess, then throttle
    // insertions and process once more.
    let packet = |i: u64| Packet::with_slots(vec![i % 96, 0]);
    let check = |interp: &mut SmartNic, compiled: &mut SmartNic, lo: u64, hi: u64, ctx: &str| {
        for i in lo..hi {
            let mut a = packet(i);
            let mut b = packet(i);
            let ra = interp.process_one(&mut a);
            let rb = compiled.process_one(&mut b);
            assert_reports_identical(&ra, &rb, &format!("{ctx}: packet {i}"));
            assert_eq!(a, b, "{ctx}: packet {i} contents diverged");
        }
        assert_eq!(
            interp.executor_mut().cache_len(cache),
            compiled.executor_mut().cache_len(cache),
            "{ctx}: cache occupancy diverged"
        );
    };
    check(&mut interp, &mut compiled, 0, 500, "warm");
    interp.flush_cache(cache);
    compiled.flush_cache(cache);
    assert_eq!(interp.executor_mut().cache_len(cache), 0);
    check(&mut interp, &mut compiled, 500, 900, "post-flush");
    interp.set_cache_insertion_limit(cache, 1.0);
    compiled.set_cache_insertion_limit(cache, 1.0);
    check(&mut interp, &mut compiled, 900, 1_200, "throttled");
    assert_profiles_identical(
        &interp.take_profile(),
        &compiled.take_profile(),
        "flow cache",
    );
    assert_eq!(
        interp.take_observations(),
        compiled.take_observations(),
        "flow cache: observations diverged"
    );
    // Per-shard caches behave identically too.
    let batch: Vec<Packet> = (0..1_500).map(packet).collect();
    assert_sharded_identical(&g, &params, &batch, 2, "flow cache");
}

/// Three exact tables in a chain, entries managed at runtime.
fn churn_program() -> (ProgramGraph, Vec<NodeId>) {
    let mut b = ProgramBuilder::new();
    let keys: Vec<FieldRef> = (0..3).map(|i| b.field(&format!("k{i}"))).collect();
    let out = b.field("out");
    let tables: Vec<NodeId> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            b.table(format!("t{i}"))
                .key(k, MatchKind::Exact)
                .action("set", vec![Primitive::set(out, i as u64 + 1)])
                .action_nop("pass")
                .default_action(1)
                .finish()
        })
        .collect();
    (b.seal(tables[0]).unwrap(), tables)
}

fn churn_packet(i: u64) -> Packet {
    Packet::with_slots(vec![i % 24, (i * 7) % 24, (i * 13) % 24, 0])
}

/// One deterministic entry op applied to both NICs in lock-step.
fn churn_op(
    rng: &mut Lcg,
    lens: &mut [usize],
    tables: &[NodeId],
    mut apply: impl FnMut(NodeId, Option<TableEntry>, usize),
) {
    let t = (rng.next() % tables.len() as u64) as usize;
    if lens[t] > 0 && rng.next().is_multiple_of(3) {
        let idx = (rng.next() % lens[t] as u64) as usize;
        apply(tables[t], None, idx);
        lens[t] -= 1;
    } else {
        let entry = TableEntry::new(vec![MatchValue::Exact(rng.next() % 24)], 0);
        apply(tables[t], Some(entry), 0);
        lens[t] += 1;
    }
}

#[test]
fn mid_stream_entry_churn_stays_identical() {
    let (g, tables) = churn_program();
    let params = CostParams::agilio_cx();
    let (mut interp, mut compiled) = nic_pair(&g, &params, 3);
    let mut rng = Lcg(0xDECAF);
    let mut lens = vec![0usize; tables.len()];
    let mut ops = 0u64;
    for chunk in 0..12u64 {
        let mut ba: Vec<Packet> = (0..96).map(|i| churn_packet(chunk * 96 + i)).collect();
        let mut bb = ba.clone();
        let ra = interp.process_batch(&mut ba);
        let rb = compiled.process_batch(&mut bb);
        for (i, (a, b)) in ra.iter().zip(&rb).enumerate() {
            assert_reports_identical(a, b, &format!("churn chunk {chunk} packet {i}"));
        }
        assert_eq!(ba, bb, "churn chunk {chunk}: packet contents diverged");
        for _ in 0..4 {
            churn_op(&mut rng, &mut lens, &tables, |table, entry, idx| {
                match entry {
                    Some(e) => {
                        interp.insert_entry(table, e.clone()).unwrap();
                        compiled.insert_entry(table, e).unwrap();
                    }
                    None => {
                        let a = interp.remove_entry(table, idx).unwrap();
                        let b = compiled.remove_entry(table, idx).unwrap();
                        assert_eq!(a, b, "removed different entries");
                    }
                }
                ops += 1;
            });
        }
    }
    assert_profiles_identical(&interp.take_profile(), &compiled.take_profile(), "churn");
    assert_eq!(
        interp.take_observations(),
        compiled.take_observations(),
        "churn: observations diverged"
    );
    // The compiled engine must have patched tables in place, never
    // recompiled the whole pipeline.
    let (full, patched) = compiled.executor_mut().compile_stats();
    assert_eq!(full, 1, "entry churn must not trigger full recompiles");
    assert_eq!(patched, ops, "every entry op patches exactly one node");
    assert_eq!(interp.executor_mut().compile_stats(), (0, 0));
}

/// Everything observable about one chaos-fault controller run.
#[derive(Debug, PartialEq)]
struct ChaosSignature {
    ticks: Vec<(bool, bool)>,
    reconfigs: usize,
    fingerprint: u64,
    faults: u64,
    health: (u64, u64, u64, bool, bool),
    probe_bits: Vec<(u64, bool)>,
}

/// Runs the chaos-controller loop (fault injection + entry churn + drifting
/// traffic) on one engine and captures every externally visible outcome.
fn chaos_signature(seed: u64, mode: EngineMode) -> ChaosSignature {
    let p = AclPipeline::build(3, 3);
    let mut nic = SmartNic::new(p.graph.clone(), CostParams::bluefield2()).unwrap();
    nic.set_engine_mode(mode);
    nic.set_instrumentation(true, 1);
    let optimizer = Optimizer::new(CostModel::new(CostParams::bluefield2()));
    let mut target = FaultyTarget::new(SimTarget::live(nic), FaultConfig::chaos(seed));
    target.set_armed(false);
    let mut c = Controller::new(
        target,
        p.graph.clone(),
        optimizer,
        ControllerConfig::default(),
    )
    .expect("construction is fault-free");
    c.target.set_armed(true);
    let mut rng = Lcg(seed ^ 0xC0FFEE);
    let mut ticks = Vec::new();
    for w in 0..5u64 {
        let n = p.acls.len();
        let mut rates = vec![0.0; n];
        rates[(seed as usize + w as usize) % n] = 0.6;
        let mut gen = p.traffic(&rates, 300, seed * 1000 + w);
        for mut pkt in gen.batch(2_000) {
            c.target.inner.nic.process_one(&mut pkt);
        }
        let ti = (rng.next() % n as u64) as usize;
        let value = 0x3_0000 + seed * 0x100 + w;
        match c.insert_entry(
            p.acls[ti],
            TableEntry::new(vec![MatchValue::Exact(value)], 1),
        ) {
            Ok(()) | Err(RuntimeError::EntryOpFailed { .. }) => {}
            Err(e) => panic!("seed {seed}: unexpected insert error: {e}"),
        }
        let r = c.tick().unwrap();
        ticks.push((r.deployed, r.health.pin_pending));
    }
    // Healing tick with faults disarmed, then probe the deployed state.
    c.target.set_armed(false);
    let mut gen = p.traffic(&[0.2, 0.2, 0.2], 300, seed * 7919);
    for mut pkt in gen.batch(1_000) {
        c.target.inner.nic.process_one(&mut pkt);
    }
    let _ = c.tick().unwrap();
    let mut probe_bits = Vec::new();
    let mut gen = p.traffic(&[0.3, 0.0, 0.3], 200, seed * 31);
    for mut pkt in gen.batch(500) {
        let r = c.target.inner.nic.process_one(&mut pkt);
        probe_bits.push((r.latency_ns.to_bits(), r.dropped));
    }
    let h = c.health().clone();
    ChaosSignature {
        ticks,
        reconfigs: c.reconfig_count,
        fingerprint: c.target.fingerprint().unwrap(),
        faults: c.target.fault_count(),
        health: (
            h.deploy_retries,
            h.rollbacks,
            h.profile_losses,
            h.degraded,
            h.pin_pending,
        ),
        probe_bits,
    }
}

#[test]
fn chaos_runs_are_engine_invariant() {
    // The controller only sees profiles and stats; since both engines
    // report bit-identical telemetry, every decision — deploys, retries,
    // rollbacks, breaker state, the final deployed layout — must be the
    // same whichever engine the NIC runs.
    for &seed in &SYNTH_SEEDS[..4] {
        let interp = chaos_signature(seed, EngineMode::Interpreter);
        let compiled = chaos_signature(seed, EngineMode::Compiled);
        assert_eq!(interp, compiled, "seed {seed}: chaos runs diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Incremental-recompile soundness: an executor that compiled early
    /// and patched tables per entry op must be indistinguishable from one
    /// that compiles the final program from scratch after the ops.
    #[test]
    fn recompile_after_entry_ops_matches_scratch_compile(
        ops in prop::collection::vec((0usize..3, 0u64..64), 1..24),
        traffic_seed in 0u64..1_000,
    ) {
        let (g, tables) = churn_program();
        let params = CostParams::bluefield2();
        let mut patched = Executor::new(g.clone(), params.clone()).unwrap();
        patched.set_engine_mode(EngineMode::Compiled);
        // `scratch` interprets the warm phase, so its ops land while no
        // compiled pipeline exists; switching modes afterwards forces one
        // full compile of the final graph.
        let mut scratch = Executor::new(g, params).unwrap();
        scratch.set_engine_mode(EngineMode::Interpreter);
        patched.set_instrumentation(true, 2);
        scratch.set_instrumentation(true, 2);
        for i in 0..64u64 {
            let mut a = churn_packet(traffic_seed + i);
            let mut b = a.clone();
            let ra = patched.process(&mut a);
            let rb = scratch.process(&mut b);
            prop_assert_eq!(ra, rb, "warm packet {} diverged", i);
        }
        let mut lens = vec![0usize; tables.len()];
        for &(t, k) in &ops {
            if lens[t] > 0 && k.is_multiple_of(3) {
                let idx = (k as usize) % lens[t];
                patched.remove_entry(tables[t], idx).unwrap();
                scratch.remove_entry(tables[t], idx).unwrap();
                lens[t] -= 1;
            } else {
                let e = TableEntry::new(vec![MatchValue::Exact(k % 24)], 0);
                patched.insert_entry(tables[t], e.clone()).unwrap();
                scratch.insert_entry(tables[t], e).unwrap();
                lens[t] += 1;
            }
        }
        scratch.set_engine_mode(EngineMode::Compiled);
        for i in 0..128u64 {
            let mut a = churn_packet(traffic_seed * 31 + i);
            let mut b = a.clone();
            let ra = patched.process(&mut a);
            let rb = scratch.process(&mut b);
            prop_assert_eq!(ra.latency_ns.to_bits(), rb.latency_ns.to_bits(),
                "post-op packet {} latency diverged", i);
            prop_assert_eq!(ra, rb, "post-op packet {} diverged", i);
            prop_assert_eq!(&a, &b, "post-op packet {} contents diverged", i);
        }
        prop_assert_eq!(patched.take_profile(), scratch.take_profile());
        // The patched executor compiled once and patched per op; the
        // scratch executor compiled once, after the ops, and never patched.
        let (pf, pr) = patched.compile_stats();
        prop_assert_eq!(pf, 1, "patching must never fall back to a full recompile");
        prop_assert_eq!(pr, ops.len() as u64);
        prop_assert_eq!(scratch.compile_stats(), (1, 0));
    }

    /// Live-reconfiguration convergence: interleaving entry patches with
    /// a full generation swap — in either order, published mid-flight on
    /// the run-loop datapath — must land on the same program a scratch
    /// build of "swap target + post-swap ops" describes. `split == 0` is
    /// swap-then-patch; `split >= ops.len()` is patch-then-swap; anything
    /// between mixes both around the swap.
    #[test]
    fn live_patch_and_swap_converge_to_scratch(
        ops in prop::collection::vec((0usize..3, 0u64..64), 1..16),
        split in 0usize..16,
        swap_key in 0u64..24,
        traffic_seed in 0u64..1_000,
    ) {
        let (g, tables) = churn_program();
        let params = CostParams::bluefield2();
        let split = split.min(ops.len());
        // The swap target: the base program plus one rule on t0. A full
        // deploy replaces the whole program, so pre-swap ops are wiped.
        let mut swapped = g.clone();
        swapped
            .node_mut(tables[0])
            .unwrap()
            .as_table_mut()
            .unwrap()
            .entries
            .push(TableEntry::new(vec![MatchValue::Exact(swap_key)], 0));

        let mut live =
            ShardedNic::new(g.clone(), params.clone(), 2).unwrap();
        live.set_live_reconfig(true);
        let mut sync = SmartNic::new(g, params.clone()).unwrap();
        // `expected` is built purely from the op list, no datapath: the
        // swap target with the post-swap ops applied to its tables.
        let mut expected = swapped.clone();

        let mut lens = vec![0usize; tables.len()];
        let apply = |live: &mut ShardedNic,
                         sync: &mut SmartNic,
                         expected: &mut pipeleon_ir::ProgramGraph,
                         lens: &mut Vec<usize>,
                         after_swap: bool,
                         t: usize,
                         k: u64|
         -> Result<(), TestCaseError> {
            if lens[t] > 0 && k.is_multiple_of(3) {
                let idx = (k as usize) % lens[t];
                let a = live.remove_entry(tables[t], idx).unwrap();
                let b = sync.remove_entry(tables[t], idx).unwrap();
                prop_assert_eq!(a, b, "removed different entries");
                if after_swap {
                    expected
                        .node_mut(tables[t])
                        .unwrap()
                        .as_table_mut()
                        .unwrap()
                        .entries
                        .remove(idx);
                }
                lens[t] -= 1;
            } else {
                let e = TableEntry::new(vec![MatchValue::Exact(k % 24)], 0);
                live.insert_entry(tables[t], e.clone()).unwrap();
                sync.insert_entry(tables[t], e.clone()).unwrap();
                if after_swap {
                    expected
                        .node_mut(tables[t])
                        .unwrap()
                        .as_table_mut()
                        .unwrap()
                        .entries
                        .push(e);
                }
                lens[t] += 1;
            }
            Ok(())
        };

        live.measure_begin();
        let mut fed = 0u64;
        let feed = |live: &mut ShardedNic, fed: &mut u64, n: u64| {
            live.measure_feed((0..8u64).map(|i| churn_packet(traffic_seed + n * 8 + i)));
            *fed += 8;
        };
        feed(&mut live, &mut fed, 0);
        for (i, &(t, k)) in ops[..split].iter().enumerate() {
            apply(&mut live, &mut sync, &mut expected, &mut lens, false, t, k)?;
            feed(&mut live, &mut fed, 1 + i as u64);
        }
        // The generation swap, mid-window on the live datapath.
        live.deploy(swapped.clone()).unwrap();
        sync.deploy(swapped).unwrap();
        lens.iter_mut().for_each(|l| *l = 0);
        lens[0] = 1;
        feed(&mut live, &mut fed, 100);
        for (i, &(t, k)) in ops[split..].iter().enumerate() {
            apply(&mut live, &mut sync, &mut expected, &mut lens, true, t, k)?;
            feed(&mut live, &mut fed, 101 + i as u64);
        }
        let stats = live.measure_end();
        prop_assert_eq!(stats.packets, fed, "live run lost packets");

        // Convergence: control plane, every quiesced shard, the
        // synchronous reference, and the scratch-built program all
        // fingerprint identically.
        let want = graph_fingerprint(&expected);
        prop_assert_eq!(graph_fingerprint(live.graph()), want, "live control graph");
        prop_assert_eq!(graph_fingerprint(sync.graph()), want, "synchronous reference");
        for (i, sg) in live.shard_graphs().iter().enumerate() {
            prop_assert_eq!(graph_fingerprint(sg), want, "shard {} graph", i);
        }
        // And behaviorally: probes through the live datapath match a NIC
        // compiled from scratch off the expected program.
        let mut scratch = SmartNic::new(expected, params).unwrap();
        for i in 0..64u64 {
            let mut a = churn_packet(traffic_seed * 131 + i);
            let mut b = a.clone();
            let ra = live.process_one(&mut a);
            let rb = scratch.process_one(&mut b);
            prop_assert_eq!(ra.dropped, rb.dropped, "probe {} forwarding diverged", i);
            prop_assert_eq!(&a, &b, "probe {} mutations diverged", i);
        }
    }
}
