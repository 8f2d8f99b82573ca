//! Differential suite for live reconfiguration: epoch/RCU program swaps
//! published concurrently with packet flow on the run-loop sharded
//! datapath.
//!
//! # The invariant set
//!
//! 1. **Zero loss:** every packet fed into a measurement window that
//!    spans swaps is processed — reconfiguration never drops or stalls
//!    traffic.
//! 2. **Atomic attribution:** each packet executes under exactly one
//!    generation — the one current at its dispatch position — so
//!    generation packet counts are an exact function of the input
//!    stream, identical for any worker count.
//! 3. **Synchronous equivalence:** a live run (swaps and entry patches
//!    published mid-flight) merges the same profiles and histograms as a
//!    single-threaded [`SmartNic`] applying the same control ops at the
//!    same stream positions synchronously, for workers 1/2/8.
//! 4. **Deterministic state transitions:** flow-cache state resets at
//!    the adoption boundary, per flow, so cache statistics and final
//!    occupancy are reproducible and worker-count-invariant.
//! 5. **Chaos convergence:** faults injected *during* mid-flight swaps
//!    still converge to the controller's last-known-good layout, with
//!    every shard running it, zero packets lost, and the rollback
//!    visible in `health` and the journal.

use std::collections::BTreeMap;

use pipeleon::search::Optimizer;
use pipeleon_cost::{CacheStats, CostModel, CostParams, RuntimeProfile};
use pipeleon_ir::{
    CacheRole, MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder, ProgramGraph, TableEntry,
};
use pipeleon_runtime::{
    graph_fingerprint, Controller, ControllerConfig, FaultConfig, FaultyTarget, InjectedFault,
    RuntimeError, SimTarget, Target,
};
use pipeleon_sim::{BatchStats, ExecObservations, Packet, SampleKeying, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::AclPipeline;

/// 1 is the degenerate shard, 2 the smallest real split, 8 more shards
/// than distinct flows in some phases.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Segments per measurement window; a swap is published between every
/// pair, so each run sees `SEGMENTS - 1 = 8` mid-window swaps.
const SEGMENTS: usize = 9;
const SEGMENT_PACKETS: u64 = 400;

/// Three exact-match tables whose `set` actions write distinct values —
/// generation attribution errors surface as action-counter divergence.
fn swap_program() -> (ProgramGraph, Vec<NodeId>) {
    let mut b = ProgramBuilder::new();
    let keys: Vec<_> = (0..3).map(|i| b.field(&format!("k{i}"))).collect();
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

fn swap_packet(i: u64) -> Packet {
    Packet::with_slots(vec![i % 24, (i * 7) % 24, (i * 13) % 24, 0])
}

/// Program variant `j` (1-based): the base plus one extra rule, on a
/// table and key that vary with `j`, so every swap changes forwarding.
fn swap_variant(base: &ProgramGraph, tables: &[NodeId], j: u64) -> ProgramGraph {
    let mut g = base.clone();
    let t = tables[(j % 3) as usize];
    g.node_mut(t)
        .unwrap()
        .as_table_mut()
        .unwrap()
        .entries
        .push(TableEntry::new(vec![MatchValue::Exact((j * 2) % 24)], 0));
    g
}

/// Counter-by-counter profile comparison, so a regression names the
/// first diverging counter instead of dumping two whole profiles.
fn assert_profiles_identical(a: &RuntimeProfile, b: &RuntimeProfile, ctx: &str) {
    assert_eq!(a.total_packets, b.total_packets, "{ctx}: total_packets");
    let mut ae: Vec<_> = a.edges().collect();
    let mut be: Vec<_> = b.edges().collect();
    ae.sort();
    be.sort();
    assert_eq!(ae, be, "{ctx}: edge counters");
    let mut aa: Vec<_> = a.actions().collect();
    let mut ba: Vec<_> = b.actions().collect();
    aa.sort();
    ba.sort();
    assert_eq!(aa, ba, "{ctx}: action counters");
    assert_eq!(a.cache_stats, b.cache_stats, "{ctx}: cache stats");
    assert_eq!(a.distinct_keys, b.distinct_keys, "{ctx}: distinct keys");
    assert_eq!(a, b, "{ctx}: full profile");
}

/// One live run: a single measurement window fed in [`SEGMENTS`] chunks,
/// with a full program swap published after every chunk but the last.
fn live_swap_run(
    workers: usize,
) -> (
    BatchStats,
    RuntimeProfile,
    ExecObservations,
    BTreeMap<u64, u64>,
    u64,
) {
    let (g, tables) = swap_program();
    let params = CostParams::bluefield2();
    let mut nic = ShardedNic::new(g.clone(), params, workers).unwrap();
    nic.set_instrumentation(true, 1);
    nic.measure_begin();
    for s in 0..SEGMENTS as u64 {
        let base = s * SEGMENT_PACKETS;
        nic.measure_feed((0..SEGMENT_PACKETS).map(|i| swap_packet(base + i)));
        if s + 1 < SEGMENTS as u64 {
            nic.deploy(swap_variant(&g, &tables, s + 1)).unwrap();
        }
    }
    let stats = nic.measure_end();
    let counts = nic.generation_counts();
    let last_gen = nic.last_swap().map_or(0, |s| s.generation);
    (
        stats,
        nic.take_profile(),
        nic.take_observations(),
        counts,
        last_gen,
    )
}

/// The synchronous single-threaded reference for the same stream: a
/// [`SmartNic`] deploys (in place, window carried over) at exactly the
/// same stream positions.
fn smart_swap_reference() -> (BatchStats, RuntimeProfile, ExecObservations) {
    let (g, tables) = swap_program();
    let mut nic = SmartNic::new(g.clone(), CostParams::bluefield2()).unwrap();
    nic.set_instrumentation(true, 1);
    nic.measure_begin();
    for s in 0..SEGMENTS as u64 {
        let base = s * SEGMENT_PACKETS;
        nic.measure_feed((0..SEGMENT_PACKETS).map(|i| swap_packet(base + i)));
        if s + 1 < SEGMENTS as u64 {
            nic.deploy(swap_variant(&g, &tables, s + 1)).unwrap();
        }
    }
    let stats = nic.measure_end();
    (stats, nic.take_profile(), nic.take_observations())
}

#[test]
fn mid_window_swaps_lose_nothing_and_attribute_exactly() {
    let total = SEGMENTS as u64 * SEGMENT_PACKETS;
    let (want_stats, want_profile, want_obs) = smart_swap_reference();
    assert_eq!(want_stats.packets, total, "reference lost packets");
    let mut baseline: Option<BTreeMap<u64, u64>> = None;
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        let (stats, profile, obs, counts, last_gen) = live_swap_run(workers);
        // Invariant 1: the window spans 8 swaps and drops nothing.
        assert_eq!(stats.packets, total, "{ctx}: packets lost across swaps");
        assert_eq!(last_gen, SEGMENTS as u64 - 1, "{ctx}: swap count");
        // Invariant 2: attribution is exact — segment `s` was dispatched
        // after `s` publishes, so it ran under generation `s`, whole.
        assert_eq!(counts.len(), SEGMENTS, "{ctx}: distinct generations");
        for s in 0..SEGMENTS as u64 {
            assert_eq!(
                counts.get(&s),
                Some(&SEGMENT_PACKETS),
                "{ctx}: generation {s} packet count"
            );
        }
        assert_eq!(
            counts.values().sum::<u64>(),
            total,
            "{ctx}: attribution must partition the stream"
        );
        match &baseline {
            None => baseline = Some(counts),
            Some(b) => assert_eq!(b, &counts, "{ctx}: attribution drifted with workers"),
        }
        // Invariant 3: merged telemetry matches the synchronous
        // reference bit-for-bit.
        assert_profiles_identical(&want_profile, &profile, &ctx);
        assert_eq!(want_obs, obs, "{ctx}: merged histograms diverged");
    }
    // Same seeded run twice at the same worker count: every statistic,
    // float bits included, must reproduce.
    let (s1, p1, o1, c1, _) = live_swap_run(2);
    let (s2, p2, o2, c2, _) = live_swap_run(2);
    assert_eq!(s1.mean_latency_ns.to_bits(), s2.mean_latency_ns.to_bits());
    assert_eq!(s1.p99_latency_ns.to_bits(), s2.p99_latency_ns.to_bits());
    assert_eq!(s1, s2, "rerun: stats not reproducible");
    assert_eq!(p1, p2, "rerun: profile not reproducible");
    assert_eq!(o1, o2, "rerun: observations not reproducible");
    assert_eq!(c1, c2, "rerun: attribution not reproducible");
}

/// Deterministic op-mix generator for the patch stream.
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

#[test]
fn live_entry_patches_match_synchronous_smartnic() {
    let (g, tables) = swap_program();
    let params = CostParams::bluefield2();
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        let mut live = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        live.set_instrumentation(true, 1);
        let mut sync = SmartNic::new(g.clone(), params.clone()).unwrap();
        sync.set_instrumentation(true, 1);
        let mut rng = Lcg(0xBEEF ^ workers as u64);
        let mut lens = vec![0usize; tables.len()];
        live.measure_begin();
        sync.measure_begin();
        let mut fed = 0u64;
        for chunk in 0..12u64 {
            let base = chunk * 200;
            live.measure_feed((0..200).map(|i| swap_packet(base + i)));
            sync.measure_feed((0..200).map(|i| swap_packet(base + i)));
            fed += 200;
            // One patch between chunks: it publishes as a delta on the
            // live datapath, applies synchronously on the reference.
            let t = (rng.next() % tables.len() as u64) as usize;
            if lens[t] > 0 && rng.next().is_multiple_of(3) {
                let idx = (rng.next() % lens[t] as u64) as usize;
                let a = live.remove_entry(tables[t], idx).unwrap();
                let b = sync.remove_entry(tables[t], idx).unwrap();
                assert_eq!(a, b, "{ctx}: removed different entries");
                lens[t] -= 1;
            } else if chunk == 6 {
                // Exercise the replace-table delta once per run.
                let mut table = sync
                    .graph()
                    .node(tables[t])
                    .unwrap()
                    .as_table()
                    .unwrap()
                    .clone();
                table
                    .entries
                    .push(TableEntry::new(vec![MatchValue::Exact(23)], 0));
                live.replace_table(tables[t], table.clone(), None).unwrap();
                sync.replace_table(tables[t], table, None).unwrap();
                lens[t] = sync
                    .graph()
                    .node(tables[t])
                    .unwrap()
                    .as_table()
                    .unwrap()
                    .entries
                    .len();
            } else {
                let e = TableEntry::new(vec![MatchValue::Exact(rng.next() % 24)], 0);
                live.insert_entry(tables[t], e.clone()).unwrap();
                sync.insert_entry(tables[t], e).unwrap();
                lens[t] += 1;
            }
        }
        let ls = live.measure_end();
        let ss = sync.measure_end();
        assert_eq!(ls.packets, fed, "{ctx}: live run lost packets");
        assert_eq!(ss.packets, fed, "{ctx}: reference lost packets");
        assert_profiles_identical(&sync.take_profile(), &live.take_profile(), &ctx);
        assert_eq!(
            sync.take_observations(),
            live.take_observations(),
            "{ctx}: merged histograms diverged"
        );
        // Control plane and every quiesced shard converged to the same
        // patched program as the synchronous reference.
        let want = graph_fingerprint(sync.graph());
        assert_eq!(
            graph_fingerprint(live.graph()),
            want,
            "{ctx}: control graph diverged"
        );
        for (i, sg) in live.shard_graphs().iter().enumerate() {
            assert_eq!(
                graph_fingerprint(sg),
                want,
                "{ctx}: shard {i} did not converge"
            );
        }
    }
}

/// cache(keys=[x]) -ByAction-> [hit -> sink, miss -> heavy -> sink]:
/// per-shard LRU state makes swap-boundary placement observable.
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
fn flow_cache_resets_at_the_adoption_boundary_deterministically() {
    // Phase 1 touches 48 flows (eviction-free under the 64-entry cache),
    // a swap of the same program resets the cache at each shard's
    // adoption boundary, phase 2 touches only 12 flows. Final occupancy
    // proves the reset; profile equality across worker counts proves the
    // boundary falls at the same per-flow stream position everywhere.
    let (g, cache) = cached_flow_program();
    let params = CostParams::bluefield2();
    let run = |workers: usize| {
        let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        nic.set_instrumentation(true, 1);
        nic.measure_begin();
        nic.measure_feed((0..1200u64).map(|i| Packet::with_slots(vec![(i * 7) % 48, 0])));
        nic.deploy(g.clone()).unwrap();
        nic.measure_feed((0..600u64).map(|i| Packet::with_slots(vec![i % 12, 0])));
        let stats = nic.measure_end();
        let occupancy = nic.cache_len(cache);
        (
            stats,
            nic.take_profile(),
            nic.take_observations(),
            occupancy,
        )
    };
    let mut want: Option<(RuntimeProfile, ExecObservations)> = None;
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        let (stats, profile, obs, occupancy) = run(workers);
        assert_eq!(stats.packets, 1800, "{ctx}: packets lost across the swap");
        assert_eq!(
            occupancy, 12,
            "{ctx}: the swap must have reset the flow cache"
        );
        match &want {
            None => want = Some((profile, obs)),
            Some((p, o)) => {
                assert_profiles_identical(p, &profile, &ctx);
                assert_eq!(o, &obs, "{ctx}: histograms diverged");
            }
        }
    }
    // Reproducibility at a fixed worker count, stats bits included.
    let (s1, p1, o1, l1) = run(2);
    let (s2, p2, o2, l2) = run(2);
    assert_eq!(s1, s2, "rerun: stats not reproducible");
    assert_eq!((p1, o1, l1), (p2, o2, l2), "rerun: state not reproducible");
}

/// Non-program operations land after every published generation: a
/// cache insertion limit set right after a deploy survives that deploy's
/// adoption on every shard, as it does on [`SmartNic`]. Each shard owns a
/// full insertion budget, so the reference is one `SmartNic` per
/// `flow_hash % workers` partition.
#[test]
fn cache_limit_set_after_a_deploy_survives_its_adoption() {
    const LIMIT_PER_S: f64 = 1_000.0;
    let (g, cache) = cached_flow_program();
    let params = CostParams::bluefield2();
    let batch: Vec<Packet> = (0..4000u64)
        .map(|i| Packet::with_slots(vec![i % 1000, 0]))
        .collect();
    for workers in WORKER_COUNTS {
        let ctx = format!("workers={workers}");
        let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        nic.set_instrumentation(true, 1);
        nic.deploy(g.clone()).unwrap();
        nic.set_cache_insertion_limit(cache, LIMIT_PER_S);
        assert_eq!(nic.measure(batch.clone()).packets, 4000, "{ctx}");
        let got = nic.take_profile().cache_stats[&cache];
        let mut want = CacheStats::default();
        for part in 0..workers as u64 {
            let mut r = SmartNic::new(g.clone(), params.clone()).unwrap();
            r.set_sample_keying(SampleKeying::FlowKeyed);
            r.set_instrumentation(true, 1);
            r.deploy(g.clone()).unwrap();
            r.set_cache_insertion_limit(cache, LIMIT_PER_S);
            r.measure(
                batch
                    .iter()
                    .filter(|p| p.flow_hash() % workers as u64 == part)
                    .cloned(),
            );
            let s = r.take_profile().cache_stats[&cache];
            want.hits += s.hits;
            want.misses += s.misses;
            want.insertions += s.insertions;
        }
        assert_eq!(got, want, "{ctx}: cache statistics");
        assert!(
            got.insertions < 20 * workers as u64,
            "{ctx}: the limit must bind: {got:?}"
        );
    }
}

/// Deterministic op-mix for the chaos run's entry churn.
fn chaos_churn<T: Target>(c: &mut Controller<T>, p: &AclPipeline, rng: &mut Lcg, value: u64) {
    let ti = (rng.next() % p.acls.len() as u64) as usize;
    match c.insert_entry(
        p.acls[ti],
        TableEntry::new(vec![MatchValue::Exact(value)], 1),
    ) {
        Ok(()) | Err(RuntimeError::EntryOpFailed { .. }) => {}
        Err(e) => panic!("unexpected insert error: {e}"),
    }
}

#[test]
fn chaos_faults_during_mid_flight_swaps_converge_to_last_known_good() {
    let mut total_rollback_signals = 0u64;
    for &seed in &[1u64, 3, 8, 21] {
        let p = AclPipeline::build(3, 3);
        let mut nic = ShardedNic::new(p.graph.clone(), CostParams::bluefield2(), 4).unwrap();
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
        let mut rng = Lcg(seed ^ 0xc0ffee);
        let (mut offered, mut processed) = (0u64, 0u64);
        // A window here keeps its traffic in flight across the
        // controller tick: every deploy, retry, and rollback the tick
        // performs publishes as a generation swap under live load.
        let live_window = |c: &mut Controller<FaultyTarget<SimTarget<ShardedNic>>>,
                           w: u64,
                           offered: &mut u64,
                           processed: &mut u64|
         -> pipeleon_runtime::TickReport {
            let n = p.acls.len();
            let mut rates = vec![0.0; n];
            rates[(seed as usize + w as usize) % n] = 0.6;
            let mut gen = p.traffic(&rates, 400, seed * 1000 + w);
            let batch = gen.batch(2_400);
            let mid = batch.len() / 2;
            c.target.inner.nic.measure_begin();
            c.target.inner.nic.measure_feed(batch[..mid].to_vec());
            let r = c
                .tick()
                .unwrap_or_else(|e| panic!("seed {seed}: tick {w} failed: {e}"));
            c.target.inner.nic.measure_feed(batch[mid..].to_vec());
            let s = c.target.inner.nic.measure_end();
            *offered += batch.len() as u64;
            *processed += s.packets;
            r
        };
        for w in 0..6u64 {
            chaos_churn(&mut c, &p, &mut rng, 0x4_0000 + seed * 0x100 + w);
            let _ = live_window(&mut c, w, &mut offered, &mut processed);
        }
        // Healing: faults off, still under live traffic; the controller
        // must converge (pin_pending clears) within a few windows.
        c.target.set_armed(false);
        let mut converged = !c.health().pin_pending;
        for w in 6..11u64 {
            if converged {
                break;
            }
            let r = live_window(&mut c, w, &mut offered, &mut processed);
            converged = !r.health.pin_pending;
        }
        assert!(converged, "seed {seed}: pin_pending never cleared");
        // Invariant 1 under chaos: reconfiguration, retries and
        // rollbacks included, never cost a packet.
        assert_eq!(
            processed, offered,
            "seed {seed}: packets lost during chaotic live swaps"
        );
        // Convergence: the control plane verifiably runs last-known-good
        // and every quiesced shard runs the same program.
        let want = graph_fingerprint(c.last_known_good());
        assert_eq!(
            c.target.fingerprint(),
            Some(want),
            "seed {seed}: target diverged from controller bookkeeping"
        );
        let _ = c.target.inner.nic.measure(Vec::new());
        for (i, sg) in c.target.inner.nic.shard_graphs().iter().enumerate() {
            assert_eq!(
                graph_fingerprint(sg),
                want,
                "seed {seed}: shard {i} did not converge to last-known-good"
            );
        }
        // Every deploy-class fault that fired forced at least a retry,
        // and the health report must say so.
        let deploy_faults = c
            .target
            .op_log()
            .iter()
            .filter(|r| {
                matches!(
                    r.fault,
                    Some(InjectedFault::DeployReject) | Some(InjectedFault::TornDeployStale)
                )
            })
            .count() as u64;
        if deploy_faults > 0 {
            assert!(
                c.health().deploy_retries > 0,
                "seed {seed}: {deploy_faults} deploy faults fired but health shows no retries"
            );
        }
        total_rollback_signals += c.health().rollbacks + c.health().deploy_retries;
        // The journal interleaves the swaps with the faults: live
        // deploys must have been recorded as generation_swap events.
        let jsonl = c.journal().to_jsonl();
        assert!(
            jsonl.contains("\"type\":\"generation_swap\""),
            "seed {seed}: no generation swaps journaled"
        );
    }
    assert!(
        total_rollback_signals > 0,
        "the chaos mix never exercised a deploy retry or rollback"
    );
}
