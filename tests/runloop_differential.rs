//! Differential suite for the run-loop sharded datapath: a
//! [`ShardedNic`] (persistent workers fed by SPSC rings, merge deferred
//! to window boundaries) against the single-threaded [`SmartNic`]
//! reference, over the example programs, the DASH routing and ACL
//! scenarios, and an 8-seed synthetic matrix at workers 1/2/8.
//!
//! # The invariant set
//!
//! Global arrival interleaving is *intentionally relaxed* by the
//! run-loop model, so "identical" is asserted per invariant class:
//!
//! **Exact (asserted bitwise):**
//! 1. Final forwarding decisions and packet mutations, packet-for-packet
//!    in input order.
//! 2. Per-flow packet order — asserted through a stateful flow-cache
//!    program where any reordering within a flow flips hit/miss
//!    patterns and thus reports. Flow-cache state is shard-local, so
//!    the reference there is one [`SmartNic`] per shard, each fed its
//!    `flow_hash % workers` partition in arrival order.
//! 3. Integer batch statistics: packet, drop, migration and
//!    counter-update counts.
//! 4. The p99 latency — reduced from the merged latency multiset, which
//!    is partition-invariant, so it matches the reference bit-for-bit.
//! 5. Window-merged profiles and latency histograms at
//!    `sample_every == 1` (every packet sampled ⇒ the sampled set is
//!    trivially schedule-independent).
//! 6. Window-merged profiles and histograms across *worker counts* at
//!    any `sample_every`, window after window: run-loop sampling is
//!    flow-keyed ([`SampleKeying::FlowKeyed`]), so the sampled set
//!    depends only on `(flow, per-flow index)` — the single-threaded
//!    reference is a [`SmartNic`] with flow-keyed sampling. The same
//!    holds packet-for-packet through `process_one`.
//!
//! **Relaxed (asserted within tolerance):**
//! 7. Mean latency and throughput — float sums accumulated per shard
//!    and merged in shard order, so only summation order differs from
//!    the reference.
//!
//! Invariant 6 is also the satellite regression for the old
//! shared-arrival-index coupling: per-shard sequence stamping must not
//! skew which packets the `LatencyHistogram`s sample, for any worker
//! count.

use pipeleon_cost::{CostParams, RuntimeProfile};
use pipeleon_ir::{
    json, CacheRole, MatchKind, MatchValue, NodeId, Primitive, ProgramBuilder, ProgramGraph,
    TableEntry,
};
use pipeleon_sim::{BatchStats, ExecObservations, Packet, SampleKeying, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::{AclPipeline, DashRouting};
use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};
use pipeleon_workloads::traffic::FlowGen;

/// 1 is the degenerate shard, 2 the smallest real split, 8 more shards
/// than distinct flows in some phases.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Same fixed seed matrix CI runs for the chaos and compiled suites.
const SYNTH_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// Relative tolerance for the order-relaxed float aggregates. Summation
/// order only perturbs the last ULPs; anything past 1e-9 relative is a
/// real divergence, not reassociation.
const FLOAT_RTOL: f64 = 1e-9;

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

fn example_programs() -> Vec<(String, ProgramGraph)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/programs exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .map(|e| e.path())
        .collect();
    names.sort();
    let mut out = Vec::new();
    for path in names {
        let text = std::fs::read_to_string(&path).unwrap();
        let g = json::from_json_string(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        out.push((path.file_stem().unwrap().to_string_lossy().into_owned(), g));
    }
    assert!(!out.is_empty(), "no example programs found");
    out
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
    assert_eq!(
        a.entry_update_rates, b.entry_update_rates,
        "{ctx}: entry update rates"
    );
    assert_eq!(a.window_s, b.window_s, "{ctx}: window");
    assert_eq!(a, b, "{ctx}: full profile");
}

fn assert_close(a: f64, b: f64, ctx: &str) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= FLOAT_RTOL * scale,
        "{ctx}: {a} vs {b} beyond reassociation tolerance"
    );
}

/// Histogram-by-histogram observation comparison: the packet-level
/// histogram, the instrumented table set, each per-table histogram, then
/// everything.
fn assert_observations_identical(a: &ExecObservations, b: &ExecObservations, ctx: &str) {
    assert_eq!(
        a.packet_latency, b.packet_latency,
        "{ctx}: packet latency histogram"
    );
    assert_eq!(
        a.per_table.keys().collect::<Vec<_>>(),
        b.per_table.keys().collect::<Vec<_>>(),
        "{ctx}: instrumented table set"
    );
    for (node, hist) in &a.per_table {
        assert_eq!(
            b.per_table.get(node),
            Some(hist),
            "{ctx}: table {node:?} histogram"
        );
    }
    assert_eq!(a, b, "{ctx}: merged histograms diverged");
}

/// Invariants 3, 4, 7: the merged batch statistics of a run-loop
/// measurement against the single-threaded reference.
fn assert_stats_match(oracle: BatchStats, runloop: BatchStats, ctx: &str) {
    assert_eq!(oracle.packets, runloop.packets, "{ctx}: packets");
    assert_eq!(oracle.dropped, runloop.dropped, "{ctx}: dropped");
    assert_eq!(oracle.migrations, runloop.migrations, "{ctx}: migrations");
    assert_eq!(
        oracle.counter_updates, runloop.counter_updates,
        "{ctx}: counter updates"
    );
    assert_eq!(
        oracle.p99_latency_ns.to_bits(),
        runloop.p99_latency_ns.to_bits(),
        "{ctx}: p99 (partition-invariant multiset reduction) must be exact"
    );
    assert_eq!(oracle.offered_gbps, runloop.offered_gbps, "{ctx}: offered");
    assert_close(
        oracle.mean_latency_ns,
        runloop.mean_latency_ns,
        &format!("{ctx}: mean latency"),
    );
    assert_close(
        oracle.throughput_gbps,
        runloop.throughput_gbps,
        &format!("{ctx}: throughput"),
    );
}

/// Invariants 1+2: process the same batch through a run-loop nic and a
/// single-threaded [`SmartNic`]; every packet must come out mutated
/// identically (same forwarding decision, same writes) in input order.
fn assert_decisions_identical(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &[Packet],
    workers: usize,
    ctx: &str,
) {
    let mut single = SmartNic::new(g.clone(), params.clone()).unwrap();
    let mut runloop = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
    let mut a = batch.to_vec();
    let mut b = batch.to_vec();
    let ra = single.process_batch(&mut a);
    let rb = runloop.process_batch(&mut b);
    assert_eq!(a, b, "{ctx}: packet mutations diverged");
    for (i, (x, y)) in ra.iter().zip(&rb).enumerate() {
        assert_eq!(
            x.dropped, y.dropped,
            "{ctx}: packet {i} forwarding decision"
        );
    }
    // Uninstrumented reports carry no sampling state, so they must be
    // fully identical, latency bits included.
    assert_eq!(ra, rb, "{ctx}: full uninstrumented reports");
}

/// Invariants 3, 4, 7 — and 5 when `sample` is `Some(1)`: measure the
/// same batch on the single-threaded reference and on a run-loop nic,
/// instrumented at `sample` (or not at all).
fn assert_measure_matches(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &[Packet],
    workers: usize,
    sample: Option<u64>,
    ctx: &str,
) {
    let mut oracle = SmartNic::new(g.clone(), params.clone()).unwrap();
    let mut runloop = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
    if let Some(every) = sample {
        oracle.set_instrumentation(true, every);
        runloop.set_instrumentation(true, every);
    }
    let so = oracle.measure(batch.to_vec());
    let sr = runloop.measure(batch.to_vec());
    assert_stats_match(so, sr, ctx);
    assert_eq!(oracle.now_s(), runloop.now_s(), "{ctx}: clocks diverged");
    if sample == Some(1) {
        // Invariant 5: at sample_every == 1 the sampled set is trivially
        // schedule-independent, so profiles and histograms match the
        // reference bit-for-bit too.
        assert_profiles_identical(&oracle.take_profile(), &runloop.take_profile(), ctx);
        assert_observations_identical(
            &oracle.take_observations(),
            &runloop.take_observations(),
            &format!("{ctx}: sample=1"),
        );
    }
}

/// Invariant 6 (and the satellite-3 regression): window after window,
/// batch statistics and window-merged profiles and histograms from
/// run-loop nics must be bit-identical for every worker count, with a
/// flow-keyed single-threaded [`SmartNic`] as the reference. Each
/// window is measured and then taken, so the per-window clock deltas
/// are checked too.
fn assert_window_merge_worker_invariant(
    g: &ProgramGraph,
    params: &CostParams,
    windows: &[Vec<Packet>],
    sample_every: u64,
    ctx: &str,
) {
    let mut reference = SmartNic::new(g.clone(), params.clone()).unwrap();
    reference.set_sample_keying(SampleKeying::FlowKeyed);
    reference.set_instrumentation(true, sample_every);
    let mut nics: Vec<ShardedNic> = WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
            nic.set_instrumentation(true, sample_every);
            nic
        })
        .collect();
    for (window, batch) in windows.iter().enumerate() {
        let want_stats = reference.measure(batch.clone());
        let want_profile = reference.take_profile();
        let want_obs = reference.take_observations();
        assert!(
            want_profile.total_packets > 0 && !want_obs.is_empty(),
            "{ctx}: window={window}: sampling must pick packets"
        );
        for (nic, workers) in nics.iter_mut().zip(WORKER_COUNTS) {
            let ctx = format!("{ctx}: window={window} workers={workers} sample={sample_every}");
            assert_stats_match(want_stats, nic.measure(batch.clone()), &ctx);
            assert_eq!(reference.now_s(), nic.now_s(), "{ctx}: clocks diverged");
            assert_profiles_identical(&want_profile, &nic.take_profile(), &ctx);
            assert_observations_identical(&want_obs, &nic.take_observations(), &ctx);
        }
    }
}

/// The full matrix for one program: decisions, stats, and window merges
/// at workers 1/2/8.
fn assert_runloop_differential(g: &ProgramGraph, params: &CostParams, batch: &[Packet], ctx: &str) {
    for workers in WORKER_COUNTS {
        let ctx = format!("{ctx}: workers={workers}");
        assert_decisions_identical(g, params, batch, workers, &ctx);
        // Invariants 3/4/5/7 with instrumentation on.
        assert_measure_matches(g, params, batch, workers, Some(1), &ctx);
    }
    // Invariant 6 at a sparse sampling rate.
    assert_window_merge_worker_invariant(g, params, &[batch.to_vec()], 8, ctx);
}

#[test]
fn example_programs_runloop_matches_oracle() {
    let params = CostParams::bluefield2();
    for (name, g) in example_programs() {
        let batch = key_traffic(&g, 300, 0xB0 + name.len() as u64, 1_000);
        assert_runloop_differential(&g, &params, &batch, &format!("example {name}"));
    }
}

#[test]
fn synth_seed_matrix_runloop_matches_oracle() {
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
        assert_runloop_differential(&g, &params, &batch, &format!("synth seed {seed}"));
    }
}

/// Builds: cache(keys=[x]) -ByAction-> [hit -> sink, miss -> heavy -> sink]
/// — the stateful program for the per-flow-order invariant: whether a
/// packet hits or misses the LRU depends on exactly which packets of its
/// flow ran before it on its shard.
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
fn per_flow_order_is_preserved_through_stateful_caches() {
    // Invariant 2, asserted through state: 96 flows against a 64-entry
    // per-shard LRU. The hit/miss (and eviction) pattern each flow sees
    // is a function of the per-shard packet order, so if the run loop
    // reordered packets within a flow — or migrated a flow between
    // shards — reports and final cache occupancy would diverge from the
    // reference: one SmartNic per shard, each fed its `flow_hash %
    // workers` partition in arrival order.
    let (g, cache) = cached_flow_program();
    let params = CostParams::bluefield2();
    let batch: Vec<Packet> = (0..2_000u64)
        .map(|i| Packet::with_slots(vec![(i * 31) % 96, 0]))
        .collect();
    for workers in WORKER_COUNTS {
        let mut oracle: Vec<SmartNic> = (0..workers)
            .map(|_| SmartNic::new(g.clone(), params.clone()).unwrap())
            .collect();
        let mut runloop = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
        let mut a = batch.clone();
        let mut b = batch.clone();
        let ra: Vec<_> = a
            .iter_mut()
            .map(|p| oracle[(p.flow_hash() % workers as u64) as usize].process_one(p))
            .collect();
        let rb = runloop.process_batch(&mut b);
        assert_eq!(a, b, "workers={workers}: packet mutations diverged");
        assert_eq!(ra, rb, "workers={workers}: cache-path reports diverged");
        let oracle_len: usize = oracle
            .iter_mut()
            .map(|nic| nic.executor_mut().cache_len(cache))
            .sum();
        assert_eq!(
            oracle_len,
            runloop.cache_len(cache),
            "workers={workers}: final cache occupancy diverged"
        );
    }
}

#[test]
fn sampled_histogram_counts_are_worker_count_invariant() {
    // The satellite-3 regression in isolation, pinning *counts*: the old
    // coupling stamped per-shard sequence numbers into a global-modulo
    // sampling rule, so the number of sampled packets (and hence every
    // histogram mass) drifted with the worker count. Flow-keyed sampling
    // makes the sampled count a pure function of the traffic.
    //
    // The 48-flow working set stays under the 64-entry flow cache on
    // every shard: eviction-free, so per-packet latencies are a pure
    // per-flow function too and the histograms must match bit-for-bit.
    // (Under eviction pressure per-shard LRU state legitimately varies
    // with the worker count — the module-level cache caveat.)
    let (g, _) = cached_flow_program();
    let params = CostParams::bluefield2();
    let batch: Vec<Packet> = (0..4_000u64)
        .map(|i| Packet::with_slots(vec![(i * 7) % 48, 0]))
        .collect();
    for sample_every in [2u64, 8, 64] {
        let mut want: Option<(u64, ExecObservations)> = None;
        for workers in WORKER_COUNTS {
            let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
            nic.set_instrumentation(true, sample_every);
            nic.measure(batch.clone());
            let sampled = nic.take_profile().total_packets;
            let obs = nic.take_observations();
            assert!(sampled > 0, "sample={sample_every}: no packets sampled");
            match &want {
                None => want = Some((sampled, obs)),
                Some((n, o)) => {
                    assert_eq!(
                        *n, sampled,
                        "sample={sample_every} workers={workers}: sampled count drifted"
                    );
                    assert_eq!(
                        *o, obs,
                        "sample={sample_every} workers={workers}: histograms drifted"
                    );
                }
            }
        }
    }
}

#[test]
fn dash_routing_runloop_matches_oracle() {
    // Several windows with distinct traffic phases; the sample-16
    // window sequence compares each window's merged profile separately
    // (take_profile resets).
    let dash = DashRouting::build();
    let params = CostParams::bluefield2();
    let windows: Vec<Vec<Packet>> = [[0.0, 0.0, 0.0], [0.3, 0.0, 0.1], [0.0, 0.5, 0.0]]
        .iter()
        .enumerate()
        .map(|(phase, rates)| dash.traffic(rates, 800, 1.1, phase as u64).batch(6_000))
        .collect();
    for (phase, batch) in windows.iter().enumerate() {
        assert_runloop_differential(&dash.graph, &params, batch, &format!("dash phase={phase}"));
    }
    assert_window_merge_worker_invariant(&dash.graph, &params, &windows, 16, "dash");
}

#[test]
fn acl_pipeline_runloop_matches_oracle_at_sample_one() {
    // sample_every = 1 exercises the unscaled counter path.
    let p = AclPipeline::build(6, 4);
    let params = CostParams::emulated_nic();
    let batch: Vec<Packet> = p.traffic(&[0.2, 0.0, 0.1, 0.0], 400, 7).batch(5_000);
    assert_runloop_differential(&p.graph, &params, &batch, "acl");
}

#[test]
fn uninstrumented_runloop_runs_match_oracle() {
    let dash = DashRouting::build();
    let params = CostParams::agilio_cx();
    let batch: Vec<Packet> = dash.traffic(&[0.1, 0.1, 0.1], 500, 0.0, 3).batch(4_000);
    for workers in WORKER_COUNTS {
        let ctx = format!("uninstrumented workers={workers}");
        assert_measure_matches(&dash.graph, &params, &batch, workers, None, &ctx);
    }
}

#[test]
fn sharded_histograms_merge_bit_identically() {
    // The observability layer rides the same sampled path: per-worker
    // latency histograms, merged in shard order, must be bit-identical
    // to the flow-keyed single-threaded histograms for every worker
    // count — both the packet-level histogram and every per-table
    // histogram.
    let dash = DashRouting::build();
    let params = CostParams::bluefield2();
    let batch: Vec<Packet> = dash.traffic(&[0.2, 0.1, 0.0], 600, 1.1, 9).batch(6_000);
    assert_window_merge_worker_invariant(&dash.graph, &params, &[batch], 8, "observations");
}

#[test]
fn process_one_matches_oracle_across_worker_counts() {
    // The single-packet path samples flow-keyed too, so per-packet
    // reports and the merged profile match a flow-keyed SmartNic.
    let p = AclPipeline::build(4, 2);
    let params = CostParams::bluefield2();
    for workers in WORKER_COUNTS {
        let mut single = SmartNic::new(p.graph.clone(), params.clone()).unwrap();
        single.set_sample_keying(SampleKeying::FlowKeyed);
        let mut sharded = ShardedNic::new(p.graph.clone(), params.clone(), workers).unwrap();
        single.set_instrumentation(true, 4);
        sharded.set_instrumentation(true, 4);
        for i in 0..200u64 {
            let mut a = Packet::new(&p.graph.fields);
            let mut b = Packet::new(&p.graph.fields);
            for (k, &f) in p.flow_fields.iter().enumerate() {
                a.set(f, i * 31 + k as u64);
                b.set(f, i * 31 + k as u64);
            }
            let ra = single.process_one(&mut a);
            let rb = sharded.process_one(&mut b);
            assert_eq!(ra, rb, "report diverged at packet {i} workers={workers}");
            assert_eq!(a, b, "packet contents diverged at {i} workers={workers}");
        }
        assert_profiles_identical(
            &single.take_profile(),
            &sharded.take_profile(),
            &format!("process_one workers={workers}"),
        );
    }
}
