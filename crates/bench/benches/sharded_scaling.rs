//! Throughput scaling of the sharded datapath: emulator packets/sec
//! (wall clock) of [`ShardedNic`] on the DASH routing pipeline as the
//! worker count grows, per target preset.
//!
//! The `run-loop` datapath feeds persistent workers through SPSC rings
//! and defers merging to window boundaries, so added workers can only
//! help (and must never hurt — asserted below). The *simulated* Gbps
//! stays worker-invariant by design; what scales is how fast the
//! emulator itself chews through packets. The `host_cpus` line says how
//! much hardware parallelism was actually available for a run.
//!
//! Determinism cross-check on every row: integer statistics, p99, and
//! the merged-profile fingerprint must be identical to the 1-worker run
//! (flow-keyed sampling makes the sampled set worker-invariant); the
//! mean is order-relaxed and checked within reassociation tolerance.
//!
//! Output: the usual tab-separated table, plus `BENCH_shard_scaling.json`
//! at the repo root (override with `BENCH_SHARD_SCALING_OUT`). The
//! acceptance gate asserts run-loop at 8 workers is no slower than at 1
//! worker on every preset. `SHARD_SCALING_SMOKE=1` shrinks the batch
//! for CI smoke runs.

use pipeleon_bench::{banner, f, header, row};
use pipeleon_cost::CostParams;
use pipeleon_sim::{BatchStats, Packet, ShardedNic};
use pipeleon_workloads::scenarios::DashRouting;
use std::time::Instant;

const FLOWS: usize = 2_000;

fn presets() -> Vec<(&'static str, CostParams)> {
    vec![
        ("bluefield2", CostParams::bluefield2()),
        ("agilio_cx", CostParams::agilio_cx()),
        ("bmv2", CostParams::emulated_nic()),
    ]
}

fn batch(dash: &DashRouting, packets: usize) -> Vec<Packet> {
    dash.traffic(&[0.05, 0.05, 0.05], FLOWS, 1.1, 42)
        .batch(packets)
}

/// Times every worker count of one preset with
/// *interleaved* repetitions: each sweep measures all worker counts
/// back-to-back, and each config keeps its best rep. On a noisy host
/// (shared vCPU, steal time) sequential per-config timing would hand
/// different configs different weather; interleaving plus best-of lets
/// every config sample a quiet window, so the speedup ratios compare
/// like with like. Returns `(pps, final stats, profile fingerprint)`
/// per worker count, in `worker_counts` order.
fn run_preset(
    dash: &DashRouting,
    params: &CostParams,
    worker_counts: &[usize],
    batch: &[Packet],
    reps: u32,
) -> Vec<(f64, BatchStats, u64)> {
    let mut nics: Vec<ShardedNic> = worker_counts
        .iter()
        .map(|&workers| {
            let mut nic = ShardedNic::new(dash.graph.clone(), params.clone(), workers).unwrap();
            nic.set_instrumentation(true, 16);
            // Warm up code paths once before timing.
            nic.measure(batch.to_vec());
            nic
        })
        .collect();
    let mut best = vec![f64::INFINITY; nics.len()];
    let mut stats = vec![None; nics.len()];
    for _ in 0..reps {
        for (i, nic) in nics.iter_mut().enumerate() {
            let work = batch.to_vec();
            let start = Instant::now();
            stats[i] = Some(nic.measure(work));
            best[i] = best[i].min(start.elapsed().as_secs_f64());
        }
    }
    nics.into_iter()
        .enumerate()
        .map(|(i, mut nic)| {
            let profile = nic.take_profile();
            // Cheap determinism fingerprint: every edge counter plus totals.
            let edge_sum: u64 = profile.edges().map(|(_, n)| n).sum();
            let fingerprint = profile
                .total_packets
                .wrapping_mul(1_000_003)
                .wrapping_add(edge_sum);
            (batch.len() as f64 / best[i], stats[i].unwrap(), fingerprint)
        })
        .collect()
}

/// Worker-invariance check (see module docs).
fn assert_identical_to_base(
    workers: usize,
    stats: &BatchStats,
    fingerprint: u64,
    base_stats: &BatchStats,
    base_fp: u64,
) {
    let ctx = format!("{MODE}/{workers}w");
    assert_eq!(
        fingerprint, base_fp,
        "{ctx}: merged profile diverged from 1 worker"
    );
    assert_eq!(stats.packets, base_stats.packets, "{ctx}: packets");
    assert_eq!(stats.dropped, base_stats.dropped, "{ctx}: dropped");
    assert_eq!(stats.migrations, base_stats.migrations, "{ctx}: migrations");
    assert_eq!(
        stats.counter_updates, base_stats.counter_updates,
        "{ctx}: counter updates"
    );
    assert_eq!(
        stats.p99_latency_ns.to_bits(),
        base_stats.p99_latency_ns.to_bits(),
        "{ctx}: p99 must be exact (partition-invariant multiset)"
    );
    let rel = (stats.mean_latency_ns - base_stats.mean_latency_ns).abs()
        / base_stats.mean_latency_ns.abs().max(1.0);
    assert!(rel < 1e-9, "{ctx}: mean beyond reassociation tolerance");
}

/// The `mode` column of every row (the sharded datapath has one).
const MODE: &str = "run-loop";

struct Row {
    preset: &'static str,
    workers: usize,
    pps: f64,
    speedup: f64,
}

fn main() {
    let smoke = std::env::var("SHARD_SCALING_SMOKE").is_ok();
    let packets = if smoke { 10_000 } else { 60_000 };
    // Best-of converges every config to its quiet-window minimum, and
    // noise only ever inflates a rep, so the gated 8w-vs-1w ratio below
    // gets many sweeps.
    let reps = if smoke { 1 } else { 15 };
    let worker_counts: &[usize] = if smoke { &[1, 8] } else { &[1, 2, 4, 8] };
    banner(
        "sharded_scaling",
        "emulator throughput vs worker count (DASH routing)",
    );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# host_cpus: {cpus}  packets_per_rep: {packets}  reps: {reps}  smoke: {smoke}");
    header(&[
        "preset",
        "mode",
        "workers",
        "emulator_pps",
        "speedup_vs_1",
        "sim_gbps",
        "mean_latency_ns",
        "identical_to_1_worker",
    ]);
    let dash = DashRouting::build();
    let mut rows: Vec<Row> = Vec::new();
    for (preset, params) in presets() {
        let batch = batch(&dash, packets);
        let results = run_preset(&dash, &params, worker_counts, &batch, reps);
        let mut base: Option<(f64, BatchStats, u64)> = None;
        for (&workers, (pps, stats, fp)) in worker_counts.iter().zip(results) {
            if workers == 1 {
                base = Some((pps, stats.clone(), fp));
            }
            let (base_pps, base_stats, base_fp) = base.as_ref().unwrap();
            assert_identical_to_base(workers, &stats, fp, base_stats, *base_fp);
            let speedup = pps / base_pps;
            row(&[
                preset.to_string(),
                MODE.to_string(),
                workers.to_string(),
                f(pps),
                f(speedup),
                f(stats.throughput_gbps),
                f(stats.mean_latency_ns),
                "true".to_string(),
            ]);
            rows.push(Row {
                preset,
                workers,
                pps,
                speedup,
            });
        }
    }

    // Machine-readable summary for EXPERIMENTS.md and the acceptance
    // gate (run-loop at 8 workers no slower than at 1, every preset).
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"program\": \"dash_routing\",\n  \"packets_per_rep\": {packets},\n  \"reps\": {reps},\n  \"smoke\": {smoke},\n  \"host_cpus\": {cpus},\n  \"gate_floor\": {},\n  \"results\": [\n",
        if cpus > 1 { 1.0 } else { 0.95 }
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"preset\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \"emulator_pps\": {:.1}, \"speedup_vs_1\": {:.3}}}{}\n",
            r.preset,
            MODE,
            r.workers,
            r.pps,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::var("BENCH_SHARD_SCALING_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_shard_scaling.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    std::fs::write(&out, json).expect("write BENCH_shard_scaling.json");
    println!("# wrote {out}");

    // Acceptance: the run loop has no arrival-order barrier, so added
    // workers must not cost throughput. On a host with a single CPU
    // there is no parallelism to win back — 8 workers' extra shard state
    // makes exact parity the theoretical best — so the gate there is
    // parity within the wall-clock resolution of a shared vCPU
    // (steal-time noise swings individual sweeps a few percent). With
    // real cores the run loop overlaps dispatch and execution and the
    // bar is strict. Smoke runs (single rep, tiny batch) keep the
    // determinism cross-checks above but skip the throughput gate — one
    // unrepeated sweep over a batch this small measures scheduler
    // weather, not the datapath.
    if smoke {
        println!("# acceptance: skipped (smoke run; the gate applies to full runs)");
        return;
    }
    let gate_floor = if cpus > 1 { 1.0 } else { 0.95 };
    for (preset, _) in presets() {
        let pps_at = |workers: usize| {
            rows.iter()
                .find(|r| r.preset == preset && r.workers == workers)
                .map(|r| r.pps)
                .unwrap()
        };
        let (one, eight) = (pps_at(1), pps_at(8));
        assert!(
            eight >= one * gate_floor,
            "{preset}: run-loop at 8 workers ({eight:.0} pps) slower than 1 worker \
             ({one:.0} pps, floor {gate_floor})"
        );
    }
    println!("# acceptance: run-loop 8w/1w >= {gate_floor} on every preset (host_cpus={cpus})");
}
