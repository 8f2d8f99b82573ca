//! Emulator packet-processing throughput: interpreter vs compiled engine.
//!
//! Wall-clock packets/sec of the datapath on a 16-table synthetic
//! program (mixed exact/LPM/ternary tables), per target preset (bluefield2,
//! agilio_cx, bmv2 → `emulated_nic`) and per worker count (1/2/8).
//! Single-worker rows time `SmartNic::process_batch`; multi-worker rows
//! time `ShardedNic::measure` on the `run-loop` datapath (persistent
//! workers fed by SPSC rings, merge at window boundaries).
//!
//! Every row cross-checks bit-identity: the two engines must report the
//! same per-packet latency totals and drop counts, or the row asserts.
//!
//! Output: the usual tab-separated table on stdout, plus
//! `BENCH_throughput.json` at the repo root (override the path with
//! `BENCH_THROUGHPUT_OUT`). `THROUGHPUT_SMOKE=1` shrinks the batch for
//! CI smoke runs.

use pipeleon_bench::{banner, f, header, row};
use pipeleon_cost::CostParams;
use pipeleon_ir::ProgramGraph;
use pipeleon_sim::{EngineMode, Packet, ShardedNic, SmartNic};
use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};
use pipeleon_workloads::traffic::FlowGen;
use std::time::Instant;

const TABLES: usize = 16;

/// The 16-table synthetic program: four pipelets of ~four tables with
/// the default exact/LPM/ternary match mix and no drops, so every packet
/// walks its full path. Pipelet lengths are randomized by the
/// synthesizer, so scan seeds (deterministically) for an exact 16-table
/// instance.
fn synth_program() -> ProgramGraph {
    (0..256)
        .map(|seed| {
            synthesize(&SynthConfig {
                pipelets: 4,
                pipelet_len: 4,
                match_mix: MatchMix::default_mix(),
                drop_fraction: 0.0,
                seed,
                ..SynthConfig::default()
            })
        })
        .find(|g| g.tables().count() == TABLES)
        .expect("some seed yields a 16-table program")
}

fn presets() -> Vec<(&'static str, CostParams)> {
    vec![
        ("bluefield2", CostParams::bluefield2()),
        ("agilio_cx", CostParams::agilio_cx()),
        ("bmv2", CostParams::emulated_nic()),
    ]
}

/// Seeded flow traffic over every field any table matches on (the same
/// population the CLI's `simulate` command generates).
fn traffic(g: &ProgramGraph, packets: usize) -> Vec<Packet> {
    let mut flow_fields = Vec::new();
    for (_, t) in g.tables() {
        for k in &t.keys {
            if !flow_fields.contains(&k.field) {
                flow_fields.push(k.field);
            }
        }
    }
    FlowGen::new(g.fields.len(), flow_fields, 2_000, 42)
        .with_zipf(1.1)
        .batch(packets)
}

/// Fingerprint used to assert the engines agree: total latency bits,
/// drops, and migrations across the whole batch.
fn fingerprint(reports: &[pipeleon_sim::ExecReport]) -> (u64, u64, u64) {
    let mut lat = 0u64;
    let mut dropped = 0u64;
    let mut migrations = 0u64;
    for r in reports {
        lat = lat.wrapping_add(r.latency_ns.to_bits());
        dropped += r.dropped as u64;
        migrations += r.migrations as u64;
    }
    (lat, dropped, migrations)
}

/// Single-worker pps via the batch API. Returns (pps, fingerprint).
fn run_single(
    g: &pipeleon_ir::ProgramGraph,
    params: &CostParams,
    mode: EngineMode,
    batch: &[Packet],
    reps: u32,
) -> (f64, (u64, u64, u64)) {
    let mut nic = SmartNic::new(g.clone(), params.clone()).unwrap();
    nic.set_engine_mode(mode);
    // Raw datapath throughput: instrumentation off (the obs_overhead
    // bench covers the instrumented regime).
    // Warm up once (first-touch compiles, map growth), then time.
    let mut warm = batch.to_vec();
    nic.process_batch(&mut warm);
    let mut fp = (0, 0, 0);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut work = batch.to_vec();
        let start = Instant::now();
        let reports = nic.process_batch(&mut work);
        // Fastest rep: scheduler noise only ever slows a rep down.
        best = best.min(start.elapsed().as_secs_f64());
        fp = fingerprint(&reports);
    }
    (batch.len() as f64 / best, fp)
}

/// Multi-worker pps via the sharded measurement path. Returns
/// (pps, fingerprint of the merged batch statistics).
fn run_sharded(
    g: &pipeleon_ir::ProgramGraph,
    params: &CostParams,
    workers: usize,
    mode: EngineMode,
    batch: &[Packet],
    reps: u32,
) -> (f64, (u64, u64, u64)) {
    let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).unwrap();
    nic.set_engine_mode(mode);
    nic.measure(batch.to_vec());
    let mut fp = (0, 0, 0);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let work = batch.to_vec();
        let start = Instant::now();
        let stats = nic.measure(work);
        best = best.min(start.elapsed().as_secs_f64());
        fp = (
            stats.mean_latency_ns.to_bits(),
            stats.dropped,
            stats.migrations,
        );
    }
    (batch.len() as f64 / best, fp)
}

struct Row {
    preset: &'static str,
    mode: &'static str,
    workers: usize,
    interp_pps: f64,
    compiled_pps: f64,
}

fn main() {
    let smoke = std::env::var("THROUGHPUT_SMOKE").is_ok();
    let (packets, reps) = if smoke { (8_000, 1) } else { (40_000, 3) };
    banner(
        "throughput",
        "datapath packets/sec: interpreter vs compiled engine (16-table synth)",
    );
    println!("# packets_per_rep: {packets}  reps: {reps}  smoke: {smoke}");
    header(&[
        "preset",
        "mode",
        "workers",
        "interp_pps",
        "compiled_pps",
        "speedup",
        "identical",
    ]);
    let g = synth_program();
    assert_eq!(g.tables().count(), TABLES);
    let batch = traffic(&g, packets);
    let mut rows: Vec<Row> = Vec::new();
    for (name, params) in presets() {
        // Single-worker baseline plus one run-loop row per multi-worker
        // count.
        for (mode_name, workers) in [("single", 1usize), ("run-loop", 2), ("run-loop", 8)] {
            let (ipps, ifp, cpps, cfp) = if workers == 1 {
                let (ipps, ifp) = run_single(&g, &params, EngineMode::Interpreter, &batch, reps);
                let (cpps, cfp) = run_single(&g, &params, EngineMode::Compiled, &batch, reps);
                (ipps, ifp, cpps, cfp)
            } else {
                let (ipps, ifp) =
                    run_sharded(&g, &params, workers, EngineMode::Interpreter, &batch, reps);
                let (cpps, cfp) =
                    run_sharded(&g, &params, workers, EngineMode::Compiled, &batch, reps);
                (ipps, ifp, cpps, cfp)
            };
            assert_eq!(
                ifp, cfp,
                "{name}/{mode_name}/{workers}w: engines disagree (bit-identity broken)"
            );
            row(&[
                name.to_string(),
                mode_name.to_string(),
                workers.to_string(),
                f(ipps),
                f(cpps),
                f(cpps / ipps),
                "true".to_string(),
            ]);
            rows.push(Row {
                preset: name,
                mode: mode_name,
                workers,
                interp_pps: ipps,
                compiled_pps: cpps,
            });
        }
    }

    // Machine-readable summary for EXPERIMENTS.md and the acceptance
    // gate (compiled >= 2x interpreter on agilio_cx, single worker).
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"program\": \"synth_{TABLES}\",\n  \"packets_per_rep\": {packets},\n  \"reps\": {reps},\n  \"smoke\": {smoke},\n  \"results\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"preset\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \"interp_pps\": {:.1}, \"compiled_pps\": {:.1}, \"speedup\": {:.3}}}{}\n",
            r.preset,
            r.mode,
            r.workers,
            r.interp_pps,
            r.compiled_pps,
            r.compiled_pps / r.interp_pps,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let out = std::env::var("BENCH_THROUGHPUT_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_throughput.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).expect("write BENCH_throughput.json");
    println!("# wrote {out}");
}
