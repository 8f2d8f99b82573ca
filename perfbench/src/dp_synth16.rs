//! `dp_synth16`: the in-process datapath on the 16-table synthetic
//! program, Zipf 1.1 traffic over 2 000 flows, bluefield2 preset,
//! instrumentation off. The same bursts go through `SmartNic` and
//! through the run-loop `ShardedNic` at one worker, alternating pass by
//! pass so both see the same host conditions.
//!
//! Why: match/action execution does nearly all the work and no key is
//! hot enough to specialize, so executor and ring hand-off changes show
//! here while wire, controller and specialization changes leave it flat.

use crate::common::{
    load_program, ms, restore, timed_setups, Fingerprint, Outcome, RunCfg, SetupSampler, BURST,
};
use crate::stats::{fast_rate, fast_time, median, quartiles, tail};
use crate::trace::{self, span, Coverage};
use pipeleon_cost::CostParams;
use pipeleon_ir::json::to_json_string;
use pipeleon_ir::ProgramGraph;
use pipeleon_sim::{BatchStats, EngineMode, NicBackend, Packet, ShardMode, ShardedNic, SmartNic};
use pipeleon_workloads::synth::{synthesize, MatchMix, SynthConfig};
use pipeleon_workloads::traffic::FlowGen;
use std::time::{Duration, Instant};

const TABLES: usize = 16;
const FLOWS: usize = 2_000;
const ZIPF: f64 = 1.1;
/// Packets per pass (a whole number of bursts): enough bursts for a p90
/// within the pass, and short, so that brief spells of full host speed
/// still hold whole passes.
const PASS: usize = 128 * BURST;

/// The 16-table program of `benches/throughput.rs`: four pipelets of
/// about four tables, default match mix, no drops. Pipelet lengths are
/// randomized, so scan synthesizer seeds for an exact 16-table instance.
fn program() -> ProgramGraph {
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

fn traffic(g: &ProgramGraph, seed: u64) -> Vec<Packet> {
    let mut fields = Vec::new();
    for (_, t) in g.tables() {
        for k in &t.keys {
            if !fields.contains(&k.field) {
                fields.push(k.field);
            }
        }
    }
    FlowGen::new(g.fields.len(), fields, FLOWS, seed)
        .with_zipf(ZIPF)
        .batch(PASS)
}

/// Both backends, built the way the workload runs them.
struct Backends {
    smart: SmartNic,
    sharded: ShardedNic,
}

/// Program text to both backends answering their first burst.
fn setup(text: &str, params: &CostParams, first: &[Packet]) -> Result<Backends, String> {
    let g = load_program(text, params, &[])?;
    let (mut smart, mut sharded) = span("sim.build", || {
        let mut smart = SmartNic::new(g.clone(), params.clone()).map_err(|e| e.to_string())?;
        smart.set_engine_mode(EngineMode::Compiled);
        let sharded = ShardedNic::with_mode(g, params.clone(), 1, ShardMode::RunLoop)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((smart, sharded))
    })?;
    let mut burst = first.to_vec();
    span("sim.process_batch", || smart.process_batch(&mut burst));
    restore(&mut burst, first);
    span("sim.sharded_process_batch", || {
        sharded.process_batch(&mut burst)
    });
    Ok(Backends { smart, sharded })
}

/// What one pass over the input gave.
struct PassResult {
    fp: Fingerprint,
    /// Summed datapath time, ns.
    ns: u64,
    /// p90 of the pass's burst times, µs.
    burst_p90_us: f64,
}

/// One pass over `input` in bursts; `burst_ns` is scratch space for the
/// burst times.
fn pass<N: NicBackend>(
    nic: &mut N,
    name: &'static str,
    input: &[Packet],
    work: &mut [Packet],
    burst_ns: &mut Vec<f64>,
) -> PassResult {
    let mut fp = Fingerprint::default();
    let mut total = 0u64;
    burst_ns.clear();
    for chunk in input.chunks(BURST) {
        let work = &mut work[..chunk.len()];
        span("bench.input", || restore(work, chunk));
        let t = Instant::now();
        let reports = span(name, || nic.process_batch(work));
        let ns = t.elapsed().as_nanos() as u64;
        total += ns;
        span("bench.check", || {
            burst_ns.push(ns as f64);
            fp.add(work, &reports)
        });
    }
    let p90 = span("bench.check", || tail(burst_ns, 90.0)).expect("a pass has 128 bursts");
    PassResult {
        fp,
        ns: total,
        burst_p90_us: p90 / 1e3,
    }
}

/// Samples of one half of a measuring phase.
#[derive(Default)]
struct Phase {
    smart_pps: Vec<f64>,
    sharded_pps: Vec<f64>,
    smart_ns: u64,
    sharded_ns: u64,
    packets: u64,
    /// p90 burst time of each `SmartNic` pass, µs.
    burst_p90_us: Vec<f64>,
    wall: Duration,
}

impl Phase {
    fn pps(&self, ns: u64) -> f64 {
        self.packets as f64 / (ns as f64 / 1e9)
    }
}

/// Measures pass pairs (one pass per backend) until `budget` passes. In
/// a traced run the pairs alternate between untraced (`[0]`, the
/// reference for the tracing overhead) and traced (`[1]`), so both
/// halves see the same host conditions; otherwise all go to `[0]`.
/// `between` runs before each pair, outside the timed passes.
fn measure(
    b: &mut Backends,
    input: &[Packet],
    oracle: Fingerprint,
    budget: Duration,
    traced: bool,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<[Phase; 2], String> {
    let mut work = input[..BURST].to_vec();
    let mut burst_ns = Vec::with_capacity(input.len().div_ceil(BURST));
    let mut halves = [Phase::default(), Phase::default()];
    let start = Instant::now();
    let mut pair = 0usize;
    while pair < 2 || start.elapsed() < budget {
        between()?;
        let half = usize::from(traced && pair % 2 == 1);
        trace::set_paused(half == 0);
        let ph = &mut halves[half];
        let t = Instant::now();
        let r = pass(
            &mut b.smart,
            "sim.process_batch",
            input,
            &mut work,
            &mut burst_ns,
        );
        if r.fp != oracle {
            return Err("SmartNic verdicts differ from the interpreter oracle".into());
        }
        ph.smart_pps.push(input.len() as f64 / (r.ns as f64 / 1e9));
        ph.burst_p90_us.push(r.burst_p90_us);
        ph.smart_ns += r.ns;
        let r = pass(
            &mut b.sharded,
            "sim.sharded_process_batch",
            input,
            &mut work,
            &mut burst_ns,
        );
        if r.fp != oracle {
            return Err("ShardedNic verdicts differ from the interpreter oracle".into());
        }
        ph.sharded_pps
            .push(input.len() as f64 / (r.ns as f64 / 1e9));
        ph.sharded_ns += r.ns;
        ph.packets += input.len() as u64;
        ph.wall += t.elapsed();
        pair += 1;
    }
    trace::set_paused(false);
    Ok(halves)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let g = program();
    let text = to_json_string(&g).map_err(|e| e.to_string())?;
    let params = CostParams::bluefield2();
    let input = traffic(&g, cfg.seed);

    // The oracle: the reference interpreter on the same pass, untimed.
    let mut interp = SmartNic::new(g.clone(), params.clone()).map_err(|e| e.to_string())?;
    interp.set_engine_mode(EngineMode::Interpreter);
    let mut work = input[..BURST].to_vec();
    let oracle = pass(
        &mut interp,
        "bench.oracle",
        &input,
        &mut work,
        &mut Vec::new(),
    )
    .fp;
    let emu: BatchStats = SmartNic::new(g, params.clone())
        .map_err(|e| e.to_string())?
        .measure(input.clone());

    let build = || setup(&text, &params, &input[..BURST]);
    let (mut b, setup_secs, setup_spans) = timed_setups(cfg.traced, build)?;
    // Warm both backends (map growth, page faults) before timing.
    measure(
        &mut b,
        &input,
        oracle,
        Duration::ZERO,
        false,
        &mut || Ok(()),
    )?;

    let mut out = Outcome::default();
    if !cfg.traced {
        let mut setups = SetupSampler::new(build, cfg.budget(1.0), setup_secs);
        let mut between = || setups.between();
        let [ph, _] = measure(&mut b, &input, oracle, cfg.budget(1.0), false, &mut between)?;
        let us = &ph.burst_p90_us;
        out.set("pps", fast_rate(&ph.smart_pps, "pps")?);
        out.set("lat_p90_us", fast_time(us, "lat_p90_us")?);
        out.set("emu_lat_ns", emu.mean_latency_ns);
        out.set("setup_s", median(&setups.secs));
        let (q1, _, q3) = quartiles(&ph.smart_pps);
        out.note(format!(
            "pps: 11th-fastest of {} passes of {PASS} packets; all passes {:.0}, quartiles {q1:.0}..{q3:.0}",
            ph.smart_pps.len(),
            ph.pps(ph.smart_ns)
        ));
        out.note(format!(
            "sharded_pps: {:.0} 1/s, all passes {:.0} (1-worker run-loop ShardedNic, same bursts)",
            fast_rate(&ph.sharded_pps, "sharded_pps")?,
            ph.pps(ph.sharded_ns)
        ));
        let (q1, q2, q3) = quartiles(us);
        out.note(format!(
            "lat: p90 of the {BURST}-packet burst times in a pass, 11th-fastest of {} passes; \
             quartiles over passes {q1:.3}/{q2:.3}/{q3:.3} us",
            us.len()
        ));
        out.note(format!(
            "emu_p99_ns: {} (cost-model p99, same for every seed)",
            emu.p99_latency_ns
        ));
        out.attempted = 2 * ph.packets;
        return Ok(out);
    }

    trace::start();
    let [reference, ph] = measure(
        &mut b,
        &input,
        oracle,
        cfg.budget(1.0),
        true,
        &mut || Ok(()),
    )?;
    let spans = trace::finish();
    let agg = trace::aggregate(&spans);
    let pkts = ph.packets as f64;
    let inline = ph.smart_ns as f64 / pkts;
    let sharded = ph.sharded_ns as f64 / pkts;
    out.set("sim.ns_per_pkt", inline);
    out.set("sim.sharded_ns_per_pkt", sharded);
    out.set("sim.handoff_ns_per_pkt", sharded - inline);
    out.set(
        "sim.allocs_per_pkt",
        agg["sim.process_batch"].self_allocs as f64 / pkts,
    );
    out.set("sim.sharded_pps", ph.pps(ph.sharded_ns));
    crate::common::setup_metrics(&mut out, &setup_spans);
    out.set(
        "trace.overhead_frac",
        reference.pps(reference.smart_ns) / ph.pps(ph.smart_ns) - 1.0,
    );
    let cov = Coverage::of(&spans, ph.wall.as_nanos() as u64);
    cov.check(0.9, "dp_synth16")?;
    out.set("trace.coverage", cov.frac);
    out.note(format!(
        "coverage {:.1}% of {:.0} ms traced (bench input/check work {:.0} ms excluded)",
        100.0 * cov.frac,
        ms(ph.wall),
        cov.bench_ns as f64 / 1e6
    ));
    out.attempted = 2 * (ph.packets + reference.packets);
    Ok(out)
}
