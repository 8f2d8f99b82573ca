//! `ctl_nf_drift`: the `NfComposition` scenario on emulated_nic with
//! `top_k_fraction` 0.3 (Fig. 11c). Traffic cycles through the NF1 →
//! NF2 → NF3 dominance phases; each profiling window is fed through the
//! streaming `measure` in bursts and followed by `Controller::tick`
//! (default config, specialization on). Between windows, rule installs
//! and removals run in equal numbers so table sizes stay constant.
//!
//! Why: the control loop does most of the work here — profile, search,
//! verify, deploy, generation publish, specialize and entry fan-out —
//! beside the datapath's reads, and it is the only workload where
//! specialization fires.

use crate::common::{
    load_program, ms, setup_metrics, timed_setups, Outcome, RunCfg, SetupSampler, BURST,
};
use crate::stats::{fast_time, mean, median, quartiles, tail_or_err};
use crate::trace::{self, span, Coverage};
use crate::traced_nic::TracedNic;
use pipeleon::search::Optimizer;
use pipeleon::OptimizerConfig;
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_ir::json::to_json_string;
use pipeleon_ir::{MatchValue, NodeId, ProgramGraph, TableEntry};
use pipeleon_runtime::{Controller, ControllerConfig, SimTarget};
use pipeleon_sim::{BatchStats, NicBackend, Packet, SmartNic, SpecStats};
use pipeleon_verify::Code;
use pipeleon_workloads::scenarios::NfComposition;
use std::time::{Duration, Instant};

/// NF1 / NF2 shares per phase; the rest goes to NF3.
const PHASES: [[f64; 2]; 3] = [[0.8, 0.1], [0.1, 0.8], [0.1, 0.1]];
const WINDOWS_PER_PHASE: usize = 3;
const CYCLE: usize = PHASES.len() * WINDOWS_PER_PHASE;
const WINDOW_BURSTS: usize = 64;
const WINDOW_PACKETS: usize = WINDOW_BURSTS * BURST;
const FLOWS: usize = 512;
const SAMPLE_EVERY: u64 = 16;
/// Rule installs (and as many removals) per churned table between two
/// windows.
const CHURN: usize = 2;
/// Keys no generated flow carries, so churned rules never match.
const CHURN_KEY_BASE: u64 = 1 << 48;
/// Windows every run completes, however short its budget: the prefix
/// over which emulated statistics and control-loop counts repeat
/// exactly for a seed.
const PREFIX_WINDOWS: usize = 12 * CYCLE;
/// Reconfiguring ticks needed so that ten lie beyond the p90.
const MIN_RECONFIGS: usize = 100;
/// Windows replayed on a fresh controller to check that the emulated
/// statistics repeat.
const REPLAY_WINDOWS: usize = 2 * CYCLE;
/// The NF selector is set by the traffic, standing in for a field a
/// parser would fill, so no action writes it and PV004 refuses the
/// program; `serve` and `simulate` would not run it. The benchmark runs
/// the preflight all the same and accepts that one finding.
const ACCEPTED_LINTS: [Code; 1] = [Code::UndefinedBranchField];
/// Safety cap on a run that never reaches its minimums.
const HARD_CAP: Duration = Duration::from_secs(120);

type Ctl = Controller<SimTarget<TracedNic<SmartNic>>>;

fn optimizer(params: &CostParams) -> Optimizer {
    Optimizer::new(CostModel::new(params.clone())).with_config(OptimizerConfig {
        top_k_fraction: 0.3,
        ..OptimizerConfig::default()
    })
}

/// Program text to the first burst measured: parse, lint, backend,
/// `Controller::new` (which deploys the original program), first burst.
fn setup(text: &str, params: &CostParams, first: &[Packet]) -> Result<Ctl, String> {
    let g = load_program(text, params, &ACCEPTED_LINTS)?;
    let nic = span("sim.build", || {
        let mut nic = SmartNic::new(g.clone(), params.clone()).map_err(|e| e.to_string())?;
        nic.set_instrumentation(true, SAMPLE_EVERY);
        Ok::<_, String>(nic)
    })?;
    let mut ctl = span("runtime.init", || {
        Controller::new(
            SimTarget::live(TracedNic::new(nic)),
            g,
            optimizer(params),
            ControllerConfig::default(),
        )
    })
    .map_err(|e| e.to_string())?;
    let nic = &mut ctl.target.nic;
    nic.measure_begin();
    nic.measure_feed(first.to_vec());
    nic.measure_end();
    Ok(ctl)
}

/// The two exact tables churned: NF1's load balancer and NF2's
/// direction lookup.
fn churn_tables(nf: &NfComposition) -> [NodeId; 2] {
    [nf.nf_tables[0][4], nf.nf_tables[1][0]]
}

fn entries(g: &ProgramGraph, table: NodeId) -> usize {
    g.tables()
        .find(|(n, _)| n.id == table)
        .map_or(0, |(_, t)| t.entries.len())
}

/// What a window produced that must repeat for the seed.
#[derive(Debug, Clone, PartialEq)]
struct WindowFacts {
    stats: BatchStats,
    deployed: bool,
    reoptimized: bool,
    est_gain_ns: f64,
}

/// Samples of one measuring phase.
#[derive(Default)]
struct Phase {
    packets: u64,
    windows: usize,
    cycle_pps: Vec<f64>,
    /// Busy time of each step of a cycle, ns, by position: a window's
    /// measuring and its control work (tick and rule churn) are two steps.
    step_ns: Vec<Vec<f64>>,
    /// Time of each measured burst, ns, by position in the cycle.
    burst_ns: Vec<Vec<f64>>,
    reconfig_ns: Vec<f64>,
    idle_tick_ns: Vec<f64>,
    search_ns: Vec<f64>,
    entry_ns: Vec<f64>,
    busy_ns: u64,
    attempted: u64,
    failed: u64,
    wall: Duration,
}

impl Phase {
    /// Records one entry operation started at `t`; returns its time.
    fn entry_op(&mut self, t: Instant, failed: bool) -> u64 {
        let ns = t.elapsed().as_nanos() as u64;
        self.entry_ns.push(ns as f64);
        self.attempted += 1;
        self.failed += u64::from(failed);
        ns
    }

    /// Packets per second of measure, tick and entry-op time.
    fn pps(&self) -> f64 {
        self.packets as f64 / (self.busy_ns as f64 / 1e9)
    }

    /// The same, for a cycle whose every step takes its fast time
    /// (`stats::fast_time`) at its position: the cycle at full host
    /// speed. Steps are the samples, not cycles, because a step is short
    /// enough to fit in the brief spells of full speed a loaded host
    /// leaves.
    fn fast_pps(&self) -> Result<f64, String> {
        let mut ns = 0.0;
        for times in &self.step_ns {
            ns += fast_time(times, "pps")?;
        }
        Ok(CYCLE as f64 * WINDOW_PACKETS as f64 / (ns / 1e9))
    }

    /// p90 over the bursts of a cycle of each burst's fast time at its
    /// position, µs.
    fn fast_burst_p90_us(&self) -> Result<f64, String> {
        let fast = self
            .burst_ns
            .iter()
            .map(|times| fast_time(times, "lat_p90_us").map(|ns| ns / 1e3))
            .collect::<Result<Vec<f64>, String>>()?;
        tail_or_err(&fast, 90.0, "lat_p90_us")
    }
}

/// The control loop, carried across phases.
struct Loop<'a> {
    ctl: Ctl,
    cycle: &'a [Vec<Packet>],
    tables: [NodeId; 2],
    window: usize,
    churned: u64,
    facts: Vec<WindowFacts>,
    prefix_spec: Option<SpecStats>,
    prefix_health: Option<(u64, u64)>,
}

impl<'a> Loop<'a> {
    fn new(ctl: Ctl, cycle: &'a [Vec<Packet>], nf: &NfComposition) -> Self {
        Loop {
            ctl,
            cycle,
            tables: churn_tables(nf),
            window: 0,
            churned: 0,
            facts: Vec::new(),
            prefix_spec: None,
            prefix_health: None,
        }
    }

    /// One window: measure, tick, churn. Returns the busy time.
    fn window(&mut self, ph: &mut Phase) -> Result<u64, String> {
        let pos = self.window % CYCLE;
        let batch = &self.cycle[pos];
        ph.step_ns.resize(2 * CYCLE, Vec::new());
        ph.burst_ns.resize(CYCLE * WINDOW_BURSTS, Vec::new());
        let mut busy = 0u64;
        let nic = &mut self.ctl.target.nic;
        let t = Instant::now();
        nic.measure_begin();
        busy += t.elapsed().as_nanos() as u64;
        for (b, chunk) in batch.chunks(BURST).enumerate() {
            let burst = span("bench.input", || chunk.to_vec());
            let t = Instant::now();
            nic.measure_feed(burst);
            let ns = t.elapsed().as_nanos() as u64;
            ph.burst_ns[pos * WINDOW_BURSTS + b].push(ns as f64);
            busy += ns;
        }
        let t = Instant::now();
        let stats = nic.measure_end();
        busy += t.elapsed().as_nanos() as u64;
        let measured = busy;
        ph.packets += stats.packets;
        ph.attempted += stats.packets;

        let t = Instant::now();
        let tick = span("runtime.tick", || {
            let r = self.ctl.tick();
            if let Ok(r) = &r {
                trace::reported_child("core.search", r.search_time.as_nanos() as u64);
            }
            r
        });
        let ns = t.elapsed().as_nanos() as u64;
        busy += ns;
        ph.attempted += 1;
        let facts = match tick {
            Ok(r) => {
                if r.deployed {
                    ph.reconfig_ns.push(ns as f64);
                }
                if r.reoptimized {
                    ph.search_ns.push(r.search_time.as_nanos() as f64);
                } else {
                    ph.idle_tick_ns.push(ns as f64);
                }
                WindowFacts {
                    stats,
                    deployed: r.deployed,
                    reoptimized: r.reoptimized,
                    est_gain_ns: r.est_gain_ns,
                }
            }
            Err(_) => {
                ph.failed += 1;
                WindowFacts {
                    stats,
                    deployed: false,
                    reoptimized: false,
                    est_gain_ns: 0.0,
                }
            }
        };

        // The same churn on every table every window, so update rates
        // stay constant and never read as drift.
        for table in self.tables {
            for _ in 0..CHURN {
                self.churned += 1;
                let key = MatchValue::Exact(CHURN_KEY_BASE + self.churned);
                let entry = TableEntry::new(vec![key], 0);
                let t = Instant::now();
                let r = span("runtime.entry", || self.ctl.insert_entry(table, entry));
                busy += ph.entry_op(t, r.is_err());
            }
            for _ in 0..CHURN {
                let last = entries(self.ctl.original(), table).saturating_sub(1);
                let t = Instant::now();
                let r = span("runtime.entry", || self.ctl.remove_entry(table, last));
                busy += ph.entry_op(t, r.is_err());
            }
        }

        ph.step_ns[2 * pos].push(measured as f64);
        ph.step_ns[2 * pos + 1].push((busy - measured) as f64);
        if self.window < PREFIX_WINDOWS {
            self.facts.push(facts);
        }
        self.window += 1;
        ph.windows += 1;
        if self.window == PREFIX_WINDOWS {
            self.prefix_spec = Some(self.ctl.target.nic.inner.spec_stats());
            let h = self.ctl.health();
            self.prefix_health = Some((h.rollbacks, h.plan_rejections));
        }
        Ok(busy)
    }

    /// Runs whole cycles until `budget` passes and the prefix and the
    /// reconfiguration minimum are met. In a traced run the cycles
    /// alternate between untraced (`[0]`, the reference for the tracing
    /// overhead) and traced (`[1]`); otherwise all go to `[0]`.
    /// `between` runs before each cycle, outside the timed work.
    fn run(
        &mut self,
        budget: Duration,
        traced: bool,
        between: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<[Phase; 2], String> {
        let mut halves = [Phase::default(), Phase::default()];
        let start = Instant::now();
        let mut k = 0usize;
        loop {
            between()?;
            let half = usize::from(traced && k % 2 == 1);
            trace::set_paused(half == 0);
            let ph = &mut halves[half];
            let t = Instant::now();
            let (mut busy, packets) = (0u64, ph.packets);
            for _ in 0..CYCLE {
                busy += self.window(ph)?;
            }
            ph.cycle_pps
                .push((ph.packets - packets) as f64 / (busy as f64 / 1e9));
            ph.busy_ns += busy;
            ph.wall += t.elapsed();
            k += 1;
            let reported = &halves[usize::from(traced)];
            let short =
                self.window < PREFIX_WINDOWS || reported.reconfig_ns.len() < MIN_RECONFIGS || k < 2;
            let elapsed = start.elapsed();
            if (elapsed >= budget && !short) || elapsed >= HARD_CAP {
                break;
            }
        }
        trace::set_paused(false);
        Ok(halves)
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let nf = NfComposition::build();
    let text = to_json_string(&nf.graph).map_err(|e| e.to_string())?;
    let params = CostParams::emulated_nic();
    let cycle: Vec<Vec<Packet>> = (0..CYCLE)
        .map(|w| {
            let shares = &PHASES[w / WINDOWS_PER_PHASE];
            nf.traffic(shares, FLOWS, cfg.seed.wrapping_mul(1_000) + w as u64)
                .batch(WINDOW_PACKETS)
        })
        .collect();
    // Emulated latency of the unoptimized program on each window's
    // traffic: the base the optimizer's predicted gain is measured from.
    let mut base_nic =
        SmartNic::new(nf.graph.clone(), params.clone()).map_err(|e| e.to_string())?;
    base_nic.set_instrumentation(true, SAMPLE_EVERY);
    let base_ns: Vec<f64> = cycle
        .iter()
        .map(|b| base_nic.measure(b.clone()).mean_latency_ns)
        .collect();

    let build = || setup(&text, &params, &cycle[0][..BURST]);
    let (ctl, setup_secs, setup_spans) = timed_setups(cfg.traced, build)?;
    let mut lp = Loop::new(ctl, &cycle, &nf);

    if cfg.traced {
        trace::start();
    }
    let mut setups = SetupSampler::new(build, cfg.budget(1.0), setup_secs);
    let mut between = || if cfg.traced { Ok(()) } else { setups.between() };
    let [reference, traced_half] = lp.run(cfg.budget(1.0), cfg.traced, &mut between)?;
    let spans = trace::finish();
    let ph = if cfg.traced { &traced_half } else { &reference };
    if lp.window < PREFIX_WINDOWS {
        return Err(format!(
            "only {} of {PREFIX_WINDOWS} windows ran within {HARD_CAP:?}",
            lp.window
        ));
    }

    // The emulated statistics must repeat for the seed: replay the first
    // windows on a fresh controller and compare, untimed.
    let mut replay = Loop::new(build()?, &cycle, &nf);
    let mut replayed = Phase::default();
    for _ in 0..REPLAY_WINDOWS {
        replay.window(&mut replayed)?;
    }
    if let Some(w) = (0..REPLAY_WINDOWS).find(|&w| replay.facts[w] != lp.facts[w]) {
        return Err(format!(
            "window {w} does not repeat for seed {}: {:?} then {:?}",
            cfg.seed, lp.facts[w], replay.facts[w]
        ));
    }

    let mut out = Outcome {
        attempted: reference.attempted + traced_half.attempted,
        failed: reference.failed + traced_half.failed,
        ..Outcome::default()
    };
    let prefix = &lp.facts;
    let reconfig_ms: Vec<f64> = ph.reconfig_ns.iter().map(|ns| ns / 1e6).collect();
    let entry_us: Vec<f64> = ph.entry_ns.iter().map(|ns| ns / 1e3).collect();
    let reconfig_p50 = median(&reconfig_ms);
    let reconfig_p90 = tail_or_err(&reconfig_ms, 90.0, "reconfig_p90_ms")?;
    let entry_p50 = median(&entry_us);
    if !cfg.traced {
        let means: Vec<f64> = prefix.iter().map(|f| f.stats.mean_latency_ns).collect();
        let p99s: Vec<f64> = prefix.iter().map(|f| f.stats.p99_latency_ns).collect();
        out.set("pps", ph.fast_pps()?);
        out.set("lat_p90_us", ph.fast_burst_p90_us()?);
        out.set("emu_lat_ns", mean(&means));
        out.set("setup_s", median(&setups.secs));
        out.note(format!(
            "emu_p99_ns: {} (median over the first {PREFIX_WINDOWS} windows of the cost-model p99)",
            median(&p99s)
        ));
        let (q1, _, q3) = quartiles(&ph.cycle_pps);
        out.note(format!(
            "pps: {} cycles of {CYCLE} windows x {WINDOW_PACKETS} packets, each measuring and \
             control step at its 11th-fastest; all cycles {:.0}, quartiles over cycles {q1:.0}..{q3:.0}",
            ph.cycle_pps.len(),
            ph.pps()
        ));
        out.note(format!(
            "reconfig_p50_ms: {reconfig_p50:.3}  reconfig_p90_ms: {reconfig_p90:.3}  ({} deploying ticks of {})",
            reconfig_ms.len(),
            ph.windows
        ));
        out.note(format!(
            "entry_op_p50_us: {entry_p50:.2}  ({} installs and removals)",
            entry_us.len()
        ));
        let all_us: Vec<f64> = ph.burst_ns.iter().flatten().map(|ns| ns / 1e3).collect();
        out.note(format!(
            "lat: p90 over the {} measured {BURST}-packet bursts of a cycle, each at its \
             11th-fastest; p50 {:.3} us and p90 {:.3} us over all {} bursts",
            ph.burst_ns.len(),
            median(&all_us),
            tail_or_err(&all_us, 90.0, "lat_p90_us")?,
            all_us.len()
        ));
        out.note(format!(
            "fail_frac: {:.6}  ({} of {} operations)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ));
        return Ok(out);
    }

    let agg = trace::aggregate(&spans);
    let med_ms = |name: &str| agg.get(name).map_or(0.0, |a| median(&a.durs_ns) / 1e6);
    let self_per_call = |name: &str| {
        agg.get(name)
            .map_or(0.0, |a| a.self_ns as f64 / a.calls as f64)
    };
    out.set(
        "sim.measure_ns_per_pkt",
        agg["sim.measure"].total_ns as f64 / ph.packets as f64,
    );
    out.set("sim.deploy_ms", med_ms("sim.deploy"));
    out.set("sim.take_profile_ms", med_ms("sim.take_profile"));
    out.set("sim.specialize_ms", med_ms("sim.specialize"));
    out.set("sim.entry_us", med_ms("sim.entry") * 1e3);
    let nic = &lp.ctl.target.nic;
    let spec = nic.inner.spec_stats();
    let guarded = spec.guard_hits + spec.guard_misses;
    out.set(
        "sim.guard_hit_ratio",
        spec.guard_hits as f64 / guarded.max(1) as f64,
    );
    let prefix_spec = lp.prefix_spec.expect("prefix completed");
    out.set("sim.specializations", prefix_spec.specializations as f64);
    out.set(
        "sim.despecializations",
        prefix_spec.despecializations as f64,
    );
    out.set(
        "sim.cache_hit_ratio",
        nic.cache_hits as f64 / (nic.cache_hits + nic.cache_misses).max(1) as f64,
    );
    out.set(
        "core.search_ms",
        if ph.search_ns.is_empty() {
            0.0
        } else {
            median(&ph.search_ns) / 1e6
        },
    );
    out.set("runtime.tick_self_ms", self_per_call("runtime.tick") / 1e6);
    out.set(
        "runtime.idle_tick_ms",
        if ph.idle_tick_ns.is_empty() {
            0.0
        } else {
            median(&ph.idle_tick_ns) / 1e6
        },
    );
    out.set(
        "runtime.entry_self_us",
        self_per_call("runtime.entry") / 1e3,
    );
    let deploys = prefix.iter().filter(|f| f.deployed).count() as f64;
    let reopts = prefix.iter().filter(|f| f.reoptimized).count() as f64;
    out.set("runtime.deploys", deploys);
    out.set("runtime.deploy_per_reopt", deploys / reopts.max(1.0));
    let (rollbacks, rejections) = lp.prefix_health.expect("prefix completed");
    out.set("runtime.rollbacks", rollbacks as f64);
    out.set("runtime.plan_rejections", rejections as f64);
    out.set("runtime.reconfig_p50_ms", reconfig_p50);
    out.set("runtime.reconfig_p90_ms", reconfig_p90);
    out.set("runtime.entry_op_p50_us", entry_p50);
    out.set("cost.pred_err_ns", prediction_error(prefix, &base_ns));
    setup_metrics(&mut out, &setup_spans);
    out.set("trace.overhead_frac", reference.pps() / ph.pps() - 1.0);
    let cov = Coverage::of(&spans, ph.wall.as_nanos() as u64);
    cov.check(0.9, "ctl_nf_drift")?;
    out.set("trace.coverage", cov.frac);
    out.note(format!(
        "coverage {:.1}% of {:.0} ms over {} windows",
        100.0 * cov.frac,
        ms(ph.wall),
        ph.windows
    ));
    Ok(out)
}

/// Mean over deploys of |predicted − realized| gain, ns/packet. A
/// deploy after the first window of a phase is judged on the phase's
/// next window: realized gain is the unoptimized program's emulated
/// latency on that window's traffic minus the deployed program's.
fn prediction_error(prefix: &[WindowFacts], base_ns: &[f64]) -> f64 {
    let errs: Vec<f64> = (0..prefix.len().saturating_sub(1))
        .filter(|&w| w % WINDOWS_PER_PHASE + 1 < WINDOWS_PER_PHASE && prefix[w].deployed)
        .map(|w| {
            let realized = base_ns[(w + 1) % CYCLE] - prefix[w + 1].stats.mean_latency_ns;
            (prefix[w].est_gain_ns - realized).abs()
        })
        .collect();
    mean(&errs)
}
