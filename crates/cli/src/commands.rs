//! Command implementations.

use crate::args::{parse, Args};
use crate::profile_doc::{self, ProfileDoc};
use pipeleon::hotspot::score_pipelets;
use pipeleon::pipelet::partition;
use pipeleon::{Optimizer, OptimizerConfig, ResourceLimits};
use pipeleon_cost::{Calibrator, CostModel, CostParams, ResourceModel, RuntimeProfile};
use pipeleon_ir::json::{from_json_string, to_json_string};
use pipeleon_ir::ProgramGraph;
use pipeleon_net::{FieldMap, IngestConfig, IngestServer, NetClient};
use pipeleon_obs::{EventJournal, EventKind, LatencyHistogram, MetricsRegistry};
use pipeleon_sim::{
    BatchStats, EngineMode, ExecObservations, NicConfig, Packet, ShardMode, ShardedNic, SmartNic,
};
use pipeleon_verify::{
    lint_concurrency_with_count, lint_program, render_report, render_report_json, LintConfig,
    Severity,
};
use pipeleon_workloads::traffic::FlowGen;
use std::time::{Duration, Instant};

const USAGE: &str = "\
pipeleon — profile-guided P4 SmartNIC optimizer (SIGCOMM'23 reproduction)

USAGE:
  pipeleon optimize <program> [--profile p.json] [--target T]
           [--top-k F] [--memory BYTES] [--updates RATE] [-o out.json]
  pipeleon simulate <program> [--target T] [--packets N]
           [--flows N] [--zipf S] [--seed S] [--trace t.trace]
           [--workers N] [--shard-mode run-loop]
           [--sample N] [--engine compiled|interp]
           [--batch N] [--profile-out p.json]
           [--metrics-out m.prom|m.json] [--journal-out j.jsonl]
           [--live-reconfig] [--no-specialize]
           [--chaos-seed S [--windows N]]
  pipeleon metrics  <program> [--target T] [--packets N]
           [--flows N] [--zipf S] [--seed S] [--sample N]
           [-o m.prom|m.json]
  pipeleon analyze  <program> [--target T] [--deny-warnings]
           [--format text|json]
  pipeleon analyze  --concurrency [repo-root] [--format text|json]
  pipeleon serve    <program> [--listen ADDR] [--target T] [--workers N]
           [--engine compiled|interp] [--shard-mode run-loop]
           [--batch N] [--burst N] [--sample N] [--live-reconfig]
           [--max-packets N] [--idle-timeout-ms MS] [--tick-packets N]
           [--addr-file f] [--metrics-out m.prom|m.json]
           [--journal-out j.jsonl]
  pipeleon drive    <program> --connect ADDR [--packets N] [--flows N]
           [--zipf S] [--seed S] [--window N] [--timeout-ms MS]
           [--metrics-out m.prom|m.json]
  pipeleon inspect  <program> [--target T] [--profile p.json]
  pipeleon build    <program.p4> [-o out.json]
  pipeleon calibrate [--target T]

<program> is BMv2-style JSON IR, or P4-lite source (*.p4 / *.p4l).
TARGETS: bluefield2 (default) | agilio_cx | emulated_nic";

/// Entry point shared with tests.
pub fn run(argv: &[String]) -> Result<(), String> {
    let args = parse(argv)?;
    match args.positional.first().map(String::as_str) {
        Some("optimize") => optimize(&args),
        Some("simulate") => simulate(&args),
        Some("metrics") => metrics_summary(&args),
        Some("analyze") => analyze(&args),
        Some("serve") => serve(&args),
        Some("drive") => drive(&args),
        Some("inspect") => inspect(&args),
        Some("build") => build(&args),
        Some("calibrate") => calibrate(&args),
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
        None => Err(USAGE.to_string()),
    }
}

fn target(args: &Args) -> Result<CostParams, String> {
    match args.get_or("target", "bluefield2") {
        "bluefield2" => Ok(CostParams::bluefield2()),
        "agilio_cx" => Ok(CostParams::agilio_cx()),
        "emulated_nic" => Ok(CostParams::emulated_nic()),
        other => Err(format!(
            "unknown target {other:?} (bluefield2 | agilio_cx | emulated_nic)"
        )),
    }
}

fn load_program(args: &Args) -> Result<ProgramGraph, String> {
    let path = args
        .positional
        .get(1)
        .ok_or("missing <program.json|program.p4> argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".p4") || path.ends_with(".p4l") {
        pipeleon_p4::parse_program(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        from_json_string(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn load_profile(args: &Args, g: &ProgramGraph) -> Result<RuntimeProfile, String> {
    match args.get("profile") {
        None => Ok(RuntimeProfile::empty()),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let doc: ProfileDoc =
                serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            profile_doc::to_profile(&doc, g)
        }
    }
}

/// `analyze`: run the static program lints and print the diagnostic
/// report. Exits nonzero on any error-severity diagnostic, or on any
/// diagnostic at all under `--deny-warnings`.
fn analyze(args: &Args) -> Result<(), String> {
    let diags = if args.get_bool("concurrency") {
        // Memory-model lint over the repository's own sources instead
        // of a program: gate for the model-checked datapath (PV2xx).
        let root = args.positional.get(1).map(String::as_str).unwrap_or(".");
        let (diags, scanned) = lint_concurrency_with_count(std::path::Path::new(root))?;
        eprintln!("concurrency lint: scanned {scanned} Rust files under {root}");
        diags
    } else {
        let params = target(args)?;
        let g = load_program(args)?;
        lint_program(&g, &LintConfig::with_params(params))
    };
    match args.get_or("format", "text") {
        "text" => println!("{}", render_report(&diags)),
        "json" => println!("{}", render_report_json(&diags)),
        other => return Err(format!("unknown --format {other:?} (text | json)")),
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    if errors > 0 {
        Err(format!("analysis failed: {errors} error(s)"))
    } else if warnings > 0 && args.get_bool("deny-warnings") {
        Err(format!(
            "analysis failed: {warnings} warning(s) with --deny-warnings"
        ))
    } else {
        Ok(())
    }
}

/// Refuses to run a program the verifier proves broken (error-severity
/// lints); warnings are advisory and do not block.
fn lint_preflight(g: &ProgramGraph, params: &CostParams) -> Result<(), String> {
    let errors: Vec<_> = lint_program(g, &LintConfig::with_params(params.clone()))
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    if errors.is_empty() {
        return Ok(());
    }
    let mut msg = String::from("program rejected by the verifier:\n");
    for d in &errors {
        msg.push_str(&d.render_text());
        msg.push('\n');
    }
    msg.push_str("(run `pipeleon analyze` for the full report)");
    Err(msg)
}

fn optimize(args: &Args) -> Result<(), String> {
    let params = target(args)?;
    let g = load_program(args)?;
    lint_preflight(&g, &params)?;
    let profile = load_profile(args, &g)?;
    let cfg = OptimizerConfig {
        top_k_fraction: args.get_f64("top-k", 0.3)?,
        ..OptimizerConfig::default()
    };
    let limits = ResourceLimits::new(
        args.get_f64("memory", f64::INFINITY)?,
        args.get_f64("updates", f64::INFINITY)?,
    );
    let optimizer = Optimizer::new(CostModel::new(params)).with_config(cfg);
    let outcome = optimizer
        .optimize(&g, &profile, limits)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "optimized {:?}: estimated gain {:.1} ns/packet, {} candidates in {:?}",
        g.name, outcome.est_gain_ns, outcome.candidates_evaluated, outcome.search_time
    );
    for step in &outcome.applied.summary {
        eprintln!("  - {step}");
    }
    if outcome.applied.summary.is_empty() {
        eprintln!("  (no profitable transformation found; output = input layout)");
    }
    if outcome.candidates_rejected > 0 {
        eprintln!(
            "  {} candidate(s) rejected by the plan-safety verifier",
            outcome.candidates_rejected
        );
    }
    let json = to_json_string(&outcome.applied.graph).map_err(|e| e.to_string())?;
    match args.get("o") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// `build`: P4-lite source → JSON IR.
fn build(args: &Args) -> Result<(), String> {
    let g = load_program(args)?;
    let json = to_json_string(&g).map_err(|e| e.to_string())?;
    eprintln!(
        "built {:?}: {} tables, {} nodes",
        g.name,
        g.tables().count(),
        g.num_nodes()
    );
    match args.get("o") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// Builds the simulation batch: trace-driven replay when `--trace` is
/// given, otherwise seeded flow-generated traffic over every field any
/// table matches on.
fn gen_batch(args: &Args, g: &ProgramGraph, packets: usize) -> Result<Vec<Packet>, String> {
    let flows = args.get_usize("flows", 1000)?;
    let zipf = args.get_f64("zipf", 0.0)?;
    let seed = args.get_usize("seed", 1)? as u64;
    match args.get("trace") {
        Some(path) => {
            // Trace-driven replay, looped to reach the requested count.
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let trace = pipeleon_workloads::trace::Trace::parse(&text, g)?;
            if trace.is_empty() {
                return Err(format!("{path}: trace has no packets"));
            }
            let repeat = packets.div_ceil(trace.len());
            let mut b = trace.replay(g, repeat);
            b.truncate(packets);
            Ok(b)
        }
        None => {
            // Flow fields: every field any table matches on.
            let mut flow_fields = Vec::new();
            for (_, t) in g.tables() {
                for k in &t.keys {
                    if !flow_fields.contains(&k.field) {
                        flow_fields.push(k.field);
                    }
                }
            }
            Ok(FlowGen::new(g.fields.len(), flow_fields, flows, seed)
                .with_zipf(zipf)
                .batch(packets))
        }
    }
}

/// Adds the datapath series — packet/table latency histograms from the
/// executor's sampled observations, plus batch throughput facts — to a
/// metrics registry.
fn datapath_metrics_into(
    reg: &mut MetricsRegistry,
    g: &ProgramGraph,
    stats: Option<&BatchStats>,
    obs: &ExecObservations,
) {
    reg.help(
        "pipeleon_packet_latency_ns",
        "End-to-end accounted latency of sampled packets",
    );
    reg.merge_histogram("pipeleon_packet_latency_ns", &[], &obs.packet_latency);
    reg.help(
        "pipeleon_table_latency_ns",
        "Latency contributed per table (match+actions+counters) on sampled packets",
    );
    for (node, hist) in &obs.per_table {
        let name = g
            .node(*node)
            .map(|n| n.name().to_string())
            .unwrap_or_else(|| format!("node{}", node.0));
        reg.merge_histogram("pipeleon_table_latency_ns", &[("table", &name)], hist);
    }
    if let Some(s) = stats {
        reg.help("pipeleon_packets_total", "Packets processed in the batch");
        reg.counter_add("pipeleon_packets_total", &[], s.packets);
        reg.help("pipeleon_dropped_total", "Packets dropped by the program");
        reg.counter_add("pipeleon_dropped_total", &[], s.dropped);
        reg.help("pipeleon_mean_latency_ns", "Mean per-packet latency, ns");
        reg.gauge_set("pipeleon_mean_latency_ns", &[], s.mean_latency_ns);
        reg.help("pipeleon_p99_latency_ns", "99th-percentile latency, ns");
        reg.gauge_set("pipeleon_p99_latency_ns", &[], s.p99_latency_ns);
        reg.help("pipeleon_throughput_gbps", "Achieved throughput, Gbit/s");
        reg.gauge_set("pipeleon_throughput_gbps", &[], s.throughput_gbps);
        reg.help("pipeleon_offered_gbps", "Offered load (line rate), Gbit/s");
        reg.gauge_set("pipeleon_offered_gbps", &[], s.offered_gbps);
    }
}

/// Writes a registry to `path`: the JSON snapshot for `*.json`, the
/// Prometheus text exposition otherwise.
fn write_metrics(path: &str, reg: &MetricsRegistry) -> Result<(), String> {
    let text = if path.ends_with(".json") {
        reg.render_json()
    } else {
        reg.render_prometheus()
    };
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote metrics to {path}");
    Ok(())
}

fn write_journal(path: &str, journal: &EventJournal) -> Result<(), String> {
    std::fs::write(path, journal.to_jsonl()).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "wrote journal to {path} ({} events, {} evicted)",
        journal.len(),
        journal.dropped()
    );
    Ok(())
}

/// Parses `--engine compiled|interp` (compiled is the default; both
/// engines produce bit-identical results).
fn engine_mode(args: &Args) -> Result<EngineMode, String> {
    match args.get_or("engine", "compiled") {
        "compiled" => Ok(EngineMode::Compiled),
        "interp" | "interpreter" => Ok(EngineMode::Interpreter),
        other => Err(format!("unknown --engine {other:?} (compiled | interp)")),
    }
}

/// Whether to run the sharded datapath: at `--workers N > 1`, or with an
/// explicit `--shard-mode run-loop`, which opts into it even at
/// `--workers 1` (for differential runs against a single worker).
fn use_sharded(args: &Args, workers: usize) -> Result<bool, String> {
    match args.get("shard-mode") {
        None => Ok(workers > 1),
        Some(s) => ShardMode::parse(s)
            .map(|_| true)
            .ok_or_else(|| format!("unknown --shard-mode {s:?} (run-loop)")),
    }
}

/// One measurement window, optionally with a mid-window specialization
/// pass: the first half of the batch warms the profile and hot-key
/// sketches, the backend specializes, and the window finishes on the
/// specialized datapath. The begin/feed/end window merges to the same
/// statistics as a single `measure_batch` of the whole batch —
/// specialization only changes host wall-clock, never modeled results.
fn measure_with_spec<N: pipeleon_sim::NicBackend>(
    nic: &mut N,
    batch: Vec<Packet>,
    specialize: bool,
) -> BatchStats {
    if !specialize || batch.len() < 2 {
        return nic.measure_batch(batch);
    }
    let mut head = batch;
    let tail = head.split_off(head.len() / 2);
    nic.measure_begin();
    nic.measure_feed(head);
    nic.specialize();
    nic.measure_feed(tail);
    nic.measure_end()
}

/// Writes the specialization counters into a metrics registry under the
/// same names the runtime controller exports.
fn spec_metrics_into(reg: &mut MetricsRegistry, spec: &pipeleon_sim::SpecStats) {
    reg.counter_set("pipeleon_specialize_guard_hits_total", &[], spec.guard_hits);
    reg.counter_set(
        "pipeleon_specialize_guard_misses_total",
        &[],
        spec.guard_misses,
    );
    reg.counter_set("pipeleon_specializations_total", &[], spec.specializations);
    reg.counter_set(
        "pipeleon_despecializations_total",
        &[],
        spec.despecializations,
    );
    reg.gauge_set(
        "pipeleon_specialized_tables",
        &[],
        spec.specialized_tables as f64,
    );
}

fn simulate(args: &Args) -> Result<(), String> {
    let params = target(args)?;
    let g = load_program(args)?;
    lint_preflight(&g, &params)?;
    let packets = args.get_usize("packets", 20_000)?;
    let workers = args.get_usize("workers", 1)?;
    let sample = args.get_usize("sample", 1)?.max(1) as u64;
    let engine = engine_mode(args)?;
    let sharded = use_sharded(args, workers)?;
    let config = NicConfig {
        batch: args.get_usize("batch", 32)?.max(1),
        ..NicConfig::default()
    };
    let batch = gen_batch(args, &g, packets)?;
    // Chaos mode: instead of one measurement batch, run the runtime
    // controller loop against a fault-injected target and report per-
    // window reconfiguration health.
    if let Some(s) = args.get("chaos-seed") {
        let chaos_seed: u64 = s
            .parse()
            .map_err(|_| format!("bad --chaos-seed {s:?} (expected u64)"))?;
        let windows = args.get_usize("windows", 5)?;
        return if sharded {
            let mut nic = ShardedNic::new(g.clone(), params, workers)
                .map_err(|e| e.to_string())?
                .with_config(config);
            nic.set_engine_mode(engine);
            chaos_simulate(args, nic, chaos_seed, windows, batch)
        } else {
            let mut nic = SmartNic::new(g.clone(), params)
                .map_err(|e| e.to_string())?
                .with_config(config);
            nic.set_engine_mode(engine);
            chaos_simulate(args, nic, chaos_seed, windows, batch)
        };
    }
    // The sharded datapath merges results at window boundaries: integer
    // statistics, profiles, and histograms are worker-count-invariant.
    // Profile-guided specialization is on by default for the compiled
    // engine (the interpreter is the oracle and never specializes).
    let specialize = engine == EngineMode::Compiled && !args.get_bool("no-specialize");
    let (stats, profile, obs, spec, elapsed_s) = if sharded {
        let mut nic = ShardedNic::new(g.clone(), params, workers)
            .map_err(|e| e.to_string())?
            .with_config(config);
        nic.set_engine_mode(engine);
        nic.set_live_reconfig(args.get_bool("live-reconfig"));
        nic.set_instrumentation(true, sample);
        let stats = measure_with_spec(&mut nic, batch, specialize);
        let spec = nic.spec_stats();
        let (p, o) = (nic.take_profile(), nic.take_observations());
        let t = pipeleon_sim::NicBackend::now_s(&nic);
        (stats, p, o, spec, t)
    } else {
        let mut nic = SmartNic::new(g.clone(), params)
            .map_err(|e| e.to_string())?
            .with_config(config);
        nic.set_engine_mode(engine);
        nic.set_live_reconfig(args.get_bool("live-reconfig"));
        nic.set_instrumentation(true, sample);
        let stats = measure_with_spec(&mut nic, batch, specialize);
        let spec = SmartNic::spec_stats(&nic);
        let (p, o) = (nic.take_profile(), SmartNic::take_observations(&mut nic));
        let t = nic.now_s();
        (stats, p, o, spec, t)
    };
    println!("packets:           {}", stats.packets);
    println!("dropped:           {}", stats.dropped);
    println!("mean latency (ns): {:.1}", stats.mean_latency_ns);
    println!("p99 latency (ns):  {:.1}", stats.p99_latency_ns);
    println!(
        "throughput (Gbps): {:.2} of {:.0} offered",
        stats.throughput_gbps, stats.offered_gbps
    );
    if specialize {
        println!(
            "specialization:    {} table(s), guard hits {} misses {}",
            spec.specialized_tables, spec.guard_hits, spec.guard_misses
        );
    }
    if let Some(path) = args.get("profile-out") {
        let doc = profile_doc::from_profile(&profile, &g);
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote collected profile to {path}");
    }
    if let Some(path) = args.get("metrics-out") {
        let mut reg = MetricsRegistry::new();
        datapath_metrics_into(&mut reg, &g, Some(&stats), &obs);
        if specialize {
            spec_metrics_into(&mut reg, &spec);
        }
        write_metrics(path, &reg)?;
    }
    if let Some(path) = args.get("journal-out") {
        // A plain simulate run is one measurement window.
        let mut journal = EventJournal::new(16);
        journal.push(
            elapsed_s,
            EventKind::WindowProfiled {
                window_s: elapsed_s,
                packets: stats.packets,
                change: 0.0,
                reoptimized: false,
                deployed: false,
            },
        );
        write_journal(path, &journal)?;
    }
    Ok(())
}

/// `metrics`: run a sampled measurement batch and print a per-table
/// latency summary straight from the mergeable histograms; `-o` writes
/// the full exposition (Prometheus text, or JSON for `*.json`).
fn metrics_summary(args: &Args) -> Result<(), String> {
    let params = target(args)?;
    let g = load_program(args)?;
    lint_preflight(&g, &params)?;
    let packets = args.get_usize("packets", 20_000)?;
    let sample = args.get_usize("sample", 1)?.max(1) as u64;
    let batch = gen_batch(args, &g, packets)?;
    let mut nic = SmartNic::new(g.clone(), params).map_err(|e| e.to_string())?;
    nic.set_instrumentation(true, sample);
    let stats = nic.measure(batch);
    let obs = nic.take_observations();
    let q = |h: &pipeleon_obs::LatencyHistogram, q: f64| {
        h.quantile(q).map_or("-".to_string(), |v| v.to_string())
    };
    println!(
        "metrics for {:?}: {} packets, 1-in-{} sampled",
        g.name, stats.packets, sample
    );
    let h = &obs.packet_latency;
    println!(
        "packet latency (ns): count {:>7}  mean {:>8.1}  p50 {:>6}  p90 {:>6}  p99 {:>6}  max {:>6}",
        h.count(),
        h.mean_ns().unwrap_or(0.0),
        q(h, 0.50),
        q(h, 0.90),
        q(h, 0.99),
        h.max_ns().map_or("-".to_string(), |v| v.to_string()),
    );
    println!("per-table latency (ns):");
    for (node, hist) in &obs.per_table {
        let name = g.node(*node).map(|n| n.name()).unwrap_or("?");
        println!(
            "  {:<20} count {:>7}  mean {:>8.1}  p50 {:>6}  p99 {:>6}",
            name,
            hist.count(),
            hist.mean_ns().unwrap_or(0.0),
            q(hist, 0.50),
            q(hist, 0.99),
        );
    }
    if let Some(path) = args.get("o") {
        let mut reg = MetricsRegistry::new();
        datapath_metrics_into(&mut reg, &g, Some(&stats), &obs);
        write_metrics(path, &reg)?;
    }
    Ok(())
}

/// `simulate --chaos-seed`: drive the runtime controller over `windows`
/// profiling windows while a seeded fault injector disturbs the target,
/// then verify the deployed state converged to the controller's
/// last-known-good layout.
fn chaos_simulate<N: pipeleon_sim::NicBackend>(
    args: &Args,
    mut nic: N,
    seed: u64,
    windows: usize,
    batch: Vec<Packet>,
) -> Result<(), String> {
    use pipeleon_runtime::{
        graph_fingerprint, Controller, ControllerConfig, FaultConfig, FaultyTarget, SimTarget,
        Target,
    };
    nic.set_instrumentation(true, 1);
    let live = args.get_bool("live-reconfig");
    nic.set_live_reconfig(live);
    let g = nic.graph().clone();
    let params = nic.params().clone();
    let optimizer = Optimizer::new(CostModel::new(params));
    let mut target = FaultyTarget::new(SimTarget::live(nic), FaultConfig::chaos(seed));
    // Construction deploys fault-free; chaos starts with the loop.
    target.set_armed(false);
    let cfg = ControllerConfig {
        specialize: !args.get_bool("no-specialize"),
        ..ControllerConfig::default()
    };
    let mut c = Controller::new(target, g.clone(), optimizer, cfg).map_err(|e| e.to_string())?;
    c.target.set_armed(true);
    let windows = windows.max(1);
    let per_window = (batch.len() / windows).max(1);
    println!(
        "chaos run: seed {seed}, {windows} windows x {per_window} packets{}",
        if live { " (live reconfiguration)" } else { "" }
    );
    let (mut offered, mut processed) = (0u64, 0u64);
    for (w, chunk) in batch.chunks(per_window).take(windows).enumerate() {
        let r = if live {
            // Keep the measurement window open across the controller
            // tick: whatever the tick deploys publishes as a generation
            // swap with the window's traffic genuinely in flight.
            let mid = chunk.len() / 2;
            c.target.inner.nic.measure_begin();
            c.target.inner.nic.measure_feed(chunk[..mid].to_vec());
            let r = c.tick().map_err(|e| e.to_string())?;
            c.target.inner.nic.measure_feed(chunk[mid..].to_vec());
            let s = c.target.inner.nic.measure_end();
            offered += chunk.len() as u64;
            processed += s.packets;
            r
        } else {
            c.target.inner.nic.measure_batch(chunk.to_vec());
            c.tick().map_err(|e| e.to_string())?
        };
        let h = &r.health;
        let mut line = format!(
            "window {:>2}: change {:>6.3}  {}",
            w + 1,
            if r.profile_change.is_finite() {
                r.profile_change
            } else {
                9.999
            },
            if r.reoptimized { "reopt" } else { "idle " },
        );
        if r.deployed {
            line.push_str(&format!("  deployed (gain {:.1} ns/pkt)", r.est_gain_ns));
        }
        line.push_str(&format!(
            "  retries {} rollbacks {} losses {}",
            h.deploy_retries, h.rollbacks, h.profile_losses
        ));
        if h.degraded {
            line.push_str("  DEGRADED");
        }
        if h.pin_pending {
            line.push_str("  PIN-PENDING");
        }
        println!("{line}");
    }
    // Healing: faults off; repair a pending pin if the run ended wedged.
    c.target.set_armed(false);
    if c.health().pin_pending {
        let _ = c.tick();
    }
    let h = c.health().clone();
    let verified = c.target.fingerprint() == Some(graph_fingerprint(c.last_known_good()));
    println!(
        "faults injected:   {} over {} target ops",
        c.target.fault_count(),
        c.target.op_log().len()
    );
    println!("reconfigurations:  {}", c.reconfig_count);
    println!(
        "final health:      retries {} rollbacks {} losses {} degraded {} pin_pending {}",
        h.deploy_retries, h.rollbacks, h.profile_losses, h.degraded, h.pin_pending
    );
    println!(
        "target state:      {}",
        if verified {
            "verified (fingerprint matches last-known-good)"
        } else {
            "DIVERGED"
        }
    );
    if live {
        let swaps = c.target.last_swap().map_or(0, |s| s.generation);
        println!(
            "live datapath:     {processed} of {offered} packets processed across swaps, \
             generation {swaps}"
        );
    }
    // Fold the injector's op log into the controller's journal so the
    // postmortem timeline shows faults next to the loop's reactions —
    // each at the datapath clock where it fired, so `--journal-out`
    // interleaves faults with generation swaps on one timeline.
    let injected: Vec<(f64, String, String)> = c
        .target
        .op_log()
        .iter()
        .filter_map(|r| {
            r.fault
                .as_ref()
                .map(|f| (r.at_s, format!("{:?}", r.op), format!("{f:?}")))
        })
        .collect();
    for (at_s, op, fault) in injected {
        c.journal_mut()
            .push(at_s, EventKind::FaultInjected { op, fault });
    }
    if let Some(path) = args.get("metrics-out") {
        // Control-loop series plus the datapath histograms the sampled
        // executor collected across all windows.
        let obs = c.target.inner.nic.take_observations();
        datapath_metrics_into(c.metrics_mut(), &g, None, &obs);
        write_metrics(path, c.metrics())?;
    }
    if let Some(path) = args.get("journal-out") {
        write_journal(path, c.journal())?;
    }
    if !verified {
        return Err("chaos run ended with the target diverged from controller bookkeeping".into());
    }
    if live && processed != offered {
        return Err(format!(
            "live reconfiguration lost traffic: {processed} of {offered} packets processed"
        ));
    }
    Ok(())
}

/// Termination and control-loop knobs for `serve`.
struct ServeLimits {
    /// Stop after this many well-formed frames (0 = serve forever).
    max_packets: u64,
    /// Stop after this long without traffic (zero = never).
    idle_timeout: Duration,
    /// Run a controller tick every N served frames (0 = no controller).
    tick_packets: u64,
}

/// `serve`: bind a UDP socket and answer live peers through the
/// datapath. Frames decode via the program's wire contract, run through
/// `process_batch`, and each verdict is echoed to its sender. With
/// `--tick-packets N` the runtime controller ticks against the serving
/// backend every N frames, reoptimizing (and, with `--live-reconfig`,
/// generation-swapping) under the socket traffic.
fn serve(args: &Args) -> Result<(), String> {
    let params = target(args)?;
    let g = load_program(args)?;
    lint_preflight(&g, &params)?;
    let map = FieldMap::from_graph(&g).map_err(|e| format!("{:?}: {e}", g.name))?;
    let listen = args.get_or("listen", "127.0.0.1:9900");
    let config = IngestConfig {
        burst: args.get_usize("burst", 64)?.max(1),
        max_frame: args.get_usize("max-frame", 2048)?,
    };
    let server =
        IngestServer::bind(listen, config).map_err(|e| format!("cannot bind {listen}: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    if let Some(path) = args.get("addr-file") {
        // Lets scripts discover an OS-assigned port (--listen host:0).
        std::fs::write(path, addr.to_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!(
        "serving {:?} on {addr}: {} header-bound field(s), {} residue slot(s), {}-byte frames",
        g.name,
        map.bound().len(),
        map.residue().len(),
        map.frame_len()
    );
    let engine = engine_mode(args)?;
    let workers = args.get_usize("workers", 1)?;
    let sample = args.get_usize("sample", 1)?.max(1) as u64;
    let nic_config = NicConfig {
        batch: args.get_usize("batch", 32)?.max(1),
        ..NicConfig::default()
    };
    let limits = ServeLimits {
        max_packets: args.get_usize("max-packets", 0)? as u64,
        idle_timeout: Duration::from_millis(args.get_usize("idle-timeout-ms", 0)? as u64),
        tick_packets: args.get_usize("tick-packets", 0)? as u64,
    };
    if use_sharded(args, workers)? {
        let mut nic = ShardedNic::new(g.clone(), params.clone(), workers)
            .map_err(|e| e.to_string())?
            .with_config(nic_config);
        nic.set_engine_mode(engine);
        nic.set_live_reconfig(args.get_bool("live-reconfig"));
        nic.set_instrumentation(true, sample);
        run_serve(args, server, nic, &g, params, &map, &limits)
    } else {
        let mut nic = SmartNic::new(g.clone(), params.clone())
            .map_err(|e| e.to_string())?
            .with_config(nic_config);
        nic.set_engine_mode(engine);
        nic.set_live_reconfig(args.get_bool("live-reconfig"));
        nic.set_instrumentation(true, sample);
        run_serve(args, server, nic, &g, params, &map, &limits)
    }
}

/// The serving loop proper, over either backend: plain polling, or
/// polling interleaved with controller ticks when `--tick-packets` > 0.
fn run_serve<N: pipeleon_sim::NicBackend>(
    args: &Args,
    mut server: IngestServer,
    nic: N,
    g: &ProgramGraph,
    params: CostParams,
    map: &FieldMap,
    limits: &ServeLimits,
) -> Result<(), String> {
    use pipeleon_runtime::{Controller, ControllerConfig, SimTarget};
    let mut reg = MetricsRegistry::new();
    let mut journal = None;
    let mut reconfigs = None;
    if limits.tick_packets > 0 {
        let optimizer = Optimizer::new(CostModel::new(params));
        let mut c = Controller::new(
            SimTarget::live(nic),
            g.clone(),
            optimizer,
            ControllerConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        let mut last_rx = Instant::now();
        let mut ticked_at = 0u64;
        loop {
            let received = server
                .poll_once(&mut c.target.nic, map)
                .map_err(|e| format!("socket error on {:?}: {e}", g.name))?;
            if received == 0 {
                if limits.idle_timeout > Duration::ZERO && last_rx.elapsed() >= limits.idle_timeout
                {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            } else {
                last_rx = Instant::now();
            }
            let frames = server.stats().frames;
            if frames >= ticked_at + limits.tick_packets {
                ticked_at = frames;
                let r = c.tick().map_err(|e| e.to_string())?;
                eprintln!(
                    "tick at {frames} frames: change {:.3} {}{}",
                    if r.profile_change.is_finite() {
                        r.profile_change
                    } else {
                        9.999
                    },
                    if r.reoptimized { "reopt" } else { "idle" },
                    if r.deployed {
                        format!(" deployed (gain {:.1} ns/pkt)", r.est_gain_ns)
                    } else {
                        String::new()
                    }
                );
            }
            if limits.max_packets > 0 && frames >= limits.max_packets {
                break;
            }
        }
        let obs = c.target.nic.take_observations();
        datapath_metrics_into(c.metrics_mut(), g, None, &obs);
        server.metrics_into(c.metrics_mut());
        reg = std::mem::take(c.metrics_mut());
        journal = Some(c.journal().clone());
        reconfigs = Some(c.reconfig_count);
    } else {
        let mut nic = nic;
        let mut last_rx = Instant::now();
        loop {
            let received = server
                .poll_once(&mut nic, map)
                .map_err(|e| format!("socket error on {:?}: {e}", g.name))?;
            if received == 0 {
                if limits.idle_timeout > Duration::ZERO && last_rx.elapsed() >= limits.idle_timeout
                {
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            } else {
                last_rx = Instant::now();
            }
            if limits.max_packets > 0 && server.stats().frames >= limits.max_packets {
                break;
            }
        }
        let obs = nic.take_observations();
        datapath_metrics_into(&mut reg, g, None, &obs);
        server.metrics_into(&mut reg);
    }
    let s = server.stats();
    println!("frames served:     {}", s.frames);
    println!("responses sent:    {}", s.responses);
    println!("decode errors:     {}", s.decode_errors);
    println!(
        "drops:             {} (oversize {}, encode {}, tx {})",
        s.dropped() - s.decode_errors,
        s.oversize,
        s.encode_errors,
        s.tx_dropped
    );
    let h = server.e2e();
    if h.count() > 0 {
        println!(
            "e2e latency (ns):  p50 {}  p99 {}  max {}",
            h.quantile(0.50).unwrap_or(0),
            h.quantile(0.99).unwrap_or(0),
            h.max_ns().unwrap_or(0)
        );
    }
    if let Some(r) = reconfigs {
        println!("reconfigurations:  {r}");
    }
    if let Some(path) = args.get("metrics-out") {
        write_metrics(path, &reg)?;
    }
    if let Some(path) = args.get("journal-out") {
        if let Some(j) = &journal {
            write_journal(path, j)?;
        }
    }
    Ok(())
}

/// `drive`: replay generated (or trace-driven) traffic for a program
/// against a serving pipeleon instance over a real socket, and fail
/// hard unless every packet comes back well-formed.
fn drive(args: &Args) -> Result<(), String> {
    let g = load_program(args)?;
    let map = FieldMap::from_graph(&g).map_err(|e| format!("{:?}: {e}", g.name))?;
    let connect = args
        .get("connect")
        .ok_or("missing --connect ADDR (the serving pipeleon instance)")?;
    let packets = args.get_usize("packets", 20_000)?;
    let batch = gen_batch(args, &g, packets)?;
    let client = NetClient::connect(connect)
        .map_err(|e| format!("cannot reach {connect}: {e}"))?
        .with_window(args.get_usize("window", 128)?)
        .with_timeout(Duration::from_millis(
            args.get_usize("timeout-ms", 5000)? as u64
        ));
    let t0 = Instant::now();
    let report = client.replay(&batch, &map).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
    let dropped = report.echoes.iter().filter(|e| e.packet.dropped).count();
    println!("sent:              {}", batch.len());
    println!("echoed:            {}", report.echoes.len());
    println!("decode errors:     {}", report.decode_errors);
    println!("dropped verdicts:  {dropped}");
    println!("mean RTT (ns):     {:.0}", report.mean_rtt_ns());
    println!("replay rate:       {:.0} pps", batch.len() as f64 / elapsed);
    if let Some(path) = args.get("metrics-out") {
        let mut reg = MetricsRegistry::new();
        reg.help(
            "pipeleon_client_rtt_ns",
            "Per-request round-trip time observed by the traffic driver",
        );
        let mut h = LatencyHistogram::new();
        for e in &report.echoes {
            h.record_ns(e.rtt_ns);
        }
        reg.merge_histogram("pipeleon_client_rtt_ns", &[], &h);
        write_metrics(path, &reg)?;
    }
    if report.decode_errors > 0 {
        return Err(format!(
            "replay saw {} malformed response(s)",
            report.decode_errors
        ));
    }
    Ok(())
}

fn inspect(args: &Args) -> Result<(), String> {
    let params = target(args)?;
    let g = load_program(args)?;
    let profile = load_profile(args, &g)?;
    let model = CostModel::new(params.clone());
    let resources = ResourceModel::new(params);
    println!(
        "program {:?}: {} tables, {} nodes, {} fields",
        g.name,
        g.tables().count(),
        g.num_nodes(),
        g.fields.len()
    );
    println!(
        "expected latency: {:.1} ns/packet; memory: {:.0} bytes",
        model.expected_latency(&g, &profile),
        resources.program_memory(&g)
    );
    let pipelets = partition(&g, 24);
    let scores = score_pipelets(&model, &g, &profile, &pipelets);
    println!("pipelets ({}):", pipelets.len());
    for (p, s) in pipelets.iter().zip(&scores) {
        let names: Vec<&str> = p
            .tables
            .iter()
            .filter_map(|&id| g.node(id).map(|n| n.name()))
            .collect();
        println!(
            "  #{:<3} cost {:>8.2} ns  reach {:>5.1}%  [{}]",
            p.id,
            s.cost,
            100.0 * s.reach,
            names.join(" -> ")
        );
    }
    Ok(())
}

fn calibrate(args: &Args) -> Result<(), String> {
    let params = target(args)?;
    let cal = Calibrator::default();
    let report = cal.run(|g| {
        let mut nic = SmartNic::new(g.clone(), params.clone()).expect("deploys");
        let key = g.fields.get("key").expect("calibration field");
        let packets: Vec<Packet> = (0..2000)
            .map(|i| {
                let mut p = Packet::new(&g.fields);
                p.set(key, i % 64);
                p
            })
            .collect();
        nic.mean_latency(packets)
    });
    println!("calibrated against target {:?}:", params.name);
    println!("  programs measured: {}", report.programs_measured);
    println!("  L_mat     = {:.3} ns", report.l_mat);
    println!("  L_act     = {:.3} ns", report.l_act);
    println!("  m_lpm     = {:.3}", report.m_lpm);
    println!("  m_ternary = {:.3}", report.m_ternary);
    println!(
        "  fits: exact r2 = {:.5}, action r2 = {:.5}",
        report.exact_fit.r2, report.action_fit.r2
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// Runs a CLI invocation the test requires to succeed, naming the
    /// full argv on failure (a bare `unwrap` points at nothing
    /// actionable when a multi-step test dies mid-pipeline).
    fn run_expect(argv: &[&str]) {
        run(&v(argv)).unwrap_or_else(|e| panic!("`pipeleon {}` failed: {e}", argv.join(" ")));
    }

    /// Reads back an artifact a CLI command was asked to write, naming
    /// the path on failure.
    fn read_artifact(path: &std::path::Path) -> String {
        std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read artifact {}: {e}", path.display()))
    }

    fn write_sample_program(dir: &std::path::Path) -> std::path::PathBuf {
        use pipeleon_ir::{MatchKind, MatchValue, ProgramBuilder, TableEntry};
        let mut b = ProgramBuilder::named("cli_sample");
        let f = b.field("x");
        let acl = b
            .table("acl")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .entry(TableEntry::new(vec![MatchValue::Exact(5)], 1))
            .finish();
        let _t = b.table("t").key(f, MatchKind::Exact).finish();
        let g = b.seal(acl).unwrap();
        let path = dir.join("prog.json");
        std::fs::write(&path, to_json_string(&g).unwrap()).unwrap();
        path
    }

    #[test]
    fn usage_on_no_args() {
        let err = run(&[]).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn unknown_command_fails() {
        assert!(run(&v(&["frobnicate"])).is_err());
    }

    #[test]
    fn optimize_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let out = dir.join("out.json");
        run_expect(&[
            "optimize",
            prog.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
        ]);
        let text = read_artifact(&out);
        let g = from_json_string(&text)
            .unwrap_or_else(|e| panic!("optimize output {} is not valid IR: {e}", out.display()));
        g.validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_and_inspect_run() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let profile_out = dir.join("prof.json");
        run_expect(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "2000",
            "--profile-out",
            profile_out.to_str().unwrap(),
        ]);
        // The collected profile feeds back into optimize and inspect.
        run_expect(&[
            "inspect",
            prog.to_str().unwrap(),
            "--profile",
            profile_out.to_str().unwrap(),
        ]);
        run_expect(&[
            "optimize",
            prog.to_str().unwrap(),
            "--profile",
            profile_out.to_str().unwrap(),
            "-o",
            dir.join("out.json").to_str().unwrap(),
        ]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn build_compiles_p4lite_to_json() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test4_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("prog.p4");
        std::fs::write(
            &src,
            r#"program cli_p4;
               fields x;
               action deny() { drop; }
               table acl { key = { x: exact; } actions = { deny; }
                           const entries = { (9) : deny; } }
               control { acl; }"#,
        )
        .unwrap();
        let out = dir.join("prog.json");
        run_expect(&["build", src.to_str().unwrap(), "-o", out.to_str().unwrap()]);
        let g = from_json_string(&read_artifact(&out))
            .unwrap_or_else(|e| panic!("build output {} is not valid IR: {e}", out.display()));
        assert_eq!(g.tables().count(), 1);
        // And optimize/simulate accept the .p4 directly.
        run_expect(&["simulate", src.to_str().unwrap(), "--packets", "500"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_workers_flag_is_bit_reproducible() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test5_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let single = dir.join("single.json");
        let sharded = dir.join("sharded.json");
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--profile-out",
            single.to_str().unwrap(),
        ]))
        .unwrap();
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--workers",
            "4",
            "--profile-out",
            sharded.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            read_artifact(&single),
            read_artifact(&sharded),
            "sharded profile must be byte-identical to single-threaded"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_shard_mode_run_loop_is_worker_count_invariant() {
        // The SHARD_SMOKE invariant: run-loop window-merged profiles are
        // bit-identical across worker counts, even with sampling on.
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test12_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let one = dir.join("w1.json");
        let two = dir.join("w2.json");
        for (workers, out) in [("1", &one), ("2", &two)] {
            run(&v(&[
                "simulate",
                prog.to_str().unwrap(),
                "--packets",
                "3000",
                "--sample",
                "4",
                "--shard-mode",
                "run-loop",
                "--workers",
                workers,
                "--profile-out",
                out.to_str().unwrap(),
            ]))
            .unwrap();
        }
        assert_eq!(
            read_artifact(&one),
            read_artifact(&two),
            "run-loop profile must be byte-identical across worker counts"
        );
        for bad in ["bogus", "bit-exact"] {
            let err = run(&v(&[
                "simulate",
                prog.to_str().unwrap(),
                "--shard-mode",
                bad,
            ]))
            .unwrap_err();
            assert!(err.contains("--shard-mode"), "unexpected error: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_engine_flag_is_bit_reproducible() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test11_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let compiled = dir.join("compiled.json");
        let interp = dir.join("interp.json");
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--engine",
            "compiled",
            "--batch",
            "64",
            "--profile-out",
            compiled.to_str().unwrap(),
        ]))
        .unwrap();
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--engine",
            "interp",
            "--profile-out",
            interp.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(
            read_artifact(&compiled),
            read_artifact(&interp),
            "compiled-engine profile must be byte-identical to the interpreter's"
        );
        let err = run(&v(&["simulate", prog.to_str().unwrap(), "--engine", "jit"])).unwrap_err();
        assert!(err.contains("unknown --engine"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_chaos_mode_converges() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test6_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        // Single-worker and sharded chaos loops must both converge (the
        // command fails if the target ends divergent).
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--chaos-seed",
            "7",
            "--windows",
            "4",
        ]))
        .unwrap();
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--chaos-seed",
            "7",
            "--windows",
            "4",
            "--workers",
            "2",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_writes_metrics_and_journal() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test8_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let mout = dir.join("m.prom");
        let jout = dir.join("j.jsonl");
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "2000",
            "--sample",
            "4",
            "--metrics-out",
            mout.to_str().unwrap(),
            "--journal-out",
            jout.to_str().unwrap(),
        ]))
        .unwrap();
        let text = read_artifact(&mout);
        pipeleon_obs::validate_prometheus(&text).expect("exposition must validate");
        assert!(text.contains("pipeleon_packet_latency_ns_bucket"), "{text}");
        assert!(text.contains("table=\"acl\""), "{text}");
        let jsonl = read_artifact(&jout);
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            serde::value::parse_json(line)
                .unwrap_or_else(|e| panic!("journal line not valid JSON: {line}: {e}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_no_specialize_flag_and_spec_metrics() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test13_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let spec_prof = dir.join("spec.json");
        let plain_prof = dir.join("plain.json");
        let mout = dir.join("spec.prom");
        // Default compiled run specializes mid-window and exports its
        // counters; the collected profile must be identical to a
        // --no-specialize run (specialization is modeled-result-exact).
        run_expect(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--profile-out",
            spec_prof.to_str().unwrap(),
            "--metrics-out",
            mout.to_str().unwrap(),
        ]);
        run_expect(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--no-specialize",
            "--profile-out",
            plain_prof.to_str().unwrap(),
        ]);
        assert_eq!(
            read_artifact(&spec_prof),
            read_artifact(&plain_prof),
            "specialization must not perturb the collected profile"
        );
        let text = read_artifact(&mout);
        pipeleon_obs::validate_prometheus(&text).expect("exposition must validate");
        assert!(
            text.contains("pipeleon_specialize_guard_hits_total"),
            "{text}"
        );
        assert!(text.contains("pipeleon_specialized_tables"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_command_prints_summary_and_writes_json() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test9_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let out = dir.join("m.json");
        run(&v(&[
            "metrics",
            prog.to_str().unwrap(),
            "--packets",
            "1000",
            "--sample",
            "2",
            "-o",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let text = read_artifact(&out);
        serde::value::parse_json(&text).expect("JSON snapshot must be valid JSON");
        assert!(text.contains("pipeleon_packet_latency_ns"), "{text}");
        assert!(text.contains("\"p99_ns\":"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_mode_writes_controller_journal_and_metrics() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test10_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let mout = dir.join("chaos.prom");
        let jout = dir.join("chaos.jsonl");
        run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--packets",
            "3000",
            "--chaos-seed",
            "7",
            "--windows",
            "4",
            "--metrics-out",
            mout.to_str().unwrap(),
            "--journal-out",
            jout.to_str().unwrap(),
        ]))
        .unwrap();
        let text = read_artifact(&mout);
        pipeleon_obs::validate_prometheus(&text).expect("exposition must validate");
        assert!(text.contains("pipeleon_controller_ticks_total"), "{text}");
        let jsonl = read_artifact(&jout);
        assert!(
            jsonl
                .lines()
                .any(|l| l.contains("\"type\":\"window_profiled\"")),
            "{jsonl}"
        );
        for line in jsonl.lines() {
            serde::value::parse_json(line)
                .unwrap_or_else(|e| panic!("journal line not valid JSON: {line}: {e}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn examples_dir() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/programs")
    }

    #[test]
    fn analyze_concurrency_gates_the_repository() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        run(&v(&["analyze", "--concurrency", root.to_str().unwrap()]))
            .expect("the repository must pass its own memory-model lint");
    }

    #[test]
    fn analyze_clean_examples_pass_deny_warnings() {
        let mut checked = 0;
        for e in std::fs::read_dir(examples_dir()).unwrap() {
            let p = e.unwrap().path();
            if p.extension().is_some_and(|x| x == "json") {
                run(&v(&["analyze", p.to_str().unwrap(), "--deny-warnings"]))
                    .unwrap_or_else(|e| panic!("{p:?} must be lint-clean: {e}"));
                checked += 1;
            }
        }
        assert!(
            checked >= 3,
            "expected >= 3 example programs, saw {checked}"
        );
    }

    #[test]
    fn analyze_negative_fixture_fails_and_blocks_other_commands() {
        let p = examples_dir().join("negative/uninit_meta.json");
        let p = p.to_str().unwrap();
        let err = run(&v(&["analyze", p])).unwrap_err();
        assert!(err.contains("analysis failed"), "{err}");
        // The same broken program is refused by simulate and optimize.
        let err = run(&v(&["simulate", p, "--packets", "100"])).unwrap_err();
        assert!(err.contains("PV001"), "{err}");
        let err = run(&v(&["optimize", p])).unwrap_err();
        assert!(err.contains("PV001"), "{err}");
    }

    #[test]
    fn analyze_format_flag() {
        let p = examples_dir().join("acl_chain.json");
        let p = p.to_str().unwrap();
        run(&v(&["analyze", p, "--format", "json"])).unwrap();
        run(&v(&["analyze", p, "--format", "text"])).unwrap();
        let err = run(&v(&["analyze", p, "--format", "xml"])).unwrap_err();
        assert!(err.contains("unknown --format"), "{err}");
    }

    #[test]
    fn analyze_warnings_pass_without_deny_warnings() {
        // A program with a dead action -> PV003 warning only:
        // plain analyze passes, --deny-warnings fails.
        use pipeleon_ir::{MatchKind, MatchValue, ProgramBuilder, TableEntry};
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test7_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut b = ProgramBuilder::named("warn_only");
        let f = b.field("x");
        let main = b
            .table("main")
            .key(f, MatchKind::Exact)
            .action_nop("permit")
            .action_drop("deny")
            .action_nop("never_used")
            .entry(TableEntry::new(vec![MatchValue::Exact(3)], 1))
            .finish();
        let g = b.seal(main).unwrap();
        let prog = dir.join("warn_only.json");
        std::fs::write(&prog, to_json_string(&g).unwrap()).unwrap();
        run(&v(&["analyze", prog.to_str().unwrap()])).unwrap();
        let err = run(&v(&["analyze", prog.to_str().unwrap(), "--deny-warnings"])).unwrap_err();
        assert!(err.contains("warning"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_drive_round_trip_over_loopback() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test13_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let addr_file = dir.join("addr.txt");
        let mout = dir.join("serve.prom");
        let server = {
            let (prog, addr_file, mout) = (prog.clone(), addr_file.clone(), mout.clone());
            std::thread::spawn(move || {
                run(&v(&[
                    "serve",
                    prog.to_str().unwrap(),
                    "--listen",
                    "127.0.0.1:0",
                    "--addr-file",
                    addr_file.to_str().unwrap(),
                    "--max-packets",
                    "600",
                    "--idle-timeout-ms",
                    "20000",
                    "--metrics-out",
                    mout.to_str().unwrap(),
                ]))
            })
        };
        // Discover the OS-assigned port via the published addr file.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "serve never published its address"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        run_expect(&[
            "drive",
            prog.to_str().unwrap(),
            "--connect",
            &addr,
            "--packets",
            "600",
            "--window",
            "32",
        ]);
        server
            .join()
            .expect("serve thread panicked")
            .expect("serve failed");
        let text = read_artifact(&mout);
        pipeleon_obs::validate_prometheus(&text).expect("exposition must validate");
        assert!(text.contains("pipeleon_ingest_frames_total 600"), "{text}");
        assert!(
            text.contains("pipeleon_ingest_dropped_total{reason=\"decode_error\"} 0"),
            "{text}"
        );
        assert!(text.contains("pipeleon_e2e_latency_ns_bucket"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_target_is_rejected() {
        let dir = std::env::temp_dir().join(format!("pipeleon_cli_test3_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = write_sample_program(&dir);
        let err = run(&v(&[
            "simulate",
            prog.to_str().unwrap(),
            "--target",
            "tofino",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown target"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
