//! The repository's benchmark: the wire loop, the datapath and the
//! control loop, each as a named workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wire_lb|dp_synth16|ctl_nf_drift> --seed N --seconds S --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) records spans around the benchmark's calls
//! into each layer and reports per-layer metrics instead, including how
//! much slower tracing made it and how much of the traced wall time the
//! layers' self times explain. Inputs are generated from the seed;
//! outputs are checked against a reference and a mismatch exits with
//! status 1 and no result. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`; a copy with
//! run metadata goes to `perfbench/results/`.
//!
//! Wire traffic crosses the host loopback interface, not a real link.
//! Per-layer metrics of a layer a workload does not exercise read 0.

mod common;
mod ctl_nf_drift;
mod dp_synth16;
mod pacer;
mod stats;
mod trace;
mod traced_nic;
mod wire_lb;

use common::{Outcome, RunCfg};
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// End-to-end metrics, reported by every untraced run. Throughput, and
/// on the in-process workloads burst latency, are read from the fastest
/// samples of a run (`stats::fast_rate`): the shared host halves the
/// speed of a varying share of each run, which moves means and medians
/// by tens of percent between runs of the same code. Means and quartiles
/// over all samples are printed in the notes.
const END_TO_END: [(&str, &str); 4] = [
    ("pps", "1/s"),
    ("lat_p90_us", "us"),
    ("emu_lat_ns", "ns"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run.
const PER_LAYER: [(&str, &str); 43] = [
    ("net.poll_ns_per_frame", "ns"),
    ("net.self_ns_per_frame", "ns"),
    ("net.codec_ns_per_frame", "ns"),
    ("net.sys_ns_per_frame", "ns"),
    ("net.frames_per_poll", "count"),
    ("net.idle_poll_frac", "ratio"),
    ("net.allocs_per_frame", "count"),
    ("net.drops", "count"),
    ("client.busy_frac", "ratio"),
    ("client.lateness_p99_us", "us"),
    ("sim.ns_per_pkt", "ns"),
    ("sim.sharded_ns_per_pkt", "ns"),
    ("sim.handoff_ns_per_pkt", "ns"),
    ("sim.allocs_per_pkt", "count"),
    ("sim.sharded_pps", "1/s"),
    ("sim.measure_ns_per_pkt", "ns"),
    ("sim.deploy_ms", "ms"),
    ("sim.take_profile_ms", "ms"),
    ("sim.specialize_ms", "ms"),
    ("sim.entry_us", "us"),
    ("sim.guard_hit_ratio", "ratio"),
    ("sim.specializations", "count"),
    ("sim.despecializations", "count"),
    ("sim.cache_hit_ratio", "ratio"),
    ("core.search_ms", "ms"),
    ("runtime.tick_self_ms", "ms"),
    ("runtime.idle_tick_ms", "ms"),
    ("runtime.entry_self_us", "us"),
    ("runtime.deploys", "count"),
    ("runtime.deploy_per_reopt", "ratio"),
    ("runtime.rollbacks", "count"),
    ("runtime.plan_rejections", "count"),
    ("runtime.reconfig_p50_ms", "ms"),
    ("runtime.reconfig_p90_ms", "ms"),
    ("runtime.entry_op_p50_us", "us"),
    ("cost.pred_err_ns", "ns"),
    ("ir.parse_ms", "ms"),
    ("verify.lint_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("net.bind_ms", "ms"),
    ("runtime.init_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

const WORKLOADS: [&str; 3] = ["wire_lb", "dp_synth16", "ctl_nf_drift"];

struct Args {
    workload: String,
    cfg: RunCfg,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        cfg: RunCfg {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            traced: trace.ok_or("missing --trace")?,
        },
    })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn run(args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let out = match args.workload.as_str() {
        "wire_lb" => wire_lb::run(&args.cfg)?,
        "dp_synth16" => dp_synth16::run(&args.cfg)?,
        "ctl_nf_drift" => ctl_nf_drift::run(&args.cfg)?,
        _ => unreachable!("workload names are checked while parsing"),
    };
    let wanted: &[(&'static str, &'static str)] = if args.cfg.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let v = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.cfg.traced => 0.0,
            None => return Err(format!("{}: no value for {name}", args.workload)),
        };
        if !v.is_finite() {
            return Err(format!("{}: {name} is not finite ({v})", args.workload));
        }
        metrics.push((name, v, unit));
    }
    if let Some(extra) = out
        .metrics
        .keys()
        .find(|k| !wanted.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("{}: undeclared metric {extra}", args.workload));
    }
    Ok((out, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    trace::count_allocations(args.cfg.traced);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (out, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {}: FAILED: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let meta = format!(
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {host_cpus}, \
         \"commit\": {}, \"rustc\": {}, \"profile\": {}, \"loopback\": true",
        json_str(&args.workload),
        args.cfg.seed,
        args.cfg.seconds,
        u8::from(args.cfg.traced),
        json_str(&commit()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
    );
    println!(
        "# perfbench {} seed {} ({} s, trace {}) on {host_cpus} CPUs, {}, {} build, commit {}",
        args.workload,
        args.cfg.seed,
        args.cfg.seconds,
        u8::from(args.cfg.traced),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        commit()
    );
    for (name, v, unit) in &metrics {
        println!("{name:<26} {v:>16.4} {unit}");
    }
    for n in &out.notes {
        println!("# {n}");
    }
    let result = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics)
    );
    let notes: Vec<String> = out.notes.iter().map(|n| json_str(n)).collect();
    let file = format!(
        "{{{meta}, \"result\": {result}, \"notes\": [{}]}}\n",
        notes.join(", ")
    );
    let dir = std::path::Path::new("perfbench/results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.cfg.seed,
        u8::from(args.cfg.traced)
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, file)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload lists here and in `BENCHMARK.json` agree,
    /// in order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let (mut metrics, mut workloads) = (Vec::new(), Vec::new());
        for (i, key) in text.match_indices("{\"name\": \"") {
            let rest = &text[i + key.len()..];
            let name = &rest[..rest.find('"').expect("closing quote")];
            match rest[name.len()..].strip_prefix("\", \"unit\": \"") {
                Some(u) => metrics.push((name, &u[..u.find('"').expect("closing quote")])),
                None => workloads.push(name),
            }
        }
        let declared: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        assert_eq!(metrics, declared);
        assert_eq!(workloads, WORKLOADS);
    }
}
