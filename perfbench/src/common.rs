//! Pieces every workload shares: run settings, the outcome a workload
//! hands back, program set-up from JSON text, and allocation-free input
//! restoration and verdict fingerprints.

use crate::trace::span;
use pipeleon_cost::CostParams;
use pipeleon_ir::json::from_json_string;
use pipeleon_ir::{FieldRef, ProgramGraph};
use pipeleon_sim::{ExecReport, Packet};
use pipeleon_verify::{lint_program, Code, LintConfig, Severity};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Packets per datapath call: the ingest server's default burst.
pub const BURST: usize = 64;

/// Set-ups timed before measuring (the last one is the instance the run
/// measures).
pub const SETUP_REPEATS: usize = 6;

/// Set-ups timed while measuring, spread evenly over the run.
pub const SETUP_SPREAD: usize = 24;

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

impl RunCfg {
    /// `share` of the budget.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value; end-to-end metrics in an untraced run,
    /// per-layer metrics in a traced one.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result: sample counts,
    /// spreads, and figures specific to this workload.
    pub notes: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (lost or late answers, drops, errors).
    pub failed: u64,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Parses the program text and runs the lint preflight `serve` and
/// `simulate` run: error-severity diagnostics refuse the program, except
/// those with a code in `accepted`.
pub fn load_program(
    text: &str,
    params: &CostParams,
    accepted: &[Code],
) -> Result<ProgramGraph, String> {
    let g = span("ir.parse", || from_json_string(text)).map_err(|e| format!("parse: {e}"))?;
    let errors: Vec<String> = span("verify.lint", || {
        lint_program(&g, &LintConfig::with_params(params.clone()))
            .into_iter()
            .filter(|d| d.severity == Severity::Error && !accepted.contains(&d.code))
            .map(|d| d.render_text())
            .collect()
    });
    if !errors.is_empty() {
        return Err(format!(
            "{:?} rejected by the verifier:\n{}",
            g.name,
            errors.join("\n")
        ));
    }
    Ok(g)
}

/// Overwrites `dst` with `src` without allocating, so a burst can be
/// replayed through a datapath that rewrites packets in place.
pub fn restore(dst: &mut [Packet], src: &[Packet]) {
    for (d, s) in dst.iter_mut().zip(src) {
        for (i, &v) in s.slots().iter().enumerate() {
            d.set(FieldRef(i as u16), v);
        }
        d.bytes = s.bytes;
        d.dropped = s.dropped;
        d.egress_port = s.egress_port;
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fold(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Running fingerprint over verdicts: every output slot, the drop flag,
/// the egress port, and the accounted latency bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(FNV_OFFSET)
    }
}

impl Fingerprint {
    /// Folds a burst's outputs and reports into the fingerprint.
    pub fn add(&mut self, packets: &[Packet], reports: &[ExecReport]) {
        for (p, r) in packets.iter().zip(reports) {
            for &v in p.slots() {
                fold(&mut self.0, v);
            }
            fold(&mut self.0, u64::from(p.dropped));
            fold(&mut self.0, p.egress_port.map_or(u64::MAX, u64::from));
            fold(&mut self.0, r.latency_ns.to_bits());
        }
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Builds the workload `SETUP_REPEATS` times after one untimed warm-up
/// build (first-touch costs no later set-up pays). Returns the last
/// instance, each set-up's time in seconds, and — in a traced run — the
/// set-up spans.
pub fn timed_setups<T>(
    traced: bool,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>, Vec<crate::trace::Span>), String> {
    let mut last = build()?;
    if traced {
        crate::trace::start();
    }
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let built = crate::trace::span("bench.setup", &mut build)?;
        secs.push(t.elapsed().as_secs_f64());
        last = built;
    }
    Ok((last, secs, crate::trace::finish()))
}

/// Set-ups timed between the iterations of a measuring loop, one each
/// time a share of the budget has passed, so `setup_s` sees the same
/// host conditions as the metrics measured around it. Set-up time never
/// counts as measured time.
pub struct SetupSampler<F> {
    build: F,
    every: Duration,
    next: Instant,
    /// Seconds per set-up, including those timed before the run.
    pub secs: Vec<f64>,
}

impl<T, F: FnMut() -> Result<T, String>> SetupSampler<F> {
    /// Samples `SETUP_SPREAD` set-ups over `budget`, after `secs`.
    pub fn new(build: F, budget: Duration, secs: Vec<f64>) -> Self {
        let every = budget / SETUP_SPREAD as u32;
        SetupSampler {
            build,
            every,
            next: Instant::now() + every / 2,
            secs,
        }
    }

    /// Times one set-up if its turn has come.
    pub fn between(&mut self) -> Result<(), String> {
        if Instant::now() < self.next {
            return Ok(());
        }
        let t = Instant::now();
        let built = (self.build)()?;
        self.secs.push(t.elapsed().as_secs_f64());
        drop(built);
        self.next = Instant::now() + self.every;
        Ok(())
    }
}

/// Set-up breakdown: the median over set-ups of each step's self time.
pub fn setup_metrics(out: &mut Outcome, spans: &[crate::trace::Span]) {
    // Spans are recorded in order, so a set-up is its root span and
    // everything recorded before the next root.
    let costs = crate::trace::self_costs(spans);
    let mut groups: Vec<BTreeMap<&str, f64>> = Vec::new();
    for (s, (self_ns, _)) in spans.iter().zip(costs) {
        if s.parent.is_none() {
            groups.push(BTreeMap::new());
        }
        if let Some(g) = groups.last_mut() {
            *g.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
    }
    let per_setup = |name: &str| {
        let ms: Vec<f64> = groups
            .iter()
            .map(|g| g.get(name).copied().unwrap_or(0.0))
            .collect();
        if ms.is_empty() {
            0.0
        } else {
            crate::stats::median(&ms)
        }
    };
    out.set("ir.parse_ms", per_setup("ir.parse"));
    out.set("verify.lint_ms", per_setup("verify.lint"));
    out.set("sim.build_ms", per_setup("sim.build"));
    out.set("net.bind_ms", per_setup("net.bind"));
    out.set("runtime.init_ms", per_setup("runtime.init"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restore_undoes_in_place_rewrites_without_allocating() {
        let src = vec![Packet::with_slots(vec![1, 2, 3]); 4];
        let mut dst = src.clone();
        for p in &mut dst {
            p.set(FieldRef(1), 9);
            p.dropped = true;
            p.egress_port = Some(3);
        }
        crate::trace::count_allocations(true);
        let before = crate::trace::allocs();
        restore(&mut dst, &src);
        assert_eq!(crate::trace::allocs(), before);
        assert_eq!(dst, src);
    }

    #[test]
    fn fingerprint_sees_every_verdict_field() {
        let p = Packet::with_slots(vec![1, 2]);
        let r = ExecReport {
            latency_ns: 10.0,
            dropped: false,
            migrations: 0,
            probes: 0,
            counter_updates: 0,
        };
        let base = {
            let mut f = Fingerprint::default();
            f.add(std::slice::from_ref(&p), &[r]);
            f
        };
        let mut q = p.clone();
        q.egress_port = Some(0);
        let mut f = Fingerprint::default();
        f.add(&[q], &[r]);
        assert_ne!(f, base);
        let mut r2 = r;
        r2.latency_ns = 11.0;
        let mut f = Fingerprint::default();
        f.add(&[p], &[r2]);
        assert_ne!(f, base);
    }
}
