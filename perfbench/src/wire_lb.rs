//! `wire_lb`: the `LoadBalancer` scenario served over host loopback by
//! `IngestServer::poll_once` on one server thread, with the backend set
//! up the way `serve` sets it up by default (bluefield2, compiled
//! engine, one-worker `SmartNic`, burst 64, instrumentation at sampling
//! 1, no controller, 200 µs sleep after an idle poll). The benchmark's
//! own thread drives it in two phases: closed-loop saturation through
//! `NetClient::replay` (window 128), then an open loop paced at a fixed
//! rate from a single socket.
//!
//! Why: per-frame syscalls are the suspected bottleneck, so the `net`
//! layer does most of the work here and the datapath little; burst-I/O
//! and serving-loop changes show here and nowhere else.

use crate::common::{
    load_program, ms, setup_metrics, timed_setups, Outcome, RunCfg, SetupSampler, BURST,
};
use crate::pacer::{PacedReport, Pacing};
use crate::stats::{fast_rate, fast_time, median, quartiles, tail, tail_or_err};
use crate::trace::{self, span, Coverage, Span};
use crate::traced_nic::TracedNic;
use pipeleon_cost::CostParams;
use pipeleon_ir::json::to_json_string;
use pipeleon_net::{
    decode, encode_into, ClientError, FieldMap, IngestConfig, IngestServer, IngestStats, NetClient,
};
use pipeleon_sim::{BatchStats, EngineMode, NicConfig, Packet, SmartNic};
use pipeleon_workloads::scenarios::LoadBalancer;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLOWS: usize = 256;
const DROP_RATES: [f64; 2] = [0.05, 0.2];
/// Frames per closed-loop replay (one pps sample each): short, so that
/// brief spells of full host speed still hold whole replays.
const REPLAY: usize = 2_048;
const WINDOW: usize = 128;
/// Open-loop offered rate, about a ninth of the saturation throughput
/// measured on a 2-vCPU VM. Halving it made the tail worse, not better:
/// an idler server thread sleeps more and wakes later.
const OPEN_RATE: f64 = 20_000.0;
/// The open loop's share of the untraced budget.
const OPEN_SHARE: f64 = 0.45;
/// Stretches of the open loop, by due time, each giving one p90 sample.
const STRETCHES: u64 = 128;
/// How long the open loop waits for stragglers; later answers are lost.
const GRACE: Duration = Duration::from_millis(200);
/// `serve`'s idle back-off.
const IDLE_SLEEP: Duration = Duration::from_micros(200);
/// `serve`'s default datapath chunk size.
const SERVE_BATCH: usize = 32;
/// Rounds of the deterministic allocation probe.
const PROBE_ROUNDS: usize = 16;

type Nic = TracedNic<SmartNic>;

/// The datapath `serve` builds by default.
fn serve_nic(g: pipeleon_ir::ProgramGraph, params: &CostParams) -> Result<SmartNic, String> {
    let mut nic = SmartNic::new(g, params.clone())
        .map_err(|e| e.to_string())?
        .with_config(NicConfig {
            batch: SERVE_BATCH,
            ..NicConfig::default()
        });
    nic.set_engine_mode(EngineMode::Compiled);
    nic.set_instrumentation(true, 1);
    Ok(nic)
}

struct Served {
    server: IngestServer,
    nic: Nic,
    map: FieldMap,
}

/// Program text to the first frame answered: parse, lint, wire
/// contract, backend, bind, and one frame through the socket.
fn setup(
    text: &str,
    params: &CostParams,
    client: &UdpSocket,
    first: &Packet,
) -> Result<Served, String> {
    let g = load_program(text, params, &[])?;
    let map = span("net.bind", || FieldMap::from_graph(&g)).map_err(|e| e.to_string())?;
    let nic = span("sim.build", || serve_nic(g, params))?;
    let mut nic = TracedNic::new(nic);
    let mut server = span("net.bind", || {
        IngestServer::bind("127.0.0.1:0", IngestConfig::default())
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let mut frame = vec![0u8; map.frame_len()];
    let len = encode_into(&mut frame, first, &map, 0, false).map_err(|e| e.to_string())?;
    client
        .send_to(&frame[..len], addr)
        .map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs(5);
    while span("net.poll", || server.poll_once(&mut nic, &map)).map_err(|e| e.to_string())? == 0 {
        if Instant::now() > deadline {
            return Err("set-up: first frame never arrived".into());
        }
    }
    let mut rx = vec![0u8; map.frame_len() + 64];
    let n = client
        .recv(&mut rx)
        .map_err(|e| format!("set-up answer: {e}"))?;
    decode(&rx[..n], &map).map_err(|e| format!("set-up answer: {e}"))?;
    Ok(Served { server, nic, map })
}

const WARM: u8 = 0;
const SAT_REF: u8 = 1;
const SAT: u8 = 2;
const OPEN: u8 = 3;
const STOP: u8 = 4;

/// What the server thread saw in one phase, summed over its stretches.
#[derive(Default)]
struct PhaseRec {
    wall: Duration,
    frames: u64,
    polls: u64,
    idle_polls: u64,
}

/// The serving loop of `serve` without a controller. The benchmark
/// signals the phase; a traced run records spans in the `SAT` phase only.
fn serve_loop(
    mut s: Served,
    phase: Arc<AtomicU8>,
    traced: bool,
) -> Result<([PhaseRec; 4], Vec<Span>, IngestStats), String> {
    let mut recs: [PhaseRec; 4] = Default::default();
    if traced {
        trace::start();
        trace::set_paused(true);
    }
    let mut cur = WARM;
    let mut since = Instant::now();
    let mut frames_at = 0u64;
    loop {
        let p = phase.load(Ordering::Acquire);
        if p != cur {
            let frames = s.server.stats().frames;
            let rec = &mut recs[usize::from(cur)];
            rec.wall += since.elapsed();
            rec.frames += frames - frames_at;
            if p == STOP {
                break;
            }
            trace::set_paused(p != SAT);
            (cur, since, frames_at) = (p, Instant::now(), frames);
        }
        let n = span("net.poll", || s.server.poll_once(&mut s.nic, &s.map))
            .map_err(|e| format!("server: {e}"))?;
        let rec = &mut recs[usize::from(cur)];
        rec.polls += 1;
        if n == 0 {
            rec.idle_polls += 1;
            span("net.idle", || std::thread::sleep(IDLE_SLEEP));
        }
    }
    Ok((recs, trace::finish(), s.server.stats()))
}

/// Closed-loop replays; one pps sample per replay.
#[derive(Default)]
struct Saturation {
    pps: Vec<f64>,
    frames: u64,
    failed: u64,
    answered: u64,
    busy: Duration,
}

impl Saturation {
    /// Answered frames per second of replay time.
    fn pps(&self) -> f64 {
        self.answered as f64 / self.busy.as_secs_f64()
    }
}

/// The client side: where frames go, which packets they carry, and the
/// verdict the in-process oracle gave each one.
struct Load<'a> {
    addr: SocketAddr,
    map: &'a FieldMap,
    input: &'a [Packet],
    oracle: &'a [Packet],
}

impl Load<'_> {
    /// Replays until `budget` passes. With `alternate`, replays alternate
    /// between the untraced reference phase (`[0]`) and the traced phase
    /// (`[1]`), signalled to the server; otherwise all go to `[0]`.
    /// `between` runs before each replay, outside the timed work.
    fn saturate(
        &self,
        client: &mut NetClient,
        budget: Duration,
        alternate: Option<&AtomicU8>,
        between: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<[Saturation; 2], String> {
        let mut halves: [Saturation; 2] = Default::default();
        let start = Instant::now();
        let mut k = 0usize;
        while k < 2 || start.elapsed() < budget {
            between()?;
            let half = usize::from(alternate.is_some() && k % 2 == 1);
            if let Some(phase) = alternate {
                phase.store(if half == 1 { SAT } else { SAT_REF }, Ordering::Release);
            }
            k += 1;
            let sat = &mut halves[half];
            let t = Instant::now();
            let res = client.replay(self.input, self.map);
            let dt = t.elapsed();
            sat.busy += dt;
            sat.frames += self.input.len() as u64;
            match res {
                Ok(report) => {
                    sat.pps.push(self.input.len() as f64 / dt.as_secs_f64());
                    sat.answered += report.echoes.len() as u64;
                    sat.failed += report.decode_errors;
                    for (e, want) in report.echoes.iter().zip(self.oracle) {
                        if &e.packet != want {
                            return Err(format!(
                                "wire verdict for seq {} differs from oracle",
                                e.seq
                            ));
                        }
                    }
                }
                Err(ClientError::Timeout { received, expected }) => {
                    sat.failed += (expected - received) as u64;
                    sat.answered += received as u64;
                    // Late answers to this replay must not be matched
                    // against the next one: start over on a fresh socket.
                    *client = connect(self.addr)?;
                }
                Err(e) => return Err(format!("replay: {e}")),
            }
        }
        Ok(halves)
    }

    /// Drives the phases: warm-up, saturation (alternating with the
    /// untraced reference in a traced run), then the open loop.
    fn drive(
        &self,
        cfg: &RunCfg,
        phase: &AtomicU8,
        between: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<Driven, String> {
        let mut client = connect(self.addr)?;
        self.saturate(&mut client, Duration::ZERO, None, &mut || Ok(()))?;
        phase.store(SAT, Ordering::Release);
        let budget = cfg.budget(1.0 - OPEN_SHARE);
        let sat = self.saturate(&mut client, budget, cfg.traced.then_some(phase), between)?;
        phase.store(OPEN, Ordering::Release);
        let paced = Pacing {
            server: self.addr,
            map: self.map,
            packets: self.input,
            rate: OPEN_RATE,
            duration: cfg.budget(OPEN_SHARE),
            grace: GRACE,
        }
        .run(|seq, p| {
            if p == &self.oracle[(seq % self.oracle.len() as u64) as usize] {
                Ok(())
            } else {
                Err(format!(
                    "open-loop verdict for seq {seq} differs from oracle"
                ))
            }
        })?;
        Ok((sat, paced))
    }
}

fn connect(addr: SocketAddr) -> Result<NetClient, String> {
    Ok(NetClient::connect(addr)
        .map_err(|e| e.to_string())?
        .with_window(WINDOW)
        .with_timeout(Duration::from_secs(2)))
}

/// Median ns per frame of the server-side codec work (`decode` of a
/// request plus `encode_into` of its answer) over the workload's frames.
fn codec_ns_per_frame(map: &FieldMap, input: &[Packet]) -> Result<f64, String> {
    let frames: Vec<Vec<u8>> = input
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut f = vec![0u8; map.frame_len()];
            encode_into(&mut f, p, map, i as u64, false).map(|n| f[..n].to_vec())
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut out = vec![0u8; map.frame_len()];
    let mut samples = Vec::new();
    for _ in 0..7 {
        let t = Instant::now();
        for f in &frames {
            let d = decode(f, map).map_err(|e| e.to_string())?;
            encode_into(&mut out, &d.packet, map, d.seq, true).map_err(|e| e.to_string())?;
            std::hint::black_box(&out);
        }
        samples.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    Ok(median(&samples))
}

/// Allocations per frame inside `poll_once` outside the datapath, on a
/// schedule that makes them repeat exactly: one thread sends a full
/// burst, lets loopback deliver it, and polls it in one call.
fn net_allocs_per_frame(s: &mut Served, input: &[Packet]) -> Result<f64, String> {
    let client = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    let addr = s.server.local_addr().map_err(|e| e.to_string())?;
    let mut frame = vec![0u8; s.map.frame_len()];
    let mut rx = vec![0u8; s.map.frame_len() + 64];
    let (mut allocs, mut frames) = (0u64, 0u64);
    // Round 0 warms the server's reusable buffers and is not counted.
    let mut round = 0;
    let mut attempts = 0;
    while round <= PROBE_ROUNDS {
        attempts += 1;
        if attempts > 4 * PROBE_ROUNDS {
            return Err("allocation probe: bursts kept splitting across polls".into());
        }
        for (i, p) in input
            .iter()
            .cycle()
            .skip(round * BURST)
            .take(BURST)
            .enumerate()
        {
            let n =
                encode_into(&mut frame, p, &s.map, i as u64, false).map_err(|e| e.to_string())?;
            client
                .send_to(&frame[..n], addr)
                .map_err(|e| e.to_string())?;
        }
        std::thread::sleep(Duration::from_millis(2));
        trace::start();
        let mut got = 0;
        while got < BURST {
            got += span("net.poll", || s.server.poll_once(&mut s.nic, &s.map))
                .map_err(|e| e.to_string())?;
        }
        let agg = trace::aggregate(&trace::finish());
        for _ in 0..BURST {
            client
                .recv(&mut rx)
                .map_err(|e| format!("allocation probe: {e}"))?;
        }
        let poll = &agg["net.poll"];
        if poll.calls == 1 {
            if round > 0 {
                allocs += poll.self_allocs;
                frames += BURST as u64;
            }
            round += 1;
        }
    }
    Ok(allocs as f64 / frames as f64)
}

/// The p90 round-trip time of the frames due in each of [`STRETCHES`]
/// equal stretches of the open loop, µs.
fn stretch_p90_us(paced: &PacedReport, open: Duration) -> Vec<f64> {
    let len = (open.as_nanos() as u64 / STRETCHES).max(1);
    let mut stretches = vec![Vec::new(); STRETCHES as usize];
    for (&rtt, &due) in paced.rtt_ns.iter().zip(&paced.due_ns) {
        stretches[(due / len).min(STRETCHES - 1) as usize].push(rtt / 1e3);
    }
    stretches.iter().filter_map(|s| tail(s, 90.0)).collect()
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let lb = LoadBalancer::build();
    let text = to_json_string(&lb.graph).map_err(|e| e.to_string())?;
    let params = CostParams::bluefield2();
    let input = lb.traffic(&DROP_RATES, FLOWS, cfg.seed).batch(REPLAY);

    // The oracle: the same packets through an identically configured
    // in-process SmartNic, untimed.
    let mut oracle = input.clone();
    let mut oracle_nic = serve_nic(lb.graph.clone(), &params)?;
    for chunk in oracle.chunks_mut(BURST) {
        oracle_nic.process_batch(chunk);
    }
    let emu: BatchStats = serve_nic(lb.graph.clone(), &params)?.measure(input.clone());

    let setup_client = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    setup_client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(|e| e.to_string())?;
    let build = || setup(&text, &params, &setup_client, &input[0]);
    let (served, setup_secs, setup_spans) = timed_setups(cfg.traced, build)?;
    let map = served.map.clone();
    let addr = served.server.local_addr().map_err(|e| e.to_string())?;

    let phase = Arc::new(AtomicU8::new(WARM));
    let server = {
        let phase = Arc::clone(&phase);
        let traced = cfg.traced;
        std::thread::spawn(move || serve_loop(served, phase, traced))
    };
    // Drive the phases; whatever happens, stop and join the server.
    let mut setups = SetupSampler::new(build, cfg.budget(1.0 - OPEN_SHARE), setup_secs);
    let mut between = || if cfg.traced { Ok(()) } else { setups.between() };
    let load = Load {
        addr,
        map: &map,
        input: &input,
        oracle: &oracle,
    };
    let driven = load.drive(cfg, &phase, &mut between);
    phase.store(STOP, Ordering::Release);
    let (recs, spans, stats) = server
        .join()
        .map_err(|_| "server thread panicked".to_string())??;
    let ([sat, traced_sat], paced) = driven?;

    let mut out = Outcome::default();
    let paced_lost = paced.lost + paced.bad_responses;
    out.attempted = sat.frames + traced_sat.frames + paced.sent;
    out.failed = sat.failed + traced_sat.failed + paced_lost + stats.dropped();
    if stats.decode_errors > 0 {
        return Err(format!(
            "server saw {} undecodable frames",
            stats.decode_errors
        ));
    }
    let rtt_us: Vec<f64> = paced.rtt_ns.iter().map(|ns| ns / 1e3).collect();
    if !cfg.traced {
        let stretches = stretch_p90_us(&paced, cfg.budget(OPEN_SHARE));
        out.set("pps", fast_rate(&sat.pps, "pps")?);
        out.set("lat_p90_us", fast_time(&stretches, "lat_p90_us")?);
        out.set("emu_lat_ns", emu.mean_latency_ns);
        out.set("setup_s", median(&setups.secs));
        let (q1, _, q3) = quartiles(&sat.pps);
        out.note(format!(
            "pps: 11th-fastest of {} replays of {REPLAY} frames (window {WINDOW}); \
             all replays {:.0}, quartiles {q1:.0}..{q3:.0}",
            sat.pps.len(),
            sat.pps()
        ));
        out.note(format!(
            "lat: {} frames offered at {OPEN_RATE:.0}/s, {} lost, client busy {:.1}%; \
             lat_p90_us is the 11th-fastest of {} stretches' p90s; over all frames \
             p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, p99.9 {:.1} us; send lateness p99 {:.1} us",
            paced.sent,
            paced_lost,
            100.0 * paced.busy_frac,
            stretches.len(),
            median(&rtt_us),
            tail(&rtt_us, 90.0).unwrap_or(f64::NAN),
            tail(&rtt_us, 99.0).unwrap_or(f64::NAN),
            tail(&rtt_us, 99.9).unwrap_or(f64::NAN),
            tail(&paced.lateness_ns, 99.0).unwrap_or(f64::NAN) / 1e3,
        ));
        out.note(format!(
            "emu_p99_ns: {} (cost-model p99)",
            emu.p99_latency_ns
        ));
        return Ok(out);
    }

    let rec = &recs[usize::from(SAT)];
    let agg = trace::aggregate(&spans);
    let frames = rec.frames.max(1) as f64;
    let poll = &agg["net.poll"];
    let self_ns = poll.self_ns as f64 / frames;
    let codec = codec_ns_per_frame(&map, &input)?;
    out.set("net.poll_ns_per_frame", poll.total_ns as f64 / frames);
    out.set("net.self_ns_per_frame", self_ns);
    out.set("net.codec_ns_per_frame", codec);
    out.set("net.sys_ns_per_frame", self_ns - codec);
    out.set(
        "net.frames_per_poll",
        frames / (rec.polls - rec.idle_polls).max(1) as f64,
    );
    out.set(
        "net.idle_poll_frac",
        rec.idle_polls as f64 / rec.polls.max(1) as f64,
    );
    out.set("net.drops", stats.dropped() as f64);
    out.set("client.busy_frac", paced.busy_frac);
    let late_us: Vec<f64> = paced.lateness_ns.iter().map(|ns| ns / 1e3).collect();
    out.set(
        "client.lateness_p99_us",
        tail_or_err(&late_us, 99.0, "client.lateness_p99_us")?,
    );
    out.set(
        "sim.ns_per_pkt",
        agg.get("sim.process_batch")
            .map_or(0.0, |a| a.total_ns as f64)
            / frames,
    );
    setup_metrics(&mut out, &setup_spans);
    out.set("trace.overhead_frac", sat.pps() / traced_sat.pps() - 1.0);
    let cov = Coverage::of(&spans, rec.wall.as_nanos() as u64);
    cov.check(0.9, "wire_lb (server thread, saturation)")?;
    out.set("trace.coverage", cov.frac);
    out.note(format!(
        "coverage {:.1}% of the server thread's {:.0} ms saturation phase",
        100.0 * cov.frac,
        ms(rec.wall)
    ));

    // The allocation probe needs a server of its own on this thread.
    let mut probe = build()?;
    out.set(
        "net.allocs_per_frame",
        net_allocs_per_frame(&mut probe, &input)?,
    );
    Ok(out)
}

type Driven = ([Saturation; 2], PacedReport);
