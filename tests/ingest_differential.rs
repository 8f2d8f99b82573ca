//! Ingest ↔ generator equivalence: the socket path is semantically
//! transparent.
//!
//! The same scenario traffic, driven two ways, must produce identical
//! per-flow forwarding decisions:
//!
//! * **in-process oracle** — the generated batch fed straight into a
//!   single-threaded `SmartNic::process_batch`;
//! * **socket path** — the identical batch replayed by [`NetClient`]
//!   over a real loopback UDP socket into an [`IngestServer`] fronting
//!   a run-loop `ShardedNic` (live reconfiguration armed), echoed back
//!   as response frames.
//!
//! Equality is bit-exact over the full verdict: every slot, the drop
//! flag, and the egress port (same differential-oracle discipline as
//! `runloop_differential.rs`). The server side must additionally see
//! zero decode errors and record exactly one end-to-end latency sample
//! per frame.

use pipeleon_cost::CostParams;
use pipeleon_ir::{json, ProgramGraph};
use pipeleon_net::{FieldMap, IngestConfig, IngestServer, IngestStats, NetClient};
use pipeleon_sim::{NicBackend, Packet, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::LoadBalancer;
use pipeleon_workloads::traffic::FlowGen;
use std::time::{Duration, Instant};

/// Same worker matrix as the run-loop differential suite.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

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

/// Serves exactly `expect` frames through `nic` on a loopback socket in
/// a background thread, returning the join handle. The thread exits
/// once all frames are answered (or a 30 s safety deadline passes) and
/// reports the server's final stats and e2e sample count.
fn spawn_server<N: NicBackend + Send + 'static>(
    mut nic: N,
    map: FieldMap,
    expect: u64,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<(IngestStats, u64)>,
) {
    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.stats().responses < expect && Instant::now() < deadline {
            let received = server.poll_once(&mut nic, &map).expect("poll");
            if received == 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        (server.stats(), server.e2e().count())
    });
    (addr, handle)
}

/// The core differential: replay `batch` over the socket against a
/// run-loop `ShardedNic`, compare every echoed verdict bit-for-bit with
/// a single-threaded in-process oracle.
fn assert_socket_matches_oracle(
    g: &ProgramGraph,
    params: &CostParams,
    batch: &[Packet],
    workers: usize,
    ctx: &str,
) {
    let map = FieldMap::from_graph(g).unwrap_or_else(|e| panic!("{ctx}: {e}"));

    let mut oracle_nic = SmartNic::new(g.clone(), params.clone()).expect("oracle nic");
    let mut oracle = batch.to_vec();
    oracle_nic.process_batch(&mut oracle);

    let mut nic = ShardedNic::new(g.clone(), params.clone(), workers).expect("sharded nic");
    nic.set_live_reconfig(true);
    let (addr, server) = spawn_server(nic, map.clone(), batch.len() as u64);

    let client = NetClient::connect(addr)
        .expect("connect")
        .with_window(64)
        .with_timeout(Duration::from_secs(10));
    let report = client
        .replay(batch, &map)
        .unwrap_or_else(|e| panic!("{ctx}: replay failed: {e}"));
    let (stats, e2e_count) = server.join().expect("server thread");

    assert_eq!(report.decode_errors, 0, "{ctx}: client decode errors");
    assert_eq!(stats.decode_errors, 0, "{ctx}: server decode errors");
    assert_eq!(stats.dropped(), 0, "{ctx}: server drops");
    assert_eq!(stats.frames, batch.len() as u64, "{ctx}: frames served");
    assert_eq!(e2e_count, batch.len() as u64, "{ctx}: e2e samples");
    assert_eq!(report.echoes.len(), batch.len(), "{ctx}: echoes");
    for (i, (echo, expect)) in report.echoes.iter().zip(oracle.iter()).enumerate() {
        assert_eq!(echo.seq, i as u64, "{ctx}: echo order");
        assert_eq!(
            echo.packet.slots(),
            expect.slots(),
            "{ctx}: packet {i} slots"
        );
        assert_eq!(
            echo.packet.dropped, expect.dropped,
            "{ctx}: packet {i} drop verdict"
        );
        assert_eq!(
            echo.packet.egress_port, expect.egress_port,
            "{ctx}: packet {i} egress"
        );
        assert_eq!(&echo.packet, expect, "{ctx}: packet {i} full equality");
    }
}

/// The load-balancer scenario (explicit wire contract: IPv4 addresses
/// in real header fields) across the worker matrix.
#[test]
fn load_balancer_scenario_is_identical_over_the_socket() {
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();
    let mut traffic = lb.traffic(&[0.05, 0.25], 64, 11);
    let batch = traffic.batch(512);
    assert!(
        !lb.graph.wire.is_empty(),
        "scenario must declare a wire contract"
    );
    for workers in WORKER_COUNTS {
        assert_socket_matches_oracle(
            &lb.graph,
            &params,
            &batch,
            workers,
            &format!("load_balancer workers={workers}"),
        );
    }
}

/// Every example program (no wire contract: inference + residue-only
/// frames) round-trips identically through the socket path.
#[test]
fn example_programs_are_identical_over_the_socket() {
    let params = CostParams::bluefield2();
    for (name, g) in example_programs() {
        let batch = key_traffic(&g, 40, 3, 256);
        assert_socket_matches_oracle(&g, &params, &batch, 2, &format!("example {name}"));
    }
}

/// The interpreter engine serves the identical verdicts the compiled
/// engine does through the same socket path.
#[test]
fn socket_path_is_engine_invariant() {
    use pipeleon_sim::EngineMode;
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();
    let map = FieldMap::from_graph(&lb.graph).expect("map");
    let batch = lb.traffic(&[0.1, 0.0], 32, 23).batch(256);

    let mut echoes = Vec::new();
    for engine in [EngineMode::Compiled, EngineMode::Interpreter] {
        let mut nic = ShardedNic::new(lb.graph.clone(), params.clone(), 2).expect("nic");
        nic.set_engine_mode(engine);
        let (addr, server) = spawn_server(nic, map.clone(), batch.len() as u64);
        let client = NetClient::connect(addr)
            .expect("connect")
            .with_timeout(Duration::from_secs(10));
        let report = client.replay(&batch, &map).expect("replay");
        server.join().expect("server thread");
        // RTTs differ run to run; the verdicts must not.
        let verdicts: Vec<Packet> = report.echoes.into_iter().map(|e| e.packet).collect();
        echoes.push(verdicts);
    }
    assert_eq!(
        echoes[0], echoes[1],
        "compiled and interpreter engines must serve identical verdicts"
    );
}
