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
//!   a run-loop `ShardedNic`, echoed back as response frames.
//!
//! Equality is bit-exact over the full verdict: every slot, the drop
//! flag, and the egress port (same differential-oracle discipline as
//! `runloop_differential.rs`). The server side must additionally see
//! zero decode errors and record exactly one end-to-end latency sample
//! per frame.
//!
//! The burst wire path (one `recvmmsg` per poll, per-peer runs sent as
//! `UDP_SEGMENT` messages in one `sendmmsg`) gets three more checks
//! against the same oracle: peers interleaved within one burst each
//! get exactly their own answers, a full 128-frame burst from one peer
//! is split at the 64-segment cap, and IPv6 peers are served.

use pipeleon_cost::CostParams;
use pipeleon_ir::{json, ProgramGraph};
use pipeleon_net::{decode, encode, FieldMap, IngestConfig, IngestServer, IngestStats, NetClient};
use pipeleon_sim::{NicBackend, Packet, ShardedNic, SmartNic};
use pipeleon_workloads::scenarios::LoadBalancer;
use pipeleon_workloads::traffic::FlowGen;
use std::net::UdpSocket;
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

    let nic = ShardedNic::new(g.clone(), params.clone(), workers).expect("sharded nic");
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

/// Sends `batch[j]` (seq `j`) from `clients[owner[j]]`, every frame
/// before the server's first poll so they share bursts, then serves on
/// this thread. Each client must receive exactly the answers to its own
/// frames, each equal to the in-process oracle's verdict. Returns the
/// server's final stats and the most datagrams one poll received.
fn assert_peers_get_their_own_answers(
    mut server: IngestServer,
    clients: &[UdpSocket],
    owner: &[usize],
    batch: &[Packet],
    ctx: &str,
) -> (IngestStats, usize) {
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();
    let map = FieldMap::from_graph(&lb.graph).expect("map");
    let mut oracle = batch.to_vec();
    SmartNic::new(lb.graph.clone(), params.clone())
        .expect("oracle nic")
        .process_batch(&mut oracle);
    let mut nic = ShardedNic::new(lb.graph.clone(), params, 2).expect("nic");

    let addr = server.local_addr().expect("addr");
    for (j, p) in batch.iter().enumerate() {
        let frame = encode(p, &map, j as u64, false).expect("encode");
        clients[owner[j]].send_to(&frame, addr).expect("send");
    }
    // Loopback delivers on send; give the softirq a moment regardless.
    std::thread::sleep(Duration::from_millis(5));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut most = 0;
    while server.stats().responses < batch.len() as u64 {
        assert!(
            Instant::now() < deadline,
            "{ctx}: stalled at {:?}",
            server.stats()
        );
        let n = server.poll_once(&mut nic, &map).expect("poll");
        most = most.max(n);
        if n == 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let mut buf = vec![0u8; map.frame_len() + 64];
    for (c, client) in clients.iter().enumerate() {
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mine: Vec<usize> = (0..batch.len()).filter(|&j| owner[j] == c).collect();
        let mut got = Vec::new();
        for _ in &mine {
            let n = client
                .recv(&mut buf)
                .unwrap_or_else(|e| panic!("{ctx}: client {c}: {e}"));
            let d = decode(&buf[..n], &map).expect("answer decodes");
            assert!(d.response, "{ctx}: client {c}: not a response");
            let j = d.seq as usize;
            assert_eq!(owner.get(j), Some(&c), "{ctx}: client {c} got seq {j}");
            assert_eq!(d.packet, oracle[j], "{ctx}: verdict for seq {j}");
            got.push(j);
        }
        got.sort_unstable();
        assert_eq!(got, mine, "{ctx}: client {c} answers");
        client.set_nonblocking(true).unwrap();
        assert!(
            client.recv(&mut buf).is_err(),
            "{ctx}: client {c}: extra answer"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.dropped(), 0, "{ctx}: {stats:?}");
    assert_eq!(stats.rx_overflow, 0, "{ctx}: {stats:?}");
    assert_eq!(
        stats.gso_fallbacks, 0,
        "{ctx}: loopback segments UDP: {stats:?}"
    );
    assert_eq!(
        server.e2e().count(),
        batch.len() as u64,
        "{ctx}: e2e samples"
    );
    (stats, most)
}

fn lb_batch(n: usize, seed: u64) -> Vec<Packet> {
    LoadBalancer::build()
        .traffic(&[0.05, 0.25], 32, seed)
        .batch(n)
}

fn loopback_clients(n: usize, ip: &str) -> Vec<UdpSocket> {
    (0..n)
        .map(|_| UdpSocket::bind((ip, 0)).expect("client socket"))
        .collect()
}

/// Three peers interleave frames in one burst, in runs of 1–3 frames:
/// per-peer grouping must send every answer to its own peer only.
#[test]
fn interleaved_peers_in_one_burst_each_get_their_own_answers() {
    let server = IngestServer::bind("127.0.0.1:0", IngestConfig::default()).expect("bind");
    let clients = loopback_clients(3, "127.0.0.1");
    let mut owner = Vec::new();
    for (r, len) in [3, 1, 2, 1, 1, 3, 2, 2, 1, 3].iter().cycle().enumerate() {
        if owner.len() >= 60 {
            break;
        }
        owner.resize(owner.len() + len, r % 3);
    }
    owner.truncate(60);
    let batch = lb_batch(owner.len(), 31);
    assert_peers_get_their_own_answers(server, &clients, &owner, &batch, "three peers");
}

/// 128 frames from one peer into a 128-slot server: one poll receives
/// them all and answers them as two 64-segment messages.
#[test]
fn full_128_frame_burst_from_one_peer_is_split_at_the_segment_cap() {
    let config = IngestConfig {
        burst: 128,
        ..IngestConfig::default()
    };
    let server = IngestServer::bind("127.0.0.1:0", config).expect("bind");
    let clients = loopback_clients(1, "127.0.0.1");
    let batch = lb_batch(128, 37);
    let (stats, most) =
        assert_peers_get_their_own_answers(server, &clients, &[0; 128], &batch, "burst 128");
    assert_eq!(stats.responses, 128);
    assert_eq!(most, 128, "all 128 frames should arrive in one poll");
}

/// The burst path serves IPv6 peers (`sockaddr_in6` names) as well.
#[test]
fn ipv6_loopback_peers_are_served() {
    let server = match IngestServer::bind("[::1]:0", IngestConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("skipping: IPv6 loopback cannot bind here ({e})");
            return;
        }
    };
    let clients = loopback_clients(2, "::1");
    let owner: Vec<usize> = (0..40).map(|j| (j / 5) % 2).collect();
    let batch = lb_batch(owner.len(), 41);
    assert_peers_get_their_own_answers(server, &clients, &owner, &batch, "ipv6");
}
