//! Chaos under live socket traffic: the controller loop (with a seeded
//! fault injector) reconfigures the serving datapath while a real
//! [`NetClient`] replay is in flight over loopback UDP.
//!
//! The server thread interleaves socket polls with controller ticks and
//! *forced* `revert_to_original` deploys — each a full deploy
//! transaction, so with live reconfiguration armed every successful one
//! publishes a generation swap with the replay's traffic genuinely in
//! flight. The assertions are the live-reconfig contract extended to
//! the wire:
//!
//! * **zero packet loss attributable to reconfiguration** — every
//!   replayed packet comes back (the client would otherwise time out),
//!   and the server counts zero drops of any kind;
//! * the controller journal records `generation_swap` events;
//! * the fault injector actually fired (the run exercised the retry and
//!   rollback machinery, not a fault-free fast path).

use pipeleon::Optimizer;
use pipeleon_cost::{CostModel, CostParams};
use pipeleon_net::{FieldMap, IngestConfig, IngestServer, NetClient};
use pipeleon_runtime::{Controller, ControllerConfig, FaultConfig, FaultyTarget, SimTarget};
use pipeleon_sim::ShardedNic;
use pipeleon_workloads::scenarios::LoadBalancer;
use std::time::{Duration, Instant};

const PACKETS: usize = 4096;
const CHAOS_SEED: u64 = 29;
/// Tick + forced redeploy cadence, in served frames.
const RECONFIG_EVERY: u64 = 256;

#[test]
fn controller_chaos_under_live_socket_traffic_loses_nothing() {
    let lb = LoadBalancer::build();
    let params = CostParams::bluefield2();
    let map = FieldMap::from_graph(&lb.graph).expect("wire contract compiles");

    let mut nic = ShardedNic::new(lb.graph.clone(), params.clone(), 4).expect("sharded nic");
    nic.set_live_reconfig(true);
    nic.set_instrumentation(true, 1);

    let optimizer = Optimizer::new(CostModel::new(params));
    let mut target = FaultyTarget::new(SimTarget::live(nic), FaultConfig::chaos(CHAOS_SEED));
    // Construction deploys fault-free; chaos starts with the traffic.
    target.set_armed(false);
    let mut c = Controller::new(
        target,
        lb.graph.clone(),
        optimizer,
        ControllerConfig::default(),
    )
    .expect("controller");
    c.target.set_armed(true);

    let mut server = IngestServer::bind("127.0.0.1:0", IngestConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let server_map = map.clone();
    let server_thread = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut acted_at = 0u64;
        while server.stats().responses < PACKETS as u64 && Instant::now() < deadline {
            let received = server
                .poll_once(&mut c.target.inner.nic, &server_map)
                .expect("poll");
            if received == 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
            let frames = server.stats().frames;
            if frames >= acted_at + RECONFIG_EVERY {
                acted_at = frames;
                // Tick the control loop, then force a full deploy
                // transaction; either may be disturbed by the injector
                // (that's the point) — the health machinery recovers,
                // and traffic must keep flowing regardless.
                let _ = c.tick();
                let _ = c.revert_to_original();
            }
        }
        // Heal: faults off, then one guaranteed fault-free deploy so
        // the run always ends with at least one clean generation swap.
        c.target.set_armed(false);
        if c.health().pin_pending {
            let _ = c.tick();
        }
        c.revert_to_original().expect("fault-free revert");
        (
            server.stats(),
            server.e2e().count(),
            c.journal().to_jsonl(),
            c.target.fault_count(),
            c.reconfig_count,
        )
    });

    let batch = lb.traffic(&[0.1, 0.3], 96, 17).batch(PACKETS);
    let client = NetClient::connect(addr)
        .expect("connect")
        .with_window(128)
        .with_timeout(Duration::from_secs(20));
    let report = client
        .replay(&batch, &map)
        .expect("replay must not lose packets across reconfigurations");
    let (stats, e2e_count, journal, faults, reconfigs) =
        server_thread.join().expect("server thread");

    // Zero loss attributable to reconfiguration.
    assert_eq!(report.echoes.len(), PACKETS, "every packet echoed");
    assert_eq!(
        report.decode_errors, 0,
        "client saw only well-formed responses"
    );
    assert_eq!(stats.frames, PACKETS as u64, "server served every frame");
    assert_eq!(stats.decode_errors, 0, "server decode errors");
    assert_eq!(stats.dropped(), 0, "server dropped nothing");
    assert_eq!(e2e_count, PACKETS as u64, "one e2e sample per frame");

    // The run actually reconfigured under fire, with faults firing.
    assert!(reconfigs > 0, "no reconfiguration happened");
    assert!(faults > 0, "chaos injector never fired (seed {CHAOS_SEED})");
    assert!(
        journal.contains("\"type\":\"generation_swap\""),
        "journal must record generation swaps, got:\n{journal}"
    );
}
