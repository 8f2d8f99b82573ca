#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

//! # pipeleon-sim — deterministic software SmartNIC emulator
//!
//! The measurement substrate of this reproduction, standing in for the
//! paper's Nvidia BlueField2, Netronome Agilio CX, and BMv2-based emulator
//! (§5.1). It executes Pipeleon IR programs packet-by-packet in a
//! run-to-completion model and accounts latency with the same mechanisms
//! the paper's cost model abstracts: per-hash-table memory accesses for
//! key matches, per-primitive action costs, branch evaluation, counter
//! updates, cache insertions, and ASIC↔CPU packet migrations.
//!
//! * [`packet`] — flat-slot packets over a program's field space.
//! * [`engine`] — exact / LPM / ternary / range match engines implemented
//!   as (multiple) hash tables, reporting how many they probed.
//! * [`cache`] — an LRU flow-cache with a token-bucket insertion limiter
//!   (paper §3.2.2 "optimization considerations").
//! * [`exec`] — the run-to-completion [`Executor`]: walks the program DAG,
//!   executes actions for real, maintains cache state, honours placements
//!   (ASIC vs. CPU) with migration costs, and updates P4 counters with
//!   optional sampling. Runs either a reference interpreter or a compiled
//!   datapath ([`EngineMode`]) — a flat slot-addressed lowering of the
//!   program with FxHash match engines and reusable scratch buffers that
//!   executes packets with zero steady-state heap allocations, producing
//!   bit-identical reports, profiles and traces.
//! * [`smallkey`] — [`SmallKey`]: fixed-width inline match/cache keys
//!   (stack-resident up to 4×`u64`) queryable by borrowed `&[u64]`.
//! * [`nic`] — [`SmartNic`]: multicore dispatch (RSS by flow hash),
//!   throughput/latency measurement, and the control-plane entry API
//!   (insert/delete/modify, cache flush).
//! * [`observe`] — [`ExecObservations`]: mergeable latency histograms
//!   (end-to-end and per-table) recorded for sampled packets, built on
//!   `pipeleon-obs`.
//! * [`ring`] — fixed-capacity SPSC rings (cache-line-padded Lamport
//!   queues with burst enqueue/dequeue), the dispatcher→worker hand-off
//!   of the run-loop sharded datapath.
//! * [`sharded`] — [`ShardedNic`]: the same datapath sharded over `N`
//!   parallel worker threads by flow hash, with deterministic merging of
//!   per-shard profiles and batch statistics deferred to profile-window
//!   boundaries.
//! * [`specialize`] — profile-guided specialization of the compiled
//!   datapath: hot-key inline caches behind guards, direct-index ways
//!   for small stable exact tables, and hot-chain slot layout — all
//!   bit-exact against the interpreter oracle, applied and reverted
//!   live through the generation chain.
//! * [`backend`] — [`NicBackend`], the datapath trait both NICs
//!   implement, so runtime targets can be backed by either.
//!
//! Everything is seeded and deterministic — results are bit-reproducible.
//! The single-threaded [`SmartNic`] (with the interpreter engine and
//! [`engine::oracle_lookup`] beneath it) is the one reference. A
//! [`ShardedNic`] feeds persistent run-loop workers through SPSC rings
//! and preserves, against that reference, forwarding decisions,
//! per-flow order, integer statistics, the exact p99, and — via
//! flow-keyed sampling ([`SampleKeying`]) — worker-count-invariant
//! window-merged profiles and histograms, relaxing only the float
//! summation order of mean latency and throughput.
//!
//! With **live reconfiguration** enabled
//! ([`NicBackend::set_live_reconfig`]), control-plane operations publish
//! as numbered generations on an epoch/RCU chain instead of pausing the
//! datapath: packets in flight keep executing under the generation they
//! were dispatched with, newly dispatched packets pick up the new one,
//! and old generations are reclaimed once every shard has quiesced past
//! them. Each swap is reported through [`LiveSwap`] (generation id,
//! packets in flight at publication, publish latency).

pub mod backend;
pub mod cache;
mod compiled;
pub mod engine;
pub mod exec;
/// The epoch/RCU generation chain. Private in real builds (an internal
/// detail of [`sharded`]); public under `--cfg pipeleon_check` so the
/// model tests in `crates/sim/tests/model.rs` can drive it directly.
#[cfg(pipeleon_check)]
pub mod generation;
#[cfg(not(pipeleon_check))]
mod generation;
pub mod nic;
pub mod observe;
pub mod packet;
pub mod ring;
pub mod sharded;
pub mod smallkey;
pub mod specialize;
pub(crate) mod sync;

pub use backend::{LiveSwap, NicBackend};
pub use cache::{LruCache, RateLimiter};
pub use engine::{KeyScratch, LookupOutcome, MatchEngine};
pub use exec::{EngineMode, ExecReport, Executor, PacketTrace, SampleKeying};
pub use nic::{BatchStats, NicConfig, PacketRecord, ShardMode, SmartNic};
pub use observe::ExecObservations;
pub use packet::Packet;
pub use sharded::ShardedNic;
pub use smallkey::SmallKey;
pub use specialize::{HotKeySketch, SpecConfig, SpecStats};
