//! What the two fuzz harnesses (`crashfuzz`, `storagefuzz`) share: the
//! serving policy, front-end and request stream they draw from. The
//! lost-ack oracle every chaos harness audits with is
//! `srbsg_server::AckLedger`.

use rand::rngs::StdRng;
use rand::RngExt;
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, MultiBankSystem, Ns, TimingModel};
use srbsg_persist::{CheckpointPolicy, Journaled};
use srbsg_serve::{FrontEnd, Op, Request, ServeConfig};

/// Journaled Security RBSG banks behind each fuzz front-end.
pub const FUZZ_BANKS: usize = 3;

/// The serving policy for the fuzz runs: deep queues, no deadlines in
/// play, no quarantine — every rejection must be an injected fault.
pub fn serve_cfg() -> ServeConfig {
    ServeConfig {
        queue_depth: 512,
        max_retries: 1,
        backoff_base_ns: 500,
        backoff_cap_ns: 16_000,
        backoff_seed: 0x5E4E_5EED,
        quarantine_spare_frac: 0.0,
    }
}

/// A fresh fuzz front-end over [`FUZZ_BANKS`] journaled Security RBSG
/// banks checkpointing under `policy`; bank `b` of iteration `iter` is
/// seeded `base ^ (iter << 8) ^ b`.
pub fn fuzz_front_end(
    base: u64,
    iter: u64,
    policy: CheckpointPolicy,
) -> FrontEnd<Journaled<SecurityRbsg>> {
    let banks = (0..FUZZ_BANKS)
        .map(|b| {
            let mut cfg = SecurityRbsgConfig::small(4, 2);
            cfg.seed = base ^ (iter << 8) ^ b as u64;
            MemoryController::new(
                Journaled::new(SecurityRbsg::new(cfg), policy),
                u64::MAX,
                TimingModel::PAPER,
            )
        })
        .collect();
    FrontEnd::new(MultiBankSystem::from_controllers(banks), serve_cfg())
}

/// A random request stream over all banks: uniform addresses, 60/40
/// write/read, no meaningful deadlines.
pub fn fuzz_trace(rng: &mut StdRng, lines: u64, n: usize) -> Vec<Request> {
    let mut arrival: Ns = 0;
    (0..n)
        .map(|i| {
            arrival += (100 + rng.random::<u64>() % 200) as Ns;
            let la = rng.random::<u64>() % lines;
            let op = if rng.random::<u32>() % 5 < 3 {
                Op::Write(LineData::Mixed(i as u32 + 1))
            } else {
                Op::Read
            };
            Request {
                la,
                op,
                arrival_ns: arrival,
                deadline_ns: Ns::MAX,
            }
        })
        .collect()
}
