//! What the chaos harnesses share: the lost-ack oracle all five of them
//! (`serve`, `crash`, `crashfuzz`, `storagefuzz`, `servebin`) audit with,
//! and the serving policy, front-end and request stream the two fuzz
//! harnesses (`crashfuzz`, `storagefuzz`) draw from.

use rand::rngs::StdRng;
use rand::RngExt;
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, MultiBankSystem, Ns, TimingModel};
use srbsg_persist::{CheckpointPolicy, Journaled};
use srbsg_serve::{FrontEnd, Op, Rejected, Request, ServeConfig, Served};
use std::collections::BTreeMap;

/// The lost-ack oracle: which value each address must read back after
/// the chaos.
///
/// A harness records every acknowledged write with [`AckLedger::ack`]
/// (the last ack of an address wins), drops an address whose line a
/// never-acknowledged write may have clobbered with [`AckLedger::forget`]
/// ([`AckLedger::settle`] picks between the two from a front-end
/// completion), and notes writes still in flight at a kill with
/// [`AckLedger::unresolved`]. A *phase* orders the acks and in-flight
/// writes of harnesses that run several load phases against one device;
/// single-phase harnesses pass 0. [`AckLedger::audit`] then reads back
/// every acknowledged address: it must hold its last acked value, or an
/// unresolved value from the last ack's phase or a later one (a write
/// the device applied without its ack reaching the client). Anything
/// else, an untagged line included, is a lost acknowledged write.
#[derive(Debug, Default)]
pub struct AckLedger {
    /// Last acknowledged value per address, with its phase.
    acked: BTreeMap<u64, (LineData, usize)>,
    /// Never-acknowledged values the device may hold, with their phases.
    unresolved: BTreeMap<u64, Vec<(LineData, usize)>>,
}

impl AckLedger {
    /// Record an acknowledged write; it supersedes any earlier ack of `la`.
    pub fn ack(&mut self, la: u64, data: LineData, phase: usize) {
        self.acked.insert(la, (data, phase));
    }

    /// A write reached the device but was never acknowledged: the line is
    /// indeterminate, so `la` leaves the audit until its next ack.
    pub fn forget(&mut self, la: u64) {
        self.acked.remove(&la);
        self.unresolved.remove(&la);
    }

    /// Settle a single-phase harness's write of `data` to `la` by its
    /// front-end `result`: an ack is recorded, a rejection that touched the
    /// device forgets `la`, and one refused before reaching the device
    /// changes nothing.
    pub fn settle(&mut self, la: u64, data: LineData, result: &Result<Served, Rejected>) {
        match result {
            Ok(_) => self.ack(la, data, 0),
            Err(r) if r.touched_device() => self.forget(la),
            Err(_) => {}
        }
    }

    /// Note a write that was in flight at a kill: the device may hold it.
    pub fn unresolved(&mut self, la: u64, data: LineData, phase: usize) {
        self.unresolved.entry(la).or_default().push((data, phase));
    }

    /// Read back every acknowledged address through `read`, in address
    /// order. Returns `(audited, lost)`.
    pub fn audit(&self, mut read: impl FnMut(u64) -> LineData) -> (u64, u64) {
        let mut lost = 0u64;
        for (&la, &(data, phase)) in &self.acked {
            let got = read(la);
            let in_flight = self
                .unresolved
                .get(&la)
                .is_some_and(|u| u.iter().any(|&(d, p)| d == got && p >= phase));
            lost += u64::from(got != data && !in_flight);
        }
        (self.acked.len() as u64, lost)
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    /// Audit a ledger against a device holding `held` at every address.
    fn audit_holding(ledger: &AckLedger, held: LineData) -> (u64, u64) {
        ledger.audit(|_| held)
    }

    #[test]
    fn the_last_ack_wins() {
        let mut l = AckLedger::default();
        l.ack(7, LineData::Mixed(1), 0);
        l.ack(7, LineData::Mixed(2), 0);
        assert_eq!(audit_holding(&l, LineData::Mixed(2)), (1, 0));
        assert_eq!(audit_holding(&l, LineData::Mixed(1)), (1, 1));
    }

    #[test]
    fn forget_drops_an_address_until_its_next_ack() {
        let mut l = AckLedger::default();
        l.ack(7, LineData::Mixed(1), 0);
        l.forget(7);
        assert_eq!(audit_holding(&l, LineData::Mixed(9)), (0, 0));
        l.ack(7, LineData::Mixed(3), 0);
        assert_eq!(audit_holding(&l, LineData::Mixed(3)), (1, 0));
        assert_eq!(audit_holding(&l, LineData::Mixed(1)), (1, 1));
    }

    #[test]
    fn a_rejection_forgets_the_ack_only_if_it_touched_the_device() {
        use srbsg_pcm::PcmError;
        let (acked, rejected) = (LineData::Mixed(1), LineData::Mixed(2));
        let cases = [
            (Rejected::QueueFull { bank: 0, depth: 4 }, false),
            (
                Rejected::DeadlineExceeded {
                    bank: 0,
                    deadline_ns: 10,
                    ready_ns: 20,
                    attempts: 0,
                },
                false,
            ),
            (
                Rejected::DeadlineExceeded {
                    bank: 0,
                    deadline_ns: 10,
                    ready_ns: 20,
                    attempts: 2,
                },
                true,
            ),
            (Rejected::BankQuarantined { bank: 0 }, false),
            (
                Rejected::RetriesExhausted {
                    bank: 0,
                    attempts: 4,
                },
                true,
            ),
            (Rejected::ReadOnly, false),
            (
                Rejected::Fault(PcmError::AddressOutOfRange { la: 7, lines: 4 }),
                false,
            ),
        ];
        let served = Served {
            bank: 0,
            latency_ns: 5,
            retries: 0,
            data: None,
        };
        for (rej, touched) in cases {
            let mut l = AckLedger::default();
            l.settle(7, acked, &Ok(served));
            l.settle(7, rejected, &Err(rej));
            if touched {
                // The line may hold the rejected value: not a lost ack.
                assert_eq!(audit_holding(&l, rejected), (0, 0), "{rej:?}");
            } else {
                // Never reached the device: the ack still stands.
                assert_eq!(audit_holding(&l, acked), (1, 0), "{rej:?}");
                assert_eq!(audit_holding(&l, rejected), (1, 1), "{rej:?}");
            }
        }
    }

    #[test]
    fn an_unresolved_value_counts_from_the_acks_phase_on() {
        let mut l = AckLedger::default();
        l.ack(7, LineData::Mixed(1), 1);
        l.unresolved(7, LineData::Mixed(10), 0);
        l.unresolved(7, LineData::Mixed(11), 1);
        l.unresolved(7, LineData::Mixed(12), 2);
        // Another address's in-flight write does not cover this one.
        l.unresolved(8, LineData::Mixed(13), 2);
        assert_eq!(audit_holding(&l, LineData::Mixed(11)), (1, 0));
        assert_eq!(audit_holding(&l, LineData::Mixed(12)), (1, 0));
        assert_eq!(audit_holding(&l, LineData::Mixed(10)), (1, 1));
        assert_eq!(audit_holding(&l, LineData::Mixed(13)), (1, 1));
    }

    #[test]
    fn an_untagged_line_is_lost() {
        let mut l = AckLedger::default();
        l.ack(7, LineData::Mixed(1), 0);
        l.unresolved(7, LineData::Mixed(2), 0);
        assert_eq!(audit_holding(&l, LineData::Zeros), (1, 1));
    }
}
