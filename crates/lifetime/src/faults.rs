//! Lifetime of Security RBSG on a *degrading* device: endurance
//! variation, verify-retries, ECP budgets, and spare lines (see
//! [`srbsg_pcm::FaultConfig`]).
//!
//! Where the ideal-device engines report a single number — writes until
//! the first line crosses its endurance — these report the degradation
//! timeline: when the device stopped being pristine, when the first line
//! was retired to a spare, and when the spare pool ran out (capacity
//! exhaustion, the fault model's notion of "failed"). Two tiers mirror
//! the rest of the crate and are cross-validated by tests:
//!
//! * [`srbsg_raa_degraded_exact`] drives the real [`SecurityRbsg`] scheme
//!   and the real RAA attack code through a fault-injected
//!   [`MemoryController`].
//! * [`srbsg_raa_degraded_lifetime`] is the round-level fast-forward
//!   engine, depositing lap-sized wear quanta into a fault-injected
//!   [`PcmBank`] so the event machinery (retries, ECP, retirement) runs
//!   identically to the exact path, while latency is amortized
//!   analytically.

use srbsg_attacks::RepeatedAddressAttack;
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{DegradationReport, FaultConfig, MemoryController, PcmBank};

use crate::srbsg::{finish, RaaCore, SrbsgParams, StaySink};
use crate::{Lifetime, PcmParams};

/// The degradation timeline of one run, in attacker-visible units.
#[derive(Debug, Clone)]
pub struct DegradationLifetime {
    /// When the device stopped being pristine (first transient fault or
    /// ECP consumption); `None` if it never did before exhaustion.
    pub first_correctable: Option<Lifetime>,
    /// When the first line was retired to a spare.
    pub first_retirement: Option<Lifetime>,
    /// When the spare pool ran out — the end of the device's service life.
    /// If the run hit its write budget first, this is the budget point
    /// (check `report.capacity_exhaustion`).
    pub capacity_exhaustion: Lifetime,
    /// The bank's own report and counters.
    pub report: DegradationReport,
}

/// Exact tier: real scheme, real attack, fault-injected controller.
///
/// Runs RAA in bounded bursts so the degradation milestones can be
/// timestamped between bursts (granularity: one burst, default 1/64 of
/// the ideal write budget). Stops at capacity exhaustion or after
/// `max_writes` demand writes.
pub fn srbsg_raa_degraded_exact(
    params: &PcmParams,
    cfg: &SrbsgParams,
    fault_cfg: &FaultConfig,
    seed: u64,
    max_writes: u128,
) -> DegradationLifetime {
    let scheme = SecurityRbsg::new(SecurityRbsgConfig {
        width: params.width(),
        sub_regions: cfg.sub_regions,
        inner_interval: cfg.inner_interval,
        outer_interval: cfg.outer_interval,
        stages: cfg.stages,
        seed,
    });
    let mut mc = MemoryController::with_faults(scheme, params.endurance, params.timing, *fault_cfg);
    let attack = RepeatedAddressAttack::default();
    let burst = (max_writes / 64).max(1);
    let mut first_correctable = None;
    let mut first_retirement = None;
    while !mc.failed() && mc.demand_writes() < max_writes {
        let budget = burst.min(max_writes - mc.demand_writes());
        attack.run(&mut mc, budget);
        let report = mc.degradation_report();
        let here = Lifetime {
            ns: mc.now_ns(),
            writes: mc.demand_writes(),
        };
        if first_correctable.is_none() && report.first_correctable.is_some() {
            first_correctable = Some(here);
        }
        if first_retirement.is_none() && report.first_retirement.is_some() {
            first_retirement = Some(here);
        }
    }
    DegradationLifetime {
        first_correctable,
        first_retirement,
        capacity_exhaustion: Lifetime {
            ns: mc.now_ns(),
            writes: mc.demand_writes(),
        },
        report: mc.degradation_report(),
    }
}

/// The round-level RAA engine's sink over a fault-injected bank.
///
/// The deposits are the ideal engine's (`srbsg_raa_lifetime`, the same
/// `RaaCore` and RNG stream): per outer round the hammered address stays
/// in two key-random sub-regions, parking on one slot per inner rotation
/// lap. Here every lap-sized quantum lands in the real [`PcmBank`] via
/// `add_wear`, so per-line endurance draws, transient schedules, ECP
/// consumption, and spare-line retirement all fire exactly as they would
/// write-by-write; only latency is amortized (via [`finish`]).
struct BankSink {
    bank: PcmBank,
    /// Slots per sub-region (`n_r + 1`).
    slots: u64,
    /// Writes per inner rotation lap (`(n_r+1)·ψ_in`).
    lap: u64,
}

impl StaySink for BankSink {
    /// One quantum per slot from `entry` on; each full lap also deposits
    /// one write of inner-rotation background on every slot of the region.
    fn stay(&mut self, region: u64, entry: u64, mut writes: u64) -> (u64, bool) {
        let base = region * self.slots;
        let mut slot = entry;
        let mut deposited = 0;
        while writes > 0 && !self.bank.failed() {
            let deposit = writes.min(self.lap);
            self.bank.add_wear(base + slot, deposit);
            deposited += deposit;
            if deposit == self.lap {
                for s in 0..self.slots {
                    self.bank.add_wear(base + s, 1);
                    if self.bank.failed() {
                        break;
                    }
                }
            }
            writes -= deposit;
            slot = (slot + 1) % self.slots;
        }
        (deposited, self.bank.failed())
    }
}

/// Fast-forward tier: RAA lifetime of Security RBSG on a degrading
/// device. Runs until capacity exhaustion or until `max_writes` attack
/// writes have been spent (whichever first); milestones are timestamped
/// at round granularity.
pub fn srbsg_raa_degraded_lifetime(
    params: &PcmParams,
    cfg: &SrbsgParams,
    fault_cfg: &FaultConfig,
    seed: u64,
    max_writes: u128,
) -> DegradationLifetime {
    let slots = params.lines / cfg.sub_regions + 1;
    let sink = BankSink {
        bank: PcmBank::with_faults(
            cfg.sub_regions * slots,
            params.endurance,
            params.timing,
            *fault_cfg,
        ),
        slots,
        lap: slots * cfg.inner_interval,
    };
    let mut eng = RaaCore::with_sink(*params, *cfg, seed, sink);
    let mut first_correctable = None;
    let mut first_retirement = None;
    loop {
        let alive = eng.round();
        let report = eng.sink.bank.degradation_report();
        if first_correctable.is_none() && report.first_correctable.is_some() {
            first_correctable = Some(finish(params, cfg, eng.total_writes));
        }
        if first_retirement.is_none() && report.first_retirement.is_some() {
            first_retirement = Some(finish(params, cfg, eng.total_writes));
        }
        if !alive || eng.total_writes >= max_writes {
            break;
        }
    }
    DegradationLifetime {
        first_correctable,
        first_retirement,
        capacity_exhaustion: finish(params, cfg, eng.total_writes),
        report: eng.sink.bank.degradation_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srbsg::srbsg_raa_lifetime;

    fn small_cfg() -> SrbsgParams {
        SrbsgParams {
            sub_regions: 8,
            inner_interval: 4,
            outer_interval: 8,
            stages: 5,
        }
    }

    #[test]
    fn inert_faults_reproduce_ideal_engine_exactly() {
        // With every fault knob zero, the degraded engine must agree with
        // the ideal round-level engine write for write: same RNG stream,
        // same deposits, failure at the first endurance crossing.
        let params = PcmParams::small(9, 20_000);
        let cfg = small_cfg();
        for seed in 0..3 {
            let ideal = srbsg_raa_lifetime(&params, &cfg, seed);
            let degraded = srbsg_raa_degraded_lifetime(
                &params,
                &cfg,
                &FaultConfig::default(),
                seed,
                u128::MAX >> 1,
            );
            assert!(degraded.report.capacity_exhaustion.is_some());
            // The engines differ only in background accounting: the ideal
            // engine folds one background lap per region into its failure
            // check, the degraded engine deposits it as real wear. Allow
            // that slack but demand the same order of magnitude and the
            // same seed-determinism.
            let ratio = degraded.capacity_exhaustion.writes as f64 / ideal.writes as f64;
            assert!(
                (0.8..1.25).contains(&ratio),
                "seed {seed}: degraded {} vs ideal {} (ratio {ratio})",
                degraded.capacity_exhaustion.writes,
                ideal.writes
            );
            let again = srbsg_raa_degraded_lifetime(
                &params,
                &cfg,
                &FaultConfig::default(),
                seed,
                u128::MAX >> 1,
            );
            assert_eq!(
                degraded.capacity_exhaustion.writes, again.capacity_exhaustion.writes,
                "engine must be deterministic per seed"
            );
        }
    }

    #[test]
    fn spares_strictly_outlive_first_line_death() {
        let params = PcmParams::small(9, 15_000);
        let cfg = small_cfg();
        let no_spares =
            srbsg_raa_degraded_lifetime(&params, &cfg, &FaultConfig::default(), 3, u128::MAX >> 1);
        let spared_cfg = FaultConfig {
            seed: 3,
            spare_lines: 32,
            ecp_entries: 2,
            ecp_wear_step: 1_000,
            ..FaultConfig::default()
        };
        let spared = srbsg_raa_degraded_lifetime(&params, &cfg, &spared_cfg, 3, u128::MAX >> 1);
        assert!(spared.report.capacity_exhaustion.is_some());
        assert!(
            spared.capacity_exhaustion.writes > no_spares.capacity_exhaustion.writes,
            "graceful degradation must strictly outlive first-line death: {} vs {}",
            spared.capacity_exhaustion.writes,
            no_spares.capacity_exhaustion.writes
        );
        assert!(spared.first_retirement.is_some());
        assert!(spared.first_retirement.unwrap().writes <= spared.capacity_exhaustion.writes);
        assert!(spared.report.stats.lines_retired > 0);
    }

    #[test]
    fn exact_and_fast_forward_agree_on_degradation() {
        // Acceptance: both tiers see the same qualitative degradation
        // story on a small config — retirements happen, exhaustion comes
        // after first retirement, and lifetimes agree within the same
        // tolerance the ideal engines are held to.
        let params = PcmParams::small(8, 6_000);
        let cfg = SrbsgParams {
            sub_regions: 4,
            inner_interval: 4,
            outer_interval: 8,
            stages: 5,
        };
        let fcfg = FaultConfig {
            seed: 17,
            endurance_cov: 0.1,
            spare_lines: 8,
            ecp_entries: 1,
            ecp_wear_step: 100,
            ..FaultConfig::default()
        };
        let exact_avg = (0..3u64)
            .map(|s| {
                let d = srbsg_raa_degraded_exact(&params, &cfg, &fcfg, s, u128::MAX >> 1);
                assert!(
                    d.report.capacity_exhaustion.is_some(),
                    "exact run must exhaust"
                );
                assert!(d.report.stats.lines_retired > 0, "exact run must retire");
                d.capacity_exhaustion.writes as f64
            })
            .sum::<f64>()
            / 3.0;
        let ff_avg = (0..5u64)
            .map(|s| {
                let d = srbsg_raa_degraded_lifetime(&params, &cfg, &fcfg, s, u128::MAX >> 1);
                assert!(
                    d.report.capacity_exhaustion.is_some(),
                    "ff run must exhaust"
                );
                assert!(d.report.stats.lines_retired > 0, "ff run must retire");
                d.capacity_exhaustion.writes as f64
            })
            .sum::<f64>()
            / 5.0;
        let ratio = ff_avg / exact_avg;
        assert!(
            (0.4..2.5).contains(&ratio),
            "fast-forward {ff_avg} vs exact {exact_avg} (ratio {ratio})"
        );
    }
}
