#![warn(missing_docs)]

//! Lifetime evaluation of PCM under wear-leveling and attack.
//!
//! The paper's evaluation spans up to 10^16 line writes (years of simulated
//! time on a 2^22-line bank with 10^8 endurance) — far beyond write-by-write
//! simulation. This crate provides three evaluation tiers, cross-validated
//! against each other at small scale by the test suite:
//!
//! 1. **Exact** — drive the real schemes and the real attack code from
//!    `srbsg-attacks` through the `MemoryController`. Used directly for the
//!    RTA-vs-RBSG experiments (Fig. 11's RTA side fits in ~10^8 events) and
//!    for validation at reduced scale.
//! 2. **Round-level fast-forward** — exploit the round structure of the
//!    schemes: between remap rounds the wear deposited by a known attack
//!    pattern is a closed-form bulk update. Used for RAA/BPA on two-level
//!    SR (Fig. 13) and on Security RBSG (Figs. 14–16), where randomness
//!    across rounds (key draws) matters but within-round wear does not.
//! 3. **Closed form** — direct formulas where the process is deterministic
//!    (RAA on Start-Gap rotations, the paper's detection-cost model for
//!    RTA on two-level SR, ideal lifetime).

mod faults;
mod rbsg;
mod split;
mod sr2;
mod srbsg;
mod stay;
mod trials;
mod workload;

pub use faults::{srbsg_raa_degraded_exact, srbsg_raa_degraded_lifetime, DegradationLifetime};
pub use rbsg::{rbsg_raa_lifetime, rbsg_raa_writes, rbsg_rta_lifetime};
pub use split::{
    srbsg_raa_lifetime_split, srbsg_raa_wear_profile_split, srbsg_raa_wear_profile_split_with,
};
pub use sr2::{sr2_raa_lifetime, sr2_rta_lifetime};
pub use srbsg::{
    srbsg_bpa_lifetime, srbsg_bpa_lifetime_analytic, srbsg_raa_lifetime,
    srbsg_raa_wear_distribution, srbsg_raa_wear_profile, srbsg_rta_lifetime, SrbsgParams,
};
pub use trials::{
    rbsg_rta_lifetime_trials, sr2_raa_lifetime_trials, sr2_rta_lifetime_trials,
    srbsg_bpa_lifetime_trials, srbsg_raa_degraded_exact_trials, srbsg_raa_degraded_lifetime_trials,
    srbsg_raa_lifetime_trials, srbsg_rta_lifetime_trials,
};
pub use workload::workload_lifetime;

use srbsg_pcm::TimingModel;

/// Device parameters shared by the lifetime engines.
#[derive(Debug, Clone, Copy)]
pub struct PcmParams {
    /// Total logical lines `N` (a power of two).
    pub lines: u64,
    /// Per-line write endurance `E`.
    pub endurance: u64,
    /// Timing model.
    pub timing: TimingModel,
}

impl PcmParams {
    /// The paper's evaluation platform: a 1 GB bank of 256 B lines
    /// (`N = 2^22`), endurance 10^8, 125/1000/125 ns timing.
    pub fn paper() -> Self {
        Self {
            lines: 1 << 22,
            endurance: 100_000_000,
            timing: TimingModel::PAPER,
        }
    }

    /// A scaled-down platform for tests and examples.
    pub fn small(width: u32, endurance: u64) -> Self {
        Self {
            lines: 1 << width,
            endurance,
            timing: TimingModel::PAPER,
        }
    }

    /// Address width `B = log2(N)`.
    pub fn width(&self) -> u32 {
        self.lines.trailing_zeros()
    }

    /// The ideal lifetime: every one of the `N·E` write slots is consumed
    /// by a demand write of worst-case (SET) latency. The paper's "Ideal
    /// lifetime" line in Figs. 12–15 (~4850 days for the paper platform).
    pub fn ideal_lifetime(&self) -> Lifetime {
        let writes = self.lines as u128 * self.endurance as u128;
        Lifetime {
            writes,
            ns: writes * self.timing.set_ns as u128,
        }
    }
}

/// A lifetime measurement: how many attack writes and how much simulated
/// time until the first line failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// Nanoseconds until failure.
    pub ns: u128,
    /// Demand writes until failure.
    pub writes: u128,
}

impl Lifetime {
    /// Seconds until failure.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }

    /// Days until failure.
    pub fn days(&self) -> f64 {
        self.secs() / 86_400.0
    }

    /// Months (30-day) until failure.
    pub fn months(&self) -> f64 {
        self.days() / 30.0
    }

    /// Hours until failure.
    pub fn hours(&self) -> f64 {
        self.secs() / 3_600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ideal_lifetime_is_about_4850_days() {
        let d = PcmParams::paper().ideal_lifetime().days();
        assert!((4_500.0..5_200.0).contains(&d), "ideal = {d} days");
    }

    #[test]
    fn width_of_paper_platform() {
        assert_eq!(PcmParams::paper().width(), 22);
    }
}
