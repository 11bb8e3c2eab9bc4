//! The exact RAA stay kernel shared by both lifetime engines
//! (DESIGN §4g).
//!
//! A *stay* is the hammered line's time in one sub-region during one
//! outer round: `writes` hammer writes land in lap-sized quanta on
//! consecutive slots from an entry slot (wrapping within the region),
//! each full lap also rewriting one line per slot of the region
//! (background), and a final partial quantum adds no background. The
//! bank fails at the first quantum after which the region's peak hammer
//! wear plus its background reaches the endurance.
//!
//! The kernel deposits a stay one contiguous *run* at a time rather than
//! one quantum at a time: `f = writes / lap` full quanta form at most
//! `ceil(f / slots) + 1` runs, each inside the region's slot slice. A run
//! adds `lap` to each of its slots and takes their maximum in one pass,
//! then checks the crossing once, at its end. `peak + background` never
//! decreases from one quantum to the next (the peak only grows, and every
//! full quantum adds one background write), so a run whose end does not
//! cross never crossed inside it. Only the one run that does cross is
//! undone and replayed quantum by quantum, which reproduces the
//! per-quantum `(deposited, failed)` result and the final wear state
//! exactly (`stay_per_quantum`, the loop this kernel replaced, is kept as
//! the test oracle).
//!
//! The legacy engine runs the kernel on a `u32` state, the split engine
//! on `u64` range tallies (which never fail, so they skip the peak) and
//! on its `u64` cumulative state while it replays the crossing range.

use std::ops::{AddAssign, Range, SubAssign};

use crate::srbsg::{SrbsgParams, StaySink};
use crate::PcmParams;

/// A per-slot wear counter: `u32` in the legacy engine's dense state,
/// `u64` in the split engine, whose range tallies may overshoot the
/// endurance before the merge decides where the first crossing was.
pub(crate) trait Counter: Copy + Ord + Default + AddAssign + SubAssign {
    /// `v` as a counter (truncating, like `as`).
    fn of(v: u64) -> Self;
    /// The counter as a `u64`.
    fn get(self) -> u64;
}

impl Counter for u32 {
    fn of(v: u64) -> Self {
        v as u32
    }
    fn get(self) -> u64 {
        self as u64
    }
}

impl Counter for u64 {
    fn of(v: u64) -> Self {
        v
    }
    fn get(self) -> u64 {
        self
    }
}

/// Dense per-slot wear of one bank with per-region background and peak:
/// the state the stay kernel updates.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SlotWear<T> {
    /// Hammer-deposit wear per slot; slot index = region * slots + offset.
    pub(crate) wear: Vec<T>,
    /// Inner gap-rotation background writes per sub-region (one write per
    /// slot per lap of remap traffic).
    pub(crate) background: Vec<T>,
    /// Peak hammer wear per sub-region. The effective wear of a slot is
    /// `wear[slot] + background[region]`, so the first endurance crossing
    /// in a region is at `peak + background` — which a region-wide
    /// `background` increment can push over the limit on a slot the
    /// current deposit never touched. A state that cannot fail
    /// (`endurance == u64::MAX`) does not keep it: its runs skip the max.
    pub(crate) peak: Vec<T>,
    /// Slots per sub-region (`n_r + 1`).
    pub(crate) slots: u64,
    /// Writes per inner rotation lap (`(n_r+1)·ψ_in`).
    pub(crate) lap: u64,
    /// Effective wear at which the bank fails (`u64::MAX`: never).
    pub(crate) endurance: u64,
}

impl<T: Counter> SlotWear<T> {
    /// Zero wear over the platform's `R·(n_r+1)` slots.
    pub(crate) fn new(params: &PcmParams, cfg: &SrbsgParams, endurance: u64) -> Self {
        let slots = params.lines / cfg.sub_regions + 1;
        Self {
            wear: vec![T::default(); (cfg.sub_regions * slots) as usize],
            background: vec![T::default(); cfg.sub_regions as usize],
            peak: vec![T::default(); cfg.sub_regions as usize],
            slots,
            lap: slots * cfg.inner_interval,
            endurance,
        }
    }

    /// The slot indices of `region`.
    pub(crate) fn region(&self, region: usize) -> Range<usize> {
        let slots = self.slots as usize;
        region * slots..(region + 1) * slots
    }

    /// The per-quantum loop the kernel replaces, kept verbatim as the
    /// kernel's test oracle.
    #[cfg(test)]
    pub(crate) fn stay_per_quantum(
        &mut self,
        region: u64,
        entry: u64,
        mut writes: u64,
    ) -> (u64, bool) {
        let mut slot = entry;
        let mut deposited = 0u64;
        let mut failed = false;
        while writes > 0 && !failed {
            let deposit = writes.min(self.lap);
            let idx = (region * self.slots + slot) as usize;
            self.wear[idx] += T::of(deposit);
            deposited += deposit;
            let peak = &mut self.peak[region as usize];
            *peak = (*peak).max(self.wear[idx]);
            if deposit == self.lap {
                self.background[region as usize] += T::of(1);
            }
            if peak.get() + self.background[region as usize].get() >= self.endurance {
                failed = true;
            }
            writes -= deposit;
            slot = (slot + 1) % self.slots;
        }
        (deposited, failed)
    }
}

/// The dense lifetime sink of both engines.
impl<T: Counter> StaySink for SlotWear<T> {
    /// The stay kernel (module docs): one stay, deposited run by run.
    fn stay(&mut self, region: u64, entry: u64, writes: u64) -> (u64, bool) {
        let (lap, endurance) = (self.lap, self.endurance);
        let can_fail = endurance != u64::MAX;
        let r = region as usize;
        let range = self.region(r);
        let mut region = Region {
            wear: &mut self.wear[range],
            background: &mut self.background[r],
            peak: &mut self.peak[r],
        };
        let slots = region.wear.len();
        let (mut full, rem) = (writes / lap, writes % lap);
        let mut start = entry as usize;
        let mut deposited = 0;
        while full > 0 {
            let run = start..start + full.min((slots - start) as u64) as usize;
            let len = run.len() as u64;
            let run_max = add_run(&mut region.wear[run.clone()], T::of(lap), can_fail);
            let peak = (*region.peak).max(run_max);
            let background = region.background.get() + len;
            if peak.get() + background >= endurance {
                for w in &mut region.wear[run.clone()] {
                    *w -= T::of(lap);
                }
                let k = run
                    .into_iter()
                    .position(|slot| region.quantum(slot, lap, lap, endurance))
                    .expect("a run that crosses at its end crosses at one of its quanta");
                return (deposited + (k as u64 + 1) * lap, true);
            }
            *region.peak = peak;
            *region.background = T::of(background);
            deposited += len * lap;
            full -= len;
            start += len as usize;
            if start == slots {
                start = 0;
            }
        }
        if rem == 0 {
            return (deposited, false);
        }
        (deposited + rem, region.quantum(start, rem, lap, endurance))
    }
}

/// One region's slice of a [`SlotWear`].
struct Region<'a, T> {
    wear: &'a mut [T],
    background: &'a mut T,
    peak: &'a mut T,
}

impl<T: Counter> Region<'_, T> {
    /// One quantum of `deposit <= lap` writes on `slot` with the
    /// crossing check; a full lap also adds one background write.
    fn quantum(&mut self, slot: usize, deposit: u64, lap: u64, endurance: u64) -> bool {
        self.wear[slot] += T::of(deposit);
        *self.peak = (*self.peak).max(self.wear[slot]);
        if deposit == lap {
            *self.background += T::of(1);
        }
        self.peak.get() + self.background.get() >= endurance
    }
}

/// Add `lap` to every slot of `run` and return the run's new maximum, in
/// one pass, on AVX2 when the CPU has it (DESIGN §4g). The AVX2 wrapper
/// re-compiles the one safe body, [`add_run_portable`], so both paths
/// compute the same. Without `peak` it only adds and returns zero.
#[inline]
fn add_run<T: Counter>(run: &mut [T], lap: T, peak: bool) -> T {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: feature presence checked on this line.
        return unsafe { add_run_avx2(run, lap, peak) };
    }
    add_run_portable(run, lap, peak)
}

/// [`add_run`]'s body, a loop the compiler vectorizes for whatever target
/// features it is compiled under.
#[inline(always)]
fn add_run_portable<T: Counter>(run: &mut [T], lap: T, peak: bool) -> T {
    let mut max = T::default();
    if peak {
        for w in run {
            *w += lap;
            max = max.max(*w);
        }
    } else {
        for w in run {
            *w += lap;
        }
    }
    max
}

/// # Safety
/// Caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_run_avx2<T: Counter>(run: &mut [T], lap: T, peak: bool) -> T {
    add_run_portable(run, lap, peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Debug;

    /// The AVX2 `add_run` ≡ the portable body, with and without the peak,
    /// over run lengths 0..=1100 at several offsets into the buffer.
    #[cfg(target_arch = "x86_64")]
    fn avx2_matches_the_portable_add_run<T: Counter + Debug>() {
        let mut st = 0x9E37_79B9_7F4A_7C15u64;
        let start: Vec<T> = (0..1100 + 64)
            .map(|_| {
                st ^= st << 13;
                st ^= st >> 7;
                st ^= st << 17;
                T::of(st % (1 << 30))
            })
            .collect();
        let lap = T::of(12_345);
        for offset in [0, 1, 3, 7, 16, 33] {
            for len in 0..=1100 {
                let run = offset..offset + len;
                for peak in [false, true] {
                    let (mut want, mut got) = (start.clone(), start.clone());
                    let want_max = add_run_portable(&mut want[run.clone()], lap, peak);
                    // SAFETY: the caller checked AVX2 support.
                    let got_max = unsafe { add_run_avx2(&mut got[run.clone()], lap, peak) };
                    assert_eq!(got_max, want_max, "offset {offset} len {len}");
                    assert_eq!(got, want, "offset {offset} len {len}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_avx2_add_run_matches_the_portable_body() {
        if !is_x86_feature_detected!("avx2") {
            eprintln!("skipping the AVX2 add_run check: this CPU lacks AVX2");
            return;
        }
        avx2_matches_the_portable_add_run::<u32>();
        avx2_matches_the_portable_add_run::<u64>();
    }

    /// A `regions × slots` state with lap `lap`, endurance `endurance` and
    /// pre-wear drawn from `seed` (xorshift) below `max_pre`; each region's
    /// background is drawn likewise and its peak is its slots' maximum.
    fn state<T: Counter>(
        (regions, slots, lap): (u64, u64, u64),
        endurance: u64,
        seed: u64,
        max_pre: u64,
    ) -> SlotWear<T> {
        let mut st = seed | 1;
        let mut next = |bound: u64| {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            if bound == 0 {
                0
            } else {
                st % bound
            }
        };
        let wear: Vec<T> = (0..regions * slots).map(|_| T::of(next(max_pre))).collect();
        let peak = wear
            .chunks(slots as usize)
            .map(|c| c.iter().copied().max().unwrap())
            .collect();
        SlotWear {
            wear,
            background: (0..regions).map(|_| T::of(next(max_pre / 8))).collect(),
            peak,
            slots,
            lap,
            endurance,
        }
    }

    /// Run one stay through the kernel and through the per-quantum oracle
    /// on copies of `start`, require identical results and states, and
    /// return the kernel's `(deposited, failed)`.
    fn same_stay<T: Counter + Debug>(
        start: &SlotWear<T>,
        region: u64,
        entry: u64,
        writes: u64,
    ) -> (u64, bool) {
        let (mut kernel, mut oracle) = (start.clone(), start.clone());
        let got = kernel.stay(region, entry, writes);
        let want = oracle.stay_per_quantum(region, entry, writes);
        assert_eq!(
            got, want,
            "(deposited, failed): region {region} entry {entry} writes {writes}"
        );
        assert_eq!(
            kernel, oracle,
            "state: region {region} entry {entry} writes {writes}"
        );
        got
    }

    /// `same_stay` for both counter widths.
    fn same_stay_both(
        shape: (u64, u64, u64),
        endurance: u64,
        seed: u64,
        max_pre: u64,
        (region, entry, writes): (u64, u64, u64),
    ) -> (u64, bool) {
        let narrow = same_stay(
            &state::<u32>(shape, endurance, seed, max_pre),
            region,
            entry,
            writes,
        );
        let wide = same_stay(
            &state::<u64>(shape, endurance, seed, max_pre),
            region,
            entry,
            writes,
        );
        assert_eq!(narrow, wide);
        wide
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Kernel ≡ oracle on random pre-wear, geometry, endurance and
        /// stays of up to four region wraps.
        #[test]
        fn kernel_matches_the_per_quantum_oracle(
            regions in 1u64..4,
            slots in 1u64..24,
            lap in 1u64..40,
            seed in any::<u64>(),
            max_pre in 0u64..400,
            endurance_over in 0u64..800,
            region_pick in any::<u64>(),
            entry_pick in any::<u64>(),
            laps_x4 in 0u64..400,
            rem_pick in any::<u64>(),
        ) {
            let region = region_pick % regions;
            let entry = entry_pick % slots;
            // Up to four wraps of full laps, then any remainder.
            let full = laps_x4 * slots / 100;
            let writes = full * lap + rem_pick % lap;
            let endurance = max_pre + endurance_over;
            same_stay_both((regions, slots, lap), endurance, seed, max_pre, (region, entry, writes));
        }
    }

    /// Named edge cases: each asserts the case it names really occurs.
    #[test]
    fn kernel_matches_the_oracle_on_edge_cases() {
        let (slots, lap) = (8u64, 10u64);
        let shape = (2, slots, lap);
        let fresh = |endurance| (shape, endurance, 7, 0);
        let run = |(shape, endurance, seed, max_pre), stay| {
            same_stay_both(shape, endurance, seed, max_pre, stay)
        };

        // No writes, a partial quantum only, and exact multiples of lap.
        assert_eq!(run(fresh(1_000), (1, 3, 0)), (0, false));
        assert_eq!(run(fresh(1_000), (1, 3, lap - 1)), (lap - 1, false));
        assert_eq!(run(fresh(1_000), (1, 3, 5 * lap)), (5 * lap, false));
        assert_eq!(run(fresh(1_000), (1, 0, slots * lap)), (slots * lap, false));
        // Stays that wrap the region two and three times, from mid-region.
        assert_eq!(
            run(fresh(1_000), (0, 5, 2 * slots * lap + 3)),
            (2 * slots * lap + 3, false)
        );
        assert_eq!(
            run(fresh(1_000), (1, 7, 3 * slots * lap + lap)),
            ((3 * slots + 1) * lap, false)
        );

        // A crossing on the first quantum of a run: a fresh region fails at
        // lap + 1 (one quantum of wear plus one background write).
        assert_eq!(run(fresh(lap + 1), (0, 2, 4 * lap)), (lap, true));
        // A crossing on the first quantum of the second run (the wrap):
        // entry 6 fills slots 6, 7 (peak lap, background 2), then slot 0
        // brings the background to 3.
        assert_eq!(run(fresh(lap + 3), (0, 6, 4 * lap)), (3 * lap, true));
        // A crossing on the last quantum of a run: entry 5 runs to the
        // region's end in 3 quanta, and only the third reaches lap + 3.
        assert_eq!(run(fresh(lap + 3), (1, 5, 3 * lap + 7)), (3 * lap, true));
        // A crossing on the remainder: one full wrap reaches lap + slots,
        // then the partial quantum raises the peak of slot 0 by 4.
        assert_eq!(
            run(fresh(lap + slots + 4), (0, 0, slots * lap + 4)),
            (slots * lap + 4, true)
        );
        // A crossing in the middle of a run that wraps twice.
        let (dep, failed) = run(fresh(2 * lap + slots + 4), (1, 3, 3 * slots * lap));
        assert!(
            failed && dep > slots * lap && dep < 2 * slots * lap,
            "{dep}"
        );

        // Background wear crossing on a slot the stay never touches: slot 0
        // of region 0 is pre-worn to E - 2, and two quanta on slots 3 and 4
        // add only background to it.
        let mut worn = state::<u64>(shape, 500, 7, 0);
        worn.wear[0] = 498;
        worn.peak[0] = 498;
        assert_eq!(same_stay(&worn, 0, 3, 5 * lap), (2 * lap, true));
        let mut worn = state::<u32>(shape, 500, 7, 0);
        worn.wear[0] = 498;
        worn.peak[0] = 498;
        assert_eq!(same_stay(&worn, 0, 3, 5 * lap), (2 * lap, true));

        // Random pre-wear right at the edge of the endurance.
        for seed in 0..200 {
            run(
                (shape, 150, seed, 140),
                (seed % 2, seed % slots, (seed % 30) * lap / 3),
            );
        }
    }
}
