//! Intra-trial parallelism: one RAA lifetime split across workers by
//! round-range RNG streams (DESIGN §4g).
//!
//! The legacy engine in [`crate::srbsg`] draws every round of a trial
//! from one sequential `SmallRng`, so round `r` is only reachable by
//! executing rounds `0..r` — a single lifetime total is serial no matter
//! how many cores the machine has. This module re-keys the same round
//! model with a *splittable counter-based* RNG: round `r` of trial
//! `seed` draws all of its randomness (current-round Feistel network,
//! flip point, cycle length, park check, and both stay entry slots) from
//! an independent stream seeded `stream_seed(seed, r)` — the exact
//! derivation `shard_seed` uses for per-bank streams. Rounds in a range
//! `[a, b)` are then computable without executing `[0, a)`:
//!
//! * the only state a round inherits is the hammered LA's image under
//!   the *previous* round's keys (`ia_p`), which is itself a pure
//!   function of stream `r-1` (or of the dedicated init stream for
//!   round 0) — one extra Feistel network per range, not per round;
//! * every round's draws happen **up front**, before any deposit, so a
//!   range that would have failed mid-round consumes exactly the same
//!   stream positions as one that completes. The legacy engine had to
//!   document that `deposit_stay` draws its entry slot even on a failed
//!   bank to keep sinks aligned; here the per-round stream makes that
//!   alignment structural — failure can never shift a later round's
//!   randomness, because later rounds own disjoint streams.
//!
//! **Lifetime merge semantics.** Workers simulate disjoint round ranges
//! into private never-failing wear tallies (a `u64` `SlotWear` filled
//! by the shared stay kernel of `stay.rs`, plus the regions the range
//! touched). [`srbsg_parallel::par_fold`] merges the touched regions of
//! each tally *in range order* into a cumulative base; because wear is
//! monotone, the first range whose merged base crosses the endurance
//! anywhere is exactly the range containing the first failure — ranges
//! before it can never have crossed at any intermediate write. The
//! engine then recovers the pre-range baseline (an exact `u64`
//! subtraction), replays that one range with the stay kernel's exact
//! failure semantics (lap-quantum deposits, region-peak + background
//! crossing checks, partial final stay), and stops. The earliest
//! crossing therefore wins deterministically, and the result is
//! bit-identical to a serial execution of the same per-round streams for
//! **any** worker count and any range partition. Merged tallies are
//! zeroed and reused, and once the fold finds the crossing the workers
//! skip the ranges past it; skipped ranges are ignored by the in-order
//! fold, so this affects wall-clock only.
//!
//! **Profile merge semantics.** Wear-distribution sweeps need no failure
//! detection: each range folds its deposits in closed form into a
//! private [`WearAccumulator`] (O(points + regions) memory per worker),
//! and the accumulators merge in range order with exact `u128` sums —
//! associative and commutative, proptested in `srbsg-pcm`. The round
//! count for a write target is known a priori (every round contributes
//! exactly `N·ψ_out` demand writes, parked or not), so the range
//! partition never depends on simulation results, only on the target.
//!
//! The split engine is a *different* (equally valid) sampling of the
//! same round model as the legacy engine — identical per-round draw
//! distributions, different stream — so split and legacy lifetimes
//! agree statistically (cross-validated by tests here and by the
//! `faults_split.csv` sweep) but not bit-for-bit.

use rand::rngs::SmallRng;
use rand::RngExt;
use rand::SeedableRng;
use srbsg_feistel::{AddressPermutation, FeistelNetwork};
use srbsg_parallel::{par_fold, stream_seed};
use srbsg_pcm::WearAccumulator;
use std::sync::{Condvar, Mutex};

use crate::srbsg::{finish, SrbsgParams, StaySink, StreamSink};
use crate::stay::SlotWear;
use crate::{Lifetime, PcmParams};

/// Stream index of the round-0 predecessor network (the constructor draw
/// of the legacy engine). Round indices are bounded by the endurance
/// horizon, far below this.
const INIT_STREAM: u64 = u64::MAX;

/// Ranges per estimated lifetime: the fixed, jobs-independent partition
/// granularity of one trial. Fine enough to keep workers busy and to
/// bound the replayed tail, coarse enough that per-range work (one
/// predecessor network, one merge and one reset of the touched regions)
/// stays small next to the range's deposits.
const RANGES_PER_TRIAL: usize = 24;

/// Everything round `r` draws from its private stream, in draw order.
/// Computed before any deposit, so stream positions never depend on
/// failure state (see module docs).
struct RoundDraws {
    /// The hammered LA's image under this round's current keys.
    ia_c: u64,
    /// Where within the round the LA flips from the previous keys' image
    /// to the current one.
    flip: f64,
    /// Modeled cycle length of the round permutation at the LA.
    cycle_len: u64,
    /// Whether the LA heads its migration cycle (writes land in the
    /// SRAM-backed spare and wear nothing while parked).
    parked: bool,
    /// Entry slot of the previous-image stay.
    entry1: u64,
    /// Entry slot of the current-image stay.
    entry2: u64,
}

fn round_draws(params: &PcmParams, cfg: &SrbsgParams, seed: u64, r: u64) -> RoundDraws {
    let mut rng = SmallRng::seed_from_u64(stream_seed(seed, r));
    let enc_c = FeistelNetwork::random(&mut rng, params.width(), cfg.stages);
    let ia_c = enc_c.encrypt(0);
    let flip = rng.random_range(0.0..1.0f64);
    let cycle_len = rng.random_range(1..=params.lines);
    let parked = rng.random_range(0..cycle_len) == 0;
    let slots = params.lines / cfg.sub_regions + 1;
    let entry1 = rng.random_range(0..slots);
    let entry2 = rng.random_range(0..slots);
    RoundDraws {
        ia_c,
        flip,
        cycle_len,
        parked,
        entry1,
        entry2,
    }
}

/// The LA's image under round `r`'s *previous* keys — the one piece of
/// cross-round state, reconstructible from stream `r-1` alone (or from
/// the init stream for round 0).
fn prev_image(params: &PcmParams, cfg: &SrbsgParams, seed: u64, r: u64) -> u64 {
    if r == 0 {
        let mut rng = SmallRng::seed_from_u64(stream_seed(seed, INIT_STREAM));
        FeistelNetwork::random(&mut rng, params.width(), cfg.stages).encrypt(0)
    } else {
        round_draws(params, cfg, seed, r - 1).ia_c
    }
}

/// The fully determined deposit schedule of one round: two stays plus
/// parked traffic, mirroring `RaaCore::round` exactly.
struct RoundPlan {
    region1: u64,
    entry1: u64,
    w1: u64,
    region2: u64,
    entry2: u64,
    w2: u64,
    parked_writes: u64,
}

fn round_plan(params: &PcmParams, cfg: &SrbsgParams, ia_p: u64, d: &RoundDraws) -> RoundPlan {
    let n_r = params.lines / cfg.sub_regions;
    let round_writes = params.lines * cfg.outer_interval;
    let mut w1 = (round_writes as f64 * d.flip) as u64;
    let mut w2 = round_writes - w1;
    let mut parked_writes = 0;
    if d.parked {
        parked_writes = (d.cycle_len * cfg.outer_interval).min(round_writes);
        let taken1 = w1.min(parked_writes);
        w1 -= taken1;
        w2 -= (parked_writes - taken1).min(w2);
    }
    RoundPlan {
        region1: ia_p / n_r,
        entry1: d.entry1,
        w1,
        region2: d.ia_c / n_r,
        entry2: d.entry2,
        w2,
        parked_writes,
    }
}

/// A worker's private wear tally for one round range: a never-failing
/// `u64` [`SlotWear`] (a range can legitimately overshoot the endurance
/// before the in-order merge decides where the first crossing actually
/// was) plus the regions its stays touched. Only those regions are
/// merged and, when the tally is reused for a later range, zeroed.
struct RangeWear {
    tally: SlotWear<u64>,
    touched: Vec<bool>,
}

impl RangeWear {
    fn new(params: &PcmParams, cfg: &SrbsgParams) -> Self {
        Self {
            tally: SlotWear::new(params, cfg, u64::MAX),
            touched: vec![false; cfg.sub_regions as usize],
        }
    }

    fn stay(&mut self, region: u64, entry: u64, writes: u64) {
        self.tally.stay(region, entry, writes);
        self.touched[region as usize] = true;
    }

    /// The touched regions, in region order.
    fn touched(&self) -> impl Iterator<Item = usize> + '_ {
        self.touched
            .iter()
            .enumerate()
            .filter_map(|(r, &t)| t.then_some(r))
    }

    /// Zero the touched regions so the tally can take another range.
    fn clear(&mut self) {
        for r in 0..self.touched.len() {
            if std::mem::take(&mut self.touched[r]) {
                let slots = self.tally.region(r);
                self.tally.wear[slots].fill(0);
                self.tally.background[r] = 0;
                self.tally.peak[r] = 0;
            }
        }
    }
}

/// The range tallies of one trial, shared by its workers and the fold.
///
/// A merged tally comes back zeroed for a later range, so a trial
/// allocates a few tallies rather than one per range. A tally is a dense
/// `u64` per slot (32 MB at the paper's 2^22 lines), so at most `cap`
/// exist: a worker ahead of the fold waits for a returned one, which also
/// bounds how far the workers run past the crossing. The range the fold
/// merges next never waits (it may allocate past `cap`), so the wait
/// cannot deadlock.
///
/// Once the in-order fold finds the crossing, later ranges are dead
/// weight and [`TallyPool::take`] hands out none. The fold can only find
/// it after every earlier range has been merged, so a skipped range is
/// always a discarded one — the output cannot depend on the race.
struct TallyPool {
    state: Mutex<Pool>,
    returned: Condvar,
    cap: usize,
}

struct Pool {
    free: Vec<RangeWear>,
    made: usize,
    /// First round of the range the fold merges next.
    next: u64,
    /// The fold has found the crossing.
    done: bool,
}

impl TallyPool {
    fn new(cap: usize) -> Self {
        Self {
            state: Mutex::new(Pool {
                free: Vec::new(),
                made: 0,
                next: 0,
                done: false,
            }),
            returned: Condvar::new(),
            cap,
        }
    }

    /// A zeroed tally for the range starting at round `a`, or `None` once
    /// the crossing is found.
    fn take(&self, a: u64, params: &PcmParams, cfg: &SrbsgParams) -> Option<RangeWear> {
        let mut pool = self.state.lock().expect("tally pool poisoned");
        loop {
            if pool.done {
                return None;
            }
            if let Some(tally) = pool.free.pop() {
                return Some(tally);
            }
            if pool.made < self.cap || a == pool.next {
                pool.made += 1;
                break;
            }
            pool = self.returned.wait(pool).expect("tally pool poisoned");
        }
        drop(pool);
        Some(RangeWear::new(params, cfg))
    }

    /// Return a merged tally; the fold merges the range starting at round
    /// `next` next, or has found the crossing (`done`).
    fn give(&self, mut tally: RangeWear, next: u64, done: bool) {
        tally.clear();
        let mut pool = self.state.lock().expect("tally pool poisoned");
        pool.free.push(tally);
        pool.next = next;
        pool.done |= done;
        drop(pool);
        self.returned.notify_all();
    }
}

/// Simulate rounds `[a, b)` into a zeroed tally. Pure in
/// `(params, cfg, seed, a, b)` — no state from rounds before `a`.
fn simulate_range(
    params: &PcmParams,
    cfg: &SrbsgParams,
    seed: u64,
    (a, b): (u64, u64),
    range: &mut RangeWear,
) {
    let mut ia_p = prev_image(params, cfg, seed, a);
    for r in a..b {
        let d = round_draws(params, cfg, seed, r);
        let plan = round_plan(params, cfg, ia_p, &d);
        range.stay(plan.region1, plan.entry1, plan.w1);
        range.stay(plan.region2, plan.entry2, plan.w2);
        ia_p = d.ia_c;
    }
}

/// Replay rounds `[a, b)` on top of the pre-range baseline with exact
/// failure semantics (the stay kernel on the cumulative state), returning
/// the total demand writes at first failure. The caller guarantees the
/// crossing lies inside `[a, b)` (the merged no-failure state at `b`
/// crosses the endurance), so the replay always fails.
fn replay_crossing_range(
    params: &PcmParams,
    cfg: &SrbsgParams,
    seed: u64,
    (a, b): (u64, u64),
    mut base: SlotWear<u64>,
) -> u128 {
    for r in 0..base.peak.len() {
        base.peak[r] = base.wear[base.region(r)].iter().copied().max().unwrap_or(0);
    }
    let round_writes = params.lines * cfg.outer_interval;
    // Every completed round contributes exactly `round_writes` demand
    // writes (parked traffic replaces the deposits it displaces), so the
    // prefix total is a closed form.
    let mut total: u128 = a as u128 * round_writes as u128;
    let mut ia_p = prev_image(params, cfg, seed, a);
    for r in a..b {
        let d = round_draws(params, cfg, seed, r);
        let plan = round_plan(params, cfg, ia_p, &d);
        total += plan.parked_writes as u128;
        for (region, entry, writes) in [
            (plan.region1, plan.entry1, plan.w1),
            (plan.region2, plan.entry2, plan.w2),
        ] {
            let (deposited, failed) = base.stay(region, entry, writes);
            total += deposited as u128;
            if failed {
                return total;
            }
        }
        ia_p = d.ia_c;
    }
    panic!("crossing range [{a},{b}) did not fail on replay");
}

/// In-order fold state of the lifetime merge: the cumulative no-failure
/// wear image plus the first range found to cross the endurance. The
/// merges keep no per-region peaks; the replay takes them once.
struct LifetimeFold {
    base: SlotWear<u64>,
    crossing: Option<(u64, u64)>,
}

impl LifetimeFold {
    /// Merge the next range in order. Adds the range's touched regions
    /// into the cumulative base while checking each slot against its
    /// region's crossing level; on the first crossing, subtracts the tally
    /// back out (exact in `u64`) so the base is the replay baseline, and
    /// records the range.
    fn merge(&mut self, range: (u64, u64), tally: &RangeWear) {
        if self.crossing.is_some() {
            return;
        }
        let base = &mut self.base;
        let t = &tally.tally;
        let mut crossed = false;
        for r in tally.touched() {
            let slots = base.region(r);
            base.background[r] += t.background[r];
            let level = base.endurance.saturating_sub(base.background[r]);
            crossed |= add_slots(&mut base.wear[slots.clone()], &t.wear[slots], level);
        }
        if crossed {
            for r in tally.touched() {
                let slots = base.region(r);
                base.background[r] -= t.background[r];
                for (w, d) in base.wear[slots.clone()].iter_mut().zip(&t.wear[slots]) {
                    *w -= d;
                }
            }
            self.crossing = Some(range);
        }
    }
}

/// Add `tally` into `base` slot by slot; true if a sum reaches `level`.
fn add_slots(base: &mut [u64], tally: &[u64], level: u64) -> bool {
    // `below - w` borrows into bit 63 exactly when `w > below`, for wear
    // and `below` under 2^63, so an OR of the differences is the check
    // (and, unlike a `>=` per slot, it vectorizes without 64-bit compares).
    let below = level.saturating_sub(1).min(i64::MAX as u64);
    let hits = base.iter_mut().zip(tally).fold(0u64, |hits, (w, d)| {
        *w += d;
        hits | below.wrapping_sub(*w)
    });
    level == 0 || hits >> 63 == 1
}

/// The fixed, jobs-independent round-range partition width of one trial.
fn range_rounds(params: &PcmParams, cfg: &SrbsgParams) -> u64 {
    // The endurance horizon in rounds: the ideal lifetime `N·E` writes at
    // `N·ψ_out` writes per round. First failures land well inside it.
    let est_rounds = (params.endurance / cfg.outer_interval).max(1);
    (est_rounds / RANGES_PER_TRIAL as u64).max(1)
}

/// RAA lifetime of Security RBSG with one trial fanned over `jobs`
/// workers (the split-trial counterpart of
/// [`crate::srbsg_raa_lifetime`]).
///
/// Bit-identical for any `jobs >= 1`: the round-range partition depends
/// only on the parameters, ranges merge in order, and the earliest
/// endurance crossing is replayed exactly (see module docs). Samples the
/// same per-round distributions as the legacy engine from a different
/// (per-round keyed) stream, so the two agree statistically but not
/// bit-for-bit.
pub fn srbsg_raa_lifetime_split(
    params: &PcmParams,
    cfg: &SrbsgParams,
    seed: u64,
    jobs: usize,
) -> Lifetime {
    let per_range = range_rounds(params, cfg);
    let mut state = LifetimeFold {
        base: SlotWear::new(params, cfg, params.endurance),
        crossing: None,
    };
    let pool = TallyPool::new(jobs + 1);
    let mut batch_start = 0u64;
    let crossing = loop {
        let ranges: Vec<(u64, u64)> = (0..RANGES_PER_TRIAL as u64)
            .map(|i| {
                let a = batch_start + i * per_range;
                (a, a + per_range)
            })
            .collect();
        state = par_fold(
            ranges,
            jobs,
            |range| {
                let mut tally = pool.take(range.0, params, cfg)?;
                simulate_range(params, cfg, seed, range, &mut tally);
                Some((range, tally))
            },
            state,
            |mut st, item| {
                if let Some((range, tally)) = item {
                    st.merge(range, &tally);
                    pool.give(tally, range.1, st.crossing.is_some());
                }
                st
            },
        );
        if let Some(range) = state.crossing {
            break range;
        }
        batch_start += RANGES_PER_TRIAL as u64 * per_range;
        assert!(
            batch_start < (params.endurance / cfg.outer_interval).max(1) * 1000,
            "split engine found no endurance crossing within 1000 lifetimes"
        );
    };
    let total = replay_crossing_range(params, cfg, seed, crossing, state.base);
    finish(params, cfg, total)
}

/// Streaming wear profile with one write-target fanned over `jobs`
/// workers (the split-trial counterpart of
/// [`crate::srbsg_raa_wear_profile`]). See
/// [`srbsg_raa_wear_profile_split_with`] for the progress-reporting
/// variant; output is bit-identical for any `jobs >= 1`.
pub fn srbsg_raa_wear_profile_split(
    params: &PcmParams,
    cfg: &SrbsgParams,
    total_writes: u128,
    seed: u64,
    points: usize,
    max_regions: u64,
    jobs: usize,
) -> WearAccumulator {
    srbsg_raa_wear_profile_split_with(
        params,
        cfg,
        total_writes,
        seed,
        points,
        max_regions,
        jobs,
        |_, _| {},
    )
}

/// [`srbsg_raa_wear_profile_split`] with an in-order progress callback:
/// `progress(rounds_done, rounds_total)` fires on the folding thread
/// after each range merges, strictly in range order — safe to print
/// from without interleaving.
///
/// The round count is a priori: every round contributes exactly
/// `N·ψ_out` demand writes (parked or not), so a target of `T` writes
/// runs `ceil(T / (N·ψ_out))` rounds — the same rounds the legacy
/// engine's `while total < T` loop executes. Each worker folds its
/// range's deposits in closed form into a private [`WearAccumulator`],
/// O(points + max_regions) memory regardless of the line count.
#[allow(clippy::too_many_arguments)]
pub fn srbsg_raa_wear_profile_split_with(
    params: &PcmParams,
    cfg: &SrbsgParams,
    total_writes: u128,
    seed: u64,
    points: usize,
    max_regions: u64,
    jobs: usize,
    mut progress: impl FnMut(u64, u64),
) -> WearAccumulator {
    let slots = params.lines / cfg.sub_regions + 1;
    let lap = slots * cfg.inner_interval;
    let lines = cfg.sub_regions * slots;
    let round_writes = (params.lines * cfg.outer_interval) as u128;
    let rounds = total_writes.div_ceil(round_writes) as u64;
    let acc = WearAccumulator::new(lines, points, max_regions);
    if rounds == 0 {
        return acc;
    }
    // Fixed partition (independent of `jobs`): up to RANGES_PER_TRIAL
    // equal ranges over the known round count.
    let n_ranges = rounds.min(RANGES_PER_TRIAL as u64);
    let ranges: Vec<(u64, u64)> = (0..n_ranges)
        .map(|i| (rounds * i / n_ranges, rounds * (i + 1) / n_ranges))
        .collect();
    par_fold(
        ranges,
        jobs,
        |(a, b)| {
            let mut sink = StreamSink {
                acc: WearAccumulator::new(lines, points, max_regions),
                slots,
                lap,
            };
            let mut ia_p = prev_image(params, cfg, seed, a);
            for r in a..b {
                let d = round_draws(params, cfg, seed, r);
                let plan = round_plan(params, cfg, ia_p, &d);
                sink.stay(plan.region1, plan.entry1, plan.w1);
                sink.stay(plan.region2, plan.entry2, plan.w2);
                ia_p = d.ia_c;
            }
            (b, sink.acc)
        },
        acc,
        |mut acc, (done, part)| {
            acc.merge(&part);
            progress(done, rounds);
            acc
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{srbsg_raa_lifetime, srbsg_raa_wear_profile};

    /// `add_slots` ≡ the plain `>=` check its borrow trick stands for, at
    /// `level` 0, low levels, and levels and sums at the 2^63 borrow edge,
    /// over lengths 0..=300 at several offsets.
    #[test]
    fn add_slots_matches_the_plain_check() {
        let edge = 1u64 << 63;
        let mut st = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st % bound
        };
        // (base floor, levels): low wear, and wear whose sums end less
        // than 2 000 below 2^63.
        let cases = [
            (0, vec![0, 1, 700, 1_400, 5_000]),
            (
                edge - 2_000,
                vec![
                    0,
                    edge - 1_500,
                    edge - 1_100,
                    edge - 1,
                    edge,
                    edge + 1,
                    u64::MAX,
                ],
            ),
        ];
        for (floor, levels) in cases {
            let base: Vec<u64> = (0..300 + 8).map(|_| floor + next(1_000)).collect();
            let tally: Vec<u64> = (0..300 + 8).map(|_| next(1_000)).collect();
            for &level in &levels {
                for offset in [0, 1, 3, 7] {
                    for len in 0..=300 {
                        let slots = offset..offset + len;
                        let mut want = base.clone();
                        let mut crossed = level == 0;
                        for (w, d) in want[slots.clone()].iter_mut().zip(&tally[slots.clone()]) {
                            *w += d;
                            crossed |= *w >= level;
                        }
                        let mut got = base.clone();
                        let hit = add_slots(&mut got[slots.clone()], &tally[slots.clone()], level);
                        let case = format!("level {level} offset {offset} len {len}");
                        assert_eq!(hit, crossed, "{case}");
                        assert_eq!(got, want, "{case}");
                    }
                }
            }
        }
    }

    fn small_cfg() -> SrbsgParams {
        SrbsgParams {
            sub_regions: 8,
            inner_interval: 4,
            outer_interval: 8,
            stages: 5,
        }
    }

    /// Serial reference for the split lifetime: the same per-round
    /// streams executed from round 0 with the per-quantum oracle and no
    /// range partition at all.
    fn split_lifetime_serial(params: &PcmParams, cfg: &SrbsgParams, seed: u64) -> Lifetime {
        let mut state = SlotWear::<u64>::new(params, cfg, params.endurance);
        let mut total: u128 = 0;
        let mut ia_p = prev_image(params, cfg, seed, 0);
        let mut r = 0u64;
        loop {
            let d = round_draws(params, cfg, seed, r);
            let plan = round_plan(params, cfg, ia_p, &d);
            total += plan.parked_writes as u128;
            for (region, entry, writes) in [
                (plan.region1, plan.entry1, plan.w1),
                (plan.region2, plan.entry2, plan.w2),
            ] {
                let (dep, failed) = state.stay_per_quantum(region, entry, writes);
                total += dep as u128;
                if failed {
                    return finish(params, cfg, total);
                }
            }
            ia_p = d.ia_c;
            r += 1;
        }
    }

    #[test]
    fn closed_form_range_stay_matches_exact_quanta() {
        let params = PcmParams::small(8, u64::MAX);
        let cfg = small_cfg();
        let slots = params.lines / cfg.sub_regions + 1;
        let lap = slots * cfg.inner_interval;
        let mut range = RangeWear::new(&params, &cfg);
        let mut oracle = SlotWear::<u64>::new(&params, &cfg, u64::MAX);
        for &(region, entry, writes) in &[
            (0u64, 0u64, 0u64),
            (0, 3, lap / 2 + 1),
            (1, slots - 1, 3 * lap),
            (2, slots - 2, slots * lap + 7),
            (3, 5, 3 * slots * lap + 2 * lap + 11),
        ] {
            range.stay(region, entry, writes);
            assert_eq!(
                oracle.stay_per_quantum(region, entry, writes),
                (writes, false)
            );
        }
        // A tally never fails, so it keeps no peaks.
        assert_eq!(range.tally.wear, oracle.wear);
        assert_eq!(range.tally.background, oracle.background);
        assert_eq!(range.touched().collect::<Vec<_>>(), [0, 1, 2, 3]);
        range.clear();
        assert_eq!(range.tally, SlotWear::new(&params, &cfg, u64::MAX));
        assert_eq!(range.touched().count(), 0);
    }

    #[test]
    fn split_lifetime_is_identical_for_any_jobs_and_matches_serial() {
        let params = PcmParams::small(10, 60_000);
        let cfg = small_cfg();
        for seed in [1u64, 7, 42] {
            let serial = split_lifetime_serial(&params, &cfg, seed);
            for jobs in [1usize, 2, 3, 8] {
                let split = srbsg_raa_lifetime_split(&params, &cfg, seed, jobs);
                assert_eq!(split, serial, "seed={seed} jobs={jobs}");
            }
        }
    }

    /// Lifetimes recorded from the engine before the run-at-a-time stay
    /// kernel and the 24-range partition: the result must not depend on
    /// the kernel, the range partition or the worker count.
    #[test]
    fn split_lifetimes_match_recorded_values() {
        let small = small_cfg();
        let bench = SrbsgParams {
            sub_regions: 64,
            inner_interval: 16,
            outer_interval: 32,
            stages: 7,
        };
        let cases = [
            (PcmParams::small(8, 10), small, 3, 132),
            (PcmParams::small(10, 60_000), small, 1, 33_107_484),
            (PcmParams::small(10, 60_000), small, 42, 34_330_810),
            (
                PcmParams::small(12, 100_000),
                SrbsgParams {
                    sub_regions: 16,
                    inner_interval: 8,
                    outer_interval: 16,
                    stages: 3,
                },
                5,
                136_595_528,
            ),
            (PcmParams::small(14, 500_000), bench, 0, 4_785_180_688),
            (PcmParams::small(14, 500_000), bench, 2, 4_229_787_692),
            (
                PcmParams::small(16, 200_000),
                SrbsgParams::paper_default(),
                4,
                1_299_910_879,
            ),
            (
                PcmParams::small(13, 300_000),
                SrbsgParams {
                    sub_regions: 256,
                    inner_interval: 8,
                    outer_interval: 64,
                    stages: 7,
                },
                9,
                676_598_424,
            ),
        ];
        for (params, cfg, seed, writes) in cases {
            for jobs in [1usize, 2] {
                let got = srbsg_raa_lifetime_split(&params, &cfg, seed, jobs).writes;
                assert_eq!(
                    got, writes,
                    "{cfg:?} lines={} seed={seed} jobs={jobs}",
                    params.lines
                );
            }
        }
    }

    #[test]
    fn split_lifetime_handles_immediate_crossing() {
        // Endurance so small the very first round fails: the crossing is
        // in range 0 and the prefix total is zero rounds.
        let params = PcmParams::small(8, 10);
        let cfg = small_cfg();
        let serial = split_lifetime_serial(&params, &cfg, 3);
        for jobs in [1usize, 4] {
            assert_eq!(srbsg_raa_lifetime_split(&params, &cfg, 3, jobs), serial);
        }
    }

    #[test]
    fn split_profile_is_identical_for_any_jobs_and_matches_serial() {
        let params = PcmParams::small(10, u64::MAX >> 1);
        let cfg = small_cfg();
        let total = 1u128 << 22;
        let (points, max_regions) = (20, 256);
        // Serial reference: one sink over all rounds, no partition.
        let slots = params.lines / cfg.sub_regions + 1;
        let round_writes = (params.lines * cfg.outer_interval) as u128;
        let rounds = total.div_ceil(round_writes) as u64;
        let mut sink = StreamSink {
            acc: WearAccumulator::new(cfg.sub_regions * slots, points, max_regions),
            slots,
            lap: slots * cfg.inner_interval,
        };
        let mut ia_p = prev_image(&params, &cfg, 9, 0);
        for r in 0..rounds {
            let d = round_draws(&params, &cfg, 9, r);
            let plan = round_plan(&params, &cfg, ia_p, &d);
            sink.stay(plan.region1, plan.entry1, plan.w1);
            sink.stay(plan.region2, plan.entry2, plan.w2);
            ia_p = d.ia_c;
        }
        let serial = sink.acc;
        for jobs in [1usize, 2, 4, 8] {
            let split =
                srbsg_raa_wear_profile_split(&params, &cfg, total, 9, points, max_regions, jobs);
            assert_eq!(split, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn split_profile_progress_is_ordered_and_complete() {
        let params = PcmParams::small(10, u64::MAX >> 1);
        let cfg = small_cfg();
        let mut seen = Vec::new();
        let acc = srbsg_raa_wear_profile_split_with(
            &params,
            &cfg,
            1u128 << 22,
            9,
            20,
            256,
            4,
            |done, total| seen.push((done, total)),
        );
        assert!(!seen.is_empty());
        let total = seen[0].1;
        assert!(
            seen.windows(2).all(|w| w[0].0 < w[1].0),
            "ordered: {seen:?}"
        );
        assert_eq!(seen.last().unwrap().0, total, "ends at rounds_total");
        assert!(acc.total() > 0);
    }

    #[test]
    fn zero_target_profile_is_empty() {
        let params = PcmParams::small(8, u64::MAX);
        let cfg = small_cfg();
        let acc = srbsg_raa_wear_profile_split(&params, &cfg, 0, 1, 10, 64, 4);
        assert_eq!(acc.total(), 0);
    }

    #[test]
    fn split_and_legacy_lifetimes_agree_statistically_quick() {
        // Same round model, different stream: means over a handful of
        // seeds must land in the same ballpark.
        let params = PcmParams::small(12, 100_000);
        let cfg = small_cfg();
        let n = 8u64;
        let legacy: f64 = (0..n)
            .map(|s| srbsg_raa_lifetime(&params, &cfg, s).writes as f64)
            .sum::<f64>()
            / n as f64;
        let split: f64 = (0..n)
            .map(|s| srbsg_raa_lifetime_split(&params, &cfg, s, 2).writes as f64)
            .sum::<f64>()
            / n as f64;
        let ratio = split / legacy;
        assert!(
            (0.5..2.0).contains(&ratio),
            "split {split} vs legacy {legacy} (ratio {ratio})"
        );
    }

    #[test]
    fn split_profile_curve_tracks_legacy_curve() {
        let params = PcmParams::small(12, u64::MAX >> 1);
        let cfg = small_cfg();
        let total = 1u128 << 26;
        let legacy = srbsg_raa_wear_profile(&params, &cfg, total, 5, 20, 256);
        let split = srbsg_raa_wear_profile_split(&params, &cfg, total, 5, 20, 256, 2);
        // Parked rounds (a per-stream draw) displace deposited wear, so
        // totals agree only statistically across the two streams.
        let (lt, st) = (legacy.total() as f64, split.total() as f64);
        assert!(
            ((lt - st) / lt).abs() < 0.05,
            "deposited totals diverge: legacy {lt} vs split {st}"
        );
        let (lc, sc) = (legacy.curve(), split.curve());
        let max_dev = lc
            .iter()
            .zip(&sc)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_dev < 0.1, "curves diverge: {max_dev}");
    }

    /// Acceptance: split-vs-legacy lifetime distributions agree with
    /// overlapping 95% confidence intervals across >= 64 seeds.
    #[test]
    fn split_and_legacy_cis_overlap_across_64_seeds() {
        let params = PcmParams::small(14, 500_000);
        let cfg = SrbsgParams {
            sub_regions: 64,
            inner_interval: 16,
            outer_interval: 32,
            stages: 7,
        };
        let n = 64u64;
        let ci = |xs: &[f64]| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
            let half = 1.96 * (var / xs.len() as f64).sqrt();
            (mean - half, mean + half)
        };
        let legacy: Vec<f64> = (0..n)
            .map(|s| srbsg_raa_lifetime(&params, &cfg, s).writes as f64)
            .collect();
        let split: Vec<f64> = (0..n)
            .map(|s| srbsg_raa_lifetime_split(&params, &cfg, s, 2).writes as f64)
            .collect();
        let (ll, lh) = ci(&legacy);
        let (sl, sh) = ci(&split);
        assert!(
            ll <= sh && sl <= lh,
            "CIs disjoint: legacy [{ll}, {lh}] vs split [{sl}, {sh}]"
        );
    }
}
