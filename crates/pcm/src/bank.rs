//! The PCM bank: per-line data, wear, endurance, and failure tracking,
//! with optional fault injection and graceful degradation (see
//! [`crate::FaultConfig`]).

use crate::faults::FaultState;
use crate::stats::FaultStats;
use crate::{DegradationReport, FaultConfig, LineAddr, LineData, Ns, TimingModel};

/// Details of the first line to exceed its write endurance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureInfo {
    /// Physical slot of the worn-out line.
    pub slot: LineAddr,
    /// Total line writes the bank had absorbed when the failure occurred.
    pub at_write: u128,
}

/// A PCM memory bank of `slots` lines.
///
/// Wear and data are stored as parallel arrays (structure-of-arrays) so a
/// paper-scale bank (2^22 + spares lines) costs ~40 MB. All writes go
/// through [`PcmBank::write_line`] / bulk variants so wear accounting and
/// failure detection are uniform for demand traffic and remap traffic alike.
#[derive(Debug, Clone)]
pub struct PcmBank {
    wear: Vec<u64>,
    data: Vec<LineData>,
    /// Slots addressable by the wear-leveling scheme; `wear`/`data` may be
    /// longer when the fault model provisions spare lines behind them.
    base_slots: u64,
    endurance: u64,
    timing: TimingModel,
    total_writes: u128,
    failure: Option<FailureInfo>,
    /// Slot backed by controller SRAM instead of PCM: unlimited endurance,
    /// SRAM access latency. Used for the Security RBSG spare (see the
    /// design note in `srbsg-core` about the cubing round function's cycle
    /// structure).
    sram_slot: Option<LineAddr>,
    /// Fault-injection machinery; `None` for the ideal (seed) device.
    faults: Option<FaultState>,
    /// Slots touched since the last [`PcmBank::take_dirty`]; `None` unless
    /// [`PcmBank::track_dirty`] turned tracking on.
    dirty: Option<Box<DirtySlots>>,
}

/// A set of slots: a bitset for O(1) deduplication plus the list of set
/// bits, so draining costs O(touched) rather than O(slots).
#[derive(Debug, Clone)]
struct DirtySlots {
    bits: Vec<u64>,
    list: Vec<LineAddr>,
}

impl DirtySlots {
    fn new(slots: u64) -> Self {
        Self {
            bits: vec![0; slots.div_ceil(64) as usize],
            list: Vec::new(),
        }
    }

    #[inline]
    fn mark(&mut self, slot: LineAddr) {
        let bit = 1u64 << (slot % 64);
        if let Some(word) = self.bits.get_mut((slot / 64) as usize) {
            if *word & bit == 0 {
                *word |= bit;
                self.list.push(slot);
            }
        }
    }

    fn take(&mut self) -> Vec<LineAddr> {
        for &slot in &self.list {
            self.bits[(slot / 64) as usize] &= !(1u64 << (slot % 64));
        }
        std::mem::take(&mut self.list)
    }
}

impl PcmBank {
    /// Create a bank of `slots` lines with the given per-line write
    /// `endurance`, all initialized to ALL-0 data and zero wear.
    pub fn new(slots: u64, endurance: u64, timing: TimingModel) -> Self {
        assert!(slots > 0, "bank must have at least one line");
        assert!(endurance > 0, "endurance must be positive");
        Self {
            wear: vec![0; slots as usize],
            data: vec![LineData::Zeros; slots as usize],
            base_slots: slots,
            endurance,
            timing,
            total_writes: 0,
            failure: None,
            sram_slot: None,
            faults: None,
            dirty: None,
        }
    }

    /// Create a fault-injected bank: `slots` addressable lines plus
    /// `cfg.spare_lines` hidden spares, with per-line endurance variation,
    /// transient write failures, verify-retries, ECP budgets, and line
    /// retirement as configured. With an inert `cfg` (all knobs zero) the
    /// bank behaves byte-identically to [`PcmBank::new`].
    pub fn with_faults(slots: u64, endurance: u64, timing: TimingModel, cfg: FaultConfig) -> Self {
        let cfg = cfg.validated();
        let mut bank = Self::new(slots, endurance, timing);
        let total = (slots + cfg.spare_lines) as usize;
        bank.wear = vec![0; total];
        bank.data = vec![LineData::Zeros; total];
        bank.faults = Some(FaultState::new(cfg));
        bank
    }

    /// Provision `extra` additional spare lines (field replenishment of the
    /// spare pool). No-op semantics on an ideal bank are not offered: the
    /// bank must have been built with [`PcmBank::with_faults`]. New spares
    /// extend the hidden region behind the previously provisioned ones, so
    /// existing retirement redirects keep pointing at their slots.
    ///
    /// Replenishment relieves *spare pressure* (see
    /// [`crate::DegradationReport::spare_pressure`]) but does not resurrect
    /// a bank that already died of capacity exhaustion.
    pub fn provision_spares(&mut self, extra: u64) {
        let f = self
            .faults
            .as_mut()
            .expect("provision_spares requires a fault-injected bank");
        f.add_spares(extra);
        let total = self.wear.len() + extra as usize;
        self.wear.resize(total, 0);
        self.data.resize(total, LineData::Zeros);
    }

    /// The fault configuration, if this bank injects faults.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.faults.as_ref().map(|f| f.cfg())
    }

    /// Fault and degradation counters (all zero for an ideal bank).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// How far the device has degraded. For an ideal bank the report is
    /// empty except that a worn-out line counts as capacity exhaustion —
    /// the seed simulator's binary `failed` flag, graded.
    pub fn degradation_report(&self) -> DegradationReport {
        match &self.faults {
            None => DegradationReport {
                capacity_exhaustion: self.failure,
                ..DegradationReport::default()
            },
            Some(f) => DegradationReport {
                first_correctable: f.first_correctable,
                first_retirement: f.first_retirement,
                capacity_exhaustion: self.failure,
                stats: f.stats,
            },
        }
    }

    /// The live physical slot currently backing `slot`, following any
    /// retirement redirects installed by the fault model.
    #[inline]
    pub fn resolve_slot(&self, slot: LineAddr) -> LineAddr {
        match &self.faults {
            None => slot,
            Some(f) => f.resolve(slot),
        }
    }

    /// Back `slot` with controller SRAM: its writes cost SRAM latency and
    /// never wear out. At most one slot per bank.
    pub fn mark_sram(&mut self, slot: LineAddr) {
        assert!(slot < self.slots());
        self.sram_slot = Some(slot);
    }

    /// The SRAM-backed slot, if any.
    pub fn sram_slot(&self) -> Option<LineAddr> {
        self.sram_slot
    }

    #[inline]
    fn is_sram(&self, slot: LineAddr) -> bool {
        self.sram_slot == Some(slot)
    }

    /// Start recording which addressable slots [`PcmBank::write_line`],
    /// [`PcmBank::write_line_bulk`] and [`PcmBank::add_wear`] touch, so a
    /// persistence layer can save only those. Forgets anything recorded
    /// so far. Off by default: an untracked bank pays one untaken branch
    /// per write.
    pub fn track_dirty(&mut self) {
        self.dirty = Some(Box::new(DirtySlots::new(self.base_slots)));
    }

    /// The slots touched since tracking started or since the previous
    /// call, in first-touch order, each once; recording continues with an
    /// empty set. `None` when tracking is off.
    pub fn take_dirty(&mut self) -> Option<Vec<LineAddr>> {
        self.dirty.as_mut().map(|d| d.take())
    }

    #[inline]
    fn mark_dirty(&mut self, slot: LineAddr) {
        if let Some(d) = &mut self.dirty {
            d.mark(slot);
        }
    }

    /// Number of physical line slots addressable by the wear-leveling
    /// scheme (spare lines provisioned by the fault model are hidden).
    #[inline]
    pub fn slots(&self) -> u64 {
        self.base_slots
    }

    /// Number of allocated slots including any fault-model spares.
    #[inline]
    pub fn total_slots(&self) -> u64 {
        self.wear.len() as u64
    }

    /// Per-line write endurance.
    #[inline]
    pub fn endurance(&self) -> u64 {
        self.endurance
    }

    /// The timing model in force.
    #[inline]
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Total line writes absorbed (demand + remap).
    #[inline]
    pub fn total_writes(&self) -> u128 {
        self.total_writes
    }

    /// The first endurance violation, if any.
    #[inline]
    pub fn failure(&self) -> Option<FailureInfo> {
        self.failure
    }

    /// Whether any line has worn out.
    #[inline]
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }

    /// Read the data stored at `slot`.
    #[inline]
    pub fn read_line(&self, slot: LineAddr) -> LineData {
        self.data[self.resolve_slot(slot) as usize]
    }

    /// Current wear (write count) of `slot`.
    #[inline]
    pub fn wear_of(&self, slot: LineAddr) -> u64 {
        self.wear[slot as usize]
    }

    /// All per-slot wear counters.
    #[inline]
    pub fn wear(&self) -> &[u64] {
        &self.wear
    }

    #[inline]
    fn record_wear(&mut self, slot: LineAddr, amount: u64) {
        let w = &mut self.wear[slot as usize];
        *w += amount;
        self.total_writes += amount as u128;
        if *w >= self.endurance && self.failure.is_none() {
            // For bulk updates, attribute the failure to the exact write at
            // which the line hit its endurance, not the end of the batch.
            let overshoot = (*w - self.endurance) as u128;
            self.failure = Some(FailureInfo {
                slot,
                at_write: self.total_writes - overshoot,
            });
        }
    }

    /// Write `new` to `slot`, returning the write latency. On a
    /// fault-injected bank the latency includes any program-and-verify
    /// retry pulses the write needed, and the write lands on the live
    /// replacement slot if `slot` has been retired.
    ///
    /// Under data-comparison writes, a write of identical data costs only
    /// the comparison read and adds no wear.
    pub fn write_line(&mut self, slot: LineAddr, new: LineData) -> Ns {
        self.mark_dirty(slot);
        if self.is_sram(slot) {
            self.data[slot as usize] = new;
            return self.timing.sram_ns as Ns;
        }
        let slot = self.resolve_slot(slot);
        let old = self.data[slot as usize];
        let latency = self.timing.write_latency(old, new);
        let unchanged = self.timing.data_comparison_write && old == new;
        self.data[slot as usize] = new;
        if unchanged {
            return latency;
        }
        if self.faults.is_some() {
            latency + self.absorb_wear_faulty(slot, 1, new)
        } else {
            self.record_wear(slot, 1);
            latency
        }
    }

    /// Read `slot`, returning `(data, latency)`.
    #[inline]
    pub fn read_line_timed(&self, slot: LineAddr) -> (LineData, Ns) {
        let lat = if self.is_sram(slot) {
            self.timing.sram_ns as Ns
        } else {
            self.timing.read_latency()
        };
        (self.data[self.resolve_slot(slot) as usize], lat)
    }

    /// Remap movement: copy the data at `src` into `dst` (read + write).
    /// The source keeps its (now stale) contents, as in Start-Gap.
    pub fn move_line(&mut self, src: LineAddr, dst: LineAddr) -> Ns {
        let (data, read_lat) = self.read_line_timed(src);
        read_lat + self.write_line(dst, data)
    }

    /// Remap swap: exchange the contents of `a` and `b` (two reads, two
    /// writes), as in Security Refresh.
    pub fn swap_lines(&mut self, a: LineAddr, b: LineAddr) -> Ns {
        let (da, r1) = self.read_line_timed(a);
        let (db, r2) = self.read_line_timed(b);
        r1 + r2 + self.write_line(a, db) + self.write_line(b, da)
    }

    /// Fast-forward API: absorb `count` consecutive writes of `new` to
    /// `slot` as one bulk update, returning the total latency. Semantically
    /// identical to calling [`PcmBank::write_line`] `count` times with the
    /// same data — including every fault event the loop would hit, because
    /// the fault schedule is event-driven in wear, not in wall time.
    pub fn write_line_bulk(&mut self, slot: LineAddr, new: LineData, count: u64) -> Ns {
        if count == 0 {
            return 0;
        }
        self.mark_dirty(slot);
        if self.is_sram(slot) {
            self.data[slot as usize] = new;
            return self.timing.sram_ns as Ns * count as Ns;
        }
        let slot = self.resolve_slot(slot);
        let old = self.data[slot as usize];
        // First write transitions old→new, the rest rewrite new over new.
        let first = self.timing.write_latency(old, new);
        let rest = self.timing.write_latency(new, new) * (count - 1) as Ns;
        self.data[slot as usize] = new;
        let mut extra = 0;
        if self.faults.is_some() {
            let wear_count = if self.timing.data_comparison_write {
                u64::from(old != new)
            } else {
                count
            };
            extra = self.absorb_wear_faulty(slot, wear_count, new);
        } else if self.timing.data_comparison_write {
            // Only the first write (if it changed anything) wears the line.
            if old != new {
                self.record_wear(slot, 1);
            }
        } else {
            self.record_wear(slot, count);
        }
        first + rest + extra
    }

    /// Fast-forward API: add raw wear to a slot without touching data or
    /// time. Used by round-level lifetime engines that account latency
    /// analytically. On a fault-injected bank this runs the full event
    /// machinery (retry wear, ECP, retirement); retry latency is not
    /// accounted since the caller owns the clock.
    pub fn add_wear(&mut self, slot: LineAddr, amount: u64) {
        self.mark_dirty(slot);
        if self.faults.is_some() {
            let slot = self.resolve_slot(slot);
            let data = self.data[slot as usize];
            self.absorb_wear_faulty(slot, amount, data);
        } else {
            self.record_wear(slot, amount);
        }
    }

    /// Upper bound on consecutive writes to `slot` that are guaranteed not
    /// to hit any fault event or endurance crossing, for fast-forward
    /// batching. On an ideal bank this is the writes left until the slot
    /// wears out (at least 1 — the crossing write itself ends the batch);
    /// on a fault-injected bank it may be 0, meaning the very next write
    /// must take the exact path.
    pub fn bulk_safe_writes(&mut self, slot: LineAddr) -> u64 {
        let base_endurance = self.endurance;
        match &mut self.faults {
            None => (self.endurance - self.wear[slot as usize]).max(1),
            Some(f) => {
                if f.exhausted {
                    return u64::MAX;
                }
                let live = f.resolve(slot);
                if self.sram_slot == Some(live) {
                    return u64::MAX;
                }
                let wear = self.wear[live as usize];
                let (next_transient, next_ecp) = f.line_points(live, base_endurance, wear);
                next_transient
                    .min(next_ecp)
                    .saturating_sub(wear)
                    .saturating_sub(1)
            }
        }
    }

    /// Run `count` wear-adding writes of `new` through the fault machinery
    /// on the (already resolved) `slot`, returning the extra latency beyond
    /// the base program pulses: verify-retry work and retirement copies.
    ///
    /// Wear accumulates in O(1) chunks between scheduled event points, so
    /// this is as fast as `record_wear` on quiet stretches while remaining
    /// write-for-write equivalent to the exact path.
    fn absorb_wear_faulty(&mut self, mut slot: LineAddr, mut remaining: u64, new: LineData) -> Ns {
        let mut extra: Ns = 0;
        let base_endurance = self.endurance;
        let base_slots = self.base_slots;
        let retry_cost = self.timing.read_latency() + self.timing.write_latency(new, new);
        while remaining > 0 {
            let f = self.faults.as_mut().expect("absorb requires fault state");
            if f.exhausted {
                // Past capacity exhaustion: plain accounting, no events
                // (mirrors the ideal bank's behavior after failure).
                self.wear[slot as usize] += remaining;
                self.total_writes += remaining as u128;
                break;
            }
            let wear = self.wear[slot as usize];
            let (next_transient, next_ecp) = f.line_points(slot, base_endurance, wear);
            let point = next_transient.min(next_ecp);
            if point > wear {
                // Quiet chunk up to (and including) the event-carrying write.
                let chunk = remaining.min(point - wear);
                self.wear[slot as usize] += chunk;
                self.total_writes += chunk as u128;
                remaining -= chunk;
                if self.wear[slot as usize] < point {
                    break; // ran out of writes before the event
                }
            }
            // An event point is due (reached by this batch, or left pending
            // by a previous batch's retry-wear overshoot).
            let wear = self.wear[slot as usize];
            let at_write = self.total_writes;
            let f = self.faults.as_mut().expect("absorb requires fault state");
            let (next_transient, next_ecp) = f.line_points(slot, base_endurance, wear);
            let dead = if next_ecp <= wear {
                // Wear-out degradation: consume an ECP entry or die.
                !f.consume_ecp(slot, base_endurance, wear, at_write, true)
            } else if next_transient <= wear {
                let outcome = f.on_transient(slot, base_endurance, wear, at_write);
                extra += retry_cost * outcome.attempts as Ns;
                self.wear[slot as usize] += outcome.attempts as u64;
                self.total_writes += outcome.attempts as u128;
                let wear_now = self.wear[slot as usize];
                let f = self.faults.as_mut().expect("absorb requires fault state");
                f.reschedule_transient(slot, base_endurance, wear_now);
                outcome.stuck
                    && !f.consume_ecp(slot, base_endurance, wear_now, self.total_writes, false)
            } else {
                unreachable!("loop only reaches here with a due event point");
            };
            if dead {
                let f = self.faults.as_mut().expect("absorb requires fault state");
                match f.retire(slot, base_slots, self.total_writes) {
                    Some(spare) => {
                        // Salvage copy: read the dying line, program the
                        // spare (one write of wear, no event processing on
                        // the copy pulse itself).
                        let moved = self.data[slot as usize];
                        extra += self.timing.read_latency()
                            + self.timing.write_latency(self.data[spare as usize], moved);
                        self.data[spare as usize] = moved;
                        self.wear[spare as usize] += 1;
                        self.total_writes += 1;
                        slot = spare;
                    }
                    None => {
                        // Spare pool exhausted: the bank is failed. Remaining
                        // writes are absorbed by the dead line, as on the
                        // ideal bank after its first failure.
                        if self.failure.is_none() {
                            self.failure = Some(FailureInfo {
                                slot,
                                at_write: self.total_writes,
                            });
                        }
                    }
                }
            }
        }
        extra
    }

    /// Highest per-line wear in the bank.
    pub fn max_wear(&self) -> u64 {
        self.wear.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank(slots: u64, endurance: u64) -> PcmBank {
        PcmBank::new(slots, endurance, TimingModel::PAPER)
    }

    #[test]
    fn write_latency_asymmetry() {
        let mut b = bank(4, 100);
        assert_eq!(b.write_line(0, LineData::Zeros), 125);
        assert_eq!(b.write_line(0, LineData::Ones), 1000);
        assert_eq!(b.write_line(0, LineData::Mixed(7)), 1000);
    }

    #[test]
    fn wear_accumulates_and_fails() {
        let mut b = bank(2, 3);
        b.write_line(1, LineData::Ones);
        b.write_line(1, LineData::Ones);
        assert!(!b.failed());
        b.write_line(1, LineData::Ones);
        assert!(b.failed());
        let f = b.failure().unwrap();
        assert_eq!(f.slot, 1);
        assert_eq!(f.at_write, 3);
    }

    #[test]
    fn bulk_write_matches_sequential() {
        let mut a = bank(2, 1_000);
        let mut b = bank(2, 1_000);
        let mut lat_a = 0;
        for _ in 0..17 {
            lat_a += a.write_line(0, LineData::Ones);
        }
        let lat_b = b.write_line_bulk(0, LineData::Ones, 17);
        assert_eq!(lat_a, lat_b);
        assert_eq!(a.wear_of(0), b.wear_of(0));
        assert_eq!(a.read_line(0), b.read_line(0));
        assert_eq!(a.total_writes(), b.total_writes());
    }

    #[test]
    fn bulk_write_first_transition_latency() {
        let mut b = bank(1, 100);
        b.write_line(0, LineData::Ones);
        // ALL-1 → ALL-0 then two ALL-0 rewrites: 125 * 3.
        assert_eq!(b.write_line_bulk(0, LineData::Zeros, 3), 375);
    }

    #[test]
    fn move_and_swap_latency_signatures() {
        let mut b = bank(4, 100);
        b.write_line(0, LineData::Ones);
        b.write_line(1, LineData::Zeros);
        // Moving ALL-1 data: read(125) + SET(1000).
        assert_eq!(b.move_line(0, 2), 1125);
        assert_eq!(b.read_line(2), LineData::Ones);
        // Moving ALL-0 data: read(125) + RESET(125).
        assert_eq!(b.move_line(1, 3), 250);
        // Swap ALL-1 with ALL-0: 2 reads + SET + RESET = 1375.
        assert_eq!(b.swap_lines(2, 3), 1375);
        assert_eq!(b.read_line(2), LineData::Zeros);
        assert_eq!(b.read_line(3), LineData::Ones);
    }

    #[test]
    fn dcw_identical_write_adds_no_wear() {
        let timing = TimingModel {
            data_comparison_write: true,
            ..TimingModel::PAPER
        };
        let mut b = PcmBank::new(1, 10, timing);
        b.write_line(0, LineData::Zeros);
        assert_eq!(b.wear_of(0), 0);
        b.write_line(0, LineData::Ones);
        assert_eq!(b.wear_of(0), 1);
        let lat = b.write_line_bulk(0, LineData::Ones, 5);
        assert_eq!(b.wear_of(0), 1);
        assert_eq!(lat, 125 * 5);
    }

    #[test]
    fn add_wear_triggers_failure() {
        let mut b = bank(3, 50);
        b.add_wear(2, 49);
        assert!(!b.failed());
        b.add_wear(2, 1);
        assert_eq!(b.failure().unwrap().slot, 2);
    }

    #[test]
    fn inert_fault_model_is_byte_identical_to_ideal_bank() {
        let mut ideal = bank(4, 7);
        let mut faulty = PcmBank::with_faults(4, 7, TimingModel::PAPER, FaultConfig::default());
        let pattern = [
            LineData::Ones,
            LineData::Zeros,
            LineData::Mixed(3),
            LineData::Ones,
        ];
        for step in 0..30u64 {
            let slot = step % 4;
            let data = pattern[(step % 4) as usize];
            assert_eq!(
                ideal.write_line(slot, data),
                faulty.write_line(slot, data),
                "step {step}"
            );
            assert_eq!(
                ideal.write_line_bulk(slot, data, step % 5),
                faulty.write_line_bulk(slot, data, step % 5)
            );
        }
        assert_eq!(ideal.wear(), faulty.wear());
        assert_eq!(ideal.total_writes(), faulty.total_writes());
        assert_eq!(ideal.failure(), faulty.failure());
        assert_eq!(faulty.fault_stats(), FaultStats::default());
    }

    #[test]
    fn spare_pool_retires_dead_lines_then_exhausts() {
        let cfg = FaultConfig {
            spare_lines: 2,
            ..FaultConfig::default()
        };
        let mut b = PcmBank::with_faults(2, 5, TimingModel::PAPER, cfg);
        assert_eq!(b.slots(), 2);
        assert_eq!(b.total_slots(), 4);
        b.write_line(0, LineData::Mixed(9));
        // Wear the line to death: its 5th write crosses endurance, the data
        // moves to spare slot 2 and the bank stays alive.
        for _ in 0..4 {
            b.write_line(0, LineData::Mixed(9));
        }
        assert!(!b.failed());
        assert_eq!(b.resolve_slot(0), 2);
        assert_eq!(
            b.read_line(0),
            LineData::Mixed(9),
            "data survives retirement"
        );
        let report = b.degradation_report();
        assert_eq!(report.stats.lines_retired, 1);
        assert_eq!(report.stats.spares_used, 1);
        assert_eq!(report.first_retirement.unwrap().slot, 0);
        assert!(report.capacity_exhaustion.is_none());
        // Kill the spare (starts at wear 1 from the salvage copy), then the
        // second spare: the pool empties and the bank fails.
        for _ in 0..(4 + 5) {
            b.write_line(0, LineData::Mixed(9));
        }
        assert!(b.failed());
        let report = b.degradation_report();
        assert_eq!(report.stats.lines_retired, 2);
        assert_eq!(report.stats.spares_used, 2);
        assert_eq!(report.capacity_exhaustion.unwrap().slot, 3);
        // Retirement strictly outlives the ideal device: first line death
        // would have failed the seed bank at wear 5.
        assert!(report.capacity_exhaustion.unwrap().at_write > 5);
    }

    #[test]
    fn ecp_entries_extend_line_life() {
        let cfg = FaultConfig {
            ecp_entries: 2,
            ecp_wear_step: 3,
            ..FaultConfig::default()
        };
        let mut b = PcmBank::with_faults(1, 10, TimingModel::PAPER, cfg);
        // Death moves from wear 10 to 10 + 2*3 = 16.
        for i in 0..15 {
            b.write_line(0, LineData::Ones);
            assert!(!b.failed(), "alive after write {}", i + 1);
        }
        b.write_line(0, LineData::Ones);
        assert!(b.failed());
        let report = b.degradation_report();
        assert_eq!(report.stats.ecp_entries_consumed, 2);
        assert_eq!(report.first_correctable.unwrap().at_write, 10);
        assert_eq!(report.capacity_exhaustion.unwrap().at_write, 16);
    }

    #[test]
    fn transient_retries_cost_latency_and_wear() {
        let cfg = FaultConfig {
            seed: 11,
            transient_prob: 0.5,
            max_retries: 4,
            retry_fail_ratio: 0.0,
            ..FaultConfig::default()
        };
        let mut b = PcmBank::with_faults(1, u64::MAX >> 1, TimingModel::PAPER, cfg);
        let mut total = 0;
        for _ in 0..200 {
            total += b.write_line(0, LineData::Zeros);
        }
        let stats = b.fault_stats();
        assert!(stats.transient_faults > 20, "stats: {stats:?}");
        assert_eq!(stats.retries_issued, stats.transient_faults);
        assert_eq!(stats.retry_exhaustions, 0);
        // Each retry costs a verify read (125) plus a RESET re-pulse (125)
        // on top of the 200 plain RESET pulses.
        assert_eq!(total, 200 * 125 + stats.retries_issued as u128 * 250);
        // ... and one extra unit of wear.
        assert_eq!(b.wear_of(0), 200 + stats.retries_issued);
    }

    #[test]
    fn faulty_bulk_write_matches_sequential() {
        let cfg = FaultConfig {
            seed: 5,
            endurance_cov: 0.2,
            transient_prob: 0.02,
            wearout_boost: 0.5,
            max_retries: 3,
            retry_fail_ratio: 0.4,
            ecp_entries: 2,
            ecp_wear_step: 10,
            spare_lines: 3,
        };
        for count in [1u64, 2, 17, 100, 400] {
            let mut a = PcmBank::with_faults(2, 120, TimingModel::PAPER, cfg);
            let mut b = PcmBank::with_faults(2, 120, TimingModel::PAPER, cfg);
            let mut lat_a = 0;
            for _ in 0..count {
                lat_a += a.write_line(0, LineData::Ones);
            }
            let lat_b = b.write_line_bulk(0, LineData::Ones, count);
            assert_eq!(lat_a, lat_b, "count={count}");
            assert_eq!(a.wear(), b.wear(), "count={count}");
            assert_eq!(a.total_writes(), b.total_writes());
            assert_eq!(a.failure(), b.failure());
            assert_eq!(a.degradation_report(), b.degradation_report());
            assert_eq!(a.read_line(0), b.read_line(0));
        }
    }

    #[test]
    fn bulk_safe_writes_never_spans_an_event() {
        let cfg = FaultConfig {
            seed: 9,
            transient_prob: 0.01,
            max_retries: 2,
            retry_fail_ratio: 0.3,
            ecp_entries: 1,
            ecp_wear_step: 5,
            spare_lines: 1,
            ..FaultConfig::default()
        };
        let mut b = PcmBank::with_faults(1, 300, TimingModel::PAPER, cfg);
        let mut guard = 0;
        while !b.failed() && guard < 10_000 {
            guard += 1;
            let safe = b.bulk_safe_writes(0);
            let stats_before = b.fault_stats();
            let retired_before = stats_before.lines_retired;
            let faults_before = stats_before.transient_faults;
            let ecp_before = stats_before.ecp_entries_consumed;
            if safe > 0 {
                b.write_line_bulk(0, LineData::Zeros, safe.min(1_000));
                let stats = b.fault_stats();
                assert_eq!(
                    stats.lines_retired, retired_before,
                    "no retirement in a safe bulk"
                );
                assert_eq!(
                    stats.transient_faults, faults_before,
                    "no transient in a safe bulk"
                );
                assert_eq!(
                    stats.ecp_entries_consumed, ecp_before,
                    "no ECP in a safe bulk"
                );
            } else {
                b.write_line(0, LineData::Zeros);
            }
        }
        assert!(b.failed(), "bank should eventually exhaust");
    }

    #[test]
    fn dirty_tracking_records_each_touched_slot_once() {
        let mut b = bank(130, 1_000);
        b.write_line(1, LineData::Ones);
        assert_eq!(b.take_dirty(), None, "tracking is off by default");
        b.track_dirty();
        b.write_line(129, LineData::Ones);
        b.write_line_bulk(64, LineData::Mixed(3), 5);
        b.add_wear(7, 2);
        b.write_line(129, LineData::Zeros);
        b.swap_lines(0, 64);
        b.write_line_bulk(100, LineData::Ones, 0);
        assert_eq!(b.take_dirty(), Some(vec![129, 64, 7, 0]));
        assert_eq!(b.take_dirty(), Some(vec![]), "taking clears the set");
        b.write_line(64, LineData::Ones);
        assert_eq!(b.take_dirty(), Some(vec![64]));
    }
}
