//! The memory controller: couples a wear-leveling scheme with a bank and
//! exposes the latency side channel.

use crate::{
    DegradationReport, FaultConfig, FaultStats, LineAddr, LineData, Ns, PcmBank, PcmError,
    TimingModel, WearLeveler,
};

/// Outcome of one demand write, as observable by software.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteResponse {
    /// End-to-end service latency of this request in nanoseconds. Includes
    /// any remap movements the request had to wait for — the RTA side
    /// channel.
    pub latency_ns: Ns,
    /// Whether the bank has failed (some line exceeded its endurance) at or
    /// before the completion of this request.
    pub failed: bool,
}

/// A memory controller managing one PCM bank with one wear-leveling scheme.
///
/// Attack code is written strictly against [`MemoryController::write`],
/// [`MemoryController::write_repeat`], and [`MemoryController::read`]: the
/// latencies they return are the only side channel.
#[derive(Debug, Clone)]
pub struct MemoryController<W: WearLeveler> {
    bank: PcmBank,
    wl: W,
    now: Ns,
    demand_writes: u128,
}

impl<W: WearLeveler> MemoryController<W> {
    /// Build a controller: allocates the bank the scheme requires.
    pub fn new(wl: W, endurance: u64, timing: TimingModel) -> Self {
        let mut bank = PcmBank::new(wl.physical_slots(), endurance, timing);
        wl.init_bank(&mut bank);
        Self {
            bank,
            wl,
            now: 0,
            demand_writes: 0,
        }
    }

    /// Build a controller over a fault-injected bank (see
    /// [`crate::FaultConfig`]): the device has endurance variation,
    /// transient write failures with verify-retry, ECP budgets, and a spare
    /// pool, all transparent to the wear-leveling scheme.
    pub fn with_faults(wl: W, endurance: u64, timing: TimingModel, cfg: FaultConfig) -> Self {
        let mut bank = PcmBank::with_faults(wl.physical_slots(), endurance, timing, cfg);
        wl.init_bank(&mut bank);
        Self {
            bank,
            wl,
            now: 0,
            demand_writes: 0,
        }
    }

    /// Rebuild a controller around a bank that survived a power cycle.
    ///
    /// Unlike [`MemoryController::new`], this does *not* allocate or
    /// initialize the bank — line contents, wear, fault state, and the SRAM
    /// slot marking are all non-volatile and carry over. The simulated
    /// clock and demand-write counter restart at zero (they model the
    /// current power session, not device lifetime).
    pub fn from_bank(wl: W, bank: PcmBank) -> Self {
        assert_eq!(
            bank.slots(),
            wl.physical_slots(),
            "recovered scheme does not fit the surviving bank"
        );
        Self {
            bank,
            wl,
            now: 0,
            demand_writes: 0,
        }
    }

    /// Tear the controller apart into scheme and bank — the first step of a
    /// simulated power cycle: the caller persists/recovers the scheme
    /// metadata and keeps the (non-volatile) bank for
    /// [`MemoryController::from_bank`].
    pub fn into_parts(self) -> (W, PcmBank) {
        (self.wl, self.bank)
    }

    /// How far the device has degraded (see [`DegradationReport`]).
    pub fn degradation_report(&self) -> DegradationReport {
        self.bank.degradation_report()
    }

    /// Add `extra` fresh spare lines to the bank's pool (field
    /// replenishment; see [`PcmBank::provision_spares`]).
    pub fn provision_spares(&mut self, extra: u64) {
        self.bank.provision_spares(extra);
    }

    /// Fault and retry counters (all zero on an ideal bank).
    pub fn fault_stats(&self) -> FaultStats {
        self.bank.fault_stats()
    }

    /// Number of logical lines exposed to software.
    pub fn logical_lines(&self) -> u64 {
        self.wl.logical_lines()
    }

    /// Simulated wall-clock time.
    pub fn now_ns(&self) -> Ns {
        self.now
    }

    /// Simulated time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now as f64 * 1e-9
    }

    /// Demand writes serviced so far (excludes remap traffic).
    pub fn demand_writes(&self) -> u128 {
        self.demand_writes
    }

    /// Whether any line has worn out.
    pub fn failed(&self) -> bool {
        self.bank.failed()
    }

    /// The underlying bank (wear statistics, failure info).
    pub fn bank(&self) -> &PcmBank {
        &self.bank
    }

    /// The underlying bank, mutably — for bookkeeping that leaves the
    /// bank's contents alone, such as [`PcmBank::drain_dirty`]. Writing
    /// through it bypasses the wear-leveling scheme.
    pub fn bank_mut(&mut self) -> &mut PcmBank {
        &mut self.bank
    }

    /// The wear-leveling scheme (for white-box tests; attacks must not use
    /// this).
    pub fn scheme(&self) -> &W {
        &self.wl
    }

    /// Mutable scheme access for white-box tests.
    pub fn scheme_mut(&mut self) -> &mut W {
        &mut self.wl
    }

    /// Current LA → physical-slot mapping (white-box; not used by attacks).
    pub fn translate(&self, la: LineAddr) -> LineAddr {
        self.wl.translate(la)
    }

    /// Batched LA → physical-slot mapping (white-box; see
    /// [`WearLeveler::translate_batch`]).
    pub fn translate_batch(&self, las: &[LineAddr], out: &mut Vec<LineAddr>) {
        self.wl.translate_batch(las, out)
    }

    /// Advance the simulated clock without touching the bank (used by
    /// front-end structures such as [`crate::BufferedController`] to account
    /// latencies they absorb).
    pub fn advance_clock(&mut self, ns: Ns) {
        self.now += ns;
    }

    #[inline]
    fn check_la(&self, la: LineAddr) -> Result<(), PcmError> {
        let lines = self.wl.logical_lines();
        if la < lines {
            Ok(())
        } else {
            Err(PcmError::AddressOutOfRange { la, lines })
        }
    }

    /// Service one demand write, validating the address. This is the typed
    /// entry point; out-of-range addresses are rejected in release builds
    /// too, instead of silently corrupting the scheme's mapping state.
    pub fn try_write(&mut self, la: LineAddr, data: LineData) -> Result<WriteResponse, PcmError> {
        self.check_la(la)?;
        Ok(self.write_unchecked(la, data))
    }

    /// Service one demand write. Panics on an out-of-range address; use
    /// [`MemoryController::try_write`] for a typed error instead.
    pub fn write(&mut self, la: LineAddr, data: LineData) -> WriteResponse {
        self.try_write(la, data)
            .expect("demand write outside the logical address space")
    }

    fn write_unchecked(&mut self, la: LineAddr, data: LineData) -> WriteResponse {
        let mut latency = self.bank.timing().translation_ns as Ns;
        latency += self.wl.before_write(la, &mut self.bank);
        let slot = self.wl.translate(la);
        latency += self.bank.write_line(slot, data);
        self.demand_writes += 1;
        self.now += latency;
        WriteResponse {
            latency_ns: latency,
            failed: self.bank.failed(),
        }
    }

    /// Service one demand write and report whether it *verified*: if the
    /// device exhausted its program-and-verify retry budget on this write
    /// (the data survived only through ECP correction or line retirement),
    /// the result is [`PcmError::WriteNotVerified`].
    ///
    /// The device state still advances on an unverified write — wear,
    /// retry pulses, ECP/retirement, and the simulated clock are all
    /// charged exactly as by [`MemoryController::write`] — only the
    /// acknowledgment is withheld. A front-end that needs durable
    /// acknowledgment re-issues the request (see `srbsg-serve`). On an
    /// ideal (fault-free) bank every in-range write verifies.
    pub fn write_verified(
        &mut self,
        la: LineAddr,
        data: LineData,
    ) -> Result<WriteResponse, PcmError> {
        self.check_la(la)?;
        let stuck_before = self.bank.fault_stats().retry_exhaustions;
        let resp = self.write_unchecked(la, data);
        if self.bank.fault_stats().retry_exhaustions > stuck_before {
            let attempts = self.bank.fault_config().map(|c| c.max_retries).unwrap_or(0);
            Err(PcmError::WriteNotVerified { la, attempts })
        } else {
            Ok(resp)
        }
    }

    /// Service one demand write whose pre-write bookkeeping is supplied by
    /// `hook` instead of [`WearLeveler::before_write`].
    ///
    /// The hook receives the scheme and the bank and returns the remap
    /// latency to charge — or an error, in which case the demand write is
    /// **aborted**: no line is written, the clock does not advance, and the
    /// demand-write count is untouched. Movements the hook already applied
    /// to the bank stand (a crash mid-remap leaves exactly the device state
    /// it crashed with). This is the entry point `srbsg-persist` uses to
    /// route remap steps through a write-ahead journal with power-failure
    /// injection: a [`PcmError::PowerLost`] from the hook models the machine
    /// dying before the request could be acknowledged.
    pub fn try_write_with(
        &mut self,
        la: LineAddr,
        data: LineData,
        hook: impl FnOnce(&mut W, &mut PcmBank) -> Result<Ns, PcmError>,
    ) -> Result<WriteResponse, PcmError> {
        self.check_la(la)?;
        let mut latency = self.bank.timing().translation_ns as Ns;
        latency += hook(&mut self.wl, &mut self.bank)?;
        let slot = self.wl.translate(la);
        latency += self.bank.write_line(slot, data);
        self.demand_writes += 1;
        self.now += latency;
        Ok(WriteResponse {
            latency_ns: latency,
            failed: self.bank.failed(),
        })
    }

    /// Service one demand read, validating the address.
    pub fn try_read(&mut self, la: LineAddr) -> Result<(LineData, Ns), PcmError> {
        self.check_la(la)?;
        let slot = self.wl.translate(la);
        let (data, mut latency) = self.bank.read_line_timed(slot);
        latency += self.bank.timing().translation_ns as Ns;
        self.now += latency;
        Ok((data, latency))
    }

    /// Service one demand read. Panics on an out-of-range address; use
    /// [`MemoryController::try_read`] for a typed error instead.
    pub fn read(&mut self, la: LineAddr) -> (LineData, Ns) {
        self.try_read(la)
            .expect("demand read outside the logical address space")
    }

    /// Service a batch of demand reads through one lane-parallel address
    /// translation. `out` is cleared and refilled with the per-read
    /// `(data, latency)` pairs, in request order and identical to
    /// back-to-back [`MemoryController::try_read`] calls; the summed
    /// latency (also returned) advances the clock once at the end, which
    /// is equivalent because reads never mutate the mapping and latency
    /// sums are associative. The one observable difference from the
    /// scalar loop: an out-of-range address anywhere in the batch rejects
    /// the *whole* batch before any read is serviced.
    pub fn try_read_batch(
        &mut self,
        las: &[LineAddr],
        out: &mut Vec<(LineData, Ns)>,
    ) -> Result<Ns, PcmError> {
        for &la in las {
            self.check_la(la)?;
        }
        let mut slots = Vec::with_capacity(las.len());
        self.wl.translate_batch(las, &mut slots);
        let translation = self.bank.timing().translation_ns as Ns;
        let mut total = 0;
        out.clear();
        out.reserve(slots.len());
        for &slot in &slots {
            let (data, mut latency) = self.bank.read_line_timed(slot);
            latency += translation;
            total += latency;
            out.push((data, latency));
        }
        self.now += total;
        Ok(total)
    }

    /// Service a batch of demand reads. Panics on an out-of-range
    /// address; use [`MemoryController::try_read_batch`] for a typed
    /// error instead.
    pub fn read_batch(&mut self, las: &[LineAddr], out: &mut Vec<(LineData, Ns)>) -> Ns {
        self.try_read_batch(las, out)
            .expect("demand read outside the logical address space")
    }

    /// Typed variant of [`MemoryController::write_repeat`].
    pub fn try_write_repeat(
        &mut self,
        la: LineAddr,
        data: LineData,
        count: u64,
    ) -> Result<WriteResponse, PcmError> {
        self.check_la(la)?;
        Ok(self.write_repeat_unchecked(la, data, count))
    }

    /// Service `count` consecutive writes of the same `data` to `la`,
    /// batching the stretches between remap events into bulk wear updates.
    ///
    /// Semantically identical to an attacker loop that calls
    /// [`MemoryController::write`] up to `count` times and stops on the
    /// first failed response (asserted by property tests), but runs in
    /// `O(remap events)` — on fault-injected banks, `O(remap + fault
    /// events)`. Returns the response of the last write issued. Panics on
    /// an out-of-range address; see [`MemoryController::try_write_repeat`].
    pub fn write_repeat(&mut self, la: LineAddr, data: LineData, count: u64) -> WriteResponse {
        self.check_la(la)
            .expect("demand write outside the logical address space");
        self.write_repeat_unchecked(la, data, count)
    }

    fn write_repeat_unchecked(
        &mut self,
        la: LineAddr,
        data: LineData,
        count: u64,
    ) -> WriteResponse {
        let mut remaining = count;
        let mut last = WriteResponse {
            latency_ns: 0,
            failed: self.bank.failed(),
        };
        while remaining > 0 {
            // Cap each bulk stretch at the writes guaranteed free of fault
            // events and endurance crossings, so event-carrying writes take
            // the exact path and the loop stops at the failing write
            // exactly as a response-checking attacker would.
            let to_event = if self.bank.failed() {
                remaining
            } else {
                let slot = self.wl.translate(la);
                self.bank.bulk_safe_writes(slot)
            };
            let quiet = self.wl.writes_until_remap(la).min(remaining).min(to_event);
            if quiet > 0 {
                let slot = self.wl.translate(la);
                let bulk_lat = self.bank.write_line_bulk(slot, data, quiet)
                    + (self.bank.timing().translation_ns as Ns) * quiet as Ns;
                self.wl.note_quiet_writes(la, quiet);
                self.demand_writes += quiet as u128;
                self.now += bulk_lat;
                let per_write = if self.bank.sram_slot() == Some(slot) {
                    self.bank.timing().sram_ns as Ns
                } else {
                    self.bank.timing().write_latency(data, data)
                } + self.bank.timing().translation_ns as Ns;
                last = WriteResponse {
                    latency_ns: per_write,
                    failed: self.bank.failed(),
                };
                remaining -= quiet;
                if last.failed {
                    break;
                }
            }
            if remaining > 0 {
                last = self.write_unchecked(la, data);
                remaining -= 1;
            }
            if last.failed {
                break;
            }
        }
        last
    }

    /// Simulation-accelerated equivalent of the attacker loop
    /// `loop { if write(la, data).latency_ns > threshold { break } }`.
    ///
    /// Issues writes of `data` to `la` until a response exceeds
    /// `threshold_ns` (a remap-movement stall — the RTA observable) or
    /// `max_writes` have been issued. Every write the attacker would issue
    /// is fully accounted (wear, counters, simulated time); only the
    /// per-iteration loop overhead is elided, using the scheme's quiet
    /// window. Returns `(writes_issued, last_response)`; the caller can
    /// tell a spike from exhaustion by comparing the last latency with the
    /// threshold.
    pub fn write_until_slow(
        &mut self,
        la: LineAddr,
        data: LineData,
        threshold_ns: Ns,
        max_writes: u64,
    ) -> (u64, WriteResponse) {
        let mut issued = 0u64;
        let mut last = WriteResponse {
            latency_ns: 0,
            failed: self.bank.failed(),
        };
        while issued < max_writes {
            let quiet = self.wl.writes_until_remap(la).min(max_writes - issued);
            if quiet > 0 {
                last = self.write_repeat(la, data, quiet);
                issued += quiet;
                if last.failed {
                    break;
                }
                // Quiet writes never stall; the plain write latency could
                // still exceed an aggressive threshold.
                if last.latency_ns > threshold_ns {
                    break;
                }
            }
            if issued < max_writes {
                last = self.write(la, data);
                issued += 1;
                if last.latency_ns > threshold_ns || last.failed {
                    break;
                }
            }
        }
        (issued, last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal Start-Gap-like scheme for controller tests: rotates one
    /// gap through N+1 slots every `interval` writes.
    #[derive(Debug)]
    struct ToyGap {
        lines: u64,
        interval: u64,
        counter: u64,
        gap: u64,
        start: u64,
    }

    impl ToyGap {
        fn new(lines: u64, interval: u64) -> Self {
            Self {
                lines,
                interval,
                counter: 0,
                gap: lines,
                start: 0,
            }
        }
    }

    impl WearLeveler for ToyGap {
        fn translate(&self, la: LineAddr) -> LineAddr {
            // Qureshi's Start-Gap formula: rotate within the N logical
            // positions, then step over the gap.
            let pa = (la + self.start) % self.lines;
            if pa >= self.gap {
                pa + 1
            } else {
                pa
            }
        }
        fn before_write(&mut self, _la: LineAddr, bank: &mut PcmBank) -> Ns {
            self.counter += 1;
            if self.counter < self.interval {
                return 0;
            }
            self.counter = 0;
            let slots = self.lines + 1;
            let src = (self.gap + slots - 1) % slots;
            let lat = bank.move_line(src, self.gap);
            self.gap = src;
            if self.gap == self.lines {
                self.start = (self.start + 1) % self.lines;
            }
            lat
        }
        fn writes_until_remap(&self, _la: LineAddr) -> u64 {
            self.interval - 1 - self.counter
        }
        fn note_quiet_writes(&mut self, _la: LineAddr, k: u64) {
            self.counter += k;
            debug_assert!(self.counter < self.interval);
        }
        fn logical_lines(&self) -> u64 {
            self.lines
        }
        fn physical_slots(&self) -> u64 {
            self.lines + 1
        }
        fn name(&self) -> &'static str {
            "toy-gap"
        }
    }

    #[test]
    fn write_latency_includes_remap_stall() {
        let mut mc = MemoryController::new(ToyGap::new(4, 3), 1_000_000, TimingModel::PAPER);
        // Writes 1 and 2 are plain; write 3 triggers a movement first.
        assert_eq!(mc.write(0, LineData::Zeros).latency_ns, 125);
        assert_eq!(mc.write(0, LineData::Zeros).latency_ns, 125);
        // Movement moves ALL-0 data (fresh bank): 250 ns, plus the demand
        // write itself at 125 ns.
        assert_eq!(mc.write(0, LineData::Zeros).latency_ns, 375);
    }

    #[test]
    fn write_repeat_equals_sequential_writes() {
        for count in [1u64, 2, 3, 7, 20, 100] {
            let mut a = MemoryController::new(ToyGap::new(8, 5), 1_000_000, TimingModel::PAPER);
            let mut b = MemoryController::new(ToyGap::new(8, 5), 1_000_000, TimingModel::PAPER);
            let mut last_a = WriteResponse {
                latency_ns: 0,
                failed: false,
            };
            for _ in 0..count {
                last_a = a.write(3, LineData::Ones);
            }
            let last_b = b.write_repeat(3, LineData::Ones, count);
            assert_eq!(a.now_ns(), b.now_ns(), "count={count}");
            assert_eq!(a.demand_writes(), b.demand_writes());
            assert_eq!(last_a, last_b, "count={count}");
            assert_eq!(a.bank().wear(), b.bank().wear());
        }
    }

    #[test]
    fn data_round_trips_through_remapping() {
        let mut mc = MemoryController::new(ToyGap::new(4, 2), 1_000_000, TimingModel::PAPER);
        for la in 0..4 {
            mc.write(la, LineData::Mixed(la as u32));
        }
        // Push many more writes to force several full rotation rounds.
        for _ in 0..100 {
            mc.write(0, LineData::Mixed(0));
        }
        for la in 1..4 {
            assert_eq!(mc.read(la).0, LineData::Mixed(la as u32), "la={la}");
        }
    }

    #[test]
    fn failure_reported_through_response() {
        let mut mc = MemoryController::new(ToyGap::new(2, 1000), 5, TimingModel::PAPER);
        let resp = mc.write_repeat(0, LineData::Ones, 10);
        assert!(resp.failed);
        assert!(mc.failed());
        // Failure occurred at exactly the endurance-th write to that slot.
        assert_eq!(mc.bank().failure().unwrap().at_write, 5);
    }

    #[test]
    fn write_verified_surfaces_retry_exhaustion() {
        use crate::FaultConfig;
        // Every write fails transiently and every device retry fails too:
        // each write is absorbed by ECP but must be reported unverified.
        let cfg = FaultConfig {
            seed: 3,
            transient_prob: 1.0,
            max_retries: 2,
            retry_fail_ratio: 1.0,
            ecp_entries: u32::MAX,
            ecp_wear_step: 1_000_000,
            ..FaultConfig::default()
        };
        let mut mc = MemoryController::with_faults(
            ToyGap::new(4, 1_000),
            1_000_000,
            TimingModel::PAPER,
            cfg,
        );
        let before = mc.now_ns();
        match mc.write_verified(0, LineData::Ones) {
            Err(crate::PcmError::WriteNotVerified { la, attempts }) => {
                assert_eq!(la, 0);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected WriteNotVerified, got {other:?}"),
        }
        // Device state advanced anyway: wear, clock, and demand count.
        assert!(mc.now_ns() > before);
        assert_eq!(mc.demand_writes(), 1);
        assert!(mc.fault_stats().retry_exhaustions == 1);
        // Out-of-range still reports the address error, not a verify one.
        assert!(matches!(
            mc.write_verified(99, LineData::Ones),
            Err(crate::PcmError::AddressOutOfRange { .. })
        ));
    }

    #[test]
    fn write_verified_on_ideal_bank_always_acks() {
        let mut mc = MemoryController::new(ToyGap::new(4, 3), 1_000_000, TimingModel::PAPER);
        for i in 0..50u64 {
            let r = mc
                .write_verified(i % 4, LineData::Ones)
                .expect("ideal bank");
            assert!(r.latency_ns >= 1000);
        }
    }

    #[test]
    fn try_write_with_matches_plain_write_and_aborts_on_error() {
        let mut a = MemoryController::new(ToyGap::new(4, 3), 1_000_000, TimingModel::PAPER);
        let mut b = MemoryController::new(ToyGap::new(4, 3), 1_000_000, TimingModel::PAPER);
        for i in 0..10u64 {
            let ra = a.write(i % 4, LineData::Ones);
            let rb = b
                .try_write_with(i % 4, LineData::Ones, |wl, bank| {
                    Ok(wl.before_write(i % 4, bank))
                })
                .unwrap();
            assert_eq!(ra, rb, "write {i}");
        }
        assert_eq!(a.now_ns(), b.now_ns());
        assert_eq!(a.bank().wear(), b.bank().wear());
        // A hook error aborts the demand write entirely.
        let before = (b.now_ns(), b.demand_writes());
        let err = b.try_write_with(0, LineData::Ones, |_, _| Err(PcmError::PowerLost));
        assert!(matches!(err, Err(PcmError::PowerLost)));
        assert_eq!((b.now_ns(), b.demand_writes()), before);
    }

    #[test]
    fn read_batch_equals_sequential_reads() {
        let mut a = MemoryController::new(ToyGap::new(8, 3), 1_000_000, TimingModel::PAPER);
        let mut b = MemoryController::new(ToyGap::new(8, 3), 1_000_000, TimingModel::PAPER);
        for la in 0..8 {
            a.write(la, LineData::Mixed(la as u32));
            b.write(la, LineData::Mixed(la as u32));
        }
        let las: Vec<LineAddr> = (0..16).map(|i| (i * 5) % 8).collect();
        let seq: Vec<(LineData, Ns)> = las.iter().map(|&la| a.read(la)).collect();
        let mut batch = Vec::new();
        let total = b.read_batch(&las, &mut batch);
        assert_eq!(batch, seq);
        assert_eq!(total, seq.iter().map(|&(_, ns)| ns).sum::<Ns>());
        assert_eq!(a.now_ns(), b.now_ns());
        // Typed rejection happens before any read is serviced.
        let before = b.now_ns();
        assert!(matches!(
            b.try_read_batch(&[0, 99], &mut batch),
            Err(PcmError::AddressOutOfRange { la: 99, .. })
        ));
        assert_eq!(b.now_ns(), before);
    }

    #[test]
    fn clock_advances_with_translation_charge() {
        let timing = TimingModel {
            translation_ns: 10,
            ..TimingModel::PAPER
        };
        let mut mc = MemoryController::new(ToyGap::new(4, 100), 1_000, timing);
        assert_eq!(mc.write(0, LineData::Zeros).latency_ns, 135);
        let (_, read_lat) = mc.read(0);
        assert_eq!(read_lat, 135);
    }
}
