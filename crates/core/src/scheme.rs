//! The Security RBSG wear-leveling scheme (paper §IV).

use srbsg_pcm::{ApplySink, LineAddr, Ns, PcmBank, PhysOp, StepSink, WearLeveler};
use srbsg_persist::{expect_tag, tags, Dec, Enc, JournaledScheme, MetadataState, PersistError};
use srbsg_wearlevel::GapMapping;

use crate::dfn::{DfnMapping, DfnMove, IaSlot};

/// Configuration of a Security RBSG instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecurityRbsgConfig {
    /// Address width `B`: the bank has `2^width` lines.
    pub width: u32,
    /// Number of inner Start-Gap sub-regions `R` (must divide `2^width`).
    pub sub_regions: u64,
    /// Inner remap interval ψ_in (writes to a sub-region per gap movement).
    pub inner_interval: u64,
    /// Outer remap interval ψ_out (bank writes per DFN movement).
    pub outer_interval: u64,
    /// DFN stages `S` — the security level knob (paper recommends 7).
    pub stages: usize,
    /// Seed for the deterministic key-generation RNG.
    pub seed: u64,
}

impl SecurityRbsgConfig {
    /// The paper's recommended configuration, scaled to a 1 GB bank of
    /// 256 B lines: `2^22` lines, 512 sub-regions, ψ_in = 64, ψ_out = 128,
    /// 7 DFN stages (§V-C1).
    pub fn paper_default() -> Self {
        Self {
            width: 22,
            sub_regions: 512,
            inner_interval: 64,
            outer_interval: 128,
            stages: 7,
            seed: 0,
        }
    }

    /// A small configuration convenient for tests and examples.
    pub fn small(width: u32, sub_regions: u64) -> Self {
        Self {
            width,
            sub_regions,
            inner_interval: 4,
            outer_interval: 8,
            stages: 3,
            seed: 0,
        }
    }
}

/// Security Region-Based Start-Gap.
///
/// Two-level dynamic mapping (paper Fig. 6):
///
/// 1. **Outer level** — the Security-Level Adjustable Dynamic Mapping: a
///    [`DfnMapping`] transforms LA → IA with keys that change every
///    remapping round, so the timing side channel never observes enough
///    writes under one key pair to recover it.
/// 2. **Inner level** — the IA space is divided into `R` fixed-size
///    sub-regions, each wear-leveled by a simple Start-Gap
///    ([`GapMapping`]) that keeps the write traffic uniform at low cost.
///
/// Physical layout: sub-region `r` owns slots `[r·(n_r+1), (r+1)·(n_r+1))`
/// (its `n_r = N/R` lines plus its own gap line); the DFN's spare line is
/// the final slot. Total `N + R + 1` physical slots.
#[derive(Debug, Clone)]
pub struct SecurityRbsg {
    dfn: DfnMapping,
    outer_counter: u64,
    outer_interval: u64,
    inner: Vec<GapMapping>,
    inner_counters: Vec<u64>,
    inner_interval: u64,
    lines: u64,
    region_lines: u64,
}

impl SecurityRbsg {
    /// Build from a configuration.
    ///
    /// # Panics
    /// Panics if `sub_regions` does not divide `2^width` or an interval is 0.
    pub fn new(cfg: SecurityRbsgConfig) -> Self {
        let lines = 1u64 << cfg.width;
        assert!(cfg.sub_regions >= 1 && lines.is_multiple_of(cfg.sub_regions));
        assert!(cfg.inner_interval >= 1 && cfg.outer_interval >= 1);
        let region_lines = lines / cfg.sub_regions;
        Self {
            dfn: DfnMapping::new(cfg.width, cfg.stages, cfg.seed),
            outer_counter: 0,
            outer_interval: cfg.outer_interval,
            inner: (0..cfg.sub_regions)
                .map(|_| GapMapping::new(region_lines))
                .collect(),
            inner_counters: vec![0; cfg.sub_regions as usize],
            inner_interval: cfg.inner_interval,
            lines,
            region_lines,
        }
    }

    /// The outer DFN mapping (white-box inspection).
    pub fn dfn(&self) -> &DfnMapping {
        &self.dfn
    }

    /// Number of sub-regions `R`.
    pub fn sub_regions(&self) -> u64 {
        self.inner.len() as u64
    }

    /// Lines per sub-region (`N/R`).
    pub fn region_lines(&self) -> u64 {
        self.region_lines
    }

    /// Inner remap interval ψ_in.
    pub fn inner_interval(&self) -> u64 {
        self.inner_interval
    }

    /// Outer remap interval ψ_out.
    pub fn outer_interval(&self) -> u64 {
        self.outer_interval
    }

    /// Physical slot of the DFN spare line.
    #[inline]
    pub fn spare_slot(&self) -> u64 {
        self.lines + self.sub_regions()
    }

    #[inline]
    fn region_base(&self, r: u64) -> u64 {
        r * (self.region_lines + 1)
    }

    /// Map an intermediate address through the inner Start-Gap level.
    #[inline]
    fn inner_translate(&self, ia: u64) -> u64 {
        let r = ia / self.region_lines;
        self.region_base(r) + self.inner[r as usize].translate(ia % self.region_lines)
    }

    /// Resolve a DFN slot (line or spare) to a physical slot.
    #[inline]
    fn resolve(&self, slot: IaSlot) -> u64 {
        match slot {
            IaSlot::Line(ia) => self.inner_translate(ia),
            IaSlot::Spare => self.spare_slot(),
        }
    }

    /// The metadata transition of one outer DFN movement plus the physical
    /// copy it implies (journal payload 0). Shared by the live path, journal
    /// replay, and recovery rekeying so they can never diverge.
    fn outer_step(&mut self) -> [PhysOp; 1] {
        let DfnMove { src, dst } = self.dfn.advance();
        [PhysOp::Move {
            src: self.resolve(src),
            dst: self.resolve(dst),
        }]
    }

    /// One inner Start-Gap movement in sub-region `r` (journal payload
    /// `1 + r`).
    fn inner_step(&mut self, r: usize) -> [PhysOp; 1] {
        let base = self.region_base(r as u64);
        let mv = self.inner[r].advance();
        [PhysOp::Move {
            src: base + mv.src,
            dst: base + mv.dst,
        }]
    }

    fn step_if_due(&mut self, la: LineAddr, bank: &mut PcmBank, sink: &mut dyn StepSink) -> Ns {
        let mut latency = 0;
        // Outer level: one DFN movement per ψ_out demand writes.
        self.outer_counter += 1;
        if self.outer_counter >= self.outer_interval {
            self.outer_counter = 0;
            let ops = self.outer_step();
            latency += sink.commit(bank, &0u32.to_le_bytes(), &ops);
        }
        // Inner level: count the write against the sub-region its IA lands
        // in (post-outer-movement). Writes to the parked line live in the
        // spare and bypass the inner level.
        if let IaSlot::Line(ia) = self.dfn.translate(la) {
            let r = (ia / self.region_lines) as usize;
            self.inner_counters[r] += 1;
            if self.inner_counters[r] >= self.inner_interval {
                self.inner_counters[r] = 0;
                let ops = self.inner_step(r);
                latency += sink.commit(bank, &(1 + r as u32).to_le_bytes(), &ops);
            }
        }
        latency
    }
}

impl WearLeveler for SecurityRbsg {
    fn init_bank(&self, bank: &mut PcmBank) {
        // The DFN spare is controller-SRAM-backed: the cubing round
        // function is a bitwise T-function, so the round permutation
        // `ENC_Kp ∘ DEC_Kc` decomposes into ~N/8 cycles rather than the
        // single cycle the paper's Fig. 9 assumes; with one park write per
        // cycle, a PCM spare would become the hottest line in the bank by
        // orders of magnitude. A 256 B SRAM buffer (standard in memory
        // controllers) removes the hotspot without touching the mapping.
        bank.mark_sram(self.spare_slot());
    }

    fn translate(&self, la: LineAddr) -> LineAddr {
        self.resolve(self.dfn.translate(la))
    }

    fn translate_batch(&self, las: &[LineAddr], out: &mut Vec<LineAddr>) {
        // Outer DFN level runs lane-parallel; the inner Start-Gap hop is
        // pure arithmetic and stays scalar.
        let mut slots = Vec::with_capacity(las.len());
        self.dfn.translate_batch(las, &mut slots);
        out.clear();
        out.extend(slots.iter().map(|&s| self.resolve(s)));
    }

    fn before_write(&mut self, la: LineAddr, bank: &mut PcmBank) -> Ns {
        self.step_if_due(la, bank, &mut ApplySink)
    }

    fn writes_until_remap(&self, la: LineAddr) -> u64 {
        let outer_left = self.outer_interval - 1 - self.outer_counter;
        match self.dfn.translate(la) {
            IaSlot::Spare => outer_left,
            IaSlot::Line(ia) => {
                let r = (ia / self.region_lines) as usize;
                let inner_left = self.inner_interval - 1 - self.inner_counters[r];
                outer_left.min(inner_left)
            }
        }
    }

    fn note_quiet_writes(&mut self, la: LineAddr, k: u64) {
        self.outer_counter += k;
        debug_assert!(self.outer_counter < self.outer_interval);
        if let IaSlot::Line(ia) = self.dfn.translate(la) {
            let r = (ia / self.region_lines) as usize;
            self.inner_counters[r] += k;
            debug_assert!(self.inner_counters[r] < self.inner_interval);
        }
    }

    fn logical_lines(&self) -> u64 {
        self.lines
    }

    fn physical_slots(&self) -> u64 {
        self.lines + self.sub_regions() + 1
    }

    fn name(&self) -> &'static str {
        "security-rbsg"
    }
}

impl MetadataState for SecurityRbsg {
    fn encode_state(&self, enc: &mut Enc) {
        enc.u8(tags::SECURITY_RBSG);
        self.dfn.encode_state(enc);
        enc.u64(self.outer_interval);
        enc.u64(self.outer_counter);
        enc.u64(self.inner_interval);
        enc.u32(self.inner.len() as u32);
        for region in &self.inner {
            region.encode_state(enc);
        }
        for &c in &self.inner_counters {
            enc.u64(c);
        }
    }

    fn decode_state(dec: &mut Dec) -> Result<Self, PersistError> {
        expect_tag(dec, tags::SECURITY_RBSG)?;
        let dfn = DfnMapping::decode_state(dec)?;
        let lines = dfn.lines();
        let outer_interval = dec.u64()?;
        let outer_counter = dec.u64()?;
        let inner_interval = dec.u64()?;
        if outer_interval < 1 || inner_interval < 1 || outer_counter >= outer_interval {
            return Err(PersistError::Corrupt(
                "security-rbsg intervals out of range",
            ));
        }
        let sub_regions = dec.u32()? as u64;
        if sub_regions < 1 || !lines.is_multiple_of(sub_regions) {
            return Err(PersistError::Corrupt("security-rbsg geometry out of range"));
        }
        let region_lines = lines / sub_regions;
        let mut inner = Vec::with_capacity(sub_regions as usize);
        for _ in 0..sub_regions {
            let region = GapMapping::decode_state(dec)?;
            if region.lines() != region_lines {
                return Err(PersistError::Corrupt("security-rbsg region size mismatch"));
            }
            inner.push(region);
        }
        let mut inner_counters = Vec::with_capacity(sub_regions as usize);
        for _ in 0..sub_regions {
            let c = dec.u64()?;
            if c >= inner_interval {
                return Err(PersistError::Corrupt("security-rbsg counter out of range"));
            }
            inner_counters.push(c);
        }
        Ok(Self {
            dfn,
            outer_counter,
            outer_interval,
            inner,
            inner_counters,
            inner_interval,
            lines,
            region_lines,
        })
    }
}

impl JournaledScheme for SecurityRbsg {
    fn before_write_logged(
        &mut self,
        la: LineAddr,
        bank: &mut PcmBank,
        sink: &mut dyn StepSink,
    ) -> Ns {
        self.step_if_due(la, bank, sink)
    }

    fn replay_step(&mut self, payload: &[u8]) -> Result<Vec<PhysOp>, PersistError> {
        let raw: [u8; 4] = payload
            .try_into()
            .map_err(|_| PersistError::Corrupt("security-rbsg step payload size"))?;
        match u32::from_le_bytes(raw) {
            0 => {
                self.outer_counter = 0;
                Ok(self.outer_step().to_vec())
            }
            k => {
                let r = (k - 1) as usize;
                if r >= self.inner.len() {
                    return Err(PersistError::Corrupt("security-rbsg step region"));
                }
                self.inner_counters[r] = 0;
                Ok(self.inner_step(r).to_vec())
            }
        }
    }

    fn reseed_rng(&mut self, seed: u64) {
        self.dfn.reseed_rng(seed);
    }

    /// Burst outer DFN movements until key material drawn from the reseeded
    /// RNG fully determines the mapping: one full round when the crash hit a
    /// round boundary, two when it hit mid-round (the in-flight round still
    /// finishes under the pre-crash `Kc`, which the attacker may have been
    /// probing).
    fn rekey(&mut self, bank: &mut PcmBank, sink: &mut dyn StepSink) -> u64 {
        let start = self.dfn.rounds_completed();
        let target = start + if self.dfn.mid_round() { 2 } else { 1 };
        let mut moves = 0;
        while self.dfn.rounds_completed() < target {
            let ops = self.outer_step();
            sink.commit(bank, &0u32.to_le_bytes(), &ops);
            moves += 1;
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srbsg_pcm::{LineData, MemoryController, TimingModel};

    fn controller(cfg: SecurityRbsgConfig) -> MemoryController<SecurityRbsg> {
        MemoryController::new(SecurityRbsg::new(cfg), u64::MAX, TimingModel::PAPER)
    }

    #[test]
    fn translation_is_injective_over_time() {
        let mut mc = controller(SecurityRbsgConfig::small(6, 4));
        for step in 0..3_000u64 {
            let mut seen = std::collections::HashSet::new();
            for la in 0..64 {
                assert!(seen.insert(mc.translate(la)), "step {step}");
            }
            mc.write(step % 64, LineData::Zeros);
        }
    }

    #[test]
    fn data_integrity_across_dfn_rounds() {
        let mut mc = controller(SecurityRbsgConfig::small(6, 4));
        for la in 0..64 {
            mc.write(la, LineData::Mixed(la as u32 + 1));
        }
        // Drive enough writes for several complete DFN rounds
        // (round ≈ (N + cycles) · ψ_out = ~70 · 8 writes).
        for i in 0..20_000u64 {
            mc.write(i % 3, LineData::Mixed((i % 3) as u32 + 1));
        }
        assert!(mc.scheme().dfn().rounds_completed() >= 10);
        for la in 0..64 {
            assert_eq!(mc.read(la).0, LineData::Mixed(la as u32 + 1), "la={la}");
        }
    }

    #[test]
    fn write_repeat_consistency() {
        for count in [1u64, 7, 64, 513, 4_000] {
            let mut a = controller(SecurityRbsgConfig::small(5, 2));
            let mut b = controller(SecurityRbsgConfig::small(5, 2));
            for _ in 0..count {
                a.write(11, LineData::Ones);
            }
            b.write_repeat(11, LineData::Ones, count);
            assert_eq!(a.now_ns(), b.now_ns(), "count={count}");
            assert_eq!(a.bank().wear(), b.bank().wear(), "count={count}");
            assert_eq!(
                a.scheme().dfn().rounds_completed(),
                b.scheme().dfn().rounds_completed()
            );
        }
    }

    #[test]
    fn hammered_address_migrates_across_sub_regions() {
        // The defining property against RAA: the DFN re-keys each round, so
        // a pinned LA visits many different sub-regions over time.
        let mut mc = controller(SecurityRbsgConfig::small(8, 8));
        let region_slots = mc.scheme().region_lines() + 1;
        let mut regions_visited = std::collections::HashSet::new();
        for _ in 0..200_000u64 {
            mc.write(0, LineData::Ones);
            regions_visited.insert(mc.translate(0) / region_slots);
        }
        assert!(
            regions_visited.len() >= 6,
            "LA 0 visited only {} sub-regions",
            regions_visited.len()
        );
    }

    #[test]
    fn wear_is_leveled_under_hammering() {
        let mut mc = controller(SecurityRbsgConfig::small(6, 4));
        for _ in 0..500_000u64 {
            mc.write(7, LineData::Ones);
        }
        let summary = srbsg_pcm::WearSummary::from_wear(mc.bank().wear());
        // A pinned address's writes should spread broadly: max wear within
        // a small factor of the mean.
        assert!(
            (summary.max as f64) < summary.mean * 8.0,
            "max {} vs mean {}",
            summary.max,
            summary.mean
        );
    }

    #[test]
    fn physical_slots_account_for_gaps_and_spare() {
        let s = SecurityRbsg::new(SecurityRbsgConfig::small(6, 4));
        assert_eq!(s.physical_slots(), 64 + 4 + 1);
        assert_eq!(s.spare_slot(), 68);
    }

    #[test]
    fn paper_default_config_shape() {
        let cfg = SecurityRbsgConfig::paper_default();
        assert_eq!(1u64 << cfg.width, 4_194_304);
        assert_eq!(cfg.sub_regions, 512);
        assert_eq!((1u64 << cfg.width) / cfg.sub_regions, 8192);
    }
}
