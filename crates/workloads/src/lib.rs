#![warn(missing_docs)]

//! Synthetic memory-access traces.
//!
//! The paper's performance evaluation (§V-C4) runs 13 PARSEC and 27 SPEC
//! CPU2006 benchmarks under Gem5. Neither the traces nor Gem5 are available
//! here, so this crate generates *synthetic* traces whose knobs capture the
//! properties the experiment actually depends on:
//!
//! * **memory intensity** — accesses per kilo-instruction, which determines
//!   how much controller idle time is available to hide remap movements;
//! * **write ratio** — only writes trigger wear-leveling work;
//! * **locality** — Zipf-distributed hot sets vs streaming/strided access.
//!
//! [`BenchProfile`] provides one calibrated profile per benchmark name,
//! with PARSEC profiles denser (more memory traffic per instruction) than
//! SPEC ones, and `bzip2`/`gcc` notably sparse — mirroring the paper's
//! observation that their IPC does not degrade at all.

mod profiles;
mod runner;
mod shard;
mod zipf;

pub use profiles::{parsec_suite, spec_suite, BenchProfile};
pub use runner::{ShardOutcome, ShardedRunReport, ShardedTraceRunner};
pub use shard::{shard_seed, splitmix64, AnyTrace, WorkloadSpec};
pub use zipf::Zipf;

use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

/// One memory access of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Line address accessed.
    pub addr: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
    /// CPU cycles of computation since the previous access (controller
    /// idle time the scheme can hide remap work in).
    pub gap_cycles: u64,
}

/// A source of memory accesses.
pub trait TraceGenerator {
    /// Produce the next access.
    fn next_access(&mut self) -> Access;
}

/// Uniformly random addresses.
#[derive(Debug, Clone)]
pub struct UniformTrace {
    rng: SmallRng,
    lines: u64,
    write_ratio: f64,
    mean_gap: u64,
}

impl UniformTrace {
    /// Uniform trace over `lines` addresses with the given write ratio and
    /// mean inter-access gap.
    pub fn new(lines: u64, write_ratio: f64, mean_gap: u64, seed: u64) -> Self {
        assert!(lines > 0 && (0.0..=1.0).contains(&write_ratio));
        Self {
            rng: SmallRng::seed_from_u64(seed),
            lines,
            write_ratio,
            mean_gap,
        }
    }
}

impl TraceGenerator for UniformTrace {
    fn next_access(&mut self) -> Access {
        Access {
            addr: self.rng.random_range(0..self.lines),
            is_write: self.rng.random_bool(self.write_ratio),
            gap_cycles: sample_gap(&mut self.rng, self.mean_gap),
        }
    }
}

/// Sequential streaming access (e.g. array traversal).
#[derive(Debug, Clone)]
pub struct SequentialTrace {
    rng: SmallRng,
    lines: u64,
    next: u64,
    write_ratio: f64,
    mean_gap: u64,
}

impl SequentialTrace {
    /// Streaming trace wrapping around `lines`.
    pub fn new(lines: u64, write_ratio: f64, mean_gap: u64, seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            lines,
            next: 0,
            write_ratio,
            mean_gap,
        }
    }
}

impl TraceGenerator for SequentialTrace {
    fn next_access(&mut self) -> Access {
        let addr = self.next;
        self.next = (self.next + 1) % self.lines;
        Access {
            addr,
            is_write: self.rng.random_bool(self.write_ratio),
            gap_cycles: sample_gap(&mut self.rng, self.mean_gap),
        }
    }
}

/// Strided access (e.g. column-major traversal of a row-major matrix).
#[derive(Debug, Clone)]
pub struct StridedTrace {
    rng: SmallRng,
    lines: u64,
    stride: u64,
    next: u64,
    write_ratio: f64,
    mean_gap: u64,
}

impl StridedTrace {
    /// Trace stepping by `stride` lines, wrapping modulo `lines`.
    pub fn new(lines: u64, stride: u64, write_ratio: f64, mean_gap: u64, seed: u64) -> Self {
        assert!(stride > 0);
        Self {
            rng: SmallRng::seed_from_u64(seed),
            lines,
            stride,
            next: 0,
            write_ratio,
            mean_gap,
        }
    }
}

impl TraceGenerator for StridedTrace {
    fn next_access(&mut self) -> Access {
        let addr = self.next;
        self.next = (self.next + self.stride) % self.lines;
        Access {
            addr,
            is_write: self.rng.random_bool(self.write_ratio),
            gap_cycles: sample_gap(&mut self.rng, self.mean_gap),
        }
    }
}

/// Zipf-distributed hot-spot accesses — the non-uniform application traffic
/// wear-leveling exists to survive.
#[derive(Debug, Clone)]
pub struct ZipfTrace {
    rng: SmallRng,
    zipf: Zipf,
    write_ratio: f64,
    mean_gap: u64,
    /// Random relabeling stride to decorrelate rank and address.
    stride: u64,
    lines: u64,
}

impl ZipfTrace {
    /// Zipf trace over `lines` addresses with exponent `s`.
    pub fn new(lines: u64, s: f64, write_ratio: f64, mean_gap: u64, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        // An odd stride is coprime with the power-of-two line count, so
        // rank → address is a bijection.
        let stride = ((rng.random::<u64>() | 1) % lines.max(2)) | 1;
        Self {
            rng,
            zipf: Zipf::new(lines, s),
            write_ratio,
            mean_gap,
            stride,
            lines,
        }
    }
}

impl TraceGenerator for ZipfTrace {
    fn next_access(&mut self) -> Access {
        let rank = self.zipf.sample(&mut self.rng);
        Access {
            addr: rank.wrapping_mul(self.stride) % self.lines,
            is_write: self.rng.random_bool(self.write_ratio),
            gap_cycles: sample_gap(&mut self.rng, self.mean_gap),
        }
    }
}

/// Geometric-ish gap sampler with the given mean (0 mean → back-to-back).
fn sample_gap<R: Rng + ?Sized>(rng: &mut R, mean: u64) -> u64 {
    if mean == 0 {
        return 0;
    }
    // Exponential with the requested mean, discretized.
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    (-(u.ln()) * mean as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_space() {
        let mut t = UniformTrace::new(64, 0.5, 10, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            let a = t.next_access();
            assert!(a.addr < 64);
            seen.insert(a.addr);
        }
        assert!(seen.len() > 60, "covered {} of 64", seen.len());
    }

    #[test]
    fn sequential_is_sequential() {
        let mut t = SequentialTrace::new(16, 1.0, 0, 0);
        for i in 0..40 {
            assert_eq!(t.next_access().addr, i % 16);
        }
    }

    #[test]
    fn strided_hits_stride_multiples() {
        let mut t = StridedTrace::new(64, 8, 1.0, 0, 0);
        for i in 0..16 {
            assert_eq!(t.next_access().addr, (i * 8) % 64);
        }
    }

    #[test]
    fn zipf_trace_is_skewed() {
        let mut t = ZipfTrace::new(1 << 12, 1.0, 0.5, 0, 3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(t.next_access().addr).or_insert(0u64) += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(
            max > 50_000 / 100,
            "hot line should take ≫ 1/N of traffic: {max}"
        );
    }

    #[test]
    fn write_ratio_respected() {
        let mut t = UniformTrace::new(64, 0.25, 0, 9);
        let writes = (0..20_000).filter(|_| t.next_access().is_write).count();
        let ratio = writes as f64 / 20_000.0;
        assert!((0.2..0.3).contains(&ratio), "write ratio {ratio}");
    }

    #[test]
    fn gap_mean_roughly_respected() {
        let mut t = UniformTrace::new(64, 0.5, 100, 4);
        let total: u64 = (0..20_000).map(|_| t.next_access().gap_cycles).sum();
        let mean = total as f64 / 20_000.0;
        assert!((70.0..130.0).contains(&mean), "gap mean {mean}");
    }
}
