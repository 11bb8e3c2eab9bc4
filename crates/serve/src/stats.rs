//! Front-end counters and latency percentile helpers.

use srbsg_pcm::Ns;

use crate::{Completion, Rejected};

/// Running counters of the front-end's decisions. Updated in request-id
/// order after each batch, so they are identical for any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests submitted (including rejected ones).
    pub submitted: u64,
    /// Reads served.
    pub served_reads: u64,
    /// Writes acknowledged (verified on the device).
    pub served_writes: u64,
    /// Front-end write re-issues performed (both those that eventually
    /// verified and those that ran out of budget or deadline).
    pub retries: u64,
    /// Requests rejected at admission because the bank queue was full.
    pub rejected_queue_full: u64,
    /// Requests rejected because their deadline passed.
    pub rejected_deadline: u64,
    /// Writes rejected because the bank was quarantined.
    pub rejected_quarantine: u64,
    /// Writes rejected after the front-end retry budget ran out.
    pub rejected_retries: u64,
    /// Requests rejected with a non-transient device error.
    pub rejected_fault: u64,
    /// Writes shed because the front-end was in read-only degradation
    /// (durable storage out of space).
    pub rejected_read_only: u64,
}

impl ServeStats {
    /// Count one request's final outcome. This is the one place a
    /// [`Completion`] is classified: the front-end, the server's stats
    /// reply and the `serve` harness all read counters kept here.
    pub fn record(&mut self, c: &Completion) {
        self.submitted += 1;
        match &c.result {
            Ok(s) => {
                if s.data.is_some() {
                    self.served_reads += 1;
                } else {
                    self.served_writes += 1;
                }
                self.retries += s.retries as u64;
            }
            Err(Rejected::QueueFull { .. }) => self.rejected_queue_full += 1,
            Err(Rejected::DeadlineExceeded { attempts, .. }) => {
                self.rejected_deadline += 1;
                self.retries += attempts.saturating_sub(1) as u64;
            }
            Err(Rejected::BankQuarantined { .. }) => self.rejected_quarantine += 1,
            Err(Rejected::RetriesExhausted { attempts, .. }) => {
                self.rejected_retries += 1;
                self.retries += attempts.saturating_sub(1) as u64;
            }
            Err(Rejected::ReadOnly) => self.rejected_read_only += 1,
            Err(Rejected::Fault(_)) => self.rejected_fault += 1,
        }
    }

    /// Fold another tally into this one (e.g. per-bank into a total).
    pub fn merge(&mut self, o: &ServeStats) {
        self.submitted += o.submitted;
        self.served_reads += o.served_reads;
        self.served_writes += o.served_writes;
        self.retries += o.retries;
        self.rejected_queue_full += o.rejected_queue_full;
        self.rejected_deadline += o.rejected_deadline;
        self.rejected_quarantine += o.rejected_quarantine;
        self.rejected_retries += o.rejected_retries;
        self.rejected_fault += o.rejected_fault;
        self.rejected_read_only += o.rejected_read_only;
    }

    /// Requests served (acknowledged).
    pub fn served(&self) -> u64 {
        self.served_reads + self.served_writes
    }

    /// Requests rejected, all causes.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_deadline
            + self.rejected_quarantine
            + self.rejected_retries
            + self.rejected_fault
            + self.rejected_read_only
    }

    /// Fraction of submitted requests that were rejected.
    pub fn rejection_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.rejected() as f64 / self.submitted as f64
        }
    }
}

/// Nearest-rank percentile of an **ascending-sorted** latency slice:
/// `percentile_ns(lat, 99.0)` is the smallest latency ≥ 99% of samples.
/// Returns 0 for an empty slice.
pub fn percentile_ns(sorted: &[Ns], pct: f64) -> Ns {
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!((0.0..=100.0).contains(&pct));
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let lat: Vec<Ns> = (1..=100).collect();
        assert_eq!(percentile_ns(&lat, 50.0), 50);
        assert_eq!(percentile_ns(&lat, 99.0), 99);
        assert_eq!(percentile_ns(&lat, 99.9), 100);
        assert_eq!(percentile_ns(&lat, 100.0), 100);
        assert_eq!(percentile_ns(&lat, 0.0), 1);
        assert_eq!(percentile_ns(&[], 99.0), 0);
        assert_eq!(percentile_ns(&[7], 50.0), 7);
    }

    #[test]
    fn stats_roll_up() {
        let s = ServeStats {
            submitted: 10,
            served_reads: 4,
            served_writes: 3,
            rejected_queue_full: 1,
            rejected_deadline: 1,
            rejected_retries: 1,
            ..ServeStats::default()
        };
        assert_eq!(s.served(), 7);
        assert_eq!(s.rejected(), 3);
        assert!((s.rejection_rate() - 0.3).abs() < 1e-12);
    }
}
