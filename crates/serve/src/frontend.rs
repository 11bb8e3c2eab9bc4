//! The front-end engine: admission, per-bank queue drain, merge.

use srbsg_parallel::par_map;
use srbsg_pcm::{
    LineAddr, LineData, MemoryController, MultiBankSystem, Ns, PcmError, WearLeveler, WriteResponse,
};
use srbsg_persist::{write_verified_crashable, Journaled, JournaledScheme, PersistError};

use crate::{backoff_ns, Completion, Op, Rejected, Request, ServeConfig, ServeStats, Served};

/// How a bank worker issues a write to its device — the only point where
/// the plain and the crash-injected serving paths differ.
type WriteFn<W> =
    fn(&mut MemoryController<W>, LineAddr, LineData) -> Result<WriteResponse, PcmError>;

/// Whether a bank is dead (powered off) before a command may start.
type CrashedFn<W> = fn(&MemoryController<W>) -> bool;

/// A bank crossing its quarantine threshold, as observed by its worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineEvent {
    /// The quarantined bank.
    pub bank: usize,
    /// The bank clock when the threshold was crossed.
    pub at_ns: Ns,
    /// The spare pressure that tripped it.
    pub spare_pressure: f64,
}

/// A command parked in a bank's bounded queue.
#[derive(Debug, Clone, Copy)]
struct Queued {
    id: u64,
    /// In-bank line address (post-routing).
    addr: LineAddr,
    req: Request,
}

/// The serving front-end. Owns the multi-bank system; all mutation goes
/// through [`FrontEnd::submit_batch`].
#[derive(Debug)]
pub struct FrontEnd<W: WearLeveler> {
    system: MultiBankSystem<W>,
    cfg: ServeConfig,
    quarantined: Vec<bool>,
    events: Vec<QuarantineEvent>,
    releases: Vec<QuarantineEvent>,
    stats: ServeStats,
    next_id: u64,
    read_only: bool,
}

impl<W: WearLeveler + Send> FrontEnd<W> {
    /// Front the given system with the given policy.
    pub fn new(system: MultiBankSystem<W>, cfg: ServeConfig) -> Self {
        let banks = system.bank_count();
        Self {
            system,
            cfg: cfg.validated(),
            quarantined: vec![false; banks],
            events: Vec::new(),
            releases: Vec::new(),
            stats: ServeStats::default(),
            next_id: 0,
            read_only: false,
        }
    }

    /// The policy in force.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The underlying system (statistics, white-box inspection).
    pub fn system(&self) -> &MultiBankSystem<W> {
        &self.system
    }

    /// Mutable system access (e.g. post-trace read-back audits).
    pub fn system_mut(&mut self) -> &mut MultiBankSystem<W> {
        &mut self.system
    }

    /// Running counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Quarantine events so far, in trigger order (bank order within a
    /// batch — deterministic for any worker count).
    pub fn quarantine_events(&self) -> &[QuarantineEvent] {
        &self.events
    }

    /// Whether `bank` is currently quarantined.
    pub fn is_quarantined(&self, bank: usize) -> bool {
        self.quarantined[bank]
    }

    /// Quarantine releases so far, in trigger order. Each records the bank,
    /// its clock, and the spare pressure *after* replenishment.
    pub fn release_events(&self) -> &[QuarantineEvent] {
        &self.releases
    }

    /// Whether the front-end is in read-only degradation.
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// Enter or leave read-only degradation. While set, every write is
    /// shed at admission with [`Rejected::ReadOnly`] — before it can touch
    /// device state — and reads keep being served. The engine flips this
    /// when durable storage reports persistent ENOSPC: a write that cannot
    /// be made durable must never be acknowledged.
    pub fn set_read_only(&mut self, read_only: bool) {
        self.read_only = read_only;
    }

    /// Add `extra` fresh spare lines to `bank`'s pool, and lift its
    /// quarantine if that brings spare pressure back under the threshold.
    ///
    /// A bank that already died of capacity exhaustion stays quarantined:
    /// its pressure reports 1.0 regardless of provisioning. With
    /// quarantining disabled (`quarantine_spare_frac <= 0`) this only
    /// provisions the spares.
    pub fn replenish_spares(&mut self, bank: usize, extra: u64) {
        let mc = &mut self.system.banks_mut()[bank];
        mc.provision_spares(extra);
        if !self.quarantined[bank] || self.cfg.quarantine_spare_frac <= 0.0 {
            return;
        }
        let pressure = mc.degradation_report().spare_pressure();
        if pressure < self.cfg.quarantine_spare_frac {
            self.quarantined[bank] = false;
            self.releases.push(QuarantineEvent {
                bank,
                at_ns: mc.now_ns(),
                spare_pressure: pressure,
            });
        }
    }

    /// Tear the front-end down to its system (e.g. for an orderly restart:
    /// recover each bank's wear-leveler, rebuild, re-front). Quarantine
    /// flags and serving statistics are volatile front-end state and do not
    /// survive the teardown.
    pub fn into_system(self) -> MultiBankSystem<W> {
        self.system
    }

    /// Submit one batch of requests and drain every bank queue to
    /// completion on up to `jobs` workers.
    ///
    /// Returns one [`Completion`] per request, in submission order
    /// (ids are assigned sequentially across batches). The returned
    /// completions, the internal counters, and the quarantine-event log
    /// are bit-for-bit identical for any `jobs >= 1`.
    pub fn submit_batch(&mut self, batch: Vec<Request>, jobs: usize) -> Vec<Completion> {
        let (queues, completions) = self.admit(batch);
        self.drain_merge(
            queues,
            completions,
            jobs,
            |mc, addr, data| mc.write_verified(addr, data),
            |_mc| false,
        )
    }

    /// Admission: route, then apply quarantine and queue-depth
    /// backpressure before anything can touch device state.
    fn admit(&mut self, batch: Vec<Request>) -> (Vec<Vec<Queued>>, Vec<Completion>) {
        let nbanks = self.system.bank_count();
        let lines = self.system.logical_lines();
        let mut queues: Vec<Vec<Queued>> = (0..nbanks).map(|_| Vec::new()).collect();
        let mut completions: Vec<Completion> = Vec::with_capacity(batch.len());
        for req in batch {
            let id = self.next_id;
            self.next_id += 1;
            if req.la >= lines {
                completions.push(Completion {
                    id,
                    result: Err(Rejected::Fault(PcmError::AddressOutOfRange {
                        la: req.la,
                        lines,
                    })),
                });
                continue;
            }
            if self.read_only && matches!(req.op, Op::Write(_)) {
                completions.push(Completion {
                    id,
                    result: Err(Rejected::ReadOnly),
                });
                continue;
            }
            let (bank, addr) = self.system.route(req.la);
            if self.quarantined[bank] && matches!(req.op, Op::Write(_)) {
                completions.push(Completion {
                    id,
                    result: Err(Rejected::BankQuarantined { bank }),
                });
                continue;
            }
            if queues[bank].len() >= self.cfg.queue_depth {
                completions.push(Completion {
                    id,
                    result: Err(Rejected::QueueFull {
                        bank,
                        depth: self.cfg.queue_depth,
                    }),
                });
                continue;
            }
            queues[bank].push(Queued { id, addr, req });
        }
        (queues, completions)
    }

    /// Drain every bank queue on up to `jobs` workers and merge the
    /// results. One worker per bank: a worker mutates only its own bank,
    /// its own quarantine flag, and its own completion list, so the
    /// fan-out is deterministic for any job count. Writes go through
    /// `write`; a command whose bank reports `crashed` is rejected as a
    /// [`PcmError::PowerLost`] fault without touching the device.
    fn drain_merge(
        &mut self,
        queues: Vec<Vec<Queued>>,
        mut completions: Vec<Completion>,
        jobs: usize,
        write: WriteFn<W>,
        crashed: CrashedFn<W>,
    ) -> Vec<Completion> {
        let cfg = self.cfg;
        let items: Vec<(usize, &mut MemoryController<W>, bool, Vec<Queued>)> = self
            .system
            .banks_mut()
            .iter_mut()
            .zip(queues)
            .enumerate()
            .map(|(i, (mc, q))| (i, mc, self.quarantined[i], q))
            .collect();
        let drained = par_map(items, jobs, move |(bank, mc, mut quarantined, queue)| {
            let mut done = Vec::with_capacity(queue.len());
            let mut event = None;
            for q in queue {
                let result = if crashed(mc) {
                    Err(Rejected::Fault(PcmError::PowerLost))
                } else {
                    serve_one(&cfg, bank, mc, &mut quarantined, &mut event, &q, write)
                };
                done.push(Completion { id: q.id, result });
            }
            (bank, quarantined, event, done)
        });

        // Merge in bank order, then restore submission order.
        for (bank, quarantined, event, done) in drained {
            self.quarantined[bank] = quarantined;
            if let Some(e) = event {
                self.events.push(e);
            }
            completions.extend(done);
        }
        completions.sort_by_key(|c| c.id);
        for c in &completions {
            self.stats.record(c);
        }
        completions
    }
}

impl<S: JournaledScheme + Send> FrontEnd<Journaled<S>> {
    /// [`FrontEnd::submit_batch`] over journaled banks with power-failure
    /// injection live: writes go through
    /// [`srbsg_persist::write_verified_crashable`], so an armed
    /// [`srbsg_persist::CrashPlan`] can kill a bank mid-batch. The dying
    /// request and every later command routed to the dead bank are
    /// rejected as [`PcmError::PowerLost`] faults — *not* acknowledged —
    /// while the surviving banks drain normally. Determinism for any
    /// `jobs` count is unchanged: a crash is per-bank state.
    pub fn submit_batch_crashable(&mut self, batch: Vec<Request>, jobs: usize) -> Vec<Completion> {
        let (queues, completions) = self.admit(batch);
        self.drain_merge(
            queues,
            completions,
            jobs,
            |mc, addr, data| write_verified_crashable(mc, addr, data),
            |mc| mc.scheme().crashed(),
        )
    }

    /// Checkpoint every bank's journal through the crash-safe dual-slot
    /// protocol — the graceful-drain step of an orderly restart, so
    /// recovery after the power cut replays nothing.
    ///
    /// Fails with [`PersistError::PowerLost`] if a bank is already dead
    /// (checkpointing a crashed bank is impossible by design); banks
    /// before the failing one are still checkpointed.
    pub fn drain_checkpoint(&mut self) -> Result<(), PersistError> {
        for mc in self.system.banks_mut() {
            mc.scheme_mut().checkpoint()?;
        }
        Ok(())
    }

    /// Banks whose power has been cut (by an injected crash or an explicit
    /// power cut), in bank order.
    pub fn crashed_banks(&self) -> Vec<usize> {
        self.system
            .banks()
            .iter()
            .enumerate()
            .filter(|(_, mc)| mc.scheme().crashed())
            .map(|(b, _)| b)
            .collect()
    }
}

/// Re-check the quarantine threshold after device-state movement.
fn maybe_quarantine<W: WearLeveler>(
    cfg: &ServeConfig,
    bank: usize,
    mc: &MemoryController<W>,
    quarantined: &mut bool,
    event: &mut Option<QuarantineEvent>,
) {
    if *quarantined || cfg.quarantine_spare_frac <= 0.0 {
        return;
    }
    let pressure = mc.degradation_report().spare_pressure();
    if pressure >= cfg.quarantine_spare_frac {
        *quarantined = true;
        if event.is_none() {
            *event = Some(QuarantineEvent {
                bank,
                at_ns: mc.now_ns(),
                spare_pressure: pressure,
            });
        }
    }
}

/// Serve one queued command against its bank. Writes are issued through
/// `write` (plain verified writes, or crash-injected ones for journaled
/// banks — a [`PcmError::PowerLost`] from it rejects the request
/// unacknowledged).
#[allow(clippy::too_many_arguments)]
fn serve_one<W: WearLeveler>(
    cfg: &ServeConfig,
    bank: usize,
    mc: &mut MemoryController<W>,
    quarantined: &mut bool,
    event: &mut Option<QuarantineEvent>,
    q: &Queued,
    write: WriteFn<W>,
) -> Result<Served, Rejected> {
    // Idle the bank up to the request's arrival; a busy bank is already
    // past it and the request waits instead.
    if mc.now_ns() < q.req.arrival_ns {
        let idle = q.req.arrival_ns - mc.now_ns();
        mc.advance_clock(idle);
    }
    if mc.now_ns() > q.req.deadline_ns {
        return Err(Rejected::DeadlineExceeded {
            bank,
            deadline_ns: q.req.deadline_ns,
            ready_ns: mc.now_ns(),
            attempts: 0,
        });
    }
    match q.req.op {
        Op::Read => match mc.try_read(q.addr) {
            Ok((data, _lat)) => Ok(Served {
                bank,
                latency_ns: mc.now_ns() - q.req.arrival_ns,
                retries: 0,
                data: Some(data),
            }),
            Err(e) => Err(Rejected::Fault(e)),
        },
        Op::Write(data) => {
            // Mid-queue quarantine: an earlier command in this very batch
            // tripped the threshold.
            if *quarantined {
                return Err(Rejected::BankQuarantined { bank });
            }
            let mut retries = 0u32;
            loop {
                match write(mc, q.addr, data) {
                    Ok(_resp) => {
                        maybe_quarantine(cfg, bank, mc, quarantined, event);
                        return Ok(Served {
                            bank,
                            latency_ns: mc.now_ns() - q.req.arrival_ns,
                            retries,
                            data: None,
                        });
                    }
                    Err(PcmError::WriteNotVerified { .. }) => {
                        // The failed pulses may have consumed ECP entries
                        // or retired the line — re-check the threshold
                        // before deciding to keep hammering.
                        maybe_quarantine(cfg, bank, mc, quarantined, event);
                        if retries >= cfg.max_retries {
                            return Err(Rejected::RetriesExhausted {
                                bank,
                                attempts: retries + 1,
                            });
                        }
                        retries += 1;
                        mc.advance_clock(backoff_ns(cfg, q.id, retries));
                        if mc.now_ns() > q.req.deadline_ns {
                            return Err(Rejected::DeadlineExceeded {
                                bank,
                                deadline_ns: q.req.deadline_ns,
                                ready_ns: mc.now_ns(),
                                attempts: retries,
                            });
                        }
                    }
                    Err(e) => return Err(Rejected::Fault(e)),
                }
            }
        }
    }
}
