//! Restart-under-load: power-cycle a journaled multi-bank system between
//! batches, recover every bank from its durable store, rebuild the
//! front-end, and audit that no acknowledged write was lost.
//!
//! Front-end state (quarantine flags, serving statistics, request ids) is
//! volatile by design and resets across the restart; the audit is about
//! the device contents and the recovered mapping only.

use std::collections::HashMap;

use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, MultiBankSystem, Ns, TimingModel};
use srbsg_persist::{CheckpointPolicy, Journaled};
use srbsg_serve::{FrontEnd, Op, Request, ServeConfig};

fn journaled_system(banks: usize) -> MultiBankSystem<Journaled<SecurityRbsg>> {
    let schemes: Vec<Journaled<SecurityRbsg>> = (0..banks)
        .map(|i| {
            let mut cfg = SecurityRbsgConfig::small(4, 2);
            cfg.seed = 0xBEEF ^ (i as u64);
            Journaled::new(SecurityRbsg::new(cfg), CheckpointPolicy::default())
        })
        .collect();
    MultiBankSystem::new(schemes, u64::MAX, TimingModel::PAPER)
}

/// Power-cycle every bank: graceful drain (checkpoint every journal), cut
/// power, recover from the surviving store and bank, and re-front the
/// rebuilt system.
fn restart(
    mut fe: FrontEnd<Journaled<SecurityRbsg>>,
    cfg: ServeConfig,
) -> FrontEnd<Journaled<SecurityRbsg>> {
    fe.drain_checkpoint().expect("drain on powered banks");
    let mut recovered = Vec::new();
    for mc in fe.into_system().into_controllers() {
        let (mut jw, mut bank) = mc.into_parts();
        jw.power_cut();
        let store = jw.into_store();
        let (jw2, report) =
            Journaled::recover(&store, &mut bank, CheckpointPolicy::default(), None)
                .expect("recovery failed");
        // An orderly drain + power cut leaves no torn tail, nothing to
        // redo, and — because the drain checkpointed — nothing to replay:
        // the recovery-time floor of a graceful restart is zero.
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(report.redone_ops, 0);
        assert_eq!(report.replayed_steps, 0);
        assert_eq!(report.journal_bytes, 0);
        recovered.push(MemoryController::from_bank(jw2, bank));
    }
    FrontEnd::new(MultiBankSystem::from_controllers(recovered), cfg)
}

#[test]
fn acknowledged_writes_survive_restart_under_load() {
    let cfg = ServeConfig::default();
    let mut fe = FrontEnd::new(journaled_system(3), cfg);
    let lines = fe.system().logical_lines();
    let mut acked: HashMap<u64, LineData> = HashMap::new();
    let mut total_acked = 0u64;
    let mut journal_exercised = false;

    for cycle in 0..4u64 {
        for batch in 0..5u64 {
            let reqs: Vec<Request> = (0..40u64)
                .map(|k| Request {
                    la: (cycle * 7 + batch * 13 + k * 3) % lines,
                    op: Op::Write(LineData::Mixed((cycle * 10_000 + batch * 100 + k) as u32)),
                    arrival_ns: 0,
                    deadline_ns: Ns::MAX,
                })
                .collect();
            let done = fe.submit_batch(reqs.clone(), 2);
            for (req, c) in reqs.iter().zip(&done) {
                if c.result.is_ok() {
                    let Op::Write(data) = req.op else {
                        unreachable!()
                    };
                    acked.insert(req.la, data);
                    total_acked += 1;
                }
            }
        }

        // Sample before the restart: the drain checkpoint empties the
        // journal and recovery resets the step counter.
        journal_exercised |= fe
            .system()
            .banks()
            .iter()
            .any(|mc| mc.scheme().steps_logged() > 0);

        fe = restart(fe, cfg);

        // Every write acknowledged before the power cycle reads back, and
        // each recovered bank's mapping is still a bijection.
        for (&la, &data) in &acked {
            assert_eq!(
                fe.system_mut().try_read(la).expect("read").0,
                data,
                "cycle {cycle}: acked write to {la} lost across restart"
            );
        }
        for (b, mc) in fe.system().banks().iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for la in 0..mc.logical_lines() {
                assert!(
                    seen.insert(mc.translate(la)),
                    "cycle {cycle}: bank {b} mapping not injective after recovery"
                );
            }
        }
    }
    assert!(total_acked > 0, "trace served nothing");
    // The load actually exercised the journal: remap steps were logged.
    assert!(journal_exercised);
}
