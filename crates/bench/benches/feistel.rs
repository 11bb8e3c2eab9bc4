//! Feistel address-translation throughput: scalar `encrypt` loop vs the
//! lane-parallel `encrypt_batch` kernel across network widths and stage
//! counts — the hot loop under every figure sweep and the sharded runner.
//!
//! Besides the criterion report, the bench writes a summary (median
//! translations/sec of each path per width × stages cell) to
//! `BENCH_feistel.json`. The committed copy lives at
//! `results/BENCH_feistel.json` so the perf trajectory is tracked across
//! changes. Knobs (see the crate docs):
//!
//! - `SRBSG_BENCH_QUICK=1` — fewer repetitions (CI smoke mode).
//! - `SRBSG_BENCH_JSON_DIR=DIR` — where the summary goes.
//! - `SRBSG_BENCH_ASSERT=1` — fail unless batch ≥ scalar in every cell
//!   and ≥ 2× at the width-20/stages-5 reference cell.

use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use srbsg_bench::{assert_gate, median_rate, quick, write_summary, Summary};
use srbsg_feistel::{AddressPermutation, FeistelNetwork};

const WIDTHS: [u32; 5] = [10, 15, 20, 25, 30];
const STAGES: [usize; 4] = [3, 5, 7, 9];
/// Addresses translated per measured pass.
const BUF: usize = 1 << 16;

fn make_addrs(net: &FeistelNetwork) -> Vec<u64> {
    let n = net.domain_size();
    (0..BUF as u64)
        .map(|i| (i.wrapping_mul(0x9E37)) % n)
        .collect()
}

fn scalar_pass(net: &FeistelNetwork, addrs: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &a in addrs {
        acc ^= net.encrypt(a);
    }
    acc
}

fn batch_pass(net: &FeistelNetwork, addrs: &[u64], buf: &mut Vec<u64>) -> u64 {
    buf.clear();
    buf.extend_from_slice(addrs);
    net.encrypt_batch(buf);
    buf.iter().fold(0u64, |acc, &x| acc ^ x)
}

fn main() {
    let reps = if quick() { 3 } else { 7 };

    let mut c = Criterion::default();
    let mut g = c.benchmark_group("feistel_translate");
    g.sample_size(10);
    // Criterion pass on the reference cell only; the grid is self-timed.
    let mut rng = StdRng::seed_from_u64(20);
    let net = FeistelNetwork::random(&mut rng, 20, 5);
    let addrs = make_addrs(&net);
    let mut buf = Vec::with_capacity(BUF);
    g.bench_function("w20_s5_scalar", |b| {
        b.iter(|| black_box(scalar_pass(&net, &addrs)))
    });
    g.bench_function("w20_s5_batch", |b| {
        b.iter(|| black_box(batch_pass(&net, &addrs, &mut buf)))
    });
    g.finish();

    let mut summary = Summary::new("feistel_translate");
    summary.param("buf", BUF).param("reps", reps);
    let mut gate_ok = true;
    for &width in &WIDTHS {
        for &stages in &STAGES {
            let mut rng = StdRng::seed_from_u64(width as u64 * 100 + stages as u64);
            let net = FeistelNetwork::random(&mut rng, width, stages);
            let addrs = make_addrs(&net);
            let mut buf = Vec::with_capacity(BUF);
            // Sanity: the two paths agree before we time them.
            assert_eq!(
                scalar_pass(&net, &addrs),
                batch_pass(&net, &addrs, &mut buf),
                "batch diverged from scalar at width {width}, stages {stages}"
            );
            let scalar = median_rate(|_| scalar_pass(&net, &addrs), BUF as f64, reps);
            let batch = median_rate(|_| batch_pass(&net, &addrs, &mut buf), BUF as f64, reps);
            let speedup = batch / scalar;
            println!(
                "feistel_translate/w{width}_s{stages}: scalar {scalar:.0}/s, \
                 batch {batch:.0}/s, speedup {speedup:.2}x"
            );
            for (path, rate) in [("scalar", scalar), ("batch", batch)] {
                let cell = vec![
                    ("width", width.into()),
                    ("stages", stages.into()),
                    ("path", path.into()),
                ];
                summary.row(cell, rate, "translations/s");
            }
            if speedup < 1.0 {
                eprintln!("GATE: batch slower than scalar at width {width}, stages {stages}");
                gate_ok = false;
            }
            if width == 20 && stages == 5 && speedup < 2.0 {
                eprintln!("GATE: reference cell (w20, s5) speedup {speedup:.2} < 2.0");
                gate_ok = false;
            }
        }
    }
    write_summary("BENCH_feistel.json", &summary);
    if assert_gate() {
        assert!(gate_ok, "feistel bench gate failed (see GATE lines above)");
    }
}
