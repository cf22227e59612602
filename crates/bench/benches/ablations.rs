//! Ablation benches for the design choices DESIGN.md calls out:
//! lookup-table resolution, fault dropping in bit-parallel fault
//! simulation, and fault collapsing ahead of PODEM.

use criterion::{criterion_group, criterion_main, Criterion};
use sinw_atpg::collapse::collapse;
use sinw_atpg::fault_list::enumerate_stuck_at;
use sinw_atpg::faultsim::simulate_faults;
use sinw_atpg::podem::{generate_test, PodemConfig};
use sinw_device::model::{Bias, TigFet};
use sinw_device::table::TigTable;
use sinw_switch::gate::Circuit;
use std::hint::black_box;

fn table_resolution_report() {
    // Accuracy of coarse vs standard table against the direct model.
    let fet = TigFet::ideal();
    let coarse = TigTable::build_coarse(&fet);
    let standard = TigTable::build_standard(&fet);
    let mut worst_coarse = 0.0f64;
    let mut worst_std = 0.0f64;
    let mut k = 0u32;
    for vcg in [0.3, 0.7, 1.1] {
        for vpg in [0.1, 0.9] {
            for vds in [0.35, 0.95] {
                let bias = Bias {
                    v_cg: vcg,
                    v_pgs: vpg,
                    v_pgd: vpg,
                    v_ds: vds,
                };
                let exact = fet.drain_current(bias);
                // Compare against the ON-current scale: relative error on
                // near-zero off currents is meaningless for delay/leakage
                // purposes (both are decades below the observables).
                let scale = exact.abs().max(1e-8);
                worst_coarse = worst_coarse.max(((coarse.current(bias) - exact) / scale).abs());
                worst_std = worst_std.max(((standard.current(bias) - exact) / scale).abs());
                k += 1;
            }
        }
    }
    println!(
        "\nAblation: table resolution over {k} off-grid biases — worst relative error: coarse (9x9x9x7) {:.1}%, standard (13^4) {:.1}%",
        100.0 * worst_coarse,
        100.0 * worst_std
    );
}

fn bench(c: &mut Criterion) {
    table_resolution_report();

    let circuit = Circuit::ripple_adder(4);
    let faults = enumerate_stuck_at(&circuit);
    let patterns: Vec<Vec<bool>> = {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        (0..128)
            .map(|_| {
                (0..circuit.primary_inputs().len())
                    .map(|_| rng.gen_bool(0.5))
                    .collect()
            })
            .collect()
    };

    c.bench_function("ablation/faultsim_parallel64", |b| {
        b.iter(|| black_box(simulate_faults(&circuit, &faults, &patterns, false)));
    });
    c.bench_function("ablation/faultsim_parallel_dropping", |b| {
        b.iter(|| black_box(simulate_faults(&circuit, &faults, &patterns, true)));
    });

    let config = PodemConfig::default();
    c.bench_function("ablation/podem_full_universe", |b| {
        b.iter(|| {
            for f in &faults {
                black_box(generate_test(&circuit, *f, &config));
            }
        });
    });
    let collapsed = collapse(&circuit, &faults);
    println!(
        "Ablation: collapsing leaves the XOR/MAJ adder universe at {} -> {} faults \
         (no within-cell equivalences in binate cells)",
        faults.len(),
        collapsed.representatives.len()
    );
    let c17 = Circuit::c17();
    let c17_faults = enumerate_stuck_at(&c17);
    let c17_collapsed = collapse(&c17, &c17_faults);
    println!(
        "Ablation: collapsing shrinks the NAND-based c17 universe {} -> {} faults",
        c17_faults.len(),
        c17_collapsed.representatives.len()
    );
    c.bench_function("ablation/podem_collapsed", |b| {
        b.iter(|| {
            for f in &collapsed.representatives {
                black_box(generate_test(&circuit, *f, &config));
            }
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
