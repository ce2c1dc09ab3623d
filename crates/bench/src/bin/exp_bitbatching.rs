//! Experiments E1 + E2: BitBatching step complexity (Lemma 1, Corollaries 1–2).
//!
//! For each `n`, `n` processes rename through a BitBatching object under a
//! simultaneous-arrival schedule. Reported per `n`: probes (test-and-set
//! objects competed in) per process, register steps per process, totals, and
//! the fraction of acquisitions that fell through to the sequential second
//! stage (Lemma 1 predicts essentially none).
//!
//! E2 compares Corollary 2's `n·log n` total against total probes (E1's
//! unit: one unit-cost test-and-set each), not against TAS invocations.
//!
//! Run with `cargo run --release -p renaming-bench --bin exp_bitbatching`.

use adaptive_renaming::bit_batching::BitBatchingRenaming;
use adaptive_renaming::traits::assert_tight_namespace;
use renaming_bench::{fmt1, log2, Aggregate, Table};
use shmem::adversary::ExecConfig;
use shmem::executor::Executor;
use std::sync::Arc;
use tas::ratrace::RatRaceTas;

fn main() {
    let seeds: Vec<u64> = (0..3).collect();
    let mut per_process = Table::new(
        "E1 — BitBatching per-process cost (full load, mean over seeds)",
        &[
            "n",
            "probes/proc (mean)",
            "probes/proc (max)",
            "3·log²n (paper bound)",
            "steps/proc (mean)",
            "steps/proc (max)",
            "stage-2 fraction",
        ],
    );
    let mut totals = Table::new(
        "E2 — BitBatching total cost (full load, mean over seeds)",
        &[
            "n",
            "total probes",
            "n·log n (Cor. 2, in probes)",
            "TAS invocations (incl. RatRace internals)",
            "total register steps",
            "tight namespace",
        ],
    );

    for n in [64usize, 128, 256, 512] {
        let mut probes_mean = 0.0;
        let mut probes_max = 0u64;
        let mut steps_mean = 0.0;
        let mut steps_max = 0u64;
        let mut stage_two = 0usize;
        let mut total_ops = 0usize;
        let mut total_probes = 0.0;
        let mut total_tas = 0.0;
        let mut total_steps = 0.0;
        let mut always_tight = true;

        for &seed in &seeds {
            let renaming = Arc::new(BitBatchingRenaming::with_factory(n, RatRaceTas::new));
            let outcome = Executor::new(ExecConfig::new(seed)).run(n, {
                let renaming = Arc::clone(&renaming);
                move |ctx| renaming.acquire_with_report(ctx).expect("full load fits")
            });
            let reports = outcome.results();
            always_tight &=
                assert_tight_namespace(&reports.iter().map(|r| r.name).collect::<Vec<_>>()).is_ok();

            let probe_agg = Aggregate::of(reports.iter().map(|r| r.probes as u64));
            let step_agg = Aggregate::of_register_steps(&outcome.per_process_steps());
            probes_mean += probe_agg.mean;
            probes_max = probes_max.max(probe_agg.max);
            steps_mean += step_agg.mean;
            steps_max = steps_max.max(step_agg.max);
            stage_two += reports.iter().filter(|r| r.entered_second_stage).count();
            total_ops += reports.len();
            total_probes += reports.iter().map(|r| r.probes as f64).sum::<f64>();
            total_tas += outcome.total_steps().tas_invocations as f64;
            total_steps += outcome.total_steps().total() as f64;
        }

        let runs = seeds.len() as f64;
        per_process.row(vec![
            n.to_string(),
            fmt1(probes_mean / runs),
            probes_max.to_string(),
            fmt1(3.0 * log2(n) * log2(n)),
            fmt1(steps_mean / runs),
            steps_max.to_string(),
            format!("{stage_two}/{total_ops}"),
        ]);
        totals.row(vec![
            n.to_string(),
            fmt1(total_probes / runs),
            fmt1(n as f64 * log2(n)),
            fmt1(total_tas / runs),
            fmt1(total_steps / runs),
            if always_tight {
                "yes".into()
            } else {
                "VIOLATED".into()
            },
        ]);
    }

    per_process.print();
    totals.print();
}
