//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lease_churn|lease_unbatched|lease_hold_procs|count_monotone|count_cascade> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload on at most `nproc` (and at most two)
//! workers for `--seconds` of measured window, checks every result, and
//! prints a table followed by one JSON line: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics of a traced
//! run (spans around each layer's public calls) together with the tracing
//! overhead measured against interleaved untraced rounds.

mod board;
mod checks;
mod equivalence;
mod sys;
mod trace;
mod workloads;

use std::time::{Duration, Instant};

use board::WorkerOut;
use trace::{Layer, LayerTotals, LAYERS};
use workloads::{Round, RoundOut, Workload};

/// Workers per run: the paper's smallest interesting contention, and never
/// more than the host's cores.
const MAX_WORKERS: usize = 2;
/// Time-bounded workloads split the measured time into this many rounds,
/// each with its own set-up, so that throughput and `setup_s` are medians
/// over rounds.
const TIMED_ROUNDS: u32 = 10;
/// Fixed-work workloads repeat rounds until the measured time is reached,
/// and run at least this many.
const MIN_ROUNDS: usize = 5;
/// No new round starts after this much wall time.
const WALL_LIMIT: Duration = Duration::from_secs(150);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let parsed: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(1..=600).contains(&parsed) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    sys::now_ns(); // pins the clock epoch before any fork
    let args = parse_args().unwrap_or_else(|error| {
        eprintln!("perfbench: {error}");
        eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
        std::process::exit(2);
    });
    let host = sys::Host::probe();
    let clock_read_ns = sys::clock_read_ns();
    let workers = host.nproc.clamp(1, MAX_WORKERS);
    println!(
        "host: nproc={} cpu={:?} kernel={} clocksource={} workers={} workers_per_core={:.2} clock.read_ns={:.2} seed={}",
        host.nproc,
        host.cpu,
        host.kernel,
        host.clocksource,
        workers,
        workers as f64 / host.nproc as f64,
        clock_read_ns,
        args.seed
    );

    let mut attempted = 0;
    let mut failed = 0;
    if args.trace {
        attempted += 1;
        match equivalence::check(args.seed) {
            Ok(()) => {
                println!("equivalence: hand-composed traced objects match the builder defaults")
            }
            Err(error) => {
                println!("equivalence: FAILED: {error}");
                failed += 1;
            }
        }
    }

    let ticks_before = sys::cpu_ticks();
    let rounds = run_rounds(&args, workers);
    let ticks_after = sys::cpu_ticks();
    for (_, round) in &rounds {
        attempted += round
            .outs
            .iter()
            .map(|out| out.ops + out.warmup_ops)
            .sum::<u64>()
            + round.checks;
        failed += round
            .outs
            .iter()
            .map(|out| out.failed + out.panicked)
            .sum::<u64>()
            + round.check_failures;
    }
    let plain: Vec<&RoundOut> = rounds
        .iter()
        .filter(|(traced, _)| !traced)
        .map(|(_, round)| round)
        .collect();
    let traced: Vec<&RoundOut> = rounds
        .iter()
        .filter(|(traced, _)| *traced)
        .map(|(_, round)| round)
        .collect();

    println!(
        "workload: {} ({} rounds, {} workers, {:?} launch)",
        args.workload.name(),
        rounds.len(),
        workers,
        args.workload.launch()
    );
    println!(
        "steal_frac: {:.4} (host time stolen from this VM's CPUs during the run)",
        ratio(
            ticks_after.0 - ticks_before.0,
            ticks_after.1 - ticks_before.1
        )
    );
    println!(
        "failed_frac: {} ({failed} of {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    let metrics = if args.trace {
        per_layer(&plain, &traced, clock_read_ns)
    } else {
        end_to_end(args.workload, &plain)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics
            .iter()
            .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", finite(*value)))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

/// Runs the workload's rounds; in a traced run, traced and untraced rounds
/// alternate so that the tracing overhead is measured under the same drift.
fn run_rounds(args: &Args, workers: usize) -> Vec<(bool, RoundOut)> {
    let started = Instant::now();
    let measure = Duration::from_secs(args.seconds);
    let per_round = |traced: bool, index: u64| Round {
        seed: args.seed,
        index,
        workers,
        traced,
        window: measure / TIMED_ROUNDS / if args.trace { 2 } else { 1 },
    };
    let mut rounds = Vec::new();
    let mut measured = Duration::ZERO;
    let passes = if args.trace { 2 } else { 1 };
    loop {
        let done = if args.workload.fixed_work() {
            (measured >= measure && rounds.len() >= MIN_ROUNDS * passes)
                || started.elapsed() > WALL_LIMIT
        } else {
            rounds.len() >= TIMED_ROUNDS as usize * passes
        };
        if done {
            return rounds;
        }
        let index = rounds.len() as u64;
        let traced = args.trace && index % 2 == 1;
        let round = args.workload.run_round(&per_round(traced, index));
        measured += Duration::from_nanos(round.timing.window_ns);
        rounds.push((traced, round));
    }
}

type Metric = (&'static str, f64, &'static str);

fn sum(rounds: &[&RoundOut], field: impl Fn(&WorkerOut) -> u64) -> u64 {
    rounds.iter().flat_map(|round| &round.outs).map(field).sum()
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn window_s(rounds: &[&RoundOut]) -> f64 {
    rounds
        .iter()
        .map(|round| round.timing.window_ns)
        .sum::<u64>() as f64
        / 1e9
}

fn ops_per_s(rounds: &[&RoundOut]) -> f64 {
    sum(rounds, |out| out.ops) as f64 / window_s(rounds)
}

/// Throughput as the median over rounds, so that one disturbed round does
/// not move it.
fn median_ops_per_s(rounds: &[&RoundOut]) -> f64 {
    median(rounds.iter().map(|round| ops_per_s(&[round])).collect())
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `p` quantile of sorted samples, as the mean of the samples ranked
/// within `band` of it: not pinned to the clock's 1 ns grid, so it moves
/// with the distribution rather than jumping between grid points.
fn percentile(sorted: &[u64], p: f64, band: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = |q: f64| ((q * sorted.len() as f64) as usize).min(sorted.len() - 1);
    let (low, high) = (rank(p - band), rank(p + band));
    let window = &sorted[low..=high];
    window.iter().sum::<u64>() as f64 / window.len() as f64
}

/// Samples are split, in the order they were taken, into this many blocks;
/// a percentile is the median of the blocks' percentiles, so that a burst of
/// noise (such as the host stealing a vCPU for milliseconds, which lands in
/// the tail of every op it overlaps) moves a few blocks and not the result.
const BLOCKS: usize = 20;

fn blocked_percentile(samples: &[u64], p: f64, band: f64) -> f64 {
    let block = samples.len().div_ceil(BLOCKS).max(1);
    median(
        samples
            .chunks(block)
            .map(|chunk| {
                let mut sorted = chunk.to_vec();
                sorted.sort_unstable();
                percentile(&sorted, p, band)
            })
            .collect(),
    )
}

fn end_to_end(workload: Workload, rounds: &[&RoundOut]) -> Vec<Metric> {
    let samples: Vec<u64> = rounds
        .iter()
        .flat_map(|round| round.samples.iter().copied())
        .collect();
    let ops = sum(rounds, |out| out.ops);
    let children_kib = if workload.launch() == board::Launch::Forks {
        rounds
            .iter()
            .map(|round| round.outs.iter().map(|out| out.peak_rss_kib).sum::<u64>())
            .max()
            .unwrap_or(0)
    } else {
        0
    };
    let metrics = vec![
        ("ops_per_s", median_ops_per_s(rounds), "ops/s"),
        ("op_p50_ns", blocked_percentile(&samples, 0.50, 0.005), "ns"),
        ("op_p99_ns", blocked_percentile(&samples, 0.99, 0.001), "ns"),
        (
            "steps_per_op",
            ratio(sum(rounds, |out| out.steps), ops),
            "steps",
        ),
        (
            "max_name",
            rounds.iter().map(|round| round.max_name).max().unwrap_or(0) as f64,
            "name",
        ),
        (
            "peak_rss_mb",
            (sys::peak_rss_kib() + children_kib) as f64 / 1024.0,
            "MiB",
        ),
        (
            "setup_s",
            median(
                rounds
                    .iter()
                    .map(|round| round.timing.setup_ns as f64 / 1e9)
                    .collect(),
            ),
            "s",
        ),
    ];
    for (name, value, unit) in &metrics {
        let note = if name.starts_with("op_p") {
            format!(
                "  (n={} sampled ops, 1 in {})",
                samples.len(),
                workload.sample_every()
            )
        } else {
            String::new()
        };
        println!("  {name:<14} {value:>16.3} {unit}{note}");
    }
    println!("  window         {:>16.3} s measured", window_s(rounds));
    println!(
        "  rounds setup_ms {}",
        rounds
            .iter()
            .map(|round| format!("{:.2}", round.timing.setup_ns as f64 / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "  rounds ops/s   {}",
        rounds
            .iter()
            .map(|round| format!("{:.4e}", ops_per_s(&[round])))
            .collect::<Vec<_>>()
            .join(" ")
    );
    metrics
}

fn per_layer(plain: &[&RoundOut], traced: &[&RoundOut], clock_read_ns: f64) -> Vec<Metric> {
    let mut layers = [LayerTotals::default(); LAYERS];
    for out in traced.iter().flat_map(|round| &round.outs) {
        for (total, layer) in layers.iter_mut().zip(&out.layers) {
            total.add(layer);
        }
    }
    let at = |layer: Layer| layers[layer as usize];
    let ops = sum(traced, |out| out.ops);
    let sampled_ops = sum(traced, |out| out.sampled_ops);
    let obs = |name: &str| {
        traced
            .iter()
            .filter_map(|round| round.snapshot.as_ref())
            .map(|snapshot| snapshot.counter(name))
            .sum::<u64>()
    };
    let self_per_op = |layer: Layer| ratio(at(layer).self_ns, sampled_ops);
    let span_per_call = |layer: Layer| ratio(at(layer).span_ns, at(layer).sampled);
    let per_call = |value: u64, layer: Layer| ratio(value, at(layer).calls);
    let op_ns = ratio(sum(traced, |out| out.sampled_op_ns), sampled_ops);
    let layer_self_ns: f64 = trace::ALL_LAYERS
        .iter()
        .map(|&layer| self_per_op(layer))
        .sum();
    let renaming_window_calls = at(Layer::Renaming).calls;
    let rss_growth: i64 = traced
        .iter()
        .map(|round| round.timing.rss_close as i64 - round.timing.rss_open as i64)
        .sum();
    let fresh_calls = sum(traced, |out| {
        out.warmup_fresh_calls + out.layers[Layer::Fresh as usize].calls
    });
    let batched_leases = if at(Layer::Batched).calls > 0 { ops } else { 0 };

    println!("  span ledger (self time per traced op, over {sampled_ops} sampled ops):");
    for layer in trace::ALL_LAYERS {
        let totals = at(layer);
        if totals.calls > 0 {
            println!(
                "    {:<18} {:>10.1} ns/op  {:>8.3} calls/op",
                format!("{layer:?}"),
                self_per_op(layer),
                ratio(totals.calls, ops)
            );
        }
    }
    println!(
        "    {:<18} {:>10.1} ns/op",
        "bench (residual)",
        op_ns - layer_self_ns
    );
    println!("    {:<18} {:>10.1} ns/op", "traced op", op_ns);

    let metrics = vec![
        ("batched.self_ns", self_per_op(Layer::Batched), "ns"),
        (
            "batched.stash_hit_frac",
            ratio(obs("batched.stash_hit"), batched_leases),
            "ratio",
        ),
        ("recycler.self_ns", self_per_op(Layer::Recycler), "ns"),
        (
            "recycler.calls_per_op",
            ratio(at(Layer::Recycler).calls, ops),
            "calls",
        ),
        (
            "recycler.admission_retries_per_op",
            ratio(obs("recycler.admission_retry"), ops),
            "count",
        ),
        (
            "free_list.pops_per_op",
            ratio(obs("free_list.pop"), ops),
            "count",
        ),
        (
            "free_list.pushes_per_op",
            ratio(obs("free_list.push"), ops),
            "count",
        ),
        (
            "adaptive.fresh_calls",
            ratio(fresh_calls, traced.len() as u64),
            "calls",
        ),
        (
            "robust.acquire_ns",
            span_per_call(Layer::RobustAcquire),
            "ns",
        ),
        (
            "robust.release_ns",
            span_per_call(Layer::RobustRelease),
            "ns",
        ),
        (
            "robust.reads_per_acquire",
            per_call(at(Layer::RobustAcquire).reads, Layer::RobustAcquire),
            "reads",
        ),
        (
            "robust.cas_retries_per_op",
            ratio(obs("robust.cas_retry"), ops),
            "count",
        ),
        ("renaming.acquire_ns", span_per_call(Layer::Renaming), "ns"),
        (
            "renaming.steps_per_call",
            per_call(at(Layer::Renaming).steps, Layer::Renaming),
            "steps",
        ),
        (
            "renaming.tas_per_call",
            per_call(at(Layer::Renaming).tas, Layer::Renaming),
            "count",
        ),
        (
            "renaming.coin_flips_per_call",
            per_call(at(Layer::Renaming).coin_flips, Layer::Renaming),
            "steps",
        ),
        (
            "temp_name.splitter_depth",
            per_call(at(Layer::Renaming).splitter_depth, Layer::Renaming),
            "depth",
        ),
        (
            "adaptive.comparators_played",
            per_call(at(Layer::Renaming).comparators, Layer::Renaming),
            "count",
        ),
        (
            "renaming.rss_bytes_per_call",
            if renaming_window_calls == 0 {
                0.0
            } else {
                rss_growth as f64 / renaming_window_calls as f64
            },
            "bytes",
        ),
        ("maxreg.write_ns", span_per_call(Layer::MaxWrite), "ns"),
        ("maxreg.read_ns", span_per_call(Layer::MaxRead), "ns"),
        (
            "maxreg.steps_per_write",
            per_call(at(Layer::MaxWrite).steps, Layer::MaxWrite),
            "steps",
        ),
        (
            "prism.eliminated_frac",
            ratio(
                2 * traced
                    .iter()
                    .map(|round| round.eliminated_pairs)
                    .sum::<u64>(),
                traced.iter().map(|round| round.increments).sum(),
            ),
            "ratio",
        ),
        (
            "balancer.toggles_per_op",
            ratio(sum(traced, |out| out.balancer_toggles), ops),
            "count",
        ),
        (
            "cascade.width_mean",
            ratio(
                sum(traced, |out| out.width_sum),
                sum(traced, |out| out.width_samples),
            ),
            "wires",
        ),
        (
            "cascade.increment_ns",
            span_per_call(Layer::CascadeIncrement),
            "ns",
        ),
        ("cascade.read_ns", span_per_call(Layer::CascadeRead), "ns"),
        ("trace.op_ns", op_ns, "ns"),
        ("trace.layer_self_ns", layer_self_ns, "ns"),
        ("bench.self_ns", op_ns - layer_self_ns, "ns"),
        (
            "trace.overhead_frac",
            1.0 - median_ops_per_s(traced) / median_ops_per_s(plain),
            "ratio",
        ),
        ("clock.read_ns", clock_read_ns, "ns"),
    ];
    for (name, value, unit) in &metrics {
        println!("  {name:<34} {value:>14.3} {unit}");
    }
    metrics
}
