//! The driver shared by the two timed sweep binaries, `exp_lease_churn` and
//! `exp_counters`: the sizing table and command line, the timed thread loop,
//! the forked start-gated loop, the untimed telemetry pass and the
//! `BENCH_*.json` / `OBS_*.json` writers. Each binary supplies only its
//! variants, its constants and its correctness checks.

use crate::{enforce_gate, fmt1, parse_baseline_rows};
use shmem::adversary::{ArrivalSchedule, ExecConfig};
use shmem::executor::{ExecutionOutcome, Executor};
use shmem::process::ProcessCtx;
use shmem::steps::StepStats;
use std::time::{Duration, Instant};

/// The sizing a sweep binary's flags select.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No flag: the full sweep at 2/4/8/16 workers, written to
    /// `BENCH_<experiment>.json`.
    Full,
    /// `--smoke`: a tenth of the operations at 2/4 workers, a seconds-long
    /// CI-sized run that leaves the baseline alone.
    Smoke,
    /// `--gate`: the full per-execution workload, so rows are comparable to
    /// the committed baseline, with three times the executions: the gate
    /// compares the *best* replay per row, and a larger best-of-N keeps the
    /// scheduler's worst moods out of the verdict.
    Gate,
}

/// Run sizing of one sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizing {
    /// Operations each worker issues per execution.
    pub ops_per_worker: usize,
    /// Timed executions per row.
    pub executions: usize,
    /// The worker counts swept.
    pub threads: &'static [usize],
    /// The selected mode.
    pub mode: Mode,
    /// `--no-obs`: skip the telemetry pass. The overhead gate
    /// (`tools/obs_overhead.sh`) compares telemetry-on and obs-off builds
    /// over *identical* work, so the bound recording of the telemetry pass
    /// must not leak into the comparison.
    pub no_obs: bool,
}

impl Sizing {
    /// The sizing of `mode`, from a binary's full-sweep constants:
    /// operations per worker, executions per row, and smoke executions.
    fn new(mode: Mode, (ops, executions, smoke_executions): (usize, usize, usize)) -> Self {
        let (ops_per_worker, executions, threads): (_, _, &[usize]) = match mode {
            Mode::Full => (ops, executions, &[2, 4, 8, 16]),
            Mode::Smoke => (ops / 10, smoke_executions, &[2, 4]),
            Mode::Gate => (ops, 3 * executions, &[2, 4, 8, 16]),
        };
        Sizing {
            ops_per_worker,
            executions,
            threads,
            mode,
            no_obs: false,
        }
    }

    /// The sizing the process arguments select. `--gate` wins over
    /// `--smoke`: a smoke-sized replay against the committed full-sized
    /// baseline would compare different workloads.
    pub fn from_args(full: (usize, usize, usize)) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let flag = |name: &str| args.iter().any(|arg| arg == name);
        let mode = match (flag("--gate"), flag("--smoke")) {
            (true, _) => Mode::Gate,
            (false, true) => Mode::Smoke,
            (false, false) => Mode::Full,
        };
        Sizing {
            no_obs: flag("--no-obs"),
            ..Sizing::new(mode, full)
        }
    }

    /// Finishes the run after the timed sweep. `--gate` replays `rows`
    /// against the committed `BENCH_<experiment>.json` with [`enforce_gate`],
    /// keyed by their `gate_keys` columns as the gate reads them back. A full
    /// run writes `header` and `rows` (under `rows_key`) to that file. Then,
    /// unless `--gate` or `--no-obs`, the telemetry pass `observe` writes its
    /// rows to `OBS_<experiment>.json`.
    pub fn finish(
        &self,
        experiment: &str,
        gate_keys: &[&str],
        header: JsonRow,
        rows_key: &str,
        rows: impl Iterator<Item = (JsonRow, Timing)>,
        observe: impl FnOnce(&Sizing) -> Vec<JsonRow>,
    ) {
        let bench = format!("BENCH_{experiment}.json");
        match self.mode {
            Mode::Gate => {
                let samples: Vec<(Vec<String>, f64)> = rows
                    .map(|(row, timing)| (row.keys(gate_keys), timing.min_ns_per_op))
                    .collect();
                return enforce_gate(&bench, gate_keys, &samples);
            }
            Mode::Full => {
                let rows = rows.map(|(row, _)| row.line());
                write(&bench, header.document(experiment, rows_key, rows));
            }
            Mode::Smoke => println!("smoke mode: {bench} left untouched"),
        }
        // The telemetry pass runs after every timed execution has finished:
        // binding a sink flips the process-wide enable flag, so the order
        // keeps the timed sweep on the never-enabled fast path.
        let obs = format!("OBS_{experiment}.json");
        if self.no_obs {
            println!("--no-obs: {obs} left untouched");
        } else {
            let header = JsonRow::new().raw("ops_per_worker", self.ops_per_worker);
            let rows = observe(self).into_iter().map(|row| row.line());
            write(&obs, header.document(experiment, "rows", rows));
        }
    }
}

fn write(path: &str, json: String) {
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(error) => eprintln!("failed to write {path}: {error}"),
    }
}

/// Per-operation wall time of a row's timed executions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Mean over executions of each execution's ns/op.
    pub mean_ns_per_op: f64,
    /// The best execution's ns/op: what the gate compares.
    pub min_ns_per_op: f64,
    /// The worst execution's ns/op.
    pub max_ns_per_op: f64,
}

impl Timing {
    /// Folds per-execution wall times of `ops` operations each.
    fn of(elapsed: &[Duration], ops: usize) -> Timing {
        let per_op = elapsed.iter().map(|t| t.as_nanos() as f64 / ops as f64);
        Timing {
            mean_ns_per_op: per_op.clone().sum::<f64>() / elapsed.len() as f64,
            min_ns_per_op: per_op.clone().fold(f64::INFINITY, f64::min),
            max_ns_per_op: per_op.fold(0.0, f64::max),
        }
    }

    /// The mean, min and max ns/op table cells.
    pub fn cells(&self) -> [String; 3] {
        [self.mean_ns_per_op, self.min_ns_per_op, self.max_ns_per_op].map(fmt1)
    }
}

/// One execution of `threads` workers, each issuing `call` `calls` times
/// (recording into its own stripe of `stripes`, if given) and returning the
/// largest result.
fn run_workers<T: Sync, R: Ord + Default + Send>(
    config: ExecConfig,
    threads: usize,
    calls: usize,
    state: &T,
    call: impl Fn(&T, &mut ProcessCtx) -> R + Sync,
    stripes: Option<&std::sync::Arc<obs::MetricsSlab>>,
) -> ExecutionOutcome<R> {
    Executor::new(config).run(threads, |ctx| {
        if let Some(slab) = stripes {
            obs::bind_metrics(slab.writer(ctx.id().as_usize()));
        }
        let mut worst = R::default();
        for _ in 0..calls {
            worst = worst.max(call(state, ctx));
        }
        if stripes.is_some() {
            obs::unbind();
        }
        worst
    })
}

/// Times `sizing.executions` threaded executions of one row: execution `e`
/// (seed `e`, `arrival`) runs `threads` workers, each issuing `call` on the
/// state `setup` built for it until it has done `ops_per_worker` operations,
/// `ops_per_call` per call. The window is the whole `Executor::run`, thread
/// spawn and join included; `check` then sees the state and the outcome.
pub fn time_threads<T: Sync, R: Ord + Default + Send>(
    sizing: &Sizing,
    threads: usize,
    ops_per_call: usize,
    arrival: ArrivalSchedule,
    mut setup: impl FnMut() -> T,
    call: impl Fn(&T, &mut ProcessCtx) -> R + Sync,
    mut check: impl FnMut(T, ExecutionOutcome<R>),
) -> Timing {
    let calls = sizing.ops_per_worker / ops_per_call;
    let mut elapsed = Vec::with_capacity(sizing.executions);
    for execution in 0..sizing.executions {
        let state = setup();
        let config = ExecConfig::new(execution as u64).with_arrival(arrival);
        let start = Instant::now();
        let outcome = run_workers(config, threads, calls, &state, &call, None);
        elapsed.push(start.elapsed());
        check(state, outcome);
    }
    Timing::of(&elapsed, threads * calls * ops_per_call)
}

/// The untimed telemetry execution of a threaded single-op row: workers
/// issue `call` as in [`time_threads`] (seed 0, simultaneous arrival), each
/// bound to its own stripe of a fresh heap [`MetricsSlab`](obs::MetricsSlab).
/// Returns the merged snapshot and the execution's step totals.
pub fn observe_threads<T: Sync, R: Ord + Default + Send>(
    sizing: &Sizing,
    threads: usize,
    state: &T,
    call: impl Fn(&T, &mut ProcessCtx) -> R + Sync,
) -> (obs::Snapshot, StepStats) {
    let slab = obs::MetricsSlab::heap(threads);
    let calls = sizing.ops_per_worker;
    let outcome = run_workers(ExecConfig::new(0), threads, calls, state, call, Some(&slab));
    (obs::Snapshot::collect(&slab), outcome.total_steps())
}

/// Times `sizing.executions` executions of `processes` forked children
/// sharing the state `setup` builds for each on `MAP_SHARED` memory. Child
/// `w` of execution `e` runs `child` with a pre-fork context (id `w`, seed
/// `e × processes + w`); it calls the start gate it is handed, where the
/// window opens, and returns `N` report words. The window closes at the
/// last child's done signal; once all exited cleanly, `check` sees the
/// state and every child's report words.
#[cfg(all(unix, not(miri)))]
pub fn time_forked<T, const N: usize>(
    sizing: &Sizing,
    processes: usize,
    mut setup: impl FnMut() -> T,
    child: impl Fn(&T, &mut ProcessCtx, &dyn Fn()) -> [u64; N],
    mut check: impl FnMut(T, &[[u64; N]]),
) -> Timing {
    use shmem::arena::Arena;
    use shmem::process::ProcessId;
    use shmem::procs::{fork_child, wait_for_clean_exit};
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

    // Barrier words + report words, each allocation on its own 64-byte line.
    let arena = Arena::shared((processes * N + 3) * 64).expect("anonymous MAP_SHARED arena");
    let [ready, start, done] = [(); 3].map(|()| arena.alloc::<AtomicU64>().pin(&arena));
    let reports = arena.alloc_slice::<AtomicU64>(processes * N).pin(&arena);
    let gate = || {
        ready.fetch_add(1, SeqCst);
        while start.load(SeqCst) == 0 {
            std::hint::spin_loop();
        }
    };
    let mut elapsed = Vec::with_capacity(sizing.executions);
    for execution in 0..sizing.executions {
        let state = setup();
        for word in [&ready, &start, &done] {
            word.store(0, SeqCst);
        }
        let pids: Vec<i32> = (0..processes)
            .map(|worker| {
                // Pre-fork context (fork discipline: children only touch
                // atomics on the shared mapping).
                let seed = (execution * processes + worker) as u64;
                let mut ctx = ProcessCtx::new(ProcessId::new(worker), seed);
                fork_child(|| {
                    let words = child(&state, &mut ctx, &gate);
                    for (report, word) in reports[worker * N..].iter().zip(words) {
                        report.store(word, SeqCst);
                    }
                    done.fetch_add(1, SeqCst);
                })
            })
            .collect();
        // Wait until every child is spinning on the gate, so fork and child
        // startup latency never lands inside the timed window.
        while ready.load(SeqCst) < processes as u64 {
            std::thread::yield_now();
        }
        let timer = Instant::now();
        start.store(1, SeqCst);
        // Yield, don't spin: the parent must not steal a core from the
        // children it is timing.
        while done.load(SeqCst) < processes as u64 {
            std::thread::yield_now();
        }
        elapsed.push(timer.elapsed());
        for pid in pids {
            wait_for_clean_exit(pid);
        }
        let words: Vec<[u64; N]> = reports
            .chunks(N)
            .map(|report| std::array::from_fn(|i| report[i].load(SeqCst)))
            .collect();
        check(state, &words);
    }
    Timing::of(&elapsed, processes * sizing.ops_per_worker)
}

/// One JSON object rendered on a single line, `{"key": value, ...}`, fields
/// in insertion order: the row format of every `BENCH_*.json` and
/// `OBS_*.json` file, and the only format [`parse_baseline_rows`] reads.
#[derive(Clone, Debug, Default)]
pub struct JsonRow {
    fields: Vec<(String, String)>,
}

impl JsonRow {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a field written as-is: an integer, or JSON rendered elsewhere.
    pub fn raw(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a string field (the value must need no escaping).
    pub fn text(self, key: &str, value: &str) -> Self {
        self.raw(key, format_args!("\"{value}\""))
    }

    /// Adds a float field with one decimal place.
    pub fn fixed1(self, key: &str, value: f64) -> Self {
        self.raw(key, fmt1(value))
    }

    /// Adds the `mean_ns_per_op`, `min_ns_per_op` and `max_ns_per_op`
    /// fields.
    pub fn timing(self, timing: &Timing) -> Self {
        self.fixed1("mean_ns_per_op", timing.mean_ns_per_op)
            .fixed1("min_ns_per_op", timing.min_ns_per_op)
            .fixed1("max_ns_per_op", timing.max_ns_per_op)
    }

    /// The single-line rendering.
    pub(crate) fn line(&self) -> String {
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The values of `keys` as the gate's reader reads them back.
    pub(crate) fn keys(&self, keys: &[&str]) -> Vec<String> {
        let row = &parse_baseline_rows(&self.line())[0];
        keys.iter()
            .map(|key| row.get(key).unwrap_or("?").to_string())
            .collect()
    }

    /// A whole document: `experiment` and these fields one per line, then
    /// the single-line `rows` under `rows_key`, one per line.
    pub(crate) fn document(
        &self,
        experiment: &str,
        rows_key: &str,
        rows: impl Iterator<Item = String>,
    ) -> String {
        let mut json = format!("{{\n  \"experiment\": \"{experiment}\",\n");
        for (key, value) in &self.fields {
            json += &format!("  \"{key}\": {value},\n");
        }
        let rows: Vec<String> = rows.map(|row| format!("    {row}")).collect();
        json + &format!("  \"{rows_key}\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
    }
}

/// A [`StepStats`] as a single-line JSON object, zero entries dropped.
pub fn steps_json(steps: &StepStats) -> String {
    let nonzero = steps.as_pairs().into_iter().filter(|(_, value)| *value > 0);
    nonzero
        .fold(JsonRow::new(), |row, (name, value)| row.raw(name, value))
        .line()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sizing_table_derives_smoke_and_gate_from_full() {
        let shape = |mode| {
            let sizing = Sizing::new(mode, (2_000, 5, 2));
            (sizing.ops_per_worker, sizing.executions, sizing.threads)
        };
        assert_eq!(shape(Mode::Full), (2_000, 5, &[2, 4, 8, 16][..]));
        assert_eq!(shape(Mode::Smoke), (200, 2, &[2, 4][..]));
        assert_eq!(shape(Mode::Gate), (2_000, 15, &[2, 4, 8, 16][..]));
    }

    #[test]
    fn timing_folds_executions_per_op() {
        let timing = Timing::of(&[100, 300, 200].map(Duration::from_nanos), 10);
        assert_eq!(timing.cells(), ["20.0", "10.0", "30.0"]);
    }

    #[test]
    fn documents_put_one_row_per_line() {
        let rows = [JsonRow::new().raw("a", 1).line(), "{}".into()].into_iter();
        let json = JsonRow::new().raw("runs", 3).document("demo", "rows", rows);
        let expected = "{\n  \"experiment\": \"demo\",\n  \"runs\": 3,\n  \"rows\": [\n    \
                        {\"a\": 1},\n    {}\n  ]\n}\n";
        assert_eq!(json, expected);
        let mut steps = StepStats::default();
        (steps.reads, steps.balancer_toggles) = (4, 2);
        let expected = "{\"reads\": 4, \"balancer_toggles\": 2}";
        assert_eq!(steps_json(&steps), expected);
    }
}
