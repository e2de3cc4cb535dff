//! End-to-end and per-layer benchmark of loosedb served over loopback.
//!
//! ```text
//! loosedb-perfbench --workload <browse-hot|query-cold|edit-durable> --seed <n>
//!                   --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! One process runs one workload: it builds the workload's world from
//! the seed, serves it with an in-process `loosedb_serve::Server`, and
//! drives it from one client session, closed loop, over loopback. With
//! `--trace 0` it measures end-to-end latency per operation kind; with
//! `--trace 1` it replays the run against embedded copies of each layer
//! and reports per-layer numbers instead. End-to-end times are CPU times
//! scaled by a yardstick (see [`clock`]). Every run checks the served
//! answers; the last line of standard output is one JSON object.

mod checks;
mod clock;
mod report;
mod served;
mod stream;
mod trace;
mod world;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use clock::Yardstick;
use report::{median, quantile, ratio, Metric};
use served::Instance;
use stream::{Expect, Kind, Op, Step, Stream, Workload};
use world::Model;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Query texts of the stream compared with the reference path.
const REFERENCE_SAMPLE: usize = 24;

/// Probes of the warm-up round checked on an embedded session.
const PROBE_SAMPLE: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

const USAGE: &str = "usage: loosedb-perfbench --workload <browse-hot|query-cold|edit-durable> \
                     --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".perfbench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("integer"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // The whole run shares one CPU with the yardstick (see `clock`). The
    // program keeps the worker pool it would size for the machine.
    if std::env::var_os("LOOSEDB_WORKERS").is_none() {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("LOOSEDB_WORKERS", cpus.to_string());
    }
    if let Err(e) = clock::pin_to_current_cpu() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let work = args.work_dir.join(format!("run-{}", std::process::id()));
    let result = std::fs::create_dir_all(&work).map_err(|e| e.to_string()).and_then(|()| {
        let result = run(&args, &work);
        let _ = std::fs::remove_dir_all(&work);
        // Only removed when no other run is using it.
        let _ = std::fs::remove_dir(&args.work_dir);
        result
    });
    match result {
        Ok(outcome) => {
            for line in &outcome.table {
                println!("{line}");
            }
            report::print_result(
                outcome.errors.is_empty(),
                outcome.tally.attempted(),
                outcome.tally.failed(),
                &outcome.metrics,
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Per-kind latencies and failures of the timed operations: wall-clock
/// and process CPU time of each operation that succeeded.
#[derive(Default)]
struct Tally {
    wall_ns: BTreeMap<Kind, Vec<u64>>,
    cpu_ns: BTreeMap<Kind, Vec<u64>>,
    failed: BTreeMap<Kind, u64>,
}

impl Tally {
    fn attempted(&self) -> u64 {
        self.wall_ns.values().map(|v| v.len() as u64).sum::<u64>() + self.failed()
    }

    fn failed(&self) -> u64 {
        self.failed.values().sum()
    }
}

/// The samples of one kind in microseconds, each multiplied by `scale`.
fn us(samples: &BTreeMap<Kind, Vec<u64>>, kind: Kind, scale: f64) -> Vec<f64> {
    samples
        .get(&kind)
        .map(|v| v.iter().map(|&ns| ns as f64 / 1e3 * scale).collect())
        .unwrap_or_default()
}

struct RunOutcome {
    tally: Tally,
    metrics: Vec<Metric>,
    table: Vec<String>,
    errors: Vec<String>,
}

fn note(errors: &mut Vec<String>, check: Result<(), String>) {
    if let Err(e) = check {
        eprintln!("check failed: {e}");
        errors.push(e);
    }
}

/// Sends each step, timing it when `tally` is given, and checks every
/// answer after its timer has stopped.
fn run_round(
    inst: &mut Instance,
    steps: &[Step],
    model: &mut Model,
    mut tally: Option<&mut Tally>,
    errors: &mut Vec<String>,
) {
    for step in steps {
        let cpu = clock::process_cpu();
        let started = Instant::now();
        let result = served::call(&mut inst.client, &step.op);
        let wall_ns = started.elapsed().as_nanos() as u64;
        let cpu_ns = (clock::process_cpu() - cpu).as_nanos() as u64;
        let kind = step.op.kind();
        match result {
            Ok(outcome) => {
                if let Some(t) = tally.as_deref_mut() {
                    t.wall_ns.entry(kind).or_default().push(wall_ns);
                    t.cpu_ns.entry(kind).or_default().push(cpu_ns);
                }
                note(errors, served::verify(&step.op, &step.expect, &outcome, model));
            }
            Err(e) => {
                eprintln!("operation failed: {:?}: {e}", step.op);
                match tally.as_deref_mut() {
                    Some(t) => *t.failed.entry(kind).or_default() += 1,
                    None => errors.push(format!("untimed operation failed: {e}")),
                }
            }
        }
    }
}

/// Query texts of the stream whose answers do not depend on its writes.
fn reference_sample(workload: Workload, seed: u64) -> Vec<String> {
    let mut preview = Stream::new(workload, seed);
    let mut texts = Vec::new();
    for _ in 0..16 {
        for step in preview.next_round() {
            if let (Op::Query(text), Expect::Any) = (&step.op, &step.expect) {
                if texts.len() < REFERENCE_SAMPLE && !texts.contains(text) {
                    texts.push(text.clone());
                }
            }
        }
    }
    texts
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

fn run(args: &Args, work: &Path) -> Result<RunOutcome, String> {
    let (workload, seed) = (args.workload, args.seed);
    let mut errors = Vec::new();

    // The yardstick is sampled around every set-up and before every
    // timed round; its median over the run scales operation times.
    let mut yardstick = Yardstick::default();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut kept: Option<(Instance, Model)> = None;
    for _ in 0..setups {
        if let Some((previous, _)) = kept.take() {
            previous.shutdown();
        }
        yardstick.sample();
        let cpu = clock::process_cpu();
        let instance =
            served::setup(workload, seed, &work.join("wal")).map_err(|e| e.to_string())?;
        setup_s.push((clock::process_cpu() - cpu).as_secs_f64());
        kept = Some(instance);
    }
    yardstick.sample();
    let (mut inst, mut model) = kept.expect("at least one set-up");

    // Served answers to a sample of the stream's query texts, taken
    // before timing; the reference path answers them after the timed
    // phase, so that its database is not part of the peak memory.
    note(&mut errors, checks::check_model(&mut inst, &model));
    let sample = reference_sample(workload, seed);
    let served_sample = checks::served_answers(&mut inst, &sample)?;

    // One untimed round fills the caches (and the journal's closure);
    // its probes are then checked on an embedded session.
    let mut stream = Stream::new(workload, seed);
    let warm = stream.next_round();
    run_round(&mut inst, &warm, &mut model, None, &mut errors);
    let probes: Vec<String> = warm
        .iter()
        .filter_map(|s| match &s.op {
            Op::Probe(text) => Some(text.clone()),
            _ => None,
        })
        .take(PROBE_SAMPLE)
        .collect();
    note(&mut errors, checks::check_probes(&mut inst, &probes));

    // The timed phase: a fixed number of whole rounds.
    let n_rounds = (args.seconds as f64 * workload.rounds_per_second()).ceil().max(1.0) as usize;
    let before = args.trace.then(|| trace::Registries::of(&inst));
    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    for _ in 0..n_rounds {
        let steps = stream.next_round();
        yardstick.sample();
        run_round(&mut inst, &steps, &mut model, Some(&mut tally), &mut errors);
        if args.trace {
            rounds.push(steps);
        }
    }
    let rss_mb = peak_rss_mb();

    let metrics = match before {
        Some(before) => {
            let after = trace::Registries::of(&inst);
            let served_query =
                tally.wall_ns.get(&Kind::Query).map(Vec::as_slice).unwrap_or_default();
            let mut metrics =
                trace::serve_and_browse(&inst, &rounds, served_query, &before, &after)?;
            metrics.extend(trace::query_layer(&inst, &rounds, &before, &after)?);
            metrics.extend(trace::engine_and_store(&rounds, &before, &after));
            let budget = Duration::from_secs(args.seconds) / 4;
            metrics.extend(trace::journal(workload, seed, &rounds, &work.join("journal"), budget)?);
            metrics
        }
        None => end_to_end(&tally, &setup_s, rss_mb, yardstick.scale()),
    };

    note(&mut errors, checks::check_model(&mut inst, &model));
    note(&mut errors, checks::check_reference(workload, seed, &sample, &served_sample));
    if let Some(dir) = inst.shutdown() {
        note(&mut errors, checks::check_reopen(&dir, &model));
    }

    let mut table = vec![format!(
        "# {} seed {seed}: {} operation(s) timed, set-up {:.3} CPU s (median of {setups}), \
         yardstick {:.1} us (scale {:.3})",
        workload.name(),
        tally.attempted(),
        median(&setup_s),
        yardstick.median_us(),
        yardstick.scale(),
    )];
    for kind in Kind::ALL {
        let (wall, cpu) = (us(&tally.wall_ns, kind, 1.0), us(&tally.cpu_ns, kind, 1.0));
        table.push(format!(
            "# {:<8} attempted {:>7}  failed {:>3}  wall p50 {:>10.1} us  p99 {:>10.1} us  \
             CPU p50 {:>10.1} us",
            kind.name(),
            wall.len() as u64 + tally.failed.get(&kind).copied().unwrap_or(0),
            tally.failed.get(&kind).copied().unwrap_or(0),
            quantile(&wall, 0.5),
            quantile(&wall, 0.99),
            quantile(&cpu, 0.5),
        ));
    }
    for m in &metrics {
        table.push(format!("# {:<28} {:>14.3} {}", m.name, m.value, m.unit));
    }
    Ok(RunOutcome { tally, metrics, table, errors })
}

/// The end-to-end metrics of an untraced run: the median latency of
/// every operation kind and one tail, for queries, the only kind that
/// runs in thousands on every workload. Times are process CPU times;
/// operation times are multiplied by the yardstick's `scale`. Set-up
/// times are not: they precede most yardstick samples, and scaling them
/// doubled their spread between runs.
fn end_to_end(tally: &Tally, setup_s: &[f64], rss_mb: f64, scale: f64) -> Vec<Metric> {
    let busy_s: f64 = tally.cpu_ns.values().flatten().map(|&ns| ns as f64 / 1e9 * scale).sum();
    let completed = tally.cpu_ns.values().map(Vec::len).sum::<usize>() as f64;
    let mut out = vec![
        Metric::new("setup_s", "s", median(setup_s)),
        Metric::new("rss_peak_mb", "MB", rss_mb),
        Metric::new("ops_per_s", "1/s", ratio(completed, busy_s)),
    ];
    for kind in Kind::ALL {
        let lat = us(&tally.cpu_ns, kind, scale);
        out.push(Metric::new(&format!("{}_p50_us", kind.name()), "us", quantile(&lat, 0.5)));
        if kind == Kind::Query {
            out.push(Metric::new("query_p90_us", "us", quantile(&lat, 0.9)));
        }
    }
    out
}
