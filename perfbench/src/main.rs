//! `perfbench` — the repository benchmark of the ACC cluster simulator.
//!
//! ```text
//! perfbench --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Build and run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- <args>`.
//!
//! One invocation runs one workload serially, one run at a time, on one
//! thread (a closed loop with a single caller: the simulator is a batch
//! program, not a server). Every run has verification on and must pass
//! the output check: not hung, `verified()`, and — on the default seed —
//! exactly the simulated ledger recorded in `workload::expected`; on any
//! other seed, exactly the ledger of the invocation's first run.
//!
//! * `--trace 0` reports the end-to-end metrics: run and set-up time,
//!   peak RSS of a fresh process, heap allocations per run, and the
//!   simulated completion time. It also runs two copies of the request
//!   through the parallel `Executor` and checks both against the serial
//!   ledger.
//! * `--trace 1` reports one metric per layer: host time of the layer
//!   calls the run makes internally (replayed from outside through the
//!   same public functions), single-operation costs of the engine and
//!   codec, and the simulated ledger. The spans go to
//!   `perfbench/out/trace-<workload>-<seed>.json` (Chrome trace events).
//! * `--workload all` runs every workload in both modes, one after the
//!   other, and ends with one JSON object holding every metric as
//!   `<workload>.<metric>`.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 when every
//! run passed the check, 1 when one failed, 2 on a usage error.

mod alloc;
mod micro;
mod report;
mod spans;
mod workload;

use std::hint::black_box;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use acc_bench::Executor;

use report::{def, median, quantile, MetricDef, Outcome, END_TO_END, PER_LAYER};
use spans::{self_times_ns, Trace};
use workload::{Kind, Ledger, Workload, DEFAULT_SEED};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str =
    "usage: perfbench --workload <sort_gige|allreduce_fattree|fft_aceii_faulted|all> \
     [--seed <n>] [--seconds <s>] [--trace <0|1>]\n\
     `all` runs every workload with --trace 0 and then 1";

/// Fewest timed runs a median is taken over, whatever `--seconds` says.
const MIN_TIMED_RUNS: usize = 5;
/// Set-up replays before each timed run; `setup_s` is the median of
/// all of them, so its samples spread over the whole timed window.
const SETUP_REPS_PER_RUN: usize = 3;
/// Fewest traced iterations in a `--trace 1` invocation.
const MIN_TRACED_RUNS: usize = 2;

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rss_probe: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kinds = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut rss_probe = false;
    while let Some(flag) = args.next() {
        if flag == "--rss-probe" {
            rss_probe = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => kinds = Some(Kind::ALL.to_vec()),
            "--workload" => {
                let kind =
                    Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?;
                kinds = Some(vec![kind]);
            }
            "--seed" => seed = parse_seed(&value).ok_or_else(|| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let kinds = kinds.ok_or("--workload is required")?;
    if rss_probe && kinds.len() != 1 {
        return Err("--rss-probe takes a single workload".to_string());
    }
    Ok(Args {
        kinds,
        seed,
        seconds,
        trace,
        rss_probe,
    })
}

/// Counts attempted and failed runs and holds the ledger every run
/// must reproduce.
struct Checker {
    reference: Option<Ledger>,
    measured: Option<Ledger>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(w: &Workload) -> Checker {
        Checker {
            reference: (w.seed == DEFAULT_SEED).then(|| workload::expected(w.kind)),
            measured: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one run's outcome (see [`workload::check`]).
    fn check(&mut self, what: &str, out: Result<acc_core::RunOutcome, String>) {
        self.record(what, workload::check(out));
    }

    /// Count one run and compare its ledger with the reference. The
    /// first passing run on a non-default seed becomes the reference.
    fn record(&mut self, what: &str, run: Result<Ledger, Vec<String>>) {
        self.attempted += 1;
        if let Ok(ledger) = &run {
            self.measured.get_or_insert(*ledger);
        }
        let run = run.and_then(|ledger| match &self.reference {
            Some(r) if ledger != *r => Err(ledger.mismatches(r)),
            _ => Ok(ledger),
        });
        match run {
            Ok(ledger) => {
                self.reference.get_or_insert(ledger);
            }
            Err(problems) => self.fail(what, &problems),
        }
    }

    fn fail(&mut self, what: &str, problems: &[String]) {
        self.failed += 1;
        for p in problems {
            println!("FAILED {what}: {p}");
        }
    }

    fn outcome(&self, metrics: &[(MetricDef, f64)]) -> Outcome {
        Outcome::new(self.attempted, self.failed, metrics)
    }

    /// The first ledger a run reported, or an all-zero one when every
    /// run hung or panicked.
    fn ledger(&self) -> Ledger {
        self.measured.unwrap_or_default()
    }
}

/// Execute one request and time it.
fn timed_run(w: &Workload) -> (Duration, Result<acc_core::RunOutcome, String>) {
    let req = w.request();
    let t0 = Instant::now();
    let out = workload::execute(req);
    (t0.elapsed(), out)
}

/// Host seconds of one set-up replay: the sum of its call spans.
fn setup_seconds(w: &Workload) -> f64 {
    let mut t = Trace::new();
    black_box(w.setup(&mut t, None));
    t.spans().iter().map(|s| s.dur_ns() as f64 / 1e9).sum()
}

fn describe(samples: &[f64]) -> String {
    let mut line = format!(
        "n={} q1={:.4} q3={:.4} min={:.4} max={:.4}",
        samples.len(),
        quantile(samples, 0.25),
        quantile(samples, 0.75),
        quantile(samples, 0.0),
        quantile(samples, 1.0),
    );
    // The highest percentile with at least ten samples beyond it.
    if samples.len() > 10 {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let k = v.len() - 10;
        let pct = 100.0 * k as f64 / v.len() as f64;
        line.push_str(&format!(" p{pct:.0}={:.4}", v[k - 1]));
    }
    line
}

/// Peak RSS of a fresh process running one run, and that run's ledger.
fn fresh_process_rss(w: &Workload) -> Result<(f64, Ledger), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.kind.name(),
            "--seed",
            &w.seed.to_string(),
            "--rss-probe",
        ])
        .output()
        .map_err(|e| format!("spawning the probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "probe exited with {}: {}",
            out.status,
            stdout.trim()
        ));
    }
    let field = |key: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .ok_or_else(|| format!("probe printed no `{key}` line"))
    };
    let kb: f64 = field("vmhwm_kb ")?
        .trim()
        .parse()
        .map_err(|e| format!("probe vmhwm: {e}"))?;
    let ledger = Ledger::from_line(field("ledger ")?).ok_or("probe ledger unparsable")?;
    Ok((kb / 1024.0, ledger))
}

/// `--rss-probe`: one run in this fresh process, then its ledger and
/// the process's peak resident set.
fn rss_probe(w: &Workload) -> ExitCode {
    let out = workload::execute(w.request());
    let ledger = match workload::check(out) {
        Ok(l) => l,
        Err(problems) => {
            println!("probe run failed: {}", problems.join("; "));
            return ExitCode::from(1);
        }
    };
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(kb) = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
    else {
        println!("no VmHWM in /proc/self/status");
        return ExitCode::from(1);
    };
    println!("ledger {}", ledger.to_line());
    println!("vmhwm_kb {kb}");
    ExitCode::SUCCESS
}

fn end_to_end(w: &Workload, c: &mut Checker, seconds: f64) -> Outcome {
    // Warm-up: fills caches and, off the default seed, fixes the ledger.
    let (_, out) = timed_run(w);
    c.check("warm-up run", out);

    let mut setup = Vec::new();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_TIMED_RUNS || start.elapsed().as_secs_f64() < seconds {
        setup.extend((0..SETUP_REPS_PER_RUN).map(|_| setup_seconds(w)));
        let (dt, out) = timed_run(w);
        times.push(dt.as_secs_f64());
        c.check("timed run", out);
    }

    // Two counting passes; the allocator counts only inside them.
    let mut passes = Vec::new();
    for pass in 1..=2 {
        let req = w.request();
        let (out, allocs) = alloc::counting(|| workload::execute(req));
        c.check(&format!("counting pass {pass}"), out);
        passes.push(allocs);
    }
    if passes[0] != passes[1] {
        c.fail(
            "counting passes",
            &[format!(
                "allocation counts differ: {:?} vs {:?}",
                passes[0], passes[1]
            )],
        );
    }

    // The parallel executor must reproduce the serial ledger.
    let reqs = vec![w.request(), w.request()];
    match std::panic::catch_unwind(|| Executor::new(2).run_all(reqs)) {
        Ok(outs) => {
            for out in outs {
                c.check("executor run (2 jobs)", Ok(out));
            }
        }
        Err(payload) => {
            let problem = vec![workload::panic_message(&*payload)];
            c.record("executor run (2 jobs)", Err(problem.clone()));
            c.record("executor run (2 jobs)", Err(problem));
        }
    }

    let rss_mb = match fresh_process_rss(w) {
        Ok((mb, ledger)) => {
            c.record("fresh-process run", Ok(ledger));
            mb
        }
        Err(e) => {
            c.record("fresh-process run", Err(vec![e]));
            0.0
        }
    };

    let ledger = c.ledger();
    let values = [
        ("run_s", median(&times)),
        ("setup_s", median(&setup)),
        ("peak_rss_mb", rss_mb),
        ("allocs_per_run", passes[0].calls as f64),
        (
            "alloc_mb_per_run",
            passes[0].bytes as f64 / (1024.0 * 1024.0),
        ),
        ("sim_ms", ledger.metric("sim_ms")),
    ];
    println!("run_s     {}", describe(&times));
    println!("setup_s   {}", describe(&setup));
    let metrics: Vec<(MetricDef, f64)> = values
        .iter()
        .map(|&(name, v)| (def(END_TO_END, name), v))
        .collect();
    for (d, v) in &metrics {
        println!("{}", d.line(*v));
    }
    c.outcome(&metrics)
}

/// Layer spans whose per-run totals become `<name>_s` metrics.
const LAYER_CALLS: [&str; 11] = [
    "algos.keygen",
    "algos.matrix_gen",
    "algos.bucket_sort",
    "algos.count_sort",
    "algos.sort_oracle",
    "algos.fft_rows",
    "algos.fft_oracle",
    "algos.transpose",
    "net.routing",
    "coll.plan",
    "coll.oracle",
];

fn per_layer(w: &Workload, c: &mut Checker, seconds: f64) -> Outcome {
    let (_, out) = timed_run(w);
    c.check("warm-up run", out);

    let event_ns = micro::event_ns();
    let counter_ns = micro::counter_ns();
    let codec_ns = micro::inic_codec_ns(w.kind.message_bytes());

    let mut trace = Trace::new();
    let mut untraced = Vec::new();
    let mut executes = Vec::new();
    let mut profile = (0, 0);
    let start = Instant::now();
    let mut run = 0u32;
    while (run as usize) < MIN_TRACED_RUNS || start.elapsed().as_secs_f64() < seconds {
        let (dt, out) = timed_run(w);
        untraced.push(dt.as_secs_f64());
        c.check("untraced run", out);

        // The traced run: the run itself, then a replay of the layer
        // calls it makes internally, attributed to it as children. The
        // allocator counts throughout, so every span carries its
        // allocations.
        trace.set_run(run);
        let req = w.request();
        let (out, _) = alloc::counting(|| {
            let exec = trace.begin("core.execute", None);
            let out = workload::execute(req);
            trace.end(exec);
            let inputs = w.setup(&mut trace, Some(exec));
            workload::replay_layers(&inputs, &mut trace, Some(exec));
            profile = workload::coll_profile(&inputs);
            executes.push(exec);
            out
        });
        c.check("traced run", out);
        run += 1;
    }

    let spans = trace.spans();
    let self_ns = self_times_ns(spans);
    let per_run = |f: &dyn Fn(u32) -> f64| -> f64 {
        let xs: Vec<f64> = (0..run).map(f).collect();
        median(&xs)
    };
    let traced_run_s = per_run(&|r| spans[executes[r as usize]].dur_ns() as f64 / 1e9);
    let execute_self_s = per_run(&|r| self_ns[executes[r as usize]] as f64 / 1e9);

    let mut values: Vec<(String, f64)> = LAYER_CALLS
        .iter()
        .map(|name| (format!("{name}_s"), per_run(&|r| trace.total_s(name, r))))
        .collect();
    let ledger = c.ledger();
    values.extend([
        ("coll.msgs".to_string(), profile.0 as f64),
        ("coll.bytes".to_string(), profile.1 as f64),
        ("sim.event_ns".to_string(), event_ns),
        ("sim.counter_ns".to_string(), counter_ns),
        ("proto.inic_codec_ns".to_string(), codec_ns),
        ("core.execute_self_s".to_string(), execute_self_s),
        (
            "bench.trace_overhead_pct".to_string(),
            (traced_run_s / median(&untraced) - 1.0) * 100.0,
        ),
    ]);
    for field in workload::LEDGER_FIELDS.iter().filter(|f| **f != "sim_ms") {
        values.push((field.to_string(), ledger.metric(field)));
    }

    // The cost ledger of the first traced run, span by span.
    println!(
        "{:<20} {:>10} {:>10} {:>10} {:>12}",
        "span (run 0)", "ms", "self ms", "allocs", "alloc bytes"
    );
    for (s, own) in spans.iter().zip(&self_ns).filter(|(s, _)| s.run == 0) {
        println!(
            "{:<20} {:>10.3} {:>10.3} {:>10} {:>12}",
            s.name,
            s.dur_ns() as f64 / 1e6,
            *own as f64 / 1e6,
            s.allocs.calls,
            s.allocs.bytes
        );
    }
    let replayed_s = traced_run_s - execute_self_s;
    println!(
        "traced run_s {traced_run_s:.4} = core.execute_self_s {execute_self_s:.4} + replayed layer spans {replayed_s:.4} \
         (medians over {run} traced runs; untraced run_s {:.4})",
        median(&untraced)
    );

    let path = format!(
        "{}/out/trace-{}-{:#x}.json",
        env!("CARGO_MANIFEST_DIR"),
        w.kind.name(),
        w.seed
    );
    let written = std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
        .and_then(|()| std::fs::write(&path, spans::chrome_json(spans)));
    match written {
        Ok(()) => println!("trace: {path} ({} spans)", spans.len()),
        Err(e) => c.record("trace export", Err(vec![format!("{path}: {e}")])),
    }

    let metrics: Vec<(MetricDef, f64)> = PER_LAYER
        .iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| n == d.name)
                .unwrap_or_else(|| panic!("per-layer metric {} not measured", d.name))
                .1;
            (*d, v)
        })
        .collect();
    for (d, v) in &metrics {
        println!("{}", d.line(*v));
    }
    c.outcome(&metrics)
}

/// One invocation's worth of one workload in one mode.
fn run(w: &Workload, trace: bool, seconds: f64) -> Outcome {
    let mut c = Checker::new(w);
    println!(
        "perfbench {} seed {:#x} ({}), trace {}",
        w.kind.name(),
        w.seed,
        if c.reference.is_some() {
            "default seed: ledger checked against recorded values"
        } else {
            "ledger checked run against run"
        },
        u8::from(trace)
    );
    let outcome = if trace {
        per_layer(w, &mut c, seconds)
    } else {
        end_to_end(w, &mut c, seconds)
    };
    println!(
        "fail_ratio {}/{} = {}",
        c.failed,
        c.attempted,
        c.failed as f64 / c.attempted as f64
    );
    outcome
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workload = |kind| Workload {
        kind,
        seed: args.seed,
    };
    let outcome = match args.kinds[..] {
        [kind] if args.rss_probe => return rss_probe(&workload(kind)),
        [kind] => run(&workload(kind), args.trace, args.seconds),
        _ => {
            let mut all = Outcome::default();
            for &kind in &args.kinds {
                for trace in [false, true] {
                    let one = run(&workload(kind), trace, args.seconds);
                    println!("{}", one.json());
                    all.absorb(kind.name(), one);
                }
            }
            all
        }
    };
    println!("{}", outcome.json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
