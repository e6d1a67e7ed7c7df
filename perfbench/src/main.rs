//! Host-time benchmark of the `simmpi`/`simnet` simulator and the `rt`
//! runtime. See README.md for the workloads, the metrics and the layer
//! each metric should move.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` makes the
//! separate traced run and prints the per-layer metrics. The last line of
//! standard output is one JSON object.

mod check;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use ovcomm_rt::RtOutput;
use ovcomm_simmpi::{SimOutput, VerifyMode};

use check::{Expected, Fingerprint};
use spans::{SpanLog, Tracer};
use stats::{median, peak_rss_mb, percentile, process_cpu_s};
use workloads::{self as wl, MixJob, MixRank, Workload};

const USAGE: &str = "usage: perfbench --workload <ndup25d|sync2500|rt_mix2> \
                     --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    /// Internal: run one unit under this verify mode and report its time
    /// and this process's peak memory (used by the traced run).
    child: Option<VerifyMode>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut child = None;
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must lie in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(val),
            "--child-unit" => {
                child = Some(match val.as_str() {
                    "strict" => VerifyMode::Strict,
                    "off" => VerifyMode::Off,
                    _ => return Err(bad("must be strict or off")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        out_dir,
        child,
    })
}

/// What the run prints: the result line and a readable table before it.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name:>24} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit of `x` (Rust's shortest round-trip form).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

/// The program output of one unit, kept for per-layer readings.
enum Raw {
    Sim(SimOutput<bool>),
    Rt(RtOutput<MixRank>),
    Failed,
}

/// One unit of a simulator workload (one `simmpi::run`), or one batch of
/// `rt_mix2` rounds (one `rt::run`, whose rounds are the units).
struct Unit {
    /// Process CPU seconds of each unit that passed its checks.
    lat: Vec<f64>,
    messages: u64,
    attempted: usize,
    failed: usize,
    fp: Option<Fingerprint>,
    problems: Vec<String>,
    raw: Raw,
}

struct Ctx {
    w: Workload,
    seed: u64,
    want: Expected,
    tracer: Tracer,
    /// Fingerprint of the run's first unit, once it exists.
    first: Option<Fingerprint>,
    /// Next `rt_mix2` round index, so every batch draws fresh values.
    next_round: u64,
}

impl Ctx {
    fn new(w: Workload, seed: u64) -> Ctx {
        Ctx {
            w,
            seed,
            want: check::expected(w, seed),
            tracer: Tracer::new(),
            first: None,
            next_round: 0,
        }
    }

    /// Run and check one unit (batch on `rt`). `prog_trace` turns on the
    /// program's own trace; `log` receives the benchmark's spans.
    fn unit(&mut self, idx: u64, verify: VerifyMode, prog_trace: bool, log: &mut SpanLog) -> Unit {
        let mut unit = if self.w.is_sim() {
            self.sim_unit(idx, verify, prog_trace, log)
        } else {
            self.rt_unit(idx, verify, prog_trace, log)
        };
        if let Some(fp) = unit.fp {
            let first = *self.first.get_or_insert(fp);
            unit.problems
                .extend(check::mismatches(&fp, &first, &self.want));
        }
        if !unit.problems.is_empty() {
            unit.failed = unit.attempted;
            unit.lat.clear();
        }
        unit
    }

    fn sim_unit(
        &mut self,
        idx: u64,
        verify: VerifyMode,
        prog_trace: bool,
        log: &mut SpanLog,
    ) -> Unit {
        let (w, seed) = (self.w, self.seed);
        log.span("unit", None, idx, |log, id| {
            let t = process_cpu_s();
            let out = log.span("simmpi.run", id, idx, |_, _| {
                wl::sim_unit(w, seed, verify, prog_trace)
            });
            let cpu = process_cpu_s() - t;
            log.span("check", id, idx, |_, _| match out {
                Ok(out) => {
                    let mut problems = Vec::new();
                    if !out.results.iter().all(|&ok| ok) {
                        problems.push("a rank's output differs from its closed form".into());
                    }
                    problems.extend(out.verify.findings.iter().map(|f| format!("verify: {f}")));
                    Unit {
                        lat: vec![cpu],
                        messages: out.messages,
                        attempted: 1,
                        failed: 0,
                        fp: Some(Fingerprint::of_sim(&out)),
                        problems,
                        raw: Raw::Sim(out),
                    }
                }
                Err(e) => failed_unit(1, format!("simmpi::run: {e}")),
            })
        })
    }

    fn rt_unit(
        &mut self,
        idx: u64,
        verify: VerifyMode,
        prog_trace: bool,
        log: &mut SpanLog,
    ) -> Unit {
        let job = MixJob {
            seed: self.seed,
            first_round: self.next_round,
            rounds: wl::MIX_ROUNDS,
        };
        self.next_round += (wl::MIX_WARM + wl::MIX_ROUNDS) as u64;
        let tracer = self.tracer.clone();
        let traced = log.enabled();
        log.span("batch", None, idx, |log, id| {
            let out = log.span("rt.run", id, idx, |_, run_id| {
                let spans = traced.then_some((tracer, run_id));
                wl::rt_batch(job, wl::rt_config(verify, prog_trace), spans)
            });
            log.span("check", id, idx, |log, _| match out {
                Ok(mut out) => {
                    let mut problems = Vec::new();
                    if !out.results.iter().all(|r| r.ok) {
                        problems
                            .push("an allreduce sum or window differs from its closed form".into());
                    }
                    problems.extend(out.verify.findings.iter().map(|f| format!("verify: {f}")));
                    // Both ranks read the same process clock; rank 0's
                    // readings are the rounds' CPU times.
                    let lat = std::mem::take(&mut out.results[0].lat);
                    for r in &mut out.results {
                        log.absorb(std::mem::take(&mut r.spans));
                    }
                    Unit {
                        lat,
                        messages: out.messages,
                        attempted: job.rounds,
                        failed: 0,
                        fp: Some(Fingerprint::of_rt(&out)),
                        problems,
                        raw: Raw::Rt(out),
                    }
                }
                Err(e) => failed_unit(job.rounds, format!("rt::run: {e}")),
            })
        })
    }
}

fn failed_unit(attempted: usize, problem: String) -> Unit {
    Unit {
        lat: Vec::new(),
        messages: 0,
        attempted,
        failed: attempted,
        fp: None,
        problems: vec![problem],
        raw: Raw::Failed,
    }
}

/// Set up (inputs and one warm-up unit) and check the warm-up.
fn setup(ctx: &mut Ctx, log: &mut SpanLog, notes: &mut Vec<String>) -> (bool, Unit) {
    let warm = ctx.unit(u64::MAX, VerifyMode::Strict, false, log);
    for p in &warm.problems {
        notes.push(format!("warm-up unit failed: {p}"));
    }
    if let Some(fp) = warm.fp {
        notes.push(format!("fingerprint {fp:?}"));
    }
    (warm.problems.is_empty(), warm)
}

/// Self-test of the output checks: one unit checked against a corrupted
/// record must count as failed, every one of its attempts.
fn self_test(ctx: &mut Ctx, log: &mut SpanLog, notes: &mut Vec<String>) -> bool {
    let want = ctx.want;
    ctx.want = want.corrupted();
    let u = ctx.unit(u64::MAX - 1, VerifyMode::Strict, false, log);
    ctx.want = want;
    let caught = u.attempted > 0 && u.failed == u.attempted && !u.problems.is_empty();
    if !caught {
        notes.push("self-test: a unit checked against a corrupted record passed".into());
    }
    caught
}

/// The untraced run: end-to-end metrics. Times are process CPU seconds;
/// the timed phase lasts `--seconds` of wall time.
fn timed_run(a: &Args) -> Report {
    let mut notes = Vec::new();
    let mut ctx = Ctx::new(a.workload, a.seed);
    let mut off = ctx.tracer.log(false);
    let mut setup_ok = true;
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        // The first set-up counts from process start.
        let t0 = if i == 0 { 0.0 } else { process_cpu_s() };
        if i > 0 {
            // Every set-up starts from scratch, as a fresh process would.
            ctx = Ctx::new(a.workload, a.seed);
        }
        setup_ok &= setup(&mut ctx, &mut off, &mut notes).0;
        setups.push(process_cpu_s() - t0);
    }
    setup_ok &= self_test(&mut ctx, &mut off, &mut notes);

    let (mut lat, mut messages, mut attempted, mut failed) = (Vec::new(), 0u64, 0, 0);
    let t = Instant::now();
    let cpu0 = process_cpu_s();
    let mut idx = 0;
    while idx == 0 || t.elapsed().as_secs_f64() < a.seconds {
        let u = ctx.unit(idx, VerifyMode::Strict, false, &mut off);
        for p in u.problems.iter().take(3) {
            notes.push(format!("unit {idx} failed: {p}"));
        }
        lat.extend(&u.lat);
        messages += u.messages;
        attempted += u.attempted;
        failed += u.failed;
        idx += 1;
    }
    let cpu = process_cpu_s() - cpu0;
    notes.push(format!(
        "{}: {} units in {:.3} s wall, {cpu:.3} s CPU (min {:.6} s, max {:.6} s); set-ups {setups:.4?} s",
        a.workload.name(),
        lat.len(),
        t.elapsed().as_secs_f64(),
        percentile(&lat, 0.0),
        percentile(&lat, 1.0),
    ));
    Report {
        correct: setup_ok && failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("unit_s_p50", median(&lat), "s"),
            ("msgs_per_s", messages as f64 / cpu, "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("ok_frac", 1.0 - failed as f64 / attempted as f64, "frac"),
        ],
        notes,
    }
}

/// `--child-unit`: one unit under the given verify mode, then this
/// process's peak memory.
fn child_unit(a: &Args, mode: VerifyMode) -> ExitCode {
    let mut ctx = Ctx::new(a.workload, a.seed);
    let u = ctx.unit(0, mode, false, &mut ctx.tracer.log(false));
    if !u.problems.is_empty() {
        eprintln!("perfbench child: {}", u.problems.join("; "));
        return ExitCode::FAILURE;
    }
    if let Some(fp) = u.fp {
        println!("# fingerprint {fp:?}");
    }
    println!("child {} {}", median(&u.lat), peak_rss_mb());
    ExitCode::SUCCESS
}

/// Run this binary as a child for one unit; returns (unit seconds, MiB).
fn child(a: &Args, mode: &str) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            a.workload.name(),
            "--seed",
            &a.seed.to_string(),
        ])
        .args(["--child-unit", mode])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let nums: Vec<f64> = text
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("child "))
        .map(|l| l.split(' ').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_default();
    match (out.status.success(), nums.as_slice()) {
        (true, &[secs, mb]) => Ok((secs, mb)),
        _ => Err(format!(
            "child unit ({mode}) failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

/// Mean of an `rt` per-rank histogram family, in its own unit.
fn hist_mean(out: &RtOutput<MixRank>, name: &str) -> f64 {
    let (sum, count) = out
        .metrics
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with(name))
        .fold((0u64, 0u64), |(s, c), (_, h)| (s + h.sum, c + h.count));
    sum as f64 / count.max(1) as f64
}

/// Modeled readings of a simulator output: makespan, inter-node bytes,
/// mean NIC busy fraction, completed flows, queueing delay and the
/// per-NIC flow high-water mark.
fn model_readings<T>(out: &SimOutput<T>) -> [f64; 6] {
    let nics: Vec<_> = out
        .net
        .resources
        .iter()
        .filter(|r| r.kind.is_nic())
        .collect();
    let makespan = out.makespan.as_secs_f64().max(f64::MIN_POSITIVE);
    let busy = nics
        .iter()
        .map(|r| r.stats.busy_secs / makespan)
        .sum::<f64>()
        / nics.len().max(1) as f64;
    let concurrency = nics
        .iter()
        .map(|r| r.stats.max_concurrent)
        .max()
        .unwrap_or(1);
    [
        out.makespan.as_nanos() as f64,
        out.inter_node_bytes as f64,
        busy,
        out.net.completed_flows as f64,
        out.net.total_queue_delay_secs,
        concurrency as f64,
    ]
}

/// The separate traced run: per-layer metrics.
fn traced_run(a: &Args) -> Report {
    let mut notes = Vec::new();
    let mut ctx = Ctx::new(a.workload, a.seed);
    let mut log = ctx.tracer.log(true);
    let mut off = ctx.tracer.log(false);
    let (mut ok, warm) = setup(&mut ctx, &mut off, &mut notes);
    ok &= self_test(&mut ctx, &mut off, &mut notes);

    // Alternate units with and without the benchmark's spans; the
    // difference of their medians is the tracing overhead.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut traced_units) = (0, 0, 0usize);
    let mut spin_park = (0.0, 0.0);
    let t = Instant::now();
    let mut idx = 0u64;
    while idx < 2 || t.elapsed().as_secs_f64() < a.seconds {
        let with_spans = idx % 2 == 1;
        let u = if with_spans {
            ctx.unit(idx, VerifyMode::Strict, false, &mut log)
        } else {
            ctx.unit(idx, VerifyMode::Strict, false, &mut off)
        };
        for p in u.problems.iter().take(3) {
            notes.push(format!("unit {idx} failed: {p}"));
        }
        if with_spans {
            traced.extend(&u.lat);
            traced_units += u.attempted;
        } else {
            plain.extend(&u.lat);
            if let Raw::Rt(out) = &u.raw {
                spin_park = (
                    hist_mean(out, "rt.wait_spin_ns"),
                    hist_mean(out, "rt.wait_park_ns"),
                );
            }
        }
        attempted += u.attempted;
        failed += u.failed;
        idx += 1;
    }
    let unit_p50 = median(&plain);

    // The program's own trace: its cost, its size and the profiler's time.
    let obs = ctx.unit(idx, VerifyMode::Strict, true, &mut off);
    ok &= obs.problems.is_empty();
    let program_trace = match &obs.raw {
        Raw::Sim(out) => out
            .trace
            .as_ref()
            .map(|t| (t, &out.metrics, out.makespan, "sim")),
        Raw::Rt(out) => out
            .trace
            .as_ref()
            .map(|t| (t, &out.metrics, out.makespan, "rt")),
        Raw::Failed => None,
    };
    let (mut obs_spans, mut obs_profile_s) = (0.0, 0.0);
    if let Some((tr, metrics, makespan, backend)) = program_trace {
        obs_spans = tr.spans().len() as f64;
        let t = Instant::now();
        std::hint::black_box(ovcomm_obs::profile(
            tr.spans(),
            tr.edges(),
            metrics,
            makespan,
            backend,
        ));
        obs_profile_s = t.elapsed().as_secs_f64();
    } else {
        ok = false;
    }

    // Strict minus Off, each in a fresh process so peak memory is its own.
    let (strict, off_mode) = match (child(a, "strict"), child(a, "off")) {
        (Ok(s), Ok(o)) => (s, o),
        (s, o) => {
            notes.extend([s.err(), o.err()].into_iter().flatten());
            ok = false;
            ((0.0, 0.0), (0.0, 0.0))
        }
    };

    // Model readings come from the workload's simulator unit; `rt_mix2`
    // runs its program once on the simulator for them.
    let twin;
    let (sim_out, sim_secs) = match &warm.raw {
        Raw::Sim(out) => (Some(out), unit_p50),
        _ if a.workload.is_sim() => (None, 0.0),
        _ => {
            let t = process_cpu_s();
            twin = wl::sim_unit(a.workload, a.seed, VerifyMode::Strict, false);
            let secs = process_cpu_s() - t;
            match &twin {
                Ok(out) if out.results.iter().all(|&r| r) => (Some(out), secs),
                Ok(_) => {
                    notes.push("simulator twin: an output differs from its closed form".into());
                    ok = false;
                    (None, 0.0)
                }
                Err(e) => {
                    notes.push(format!("simulator twin failed: {e}"));
                    ok = false;
                    (None, 0.0)
                }
            }
        }
    };
    let [makespan_ns, inter_bytes, nic_busy, flows, queue_delay, concurrency] =
        sim_out.map_or([0.0; 6], model_readings);
    let sim_msgs = sim_out.map_or(0.0, |o| o.messages as f64);

    let probe = |log: &mut SpanLog, name: &'static str, f: &dyn Fn() -> f64| {
        log.span(name, None, 0, |_, _| f())
    };
    let flow_us = probe(&mut log, "probe.flow", &|| {
        probes::flow_addremove_us(concurrency as usize)
    });
    let fiber_ns = probe(&mut log, "probe.fiber", &probes::fiber_switch_ns);
    let engine_ns = probe(&mut log, "probe.engine", &probes::engine_event_ns);
    let plan_s = probe(&mut log, "probe.plan", &|| {
        probes::plan_compile_s(a.workload)
    });
    let spsc_ns = probe(&mut log, "probe.spsc", &probes::spsc_ns);

    let spans = &log.spans;
    let selfs = spans::self_times(spans);
    let self_s = |name: &str| spans::self_secs(spans, &selfs, name);
    let per_unit = traced_units.max(1) as f64;
    // `rt` spans are per rank thread and round.
    let rank_rounds = (traced_units * wl::MIX_RANKS).max(1) as f64;
    let path = a
        .out_dir
        .join(format!("spans-{}-seed{}.json", a.workload.name(), a.seed));
    match spans::write_json(&path, spans) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    notes.push(format!(
        "{}: {} plain and {} traced samples, {} plain samples beyond the p90",
        a.workload.name(),
        plain.len(),
        traced.len(),
        stats::beyond(&plain, 0.9)
    ));
    // A layer a workload does not exercise has no spans and reads 0.
    Report {
        correct: ok && failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("unit_s_p90", percentile(&plain, 0.9), "s"),
            ("flow.addremove_us", flow_us, "us"),
            ("flow.completed", flows, "count"),
            ("flow.queue_delay_s", queue_delay, "s"),
            ("fiber.switch_ns", fiber_ns, "ns"),
            ("engine.event_ns", engine_ns, "ns"),
            ("sim.messages", sim_msgs, "count"),
            (
                "sim.host_ns_per_msg",
                sim_secs / sim_msgs.max(1.0) * 1e9,
                "ns",
            ),
            ("plan.compile_s", plan_s, "s"),
            ("verify.strict_extra_s", strict.0 - off_mode.0, "s"),
            ("verify.strict_extra_mb", strict.1 - off_mode.1, "MiB"),
            ("obs.spans", obs_spans, "count"),
            ("obs.trace_extra_s", median(&obs.lat) - unit_p50, "s"),
            ("obs.profile_s", obs_profile_s, "s"),
            ("rt.post_us", self_s("rt.post") / rank_rounds * 1e6, "us"),
            ("rt.wait_us", self_s("rt.wait") / rank_rounds * 1e6, "us"),
            ("rt.fence_us", self_s("rt.fence") / rank_rounds * 1e6, "us"),
            ("rt.spin_ns", spin_park.0, "ns"),
            ("rt.park_ns", spin_park.1, "ns"),
            ("rt.spsc_ns", spsc_ns, "ns"),
            ("model.makespan_ns", makespan_ns, "ns"),
            ("model.inter_bytes", inter_bytes, "bytes"),
            ("model.nic_busy_frac", nic_busy, "frac"),
            (
                "self.bench_s",
                (self_s("unit") + self_s("batch")) / per_unit,
                "s",
            ),
            ("self.sim_run_s", self_s("simmpi.run") / per_unit, "s"),
            ("self.rt_run_s", self_s("rt.run") / per_unit, "s"),
            ("self.rt_round_s", self_s("round") / rank_rounds, "s"),
            ("self.check_s", self_s("check") / per_unit, "s"),
            ("trace.overhead_s", median(&traced) - unit_p50, "s"),
            ("trace.spans", spans.len() as f64, "count"),
        ],
        notes,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(mode) = args.child {
        return child_unit(&args, mode);
    }
    let report = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    report.print();
    ExitCode::SUCCESS
}
