//! The repository benchmark: the paper's midtown run in-process, and the
//! `vcountd` daemon over a Unix socket and over TCP. See `README.md`.
//!
//! ```text
//! vcount-perfbench --workload midtown_run|vcountd_unix|vcountd_tcp
//!     --seed N --seconds S --trace 0|1 --vcount PATH [--run-dir DIR]
//! ```
//!
//! Prints one JSON object as its last stdout line: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod daemon;
mod feed;
mod layers;
mod midtown;
mod stats;
#[cfg(test)]
mod tests;

use daemon::{Daemon, Phase, Transport, TENANTS};
use feed::{Feed, Preset, Spec};
use stats::{median, quantile, Outcome, Timeline, Tracer};

/// Distinct feeds a daemon workload's tenants cycle through.
const FEEDS: usize = 2;

/// Where a workload runs the system under test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    InProcess,
    Daemon(Transport),
}

/// One named workload.
struct Workload {
    name: &'static str,
    kind: Kind,
    spec: Spec,
}

/// The benchmark's workloads; `toy` shrinks each to the small map for the
/// benchmark's own tests.
fn workload(name: &str, toy: bool) -> Option<Workload> {
    let closed = Spec {
        preset: Preset::Closed,
        volume: 100.0,
        toy,
        prefix: None,
        snapshot_every: 0,
    };
    Some(match name {
        "midtown_run" => Workload {
            name: "midtown_run",
            kind: Kind::InProcess,
            spec: closed,
        },
        "vcountd_unix" => Workload {
            name: "vcountd_unix",
            kind: Kind::Daemon(Transport::Unix),
            spec: closed,
        },
        // The open preset's Alg. 5 batches are smaller; a Snapshot after
        // every 4th Observe makes Snapshots a fifth of the requests, so
        // lat_p90_ms is a Snapshot round trip. Feeds stop after a prefix
        // (the feeder must hold its traffic state for every Snapshot) and
        // close with Stop.
        "vcountd_tcp" => Workload {
            name: "vcountd_tcp",
            kind: Kind::Daemon(Transport::Tcp),
            spec: Spec {
                preset: Preset::Open,
                volume: 60.0,
                toy,
                prefix: Some(if toy { 40 } else { 400 }),
                snapshot_every: 4,
            },
        },
        _ => return None,
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    vcount: PathBuf,
    run_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).cloned()
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let name = need(get("--workload"), "--workload")?;
    let workload = workload(&name, false).ok_or_else(|| format!("unknown workload {name}"))?;
    let num = |flag: &str, v: Option<String>| -> Result<f64, String> {
        need(v, flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = need(get("--seed"), "--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = num("--seconds", get("--seconds"))?;
    let trace = match need(get("--trace"), "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let vcount = PathBuf::from(need(get("--vcount"), "--vcount")?);
    let run_dir = PathBuf::from(get("--run-dir").unwrap_or_else(|| "perfbench/.run".into()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        vcount,
        run_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(outcome) => {
            for note in &outcome.notes {
                eprintln!("{note}");
            }
            for m in &outcome.metrics {
                eprintln!(
                    "  {:<28} {:>16.6} {:<8} ({} samples)",
                    m.name, m.value, m.unit, m.samples
                );
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the selected workload and returns its outcome.
fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    let w = &args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    match (w.kind, args.trace) {
        (Kind::InProcess, false) => midtown_e2e(args, budget, &mut out),
        (Kind::Daemon(t), false) => daemon_e2e(args, t, budget, &mut out)?,
        (kind, true) => traced(args, kind, budget, &mut out)?,
    }
    Ok(out)
}

/// The metrics every workload reports the same way, from the quietest
/// windows of the run's timeline.
fn report_e2e(out: &mut Outcome, timeline: &Timeline, end_ns: u64, ok: u64) {
    let mut quiet = timeline.quiet(end_ns);
    let n_setup = quiet.setup_s.len();
    out.metric("setup_s", median(&mut quiet.setup_s), "s", n_setup);
    let steps = timeline.ops.iter().filter(|op| op.2).count();
    out.metric("steps_per_s", quiet.steps_per_s, "1/s", steps);
    let n = quiet.lat_ms.len();
    out.metric("lat_p50_ms", quantile(&mut quiet.lat_ms, 0.5), "ms", n);
    out.metric("lat_p90_ms", quantile(&mut quiet.lat_ms, 0.9), "ms", n);
    out.metric(
        "ok_share",
        ok as f64 / out.attempted.max(1) as f64,
        "share",
        out.attempted as usize,
    );
    let (kept, windows) = quiet.windows;
    out.notes.push(format!(
        "quiet windows: {kept} of {windows} windows of 0.2 s"
    ));
}

fn midtown_e2e(args: &Args, budget: Duration, out: &mut Outcome) {
    let spec = &args.workload.spec;
    let run = midtown::run(
        spec,
        args.seed,
        budget,
        &mut Tracer::new(Instant::now(), false, 0),
    );
    // Read before the step log is converted: that copy is not the program's.
    let rss = stats::peak_rss_mb("self");
    out.attempted = run.steps();
    out.failed = run.steps() - run.ok_steps;
    for f in &run.failures {
        out.fail(f.clone());
    }
    report_e2e(out, &run.timeline(), run.end_ns, run.ok_steps);
    match rss {
        Ok(mb) => out.metric("peak_rss_mb", mb, "MiB", 1),
        Err(e) => out.fail(e),
    }
    out.notes
        .push(format!("{} scenarios run to collection", run.scenarios));
}

/// Builds the workload's feeds from the seed — all traffic simulation
/// happens here, before any clock.
fn build_feeds(spec: &Spec, seed: u64, n: usize) -> Result<Vec<Feed>, String> {
    (0..n as u64)
        .map(|i| Feed::build(spec, spec.scenario(seed, i)))
        .collect()
}

/// A daemon with one connected client per tenant.
fn start_daemon(
    args: &Args,
    transport: Transport,
) -> Result<(Daemon, Vec<vcount_sim::WireClient>), String> {
    let daemon = Daemon::spawn(&args.vcount, transport, &args.run_dir, args.workload.name)?;
    let clients = (0..TENANTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok((daemon, clients))
}

fn fold_phase(out: &mut Outcome, phase: &Phase) {
    out.attempted += phase.tenants.attempted;
    out.failed += phase.tenants.failed;
    for f in &phase.tenants.failures {
        out.fail(f.clone());
    }
}

fn daemon_e2e(
    args: &Args,
    transport: Transport,
    budget: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let feeds = build_feeds(&args.workload.spec, args.seed, FEEDS)?;
    let (daemon, mut clients) = start_daemon(args, transport)?;
    let phase = daemon::run_phase(
        &daemon,
        &mut clients,
        &feeds,
        budget,
        "m",
        false,
        Instant::now(),
    )?;
    let rss = stats::peak_rss_mb(&daemon.pid.to_string());
    drop(clients);
    if let Err(e) = daemon.shutdown() {
        out.fail(e);
    }
    fold_phase(out, &phase);
    let ok = phase.tenants.attempted - phase.tenants.failed;
    report_e2e(out, &phase.tenants.timeline, phase.end_ns, ok);
    out.metric("peak_rss_mb", rss?, "MiB", 1);
    out.notes.push(format!(
        "{} feeds finished and checked in full",
        phase.tenants.finished
    ));
    Ok(())
}

/// A traced daemon phase on a fresh daemon, folded into `out`.
fn serve(
    args: &Args,
    transport: Transport,
    feeds: &[Feed],
    budget: Duration,
    origin: Instant,
    out: &mut Outcome,
) -> Result<Phase, String> {
    let (daemon, mut clients) = start_daemon(args, transport)?;
    let phase = daemon::run_phase(&daemon, &mut clients, feeds, budget, "t", true, origin)?;
    drop(clients);
    if let Err(e) = daemon.shutdown() {
        out.fail(e);
    }
    fold_phase(out, &phase);
    Ok(phase)
}

/// The traced run: the workload's loop with a pseudo-random half of its
/// operations traced (tracing overhead and span coverage), every layer measured
/// on the workload's first feed, and the server-side numbers from a
/// daemon phase.
fn traced(args: &Args, kind: Kind, budget: Duration, out: &mut Outcome) -> Result<(), String> {
    let spec = &args.workload.spec;
    let origin = Instant::now();
    let mut spans = Vec::new();
    let feeds = build_feeds(
        spec,
        args.seed,
        if kind == Kind::InProcess { 1 } else { FEEDS },
    )?;

    // The workload's loop. On a daemon workload it is also the phase that
    // gives the server-side numbers.
    let (untraced_rate, traced_rate, loop_coverage, served) = match kind {
        Kind::InProcess => {
            let mut tracer = Tracer::new(origin, true, 0);
            let run = midtown::run(spec, args.seed, budget / 2, &mut tracer);
            out.attempted += run.steps();
            out.failed += run.steps() - run.ok_steps;
            for f in &run.failures {
                out.fail(f.clone());
            }
            stats::append_spans(&mut spans, &tracer.spans);
            (
                run.modes.rate(false),
                run.modes.rate(true),
                Some(tracer.child_coverage("step")),
                None,
            )
        }
        Kind::Daemon(transport) => {
            let phase = serve(args, transport, &feeds, budget / 2, origin, out)?;
            let rates = (phase.tenants.rate(false), phase.tenants.rate(true));
            (rates.0, rates.1, None, Some(phase))
        }
    };

    // Per-layer measurements on the first feed.
    let feed = &feeds[0];
    let mut tracer = Tracer::new(origin, true, 0);
    let layers = layers::measure(feed, &mut tracer);
    stats::append_spans(&mut spans, &tracer.spans);
    for f in &layers.failures {
        out.fail(f.clone());
    }
    let coverage = loop_coverage.unwrap_or_else(|| tracer.child_coverage("service.request"));

    // Server side. midtown_run has no daemon, but every per-layer metric is
    // reported on every workload: its stream is served over a Unix socket,
    // as vcountd_unix serves it, for a shorter phase.
    let server_phase = match served {
        Some(phase) => phase,
        None => serve(args, Transport::Unix, &feeds, budget / 4, origin, out)?,
    };
    for t in &server_phase.tracers {
        stats::append_spans(&mut spans, &t.spans);
    }

    let us = 1e6;
    let n = feed.batches.len();
    let obs = |f: &dyn Fn(&layers::Cost) -> f64| layers.observe_mean(feed, f);
    out.metric("traffic.step_us", layers.step_s * us, "us", n);
    out.metric("source.next_batch_us", layers.next_batch_s * us, "us", n);
    out.metric(
        "source.assembly_us",
        (layers.next_batch_s - layers.step_s) * us,
        "us",
        n,
    );
    out.metric("engine.ingest_us", layers.ingest_s * us, "us", n);
    out.metric("engine.events_per_step", layers.events_per_step, "count", n);
    out.metric("engine.msgs_per_step", layers.msgs_per_step, "count", n);
    out.metric("service.parse_us", obs(&|c| c.parse) * us, "us", n);
    out.metric("service.validate_us", obs(&|c| c.validate) * us, "us", n);
    let handle = obs(&|c| c.handle);
    out.metric("service.handle_us", handle * us, "us", n);
    out.metric(
        "service.overhead_us",
        (handle - layers.ingest_s) * us,
        "us",
        n,
    );
    out.metric("service.serialize_us", obs(&|c| c.serialize) * us, "us", n);
    let mut start_s = layers.start_s.clone();
    out.metric(
        "service.start_us",
        median(&mut start_s) * us,
        "us",
        start_s.len(),
    );
    let mut snapshot_s = layers.snapshot_s.clone();
    out.metric(
        "service.snapshot_us",
        median(&mut snapshot_s) * us,
        "us",
        snapshot_s.len(),
    );
    out.metric("wire.req_bytes", obs(&|c| c.req_bytes as f64), "bytes", n);
    out.metric("wire.resp_bytes", obs(&|c| c.resp_bytes as f64), "bytes", n);
    out.metric("client.encode_us", obs(&|c| c.encode) * us, "us", n);
    out.metric("client.decode_us", obs(&|c| c.decode) * us, "us", n);
    let (wait_s, waits) = layers::wait_p50_s(&layers, &server_phase.tenants.indexed);
    out.metric("server.wait_us_p50", wait_s * us, "us", waits);
    out.metric(
        "server.concurrency_x",
        server_phase.tenants.rate(false) / layers.replay_rate(feed),
        "x",
        server_phase.tenants.observes as usize,
    );
    out.metric(
        "daemon.cpu_s_per_kstep",
        server_phase.daemon_cpu_s / (server_phase.tenants.observes as f64 / 1000.0),
        "s",
        server_phase.tenants.observes as usize,
    );
    out.metric("trace.steps_per_s_untraced", untraced_rate, "1/s", 1);
    out.metric("trace.steps_per_s_traced", traced_rate, "1/s", 1);
    out.metric(
        "trace.overhead_share",
        1.0 - traced_rate / untraced_rate,
        "share",
        1,
    );
    out.metric("trace.coverage_share", coverage, "share", 1);

    let path = args
        .run_dir
        .join(format!("spans-{}.jsonl", args.workload.name));
    stats::write_spans(&path, &spans)?;
    out.notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    Ok(())
}
