//! `vcountd_unix` and `vcountd_tcp`: the real `vcount serve` binary as a
//! separate process, driven by closed-loop feeders through the program's
//! own [`WireClient`].

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vcount_sim::{Conn, ServiceResponse, WireClient};

use crate::feed::{Feed, Fnv, Step};
use crate::stats::{secs, stamp_ns, traced_op, Modes, Timeline, Tracer};

/// How feeders reach the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Transport {
    /// `vcount serve --socket PATH`.
    Unix,
    /// `vcount serve --listen 127.0.0.1:0`.
    Tcp,
}

/// Tenants, each on its own connection and feeder thread: the host has two
/// cores, so two closed-loop feeders are the most it can drive without
/// the load generator crowding out the daemon.
pub const TENANTS: usize = 2;

/// A spawned `vcount serve`. It accepts exactly [`TENANTS`] connections
/// and exits by itself once they close; dropping the handle kills and
/// reaps it if it has not, and removes its socket file — on every exit
/// path of the benchmark, failures and panics included.
pub struct Daemon {
    child: Child,
    /// The daemon's process id (for `/proc` readings).
    pub pid: u32,
    /// Where feeders connect: the socket path or `IP:PORT`.
    pub addr: String,
    transport: Transport,
    socket: Option<PathBuf>,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts `vcount serve` and waits for its `vcountd listening on`
    /// line, which carries the bound address (TCP port 0 picks a free
    /// port). A Unix socket goes under `run_dir`, named after this process
    /// and `tag` so concurrent runs never share one.
    pub fn spawn(
        vcount: &Path,
        transport: Transport,
        run_dir: &Path,
        tag: &str,
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(vcount);
        cmd.arg("serve").arg("--max-conns").arg(TENANTS.to_string());
        let socket = match transport {
            Transport::Unix => {
                std::fs::create_dir_all(run_dir)
                    .map_err(|e| format!("{}: {e}", run_dir.display()))?;
                let path = run_dir.join(format!("{tag}-{}.sock", std::process::id()));
                cmd.arg("--socket").arg(&path);
                Some(path)
            }
            Transport::Tcp => {
                cmd.arg("--listen").arg("127.0.0.1:0");
                None
            }
        };
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", vcount.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        // From here on the guard owns the child: any early return reaps it.
        let mut daemon = Daemon {
            pid: child.id(),
            child,
            addr: String::new(),
            transport,
            socket,
            stderr: None,
        };
        let mut lines = BufReader::new(stderr);
        let mut line = String::new();
        loop {
            line.clear();
            let n = lines
                .read_line(&mut line)
                .map_err(|e| format!("vcountd stderr: {e}"))?;
            if n == 0 {
                return Err("vcount serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("vcountd listening on ") {
                daemon.addr = addr.to_string();
                break;
            }
            eprint!("vcountd: {line}");
        }
        // Keep draining the daemon's stderr so it never blocks on a full
        // pipe, and forward it to whoever reads the run's stderr.
        daemon.stderr = Some(std::thread::spawn(move || {
            for line in lines.lines().map_while(Result::ok) {
                eprintln!("vcountd: {line}");
            }
        }));
        Ok(daemon)
    }

    /// Opens one feeder connection.
    pub fn connect(&self) -> Result<WireClient, String> {
        let conn = match self.transport {
            Transport::Unix => Conn::connect_unix(&self.addr)?,
            Transport::Tcp => Conn::connect_tcp(&self.addr)?,
        };
        WireClient::new(conn)
    }

    /// Waits for the daemon to exit on its own once every feeder has
    /// disconnected, and reports whether it shut down cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("vcount serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("vcount serve did not exit after its feeders left".into()),
                Err(e) => return Err(format!("vcount serve: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(path) = &self.socket {
            let _ = std::fs::remove_file(path);
        }
        if let Some(forward) = self.stderr.take() {
            let _ = forward.join();
        }
    }
}

/// What one feeder saw.
#[derive(Default)]
pub struct TenantRun {
    /// Every request's round trip, as the feeder sees it, and every
    /// set-up probe's `Start` round trip, on the phase's clock.
    pub timeline: Timeline,
    /// `(feed, request index, round trip seconds)`, traced requests only.
    pub indexed: Vec<(usize, usize, f64)>,
    /// Requests sent, set-up probes included.
    pub attempted: u64,
    /// Requests answered with anything but the expected terminal
    /// response, or not answered at all.
    pub failed: u64,
    /// Observes answered `Accepted`.
    pub observes: u64,
    /// Feeds that reached `Finish` with every check passing.
    pub finished: u64,
    /// Each feeder's untraced and traced requests.
    pub modes: Vec<Modes>,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
}

impl TenantRun {
    /// Folds another feeder's results into this one.
    pub fn absorb(&mut self, other: TenantRun) {
        self.timeline.ops.extend(other.timeline.ops);
        self.timeline.setups.extend(other.timeline.setups);
        self.indexed.extend(other.indexed);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.observes += other.observes;
        self.finished += other.finished;
        self.modes.extend(other.modes);
        self.failures.extend(other.failures);
    }

    /// Observes per second summed over the feeders, while (un)traced.
    pub fn rate(&self, traced: bool) -> f64 {
        self.modes.iter().map(|m| m.rate(traced)).sum()
    }
}

/// Checks one request's answer against the reference: every `Event` line
/// belongs to `run` and is folded into `fnv`; the single terminal response
/// is the one `step` must get. Returns a description of the first mismatch.
pub fn check_answer(
    feed: &Feed,
    step: Step,
    run: &str,
    answer: &[ServiceResponse],
    fnv: &mut Fnv,
) -> Result<(), String> {
    let Some((terminal, events)) = answer.split_last() else {
        return Err("empty answer".into());
    };
    for event in events {
        match event {
            ServiceResponse::Event { run: r, line } if r == run => fnv.line(line),
            other => return Err(format!("unexpected non-terminal response {other:?}")),
        }
    }
    let last = feed.batches.len() - 1;
    match (step, terminal) {
        (Step::Start, ServiceResponse::Started { run: r }) if r == run => {}
        (Step::Observe(i), ServiceResponse::Accepted { run: r, done, .. }) if r == run => {
            let want = feed.complete() && i == last;
            if *done != want {
                return Err(format!(
                    "Observe {i} answered done={done}, reference {want}"
                ));
            }
        }
        (Step::Snapshot(k), ServiceResponse::Snapshot { run: r, snapshot }) if r == run => {
            let want = feed.batches[feed.sims[k].0].steps;
            if snapshot.sim.steps != want {
                return Err(format!(
                    "Snapshot {k} froze step {}, the feed is at step {want}",
                    snapshot.sim.steps
                ));
            }
        }
        (Step::Finish, ServiceResponse::Finished { run: r, metrics }) if r == run => {
            if metrics.global_count != Some(metrics.true_population as i64)
                || metrics.global_count != Some(feed.global_count)
                || metrics.oracle_violations != 0
                || metrics.degraded
            {
                return Err(format!(
                    "Finish: global_count {:?}, true population {}, reference {}, {} oracle violations, degraded {}",
                    metrics.global_count,
                    metrics.true_population,
                    feed.global_count,
                    metrics.oracle_violations,
                    metrics.degraded
                ));
            }
            if fnv.0 != feed.final_digest {
                return Err(format!(
                    "event digest {:#018x} != in-process reference {:#018x}",
                    fnv.0, feed.final_digest
                ));
            }
        }
        (Step::Stop, ServiceResponse::Stopped { run: r }) if r == run => {}
        (step, other) => return Err(format!("{step:?} answered with {other:?}")),
    }
    Ok(())
}

/// Checks the digest of a feed cut after `observed` batches.
fn check_prefix(feed: &Feed, observed: usize, fnv: Fnv) -> Result<(), String> {
    let want = feed.digests[observed];
    if fnv.0 == want {
        Ok(())
    } else {
        Err(format!(
            "event digest after {observed} Observes {:#018x} != in-process reference {want:#018x}",
            fnv.0
        ))
    }
}

/// A feeder sends a set-up probe once this long has passed since its
/// last one ...
const PROBE_EVERY: Duration = Duration::from_millis(500);

/// ... and it has sent this many requests since; on the stalled TCP
/// workload the request count is what spaces the probes.
const PROBE_AFTER_REQUESTS: u64 = 32;

/// Starts and stops tenant `run` on `client` — the set-up a feeder pays
/// before its first batch — and returns the `Start` round trip. The
/// Start's event lines (seed activation) must match the reference.
pub fn probe_start(client: &mut WireClient, feed: &Feed, run: &str) -> Result<f64, String> {
    let mut fnv = Fnv::default();
    let mut start_s = 0.0;
    for step in [Step::Start, Step::Stop] {
        let t = Instant::now();
        let answer = client.call(&feed.request(run, step))?;
        if step == Step::Start {
            start_s = secs(t);
        }
        check_answer(feed, step, run, &answer, &mut fnv)
            .and_then(|()| check_prefix(feed, 0, fnv))
            .map_err(|e| format!("{run}: {e}"))?;
    }
    Ok(start_s)
}

/// One tenant's closed loop: replays `feeds` round-robin from `first`
/// until `deadline`, one request at a time, waiting for each answer. A
/// feed still running at the deadline is cut with `Stop` and its event
/// digest checked up to the cut; a feed that runs to `Finish` is checked
/// against the reference count and digest in full. Between requests the
/// feeder probes set-up with a second tenant (see [`PROBE_EVERY`]). With
/// `alternate`, a pseudo-random half of the requests is traced.
pub fn feed_loop(
    client: &mut WireClient,
    feeds: &[Feed],
    first: usize,
    tag: &str,
    (start, deadline): (Instant, Instant),
    alternate: bool,
    tracer: &mut Tracer,
) -> TenantRun {
    let mut out = TenantRun::default();
    let mut modes = Modes::default();
    let mut req_id = 0u64;
    // The first probe goes out right after the first request: a fresh TCP
    // connection's first exchange skips the Nagle/delayed-ACK stall that
    // every later one pays, so a probe before it would measure another
    // regime than the rest.
    let (mut last_probe, mut probe_req, mut probes) = (None::<Instant>, 0u64, 0u64);
    'feeds: for k in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let fi = (first + k) % feeds.len();
        let feed = &feeds[fi];
        let run = format!("{tag}-{k}");
        let mut fnv = Fnv::default();
        let mut observed = 0usize;
        let steps = feed.steps();
        for (idx, &planned) in steps.iter().enumerate() {
            let due = req_id > 0
                && last_probe.is_none_or(|t| {
                    t.elapsed() >= PROBE_EVERY && req_id - probe_req >= PROBE_AFTER_REQUESTS
                });
            if due {
                out.attempted += 2;
                match probe_start(client, feed, &format!("{tag}-probe-{probes}")) {
                    Ok(s) => out.timeline.setups.push((stamp_ns(start), s)),
                    Err(e) => {
                        out.failed += 1;
                        out.failures.push(e);
                    }
                }
                (last_probe, probe_req, probes) = (Some(Instant::now()), req_id, probes + 1);
            }
            let cut = idx > 0 && Instant::now() >= deadline;
            let step = if cut { Step::Stop } else { planned };
            let traced = alternate && traced_op(req_id);
            tracer.set_enabled(traced);
            let t0 = Instant::now();
            let request = feed.request(&run, step);
            let span = tracer.open("client.call", None, req_id);
            let t = Instant::now();
            let answer = client.call(&request);
            let dt = secs(t);
            tracer.close(span);
            req_id += 1;
            out.attempted += 1;
            if traced && !cut {
                out.indexed.push((fi, idx, dt));
            }
            let verdict = match answer {
                Ok(answer) => check_answer(feed, step, &run, &answer, &mut fnv),
                Err(e) => {
                    // The connection is gone: nothing more can be sent.
                    out.failed += 1;
                    out.failures.push(format!("{run}: {e}"));
                    break 'feeds;
                }
            };
            let verdict = verdict.and_then(|()| match step {
                Step::Stop => check_prefix(feed, observed, fnv),
                _ => Ok(()),
            });
            let mut stepped = false;
            match verdict {
                Ok(()) => match step {
                    Step::Observe(_) => {
                        out.observes += 1;
                        observed += 1;
                        stepped = true;
                    }
                    Step::Finish => out.finished += 1,
                    _ => {}
                },
                Err(e) => {
                    out.failed += 1;
                    out.failures.push(format!("{run} request {idx}: {e}"));
                    if matches!(step, Step::Observe(_)) {
                        observed += 1;
                    }
                }
            }
            out.timeline.ops.push((stamp_ns(start), dt, stepped));
            modes.add(traced, u64::from(stepped), secs(t0));
            if cut {
                break 'feeds;
            }
        }
    }
    out.modes.push(modes);
    out
}

/// Everything one daemon phase measured across its tenants.
pub struct Phase {
    /// Merged feeder results.
    pub tenants: TenantRun,
    /// Per-tenant span recorders.
    pub tracers: Vec<Tracer>,
    /// Wall time from release of the feeders to the last one finishing,
    /// nanoseconds: the end of the phase's clock.
    pub end_ns: u64,
    /// Daemon CPU time (user + system) spent during the phase, seconds.
    pub daemon_cpu_s: f64,
}

/// Runs every tenant's closed loop concurrently for `budget`, each on its
/// own connection and thread. Tenant `t` starts at feed `t`; run ids
/// start with `tag`, which must differ between phases of one daemon.
/// `traced` phases trace a pseudo-random half of the requests.
pub fn run_phase(
    daemon: &Daemon,
    clients: &mut [WireClient],
    feeds: &[Feed],
    budget: Duration,
    tag: &str,
    traced: bool,
    origin: Instant,
) -> Result<Phase, String> {
    let cpu0 = crate::stats::cpu_s(daemon.pid)?;
    let start = Instant::now();
    let deadline = start + budget;
    let results: Vec<(TenantRun, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                s.spawn(move || {
                    let mut tracer = Tracer::new(origin, false, t as u8);
                    let tag = format!("{tag}{t}");
                    let clock = (start, deadline);
                    let first = t % feeds.len();
                    let run = feed_loop(client, feeds, first, &tag, clock, traced, &mut tracer);
                    (run, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("feeder thread panicked"))
            .collect()
    });
    let end_ns = stamp_ns(start);
    let daemon_cpu_s = crate::stats::cpu_s(daemon.pid)? - cpu0;
    let mut tenants = TenantRun::default();
    let mut tracers = Vec::new();
    for (run, tracer) in results {
        tenants.absorb(run);
        tracers.push(tracer);
    }
    Ok(Phase {
        tenants,
        tracers,
        end_ns,
        daemon_cpu_s,
    })
}
