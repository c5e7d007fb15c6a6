//! Sample statistics, in-memory spans, `/proc` readers and the result
//! line the benchmark prints.

use std::fmt::Write as _;
use std::time::Instant;

/// The nearest-rank `q`-quantile of `samples` (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Seconds since `t`, as `f64`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One timed interval at a layer boundary: what ran, when, under which
/// parent span, for which request (or step) index.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `engine.ingest`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Request (or step) id shared by every span of one operation.
    pub req: u64,
    /// Tenant (thread) that recorded the span; 0 in-process.
    pub tenant: u8,
}

/// Spans kept in memory for the whole run and written out when it ends.
/// A disabled tracer records nothing, so the same code path serves the
/// untraced and the traced halves of a run.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    tenant: u8,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for `tenant`, timing from `origin`.
    pub fn new(origin: Instant, enabled: bool, tenant: u8) -> Self {
        Tracer {
            origin,
            enabled,
            tenant,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off, operation by operation in the traced run.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its index (`usize::MAX` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            tenant: self.tenant,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` (no-op when disabled).
    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// The share of the spans called `root` that their direct children
    /// cover: the named layers' share of each operation, so that work in a
    /// layer without a span lowers it.
    pub fn child_coverage(&self, root: &str) -> f64 {
        let ns = |s: &Span| (s.end_ns - s.start_ns) as f64;
        let is_root = |i: Option<usize>| i.is_some_and(|i| self.spans[i].name == root);
        let roots: f64 = self.spans.iter().filter(|s| s.name == root).map(ns).sum();
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| is_root(s.parent))
            .map(ns)
            .sum();
        children / roots
    }
}

/// Whether operation `id` of the traced run's loop is traced: a
/// pseudo-random half of the operations (SplitMix64 of the id), so that
/// both halves see the same moments of the machine's drifting speed and
/// the same mix of work, and no periodic pattern in the workload lines up
/// with the choice.
pub fn traced_op(id: u64) -> bool {
    let mut z = id.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) & 1 == 1
}

/// Steps and time spent on the untraced (`[0]`) and traced (`[1]`)
/// operations of one closed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Modes {
    steps: [u64; 2],
    secs: [f64; 2],
}

impl Modes {
    /// Adds one operation that took `secs` and completed `steps` steps.
    pub fn add(&mut self, traced: bool, steps: u64, secs: f64) {
        self.steps[usize::from(traced)] += steps;
        self.secs[usize::from(traced)] += secs;
    }

    /// Steps per second of the loop while (un)traced.
    pub fn rate(&self, traced: bool) -> f64 {
        self.steps[usize::from(traced)] as f64 / self.secs[usize::from(traced)]
    }
}

/// Length of one window of an untraced run's timeline.
const WINDOW_NS: u64 = 200_000_000;

/// Share of a run's windows, those with the highest operation rate, that
/// the end-to-end metrics are computed over. The host's speed swings by up to
/// 1.5x between states that last from a tenth of a second to minutes,
/// and interference only ever slows the program down: the run's quietest
/// windows are the best estimate of the program's own speed. On ten 30 s
/// `midtown_run` runs, keeping a twentieth of the 0.2 s windows cut the
/// spread of `lat_p50_ms` from 0.14 to 0.09 and of `steps_per_s` from 0.13
/// to 0.09; on fifteen `vcountd_unix` runs, that of `lat_p90_ms` from 0.49
/// to 0.07 and of `steps_per_s` from 0.25 to 0.07.
const QUIET_SHARE: f64 = 0.05;

/// The quiet windows are widened, fastest first, until they hold at least
/// this many operations, so that p90 has ten samples beyond it however
/// slow each operation is (`vcountd_tcp` needs about 5 s of its run).
const QUIET_MIN_OPS: u64 = 100;

/// Everything an untraced run measured, stamped on one clock that starts
/// with the measured loop.
#[derive(Default)]
pub struct Timeline {
    /// `(end ns, seconds, completed a step)` of every operation a user
    /// waits on: a `midtown_run` step, or a feeder request.
    pub ops: Vec<(u64, f64, bool)>,
    /// `(taken at ns, seconds)` of every set-up sample.
    pub setups: Vec<(u64, f64)>,
}

/// The part of a [`Timeline`] in its quietest windows.
pub struct Quiet {
    /// Steps completed per second of the quiet windows.
    pub steps_per_s: f64,
    /// Latencies of the operations that ended in them, milliseconds.
    pub lat_ms: Vec<f64>,
    /// Set-up samples taken in them (every sample when none was).
    pub setup_s: Vec<f64>,
    /// Quiet windows, and whole windows in the run.
    pub windows: (usize, usize),
}

impl Timeline {
    /// Splits the run, which lasted `end_ns`, into whole [`WINDOW_NS`]
    /// windows (one shorter window if the run was shorter), keeps the
    /// [`QUIET_SHARE`] of them with the highest operation rate (more if
    /// they hold fewer than [`QUIET_MIN_OPS`] operations), and gathers what
    /// happened in those. A window's operation rate is its operations over
    /// the time from the last one before it to its own last one; every
    /// kind of operation counts, so that a window is not passed over for
    /// holding fewer steps and more of the other requests.
    pub fn quiet(&self, end_ns: u64) -> Quiet {
        let len = WINDOW_NS.min(end_ns).max(1);
        let n = (end_ns / len).max(1) as usize;
        let window = |t: u64| (t / len) as usize;
        let mut ends: Vec<(u64, bool)> = self.ops.iter().map(|op| (op.0, op.2)).collect();
        ends.sort_unstable();
        let (mut ops, mut steps, mut span_ns) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
        let mut prev = 0;
        for &(t, step) in ends.iter().take_while(|e| window(e.0) < n) {
            ops[window(t)] += 1;
            steps[window(t)] += u64::from(step);
            span_ns[window(t)] += t - prev;
            prev = t;
        }
        let rate = |w: usize| ops[w] as f64 / span_ns[w].max(1) as f64;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| rate(b).total_cmp(&rate(a)));
        let kept = |v: &[u64], keep: usize| -> u64 { order[..keep].iter().map(|&w| v[w]).sum() };
        let mut keep = ((n as f64 * QUIET_SHARE).ceil() as usize).clamp(1, n);
        while keep < n && kept(&ops, keep) < QUIET_MIN_OPS {
            keep += 1;
        }
        let mut quiet = vec![false; n];
        for &w in &order[..keep] {
            quiet[w] = true;
        }
        let in_quiet = |t: u64| quiet.get(window(t)).copied().unwrap_or(false);
        let lat_ms = self
            .ops
            .iter()
            .filter(|op| in_quiet(op.0))
            .map(|op| op.1 * 1e3)
            .collect();
        let mut setup_s: Vec<f64> = self
            .setups
            .iter()
            .filter(|s| in_quiet(s.0))
            .map(|s| s.1)
            .collect();
        if setup_s.is_empty() {
            setup_s = self.setups.iter().map(|s| s.1).collect();
        }
        Quiet {
            steps_per_s: kept(&steps, keep) as f64 / (kept(&span_ns, keep) as f64 * 1e-9),
            lat_ms,
            setup_s,
            windows: (keep, n),
        }
    }
}

/// Nanoseconds from `origin` to now.
pub fn stamp_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Appends one tracer's spans to `all`, re-basing their parent indices.
pub fn append_spans(all: &mut Vec<Span>, spans: &[Span]) {
    let base = all.len();
    all.extend(spans.iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        ..s.clone()
    }));
}

/// Writes every span as one JSON line to `path`; `parent` is an index
/// into the same file's lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"tenant\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req, s.tenant
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// User plus system CPU time of process `pid`, seconds.
pub fn cpu_s(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: malformed"))
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// The unit of process times in `/proc/<pid>/stat`: 100 per second on
/// every Linux architecture.
const USER_HZ: f64 = 100.0;

/// One metric of the result line.
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (reported on stderr only).
    pub samples: usize,
}

/// The outcome of one benchmark run.
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (check failures, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {why}"));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() {
                format!("{:?}", metric.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                m,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                metric.name,
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}
