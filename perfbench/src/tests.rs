//! The benchmark's own tests: every workload end to end at toy size, the
//! result line against `BENCHMARK.json`, and the digest check tripping on
//! a tampered event line.

use std::path::{Path, PathBuf};

use vcount_sim::{RunManager, ServiceConfig, ServiceResponse};

use super::*;
use crate::daemon::check_answer;
use crate::feed::{Fnv, Step};

/// The `vcount` binary the daemon workloads spawn; `run.py --test` builds
/// it and sets `VCOUNT_BIN`.
fn vcount_bin() -> PathBuf {
    PathBuf::from(std::env::var("VCOUNT_BIN").expect(
        "VCOUNT_BIN must name a built `vcount` binary: run `python3 perfbench/run.py --test`",
    ))
}

/// Metric names listed under `section` in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let v: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    (0..)
        .map_while(|i| v[section][i]["name"].as_str().map(String::from))
        .collect()
}

fn toy_args(name: &str, trace: bool, run_dir: &Path) -> Args {
    Args {
        workload: workload(name, true).expect("known workload"),
        seed: 3,
        seconds: 2.0,
        trace,
        vcount: vcount_bin(),
        run_dir: run_dir.to_path_buf(),
    }
}

#[test]
fn every_workload_runs_at_toy_size_and_reports_what_it_declares() {
    let run_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".run/test-toy");
    let e2e = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(e2e.contains(&"setup_s".to_string()));
    for name in ["midtown_run", "vcountd_unix", "vcountd_tcp"] {
        for trace in [false, true] {
            let out = run(&toy_args(name, trace, &run_dir)).expect("workload runs");
            assert!(out.correct, "{name} trace={trace}: {:?}", out.notes);
            assert!(out.attempted > 0 && out.failed == 0, "{name} trace={trace}");
            let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let want = if trace { &per_layer } else { &e2e };
            assert_eq!(got.len(), want.len(), "{name} trace={trace}: {got:?}");
            for w in want {
                assert!(got.contains(&w.as_str()), "{name} trace={trace} lacks {w}");
            }
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{name} {} = {}", m.name, m.value);
            }
            if !trace {
                let ok = out.metrics.iter().find(|m| m.name == "ok_share").unwrap();
                assert_eq!(ok.value, 1.0, "{name}");
            }
        }
    }
    // Every daemon was reaped and its socket removed.
    let leftovers: Vec<_> = std::fs::read_dir(&run_dir)
        .expect("run dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "sock"))
        .collect();
    assert!(leftovers.is_empty(), "sockets left behind: {leftovers:?}");
}

/// Replays a toy feed through an in-process manager, feeding every answer
/// to the benchmark's checker, with one event line altered in transit when
/// `tamper` is set. Returns the first check failure.
fn replay_with(tamper: Option<usize>) -> Result<(), String> {
    let spec = workload("vcountd_unix", true).unwrap().spec;
    let feed = Feed::build(&spec, spec.scenario(3, 0)).expect("toy feed builds");
    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut fnv = Fnv::default();
    let mut events = 0usize;
    for step in feed.steps() {
        let mut answer = Vec::new();
        mgr.handle(feed.request("t", step), &mut answer);
        for resp in &mut answer {
            if let ServiceResponse::Event { line, .. } = resp {
                if tamper == Some(events) {
                    *line = line.replacen("\"t\":", "\"t\": ", 1);
                }
                events += 1;
            }
        }
        check_answer(&feed, step, "t", &answer, &mut fnv)?;
    }
    assert!(feed.complete(), "the toy feed reaches Finish");
    assert!(events > 10, "the toy feed streams events");
    Ok(())
}

#[test]
fn digest_check_passes_untouched_and_trips_on_a_tampered_event_line() {
    replay_with(None).expect("the untouched stream matches its reference");
    let err = replay_with(Some(7)).expect_err("a tampered line must fail the check");
    assert!(err.contains("event digest"), "{err}");
}

#[test]
fn a_cut_feed_is_checked_up_to_the_cut() {
    let spec = workload("vcountd_tcp", true).unwrap().spec;
    let feed = Feed::build(&spec, spec.scenario(3, 0)).expect("toy feed builds");
    assert!(!feed.complete() && !feed.sims.is_empty());
    let steps = feed.steps();
    assert_eq!(steps.last(), Some(&Step::Stop));
    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut fnv = Fnv::default();
    for &step in &steps {
        let mut answer = Vec::new();
        mgr.handle(feed.request("t", step), &mut answer);
        check_answer(&feed, step, "t", &answer, &mut fnv).expect("answer matches");
    }
    assert_eq!(fnv.0, feed.digests[feed.batches.len()]);
}
