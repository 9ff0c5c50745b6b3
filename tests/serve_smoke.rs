//! End-to-end smoke of the `kdom-serve` binary: start a server on an
//! ephemeral port, submit a sweep over two algorithms × three seeds,
//! resubmit it, and assert the second pass was served from the cache
//! and that cache-hit `WAIT`s come back without a delayed-ACK stall.
//! Per-job JSONL traces land in `target/serve-smoke/` so a failing CI
//! run has artifacts to upload.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use kdom::congest::transport::Endpoint;
use kdom::congest::{Algo, RunSpec, SweepSpec};
use kdom::serve::Client;

/// Kills the server on drop so a failing assertion doesn't leak it.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn artifact_dir() -> std::path::PathBuf {
    // target/serve-smoke, derived from this test binary's location
    let mut dir = std::env::current_exe().expect("test exe path");
    while dir.file_name().is_some_and(|n| n != "target") {
        dir.pop();
    }
    dir.join("serve-smoke")
}

fn start_server() -> (ServerGuard, Endpoint) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kdom-serve"))
        .args(["serve", "--listen", "tcp:127.0.0.1:0", "--jobs", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn kdom-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read readiness line");
    let ep: Endpoint = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected readiness line {line:?}"))
        .parse()
        .expect("endpoint parses");
    (ServerGuard(child), ep)
}

#[test]
fn sweep_twice_hits_the_cache_and_streams_traces() {
    let (server, ep) = start_server();
    let mut client = Client::connect(&ep).expect("connect");
    client.ping().expect("server is live");

    let info = client.graph_spec("grid:64:9").expect("install graph");
    let sweep = SweepSpec::new(RunSpec::default().with_k(4).with_trace(true))
        .over_algos(&[Algo::SimpleMst, Algo::Bfs])
        .over_seeds(&[1, 2, 3]);

    let first = client.sweep(info.fingerprint, &sweep).expect("first sweep");
    assert_eq!(first.len(), 6, "2 algorithms × 3 seeds");
    let mut first_replies = Vec::new();
    for id in &first {
        let reply = client.wait(*id).expect("job finishes");
        assert!(!reply.from_cache, "a fresh sweep must miss");
        assert_eq!(reply.outputs.len(), info.nodes);
        first_replies.push(reply);
    }

    // harvest the JSONL traces as CI artifacts and sanity-check them
    let dir = artifact_dir();
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    for (id, spec) in first.iter().zip(sweep.specs()) {
        let path = dir.join(format!("job-{id}-{}-s{}.jsonl", spec.algo, spec.seed));
        let mut lines = Vec::new();
        client
            .trace(*id, |l| lines.push(l.to_string()))
            .expect("stream trace");
        assert!(!lines.is_empty(), "traced jobs must emit events");
        for line in &lines {
            assert!(line.starts_with('{'), "JSONL line expected, got {line:?}");
        }
        std::fs::write(&path, lines.join("\n") + "\n").expect("write artifact");
    }

    // the identical sweep again: every job served from the cache,
    // byte-identical to the first pass
    let second = client.sweep(info.fingerprint, &sweep).expect("resubmit");
    let mut hits = 0;
    for (id, want) in second.iter().zip(&first_replies) {
        let reply = client.wait(*id).expect("cached job finishes");
        hits += u64::from(reply.from_cache);
        assert_eq!(reply.report, want.report, "cached report identical");
        assert_eq!(reply.outputs, want.outputs, "cached outputs identical");
    }
    assert_eq!(hits, 6, "the whole resubmitted sweep must hit the cache");

    // a hit's WAIT reply is two frames; with Nagle on, the second one
    // waits for the client's delayed ACK (about 40 ms a reply)
    let started = Instant::now();
    for _ in 0..4 {
        for id in &second {
            assert!(client.wait(*id).expect("cached job").from_cache);
        }
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(240),
        "24 cache-hit WAITs took {elapsed:?}: is TCP_NODELAY set?"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.pool.submitted, 12);
    assert_eq!(stats.pool.engine_runs, 6, "resubmission ran nothing");
    assert!(stats.pool.cache.hits >= 6);
    assert_eq!(stats.graphs, 1);

    client.shutdown().expect("graceful shutdown");
    drop(server); // reaps the child (already exiting)
}
