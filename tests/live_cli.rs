//! The `diablo` binary driven as a real process: live mode over actual
//! sockets, and the Secondary's connect-failure contract — transient
//! refusals are retried per `--retry` and exit with the generic failure
//! code, while a non-transient bad address fails fast with its own
//! documented exit code.

use std::io::Read;
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const EXIT_FAILURE: i32 = 1;
const EXIT_NON_TRANSIENT: i32 = 2;

fn diablo(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_diablo"))
        .args(args)
        .output()
        .expect("spawn diablo")
}

#[test]
fn bad_address_fails_fast_with_the_non_transient_exit_code() {
    let start = Instant::now();
    let out = diablo(&[
        "secondary",
        "--primary=999.999.0.1:70000",
        // A generous retry budget that must NOT be spent: bad addresses
        // are permanent and skip the retry loop entirely.
        "--retry=10x500/10000",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_NON_TRANSIENT));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad address"), "stderr: {stderr}");
    assert!(
        start.elapsed().as_millis() < 2_000,
        "a non-transient error must not sit out the retry backoff"
    );
}

#[test]
fn refused_connection_is_retried_then_fails_generically() {
    // Bind a port, then free it: nothing listens there, so every
    // connect attempt is refused — the canonical transient error.
    let port = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").port()
    };
    let start = Instant::now();
    let out = diablo(&[
        "secondary",
        &format!("--primary=127.0.0.1:{port}"),
        "--retry=3x200/5000",
    ]);
    assert_eq!(out.status.code(), Some(EXIT_FAILURE));
    // Three attempts with a 200 ms backoff between them: the process
    // must have actually waited out at least the two gaps.
    assert!(
        start.elapsed().as_millis() >= 400,
        "exited after {:?} — the retry backoff was skipped",
        start.elapsed()
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("attempts") || stderr.contains("refused") || stderr.contains("connect"),
        "stderr should describe the exhausted retries: {stderr}"
    );
}

#[test]
fn unknown_flags_are_a_usage_error() {
    let out = diablo(&["run", "--no-such-flag", "workloads/exchange.yaml"]);
    assert_eq!(out.status.code(), Some(EXIT_FAILURE));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--no-such-flag"), "stderr: {stderr}");
}

#[test]
fn zero_secondaries_are_refused_before_anyone_waits() {
    // A live run spawns no Secondary for `--secondaries=0`, and its
    // Primary used to wait to accept one all the same; `diablo primary`
    // did too, and `diablo run` planned on one.
    for args in [
        &["run", "--live"][..],
        &["run"][..],
        &["primary", "--port=0"][..],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_diablo"))
            .args(args)
            .args([
                "--secondaries=0",
                "--chain=quorum",
                "workloads/exchange.yaml",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn diablo");
        let start = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("try_wait") {
                break Some(status);
            }
            if start.elapsed() > Duration::from_secs(5) {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let mut stderr = String::new();
        let _ = child
            .stderr
            .take()
            .expect("stderr")
            .read_to_string(&mut stderr);
        assert_eq!(
            status.map(|s| s.code()),
            Some(Some(EXIT_FAILURE)),
            "{args:?} (None: still running after 5 s); stderr: {stderr}"
        );
        assert!(
            stderr.contains("at least one secondary"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn live_run_over_real_secondaries_reports_a_fidelity_score() {
    let out_path = std::env::temp_dir().join(format!("diablo-live-cli-{}.json", std::process::id()));
    let out = diablo(&[
        "run",
        "--live",
        "--chain=quorum",
        "--seed=11",
        "--secondaries=2",
        "--grace=1",
        "--time-scale=50",
        &format!("--output={}", out_path.display()),
        "workloads/exchange.yaml",
    ]);
    assert!(
        out.status.success(),
        "live run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_path).expect("results written");
    let _ = std::fs::remove_file(&out_path);

    // The live report carries the live-diff section with a finite
    // fidelity and no lost Secondaries.
    assert!(json.contains("\"liveDiff\":{"), "no liveDiff section: {json}");
    assert!(json.contains("\"lostSecondaries\":0"), "workers died: {json}");
    let fidelity: f64 = json
        .split("\"fidelity\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("fidelity field parses");
    assert!(
        fidelity.is_finite() && fidelity > 0.0 && fidelity <= 1.0,
        "fidelity out of range: {fidelity}"
    );
}
