//! The `diablo` binary driven as real processes: what a run writes, one
//! table row per check, live mode over actual sockets, and the
//! Secondary's connect-failure contract: a refused connection is
//! retried per `--retry` and exits 1, a bad address fails fast with
//! exit 2. Other refusals are the rows of `tests/doors.rs`.

mod runner;

use std::net::TcpListener;
use std::path::Path;
use std::time::Duration;

/// The results JSON of `ROWS[0]`'s run, byte for byte.
const GOLDEN: &str = "results/golden_sim_exchange.json";

/// Every process of a row must exit 0 by then.
const DEADLINE: Duration = Duration::from_secs(5);

/// A spec whose instants tie across clients and behaviours, so that
/// any reordering of its plan changes fates.
const TIES: &str = r#"
workloads:
  - number: 5
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 3 } }
          load:
            0: 1000
            8: 0
        - interaction: !transfer
            from: { sample: !account { number: 7 } }
          load:
            0: 50
            8: 0
"#;

/// A row's steps run one after the other, the processes of a step all
/// at once, each to exit 0 within [`DEADLINE`]; then its check reads
/// the row's directory and what the last process printed. In an
/// argument, `{dir}` is that directory, which holds [`TIES`] as
/// `ties.yaml`, and `{port}` the port the step's first process
/// announced.
type Row = (&'static [&'static [&'static str]], fn(&Path, &runner::Ran));

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // The deterministic path, byte for byte. After a meant change,
    // regenerate the golden with `--output=results/golden_sim_exchange.json`.
    // Kills: one telemetry counter renamed.
    (&[&["run --chain=quorum --seed=11 --output={dir}/run.json workloads/exchange-apple.yaml"]],
        |dir, _| {
            let golden = std::fs::read_to_string(GOLDEN).expect("golden");
            // With telemetry compiled out the document has no section.
            let want = if diablo::telemetry::enabled() { golden } else { cut(&golden) };
            assert!(read(dir, "run.json") == want, "the results JSON is not {GOLDEN}");
        }),
    (&[&["compare results/golden_sim_exchange.json results/golden_sim_exchange.json"]],
        |_, ran| assert!(ran.stdout.contains("committed"), "{}", ran.stdout)),
    // Fault injection draws all its randomness from the seeded sim.
    (&[&["run --chain=quorum --seed=11 --crash=2@10..25 --loss=10%@0..40 \
          --output={dir}/a.json workloads/exchange-partition.yaml",
         "run --chain=quorum --seed=11 --crash=2@10..25 --loss=10%@0..40 \
          --output={dir}/b.json workloads/exchange-partition.yaml"]],
        |dir, _| assert!(read(dir, "a.json") == read(dir, "b.json"), "chaos reruns differ")),
    // The store sees only the canonical execution: its section and its
    // counters are the serial run's under 8 optimistic workers.
    (&[&["run --chain=quorum --seed=11 --exec-mode=exact --execution=optimistic --threads=8 \
          --store --output={dir}/a.json workloads/exchange-apple.yaml",
         "run --chain=quorum --seed=11 --exec-mode=exact --threads=1 \
          --store --output={dir}/b.json workloads/exchange-apple.yaml"]],
        |dir, _| {
            let (a, b) = (read(dir, "a.json"), read(dir, "b.json"));
            assert!(cut(&a) == cut(&b), "store runs differ across executors");
            assert!(a.contains("\"storage\":{\"mode\":\"full\""));
            let counters = |json: &str| -> Vec<String> {
                let ends = |i: usize| i + json[i..].find([',', '}']).expect("a value");
                json.match_indices("\"store.").map(|(i, _)| json[i..ends(i)].to_string()).collect()
            };
            assert_eq!(counters(&a), counters(&b));
            assert_eq!(counters(&a).is_empty(), !diablo::telemetry::enabled());
        }),
    // A pinned-seed trace does not depend on the executor, and
    // trace-diff aligns every transaction of two equal files.
    (&[&["run --chain=quorum --seed=11 --exec-mode=exact --threads=1 --trace-sample=64 \
           --trace-out={dir}/a.json workloads/exchange-apple.yaml",
         "run --chain=quorum --seed=11 --exec-mode=exact --threads=8 --trace-sample=64 \
           --trace-out={dir}/b.json workloads/exchange-apple.yaml"],
       &["trace-diff {dir}/a.json {dir}/b.json"]],
        |dir, ran| {
            let a = read(dir, "a.json");
            assert!(a == read(dir, "b.json") && a.contains("\"ph\":\"X\""), "{a}");
            assert!(ran.stdout.contains("(0 only in A, 0 only in B)"), "{}", ran.stdout);
        }),
    // A run the chain cannot make writes no trace, and its warning
    // names the unable run, not a compiled-out tracer.
    (&[&["run --chain=algorand --trace-out={dir}/t.json workloads/uber.yaml"]],
        |dir, ran| {
            let warning = &ran.stderr;
            assert!(warning.contains("unable") && !warning.contains("compiled out"), "{warning}");
            assert!(!dir.join("t.json").exists(), "a trace was written");
        }),
    // A Primary and two Secondary processes write the results of
    // `diablo run` at the same Secondary count and seed, but for the
    // telemetry section, which also holds the Secondaries' planning.
    (&[&["primary --chain=diem --secondaries=2 --seed=5 --port=0 \
          --output={dir}/primary.json {dir}/ties.yaml",
         "secondary --primary=127.0.0.1:{port} --tag=us-east-2",
         "secondary --primary=127.0.0.1:{port} --tag=eu-north-1",
         "run --chain=diem --secondaries=2 --seed=5 --output={dir}/run.json {dir}/ties.yaml"]],
        |dir, _| {
            let (primary, run) = (read(dir, "primary.json"), read(dir, "run.json"));
            assert!(cut(&primary) == cut(&run), "the Primary's results are not `run`'s");
        }),
];

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// A results document without its telemetry section, the last one.
fn cut(json: &str) -> String {
    match json.find(",\"telemetry\":") {
        Some(at) => format!("{}}}", &json[..at]),
        None => json.to_string(),
    }
}

#[test]
fn every_row_exits_0_and_writes_what_its_check_reads() {
    for (row, (steps, check)) in ROWS.iter().enumerate() {
        let traced = steps
            .iter()
            .flat_map(|s| s.iter())
            .any(|line| line.contains("--trace-out"));
        if traced && !diablo::telemetry::enabled() {
            continue; // the tracer is compiled out
        }
        let dir = std::env::temp_dir().join(format!("diablo-row-{}-{row}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("row directory");
        std::fs::write(dir.join("ties.yaml"), TIES).expect("ties.yaml");
        let mut last = None;
        for step in *steps {
            let mut procs: Vec<runner::Proc> = Vec::new();
            let mut port = None;
            for line in *step {
                let mut args: Vec<String> = line
                    .split_whitespace()
                    .map(|a| a.replace("{dir}", dir.to_str().unwrap()))
                    .collect();
                if args.iter().any(|a| a.contains("{port}")) {
                    let port = port.get_or_insert_with(|| {
                        let line = procs[0].stderr_line("primary listening on port ");
                        line.and_then(|l| Some(l.split_once(',')?.0.to_string()))
                            .expect("an announced port")
                    });
                    args.iter_mut().for_each(|a| *a = a.replace("{port}", port));
                }
                procs.push(runner::spawn(&args, DEADLINE));
            }
            for proc in procs {
                let ran = proc.finish();
                assert_eq!(
                    ran.code,
                    Some(0),
                    "row {row} after {:?}: {}",
                    ran.elapsed,
                    ran.stderr
                );
                last = Some(ran);
            }
        }
        check(&dir, &last.expect("a row runs a process"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn bad_address_fails_fast_with_the_non_transient_exit_code() {
    // A generous retry budget that must NOT be spent: bad addresses are
    // permanent and skip the retry loop, so the deadline is under it.
    let args = [
        "secondary",
        "--primary=999.999.0.1:70000",
        "--retry=10x500/10000",
    ];
    runner::refuses(&args, 2, &["bad address"], Duration::from_secs(2));
}

#[test]
fn refused_connection_is_retried_then_fails_generically() {
    // Bind a port, then free it: nothing listens there, so every
    // connect attempt is refused — the canonical transient error.
    let port = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").port()
    };
    let primary = format!("--primary=127.0.0.1:{port}");
    let ran = runner::run(&["secondary", &primary, "--retry=3x200/5000"], DEADLINE);
    assert_eq!(ran.code, Some(1), "{}", ran.stderr);
    // Three attempts with a 200 ms backoff between them: the process
    // must have actually waited out at least the two gaps.
    assert!(
        ran.elapsed >= Duration::from_millis(400),
        "exited after {:?} — the retry backoff was skipped",
        ran.elapsed
    );
    let stderr = &ran.stderr;
    assert!(
        stderr.contains("attempts") || stderr.contains("refused") || stderr.contains("connect"),
        "stderr should describe the exhausted retries: {stderr}"
    );
}

#[test]
fn live_run_over_real_secondaries_reports_a_fidelity_score() {
    let out_path =
        std::env::temp_dir().join(format!("diablo-live-cli-{}.json", std::process::id()));
    let ran = runner::run(
        &[
            "run",
            "--live",
            "--chain=quorum",
            "--seed=11",
            "--secondaries=2",
            "--grace=1",
            "--time-scale=50",
            &format!("--output={}", out_path.display()),
            "workloads/exchange.yaml",
        ],
        DEADLINE,
    );
    assert_eq!(ran.code, Some(0), "live run failed: {}", ran.stderr);
    let json = std::fs::read_to_string(&out_path).expect("results written");
    let _ = std::fs::remove_file(&out_path);

    // The live report carries the live-diff section with a finite
    // fidelity and no lost Secondaries.
    assert!(
        json.contains("\"liveDiff\":{"),
        "no liveDiff section: {json}"
    );
    assert!(
        json.contains("\"lostSecondaries\":0"),
        "workers died: {json}"
    );
    assert!(json.contains("\"phases\":["), "no phases: {json}");
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

#[test]
fn unknown_flags_are_a_usage_error() {
    let args = ["run", "--no-such-flag", "workloads/exchange.yaml"];
    runner::refuses(&args, 1, &["--no-such-flag"], DEADLINE);
}

#[test]
fn zero_secondaries_are_refused_before_anyone_waits() {
    // A live run spawns no Secondary for `--secondaries=0`, and its
    // Primary used to wait to accept one all the same; `diablo primary`
    // did too, and `diablo run` planned on one and divided by zero.
    // Kills: `prepare` without `check_secondaries` (exit 101, or killed
    // at the deadline while waiting).
    for door in ["run", "run --live", "primary --port=0"] {
        let args: Vec<&str> = door
            .split_whitespace()
            .chain([
                "--secondaries=0",
                "--chain=quorum",
                "workloads/exchange.yaml",
            ])
            .collect();
        runner::refuses(
            &args,
            1,
            &["at least one secondary"],
            Duration::from_secs(1),
        );
    }
}
