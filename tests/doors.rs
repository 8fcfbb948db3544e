//! Hostile input at the `diablo` binary's doors, one table row per
//! probe: the process must refuse it with a typed error (its exit code
//! and a message naming what is wrong) before the row's deadline, under
//! a 2 GB address-space limit, never by aborting on an allocation (exit
//! 134), being killed (exit 137) or waiting for a Secondary. A refused
//! invocation never announces a port. The refusals that
//! `tests/live_cli.rs` pins by name (a bad address, an unknown flag, no
//! Secondaries) are not rows here.

mod runner;

use std::time::Duration;

/// A row's input file, whose path stands for `{input}` in its
/// arguments and message fragments.
type Input = Option<fn() -> String>;

/// `(arguments, input, exit code, message fragments, deadline in ms)`.
type Door = (&'static str, Input, i32, &'static [&'static str], u64);

/// A load key past the end of the simulation clock.
const BIG_KEY: &str = r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 10 } }
          load:
            0: 10
            18446744073710: 0
"#;

/// Two clients invoking two DApps.
const TWO_DAPPS: &str = r#"
workloads:
  - number: 2
    client:
      behavior:
        - interaction: !invoke
            from: { sample: !account { number: 10 } }
            contract: { sample: !contract { name: "nasdaq" } }
            function: "buyApple"
          load:
            0: 10
            6: 0
        - interaction: !invoke
            from: { sample: !account { number: 10 } }
            contract: { sample: !contract { name: "dota" } }
            function: "update(1, 1)"
          load:
            0: 10
            6: 0
"#;

#[rustfmt::skip]
const ROWS: &[Door] = &[
    // A node count is a range until it meets the deployment: a billion
    // nodes used to be a billion-entry list, built before any check.
    ("run --chain=quorum --crash=1000000000@1 workloads/native-10.yaml", None, 1,
        &["node 999999999", "10 nodes"], 1000),
    ("run --chain=quorum --partition=0-1000000000/1@1..2 workloads/native-10.yaml", None, 1,
        &["node 1000000000", "10 nodes"], 1000),
    // Nodes past the deployment used to be ignored, and the run exit 0.
    ("run --chain=quorum --crash=50@1 workloads/native-10.yaml", None, 1,
        &["node 49", "10 nodes"], 1000),
    // A slowdown factor below 1 (or NaN) used to be clamped to no
    // slowdown at all: an unfaulted run, exit 0, reported as faulted.
    // Kills: `chaos.rs` without its factor check (exit 0).
    ("run --chain=quorum --slowdown=0.5@1 workloads/native-10.yaml", None, 1,
        &["factor `0.5`"], 1000),
    // A grace of 18,446,744,073,710 s wrapped the clock's u64
    // microseconds to a 0.45 s drain, exit 0; a load key as far out
    // died allocating the load curve, exit 134.
    ("run --chain=ethereum --grace=18446744073710 workloads/native-10.yaml", None, 1,
        &["bad --grace"], 1000),
    ("run --chain=ethereum {input}", Some(|| BIG_KEY.into()), 1,
        &["past the end of the simulation clock"], 1000),
    // Readers used to recurse once per bracket or level and die of a
    // stack overflow, exit 134: results JSON fed to `compare`, and specs.
    ("compare {input} {input}", Some(|| "[".repeat(200_000)), 1,
        &["json error at byte"], 1000),
    ("run --chain=quorum {input}", Some(|| format!("workloads: {}\n", "[".repeat(200_000))), 1,
        &["line 1: nesting deeper than"], 1000),
    // `{}` used to compare as a table of zeros and `?`, exit 0.
    ("compare {input} {input}", Some(|| "{}".into()), 1,
        &["{input}: ", "not a results file"], 1000),
    // Both Primaries refuse a spec invoking two DApps. `diablo primary`
    // used to accept the Secondaries and run both DApps' calls.
    // Kills: `cmd_primary` announcing its port before `primary::check`.
    ("run --chain=quorum {input}", Some(|| TWO_DAPPS.into()), 1,
        &["one DApp per benchmark"], 1000),
    ("primary --chain=quorum --secondaries=1 --port=0 {input}", Some(|| TWO_DAPPS.into()), 1,
        &["one DApp per benchmark"], 1000),
    // A Secondary count no spec can use is refused by every Primary
    // before it spawns or accepts anything (a count of 0 is
    // `live_cli.rs::zero_secondaries_are_refused_before_anyone_waits`).
    // A billion crashed `run` spawning planner threads or allocating
    // their plans, and `run --live` spawned that many processes, so its
    // row asks for 3 Secondaries of a 2-client spec.
    // Kills: `prepare` without `check_secondaries` (a billion aborts
    // allocating 8 GB of client ranges; the live run spawns three
    // Secondaries and is killed at its deadline).
    ("run --secondaries=1000000000 --chain=quorum workloads/exchange.yaml", None, 1,
        &["1000000000 secondaries for 2 clients"], 1000),
    ("run --live --secondaries=3 --chain=quorum workloads/exchange.yaml", None, 1,
        &["3 secondaries for 2 clients"], 1000),
    ("primary --port=0 --secondaries=1000000000 --chain=quorum workloads/exchange.yaml", None, 1,
        &["1000000000 secondaries for 2 clients"], 1000),
];

#[test]
fn every_door_refuses_its_probe_quickly_and_by_name() {
    for (row, (args, input, code, fragments, deadline)) in ROWS.iter().enumerate() {
        let path = std::env::temp_dir().join(format!("diablo-door-{}-{row}", std::process::id()));
        let path = path.to_str().expect("utf-8 temp dir");
        if let Some(input) = input {
            std::fs::write(path, input()).expect("write the row's input");
        }
        let fill = |s: &str| s.replace("{input}", path);
        let args: Vec<String> = args.split_whitespace().map(fill).collect();
        let fragments: Vec<String> = fragments.iter().map(|f| fill(f)).collect();
        runner::refuses(&args, *code, &fragments, Duration::from_millis(*deadline));
        let _ = std::fs::remove_file(path);
    }
}
