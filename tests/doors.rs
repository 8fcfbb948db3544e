//! Hostile input at the `diablo` binary's doors, one table row per
//! probe: the process must refuse it with a typed error (exit 1 and a
//! message naming what is wrong), quickly and under a 2 GB address-space
//! limit, never by aborting on an allocation (exit 134) or being killed
//! (exit 137).

use std::process::Command;
use std::time::{Duration, Instant};

const NATIVE_10: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads/native-10.yaml");

/// `(arguments, fragments the error message must contain)`.
const ROWS: &[(&[&str], &[&str])] = &[
    // A node count is a range until it meets the deployment: a billion
    // nodes used to be a billion-entry list, built before any check.
    (
        &["run", "--chain=quorum", "--crash=1000000000@1", NATIVE_10],
        &["node 999999999", "10 nodes"],
    ),
    (
        &[
            "run",
            "--chain=quorum",
            "--partition=0-1000000000/1@1..2",
            NATIVE_10,
        ],
        &["node 1000000000", "10 nodes"],
    ),
    // Nodes past the deployment used to be ignored, and the run exit 0.
    (
        &["run", "--chain=quorum", "--crash=50@1", NATIVE_10],
        &["node 49", "10 nodes"],
    ),
];

#[test]
fn every_door_refuses_its_probe_quickly_and_by_name() {
    for (args, fragments) in ROWS {
        let start = Instant::now();
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 2000000 && exec \"$@\"", "sh"])
            .arg(env!("CARGO_BIN_EXE_diablo"))
            .args(*args)
            .output()
            .expect("spawn diablo under sh");
        let elapsed = start.elapsed();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        for fragment in *fragments {
            assert!(stderr.contains(fragment), "{args:?}: {stderr}");
        }
        assert!(
            elapsed < Duration::from_secs(1),
            "{args:?} took {elapsed:?}"
        );
    }
}
