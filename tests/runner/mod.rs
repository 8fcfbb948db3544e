//! The one way a test starts the `diablo` binary. A process runs from
//! the package root under a 2 GB address-space limit (`ulimit -v`), in
//! a process group of its own, with its output in files. At its
//! deadline the whole group is killed and the process reaped; once it
//! is reaped, no member of its group may still be running.

// Each test file that includes this module uses a part of it.
#![allow(dead_code)]

use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How a process ended.
pub struct Ran {
    /// Its exit code; `None` if a signal ended it, the deadline's
    /// included.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    pub elapsed: Duration,
}

/// A `diablo` process on its way to its deadline.
pub struct Proc {
    child: Child,
    started: Instant,
    deadline: Instant,
    /// Where its stdout and its stderr go.
    out: [PathBuf; 2],
}

/// Starts `diablo args`, to be ended by [`Proc::finish`] within `deadline`.
pub fn spawn(args: &[impl AsRef<str>], deadline: Duration) -> Proc {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let out = ["out", "err"].map(|stream| {
        std::env::temp_dir().join(format!("diablo-proc-{}-{n}.{stream}", std::process::id()))
    });
    let file = |path: &PathBuf| Stdio::from(std::fs::File::create(path).expect("output file"));
    let child = Command::new("sh")
        .args(["-c", "ulimit -v 2000000 && exec \"$@\"", "sh"])
        .arg(env!("CARGO_BIN_EXE_diablo"))
        .args(args.iter().map(AsRef::as_ref))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .process_group(0)
        .stdin(Stdio::null())
        .stdout(file(&out[0]))
        .stderr(file(&out[1]))
        .spawn()
        .expect("spawn diablo under sh");
    let started = Instant::now();
    Proc {
        child,
        started,
        deadline: started + deadline,
        out,
    }
}

/// Runs `diablo args` to its end or its deadline.
pub fn run(args: &[impl AsRef<str>], deadline: Duration) -> Ran {
    spawn(args, deadline).finish()
}

/// Runs `diablo args` and asserts that it refuses them: exit `code`
/// before `deadline`, every fragment in its stderr, no port announced.
pub fn refuses(
    args: &[impl AsRef<str>],
    code: i32,
    fragments: &[impl AsRef<str>],
    deadline: Duration,
) {
    let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
    let ran = run(&args, deadline);
    let stderr = &ran.stderr;
    assert_eq!(
        ran.code,
        Some(code),
        "{args:?} after {:?}: {stderr}",
        ran.elapsed
    );
    for fragment in fragments {
        assert!(stderr.contains(fragment.as_ref()), "{args:?}: {stderr}");
    }
    assert!(!stderr.contains("listening on port"), "{args:?}: {stderr}");
}

impl Proc {
    /// The rest of the first stderr line that starts with `prefix`,
    /// waited for until the process ends or its deadline passes.
    pub fn stderr_line(&mut self, prefix: &str) -> Option<String> {
        loop {
            let err = std::fs::read_to_string(&self.out[1]).unwrap_or_default();
            if let Some(line) = err.lines().find_map(|l| l.strip_prefix(prefix)) {
                return Some(line.to_string());
            }
            let ended = !matches!(self.child.try_wait(), Ok(None));
            if ended || Instant::now() >= self.deadline {
                return None;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Waits for the process, killing its group at the deadline, and
    /// asserts that it left no member of its group running.
    pub fn finish(mut self) -> Ran {
        let code = loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                break status.code();
            }
            if Instant::now() >= self.deadline {
                kill_group(self.child.id());
                break self.child.wait().expect("reap").code();
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let elapsed = self.started.elapsed();
        let left = running_in_group(self.child.id());
        if !left.is_empty() {
            kill_group(self.child.id());
        }
        assert!(left.is_empty(), "processes {left:?} outlived their parent");
        let [stdout, stderr] = self
            .out
            .each_ref()
            .map(|path| std::fs::read_to_string(path).unwrap_or_default());
        Ran {
            code,
            stdout,
            stderr,
            elapsed,
        }
    }
}

/// A test that panics before [`Proc::finish`] still ends its processes.
impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            kill_group(self.child.id());
            let _ = self.child.wait();
        }
        for path in &self.out {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Sends SIGKILL to every process of group `pgid`.
fn kill_group(pgid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    // SAFETY: kill(2) takes two integers and touches no memory of ours.
    unsafe { kill(-(pgid as i32), SIGKILL) };
}

/// The processes of group `pgid` that have not exited (zombies have).
fn running_in_group(pgid: u32) -> Vec<u32> {
    let Ok(procs) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    procs
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            // `pid (comm) state ppid pgrp ...`; comm may hold spaces.
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
            let fields: Vec<&str> = stat
                .rsplit_once(')')
                .map_or("", |(_, rest)| rest)
                .split_whitespace()
                .collect();
            fields.len() > 2 && fields[0] != "Z" && fields[2] == pgid.to_string()
        })
        .collect()
}
