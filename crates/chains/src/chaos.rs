//! Textual fault directives.
//!
//! The `fault:` section of a benchmark spec and the `--crash`/
//! `--partition`/… CLI flags share one grammar, parsed here into
//! [`FaultPlanBuilder`] calls:
//!
//! | key              | value                                  | example              |
//! |------------------|----------------------------------------|----------------------|
//! | `crash`          | `NODES@AT[..RECOVER]`                  | `4@30..60`           |
//! | `partition`      | `GROUP/GROUP[/..]@FROM..UNTIL`         | `0-6/7-9@30..60`     |
//! | `loss`           | `RATE@FROM..UNTIL[,link=A-B]`          | `5%@10..40,link=0-3` |
//! | `corrupt`        | `RATE@FROM..UNTIL`                     | `0.1@10..40`         |
//! | `slowdown`       | `FACTOR@AT`                            | `4@60`               |
//! | `kill-secondary` | `INDEX@AT`                             | `1@45`               |
//! | `retry`          | `ATTEMPTSxBACKOFF_MS/TIMEOUT_MS`       | `3x500/10000`        |
//!
//! Times are seconds from benchmark start; `NODES` is either a count
//! (`4` crashes nodes `0..4`) or an explicit list (`1,3,8`); node
//! groups are comma-separated indices and `A-B` ranges; rates accept
//! `0.1` or `10%`. Node lists stay ranges: a count of a billion costs
//! what a count of four does, and `run` refuses a node the deployment
//! does not have before it plans anything.

use std::ops::Range;

use crate::faults::{FaultPlanBuilder, RetryPolicy};
use diablo_sim::{SimDuration, SimTime};

/// Applies one `key: value` fault directive to a builder. Returns a
/// message describing the malformed directive on failure.
pub fn apply_directive(
    builder: FaultPlanBuilder,
    key: &str,
    value: &str,
) -> Result<FaultPlanBuilder, String> {
    let bad = |why: &str| format!("fault directive `{key}: {value}`: {why}");
    match key {
        "crash" => {
            let (nodes, when) = value.split_once('@').ok_or_else(|| bad("expected NODES@AT"))?;
            let nodes = parse_node_list(nodes).map_err(|e| bad(&e))?;
            let (at, recover) = match when.split_once('.') {
                Some((from, until)) => {
                    let until = until.strip_prefix('.').ok_or_else(|| bad("expected AT..RECOVER"))?;
                    (parse_secs(from).map_err(|e| bad(&e))?, Some(parse_secs(until).map_err(|e| bad(&e))?))
                }
                None => (parse_secs(when).map_err(|e| bad(&e))?, None),
            };
            Ok(nodes.into_iter().fold(builder, |b, nodes| b.crash(nodes, at, recover)))
        }
        "partition" => {
            let (groups, window) =
                value.split_once('@').ok_or_else(|| bad("expected GROUPS@FROM..UNTIL"))?;
            let (from, until) = parse_window(window).map_err(|e| bad(&e))?;
            let groups: Vec<Vec<Range<usize>>> = groups
                .split('/')
                .map(parse_group)
                .collect::<Result<_, _>>()
                .map_err(|e| bad(&e))?;
            if groups.len() < 2 {
                return Err(bad("need at least two `/`-separated groups"));
            }
            Ok(builder.partition_groups(groups, from, until))
        }
        "loss" => {
            let mut link = None;
            let mut spec = value;
            if let Some((head, opt)) = value.split_once(',') {
                let pair = opt
                    .trim()
                    .strip_prefix("link=")
                    .ok_or_else(|| bad("expected `,link=A-B`"))?;
                let (a, b) = pair.split_once('-').ok_or_else(|| bad("expected `link=A-B`"))?;
                link = Some((
                    parse_index(a).map_err(|e| bad(&e))?,
                    parse_index(b).map_err(|e| bad(&e))?,
                ));
                spec = head;
            }
            let (rate, window) =
                spec.split_once('@').ok_or_else(|| bad("expected RATE@FROM..UNTIL"))?;
            let rate = parse_rate(rate).map_err(|e| bad(&e))?;
            let (from, until) = parse_window(window).map_err(|e| bad(&e))?;
            Ok(match link {
                Some((a, b)) => builder.link_loss(a, b, rate, from, until),
                None => builder.loss(rate, from, until),
            })
        }
        "corrupt" => {
            let (rate, window) =
                value.split_once('@').ok_or_else(|| bad("expected RATE@FROM..UNTIL"))?;
            let rate = parse_rate(rate).map_err(|e| bad(&e))?;
            let (from, until) = parse_window(window).map_err(|e| bad(&e))?;
            Ok(builder.corrupt(rate, from, until))
        }
        "slowdown" => {
            let (factor, at) = value.split_once('@').ok_or_else(|| bad("expected FACTOR@AT"))?;
            let text = factor.trim();
            let factor: f64 = text.parse().map_err(|_| bad("factor must be a number"))?;
            if !factor.is_finite() || factor < 1.0 {
                return Err(bad(&format!("factor `{text}` is not a finite number of at least 1")));
            }
            Ok(builder.slowdown(parse_secs(at).map_err(|e| bad(&e))?, factor))
        }
        "kill-secondary" => {
            let (idx, at) = value.split_once('@').ok_or_else(|| bad("expected INDEX@AT"))?;
            Ok(builder.kill_secondary(
                parse_index(idx).map_err(|e| bad(&e))?,
                parse_secs(at).map_err(|e| bad(&e))?,
            ))
        }
        "retry" => {
            let (attempts, rest) = value
                .split_once('x')
                .ok_or_else(|| bad("expected ATTEMPTSxBACKOFF_MS/TIMEOUT_MS"))?;
            let (backoff, timeout) =
                rest.split_once('/').ok_or_else(|| bad("expected BACKOFF_MS/TIMEOUT_MS"))?;
            let attempts: u32 = attempts
                .trim()
                .parse()
                .map_err(|_| bad("attempts must be an integer"))?;
            if attempts == 0 {
                return Err(bad("attempts must be at least 1"));
            }
            let backoff: u64 = backoff
                .trim()
                .parse()
                .map_err(|_| bad("backoff must be milliseconds"))?;
            let timeout: u64 = timeout
                .trim()
                .parse()
                .map_err(|_| bad("timeout must be milliseconds"))?;
            Ok(builder.retry(RetryPolicy {
                attempts,
                backoff: SimDuration::from_millis(backoff),
                timeout: SimDuration::from_millis(timeout),
            }))
        }
        _ => Err(format!(
            "unknown fault directive `{key}` (expected crash, partition, loss, corrupt, slowdown, kill-secondary or retry)"
        )),
    }
}

fn parse_index(s: &str) -> Result<usize, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("`{}` is not a node index", s.trim()))
}

/// `4` → `[0..4]`; `1,3,8` / `0-4,7` → the listed indices, as ranges.
fn parse_node_list(s: &str) -> Result<Vec<Range<usize>>, String> {
    let s = s.trim();
    if !s.contains(',') && !s.contains('-') {
        let all = 0..parse_index(s)?;
        return Ok(vec![all]);
    }
    parse_group(s)
}

/// A partition group: explicit indices and `A-B` ranges only (a bare
/// `4` is node 4, never a count).
fn parse_group(s: &str) -> Result<Vec<Range<usize>>, String> {
    s.split(',')
        .map(|part| {
            let (a, b) = match part.split_once('-') {
                Some((a, b)) => (parse_index(a)?, parse_index(b)?),
                None => (parse_index(part)?, parse_index(part)?),
            };
            if b < a {
                return Err(format!("range `{}` runs backwards", part.trim()));
            }
            let end = b
                .checked_add(1)
                .ok_or_else(|| format!("`{b}` is past the last node index"))?;
            Ok(a..end)
        })
        .collect()
}

fn parse_secs(s: &str) -> Result<SimTime, String> {
    let secs: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("`{}` is not a time in seconds", s.trim()))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("`{}` is not a time in seconds", s.trim()));
    }
    Ok(SimTime::from_secs_f64_ceil(secs))
}

fn parse_window(s: &str) -> Result<(SimTime, SimTime), String> {
    let (from, until) = s
        .trim()
        .split_once("..")
        .ok_or_else(|| format!("`{}` is not a FROM..UNTIL window", s.trim()))?;
    let (from, until) = (parse_secs(from)?, parse_secs(until)?);
    if until <= from {
        return Err(format!("window `{}` is empty", s.trim()));
    }
    Ok((from, until))
}

/// `0.1` or `10%` → `0.1`.
fn parse_rate(s: &str) -> Result<f64, String> {
    let s = s.trim();
    let (num, scale) = match s.strip_suffix('%') {
        Some(pct) => (pct, 100.0),
        None => (s, 1.0),
    };
    let rate: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("`{s}` is not a rate (use 0.1 or 10%)"))?;
    let rate = rate / scale;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("rate `{s}` is outside 0..1"));
    }
    Ok(rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn parse(key: &str, value: &str) -> FaultPlan {
        apply_directive(FaultPlan::builder(), key, value)
            .expect("directive parses")
            .build()
    }

    #[test]
    fn crash_count_and_recovery() {
        let crash = |nodes, at, rec: Option<u64>| {
            FaultPlan::builder().crash(nodes, t(at), rec.map(t))
        };
        assert_eq!(parse("crash", "4@30"), crash(0..4, 30, None).build());
        assert_eq!(parse("crash", "4@30..60"), crash(0..4, 30, Some(60)).build());
        assert_eq!(
            parse("crash", "1,3@10"),
            crash(1..2, 10, None).crash(3..4, t(10), None).build()
        );
    }

    #[test]
    fn partition_groups_and_ranges() {
        assert_eq!(
            parse("partition", "0-6/7-9@30..60"),
            FaultPlan::builder()
                .partition(0..7, 7..10, t(30), t(60))
                .build()
        );
        assert_eq!(
            parse("partition", "0,2/1,3/4@5..6"),
            FaultPlan::builder()
                .partition_groups(
                    vec![vec![0..1, 2..3], vec![1..2, 3..4], vec![4..5]],
                    t(5),
                    t(6)
                )
                .build()
        );
    }

    #[test]
    fn node_lists_stay_ranges() {
        let plan = parse("crash", "1000000000@1..2");
        let whole = FaultPlan::builder().crash(0..1_000_000_000, t(1), Some(t(2)));
        assert_eq!(plan, whole.build());
        let plan = parse("partition", "0-1000000000/1@1..2");
        let split = FaultPlan::builder().partition(0..1_000_000_001, 1..2, t(1), t(2));
        assert_eq!(plan, split.build());
        let huge = format!("0-{}/1@1..2", usize::MAX);
        let err = apply_directive(FaultPlan::builder(), "partition", &huge).map(|_| ());
        assert!(err.unwrap_err().contains("past the last node index"));
    }

    #[test]
    fn loss_rates_and_links() {
        assert_eq!(
            parse("loss", "5%@10..40"),
            FaultPlan::builder().loss(0.05, t(10), t(40)).build()
        );
        assert_eq!(
            parse("loss", "0.25@10..40,link=0-3"),
            FaultPlan::builder().link_loss(0, 3, 0.25, t(10), t(40)).build()
        );
    }

    #[test]
    fn corrupt_slowdown_kill_retry() {
        assert_eq!(
            parse("corrupt", "10%@10..40"),
            FaultPlan::builder().corrupt(0.1, t(10), t(40)).build()
        );
        assert_eq!(
            parse("slowdown", "4@60"),
            FaultPlan::builder().slowdown(t(60), 4.0).build()
        );
        assert_eq!(
            parse("slowdown", "1@60"),
            FaultPlan::builder().slowdown(t(60), 1.0).build()
        );
        let err = apply_directive(FaultPlan::builder(), "slowdown", "0.5@1").map(|_| ());
        assert_eq!(
            err.unwrap_err(),
            "fault directive `slowdown: 0.5@1`: factor `0.5` is not a finite number of at least 1"
        );
        assert_eq!(
            parse("kill-secondary", "1@45"),
            FaultPlan::builder().kill_secondary(1, t(45)).build()
        );
        assert_eq!(
            parse("retry", "5x100/2000"),
            FaultPlan::builder()
                .retry(RetryPolicy {
                    attempts: 5,
                    backoff: SimDuration::from_millis(100),
                    timeout: SimDuration::from_millis(2000),
                })
                .build()
        );
    }

    #[test]
    fn malformed_directives_are_rejected() {
        for (key, value) in [
            ("crash", "4"),
            ("crash", "x@30"),
            ("partition", "0-4@30..60"),
            ("partition", "0-4/5-9@60..30"),
            ("loss", "150%@10..40"),
            ("loss", "0.1@10..40,port=3"),
            ("corrupt", "-0.5@10..40"),
            ("slowdown", "4"),
            ("slowdown", "nan@1"),
            ("slowdown", "inf@1"),
            ("slowdown", "0@1"),
            ("slowdown", "-1@1"),
            ("slowdown", "0.5@1"),
            ("retry", "0x100/2000"),
            ("warp", "1@2"),
        ] {
            let err = apply_directive(FaultPlan::builder(), key, value)
                .map(|_| ())
                .expect_err(&format!("{key}: {value} should fail"));
            assert!(!err.is_empty());
        }
    }
}
