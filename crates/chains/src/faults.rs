//! Fault injection.
//!
//! The paper's related-work section credits Blockbench with measuring
//! "the tolerance of faults through injected delays, crashes and message
//! corruption" (§7); Diablo itself focuses on performance. This module
//! adds that dimension to the simulated chains as a first-class
//! subsystem:
//!
//! - **crash-recovery**: a node stops participating at an instant and
//!   optionally rejoins later; a rejoined node spends a catch-up window
//!   replaying the chain before it counts as live again;
//! - **network partitions**: the deployment splits into disjoint
//!   components for an interval — deterministic BFT chains stall
//!   without a quorum, probabilistic chains degrade;
//! - **per-link message loss and submission corruption**: lost
//!   consensus messages waste rounds on retransmission timeouts,
//!   corrupted submissions are rejected by the receiving node and
//!   surface as client errors (retried per [`RetryPolicy`]);
//! - **network slowdowns**: a global delay multiplier from an instant;
//! - **Secondary faults**: a Diablo worker dies mid-benchmark; the
//!   Primary aggregates partial results instead of hanging.
//!
//! Plans are declared through [`FaultPlan::builder`] and compiled once
//! per run into a [`FaultTimeline`] whose per-tick queries are
//! `O(log faults)` instead of the old per-tick linear scans.

use diablo_sim::{SimDuration, SimTime};

/// Fraction of a node's downtime it spends catching up after recovery
/// (replaying missed blocks): a node down for 16 s is only live again
/// 2 s after its recovery instant.
const CATCHUP_SHIFT: u32 = 3; // downtime / 8

/// Client-side policy for retrying transiently rejected submissions
/// (corrupted transactions the receiving node refuses).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum submission attempts, first try included (1 = never
    /// retry).
    pub attempts: u32,
    /// Backoff before the first retry; doubles on every further
    /// attempt.
    pub backoff: SimDuration,
    /// Hard deadline relative to the scheduled submission instant:
    /// attempts that would start later are abandoned and the
    /// transaction is reported rejected.
    pub timeout: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            backoff: SimDuration::from_millis(500),
            timeout: SimDuration::from_secs(10),
        }
    }
}

/// One node crash, with an optional recovery instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CrashFault {
    node: usize,
    at: SimTime,
    recover: Option<SimTime>,
}

impl CrashFault {
    /// The window the node is effectively down: recovery is delayed by
    /// the catch-up replay (a fixed fraction of the downtime).
    fn down_window(&self) -> (SimTime, SimTime) {
        match self.recover {
            None => (self.at, SimTime::MAX),
            Some(rec) => {
                let rec = rec.max(self.at);
                let catchup = SimDuration::from_micros(rec.since(self.at).as_micros() >> CATCHUP_SHIFT);
                (self.at, rec + catchup)
            }
        }
    }
}

/// One network partition: the node set splits into disjoint groups for
/// an interval.
#[derive(Debug, Clone, PartialEq)]
struct PartitionFault {
    groups: Vec<Vec<usize>>,
    from: SimTime,
    until: SimTime,
}

/// One message-loss window: consensus messages are lost with the given
/// probability, either on every link (`link: None`) or on the one link
/// between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LossFault {
    link: Option<(usize, usize)>,
    rate: f64,
    from: SimTime,
    until: SimTime,
}

/// One submission-corruption window: client submissions arrive mangled
/// (and are rejected by the node) with the given probability.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CorruptionFault {
    rate: f64,
    from: SimTime,
    until: SimTime,
}

/// A schedule of faults injected into one experiment.
///
/// Construct with [`FaultPlan::builder`]; attach to an experiment with
/// `Experiment::with_faults` or `RunConfig::faults`. The plan is
/// declarative — the chain simulation compiles it once per run into a
/// [`FaultTimeline`] for cheap per-tick queries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    crashes: Vec<CrashFault>,
    partitions: Vec<PartitionFault>,
    losses: Vec<LossFault>,
    corruptions: Vec<CorruptionFault>,
    slowdown: Option<(SimTime, f64)>,
    secondary_kills: Vec<(usize, SimTime)>,
    retry: Option<RetryPolicy>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Starts building a fault plan.
    pub fn builder() -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan::default(),
        }
    }

    /// Whether any fault is scheduled at all. (A non-default retry
    /// policy alone is not a fault: it only matters once something
    /// rejects a submission.)
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.partitions.is_empty()
            && self.losses.is_empty()
            && self.corruptions.is_empty()
            && self.slowdown.is_none()
            && self.secondary_kills.is_empty()
    }

    /// The client retry policy (default when never set).
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry.unwrap_or_default()
    }

    /// When (if ever) the given Secondary dies.
    pub fn kill_of_secondary(&self, secondary: usize) -> Option<SimTime> {
        self.secondary_kills
            .iter()
            .filter(|&&(s, _)| s == secondary)
            .map(|&(_, at)| at)
            .min()
    }

    /// Unions two plans: all fault events of both; `other`'s slowdown
    /// and retry policy win where both set one.
    pub fn merged(mut self, other: FaultPlan) -> FaultPlan {
        self.crashes.extend(other.crashes);
        self.partitions.extend(other.partitions);
        self.losses.extend(other.losses);
        self.corruptions.extend(other.corruptions);
        self.secondary_kills.extend(other.secondary_kills);
        if other.slowdown.is_some() {
            self.slowdown = other.slowdown;
        }
        if other.retry.is_some() {
            self.retry = other.retry;
        }
        self
    }

    /// The union of all node/network fault windows up to `horizon`,
    /// merged and sorted — the "fault periods" of a run, used by the
    /// report to split latency into fault-period and healthy-period
    /// populations. Secondary kills and the retry policy do not open
    /// windows.
    pub fn active_windows(&self, horizon: SimTime) -> Vec<(SimTime, SimTime)> {
        let mut windows: Vec<(SimTime, SimTime)> = Vec::new();
        for c in &self.crashes {
            let (a, b) = c.down_window();
            windows.push((a, b.min(horizon)));
        }
        for p in &self.partitions {
            windows.push((p.from, p.until.min(horizon)));
        }
        for l in &self.losses {
            windows.push((l.from, l.until.min(horizon)));
        }
        for c in &self.corruptions {
            windows.push((c.from, c.until.min(horizon)));
        }
        if let Some((at, _)) = self.slowdown {
            windows.push((at, horizon));
        }
        windows.retain(|&(a, b)| a < b);
        windows.sort();
        let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
        for (a, b) in windows {
            match merged.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => merged.push((a, b)),
            }
        }
        merged
    }

    /// Compiles the plan for a deployment of `nodes` nodes into the
    /// timeline the simulation queries every tick.
    pub fn compile(&self, nodes: usize) -> FaultTimeline {
        let nodes = nodes.max(1);
        // Per-node down windows, sorted by start.
        let mut down: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); nodes];
        // Global crashed-count step function: (instant, delta).
        let mut deltas: Vec<(SimTime, i64)> = Vec::new();
        for c in &self.crashes {
            if c.node >= nodes {
                continue;
            }
            let (a, b) = c.down_window();
            down[c.node].push((a, b));
            deltas.push((a, 1));
            if b != SimTime::MAX {
                deltas.push((b, -1));
            }
        }
        for windows in &mut down {
            windows.sort();
        }
        deltas.sort();
        let mut crash_steps: Vec<(SimTime, u32)> = Vec::new();
        let mut level = 0i64;
        for (t, d) in deltas {
            level += d;
            match crash_steps.last_mut() {
                Some(last) if last.0 == t => last.1 = level.max(0) as u32,
                _ => crash_steps.push((t, level.max(0) as u32)),
            }
        }
        let partitions = self
            .partitions
            .iter()
            .map(|p| CompiledPartition::compile(p, nodes))
            .collect();
        FaultTimeline {
            down,
            crash_steps,
            partitions,
            losses: self.losses.clone(),
            corruptions: self.corruptions.clone(),
            slowdown: self.slowdown,
            empty: self.is_empty(),
        }
    }
}

/// Fluent constructor for [`FaultPlan`]s.
///
/// ```
/// use diablo_chains::FaultPlan;
/// use diablo_sim::{SimDuration, SimTime};
///
/// let plan = FaultPlan::builder()
///     .crash(0, SimTime::from_secs(10))
///     .recover(0, SimTime::from_secs(30))
///     .partition(&[0, 1, 2], &[3, 4], SimTime::from_secs(40), SimTime::from_secs(60))
///     .loss(0.05, SimTime::from_secs(5), SimTime::from_secs(15))
///     .build();
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Crashes `node` at `at` (permanently, unless a later
    /// [`FaultPlanBuilder::recover`] names the same node).
    pub fn crash(mut self, node: usize, at: SimTime) -> Self {
        self.plan.crashes.push(CrashFault {
            node,
            at,
            recover: None,
        });
        self
    }

    /// Crashes nodes `0..count` at `at`.
    pub fn crash_many(mut self, count: usize, at: SimTime) -> Self {
        for node in 0..count {
            self = self.crash(node, at);
        }
        self
    }

    /// Recovers `node` at `at`: attaches to that node's most recent
    /// still-permanent crash (no-op when the node never crashed). The
    /// node only counts as live again after a catch-up window
    /// proportional to its downtime.
    pub fn recover(mut self, node: usize, at: SimTime) -> Self {
        if let Some(c) = self
            .plan
            .crashes
            .iter_mut()
            .rev()
            .find(|c| c.node == node && c.recover.is_none())
        {
            c.recover = Some(at.max(c.at));
        }
        self
    }

    /// Recovers nodes `0..count` at `at` (pairs with
    /// [`FaultPlanBuilder::crash_many`]).
    pub fn recover_many(mut self, count: usize, at: SimTime) -> Self {
        for node in 0..count {
            self = self.recover(node, at);
        }
        self
    }

    /// Splits the network into two components for `[from, until)`.
    /// Nodes in neither slice side with group `a` (so a two-way split
    /// only needs the minority listed in `b`).
    pub fn partition(self, a: &[usize], b: &[usize], from: SimTime, until: SimTime) -> Self {
        self.partition_groups(&[a, b], from, until)
    }

    /// Splits the network into arbitrarily many components for
    /// `[from, until)`; unlisted nodes join the first group.
    pub fn partition_groups(mut self, groups: &[&[usize]], from: SimTime, until: SimTime) -> Self {
        self.plan.partitions.push(PartitionFault {
            groups: groups.iter().map(|g| g.to_vec()).collect(),
            from,
            until,
        });
        self
    }

    /// Loses consensus messages on every link with probability `rate`
    /// during `[from, until)`.
    pub fn loss(mut self, rate: f64, from: SimTime, until: SimTime) -> Self {
        self.plan.losses.push(LossFault {
            link: None,
            rate: rate.clamp(0.0, MAX_LOSS),
            from,
            until,
        });
        self
    }

    /// Loses messages on the single link between nodes `a` and `b`
    /// with probability `rate` during `[from, until)`.
    pub fn link_loss(
        mut self,
        a: usize,
        b: usize,
        rate: f64,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.plan.losses.push(LossFault {
            link: Some((a.min(b), a.max(b))),
            rate: rate.clamp(0.0, MAX_LOSS),
            from,
            until,
        });
        self
    }

    /// Corrupts client submissions with probability `rate` during
    /// `[from, until)`: the receiving node rejects them and the client
    /// retries per the plan's [`RetryPolicy`].
    pub fn corrupt(mut self, rate: f64, from: SimTime, until: SimTime) -> Self {
        self.plan.corruptions.push(CorruptionFault {
            rate: rate.clamp(0.0, MAX_LOSS),
            from,
            until,
        });
        self
    }

    /// Multiplies all consensus delays by `factor` from `at` on.
    pub fn slowdown(mut self, at: SimTime, factor: f64) -> Self {
        self.plan.slowdown = Some((at, factor));
        self
    }

    /// Kills Diablo Secondary `secondary` at `at`: transactions it
    /// would have submitted from that instant on are never sent, and
    /// the distributed Primary aggregates partial results.
    pub fn kill_secondary(mut self, secondary: usize, at: SimTime) -> Self {
        self.plan.secondary_kills.push((secondary, at));
        self
    }

    /// Sets the client retry policy for rejected submissions.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.plan.retry = Some(policy);
        self
    }

    /// Finalizes the plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

/// Probabilities are clamped below certainty so retransmission
/// stretches (`1 / (1 - rate)`) stay finite.
const MAX_LOSS: f64 = 0.95;

/// One compiled partition: per-node component ids plus the component
/// that keeps committing.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPartition {
    /// Partition start (inclusive).
    pub from: SimTime,
    /// Partition end (exclusive) — the heal instant.
    pub until: SimTime,
    /// Component id of every node.
    pub component: Vec<u32>,
    /// Member count per component.
    pub sizes: Vec<u32>,
    /// The component that keeps committing: the largest one (ties go to
    /// the lowest component id, so the split is deterministic).
    pub committing: u32,
}

impl CompiledPartition {
    fn compile(p: &PartitionFault, nodes: usize) -> CompiledPartition {
        // Unlisted nodes join the first group; nodes listed twice keep
        // their first assignment.
        let groups = p.groups.len().max(1);
        let mut component = vec![u32::MAX; nodes];
        for (gi, group) in p.groups.iter().enumerate() {
            for &node in group {
                if node < nodes && component[node] == u32::MAX {
                    component[node] = gi as u32;
                }
            }
        }
        for c in component.iter_mut() {
            if *c == u32::MAX {
                *c = 0;
            }
        }
        let mut sizes = vec![0u32; groups];
        for &c in &component {
            sizes[c as usize] += 1;
        }
        let committing = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(i, &s)| (s, std::cmp::Reverse(i)))
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        CompiledPartition {
            from: p.from,
            until: p.until,
            component,
            sizes,
            committing,
        }
    }

    /// Number of nodes in the committing component.
    pub fn committing_size(&self) -> usize {
        self.sizes[self.committing as usize] as usize
    }
}

/// A [`FaultPlan`] compiled for one deployment: the sorted event
/// timeline the simulation queries every tick in `O(log faults)` (the
/// old API scanned the whole crash list per query).
#[derive(Debug, Clone)]
pub struct FaultTimeline {
    /// Per-node down windows `[start, end)`, sorted by start.
    down: Vec<Vec<(SimTime, SimTime)>>,
    /// Step function: from `instant` on, `count` nodes are down (until
    /// the next step). Sorted by instant.
    crash_steps: Vec<(SimTime, u32)>,
    partitions: Vec<CompiledPartition>,
    losses: Vec<LossFault>,
    corruptions: Vec<CorruptionFault>,
    slowdown: Option<(SimTime, f64)>,
    empty: bool,
}

impl FaultTimeline {
    /// A timeline with no faults (any node count).
    pub fn empty() -> Self {
        FaultPlan::none().compile(1)
    }

    /// Whether the source plan scheduled any fault.
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Whether `node` is down (crashed, or catching up after recovery)
    /// at `now`. Binary search over the node's down windows.
    pub fn is_crashed(&self, node: usize, now: SimTime) -> bool {
        let Some(windows) = self.down.get(node) else {
            return false;
        };
        let idx = windows.partition_point(|&(start, _)| start <= now);
        idx > 0 && now < windows[idx - 1].1
    }

    /// Number of down nodes at `now`. Binary search over the step
    /// function.
    pub fn crashed_count(&self, now: SimTime) -> usize {
        let idx = self.crash_steps.partition_point(|&(t, _)| t <= now);
        if idx == 0 {
            0
        } else {
            self.crash_steps[idx - 1].1 as usize
        }
    }

    /// The partition active at `now`, if any (first declared wins when
    /// windows overlap).
    pub fn partition_at(&self, now: SimTime) -> Option<&CompiledPartition> {
        self.partitions
            .iter()
            .find(|p| p.from <= now && now < p.until)
    }

    /// Combined message-loss probability on `node`'s links at `now`:
    /// independent loss windows compose as `1 - Π(1 - rate)`.
    pub fn loss_rate(&self, now: SimTime, node: usize) -> f64 {
        let mut keep = 1.0;
        for l in &self.losses {
            if l.from <= now && now < l.until {
                let applies = match l.link {
                    None => true,
                    Some((a, b)) => a == node || b == node,
                };
                if applies {
                    keep *= 1.0 - l.rate;
                }
            }
        }
        (1.0 - keep).clamp(0.0, MAX_LOSS)
    }

    /// Combined submission-corruption probability at `now`.
    pub fn corruption_rate(&self, now: SimTime) -> f64 {
        let mut keep = 1.0;
        for c in &self.corruptions {
            if c.from <= now && now < c.until {
                keep *= 1.0 - c.rate;
            }
        }
        (1.0 - keep).clamp(0.0, MAX_LOSS)
    }

    /// The network delay multiplier at `now` (1.0 when unimpaired).
    pub fn delay_factor(&self, now: SimTime) -> f64 {
        match self.slowdown {
            Some((at, factor)) if now >= at => factor.max(1.0),
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn crashes_activate_at_their_instant() {
        let plan = FaultPlan::builder().crash_many(3, t(10)).build();
        let tl = plan.compile(10);
        assert!(!tl.is_crashed(0, t(9)));
        assert!(tl.is_crashed(0, t(10)));
        assert!(tl.is_crashed(2, t(11)));
        assert!(!tl.is_crashed(3, t(11)));
        assert_eq!(tl.crashed_count(t(5)), 0);
        assert_eq!(tl.crashed_count(t(20)), 3);
    }

    #[test]
    fn recovery_ends_the_downtime_after_catchup() {
        // Down 10..26 (16 s), catch-up 2 s: live again at 28.
        let plan = FaultPlan::builder()
            .crash(4, t(10))
            .recover(4, t(26))
            .build();
        let tl = plan.compile(10);
        assert!(tl.is_crashed(4, t(10)));
        assert!(tl.is_crashed(4, t(27)), "catching up still counts as down");
        assert!(!tl.is_crashed(4, t(28)));
        assert_eq!(tl.crashed_count(t(15)), 1);
        assert_eq!(tl.crashed_count(t(28)), 0);
    }

    #[test]
    fn recover_without_crash_is_a_no_op() {
        let plan = FaultPlan::builder().recover(2, t(5)).build();
        assert!(plan.is_empty());
    }

    #[test]
    fn crash_count_steps_handle_staggered_windows() {
        let plan = FaultPlan::builder()
            .crash(0, t(10))
            .recover(0, t(18)) // down 10..19 (1 s catch-up)
            .crash(1, t(12))
            .crash(2, t(15))
            .recover(2, t(15)) // zero downtime: instant recovery
            .build();
        let tl = plan.compile(5);
        assert_eq!(tl.crashed_count(t(11)), 1);
        assert_eq!(tl.crashed_count(t(13)), 2);
        assert_eq!(tl.crashed_count(t(20)), 1, "node 0 recovered, node 1 not");
        assert!(tl.is_crashed(1, t(100)));
    }

    #[test]
    fn partitions_compile_components() {
        let plan = FaultPlan::builder()
            .partition(&[0, 1, 2], &[3, 4], t(30), t(60))
            .build();
        let tl = plan.compile(7); // nodes 5, 6 unlisted: join group 0
        assert!(tl.partition_at(t(29)).is_none());
        assert!(tl.partition_at(t(60)).is_none());
        let p = tl.partition_at(t(30)).expect("active");
        assert_eq!(p.component, vec![0, 0, 0, 1, 1, 0, 0]);
        assert_eq!(p.sizes, vec![5, 2]);
        assert_eq!(p.committing, 0);
        assert_eq!(p.committing_size(), 5);
    }

    #[test]
    fn partition_ties_go_to_the_lowest_component() {
        let plan = FaultPlan::builder()
            .partition(&[0, 1], &[2, 3], t(0), t(10))
            .build();
        let p = plan.compile(4);
        assert_eq!(p.partition_at(t(5)).unwrap().committing, 0);
    }

    #[test]
    fn loss_rates_compose_and_respect_links() {
        let plan = FaultPlan::builder()
            .loss(0.5, t(0), t(100))
            .link_loss(2, 7, 0.5, t(0), t(100))
            .build();
        let tl = plan.compile(10);
        assert!((tl.loss_rate(t(1), 0) - 0.5).abs() < 1e-12);
        assert!((tl.loss_rate(t(1), 2) - 0.75).abs() < 1e-12);
        assert!((tl.loss_rate(t(1), 7) - 0.75).abs() < 1e-12);
        assert_eq!(tl.loss_rate(t(200), 2), 0.0);
    }

    #[test]
    fn corruption_rates_window() {
        let plan = FaultPlan::builder().corrupt(0.25, t(5), t(10)).build();
        let tl = plan.compile(4);
        assert_eq!(tl.corruption_rate(t(4)), 0.0);
        assert!((tl.corruption_rate(t(5)) - 0.25).abs() < 1e-12);
        assert_eq!(tl.corruption_rate(t(10)), 0.0);
    }

    #[test]
    fn slowdown_applies_from_its_instant() {
        let plan = FaultPlan::builder().slowdown(t(30), 4.0).build();
        let tl = plan.compile(4);
        assert_eq!(tl.delay_factor(t(29)), 1.0);
        assert_eq!(tl.delay_factor(t(30)), 4.0);
    }

    #[test]
    fn slowdown_never_speeds_up() {
        let plan = FaultPlan::builder().slowdown(SimTime::ZERO, 0.1).build();
        assert_eq!(plan.compile(4).delay_factor(t(1)), 1.0);
    }

    #[test]
    fn emptiness() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::builder().build().is_empty());
        assert!(
            FaultPlan::builder()
                .retry(RetryPolicy::default())
                .build()
                .is_empty(),
            "a retry policy alone is not a fault"
        );
        assert!(!FaultPlan::builder().crash(0, SimTime::ZERO).build().is_empty());
        assert!(!FaultPlan::builder().slowdown(SimTime::ZERO, 2.0).build().is_empty());
        assert!(!FaultPlan::builder().kill_secondary(0, t(3)).build().is_empty());
        assert!(FaultTimeline::empty().is_empty());
    }

    #[test]
    fn secondary_kills_are_recorded() {
        let plan = FaultPlan::builder()
            .kill_secondary(1, t(20))
            .kill_secondary(1, t(10))
            .build();
        assert_eq!(plan.kill_of_secondary(1), Some(t(10)), "earliest death wins");
        assert_eq!(plan.kill_of_secondary(0), None);
        assert_eq!(plan.secondary_kills.len(), 2);
    }

    #[test]
    fn merged_unions_events() {
        let a = FaultPlan::builder().crash(0, t(10)).build();
        let b = FaultPlan::builder()
            .loss(0.1, t(0), t(5))
            .slowdown(t(7), 2.0)
            .build();
        let m = a.merged(b);
        let tl = m.compile(4);
        assert!(tl.is_crashed(0, t(11)));
        assert!(tl.loss_rate(t(1), 0) > 0.0);
        assert_eq!(tl.delay_factor(t(8)), 2.0);
    }

    #[test]
    fn active_windows_merge_overlaps() {
        let plan = FaultPlan::builder()
            .crash(0, t(10))
            .recover(0, t(18)) // 10..19 with catch-up
            .partition(&[0], &[1], t(15), t(30))
            .loss(0.1, t(50), t(55))
            .build();
        let windows = plan.active_windows(t(100));
        assert_eq!(windows, vec![(t(10), t(30)), (t(50), t(55))]);
        // Horizon clips; a permanent crash runs to the horizon.
        let forever = FaultPlan::builder().crash(0, t(40)).build();
        assert_eq!(forever.active_windows(t(60)), vec![(t(40), t(60))]);
        assert!(FaultPlan::none().active_windows(t(60)).is_empty());
    }

    #[test]
    fn retry_policy_defaults_and_overrides() {
        assert_eq!(FaultPlan::none().retry_policy(), RetryPolicy::default());
        let policy = RetryPolicy {
            attempts: 5,
            backoff: SimDuration::from_millis(100),
            timeout: SimDuration::from_secs(2),
        };
        let plan = FaultPlan::builder().retry(policy).build();
        assert_eq!(plan.retry_policy(), policy);
    }
}
