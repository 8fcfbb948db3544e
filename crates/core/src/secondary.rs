//! The Secondary role (§4).
//!
//! Secondaries are responsible for presigning transactions and executing
//! the workload. Each Secondary spawns the worker threads ("clients")
//! the Primary assigns to it. A client's plan is drawn, never held: its
//! cursor expands each behaviour's load curve tick by tick
//! ([`Workload::tick_counts`]), places the tick's transactions
//! ([`spread`]) and stamps instant, sender and invocation number on the
//! interaction the chain adapter encoded (presigned) once, when the
//! cursor was built. [`plan_range`] triggers what the cursors draw on a
//! connector; the wire Secondary ships it frame by frame, and the
//! in-process Primary merges every client's cursor straight into the run.

use diablo_chains::{Payload, PlannedTx};
use diablo_sim::SimTime;
use diablo_workloads::{spread, Workload, TICK_MS};

use crate::abstraction::{
    Connector, ConnectorError, Encoded, Interaction, Merge, ResourceSpec, Source,
};
use crate::spec::{BenchmarkSpec, InteractionSpec};

/// Statistics of one planning pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Clients created.
    pub clients: u32,
    /// Interactions encoded and triggered.
    pub interactions: u64,
}

/// Declares the resources a spec needs (accounts, contracts) through
/// the connector — the Primary does this once before dispatching.
pub fn declare_resources(
    spec: &BenchmarkSpec,
    connector: &mut dyn Connector,
) -> Result<(), ConnectorError> {
    for group in &spec.workloads {
        for behavior in &group.behaviors {
            match &behavior.interaction {
                InteractionSpec::Transfer { accounts, .. } => {
                    connector.create_resource(&ResourceSpec::Accounts { number: *accounts })?;
                }
                InteractionSpec::Invoke {
                    accounts, contract, ..
                } => {
                    connector.create_resource(&ResourceSpec::Accounts { number: *accounts })?;
                    connector.create_resource(&ResourceSpec::Contract {
                        name: contract.clone(),
                    })?;
                }
            }
        }
    }
    Ok(())
}

/// Plans the clients `range.0 .. range.1` (global indices) of `spec`:
/// creates each client and triggers on the connector what its cursor
/// draws, in time order. Every behaviour is encoded before the first
/// client is created, so a spec the connector refuses to encode plans
/// nothing.
///
/// Interactions are deterministic in the client index, so two
/// Secondaries planning disjoint ranges of the same spec produce exactly
/// the partition the Primary expects. Invocation numbers count from 0
/// at `range.0`.
pub fn plan_range(
    spec: &BenchmarkSpec,
    range: (u32, u32),
    connector: &mut dyn Connector,
) -> Result<PlanStats, ConnectorError> {
    let planner = Planner::new(spec, connector)?;
    let mut stats = PlanStats::default();
    let mut seq = 0;
    for global in range.0..range.1 {
        let (view, draws) = planner
            .client(global, &mut seq)
            .ok_or(ConnectorError::UnknownClient { client: global })?;
        let client = connector.create_client(view)?;
        stats.clients += 1;
        connector.reserve(client, draws.iter().map(Draw::len).sum::<u64>() as usize);
        for planned in Merge::new(draws, |_, _| {}) {
            connector.trigger(client, Encoded { planned })?;
            stats.interactions += 1;
        }
    }
    Ok(stats)
}

/// A spec resolved for drawing: per workload group, its client count,
/// its endpoint view and its behaviours.
pub(crate) struct Planner {
    groups: Vec<(u32, Vec<String>, Vec<Template>)>,
}

/// One behaviour, resolved once: its load curve, how many transactions
/// the curve plans, the signing pool, and the transaction its
/// interaction encodes to, on which a draw stamps instant, sender and
/// invocation number.
pub(crate) struct Template {
    curve: Workload,
    total: u64,
    pool: u64,
    payload: Payload,
}

impl Planner {
    /// Resolves every behaviour of `spec`, encoding its interaction
    /// through `connector`: an interaction the connector refuses to
    /// encode (a contract it has not deployed, a function the contract
    /// lacks, arguments the ABI cannot carry) is refused here, before
    /// anything is drawn.
    pub(crate) fn new(
        spec: &BenchmarkSpec,
        connector: &mut dyn Connector,
    ) -> Result<Planner, ConnectorError> {
        let mut groups = Vec::with_capacity(spec.workloads.len());
        for group in &spec.workloads {
            let mut templates = Vec::with_capacity(group.behaviors.len());
            for behavior in &group.behaviors {
                let (pool, interaction) = match &behavior.interaction {
                    &InteractionSpec::Transfer { accounts, amount } => {
                        let (from, to) = (0, 1);
                        (accounts.max(2), Interaction::Transfer { from, to, amount })
                    }
                    InteractionSpec::Invoke {
                        accounts,
                        contract,
                        function,
                        args,
                    } => (
                        (*accounts).max(1),
                        Interaction::Invoke {
                            from: 0,
                            contract: contract.clone(),
                            function: function.clone(),
                            args: args.clone(),
                        },
                    ),
                };
                let curve = behavior.to_workload("client");
                templates.push(Template {
                    total: curve.total_txs(),
                    curve,
                    pool: u64::from(pool),
                    payload: connector
                        .encode(&interaction, SimTime::ZERO)?
                        .planned
                        .payload,
                });
            }
            groups.push((group.number, group.view.clone(), templates));
        }
        Ok(Planner { groups })
    }

    /// How many transactions the spec's clients plan in all.
    pub(crate) fn planned(&self) -> u64 {
        let per_client = |templates: &[Template]| templates.iter().map(|b| b.total).sum::<u64>();
        (self.groups.iter())
            .map(|(number, _, templates)| u64::from(*number) * per_client(templates))
            .sum()
    }

    /// Client `global`'s endpoint view and cursor, one draw per
    /// behaviour, its invocations numbered from `*seq` on, which it
    /// advances past them; `None` past the spec's clients.
    pub(crate) fn client(
        &self,
        global: u32,
        seq: &mut u64,
    ) -> Option<(&[String], Vec<Draw<'_, impl Iterator<Item = SimTime> + '_>>)> {
        let mut base = 0;
        let (_, view, templates) = self.groups.iter().find(|(number, ..)| {
            base += number;
            global < base
        })?;
        let draws = (templates.iter().enumerate())
            .map(|(bi, template)| {
                let draw = template.draw(global, bi as u64, *seq);
                if matches!(template.payload, Payload::Invoke { .. }) {
                    *seq += template.total;
                }
                draw
            })
            .collect();
        Some((view, draws))
    }
}

impl Template {
    /// The cursor of this behaviour on client `global`, its `bi`-th.
    fn draw(&self, global: u32, bi: u64, seq: u64) -> Draw<'_, impl Iterator<Item = SimTime> + '_> {
        let instants = self.curve.tick_counts();
        let instants = instants.flat_map(move |(tick, count)| spread(tick, count, global));
        Draw {
            template: self,
            client: global,
            instants,
            // Seeded per (client, behaviour) so account usage is
            // deterministic and spread.
            counter: u64::from(global).wrapping_mul(0x9E37_79B9).wrapping_add(bi) % 100_000,
            seq,
            kill: None,
        }
    }
}

/// One behaviour of one client, drawn in time order: the only planner.
pub(crate) struct Draw<'p, I> {
    template: &'p Template,
    client: u32,
    instants: I,
    /// The sender counter: the next entry signs with account
    /// `counter % pool`.
    counter: u64,
    /// The next entry's invocation number.
    seq: u64,
    /// Nothing at or after this instant is drawn.
    kill: Option<SimTime>,
}

impl<I> Draw<'_, I> {
    /// How many entries the behaviour's curve plans.
    pub(crate) fn len(&self) -> u64 {
        self.template.total
    }
}

impl<I: Iterator<Item = SimTime>> Iterator for Draw<'_, I> {
    type Item = PlannedTx;

    fn next(&mut self) -> Option<PlannedTx> {
        let at = self.instants.next()?;
        if self.kill.is_some_and(|kill| at >= kill) {
            return None;
        }
        let (template, seq) = (self.template, self.seq);
        let sender = (self.counter % template.pool) as u32;
        (self.counter, self.seq) = (self.counter + 1, seq + 1);
        let payload = match template.payload {
            Payload::Invoke { dapp, call, .. } => Payload::Invoke { dapp, seq, call },
            transfer => transfer,
        };
        Some(PlannedTx {
            at,
            sender,
            payload,
        })
    }
}

impl<I: Iterator<Item = SimTime>> Source for Draw<'_, I> {
    fn ticks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let (kill, client) = (self.kill, self.client);
        let tick_at = |tick: u64| SimTime::from_millis(tick * TICK_MS);
        let ticks = self.template.curve.tick_counts();
        let ticks = ticks.map_while(move |(tick, count)| match kill {
            Some(kill) if tick_at(tick) >= kill => None,
            Some(kill) if tick_at(tick + 1) > kill => {
                let kept = spread(tick, count, client).take_while(|&at| at < kill);
                Some((tick, kept.count() as u64))
            }
            _ => Some((tick, count)),
        });
        ticks.filter(|&(_, count)| count > 0)
    }

    fn cut(&mut self, at: SimTime) -> u64 {
        self.kill = Some(self.kill.map_or(at, |kill| kill.min(at)));
        self.len() - self.ticks().map(|(_, count)| count).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::SimConnector;
    use crate::spec::PAPER_DOTA_SPEC;

    #[test]
    fn planning_the_paper_spec_counts_match() {
        let spec = BenchmarkSpec::parse(PAPER_DOTA_SPEC).unwrap();
        let mut conn = SimConnector::new("test");
        declare_resources(&spec, &mut conn).unwrap();
        let stats = plan_range(&spec, (0, 3), &mut conn).unwrap();
        assert_eq!(stats.clients, 3);
        // Each client: 4432 × 50 + 4438 × 70 transactions.
        let per_client = 4432 * 50 + 4438 * 70;
        assert_eq!(stats.interactions, 3 * per_client);
        let plan = conn.take_plan();
        assert_eq!(plan.len() as u64, 3 * per_client);
        // Time-sorted and inside the 120 s window.
        assert!(plan.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(plan.last().unwrap().at < diablo_sim::SimTime::from_secs(120));
    }

    #[test]
    fn disjoint_ranges_partition_the_work() {
        let spec = BenchmarkSpec::parse(PAPER_DOTA_SPEC).unwrap();
        let mut whole = SimConnector::new("whole");
        declare_resources(&spec, &mut whole).unwrap();
        plan_range(&spec, (0, 3), &mut whole).unwrap();
        let all = whole.take_plan();

        let mut parts = Vec::new();
        for r in [(0, 1), (1, 2), (2, 3)] {
            let mut c = SimConnector::new("part");
            declare_resources(&spec, &mut c).unwrap();
            plan_range(&spec, r, &mut c).unwrap();
            parts.extend(c.take_plan());
        }
        parts.sort_by_key(|t| t.at);
        assert_eq!(all.len(), parts.len());
        // Same submission times (senders/seqs may renumber per part).
        for (a, b) in all.iter().zip(&parts) {
            assert_eq!(a.at, b.at);
        }
    }

    #[test]
    fn out_of_range_client_errors() {
        let spec = BenchmarkSpec::parse(PAPER_DOTA_SPEC).unwrap();
        let mut conn = SimConnector::new("test");
        declare_resources(&spec, &mut conn).unwrap();
        assert_eq!(
            plan_range(&spec, (2, 4), &mut conn),
            Err(ConnectorError::UnknownClient { client: 3 })
        );
    }

    #[test]
    fn transfer_interactions_rotate_accounts() {
        let spec = BenchmarkSpec::parse(
            r#"
workloads:
  - number: 1
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 5 } }
            amount: 2
          load:
            0: 10
            1: 0
"#,
        )
        .unwrap();
        let mut conn = SimConnector::new("test");
        declare_resources(&spec, &mut conn).unwrap();
        let planner = Planner::new(&spec, &mut conn).unwrap();
        let (_, draws) = planner.client(0, &mut 0).unwrap();
        let mut froms: Vec<u32> = draws.into_iter().flatten().map(|tx| tx.sender).collect();
        assert_eq!(froms.len(), 10);
        assert!(froms.windows(2).all(|w| w[0] != w[1]), "{froms:?}");
        froms.sort_unstable();
        froms.dedup();
        assert_eq!(froms.len(), 5, "all pool accounts used");
    }
}
