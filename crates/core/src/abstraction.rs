//! The blockchain abstraction of §4.
//!
//! Diablo models a blockchain as a tuple ⟨E, R, I⟩: endpoints, resources
//! (accounts, contract state) and interaction types (`transfer_X`,
//! `invoke_D_Xs`). Adding a blockchain means implementing four
//! functions, which become the [`Connector`] trait here:
//!
//! 1. `s.create_client(E)` — make a client bound to a set of endpoints,
//! 2. `create_resource(φʳ)` — provision accounts / deploy contracts,
//! 3. `encode(φⁱ, r, t)` — turn an interaction into an opaque, presigned
//!    payload, and
//! 4. `c.trigger(e)` — schedule the encoded payload for submission.
//!
//! The paper's per-chain implementations are 1,000–1,200 lines of Go
//! each; here each chain's adapter (see [`crate::adapters`]) binds the
//! same four functions to the simulated networks of `diablo-chains`.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use diablo_chains::{tx::CallSel, Payload, Plan, PlannedTx};
use diablo_contracts::DApp;
use diablo_sim::SimTime;
use diablo_workloads::TICK_MS;

/// An interaction as specified by the benchmark (`φⁱ` applied to
/// concrete resources).
#[derive(Debug, Clone, PartialEq)]
pub enum Interaction {
    /// `transfer_X`: move `amount` coins between pool accounts.
    Transfer {
        /// Signing account (index into the declared pool).
        from: u32,
        /// Destination account.
        to: u32,
        /// Coins moved.
        amount: u64,
    },
    /// `invoke_D_Xs`: call `function(args)` on a deployed DApp.
    Invoke {
        /// Signing account.
        from: u32,
        /// The contract name as declared in the spec.
        contract: String,
        /// Function name.
        function: String,
        /// Call arguments.
        args: Vec<i64>,
    },
}

/// An interaction event `(c, i, r, t)`: client, interaction, time.
/// (The resource is embedded in the interaction.)
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionEvent {
    /// The issuing client (worker thread).
    pub client: ClientId,
    /// What to do.
    pub interaction: Interaction,
    /// When to submit it.
    pub at: SimTime,
}

/// Handle to a client created by [`Connector::create_client`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientId(pub u32);

/// A resource declaration (`φʳ`).
#[derive(Debug, Clone, PartialEq)]
pub enum ResourceSpec {
    /// A pool of `number` funded accounts.
    Accounts {
        /// Pool size.
        number: u32,
    },
    /// A deployed DApp contract, by spec name (e.g. `dota`).
    Contract {
        /// The contract name.
        name: String,
    },
}

/// An encoded, presigned interaction, ready to trigger.
///
/// Opaque to the framework: only the adapter that produced it can
/// interpret it (here it wraps the simulator's planned transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Encoded {
    pub(crate) planned: PlannedTx,
}

impl Encoded {
    /// The submission instant baked into the encoding.
    pub fn at(&self) -> SimTime {
        self.planned.at
    }
}

/// Why a [`Connector`] call failed.
///
/// Typed so callers — most importantly retry logic — can match on the
/// error class instead of parsing strings: [`ConnectorError::is_transient`]
/// distinguishes failures worth retrying (a node shedding load, a
/// mangled submission) from specification errors that no retry fixes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConnectorError {
    /// A [`ClientId`] that no [`Connector::create_client`] call of this
    /// connector produced.
    UnknownClient {
        /// The offending client id.
        client: u32,
    },
    /// A contract name the suite does not know at all.
    UnknownContract {
        /// The spec name.
        name: String,
    },
    /// A known contract that was never deployed via
    /// [`Connector::create_resource`].
    NotDeployed {
        /// The spec name.
        name: String,
    },
    /// The deployed contract has no entry with this name.
    UnknownFunction {
        /// The contract's spec name.
        contract: String,
        /// The missing function.
        function: String,
    },
    /// More call arguments than the ABI supports.
    TooManyArguments {
        /// The function called.
        function: String,
        /// Arguments given.
        given: usize,
        /// Arguments supported.
        max: usize,
    },
    /// A call argument outside the ABI's representable range.
    ArgumentOutOfRange {
        /// The function called.
        function: String,
        /// The offending value.
        value: i64,
    },
    /// A resource declaration that provisions nothing.
    EmptyResource {
        /// What was declared empty.
        what: String,
    },
    /// The endpoint is shedding load (full queue, rate limit); the
    /// submission may succeed later.
    ResourceExhausted {
        /// Which resource ran out.
        what: String,
    },
    /// The endpoint rejected the submission outright (corrupted
    /// payload, failed prevalidation).
    Rejected {
        /// The node's stated reason.
        reason: String,
    },
    /// A live endpoint could not be reached over the wire (connection
    /// refused, reset, timed out) — the peer may simply not be up yet,
    /// so retrying per the [`diablo_chains::RetryPolicy`] is warranted.
    Unreachable {
        /// The address dialed.
        addr: String,
        /// The socket error.
        reason: String,
    },
    /// A live endpoint address that cannot resolve at all (malformed
    /// host:port, failed name resolution) — no retry fixes it.
    BadAddress {
        /// The address given.
        addr: String,
        /// Why it does not resolve.
        reason: String,
    },
}

impl ConnectorError {
    /// Whether retrying the same call later could succeed: true only
    /// for load-dependent failures, never for specification errors.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ConnectorError::ResourceExhausted { .. }
                | ConnectorError::Rejected { .. }
                | ConnectorError::Unreachable { .. }
        )
    }
}

impl std::fmt::Display for ConnectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectorError::UnknownClient { client } => write!(f, "unknown client {client}"),
            ConnectorError::UnknownContract { name } => write!(f, "unknown contract `{name}`"),
            ConnectorError::NotDeployed { name } => write!(f, "contract `{name}` not deployed"),
            ConnectorError::UnknownFunction { contract, function } => {
                write!(f, "contract `{contract}` has no function `{function}`")
            }
            ConnectorError::TooManyArguments {
                function,
                given,
                max,
            } => write!(
                f,
                "function `{function}` called with {given} arguments (max {max})"
            ),
            ConnectorError::ArgumentOutOfRange { function, value } => {
                write!(f, "argument {value} out of range for `{function}`")
            }
            ConnectorError::EmptyResource { what } => write!(f, "{what} must be non-empty"),
            ConnectorError::ResourceExhausted { what } => write!(f, "{what} exhausted"),
            ConnectorError::Rejected { reason } => write!(f, "submission rejected: {reason}"),
            ConnectorError::Unreachable { addr, reason } => {
                write!(f, "`{addr}` unreachable: {reason}")
            }
            ConnectorError::BadAddress { addr, reason } => {
                write!(f, "bad address `{addr}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ConnectorError {}

/// The four-function blockchain abstraction.
pub trait Connector {
    /// The adapter/chain name.
    fn name(&self) -> &str;

    /// Creates a client that submits through the endpoints matching the
    /// `view` patterns (function 1).
    fn create_client(&mut self, view: &[String]) -> Result<ClientId, ConnectorError>;

    /// Provisions a resource: funds accounts or deploys a contract
    /// (function 2).
    fn create_resource(&mut self, resource: &ResourceSpec) -> Result<(), ConnectorError>;

    /// Encodes (presigns) one interaction for submission at `at`
    /// (function 3).
    fn encode(&mut self, interaction: &Interaction, at: SimTime)
        -> Result<Encoded, ConnectorError>;

    /// Schedules an encoded interaction on a client (function 4).
    fn trigger(&mut self, client: ClientId, encoded: Encoded) -> Result<(), ConnectorError>;

    /// Says that `client` is about to be triggered `interactions` times,
    /// for a connector that holds what it is given. Capacity only: a
    /// wrong count changes nothing a trigger does.
    fn reserve(&mut self, _client: ClientId, _interactions: usize) {}
}

/// Connector state shared by all simulated chains: tracks declared
/// resources and accumulates each client's submission plan.
#[derive(Debug)]
pub struct SimConnector {
    name: String,
    /// Declared account pool size (0 until created).
    accounts: u32,
    /// Deployed contracts by spec name.
    contracts: Vec<(String, DApp)>,
    /// Per-client planned submissions.
    plans: Vec<Vec<PlannedTx>>,
}

impl SimConnector {
    /// A connector for the named simulated chain.
    pub fn new(name: impl Into<String>) -> Self {
        SimConnector {
            name: name.into(),
            accounts: 0,
            contracts: Vec::new(),
            plans: Vec::new(),
        }
    }

    /// Number of clients created so far.
    pub fn client_count(&self) -> usize {
        self.plans.len()
    }

    /// The DApp deployed under `name`, if any.
    pub fn contract(&self, name: &str) -> Option<DApp> {
        self.contracts
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, d)| d)
    }

    /// Number of distinct contracts deployed.
    pub fn contract_count(&self) -> usize {
        self.contracts.len()
    }

    /// The single DApp of the benchmark, if exactly one is deployed.
    pub fn sole_dapp(&self) -> Option<DApp> {
        match self.contracts.as_slice() {
            [(_, d)] => Some(*d),
            _ => None,
        }
    }

    /// Drains all triggered interactions into one time-sorted plan: the
    /// clients' triggers merged by the one lazy merge (`Merge`) into one
    /// vector of the plan's size, equal instants client after client. A
    /// lone run — one client, its triggers in time order — is that plan
    /// already and is handed back as it is.
    pub fn take_plan(&mut self) -> Vec<PlannedTx> {
        let clients: Vec<Vec<PlannedTx>> = self.plans.iter_mut().map(std::mem::take).collect();
        let runs: Vec<&[PlannedTx]> = clients.iter().flat_map(|c| natural_runs(c)).collect();
        if runs.len() == 1 {
            return clients.into_iter().find(|c| !c.is_empty()).unwrap_or_default();
        }
        let mut plan = Vec::with_capacity(clients.iter().map(Vec::len).sum());
        plan.extend(Merge::new(runs.into_iter().map(Slice::new), |_, _| {}));
        plan
    }
}

/// The maximal stretches of `txs` whose instants do not decrease, in
/// order: the sources a [`Merge`] takes to give the stable sort of `txs`.
pub(crate) fn natural_runs(txs: &[PlannedTx]) -> impl Iterator<Item = &[PlannedTx]> {
    txs.chunk_by(|a, b| a.at <= b.at)
}

/// A time-sorted stream of planned transactions that can say, before it
/// is drawn, what it holds tick by tick.
pub(crate) trait Source: Iterator<Item = PlannedTx> {
    /// The non-empty submission ticks of everything the source holds,
    /// drawn or not, as `(tick, count)` in tick order.
    fn ticks(&self) -> impl Iterator<Item = (u64, u64)> + '_;

    /// Drops every entry at or after `at`, before the first draw, and
    /// returns how many that was.
    fn cut(&mut self, at: SimTime) -> u64;
}

/// A time-sorted slice as a [`Source`]: a `take_plan` run, or a run of
/// the entries a Secondary shipped.
pub(crate) struct Slice<'a> {
    all: &'a [PlannedTx],
    next: usize,
}

impl<'a> Slice<'a> {
    pub(crate) fn new(all: &'a [PlannedTx]) -> Self {
        Slice { all, next: 0 }
    }
}

impl Iterator for Slice<'_> {
    type Item = PlannedTx;

    fn next(&mut self) -> Option<PlannedTx> {
        let tx = *self.all.get(self.next)?;
        self.next += 1;
        Some(tx)
    }
}

impl Source for Slice<'_> {
    fn ticks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let tick = |tx: &PlannedTx| tx.at.as_micros() / (TICK_MS * 1000);
        self.all
            .chunk_by(move |a, b| tick(a) == tick(b))
            .map(move |run| (tick(&run[0]), run.len() as u64))
    }

    fn cut(&mut self, at: SimTime) -> u64 {
        let kept = self.all.partition_point(|tx| tx.at < at);
        let dropped = self.all.len() - kept;
        self.all = &self.all[..kept];
        dropped as u64
    }
}

/// The one routine that orders a plan: a lazy merge of time-sorted
/// sources into the stable sort of their concatenation (equal instants:
/// the earlier source first), drawn one entry at a time. Each draw calls
/// `origin(source, index)`: the entry is entry `index` of that source.
/// Its ticks are the per-tick sums of its sources' ticks, so it is a
/// [`Plan`] a run can size itself by before the first draw.
pub(crate) struct Merge<S, F> {
    /// Each source with its drawn next entry and how many it has given.
    sources: Vec<(S, Option<PlannedTx>, usize)>,
    /// `(instant, source)` of every source's next entry, least first.
    heads: BinaryHeap<Reverse<(SimTime, usize)>>,
    origin: F,
}

impl<S: Source, F: FnMut(usize, usize)> Merge<S, F> {
    pub(crate) fn new(sources: impl IntoIterator<Item = S>, origin: F) -> Self {
        let mut heads = BinaryHeap::new();
        let sources = (sources.into_iter().enumerate())
            .map(|(s, mut source)| {
                let head = source.next();
                if let Some(tx) = head {
                    heads.push(Reverse((tx.at, s)));
                }
                (source, head, 0)
            })
            .collect();
        Merge {
            sources,
            heads,
            origin,
        }
    }
}

impl<S: Source, F: FnMut(usize, usize)> Iterator for Merge<S, F> {
    type Item = PlannedTx;

    fn next(&mut self) -> Option<PlannedTx> {
        let mut top = self.heads.peek_mut()?;
        let Reverse((_, s)) = *top;
        let (source, head, drawn) = &mut self.sources[s];
        (self.origin)(s, *drawn);
        *drawn += 1;
        let tx = std::mem::replace(head, source.next());
        match *head {
            Some(next) => *top = Reverse((next.at, s)),
            None => drop(PeekMut::pop(top)),
        }
        tx
    }
}

impl<S: Source, F: FnMut(usize, usize)> Plan for Merge<S, F> {
    fn ticks(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut ticks: Vec<_> = self.sources.iter().map(|(s, ..)| s.ticks()).collect();
        // `(tick, count, source)` of every source's next tick.
        let mut heads: BinaryHeap<_> = (ticks.iter_mut().enumerate())
            .filter_map(|(s, t)| t.next().map(|(tick, count)| Reverse((tick, count, s))))
            .collect();
        std::iter::from_fn(move || {
            let tick = heads.peek()?.0 .0;
            let mut sum = 0;
            while let Some(mut top) = heads.peek_mut().filter(|top| top.0 .0 == tick) {
                let Reverse((_, count, s)) = *top;
                sum += count;
                match ticks[s].next() {
                    Some((next, count)) => *top = Reverse((next, count, s)),
                    None => drop(PeekMut::pop(top)),
                }
            }
            Some((tick, sum))
        })
    }
}

impl Connector for SimConnector {
    fn name(&self) -> &str {
        &self.name
    }

    fn create_client(&mut self, _view: &[String]) -> Result<ClientId, ConnectorError> {
        // Every simulated node serves every view pattern; the pattern
        // restricts placement, which the simulator derives from the
        // deployment configuration.
        self.plans.push(Vec::new());
        Ok(ClientId(self.plans.len() as u32 - 1))
    }

    fn create_resource(&mut self, resource: &ResourceSpec) -> Result<(), ConnectorError> {
        match resource {
            ResourceSpec::Accounts { number } => {
                if *number == 0 {
                    return Err(ConnectorError::EmptyResource {
                        what: "account pool".to_string(),
                    });
                }
                self.accounts = self.accounts.max(*number);
                Ok(())
            }
            ResourceSpec::Contract { name } => {
                let dapp = DApp::parse(name).ok_or_else(|| ConnectorError::UnknownContract {
                    name: name.clone(),
                })?;
                if self.contract(name).is_none() {
                    self.contracts.push((name.clone(), dapp));
                }
                Ok(())
            }
        }
    }

    fn encode(
        &mut self,
        interaction: &Interaction,
        at: SimTime,
    ) -> Result<Encoded, ConnectorError> {
        let planned = match interaction {
            Interaction::Transfer { from, .. } => PlannedTx {
                at,
                sender: *from,
                payload: Payload::Transfer,
            },
            Interaction::Invoke {
                from,
                contract,
                function,
                args,
            } => {
                let dapp =
                    self.contract(contract)
                        .ok_or_else(|| ConnectorError::NotDeployed {
                            name: contract.clone(),
                        })?;
                // Resolve the spec's function string to an entry index;
                // an empty function string means the default rotation.
                let call = if function.is_empty() {
                    None
                } else {
                    let entry = diablo_contracts::calls::entry_index(dapp, function).ok_or_else(
                        || ConnectorError::UnknownFunction {
                            contract: contract.clone(),
                            function: function.clone(),
                        },
                    )?;
                    if args.len() > 2 {
                        return Err(ConnectorError::TooManyArguments {
                            function: function.clone(),
                            given: args.len(),
                            max: 2,
                        });
                    }
                    let mut packed = [0i32; 2];
                    for (slot, &a) in packed.iter_mut().zip(args.iter()) {
                        *slot =
                            i32::try_from(a).map_err(|_| ConnectorError::ArgumentOutOfRange {
                                function: function.clone(),
                                value: a,
                            })?;
                    }
                    Some(CallSel {
                        entry,
                        args: packed,
                        argc: args.len() as u8,
                    })
                };
                // The planner numbers a behaviour's invocations (its
                // cursor's `seq`); one encoded alone is the first.
                PlannedTx {
                    at,
                    sender: *from,
                    payload: Payload::Invoke { dapp, seq: 0, call },
                }
            }
        };
        Ok(Encoded { planned })
    }

    fn trigger(&mut self, client: ClientId, encoded: Encoded) -> Result<(), ConnectorError> {
        let plan = self
            .plans
            .get_mut(client.0 as usize)
            .ok_or(ConnectorError::UnknownClient { client: client.0 })?;
        plan.push(encoded.planned);
        Ok(())
    }

    fn reserve(&mut self, client: ClientId, interactions: usize) {
        if let Some(plan) = self.plans.get_mut(client.0 as usize) {
            plan.reserve_exact(interactions);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The eager merge [`Merge`] replaced, kept as its oracle: calls
    /// `emit(run, index)` for each entry of the stable sort of the
    /// concatenation of time-sorted `runs`.
    pub(crate) fn merge_runs(runs: &[&[PlannedTx]], mut emit: impl FnMut(usize, usize)) {
        let heads = runs.iter().enumerate();
        let heads = heads.filter_map(|(r, run)| Some(Reverse((run.first()?.at, r, 0))));
        let mut heads: BinaryHeap<_> = heads.collect();
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((_, r, i)) = *head;
            emit(r, i);
            match runs[r].get(i + 1) {
                Some(next) => *head = Reverse((next.at, r, i + 1)),
                None => drop(PeekMut::pop(head)),
            }
        }
    }

    #[test]
    fn four_function_flow() {
        let mut c = SimConnector::new("quorum");
        c.create_resource(&ResourceSpec::Accounts { number: 100 })
            .unwrap();
        c.create_resource(&ResourceSpec::Contract {
            name: "dota".into(),
        })
        .unwrap();
        let client = c.create_client(&[".*".to_string()]).unwrap();
        let i = Interaction::Invoke {
            from: 3,
            contract: "dota".into(),
            function: "update".into(),
            args: vec![1, 1],
        };
        let e = c.encode(&i, SimTime::from_secs(1)).unwrap();
        assert_eq!(e.at(), SimTime::from_secs(1));
        c.trigger(client, e).unwrap();
        let plan = c.take_plan();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].sender, 3);
        assert!(matches!(
            plan[0].payload,
            Payload::Invoke {
                dapp: DApp::Gaming,
                ..
            }
        ));
    }

    #[test]
    fn unknown_contract_rejected() {
        let mut c = SimConnector::new("x");
        let err = c
            .create_resource(&ResourceSpec::Contract {
                name: "ponzi".into(),
            })
            .unwrap_err();
        assert_eq!(
            err,
            ConnectorError::UnknownContract {
                name: "ponzi".into()
            }
        );
        assert!(err.to_string().contains("unknown contract"));
        assert!(!err.is_transient(), "a spec error is never retryable");
        let i = Interaction::Invoke {
            from: 0,
            contract: "dota".into(),
            function: "update".into(),
            args: vec![],
        };
        let err = c.encode(&i, SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            ConnectorError::NotDeployed {
                name: "dota".into()
            }
        );
    }

    #[test]
    fn connector_error_is_a_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(ConnectorError::Rejected {
            reason: "corrupted payload".into(),
        });
        assert!(err.to_string().contains("corrupted payload"));
        let transient = ConnectorError::ResourceExhausted {
            what: "mempool".into(),
        };
        assert!(transient.is_transient());
    }

    #[test]
    fn plan_is_time_sorted_across_clients() {
        let mut c = SimConnector::new("x");
        let a = c.create_client(&[]).unwrap();
        let b = c.create_client(&[]).unwrap();
        let t = Interaction::Transfer {
            from: 0,
            to: 1,
            amount: 1,
        };
        for (client, secs) in [(a, 5), (b, 2), (a, 1), (b, 9)] {
            let e = c.encode(&t, SimTime::from_secs(secs)).unwrap();
            c.trigger(client, e).unwrap();
        }
        let plan = c.take_plan();
        let times: Vec<u64> = plan.iter().map(|p| p.at.as_micros() / 1_000_000).collect();
        assert_eq!(times, vec![1, 2, 5, 9]);
    }

    #[test]
    fn the_plan_is_the_stable_sort_of_its_runs() {
        use diablo_testkit::gen::{u64s, vecs};
        use diablo_testkit::{prop_assert, prop_assert_eq, Property};

        // Instants in trigger order, per client of a connector or per
        // share of a Primary: few distinct values, so ties within and
        // across runs are the common case, and unsorted, so a client or
        // a share is several runs.
        let shares = vecs(vecs(u64s(0..=12), 0..=40), 0..=6);
        // Kills case 1: the merge preferring the later run on equal
        // instants, and `natural_runs` placing a boundary one entry late.
        Property::new("the_plan_is_the_stable_sort_of_its_runs")
            .cases(256)
            .check(&shares, |shares| {
                // The sender is the entry's place in the concatenation.
                let all: Vec<PlannedTx> = (shares.iter().flatten().enumerate())
                    .map(|(k, &secs)| PlannedTx {
                        at: SimTime::from_secs(secs),
                        sender: k as u32,
                        payload: Payload::Transfer,
                    })
                    .collect();
                let mut want = all.clone();
                want.sort_by_key(|t| t.at);

                // Each share triggered by a client, and split into its
                // natural runs, each with its start in the concatenation.
                let mut c = SimConnector::new("x");
                let (mut runs, mut starts, mut start) = (Vec::new(), Vec::new(), 0);
                for share in shares {
                    let (client, end) = (c.create_client(&[]).unwrap(), start + share.len());
                    c.reserve(client, share.len());
                    for &planned in &all[start..end] {
                        c.trigger(client, Encoded { planned }).unwrap();
                    }
                    for run in natural_runs(&all[start..end]) {
                        starts.push(start);
                        start += run.len();
                        runs.push(run);
                    }
                    prop_assert_eq!(start, end);
                }
                let got = c.take_plan();
                prop_assert_eq!(got.capacity(), got.len());
                prop_assert_eq!(&got, &want);

                // The merge's origins are a permutation of the
                // concatenation, and the entries they point at its
                // stable sort.
                let mut origins = Vec::new();
                merge_runs(&runs, |r, i| origins.push((r, i)));
                let (mut seen, mut got) = (vec![false; all.len()], Vec::new());
                for (r, i) in origins {
                    let entry = runs.get(r).and_then(|run| run.get(i));
                    prop_assert!(entry.is_some() && !seen[starts[r] + i], "({r}, {i}) twice or none");
                    seen[starts[r] + i] = true;
                    got.push(runs[r][i]);
                }
                prop_assert_eq!(got, want);
                Ok(())
            });
    }

    #[test]
    fn the_lazy_merge_is_merge_runs() {
        use diablo_testkit::gen::{u64s, vecs};
        use diablo_testkit::{prop_assert_eq, Property};

        // Runs of instants, sorted, 37.5 ms apart over five ticks: few
        // distinct values, so equal instants across runs and several
        // runs in one tick are the common case.
        let runs = vecs(vecs(u64s(0..=12), 0..=30), 0..=6);
        // Kills case 1: the merge preferring the later source on equal
        // instants, and a tick sum that takes only the first source
        // with that tick.
        Property::new("the_lazy_merge_is_merge_runs")
            .cases(256)
            .check(&runs, |runs| {
                let mut k = 0;
                let runs: Vec<Vec<PlannedTx>> = (runs.iter())
                    .map(|run| {
                        let mut run = run.clone();
                        run.sort_unstable();
                        let run = run.into_iter().map(|step| {
                            k += 1;
                            PlannedTx {
                                at: SimTime::from_micros(step * 37_500),
                                sender: k,
                                payload: Payload::Transfer,
                            }
                        });
                        run.collect()
                    })
                    .collect();
                let slices: Vec<&[PlannedTx]> = runs.iter().map(Vec::as_slice).collect();
                let (mut want, mut want_origins) = (Vec::new(), Vec::new());
                merge_runs(&slices, |r, i| {
                    want.push(slices[r][i]);
                    want_origins.push((r, i));
                });

                let mut origins = Vec::new();
                let merge = Merge::new(slices.iter().map(|s| Slice::new(s)), |r, i| {
                    origins.push((r, i))
                });
                let ticks: Vec<(u64, u64)> = merge.ticks().collect();
                let got: Vec<PlannedTx> = merge.collect();
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(origins, want_origins);
                let want_ticks: Vec<(u64, u64)> = want.into_iter().ticks().collect();
                prop_assert_eq!(ticks, want_ticks);
                Ok(())
            });
    }

    #[test]
    fn trigger_unknown_client_errors() {
        let mut c = SimConnector::new("x");
        let e = c
            .encode(
                &Interaction::Transfer {
                    from: 0,
                    to: 1,
                    amount: 1,
                },
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(
            c.trigger(ClientId(7), e),
            Err(ConnectorError::UnknownClient { client: 7 })
        );
    }
}
