//! Prepared-program execution: deploy-time lowering for a checked-once
//! interpreter fast path.
//!
//! Contracts deploy once and run millions of times (a Mobility call is
//! ~1.4 M instructions), so what [`Interpreter::execute`] re-checks per
//! instruction — the fetch bound, a [`GasSchedule::cost`] match, the
//! budget and allowance, the stack bounds — caps the experiments the
//! suite can simulate. [`prepare`] lowers a [`validate`]d [`Program`]
//! into a [`PreparedProgram`] that checks those once:
//!
//! - **jump targets** are verified and rewritten to basic-block indices
//!   ([`crate::analyze::basic_blocks`]);
//! - **gas** is folded into one static sum per block, charged and
//!   checked against the hard budget and the allowance on block entry;
//! - **the stack** is bounded per block from the ops' stack effects:
//!   entered at `sp >= need` with `sp + grow <=` [`MAX_STACK`], no op of
//!   the block can underflow or overflow;
//! - **each block is lowered twice** (`lower.rs`): a plain stream of one
//!   instruction per op, and a fused one in which five short runs the
//!   contracts repeat dispatch as one instruction;
//! - **entry points** are interned to dense [`EntryId`]s.
//!
//! A call's set-up is hoisted the same way:
//! [`Interpreter::execute_prepared_in`] reuses a caller-owned [`Scratch`]
//! (stack buffer, journal, flat events lent out as an [`Events`] view)
//! and tallies the call's telemetry in it until [`Scratch::publish`];
//! `SStore` journals the old value from the probe that writes the new
//! one ([`StateAccess::replace`]). [`Interpreter::execute_prepared`] is
//! the same loop on a throw-away scratch, returning a [`Receipt`].
//!
//! # Pre-charging semantics
//!
//! Pre-charging could move an `OutOfGas` / `BudgetExceeded` fault
//! earlier in a block (with a larger `used`), and dropping the stack
//! checks could hide a `StackUnderflow` / `StackOverflow`. So a block
//! whose static cost could trip a meter, or whose stack bounds do not
//! fit, runs its plain stream with the per-instruction metering and
//! checks of [`Interpreter::execute`], and the [`Receipt`], the
//! [`ExecError`] with its fields and the state effects are exactly the
//! unprepared ones (`tests/vm_prepared_differential.rs`, all four
//! flavors). [`crate::Op::StoreBlob`] ends its block because its
//! per-byte cost is dynamic: the pre-charged prefix then equals the
//! unprepared cumulative gas at the blob store, so the dynamic check
//! observes identical values on both paths.

mod lower;

use crate::analyze::{basic_blocks, rw_set, validate, RwSet, ValidateError};
use crate::error::ExecError;
use crate::flavor::VmFlavor;
use crate::gas::GasSchedule;
use crate::interp::{rollback, Interpreter, Receipt, TxContext, Undo};
use crate::interp::{MAX_LOCALS, MAX_OPS, MAX_STACK};
use crate::program::Program;
use crate::state::{ContractState, StateAccess, StateLimits};
use crate::Word;
use lower::Ins;

/// A dense handle for one entry point of one [`PreparedProgram`],
/// resolved once via [`PreparedProgram::entry_id`] and valid only for
/// the program that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId(u32);

impl EntryId {
    /// The dense index of this entry (0-based, in sorted-name order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One basic block of a prepared program: a maximal straight-line run
/// of instructions entered only at its first instruction.
#[derive(Debug, Clone, Copy)]
struct Block {
    /// The block's instructions: `start..end` in the plain stream (so
    /// `start` is its first pc), `fused_start..fused_end` in the fused.
    start: u32,
    end: u32,
    fused_start: u32,
    fused_end: u32,
    /// Saturating sum of the static gas cost of every instruction in
    /// the block (excluding `StoreBlob`'s dynamic per-byte part).
    static_gas: u64,
    /// The block's stack bounds ([`lower::stack_bounds`]).
    need: u32,
    grow: u32,
}

/// A validated program lowered for one VM flavor, ready for
/// [`Interpreter::execute_prepared`].
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    flavor: VmFlavor,
    /// One instruction per op, and the static gas of each: what the
    /// checked path runs and charges.
    plain: Vec<Ins>,
    costs: Vec<u64>,
    /// Every block's fused stream, in block order: what the fast path
    /// runs.
    fused: Vec<Ins>,
    blocks: Vec<Block>,
    /// `(name, start block)` pairs, sorted by name; an [`EntryId`] is an
    /// index into this table.
    entries: Vec<(String, u32)>,
    /// Per-entry storage footprint, parallel to `entries` — the static
    /// read/write sets feeding the parallel executor's scheduling.
    rw_sets: Vec<RwSet>,
}

/// Lowers a program for `flavor`. Fails with the same
/// [`ValidateError`]s as [`validate`] — preparation only accepts
/// programs that deploy-time validation accepts.
pub fn prepare(program: &Program, flavor: VmFlavor) -> Result<PreparedProgram, ValidateError> {
    validate(program)?;
    let schedule = flavor.schedule();
    let leaders = basic_blocks(program);
    let ops = program.ops();
    let n = ops.len();
    // Leader pc -> block index, for rewriting jump targets. Every jump
    // target is a leader by construction.
    let mut block_of_pc = vec![u32::MAX; n];
    for (i, &start) in leaders.iter().enumerate() {
        block_of_pc[start] = i as u32;
    }
    let plain: Vec<Ins> = ops
        .iter()
        .enumerate()
        .map(|(pc, &op)| lower::plain(op, pc, &block_of_pc))
        .collect();
    let mut fused = Vec::with_capacity(n);
    let mut blocks = Vec::with_capacity(leaders.len());
    for (i, &start) in leaders.iter().enumerate() {
        let end = leaders.get(i + 1).copied().unwrap_or(n);
        let fused_start = fused.len() as u32;
        lower::fuse(&plain[start..end], &mut fused);
        let (need, grow) = lower::stack_bounds(&ops[start..end]);
        blocks.push(Block {
            start: start as u32,
            end: end as u32,
            fused_start,
            fused_end: fused.len() as u32,
            static_gas: schedule.block_cost(&ops[start..end]),
            need: need as u32,
            grow: grow as u32,
        });
    }
    fused.shrink_to_fit();
    let entries: Vec<(String, u32)> = program
        .entries_sorted()
        .into_iter()
        .map(|(name, pc)| (name.to_string(), block_of_pc[pc]))
        .collect();
    let rw_sets = entries
        .iter()
        .map(|(name, _)| rw_set(program, name).expect("entry exists: validated above"))
        .collect();
    Ok(PreparedProgram {
        flavor,
        plain,
        costs: ops.iter().map(|&op| schedule.cost(op)).collect(),
        fused,
        blocks,
        entries,
        rw_sets,
    })
}

impl PreparedProgram {
    /// The flavor whose gas schedule is folded into the blocks.
    pub fn flavor(&self) -> VmFlavor {
        self.flavor
    }

    /// Program length in instructions.
    pub fn len(&self) -> usize {
        self.plain.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.plain.is_empty()
    }

    /// Resolves an entry-point name to its dense id (binary search over
    /// sorted names — no hashing).
    pub fn entry_id(&self, name: &str) -> Option<EntryId> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| EntryId(i as u32))
    }

    /// Iterates the entry point names in [`EntryId`] order.
    pub fn entry_names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Number of entry points ([`EntryId::index`] values are `0..len`).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The storage footprint of `entry`, computed at prepare time.
    ///
    /// # Panics
    ///
    /// Panics if `entry` came from a different program (an [`EntryId`]
    /// is only valid for the program whose `entry_id` produced it).
    pub fn rw_set(&self, entry: EntryId) -> &RwSet {
        &self.rw_sets[entry.index()]
    }
}

/// What happens after a basic block finishes.
enum Next {
    /// Continue at this block (a taken jump).
    Goto(u32),
    /// Continue at the next block in program order.
    FallThrough,
    /// `Halt` ran or an instruction faulted, as [`Frame::end`] says.
    End,
}

/// Telemetry histogram names for per-entry gas. Entry ids are dense and
/// small (contracts expose a handful of entry points); everything past
/// the table collapses into the last bucket.
const GAS_METRICS: [&str; 8] = [
    "vm.prepared.gas.entry0",
    "vm.prepared.gas.entry1",
    "vm.prepared.gas.entry2",
    "vm.prepared.gas.entry3",
    "vm.prepared.gas.entry4",
    "vm.prepared.gas.entry5",
    "vm.prepared.gas.entry6",
    "vm.prepared.gas.entry7plus",
];

/// The buffers a prepared call works in — operand stack, undo journal,
/// emitted events — and the telemetry of the calls made in it.
/// [`Interpreter::execute_prepared_in`] reuses the buffers, so one
/// `Scratch` (start from `Scratch::default()`) serves any number of
/// calls, of any program on any state, without allocating again.
#[derive(Debug, Default)]
pub struct Scratch {
    /// The operand stack's buffer: a call's stack is its first `sp`
    /// words. It grows to the highest stack a block run in it needed.
    stack: Vec<Word>,
    journal: Vec<Undo>,
    /// Per event, its tag and where its arguments start in `event_args`
    /// (they end where the next event's start).
    event_heads: Vec<(u16, usize)>,
    event_args: Vec<Word>,
    /// Since the last publish (all zero when telemetry is compiled out):
    /// calls, calls in which a block missed the gas pre-charge, and the
    /// gas of each successful call by [`GAS_METRICS`] bucket.
    calls: u64,
    fallbacks: u64,
    gas: [Vec<u64>; GAS_METRICS.len()],
}

impl Scratch {
    /// Publishes the calls made in this scratch since the last publish
    /// (`vm.prepared.calls`, `.precharge_fallbacks`, `.gas.entry*`) with
    /// one recorder entry per metric, none for a zero tally, leaving the
    /// snapshot an entry per call would; an entry costs ~20 instructions.
    /// `ExecutionEngine` publishes per block, each executor worker per
    /// chunk, [`Interpreter::execute_prepared`] per call.
    pub fn publish(&mut self) {
        if self.calls > 0 {
            diablo_telemetry::counter("vm.prepared.calls", std::mem::take(&mut self.calls));
        }
        if self.fallbacks > 0 {
            let fallbacks = std::mem::take(&mut self.fallbacks);
            diablo_telemetry::counter("vm.prepared.precharge_fallbacks", fallbacks);
        }
        for (name, gas) in GAS_METRICS.into_iter().zip(&mut self.gas) {
            if !gas.is_empty() {
                diablo_telemetry::record_all(name, gas.drain(..));
            }
        }
    }
}

/// The events one call emitted, in order, borrowed from the [`Scratch`]
/// it ran in.
#[derive(Debug, Clone, Copy)]
pub struct Events<'a> {
    heads: &'a [(u16, usize)],
    args: &'a [Word],
}

impl<'a> Events<'a> {
    /// Iterates `(tag, arguments)` in emission order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &'a [Word])> + 'a {
        let (heads, args) = (self.heads, self.args);
        heads.iter().enumerate().map(move |(i, &(tag, start))| {
            let end = heads.get(i + 1).map_or(args.len(), |&(_, next)| next);
            (tag, &args[start..end])
        })
    }
}

/// What a successful [`Interpreter::execute_prepared_in`] reports: a
/// [`Receipt`] whose events still live in the [`Scratch`].
#[derive(Debug, Clone, Copy)]
pub struct CallOutcome<'a> {
    /// Gas units consumed, as [`Receipt::gas_used`].
    pub gas_used: u64,
    /// Instructions executed, as [`Receipt::ops_executed`].
    pub ops_executed: u64,
    /// Return value (top of stack at `Halt`), if any.
    pub ret: Option<Word>,
    /// Events emitted, in order.
    pub events: Events<'a>,
}

impl CallOutcome<'_> {
    /// The owned form: copies the events out of the scratch.
    pub fn to_receipt(&self) -> Receipt {
        Receipt {
            gas_used: self.gas_used,
            ops_executed: self.ops_executed,
            events: self
                .events
                .iter()
                .map(|(tag, args)| (tag, args.to_vec()))
                .collect(),
            ret: self.ret,
        }
    }
}

/// Per-execution mutable state shared by the fast and checked paths.
struct Frame<'a> {
    scratch: &'a mut Scratch,
    /// The stack height: the operand stack is `scratch.stack[..sp]`.
    sp: usize,
    locals: [Word; MAX_LOCALS],
    gas: u64,
    ops: u64,
    ctx: &'a TxContext,
    schedule: GasSchedule,
    limits: StateLimits,
    budget: Option<u64>,
    /// `Halt`'s return value or the fault, once a block ends the call.
    end: Result<Option<Word>, ExecError>,
}

/// The unprepared interpreter's meter checks at `gas`, budget first.
#[inline]
fn meter_fault(gas: u64, budget: Option<u64>, limit: u64) -> Option<ExecError> {
    match budget {
        Some(budget) if gas > budget => Some(ExecError::BudgetExceeded { used: gas, budget }),
        _ if gas > limit => Some(ExecError::OutOfGas { used: gas, limit }),
        _ => None,
    }
}

/// Executes one basic block: the one copy of the instruction semantics.
/// With `METERED == false`, `code` is the fused stream of a block whose
/// gas and instruction count the caller pre-charged, and whose meters
/// and stack bounds it proved safe. With `METERED == true`, `code` is
/// the plain stream, charged (`costs`) and checked per instruction as
/// [`Interpreter::execute`] does, so faults surface at the same pc
/// (`first_pc` + offset) with the same fields.
#[inline(always)]
fn run_block<const METERED: bool, S: StateAccess>(
    f: &mut Frame<'_>,
    code: &[Ins],
    costs: &[u64],
    first_pc: usize,
    state: &mut S,
) -> Next {
    let stack = &mut f.scratch.stack[..];
    let mut sp = f.sp;
    let next = 'block: {
        for (off, &ins) in code.iter().enumerate() {
            let pc = first_pc + off;
            macro_rules! fault {
                ($e:expr) => {{
                    f.end = Err($e);
                    break 'block Next::End;
                }};
            }
            if METERED {
                f.ops += 1;
                if f.ops > MAX_OPS {
                    fault!(ExecError::OutOfGas {
                        used: f.gas,
                        limit: f.ctx.gas_limit,
                    });
                }
                f.gas = f.gas.saturating_add(costs[off]);
                if let Some(e) = meter_fault(f.gas, f.budget, f.ctx.gas_limit) {
                    fault!(e);
                }
            }

            macro_rules! pop {
                () => {{
                    if METERED && sp == 0 {
                        fault!(ExecError::StackUnderflow { pc });
                    }
                    sp -= 1;
                    stack[sp]
                }};
            }
            // The value first: it may pop, making room for the push.
            macro_rules! push {
                ($v:expr) => {{
                    let v = $v;
                    if METERED && sp >= MAX_STACK {
                        fault!(ExecError::StackOverflow { pc });
                    }
                    stack[sp] = v;
                    sp += 1;
                }};
            }
            // Pops `a`, pushes `a op b`.
            macro_rules! binop {
                ($b:expr, $op:tt) => {{
                    let b = $b;
                    push!((pop!() $op b) as Word)
                }};
            }
            // Pops `a`, pushes `a.op(b)`; an overflow faults at `at`.
            macro_rules! checked {
                ($b:expr, $op:ident, $at:expr) => {{
                    let b = $b;
                    let a = pop!();
                    match a.$op(b) {
                        Some(v) => push!(v),
                        None => fault!(ExecError::Overflow { pc: $at as usize }),
                    }
                }};
            }
            macro_rules! divide {
                ($op:ident, $at:expr) => {{
                    let b = pop!();
                    let a = pop!();
                    if b == 0 {
                        fault!(ExecError::DivisionByZero { pc: $at as usize });
                    }
                    match a.$op(b) {
                        Some(v) => push!(v),
                        None => fault!(ExecError::Overflow { pc: $at as usize }),
                    }
                }};
            }
            macro_rules! branch {
                ($a:expr, $op:tt, $c:expr, $to:expr, $when:expr) => {
                    if ($a $op $c) == $when {
                        break 'block Next::Goto($to);
                    }
                };
            }
            macro_rules! sstore {
                ($key:expr, $value:expr) => {{
                    let (key, value) = ($key, $value);
                    match state.replace(key, value, &f.limits) {
                        Some(old) => f.scratch.journal.push(Undo::Entry(key, old)),
                        None => fault!(ExecError::StateLimitExceeded),
                    }
                }};
            }

            match ins {
                Ins::Push(v) => push!(v),
                Ins::Pop => _ = pop!(),
                Ins::Dup(n) => {
                    let n = n as usize;
                    if METERED && sp <= n {
                        fault!(ExecError::StackUnderflow { pc });
                    }
                    push!(stack[sp - 1 - n]);
                }
                Ins::Swap(n) => {
                    let n = n as usize;
                    if METERED && sp < n + 2 {
                        fault!(ExecError::StackUnderflow { pc });
                    }
                    stack.swap(sp - 1, sp - 2 - n);
                }
                Ins::Add(at) => checked!(pop!(), checked_add, at),
                Ins::Sub(at) => checked!(pop!(), checked_sub, at),
                Ins::Mul(at) => checked!(pop!(), checked_mul, at),
                Ins::Div(at) => divide!(checked_div, at),
                Ins::Mod(at) => divide!(checked_rem, at),
                Ins::Neg(at) => match pop!().checked_neg() {
                    Some(v) => push!(v),
                    None => fault!(ExecError::Overflow { pc: at as usize }),
                },
                Ins::Lt => binop!(pop!(), <),
                Ins::Gt => binop!(pop!(), >),
                Ins::Eq => binop!(pop!(), ==),
                Ins::IsZero => binop!(0, ==),
                Ins::And => binop!(pop!(), &),
                Ins::Or => binop!(pop!(), |),
                Ins::Shl(n) => push!(pop!().wrapping_shl(n as u32)),
                Ins::Shr(n) => push!(pop!().wrapping_shr(n as u32)),
                // Targets are block indices, checked at prepare time. A
                // conditional jump ends its block: not taken falls through.
                Ins::Jump(b) => break 'block Next::Goto(b),
                Ins::JumpIfZero(b) => branch!(pop!(), ==, 0, b, true),
                Ins::JumpIfNotZero(b) => branch!(pop!(), !=, 0, b, true),
                // `validate` keeps every local index inside the file.
                Ins::Load(i) => push!(f.locals[i as usize]),
                Ins::Store(i) => f.locals[i as usize] = pop!(),
                Ins::SLoad => push!(state.load(pop!())),
                Ins::SStore => {
                    let value = pop!();
                    let key = pop!();
                    sstore!(key, value);
                }
                Ins::Arg(i) => push!(f.ctx.args.get(i as usize).copied().unwrap_or(0)),
                Ins::Caller => push!(f.ctx.caller),
                Ins::Emit(tag, arity) => {
                    let arity = arity as usize;
                    if METERED && sp < arity {
                        fault!(ExecError::StackUnderflow { pc });
                    }
                    let first = sp - arity;
                    let start = f.scratch.event_args.len();
                    f.scratch.event_heads.push((tag, start));
                    f.scratch.event_args.extend_from_slice(&stack[first..sp]);
                    sp = first;
                }
                Ins::StoreBlob => {
                    // The per-byte part is metered on both paths (see the
                    // module docs on why StoreBlob ends its block).
                    let len = pop!().max(0) as u64;
                    f.gas = f.gas.saturating_add(f.schedule.blob_cost(len));
                    if let Some(e) = meter_fault(f.gas, f.budget, f.ctx.gas_limit) {
                        fault!(e);
                    }
                    if !state.store_blob(len, &f.limits) {
                        fault!(ExecError::StateLimitExceeded);
                    }
                    f.scratch.journal.push(Undo::Blob(len));
                }
                Ins::Halt => {
                    f.end = Ok(sp.checked_sub(1).map(|top| stack[top]));
                    break 'block Next::End;
                }
                Ins::Revert(code) => fault!(ExecError::Reverted(code)),
                Ins::Nop => {}
                // The fused runs, fast path only.
                Ins::SLoadConst(key) => push!(state.load(key)),
                Ins::LoadAdd(i, at) => checked!(f.locals[i as usize], checked_add, at),
                Ins::LoadSub(i, at) => checked!(f.locals[i as usize], checked_sub, at),
                Ins::LoadLt(i) => binop!(f.locals[i as usize], <),
                Ins::LoadGt(i) => binop!(f.locals[i as usize], >),
                Ins::LoadEq(i) => binop!(f.locals[i as usize], ==),
                Ins::StoreLoad(i) => f.locals[i as usize] = stack[sp - 1],
                Ins::BranchLt(c, to, when) => branch!(pop!(), <, c, to, when),
                Ins::BranchGt(c, to, when) => branch!(pop!(), >, c, to, when),
                Ins::BranchEq(c, to, when) => branch!(pop!(), ==, c, to, when),
                Ins::LocalBranchLt(i, c, to, when) => branch!(f.locals[i as usize], <, c, to, when),
                Ins::LocalBranchGt(i, c, to, when) => branch!(f.locals[i as usize], >, c, to, when),
                Ins::LocalBranchEq(i, c, to, when) => branch!(f.locals[i as usize], ==, c, to, when),
                Ins::SStoreConst(key, i) => sstore!(key, f.locals[i as usize]),
            }
        }
        Next::FallThrough
    };
    f.sp = sp;
    next
}

impl Interpreter {
    /// Executes `entry` of a prepared program under `ctx` against
    /// `state` — the fast path equivalent of
    /// [`Interpreter::execute`]: identical `Receipt`s, identical
    /// `ExecError`s at the same observable points, identical state
    /// effects (rollback on failure included). Generic over
    /// [`StateAccess`] so the parallel executor can run it against a
    /// copy-on-write [`crate::state::Overlay`].
    ///
    /// Allocates a [`Scratch`] and an owned [`Receipt`] per call, and
    /// publishes the call's telemetry; block executors keep a scratch
    /// and call [`Interpreter::execute_prepared_in`], which this wraps.
    ///
    /// # Panics
    ///
    /// Panics if `prepared` was lowered for a different flavor than this
    /// interpreter meters (a programming error: the fold-in of gas
    /// costs is per flavor).
    pub fn execute_prepared<S: StateAccess>(
        &self,
        prepared: &PreparedProgram,
        entry: EntryId,
        ctx: &TxContext,
        state: &mut S,
    ) -> Result<Receipt, ExecError> {
        let mut scratch = Scratch::default();
        let receipt = self
            .execute_prepared_in(&mut scratch, prepared, entry, ctx, state)
            .map(|call| call.to_receipt());
        scratch.publish();
        receipt
    }

    /// [`Interpreter::execute_prepared`] in caller-owned buffers:
    /// whatever an earlier call left in `scratch` is cleared, the
    /// capacity is kept, the outcome's events borrow from it, and the
    /// call's telemetry waits in it for [`Scratch::publish`].
    ///
    /// # Panics
    ///
    /// As [`Interpreter::execute_prepared`].
    pub fn execute_prepared_in<'s, S: StateAccess>(
        &self,
        scratch: &'s mut Scratch,
        prepared: &PreparedProgram,
        entry: EntryId,
        ctx: &TxContext,
        state: &mut S,
    ) -> Result<CallOutcome<'s>, ExecError> {
        assert_eq!(
            self.flavor(),
            prepared.flavor,
            "prepared program was lowered for {} but executed on {}",
            prepared.flavor,
            self.flavor()
        );
        let Some(&(_, start_block)) = prepared.entries.get(entry.index()) else {
            // A foreign or stale EntryId; entry_id() never produces one.
            return Err(ExecError::UnknownEntry {
                name: format!("#{}", entry.index()),
            });
        };
        scratch.journal.clear();
        scratch.event_heads.clear();
        scratch.event_args.clear();
        let mut frame = Frame {
            scratch: &mut *scratch,
            sp: 0,
            locals: [0 as Word; MAX_LOCALS],
            gas: 0,
            ops: 0,
            ctx,
            schedule: prepared.flavor.schedule(),
            limits: prepared.flavor.state_limits(),
            budget: prepared.flavor.per_tx_budget(),
            end: Ok(None),
        };

        // The tighter of the hard budget and the allowance: exceeding it
        // trips a meter, and the checked path decides which.
        let allowance = frame.budget.unwrap_or(u64::MAX).min(ctx.gas_limit);
        let blocks = prepared.blocks.as_slice();
        let mut bi = start_block as usize;
        let mut fell_back = false;
        loop {
            let block = blocks[bi];
            let (need, grow) = (block.need as usize, block.grow as usize);
            let room = frame.scratch.stack.len();
            // Pre-charged and unchecked iff no meter can trip and the
            // stack bounds fit; else instruction by instruction, so a
            // fault is observed where the unprepared interpreter sees it.
            let charged = frame.gas.saturating_add(block.static_gas);
            let len = u64::from(block.end - block.start);
            let precharge = charged <= allowance && frame.ops + len <= MAX_OPS;
            let next = if precharge && frame.sp >= need && frame.sp + grow <= room {
                frame.gas = charged;
                frame.ops += len;
                let code = &prepared.fused[block.fused_start as usize..block.fused_end as usize];
                run_block::<false, S>(&mut frame, code, &[], 0, state)
            } else if frame.sp + grow > room && room < MAX_STACK {
                // Room for the block (up to MAX_STACK), then decide again.
                let height = (frame.sp + grow).min(MAX_STACK);
                frame.scratch.stack.resize(height, 0);
                continue;
            } else {
                fell_back |= !precharge;
                let range = block.start as usize..block.end as usize;
                let (code, costs) = (&prepared.plain[range.clone()], &prepared.costs[range]);
                run_block::<true, S>(&mut frame, code, costs, block.start as usize, state)
            };
            match next {
                Next::Goto(b) => bi = b as usize,
                Next::FallThrough => {
                    bi += 1;
                    if bi == blocks.len() {
                        frame.end = Err(ExecError::MissingTerminator);
                        break;
                    }
                }
                Next::End => break,
            }
        }
        let Frame { gas, ops, end, .. } = frame;

        if end.is_err() {
            rollback(&mut scratch.journal, state);
        }
        if diablo_telemetry::enabled() {
            scratch.calls += 1;
            scratch.fallbacks += u64::from(fell_back);
            if end.is_ok() {
                scratch.gas[entry.index().min(GAS_METRICS.len() - 1)].push(gas);
            }
        }
        Ok(CallOutcome {
            gas_used: gas,
            ops_executed: ops,
            ret: end?,
            events: Events {
                heads: &scratch.event_heads,
                args: &scratch.event_args,
            },
        })
    }

    /// Prepared-path counterpart of [`Interpreter::dry_run`]: executes
    /// against a scratch copy of `state` and reports the cost without
    /// mutating anything.
    pub fn dry_run_prepared(
        &self,
        prepared: &PreparedProgram,
        entry: EntryId,
        ctx: &TxContext,
        state: &ContractState,
    ) -> Result<Receipt, ExecError> {
        let mut scratch = state.clone();
        self.execute_prepared(prepared, entry, ctx, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::program::Asm;

    /// A counting loop: sum 1..=n, return the sum.
    fn sum_loop(n: Word) -> Program {
        let mut asm = Asm::new();
        asm.entry("main");
        asm.op(Op::Push(n)).op(Op::Store(0));
        asm.op(Op::Push(0)).op(Op::Store(1));
        let top = asm.here();
        let done = asm.new_label();
        asm.op(Op::Load(0));
        asm.jump_if_zero(done);
        asm.op(Op::Load(1)).op(Op::Load(0)).op(Op::Add).op(Op::Store(1));
        asm.op(Op::Load(0)).op(Op::Push(1)).op(Op::Sub).op(Op::Store(0));
        asm.jump(top);
        asm.bind(done);
        asm.op(Op::Load(1)).op(Op::Halt);
    asm.finish()
    }

    fn both(
        program: &Program,
        flavor: VmFlavor,
        ctx: &TxContext,
    ) -> (
        Result<Receipt, ExecError>,
        Result<Receipt, ExecError>,
        ContractState,
        ContractState,
    ) {
        let prepared = prepare(program, flavor).expect("valid program");
        let entry = prepared.entry_id("main").expect("main exists");
        let vm = Interpreter::new(flavor);
        let mut s1 = ContractState::new();
        let mut s2 = ContractState::new();
        let r1 = vm.execute(program, "main", ctx, &mut s1);
        let r2 = vm.execute_prepared(&prepared, entry, ctx, &mut s2);
        (r1, r2, s1, s2)
    }

    #[test]
    fn prepare_rejects_what_validate_rejects() {
        // Dangling jump.
        let mut asm = Asm::new();
        asm.entry("main");
        asm.op(Op::Jump(99)).op(Op::Halt);
        let p = asm.finish();
        assert!(matches!(
            prepare(&p, VmFlavor::Geth),
            Err(ValidateError::JumpOutOfRange { .. })
        ));
        // Out-of-range local.
        let mut asm = Asm::new();
        asm.entry("main");
        asm.op(Op::Load(200)).op(Op::Halt);
        let p = asm.finish();
        assert!(matches!(
            prepare(&p, VmFlavor::Geth),
            Err(ValidateError::LocalOutOfRange { .. })
        ));
    }

    #[test]
    fn entry_ids_are_dense_and_sorted() {
        let mut asm = Asm::new();
        asm.entry("zeta");
        asm.op(Op::Halt);
        asm.entry("alpha");
        asm.op(Op::Push(1)).op(Op::Halt);
        let prepared = prepare(&asm.finish(), VmFlavor::Geth).unwrap();
        let names: Vec<&str> = prepared.entry_names().collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(prepared.entry_id("alpha"), Some(EntryId(0)));
        assert_eq!(prepared.entry_id("zeta"), Some(EntryId(1)));
        assert_eq!(prepared.entry_id("nope"), None);
    }

    #[test]
    fn loop_receipts_match_baseline_on_every_flavor() {
        let program = sum_loop(50);
        for flavor in VmFlavor::ALL {
            let ctx = TxContext::simple(7, vec![]);
            let (r1, r2, s1, s2) = both(&program, flavor, &ctx);
            assert_eq!(r1, r2, "{flavor}");
            assert_eq!(s1.load(0), s2.load(0));
        }
        // On geth the loop succeeds and returns 1275.
        let ctx = TxContext::simple(7, vec![]);
        let (r1, _, _, _) = both(&program, VmFlavor::Geth, &ctx);
        assert_eq!(r1.unwrap().ret, Some(1275));
    }

    #[test]
    fn gas_exhaustion_faults_exactly_like_baseline() {
        // A straight-line block long enough that a mid-block limit is
        // meaningful: the metered fallback must report the same `used`
        // as the unprepared interpreter, not the block's full cost.
        let mut asm = Asm::new();
        asm.entry("main");
        for _ in 0..50 {
            asm.op(Op::Push(1)).op(Op::Pop);
        }
        asm.op(Op::Halt);
        let program = asm.finish();
        for limit in [0, 1, 2, 3, 7, 50, 99, 100, 101, 150] {
            let ctx = TxContext {
                caller: 1,
                args: vec![],
                payload_bytes: 0,
                gas_limit: limit,
            };
            let (r1, r2, _, _) = both(&program, VmFlavor::Geth, &ctx);
            assert_eq!(r1, r2, "limit {limit}");
        }
    }

    #[test]
    fn hard_budget_faults_exactly_like_baseline() {
        // The AVM's 700-op budget trips mid-loop; the prepared path must
        // produce the identical BudgetExceeded { used, budget }.
        let program = sum_loop(1000);
        let ctx = TxContext::simple(1, vec![]);
        let (r1, r2, _, _) = both(&program, VmFlavor::Avm, &ctx);
        assert!(r1.as_ref().unwrap_err().is_hard_budget());
        assert_eq!(r1, r2);
    }

    #[test]
    fn storeblob_dynamic_gas_matches_baseline() {
        let mut asm = Asm::new();
        asm.entry("main");
        asm.ops(&[Op::Push(1024), Op::StoreBlob, Op::Push(7), Op::Halt]);
        let program = asm.finish();
        for flavor in VmFlavor::ALL {
            for limit in [10, 20_000, 20_486, 20_487, u64::MAX] {
                let ctx = TxContext {
                    caller: 1,
                    args: vec![],
                    payload_bytes: 0,
                    gas_limit: limit,
                };
                let (r1, r2, s1, s2) = both(&program, flavor, &ctx);
                assert_eq!(r1, r2, "{flavor} limit {limit}");
                assert_eq!(s1.blob_bytes(), s2.blob_bytes());
            }
        }
    }

    #[test]
    fn rollback_on_failure_matches_baseline() {
        let mut asm = Asm::new();
        asm.entry("main");
        asm.ops(&[Op::Push(5), Op::Push(42), Op::SStore, Op::Revert(9)]);
        let program = asm.finish();
        let prepared = prepare(&program, VmFlavor::Geth).unwrap();
        let entry = prepared.entry_id("main").unwrap();
        let mut state = ContractState::new();
        state.store(5, 77, &StateLimits::unbounded());
        let err = Interpreter::new(VmFlavor::Geth)
            .execute_prepared(&prepared, entry, &TxContext::simple(1, vec![]), &mut state)
            .unwrap_err();
        assert_eq!(err, ExecError::Reverted(9));
        assert_eq!(state.load(5), 77, "revert must restore the old value");
    }

    #[test]
    #[should_panic(expected = "lowered for")]
    fn flavor_mismatch_panics() {
        let program = sum_loop(3);
        let prepared = prepare(&program, VmFlavor::Avm).unwrap();
        let entry = prepared.entry_id("main").unwrap();
        let mut state = ContractState::new();
        let _ = Interpreter::new(VmFlavor::Geth).execute_prepared(
            &prepared,
            entry,
            &TxContext::simple(1, vec![]),
            &mut state,
        );
    }

    #[test]
    fn dry_run_prepared_does_not_mutate() {
        let mut asm = Asm::new();
        asm.entry("main");
        asm.ops(&[Op::Push(1), Op::Push(99), Op::SStore, Op::Halt]);
        let program = asm.finish();
        let prepared = prepare(&program, VmFlavor::Geth).unwrap();
        let entry = prepared.entry_id("main").unwrap();
        let state = ContractState::new();
        let r = Interpreter::new(VmFlavor::Geth)
            .dry_run_prepared(&prepared, entry, &TxContext::simple(1, vec![]), &state)
            .unwrap();
        assert!(r.gas_used > 0);
        assert_eq!(state.load(1), 0);
    }

    #[test]
    fn block_structure_of_a_loop() {
        let program = sum_loop(5);
        let prepared = prepare(&program, VmFlavor::Geth).unwrap();
        // Blocks: [0..4) prologue, [4..6) header, [6..15) body+backedge,
        // [15..17) exit — 4 blocks.
        assert_eq!(prepared.blocks.len(), 4);
        // Blocks partition the program and their folded static costs sum
        // to the whole program's static cost (operand rewriting does not
        // change any instruction's cost class).
        let total_blocks: u64 = prepared.blocks.iter().map(|b| b.static_gas).sum();
        let schedule = VmFlavor::Geth.schedule();
        assert_eq!(total_blocks, schedule.block_cost(program.ops()));
        assert_eq!(
            prepared.blocks.last().unwrap().end as usize,
            prepared.len()
        );
    }
}
