//! Prepared-program execution: deploy-time lowering for a checked-once
//! interpreter fast path.
//!
//! Contracts are deployed once and executed millions of times per
//! experiment (a single Mobility call is ~1.4 M instructions), so the
//! per-instruction overhead of [`Interpreter::execute`] — an `Option`
//! bounds check per fetch, a [`GasSchedule::cost`] match per op, and two
//! budget/limit comparisons per op — bounds how large an experiment the
//! suite can simulate. Everything that overhead re-checks is already
//! proven safe by [`validate`] at deploy time.
//!
//! [`prepare`] lowers a validated [`Program`] into a [`PreparedProgram`]:
//!
//! - **jump targets are verified once** and rewritten to basic-block
//!   indices, so execution never range-checks a target again;
//! - **basic blocks are discovered** ([`crate::analyze::basic_blocks`])
//!   and each block's static gas is folded into a per-block sum, so gas
//!   and the flavor's hard budget are charged and checked **once per
//!   block** instead of once per instruction;
//! - **entry points are interned** to dense [`EntryId`]s resolved by
//!   binary search over sorted names — no string hashing on the call
//!   path.
//!
//! The per-call overhead goes the same way. A DApp call is a few
//! hundred instructions, so what [`Interpreter::execute`] sets up
//! around them — a fresh stack, a journal grown from empty, one vector
//! per emitted event, a `load` before every `store` to journal the old
//! value — costs as much as the instructions do.
//! [`Interpreter::execute_prepared_in`] runs in a caller-owned
//! [`Scratch`] instead: the stack, the journal and the events (stored
//! flat, handed out as a borrowed [`Events`] view) are cleared and
//! reused, so a call allocates nothing once the buffers have grown, and
//! `SStore` takes the old value from the probe that writes the new one
//! ([`StateAccess::replace`]). [`Interpreter::execute_prepared`] is the
//! same loop on a throw-away scratch, for callers that want an owned
//! [`Receipt`].
//!
//! # Pre-charging semantics
//!
//! Conceptually, pre-charging moves the gas charge of every instruction
//! in a block to the block's entry. That could move an `OutOfGas` /
//! `BudgetExceeded` fault earlier within the block (and report a larger
//! `used`), so the fast path refuses to pre-charge any block whose full
//! static cost could trip a meter: such a block is executed with
//! per-instruction metering identical to [`Interpreter::execute`]. The
//! observable behaviour is therefore **exactly** the unprepared one —
//! same [`Receipt`], same [`ExecError`] with the same fields, same state
//! effects — which the differential property test in
//! `tests/vm_prepared_differential.rs` asserts across all four flavors.
//! The metered fallback runs at most for the final blocks of an
//! exhausted execution, so the fast path covers essentially the whole
//! run. [`Op::StoreBlob`] terminates a block because its per-byte cost
//! is dynamic: ending the block there makes the pre-charged prefix equal
//! the unprepared cumulative gas at the blob-store, so the dynamic meter
//! check observes identical values on both paths.

use crate::analyze::{basic_blocks, rw_set, validate, RwSet, ValidateError};
use crate::error::ExecError;
use crate::flavor::VmFlavor;
use crate::gas::GasSchedule;
use crate::interp::{rollback, Interpreter, Receipt, TxContext, Undo};
use crate::interp::{MAX_LOCALS, MAX_OPS, MAX_STACK};
use crate::op::Op;
use crate::program::Program;
use crate::state::{ContractState, StateAccess, StateLimits};
use crate::Word;

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
    /// Index of the first instruction.
    start: u32,
    /// One past the last instruction.
    end: u32,
    /// Saturating sum of the static gas cost of every instruction in
    /// the block (excluding `StoreBlob`'s dynamic per-byte part).
    static_gas: u64,
}

impl Block {
    fn len(self) -> u64 {
        (self.end - self.start) as u64
    }
}

/// A validated program lowered for one VM flavor, ready for
/// [`Interpreter::execute_prepared`].
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    flavor: VmFlavor,
    /// The instruction stream with every jump operand rewritten from a
    /// program counter to the index of its target basic block.
    code: Vec<Op>,
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
    let n = program.len();
    // Leader pc -> block index, for rewriting jump targets. Every jump
    // target is a leader by construction.
    let mut block_of_pc = vec![u32::MAX; n];
    let mut blocks = Vec::with_capacity(leaders.len());
    for (i, &start) in leaders.iter().enumerate() {
        let end = leaders.get(i + 1).copied().unwrap_or(n);
        block_of_pc[start] = i as u32;
        blocks.push(Block {
            start: start as u32,
            end: end as u32,
            static_gas: schedule.block_cost(&program.ops()[start..end]),
        });
    }
    let code = program
        .ops()
        .iter()
        .map(|&op| match op {
            Op::Jump(t) => Op::Jump(block_of_pc[t] as usize),
            Op::JumpIfZero(t) => Op::JumpIfZero(block_of_pc[t] as usize),
            Op::JumpIfNotZero(t) => Op::JumpIfNotZero(block_of_pc[t] as usize),
            other => other,
        })
        .collect();
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
        code,
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
        self.code.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Number of basic blocks discovered.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
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
    Goto(usize),
    /// Continue at the next block in program order.
    FallThrough,
    /// `Halt` executed; carries the return value.
    Done(Option<Word>),
}

/// The buffers a prepared call works in: operand stack, undo journal
/// and emitted events. [`Interpreter::execute_prepared_in`] clears them
/// on entry and keeps their capacity, so one `Scratch` (start from
/// `Scratch::default()`) serves any number of calls — of any program, on
/// any state — without allocating again.
#[derive(Debug, Default)]
pub struct Scratch {
    stack: Vec<Word>,
    journal: Vec<Undo>,
    /// Per event, its tag and where its arguments start in `event_args`
    /// (they end where the next event's start).
    event_heads: Vec<(u16, usize)>,
    event_args: Vec<Word>,
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

/// Per-execution mutable state shared by the fast and metered paths.
struct Frame<'a> {
    scratch: &'a mut Scratch,
    locals: [Word; MAX_LOCALS],
    gas: u64,
    ops: u64,
    ctx: &'a TxContext,
    schedule: GasSchedule,
    limits: StateLimits,
    budget: Option<u64>,
}

impl Frame<'_> {
    /// The budget and allowance checks of the unprepared interpreter, in
    /// the same order (hard budget first).
    #[inline]
    fn check_meters(&self) -> Result<(), ExecError> {
        if let Some(b) = self.budget {
            if self.gas > b {
                return Err(ExecError::BudgetExceeded {
                    used: self.gas,
                    budget: b,
                });
            }
        }
        if self.gas > self.ctx.gas_limit {
            return Err(ExecError::OutOfGas {
                used: self.gas,
                limit: self.ctx.gas_limit,
            });
        }
        Ok(())
    }
}

/// Executes one basic block. With `METERED == false` the caller has
/// already pre-charged the block's static gas and instruction count and
/// proven that no meter can trip; with `METERED == true` every
/// instruction is charged and checked exactly like
/// [`Interpreter::execute`] does, so meter faults surface at the same
/// instruction with the same fields.
#[inline(always)]
fn run_block<const METERED: bool, S: StateAccess>(
    f: &mut Frame<'_>,
    code: &[Op],
    block_start: usize,
    state: &mut S,
) -> Result<Next, ExecError> {
    for (off, &op) in code.iter().enumerate() {
        let pc = block_start + off;
        if METERED {
            f.ops += 1;
            if f.ops > MAX_OPS {
                return Err(ExecError::OutOfGas {
                    used: f.gas,
                    limit: f.ctx.gas_limit,
                });
            }
            f.gas = f.gas.saturating_add(f.schedule.cost(op));
            f.check_meters()?;
        }

        macro_rules! pop {
            () => {
                match f.scratch.stack.pop() {
                    Some(v) => v,
                    None => return Err(ExecError::StackUnderflow { pc }),
                }
            };
        }
        macro_rules! push {
            ($v:expr) => {{
                if f.scratch.stack.len() >= MAX_STACK {
                    return Err(ExecError::StackOverflow { pc });
                }
                f.scratch.stack.push($v);
            }};
        }
        macro_rules! binop {
            ($op:expr) => {{
                let b = pop!();
                let a = pop!();
                match $op(a, b) {
                    Some(v) => push!(v),
                    None => return Err(ExecError::Overflow { pc }),
                }
            }};
        }

        match op {
            Op::Push(v) => push!(v),
            Op::Pop => {
                let _ = pop!();
            }
            Op::Dup(n) => match f.scratch.stack.len().checked_sub(1 + n as usize) {
                Some(i) => {
                    let v = f.scratch.stack[i];
                    push!(v);
                }
                None => return Err(ExecError::StackUnderflow { pc }),
            },
            Op::Swap(n) => {
                let top = f.scratch.stack.len().checked_sub(1);
                let other = f.scratch.stack.len().checked_sub(2 + n as usize);
                match (top, other) {
                    (Some(t), Some(o)) => f.scratch.stack.swap(t, o),
                    _ => return Err(ExecError::StackUnderflow { pc }),
                }
            }
            Op::Add => binop!(|a: Word, b: Word| a.checked_add(b)),
            Op::Sub => binop!(|a: Word, b: Word| a.checked_sub(b)),
            Op::Mul => binop!(|a: Word, b: Word| a.checked_mul(b)),
            Op::Div => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(ExecError::DivisionByZero { pc });
                }
                match a.checked_div(b) {
                    Some(v) => push!(v),
                    None => return Err(ExecError::Overflow { pc }),
                }
            }
            Op::Mod => {
                let b = pop!();
                let a = pop!();
                if b == 0 {
                    return Err(ExecError::DivisionByZero { pc });
                }
                match a.checked_rem(b) {
                    Some(v) => push!(v),
                    None => return Err(ExecError::Overflow { pc }),
                }
            }
            Op::Neg => {
                let a = pop!();
                match a.checked_neg() {
                    Some(v) => push!(v),
                    None => return Err(ExecError::Overflow { pc }),
                }
            }
            Op::Lt => binop!(|a: Word, b: Word| Some((a < b) as Word)),
            Op::Gt => binop!(|a: Word, b: Word| Some((a > b) as Word)),
            Op::Eq => binop!(|a: Word, b: Word| Some((a == b) as Word)),
            Op::IsZero => {
                let a = pop!();
                push!((a == 0) as Word);
            }
            Op::And => binop!(|a: Word, b: Word| Some(a & b)),
            Op::Or => binop!(|a: Word, b: Word| Some(a | b)),
            Op::Shl(n) => {
                let a = pop!();
                push!(a.wrapping_shl(n as u32));
            }
            Op::Shr(n) => {
                let a = pop!();
                push!(a.wrapping_shr(n as u32));
            }
            // Jump operands were rewritten to block indices at prepare
            // time; targets were range-verified once, so no check here.
            Op::Jump(b) => return Ok(Next::Goto(b)),
            Op::JumpIfZero(b) => {
                let c = pop!();
                if c == 0 {
                    return Ok(Next::Goto(b));
                }
                // Not taken: a conditional jump is always the last
                // instruction of its block, so fall through below.
            }
            Op::JumpIfNotZero(b) => {
                let c = pop!();
                if c != 0 {
                    return Ok(Next::Goto(b));
                }
            }
            Op::Load(i) => match f.locals.get(i as usize) {
                Some(&v) => push!(v),
                None => return Err(ExecError::InvalidLocal { pc, index: i }),
            },
            Op::Store(i) => {
                let v = pop!();
                match f.locals.get_mut(i as usize) {
                    Some(slot) => *slot = v,
                    None => return Err(ExecError::InvalidLocal { pc, index: i }),
                }
            }
            Op::SLoad => {
                let key = pop!();
                push!(state.load(key));
            }
            Op::SStore => {
                let value = pop!();
                let key = pop!();
                match state.replace(key, value, &f.limits) {
                    Some(old) => f.scratch.journal.push(Undo::Entry(key, old)),
                    None => return Err(ExecError::StateLimitExceeded),
                }
            }
            Op::Arg(i) => push!(f.ctx.args.get(i as usize).copied().unwrap_or(0)),
            Op::Caller => push!(f.ctx.caller),
            Op::Emit { tag, arity } => {
                let Some(first) = f.scratch.stack.len().checked_sub(arity as usize) else {
                    return Err(ExecError::StackUnderflow { pc });
                };
                let start = f.scratch.event_args.len();
                f.scratch.event_heads.push((tag, start));
                f.scratch.event_args.extend_from_slice(&f.scratch.stack[first..]);
                f.scratch.stack.truncate(first);
            }
            Op::StoreBlob => {
                // The per-byte part is dynamic and metered on both
                // paths. StoreBlob ends its block, so the pre-charged
                // prefix equals the unprepared cumulative gas here and
                // the checks observe identical values.
                let len = pop!();
                let len = len.max(0) as u64;
                f.gas = f.gas.saturating_add(f.schedule.blob_cost(len));
                f.check_meters()?;
                if !state.store_blob(len, &f.limits) {
                    return Err(ExecError::StateLimitExceeded);
                }
                f.scratch.journal.push(Undo::Blob(len));
            }
            Op::Halt => return Ok(Next::Done(f.scratch.stack.pop())),
            Op::Revert(code) => return Err(ExecError::Reverted(code)),
            Op::Nop => {}
        }
    }
    Ok(Next::FallThrough)
}

/// Telemetry histogram name for per-entry gas. Entry ids are dense and
/// small (contracts expose a handful of entry points); everything past
/// the table collapses into the last bucket.
fn entry_gas_metric(entry: EntryId) -> &'static str {
    const NAMES: [&str; 8] = [
        "vm.prepared.gas.entry0",
        "vm.prepared.gas.entry1",
        "vm.prepared.gas.entry2",
        "vm.prepared.gas.entry3",
        "vm.prepared.gas.entry4",
        "vm.prepared.gas.entry5",
        "vm.prepared.gas.entry6",
        "vm.prepared.gas.entry7plus",
    ];
    NAMES[entry.index().min(NAMES.len() - 1)]
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
    /// Allocates a [`Scratch`] and an owned [`Receipt`] per call; block
    /// executors keep a scratch and call
    /// [`Interpreter::execute_prepared_in`], which this wraps.
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
        self.execute_prepared_in(&mut Scratch::default(), prepared, entry, ctx, state)
            .map(|call| call.to_receipt())
    }

    /// [`Interpreter::execute_prepared`] in caller-owned buffers:
    /// whatever an earlier call left in `scratch` is cleared, the
    /// capacity is kept, and the outcome's events borrow from it.
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
        scratch.stack.clear();
        scratch.journal.clear();
        scratch.event_heads.clear();
        scratch.event_args.clear();
        let mut frame = Frame {
            scratch: &mut *scratch,
            locals: [0 as Word; MAX_LOCALS],
            gas: 0,
            ops: 0,
            ctx,
            schedule: prepared.flavor.schedule(),
            limits: prepared.flavor.state_limits(),
            budget: prepared.flavor.per_tx_budget(),
        };

        // The effective gas ceiling: the tighter of the hard budget and
        // the transaction's allowance. Exceeding it means some meter
        // trips — which one (and with which fields) is decided by the
        // per-instruction fallback.
        let allowance = frame.budget.unwrap_or(u64::MAX).min(ctx.gas_limit);
        let blocks = prepared.blocks.as_slice();
        let mut bi = start_block as usize;
        let mut fell_back = false;
        let result = loop {
            let block = blocks[bi];
            let code = &prepared.code[block.start as usize..block.end as usize];
            // Pre-charge the whole block iff no meter can trip inside
            // it; otherwise run it with per-instruction metering so any
            // meter fault is observed exactly where the unprepared
            // interpreter observes it.
            let charged = frame.gas.saturating_add(block.static_gas);
            let fast = charged <= allowance && frame.ops + block.len() <= MAX_OPS;
            let next = if fast {
                frame.gas = charged;
                frame.ops += block.len();
                run_block::<false, S>(&mut frame, code, block.start as usize, state)
            } else {
                fell_back = true;
                run_block::<true, S>(&mut frame, code, block.start as usize, state)
            };
            match next {
                Ok(Next::Goto(b)) => bi = b,
                Ok(Next::FallThrough) => {
                    bi += 1;
                    if bi == blocks.len() {
                        break Err(ExecError::MissingTerminator);
                    }
                }
                Ok(Next::Done(ret)) => break Ok(ret),
                Err(e) => break Err(e),
            }
        };
        let (gas_used, ops_executed) = (frame.gas, frame.ops);

        if result.is_err() {
            rollback(&mut scratch.journal, state);
        }
        diablo_telemetry::counter!("vm.prepared.calls");
        if fell_back {
            diablo_telemetry::counter!("vm.prepared.precharge_fallbacks");
        }
        let ret = result?;
        diablo_telemetry::record!(entry_gas_metric(entry), gas_used);
        Ok(CallOutcome {
            gas_used,
            ops_executed,
            ret,
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
        assert_eq!(prepared.block_count(), 4);
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
