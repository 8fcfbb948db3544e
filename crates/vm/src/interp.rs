//! The bytecode interpreter.
//!
//! Executes one transaction against one contract's state, metering every
//! instruction against (a) the transaction's gas allowance and (b) the
//! flavor's hard per-transaction budget. State writes are journaled and
//! rolled back on any failure, so a reverted or failed transaction leaves
//! no trace (other than the fee its chain may charge).

use crate::error::ExecError;
use crate::flavor::VmFlavor;
use crate::op::Op;
use crate::program::Program;
use crate::state::ContractState;
use crate::Word;

/// Maximum operand stack depth (matches the EVM's 1024).
pub const MAX_STACK: usize = 1024;

/// Safety valve against non-terminating programs: no DApp of the suite
/// comes close to this many instructions in one call.
pub const MAX_OPS: u64 = 50_000_000;

/// Size of the local register file addressed by [`Op::Load`] and
/// [`Op::Store`]. Larger indices are rejected at deploy time by
/// [`crate::analyze::validate`] and fault at run time.
pub const MAX_LOCALS: usize = 32;

/// Per-transaction inputs to an execution.
#[derive(Debug, Clone)]
pub struct TxContext {
    /// The calling account id.
    pub caller: Word,
    /// Call arguments (the paper's `invoke_D_Xs` parameters).
    pub args: Vec<Word>,
    /// Size of the opaque payload shipped with the call (the video data
    /// of the YouTube DApp), in bytes.
    pub payload_bytes: u64,
    /// Gas the sender is willing to pay for execution. For flavors with
    /// a hard budget the effective limit is the smaller of the two.
    pub gas_limit: u64,
}

impl TxContext {
    /// A context with generous gas, no payload, the given caller/args.
    pub fn simple(caller: Word, args: Vec<Word>) -> Self {
        TxContext {
            caller,
            args,
            payload_bytes: 0,
            gas_limit: u64::MAX,
        }
    }
}

/// The result of a successful execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// Gas units consumed by execution (excluding the chain's intrinsic
    /// admission cost).
    pub gas_used: u64,
    /// Number of instructions executed (the CPU-time proxy used by the
    /// machine model in `diablo-chains`).
    pub ops_executed: u64,
    /// Events emitted, in order: `(tag, arguments)`.
    pub events: Vec<(u16, Vec<Word>)>,
    /// Return value (top of stack at `Halt`), if any.
    pub ret: Option<Word>,
}

/// A journaled undo record for one storage write.
#[derive(Debug)]
pub(crate) enum Undo {
    /// Key previously held this value.
    Entry(Word, Word),
    /// A blob of this many bytes was recorded.
    Blob(u64),
}

/// Rolls a journal back against `state`, newest write first, leaving it
/// empty with its buffer intact (the prepared path reuses it). Shared
/// by [`Interpreter::execute`] and the prepared fast path.
pub(crate) fn rollback<S: crate::state::StateAccess>(journal: &mut Vec<Undo>, state: &mut S) {
    for undo in journal.drain(..).rev() {
        match undo {
            Undo::Entry(key, old) => {
                let ok = state.store(key, old, &crate::state::StateLimits::unbounded());
                debug_assert!(ok, "rollback writes cannot exceed limits");
            }
            Undo::Blob(len) => state.unstore_blob(len),
        }
    }
}

/// The interpreter for one VM flavor.
#[derive(Debug, Clone, Copy)]
pub struct Interpreter {
    flavor: VmFlavor,
}

impl Interpreter {
    /// An interpreter for the given flavor.
    pub fn new(flavor: VmFlavor) -> Self {
        Interpreter { flavor }
    }

    /// The flavor this interpreter meters against.
    pub fn flavor(&self) -> VmFlavor {
        self.flavor
    }

    /// Executes `entry` of `program` under `ctx` against `state`.
    ///
    /// On any error the state is rolled back to its pre-call contents.
    pub fn execute(
        &self,
        program: &Program,
        entry: &str,
        ctx: &TxContext,
        state: &mut ContractState,
    ) -> Result<Receipt, ExecError> {
        let Some(mut pc) = program.entry(entry) else {
            return Err(ExecError::UnknownEntry {
                name: entry.to_string(),
            });
        };
        let schedule = self.flavor.schedule();
        let limits = self.flavor.state_limits();
        let budget = self.flavor.per_tx_budget();

        let mut stack: Vec<Word> = Vec::with_capacity(32);
        let mut locals = [0 as Word; MAX_LOCALS];
        let mut gas: u64 = 0;
        let mut ops: u64 = 0;
        let mut events: Vec<(u16, Vec<Word>)> = Vec::new();
        let mut journal: Vec<Undo> = Vec::new();

        let result = loop {
            let Some(op) = program.op(pc) else {
                break Err(ExecError::MissingTerminator);
            };
            ops += 1;
            if ops > MAX_OPS {
                break Err(ExecError::OutOfGas {
                    used: gas,
                    limit: ctx.gas_limit,
                });
            }
            gas = gas.saturating_add(schedule.cost(op));
            if let Some(b) = budget {
                if gas > b {
                    break Err(ExecError::BudgetExceeded {
                        used: gas,
                        budget: b,
                    });
                }
            }
            if gas > ctx.gas_limit {
                break Err(ExecError::OutOfGas {
                    used: gas,
                    limit: ctx.gas_limit,
                });
            }

            macro_rules! pop {
                () => {
                    match stack.pop() {
                        Some(v) => v,
                        None => break Err(ExecError::StackUnderflow { pc }),
                    }
                };
            }
            macro_rules! push {
                ($v:expr) => {{
                    if stack.len() >= MAX_STACK {
                        break Err(ExecError::StackOverflow { pc });
                    }
                    stack.push($v);
                }};
            }
            macro_rules! binop {
                ($f:expr) => {{
                    let b = pop!();
                    let a = pop!();
                    match $f(a, b) {
                        Some(v) => push!(v),
                        None => break Err(ExecError::Overflow { pc }),
                    }
                }};
            }

            let mut next_pc = pc + 1;
            match op {
                Op::Push(v) => push!(v),
                Op::Pop => {
                    let _ = pop!();
                }
                Op::Dup(n) => {
                    let idx = stack.len().checked_sub(1 + n as usize);
                    match idx {
                        Some(i) => {
                            let v = stack[i];
                            push!(v);
                        }
                        None => break Err(ExecError::StackUnderflow { pc }),
                    }
                }
                Op::Swap(n) => {
                    let top = stack.len().checked_sub(1);
                    let other = stack.len().checked_sub(2 + n as usize);
                    match (top, other) {
                        (Some(t), Some(o)) => stack.swap(t, o),
                        _ => break Err(ExecError::StackUnderflow { pc }),
                    }
                }
                Op::Add => binop!(|a: Word, b: Word| a.checked_add(b)),
                Op::Sub => binop!(|a: Word, b: Word| a.checked_sub(b)),
                Op::Mul => binop!(|a: Word, b: Word| a.checked_mul(b)),
                Op::Div => {
                    let b = pop!();
                    let a = pop!();
                    if b == 0 {
                        break Err(ExecError::DivisionByZero { pc });
                    }
                    match a.checked_div(b) {
                        Some(v) => push!(v),
                        None => break Err(ExecError::Overflow { pc }),
                    }
                }
                Op::Mod => {
                    let b = pop!();
                    let a = pop!();
                    if b == 0 {
                        break Err(ExecError::DivisionByZero { pc });
                    }
                    match a.checked_rem(b) {
                        Some(v) => push!(v),
                        None => break Err(ExecError::Overflow { pc }),
                    }
                }
                Op::Neg => {
                    let a = pop!();
                    match a.checked_neg() {
                        Some(v) => push!(v),
                        None => break Err(ExecError::Overflow { pc }),
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
                Op::Jump(t) => {
                    if t >= program.len() {
                        break Err(ExecError::InvalidJump { target: t });
                    }
                    next_pc = t;
                }
                Op::JumpIfZero(t) => {
                    if t >= program.len() {
                        break Err(ExecError::InvalidJump { target: t });
                    }
                    let c = pop!();
                    if c == 0 {
                        next_pc = t;
                    }
                }
                Op::JumpIfNotZero(t) => {
                    if t >= program.len() {
                        break Err(ExecError::InvalidJump { target: t });
                    }
                    let c = pop!();
                    if c != 0 {
                        next_pc = t;
                    }
                }
                Op::Load(i) => match locals.get(i as usize) {
                    Some(&v) => push!(v),
                    None => break Err(ExecError::InvalidLocal { pc, index: i }),
                },
                Op::Store(i) => {
                    let v = pop!();
                    match locals.get_mut(i as usize) {
                        Some(slot) => *slot = v,
                        None => break Err(ExecError::InvalidLocal { pc, index: i }),
                    }
                }
                Op::SLoad => {
                    let key = pop!();
                    push!(state.load(key));
                }
                Op::SStore => {
                    let value = pop!();
                    let key = pop!();
                    journal.push(Undo::Entry(key, state.load(key)));
                    if !state.store(key, value, &limits) {
                        journal.pop();
                        break Err(ExecError::StateLimitExceeded);
                    }
                }
                Op::Arg(i) => push!(ctx.args.get(i as usize).copied().unwrap_or(0)),
                Op::Caller => push!(ctx.caller),
                Op::Emit { tag, arity } => {
                    if stack.len() < arity as usize {
                        break Err(ExecError::StackUnderflow { pc });
                    }
                    let args = stack.split_off(stack.len() - arity as usize);
                    events.push((tag, args));
                }
                Op::StoreBlob => {
                    let len = pop!();
                    let len = len.max(0) as u64;
                    gas = gas.saturating_add(schedule.blob_cost(len));
                    if let Some(b) = budget {
                        if gas > b {
                            break Err(ExecError::BudgetExceeded {
                                used: gas,
                                budget: b,
                            });
                        }
                    }
                    if gas > ctx.gas_limit {
                        break Err(ExecError::OutOfGas {
                            used: gas,
                            limit: ctx.gas_limit,
                        });
                    }
                    if !state.store_blob(len, &limits) {
                        break Err(ExecError::StateLimitExceeded);
                    }
                    journal.push(Undo::Blob(len));
                }
                Op::Halt => {
                    break Ok(Receipt {
                        gas_used: gas,
                        ops_executed: ops,
                        events,
                        ret: stack.pop(),
                    });
                }
                Op::Revert(code) => break Err(ExecError::Reverted(code)),
                Op::Nop => {}
            }
            pc = next_pc;
        };

        if result.is_err() {
            rollback(&mut journal, state);
        }
        diablo_telemetry::counter!("vm.metered.calls");
        if let Ok(receipt) = &result {
            diablo_telemetry::record!("vm.metered.gas_per_call", receipt.gas_used);
        }
        result
    }

    /// Executes against a scratch copy of `state` and reports the cost,
    /// without mutating anything. Used by chain adapters to classify a
    /// DApp as runnable or "budget exceeded" before an experiment.
    pub fn dry_run(
        &self,
        program: &Program,
        entry: &str,
        ctx: &TxContext,
        state: &ContractState,
    ) -> Result<Receipt, ExecError> {
        let mut scratch = state.clone();
        self.execute(program, entry, ctx, &mut scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Asm;

    fn run(flavor: VmFlavor, build: impl FnOnce(&mut Asm)) -> Result<Receipt, ExecError> {
        let mut asm = Asm::new();
        asm.entry("main");
        build(&mut asm);
        let program = asm.finish();
        let mut state = ContractState::new();
        Interpreter::new(flavor).execute(
            &program,
            "main",
            &TxContext::simple(7, vec![10, 20]),
            &mut state,
        )
    }

    #[test]
    fn arithmetic_and_return() {
        let r = run(VmFlavor::Geth, |a| {
            a.ops(&[
                Op::Push(2),
                Op::Push(3),
                Op::Add,
                Op::Push(4),
                Op::Mul,
                Op::Halt,
            ]);
        })
        .unwrap();
        assert_eq!(r.ret, Some(20));
        assert!(r.gas_used > 0);
        assert_eq!(r.ops_executed, 6);
    }

    #[test]
    fn args_and_caller() {
        let r = run(VmFlavor::Geth, |a| {
            a.ops(&[
                Op::Arg(0),
                Op::Arg(1),
                Op::Add,
                Op::Caller,
                Op::Add,
                Op::Halt,
            ]);
        })
        .unwrap();
        assert_eq!(r.ret, Some(37)); // 10 + 20 + 7
    }

    #[test]
    fn missing_arg_reads_zero() {
        let r = run(VmFlavor::Geth, |a| {
            a.ops(&[Op::Arg(9), Op::Halt]);
        })
        .unwrap();
        assert_eq!(r.ret, Some(0));
    }

    #[test]
    fn loops_terminate() {
        // Sum 1..=5 with a loop.
        let r = run(VmFlavor::Geth, |a| {
            a.op(Op::Push(5)).op(Op::Store(0)); // i = 5
            a.op(Op::Push(0)).op(Op::Store(1)); // acc = 0
            let top = a.here();
            let done = a.new_label();
            a.op(Op::Load(0));
            a.jump_if_zero(done);
            a.op(Op::Load(1))
                .op(Op::Load(0))
                .op(Op::Add)
                .op(Op::Store(1));
            a.op(Op::Load(0))
                .op(Op::Push(1))
                .op(Op::Sub)
                .op(Op::Store(0));
            a.jump(top);
            a.bind(done);
            a.op(Op::Load(1)).op(Op::Halt);
        })
        .unwrap();
        assert_eq!(r.ret, Some(15));
    }

    #[test]
    fn storage_roundtrip_and_events() {
        let mut asm = Asm::new();
        asm.entry("main");
        asm.ops(&[
            Op::Push(100),
            Op::Push(42),
            Op::SStore, // [100] = 42
            Op::Push(100),
            Op::SLoad,
            Op::Emit { tag: 9, arity: 1 },
            Op::Halt,
        ]);
        let program = asm.finish();
        let mut state = ContractState::new();
        let r = Interpreter::new(VmFlavor::Geth)
            .execute(&program, "main", &TxContext::simple(1, vec![]), &mut state)
            .unwrap();
        assert_eq!(state.load(100), 42);
        assert_eq!(r.events, vec![(9, vec![42])]);
    }

    #[test]
    fn revert_rolls_back_storage() {
        let mut asm = Asm::new();
        asm.entry("main");
        asm.ops(&[Op::Push(5), Op::Push(1), Op::SStore, Op::Revert(3)]);
        let program = asm.finish();
        let mut state = ContractState::new();
        state.store(5, 77, &StateLimits::unbounded());
        let err = Interpreter::new(VmFlavor::Geth)
            .execute(&program, "main", &TxContext::simple(1, vec![]), &mut state)
            .unwrap_err();
        assert_eq!(err, ExecError::Reverted(3));
        assert_eq!(state.load(5), 77, "revert must restore the old value");
    }

    use crate::state::StateLimits;

    #[test]
    fn avm_budget_trips_on_long_loops() {
        // A 1000-iteration loop exceeds the 700-op AVM budget but runs
        // fine on geth.
        let build = |a: &mut Asm| {
            a.op(Op::Push(1000)).op(Op::Store(0));
            let top = a.here();
            let done = a.new_label();
            a.op(Op::Load(0));
            a.jump_if_zero(done);
            a.op(Op::Load(0))
                .op(Op::Push(1))
                .op(Op::Sub)
                .op(Op::Store(0));
            a.jump(top);
            a.bind(done);
            a.op(Op::Halt);
        };
        let err = run(VmFlavor::Avm, build).unwrap_err();
        assert!(err.is_hard_budget(), "got {err}");
        assert!(run(VmFlavor::Geth, build).is_ok());
    }

    #[test]
    fn gas_limit_trips_out_of_gas() {
        let mut asm = Asm::new();
        asm.entry("main");
        for _ in 0..100 {
            asm.op(Op::Push(1)).op(Op::Pop);
        }
        asm.op(Op::Halt);
        let program = asm.finish();
        let mut state = ContractState::new();
        let ctx = TxContext {
            caller: 1,
            args: vec![],
            payload_bytes: 0,
            gas_limit: 50,
        };
        let err = Interpreter::new(VmFlavor::Geth)
            .execute(&program, "main", &ctx, &mut state)
            .unwrap_err();
        assert!(matches!(err, ExecError::OutOfGas { .. }), "got {err}");
    }

    #[test]
    fn division_by_zero_faults() {
        let err = run(VmFlavor::Geth, |a| {
            a.ops(&[Op::Push(1), Op::Push(0), Op::Div, Op::Halt]);
        })
        .unwrap_err();
        assert!(matches!(err, ExecError::DivisionByZero { .. }));
    }

    #[test]
    fn stack_underflow_faults() {
        let err = run(VmFlavor::Geth, |a| {
            a.ops(&[Op::Add, Op::Halt]);
        })
        .unwrap_err();
        assert!(matches!(err, ExecError::StackUnderflow { .. }));
    }

    #[test]
    fn overflow_faults() {
        let err = run(VmFlavor::Geth, |a| {
            a.ops(&[Op::Push(Word::MAX), Op::Push(1), Op::Add, Op::Halt]);
        })
        .unwrap_err();
        assert!(matches!(err, ExecError::Overflow { .. }));
    }

    #[test]
    fn out_of_range_locals_fault_instead_of_wrapping() {
        // Register 40 is outside the 32-register file; historically this
        // wrapped to register 8 and silently hid the contract bug.
        let err = run(VmFlavor::Geth, |a| {
            a.ops(&[Op::Load(40), Op::Halt]);
        })
        .unwrap_err();
        assert_eq!(err, ExecError::InvalidLocal { pc: 0, index: 40 });
        let err = run(VmFlavor::Geth, |a| {
            a.ops(&[Op::Push(1), Op::Store(255), Op::Halt]);
        })
        .unwrap_err();
        assert_eq!(err, ExecError::InvalidLocal { pc: 1, index: 255 });
        // The highest valid register still works.
        let r = run(VmFlavor::Geth, |a| {
            a.ops(&[
                Op::Push(9),
                Op::Store(MAX_LOCALS as u8 - 1),
                Op::Load(MAX_LOCALS as u8 - 1),
                Op::Halt,
            ]);
        })
        .unwrap();
        assert_eq!(r.ret, Some(9));
    }

    #[test]
    fn unknown_entry_is_reported() {
        let mut asm = Asm::new();
        asm.entry("main");
        asm.op(Op::Halt);
        let program = asm.finish();
        let mut state = ContractState::new();
        let err = Interpreter::new(VmFlavor::Geth)
            .execute(&program, "nope", &TxContext::simple(1, vec![]), &mut state)
            .unwrap_err();
        assert!(matches!(err, ExecError::UnknownEntry { .. }));
    }

    #[test]
    fn blob_respects_avm_state_limit() {
        let mut asm = Asm::new();
        asm.entry("main");
        asm.ops(&[Op::Push(1024), Op::StoreBlob, Op::Halt]);
        let program = asm.finish();
        let mut state = ContractState::new();
        let err = Interpreter::new(VmFlavor::Avm)
            .execute(&program, "main", &TxContext::simple(1, vec![]), &mut state)
            .unwrap_err();
        // 1024 ops of blob cost also exceed the 700 budget, but the
        // budget check fires first — either way it is a hard failure.
        assert!(
            matches!(
                err,
                ExecError::StateLimitExceeded | ExecError::BudgetExceeded { .. }
            ),
            "got {err}"
        );
        assert_eq!(state.blob_bytes(), 0);
    }

    #[test]
    fn blob_succeeds_on_geth() {
        let mut asm = Asm::new();
        asm.entry("main");
        asm.ops(&[Op::Push(1024), Op::StoreBlob, Op::Halt]);
        let program = asm.finish();
        let mut state = ContractState::new();
        let r = Interpreter::new(VmFlavor::Geth)
            .execute(&program, "main", &TxContext::simple(1, vec![]), &mut state)
            .unwrap();
        assert_eq!(state.blob_bytes(), 1024);
        assert!(r.gas_used >= GasScheduleBlob::blob(1024));
    }

    /// Helper for the expected blob cost in the test above.
    struct GasScheduleBlob;
    impl GasScheduleBlob {
        fn blob(len: u64) -> u64 {
            crate::gas::GasSchedule::GETH.blob_cost(len)
        }
    }

    #[test]
    fn dry_run_does_not_mutate() {
        let mut asm = Asm::new();
        asm.entry("main");
        asm.ops(&[Op::Push(1), Op::Push(99), Op::SStore, Op::Halt]);
        let program = asm.finish();
        let state = ContractState::new();
        let r = Interpreter::new(VmFlavor::Geth)
            .dry_run(&program, "main", &TxContext::simple(1, vec![]), &state)
            .unwrap();
        assert!(r.gas_used > 0);
        assert_eq!(state.load(1), 0);
    }
}
