//! Differential property test: [`Interpreter::execute_prepared`] is
//! observationally identical to [`Interpreter::execute`].
//!
//! Random valid programs (arithmetic, stack traffic, jumps, locals,
//! storage, events, blob stores) are run through both the baseline
//! interpreter and the prepared fast path on all four flavors and under
//! adversarial gas limits (tiny, mid-sized, unlimited — tiny limits
//! force the metered per-instruction fallback). The two paths must
//! agree on everything observable: the full `Receipt` on success, the
//! exact `ExecError` (with fields) on failure, and the post-state —
//! including rollback of journaled writes.
//!
//! A second property reuses one [`Scratch`] across a whole sequence of
//! such calls (`Interpreter::execute_prepared_in`, the path the block
//! executors take) and holds every call to the same standard, so
//! nothing a call leaves in the buffers — stack, journal, events — can
//! leak into the next.
//!
//! The uniform generator almost never emits the runs the fast path
//! fuses into one instruction, and never puts a stack at the bound a
//! block is checked against, so two directed properties do: programs
//! built mostly from the five fused runs around constants that overflow,
//! entered one below and exactly at the first block's stack need, and
//! push runs that end one short of, at and one past `MAX_STACK` across
//! block boundaries. Both also hold the prepared call's
//! `vm.prepared.precharge_fallbacks` count to what the call's outcome
//! implies: stack bounds send a block down the checked path without
//! counting as a meter fallback.
//!
//! Runs on the in-tree `diablo-testkit` harness: failures shrink and
//! print a `DIABLO_PROP_SEED=<seed>` line that replays the exact case;
//! `DIABLO_PROP_CASES` scales the case count.

use diablo_testkit::gen::{
    choice, from_slice, i64s, just, u16s, u64s, u8s, usizes, vecs, BoxedGen, Gen,
};
use diablo_testkit::{prop_assert_eq, Property};

use diablo_vm::{
    prepare, Asm, ContractState, ExecError, Interpreter, Op, Program, Receipt, Scratch,
    StateLimits, TxContext, VmFlavor, Word, MAX_LOCALS, MAX_STACK,
};

/// Generator: one instruction with jump targets confined to `len`,
/// covering the whole instruction set (including events and blob
/// stores, which the basic interpreter property tests leave out).
fn arb_op(len: usize) -> BoxedGen<Op> {
    let target = usizes(0..=len.max(1) - 1);
    choice(vec![
        i64s(-1_000_000..=999_999).map(Op::Push).boxed(),
        just(Op::Pop).boxed(),
        u8s(0..=3).map(Op::Dup).boxed(),
        u8s(0..=3).map(Op::Swap).boxed(),
        just(Op::Add).boxed(),
        just(Op::Sub).boxed(),
        just(Op::Mul).boxed(),
        just(Op::Div).boxed(),
        just(Op::Mod).boxed(),
        just(Op::Neg).boxed(),
        just(Op::Lt).boxed(),
        just(Op::Gt).boxed(),
        just(Op::Eq).boxed(),
        just(Op::IsZero).boxed(),
        just(Op::And).boxed(),
        just(Op::Or).boxed(),
        u8s(0..=31).map(Op::Shl).boxed(),
        u8s(0..=31).map(Op::Shr).boxed(),
        target.clone().map(Op::Jump).boxed(),
        target.clone().map(Op::JumpIfZero).boxed(),
        target.map(Op::JumpIfNotZero).boxed(),
        u8s(0..=MAX_LOCALS as u8 - 1).map(Op::Load).boxed(),
        u8s(0..=MAX_LOCALS as u8 - 1).map(Op::Store).boxed(),
        just(Op::SLoad).boxed(),
        just(Op::SStore).boxed(),
        u8s(0..=3).map(Op::Arg).boxed(),
        just(Op::Caller).boxed(),
        (u16s(0..=9), u8s(0..=3))
            .map(|(tag, arity)| Op::Emit { tag, arity })
            .boxed(),
        just(Op::StoreBlob).boxed(),
        just(Op::Nop).boxed(),
        just(Op::Halt).boxed(),
        u16s(0..=7).map(Op::Revert).boxed(),
    ])
    .boxed()
}

/// Builds a two-entry program from raw ops, padding with `Halt` so
/// every generated jump is in range and every path terminates. The
/// second entry lands at `alt_pc`, exercising the prepared program's
/// entry interning away from pc 0.
fn program_from(ops: &[Op], alt_pc: usize) -> Program {
    let mut asm = Asm::new();
    asm.entry("main");
    for (pc, op) in ops.iter().enumerate() {
        if pc == alt_pc {
            asm.entry("alt");
        }
        asm.op(*op);
    }
    for pc in ops.len()..=64 {
        if pc == alt_pc {
            asm.entry("alt");
        }
        asm.op(Op::Halt);
    }
    asm.finish()
}

/// One pre-seeded state so storage reads/writes and rollback are
/// exercised against non-trivial contents.
fn seeded_state() -> ContractState {
    let mut state = ContractState::new();
    for k in 0..8 {
        state.store(k, 1000 + k, &StateLimits::unbounded());
    }
    state
}

fn assert_states_agree(s1: &ContractState, s2: &ContractState) -> Result<(), String> {
    for k in -4i64..24 {
        prop_assert_eq!(s1.load(k), s2.load(k), "storage key {} diverged", k);
    }
    prop_assert_eq!(s1.blob_bytes(), s2.blob_bytes());
    prop_assert_eq!(s1.blob_count(), s2.blob_count());
    prop_assert_eq!(s1.entry_count(), s2.entry_count());
    Ok(())
}

/// The core differential property, over all four flavors and a spread
/// of gas limits.
#[test]
fn prepared_execution_is_observationally_identical() {
    let gas_limit = choice(vec![
        // Tiny: trips OutOfGas mid-program, forcing the metered
        // fallback from the very first block.
        u64s(0..=300).boxed(),
        // Mid: the fast path runs until the limit approaches.
        u64s(1_000..=60_000).boxed(),
        // Effectively unlimited (hard budgets still apply per flavor).
        just(u64::MAX).boxed(),
    ]);
    Property::new("prepared_execution_is_observationally_identical")
        .cases(512)
        .check(
            &(
                (vecs(arb_op(64), 0..=63), vecs(i64s(-1000..=999), 0..=3)),
                (usizes(0..=3), usizes(0..=64)),
                gas_limit,
            ),
            |((ops, args), (flavor_idx, alt_pc), gas_limit)| {
                let program = program_from(ops, *alt_pc);
                let flavor = VmFlavor::ALL[*flavor_idx];
                let Ok(prepared) = prepare(&program, flavor) else {
                    // The generator can in principle produce programs
                    // static validation rejects; those never deploy, so
                    // there is nothing to compare.
                    return Ok(());
                };
                let vm = Interpreter::new(flavor);
                let ctx = TxContext {
                    caller: 7,
                    args: args.clone(),
                    payload_bytes: 0,
                    gas_limit: *gas_limit,
                };
                for entry in ["main", "alt"] {
                    let id = prepared
                        .entry_id(entry)
                        .ok_or_else(|| format!("entry {entry} not interned"))?;
                    let mut s1 = seeded_state();
                    let mut s2 = seeded_state();
                    let r1 = vm.execute(&program, entry, &ctx, &mut s1);
                    let r2 = vm.execute_prepared(&prepared, id, &ctx, &mut s2);
                    prop_assert_eq!(
                        r1,
                        r2,
                        "entry {} on {} with limit {} diverged",
                        entry,
                        flavor,
                        gas_limit
                    );
                    assert_states_agree(&s1, &s2)?;
                }
                Ok(())
            },
        );
}

/// A hand-built program for one fault or event shape the random
/// generator reaches too rarely. Every one writes state and emits
/// before it ends, so a fault has a journal to roll back and events to
/// leave behind in the scratch. `n` parameterizes the shape.
fn directed_program(kind: usize, n: Word) -> Program {
    let mut asm = Asm::new();
    asm.entry("main");
    // Common prefix: one journaled overwrite of a seeded key, one event.
    asm.ops(&[Op::Push(0), Op::Push(n), Op::SStore]);
    asm.ops(&[Op::Push(n), Op::Emit { tag: 1, arity: 1 }]);
    match kind {
        // 0..=47 events of arity 0..=3, then success.
        0 => {
            for i in 0..n.rem_euclid(48) {
                let arity = (i % 4) as u8;
                for j in 0..arity {
                    asm.op(Op::Push(i * 10 + Word::from(j)));
                }
                asm.op(Op::Emit { tag: i as u16, arity });
            }
            asm.op(Op::Push(n)).op(Op::Halt);
        }
        // A blob and a fresh key, then an explicit revert.
        1 => {
            asm.ops(&[Op::Push(16), Op::StoreBlob]);
            asm.ops(&[Op::Push(500 + n), Op::Push(1), Op::SStore, Op::Revert(3)]);
        }
        // Stack underflow.
        2 => {
            asm.op(Op::Add).op(Op::Halt);
        }
        // A push loop: stack overflow on geth, the hard budget elsewhere.
        3 => {
            let top = asm.here();
            asm.op(Op::Push(1));
            asm.jump(top);
        }
        // Six fresh keys with an event between them: with the state
        // seeded close to the AVM's 64 entries, the limit trips midway.
        _ => {
            for j in 0..6 {
                asm.ops(&[Op::Push(10_000 + n * 8 + j), Op::Push(j), Op::SStore]);
                asm.ops(&[Op::Push(j), Op::Emit { tag: 2, arity: 1 }]);
            }
            asm.op(Op::Halt);
        }
    }
    asm.finish()
}

/// One `Scratch` reused across a sequence of calls — random programs
/// and the directed shapes above, under tiny, mid and unlimited gas —
/// against two states that start equal and evolve side by side: one
/// through the metered interpreter, one through
/// `execute_prepared_in`. Call by call the receipts (gas, ops, return
/// value, events), the errors with their fields, the states and the
/// write logs must agree.
#[test]
fn one_scratch_reused_across_calls_leaks_nothing() {
    let gas_limit = choice(vec![
        u64s(0..=300).boxed(),
        u64s(1_000..=60_000).boxed(),
        just(u64::MAX).boxed(),
    ]);
    let call = (
        (usizes(0..=7), i64s(0..=999)),
        (vecs(arb_op(64), 0..=63), vecs(i64s(-1000..=999), 0..=3)),
        gas_limit,
    );
    // Kills case 1: `execute_prepared_in` without `scratch.journal.clear()`.
    // Kills case 2: `execute_prepared_in` without `scratch.event_heads.clear()`.
    Property::new("one_scratch_reused_across_calls_leaks_nothing")
        .cases(256)
        .check(
            &(usizes(0..=3), vecs(call, 2..=10)),
            |(flavor_idx, calls)| {
                let flavor = VmFlavor::ALL[*flavor_idx];
                let vm = Interpreter::new(flavor);
                // 56 entries: eight short of the AVM's limit.
                let mut s1 = ContractState::new();
                for k in 0..56 {
                    s1.store(k, 1000 + k, &StateLimits::unbounded());
                }
                s1.track_writes();
                s1.drain_writes();
                let mut s2 = s1.clone();
                let mut scratch = Scratch::default();
                for (i, ((kind, n), (ops, args), gas_limit)) in calls.iter().enumerate() {
                    // Kinds 5..=7 are random programs, 0..=4 directed.
                    let program = match kind {
                        0..=4 => directed_program(*kind, *n),
                        _ => program_from(ops, 65),
                    };
                    let Ok(prepared) = prepare(&program, flavor) else {
                        continue;
                    };
                    let id = prepared.entry_id("main").expect("main interned");
                    let ctx = TxContext {
                        caller: 7,
                        args: args.clone(),
                        payload_bytes: 0,
                        gas_limit: *gas_limit,
                    };
                    let r1 = vm.execute(&program, "main", &ctx, &mut s1);
                    let r2 = vm
                        .execute_prepared_in(&mut scratch, &prepared, id, &ctx, &mut s2)
                        .map(|call| call.to_receipt());
                    prop_assert_eq!(r1, r2, "call {} (kind {}) on {}", i, kind, flavor);
                    prop_assert_eq!(&s1, &s2, "state after call {} on {}", i, flavor);
                    prop_assert_eq!(
                        s1.drain_writes(),
                        s2.drain_writes(),
                        "write log of call {} on {}",
                        i,
                        flavor
                    );
                }
                Ok(())
            },
        );
}

/// Long-running loops exercise many block transitions and (on the
/// budgeted flavors) guarantee the metered fallback kicks in at the
/// end of an exhausted run — with byte-identical faults.
#[test]
fn prepared_loops_agree_under_every_budget() {
    Property::new("prepared_loops_agree_under_every_budget")
        .cases(64)
        .check(
            &(i64s(1..=3_000), usizes(0..=3)),
            |(iterations, flavor_idx)| {
                let flavor = VmFlavor::ALL[*flavor_idx];
                let mut asm = Asm::new();
                asm.entry("main");
                asm.op(Op::Push(*iterations)).op(Op::Store(0));
                let top = asm.here();
                let done = asm.new_label();
                asm.op(Op::Load(0));
                asm.jump_if_zero(done);
                asm.op(Op::Load(0)).op(Op::Push(1)).op(Op::Sub).op(Op::Store(0));
                asm.jump(top);
                asm.bind(done);
                asm.op(Op::Push(0)).op(Op::SLoad).op(Op::Halt);
                let program = asm.finish();
                let prepared = prepare(&program, flavor).expect("loop program is valid");
                let id = prepared.entry_id("main").expect("main interned");
                let vm = Interpreter::new(flavor);
                let ctx = TxContext::simple(1, vec![]);
                let mut s1 = ContractState::new();
                let mut s2 = ContractState::new();
                let r1 = vm.execute(&program, "main", &ctx, &mut s1);
                let r2 = vm.execute_prepared(&prepared, id, &ctx, &mut s2);
                prop_assert_eq!(r1, r2, "{} iterations on {}", iterations, flavor);
                Ok(())
            },
        );
}

/// Blob stores carry dynamic per-byte gas and per-flavor state limits
/// (the AVM's 128-byte cap): the prepared path must agree on both the
/// metering and the `StateLimitExceeded` faults.
#[test]
fn prepared_blob_stores_agree() {
    Property::new("prepared_blob_stores_agree").cases(128).check(
        &(
            i64s(-16..=4_096),
            usizes(0..=3),
            choice(vec![u64s(0..=30_000).boxed(), just(u64::MAX).boxed()]),
        ),
        |(blob_len, flavor_idx, gas_limit)| {
            let flavor = VmFlavor::ALL[*flavor_idx];
            let mut asm = Asm::new();
            asm.entry("main");
            asm.ops(&[
                Op::Push(*blob_len),
                Op::StoreBlob,
                Op::Push(1),
                Op::Push(2),
                Op::SStore,
                Op::Halt,
            ]);
            let program = asm.finish();
            let prepared = prepare(&program, flavor).expect("blob program is valid");
            let id = prepared.entry_id("main").expect("main interned");
            let vm = Interpreter::new(flavor);
            let ctx = TxContext {
                caller: 1,
                args: vec![],
                payload_bytes: 0,
                gas_limit: *gas_limit,
            };
            let mut s1 = ContractState::new();
            let mut s2 = ContractState::new();
            let r1 = vm.execute(&program, "main", &ctx, &mut s1);
            let r2 = vm.execute_prepared(&prepared, id, &ctx, &mut s2);
            prop_assert_eq!(r1, r2, "blob {} on {} limit {}", blob_len, flavor, gas_limit);
            assert_states_agree(&s1, &s2)
        },
    );
}

/// The gas limits every property draws from.
fn arb_gas_limit() -> BoxedGen<u64> {
    choice(vec![
        // Tiny: trips OutOfGas mid-program, forcing the metered
        // fallback from the very first block.
        u64s(0..=300).boxed(),
        // Mid: the fast path runs until the limit approaches.
        u64s(1_000..=60_000).boxed(),
        // Effectively unlimited (hard budgets still apply per flavor).
        just(u64::MAX).boxed(),
    ])
    .boxed()
}

/// Constants for the directed programs: small ones, and ones a few
/// steps from either end of the word, so that a fused `Add` or `Sub`
/// overflows.
fn arb_word() -> BoxedGen<Word> {
    choice(vec![
        i64s(-8..=8).boxed(),
        i64s(Word::MAX - 8..=Word::MAX).boxed(),
        i64s(Word::MIN..=Word::MIN + 8).boxed(),
    ])
    .boxed()
}

/// One piece of a directed program: mostly a run the fast path fuses,
/// else a local set to a constant, a stack reader, a push, or one op of
/// the uniform generator. Locals are 0..=3 so that stores and loads
/// meet. A jump operand is a forward distance, which [`edge_program`]
/// resolves.
fn arb_piece() -> BoxedGen<Vec<Op>> {
    let local = || u8s(0..=3);
    let load_op = || from_slice(&[Op::Add, Op::Sub, Op::Lt, Op::Gt, Op::Eq]);
    let compare = || from_slice(&[Op::Lt, Op::Gt, Op::Eq]);
    let jump = || {
        (usizes(0..=12), u8s(0..=1)).map(|(distance, not_zero)| match not_zero {
            0 => Op::JumpIfZero(distance),
            _ => Op::JumpIfNotZero(distance),
        })
    };
    choice(vec![
        i64s(-2..=11)
            .map(|key| vec![Op::Push(key), Op::SLoad])
            .boxed(),
        (local(), load_op())
            .map(|(l, op)| vec![Op::Load(l), op])
            .boxed(),
        // Both operands set right before: `Add` and `Sub` overflow two
        // times in nine.
        ((arb_word(), arb_word()), local(), load_op())
            .map(|((a, b), l, op)| vec![Op::Push(b), Op::Store(l), Op::Push(a), Op::Load(l), op])
            .boxed(),
        local().map(|l| vec![Op::Store(l), Op::Load(l)]).boxed(),
        (local(), arb_word(), compare(), jump())
            .map(|(l, c, cmp, jump)| vec![Op::Load(l), Op::Push(c), cmp, jump])
            .boxed(),
        (arb_word(), compare(), jump())
            .map(|(c, cmp, jump)| vec![Op::Push(c), cmp, jump])
            .boxed(),
        (i64s(-2..=11), local())
            .map(|(key, l)| vec![Op::Push(key), Op::Load(l), Op::SStore])
            .boxed(),
        (arb_word(), local())
            .map(|(c, l)| vec![Op::Push(c), Op::Store(l)])
            .boxed(),
        (u8s(0..=3), u8s(0..=2))
            .map(|(n, kind)| match kind {
                0 => vec![Op::Dup(n)],
                1 => vec![Op::Swap(n)],
                _ => vec![Op::Emit { tag: 3, arity: n }],
            })
            .boxed(),
        arb_word().map(|c| vec![Op::Push(c)]).boxed(),
        arb_op(13).map(|op| vec![op]).boxed(),
        arb_op(13).map(|op| vec![op]).boxed(),
    ])
    .boxed()
}

/// The lowest stack height the first block of `ops` can be entered at
/// without an underflow: this file's own reading of each op's stack
/// effect, independent of the one `prepare` uses.
fn first_block_need(ops: &[Op]) -> usize {
    let (mut height, mut need) = (0i64, 0i64);
    for &op in ops {
        let (reads, delta) = match op {
            Op::Push(_) | Op::Load(_) | Op::Arg(_) | Op::Caller => (0, 1),
            Op::Dup(n) => (i64::from(n) + 1, 1),
            Op::Swap(n) => (i64::from(n) + 2, 0),
            Op::Pop | Op::Store(_) | Op::StoreBlob => (1, -1),
            Op::JumpIfZero(_) | Op::JumpIfNotZero(_) => (1, -1),
            Op::Neg | Op::IsZero | Op::Shl(_) | Op::Shr(_) | Op::SLoad => (1, 0),
            Op::SStore => (2, -2),
            Op::Emit { arity, .. } => (i64::from(arity), -i64::from(arity)),
            Op::Jump(_) | Op::Halt | Op::Revert(_) | Op::Nop => (0, 0),
            // Binary arithmetic, comparisons and bitwise ops.
            _ => (2, -1),
        };
        need = need.max(reads - height);
        height += delta;
        let ends_block = matches!(
            op,
            Op::Jump(_) | Op::JumpIfZero(_) | Op::JumpIfNotZero(_) | Op::StoreBlob
        ) || op.is_terminator();
        if ends_block {
            break;
        }
    }
    need as usize
}

/// `height` pushes and a jump to the next instruction, so that `body`
/// starts a block entered at `height`; then `body`, its jump operands
/// read as forward distances; then enough `Halt`s for every jump to
/// land on.
fn edge_program(height: usize, body: &[Op]) -> Program {
    let mut ops: Vec<Op> = (0..height).map(|i| Op::Push(i as Word - 1)).collect();
    ops.push(Op::Jump(height + 1));
    for &op in body {
        let next = ops.len() + 1;
        ops.push(match op {
            Op::Jump(d) => Op::Jump(next + d),
            Op::JumpIfZero(d) => Op::JumpIfZero(next + d),
            Op::JumpIfNotZero(d) => Op::JumpIfNotZero(next + d),
            other => other,
        });
    }
    ops.extend([Op::Halt; 13]);
    let mut asm = Asm::new();
    asm.entry("main");
    asm.ops(&ops);
    asm.finish()
}

/// The meter fallbacks the prepared call must count, where its outcome
/// tells: none for a call that succeeded (each block it ran was charged
/// in full within the allowance) or that no meter can stop (geth with
/// unlimited gas), one for a meter fault in a program without a blob
/// store (nothing else trips a meter on the fast path). Stack bounds
/// never count.
fn expected_fallbacks(
    program: &Program,
    flavor: VmFlavor,
    gas_limit: u64,
    outcome: &Result<Receipt, ExecError>,
) -> Option<u64> {
    let unmetered = flavor.per_tx_budget().is_none() && gas_limit == u64::MAX;
    let meter_fault = matches!(
        outcome,
        Err(ExecError::OutOfGas { .. } | ExecError::BudgetExceeded { .. })
    );
    match outcome {
        Ok(_) => Some(0),
        Err(_) if unmetered => Some(0),
        Err(_) if meter_fault && !program.ops().contains(&Op::StoreBlob) => Some(1),
        Err(_) => None,
    }
}

/// Runs `main` through the metered interpreter and through
/// `execute_prepared_in` against equal states that log their writes,
/// and holds the two to the same receipt or error (pc included), state
/// and write log, and the prepared call to its expected meter
/// fallbacks.
fn agree_on(program: &Program, flavor: VmFlavor, gas_limit: u64) -> Result<(), String> {
    let Ok(prepared) = prepare(program, flavor) else {
        return Ok(());
    };
    let id = prepared.entry_id("main").expect("main interned");
    let vm = Interpreter::new(flavor);
    let ctx = TxContext {
        caller: 7,
        args: vec![3, -4],
        payload_bytes: 0,
        gas_limit,
    };
    let mut s1 = seeded_state();
    s1.track_writes();
    s1.drain_writes();
    let mut s2 = s1.clone();
    let r1 = vm.execute(program, "main", &ctx, &mut s1);
    diablo_telemetry::thread_reset();
    let mut scratch = Scratch::default();
    let r2 = vm
        .execute_prepared_in(&mut scratch, &prepared, id, &ctx, &mut s2)
        .map(|call| call.to_receipt());
    scratch.publish();
    let fallbacks = diablo_telemetry::thread_snapshot().counter("vm.prepared.precharge_fallbacks");
    prop_assert_eq!(&r1, &r2, "{} with limit {}", flavor, gas_limit);
    prop_assert_eq!(&s1, &s2, "state on {} with limit {}", flavor, gas_limit);
    let (w1, w2) = (s1.drain_writes(), s2.drain_writes());
    prop_assert_eq!(w1, w2, "write log on {}", flavor);
    if diablo_telemetry::enabled() {
        if let Some(want) = expected_fallbacks(program, flavor, gas_limit, &r1) {
            prop_assert_eq!(
                fallbacks.unwrap_or(0),
                want,
                "meter fallbacks on {} with limit {}: {:?}",
                flavor,
                gas_limit,
                r1
            );
        }
    }
    Ok(())
}

/// Programs made mostly of the fused runs, their first block entered
/// one below and exactly at its stack need, on every flavor.
#[test]
fn fused_runs_agree_at_their_stack_and_overflow_edges() {
    // Kills case 1: a block's `grow` one short.
    // Kills case 45: a fused `Add` reporting its `Load`'s pc.
    // Kills case 54: `need` reading one slot for `Dup(n)`.
    Property::new("fused_runs_agree_at_their_stack_and_overflow_edges")
        .cases(512)
        .check(
            &(u8s(0..=1), vecs(arb_piece(), 1..=10), arb_gas_limit()),
            |(at_need, pieces, gas_limit)| {
                let body: Vec<Op> = pieces.concat();
                let need = first_block_need(&body);
                let height = need.saturating_sub(1) + usize::from(*at_need);
                let program = edge_program(height, &body);
                VmFlavor::ALL
                    .into_iter()
                    .try_for_each(|flavor| agree_on(&program, flavor, *gas_limit))
            },
        );
}

/// Pushes in blocks of 1 to 64, separated by jumps to the next block,
/// that take the stack to one below, exactly at or one past
/// `MAX_STACK`, on every flavor.
#[test]
fn push_runs_meet_max_stack_across_block_boundaries() {
    let pushers = [Op::Push(5), Op::Dup(0), Op::Caller, Op::Arg(1), Op::Load(2)];
    // Kills case 4: the stack buffer grown one word past `MAX_STACK`.
    Property::new("push_runs_meet_max_stack_across_block_boundaries")
        .cases(64)
        .check(
            &(
                usizes(MAX_STACK - 1..=MAX_STACK + 1),
                vecs((usizes(1..=64), usizes(0..=4)), 1..=6),
                arb_gas_limit(),
            ),
            |(pushes, runs, gas_limit)| {
                let (mut body, mut pushed) = (vec![Op::Push(1)], 1);
                for &(len, kind) in runs.iter().cycle() {
                    let len = len.min(pushes - pushed);
                    body.extend(std::iter::repeat_n(pushers[kind], len));
                    body.push(Op::Jump(0));
                    pushed += len;
                    if pushed == *pushes {
                        break;
                    }
                }
                let program = edge_program(0, &body);
                VmFlavor::ALL
                    .into_iter()
                    .try_for_each(|flavor| agree_on(&program, flavor, *gas_limit))
            },
        );
}

/// Type-level anchor: both paths return the very same `Word`-based
/// receipt type, so agreement above is agreement on everything.
#[allow(dead_code)]
fn _receipts_share_a_type(r: diablo_vm::Receipt) -> Option<Word> {
    r.ret
}
