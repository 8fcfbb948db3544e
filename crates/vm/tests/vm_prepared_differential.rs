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
//! Runs on the in-tree `diablo-testkit` harness: failures shrink and
//! print a `DIABLO_PROP_SEED=<seed>` line that replays the exact case;
//! `DIABLO_PROP_CASES` scales the case count.

use diablo_testkit::gen::{choice, i64s, just, u16s, u64s, u8s, usizes, vecs, BoxedGen, Gen};
use diablo_testkit::{prop_assert_eq, Property};

use diablo_vm::{
    prepare, Asm, ContractState, Interpreter, Op, Program, Scratch, StateLimits, TxContext,
    VmFlavor, Word, MAX_LOCALS,
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

/// Type-level anchor: both paths return the very same `Word`-based
/// receipt type, so agreement above is agreement on everything.
#[allow(dead_code)]
fn _receipts_share_a_type(r: diablo_vm::Receipt) -> Option<Word> {
    r.ret
}
