//! The two instruction streams a prepared block is lowered to, and the
//! stack bounds that choose between them. In the fused stream five runs
//! dispatch as one instruction each: `Push k; SLoad`, `Load l;
//! Add|Sub|Lt|Gt|Eq`, `Store l; Load l`, `[Load l;] Push c; Lt|Gt|Eq;
//! JumpIf(Not)Zero` and `Push k; Load l; SStore` (a Gaming `update`: 365
//! dispatches to 160). A run never crosses a block, so pre-charging a
//! block charges what its plain stream charges one op at a time.

use crate::op::Op;
use crate::Word;

/// One lowered instruction: jump targets are block indices, and checked
/// arithmetic carries the pc of the [`Op`] that faults. Flat on purpose:
/// nesting the unfused ops in one variant costs two indirect jumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Ins {
    Push(Word),
    Pop,
    Dup(u8),
    Swap(u8),
    Add(u32),
    Sub(u32),
    Mul(u32),
    Div(u32),
    Mod(u32),
    Neg(u32),
    Lt,
    Gt,
    Eq,
    IsZero,
    And,
    Or,
    Shl(u8),
    Shr(u8),
    Jump(u32),
    JumpIfZero(u32),
    JumpIfNotZero(u32),
    Load(u8),
    Store(u8),
    SLoad,
    SStore,
    Arg(u8),
    Caller,
    /// `(tag, arity)`.
    Emit(u16, u8),
    StoreBlob,
    Halt,
    Revert(u16),
    Nop,
    /// `Push k; SLoad`.
    SLoadConst(Word),
    /// `Load l; Add` and `Load l; Sub`, with the pc of the `Add`/`Sub`.
    LoadAdd(u8, u32),
    LoadSub(u8, u32),
    /// `Load l; Lt|Gt|Eq`.
    LoadLt(u8),
    LoadGt(u8),
    LoadEq(u8),
    /// `Store l; Load l`: the top of the stack stays, copied into `l`.
    StoreLoad(u8),
    /// `Push c; Lt|Gt|Eq; JumpIf(Not)Zero to` as `(c, to, when)`: pops `a`
    /// and jumps iff `(a < c) == when`, `when` true for `JumpIfNotZero`.
    BranchLt(Word, u32, bool),
    BranchGt(Word, u32, bool),
    BranchEq(Word, u32, bool),
    /// `Load l; Push c; Lt|Gt|Eq; JumpIf(Not)Zero to` as `(l, c, to,
    /// when)`: the `Branch*` above with `a` read from local `l`.
    LocalBranchLt(u8, Word, u32, bool),
    LocalBranchGt(u8, Word, u32, bool),
    LocalBranchEq(u8, Word, u32, bool),
    /// `Push k; Load l; SStore`.
    SStoreConst(Word, u8),
}

/// `op` at `pc`, jump operands mapped to blocks by `block_of_pc`.
pub(super) fn plain(op: Op, pc: usize, block_of_pc: &[u32]) -> Ins {
    let pc = pc as u32;
    match op {
        Op::Push(v) => Ins::Push(v),
        Op::Pop => Ins::Pop,
        Op::Dup(n) => Ins::Dup(n),
        Op::Swap(n) => Ins::Swap(n),
        Op::Add => Ins::Add(pc),
        Op::Sub => Ins::Sub(pc),
        Op::Mul => Ins::Mul(pc),
        Op::Div => Ins::Div(pc),
        Op::Mod => Ins::Mod(pc),
        Op::Neg => Ins::Neg(pc),
        Op::Lt => Ins::Lt,
        Op::Gt => Ins::Gt,
        Op::Eq => Ins::Eq,
        Op::IsZero => Ins::IsZero,
        Op::And => Ins::And,
        Op::Or => Ins::Or,
        Op::Shl(n) => Ins::Shl(n),
        Op::Shr(n) => Ins::Shr(n),
        Op::Jump(t) => Ins::Jump(block_of_pc[t]),
        Op::JumpIfZero(t) => Ins::JumpIfZero(block_of_pc[t]),
        Op::JumpIfNotZero(t) => Ins::JumpIfNotZero(block_of_pc[t]),
        Op::Load(i) => Ins::Load(i),
        Op::Store(i) => Ins::Store(i),
        Op::SLoad => Ins::SLoad,
        Op::SStore => Ins::SStore,
        Op::Arg(i) => Ins::Arg(i),
        Op::Caller => Ins::Caller,
        Op::Emit { tag, arity } => Ins::Emit(tag, arity),
        Op::StoreBlob => Ins::StoreBlob,
        Op::Halt => Ins::Halt,
        Op::Revert(code) => Ins::Revert(code),
        Op::Nop => Ins::Nop,
    }
}

/// Appends the fused stream of one block's plain instructions to `out`.
pub(super) fn fuse(block: &[Ins], out: &mut Vec<Ins>) {
    let mut rest = block;
    while let Some(&first) = rest.first() {
        let (ins, used) = run_at(rest).unwrap_or((first, 1));
        out.push(ins);
        rest = &rest[used..];
    }
}

/// The fused instruction `rest` starts with and how many plain
/// instructions it stands for, trying the longest run first.
fn run_at(rest: &[Ins]) -> Option<(Ins, usize)> {
    if let [Ins::Load(l), Ins::Push(c), cmp, jump, ..] = *rest {
        if let Some(ins) = branch(Some(l), c, cmp, jump) {
            return Some((ins, 4));
        }
    }
    if let [Ins::Push(c), cmp, jump, ..] = *rest {
        if let Some(ins) = branch(None, c, cmp, jump) {
            return Some((ins, 3));
        }
    }
    Some(match *rest {
        [Ins::Push(k), Ins::Load(l), Ins::SStore, ..] => (Ins::SStoreConst(k, l), 3),
        [Ins::Push(k), Ins::SLoad, ..] => (Ins::SLoadConst(k), 2),
        [Ins::Load(l), Ins::Add(pc), ..] => (Ins::LoadAdd(l, pc), 2),
        [Ins::Load(l), Ins::Sub(pc), ..] => (Ins::LoadSub(l, pc), 2),
        [Ins::Load(l), Ins::Lt, ..] => (Ins::LoadLt(l), 2),
        [Ins::Load(l), Ins::Gt, ..] => (Ins::LoadGt(l), 2),
        [Ins::Load(l), Ins::Eq, ..] => (Ins::LoadEq(l), 2),
        [Ins::Store(l), Ins::Load(m), ..] if l == m => (Ins::StoreLoad(l), 2),
        _ => return None,
    })
}

/// `[Load l;] Push c; cmp; jump` as one branch, if `cmp` is a compare
/// that fuses and `jump` a conditional jump.
fn branch(local: Option<u8>, c: Word, cmp: Ins, jump: Ins) -> Option<Ins> {
    let (to, when) = match jump {
        Ins::JumpIfZero(to) => (to, false),
        Ins::JumpIfNotZero(to) => (to, true),
        _ => return None,
    };
    Some(match (local, cmp) {
        (None, Ins::Lt) => Ins::BranchLt(c, to, when),
        (None, Ins::Gt) => Ins::BranchGt(c, to, when),
        (None, Ins::Eq) => Ins::BranchEq(c, to, when),
        (Some(l), Ins::Lt) => Ins::LocalBranchLt(l, c, to, when),
        (Some(l), Ins::Gt) => Ins::LocalBranchGt(l, c, to, when),
        (Some(l), Ins::Eq) => Ins::LocalBranchEq(l, c, to, when),
        _ => return None,
    })
}

/// A block's stack bounds: `need`, the lowest entry height at which no
/// op underflows, and `grow`, the most the block can raise the height
/// above its entry. A block entered at `sp` with `sp >= need` and
/// `sp + grow <= MAX_STACK` can neither underflow nor overflow.
pub(super) fn stack_bounds(ops: &[Op]) -> (usize, usize) {
    let (mut height, mut need, mut grow) = (0isize, 0isize, 0isize);
    for &op in ops {
        // The height the op must find (what it pops or reads), and its
        // change to the height. `Halt` returns the top if there is one.
        let (reads, delta) = match op {
            Op::Push(_) | Op::Load(_) | Op::Arg(_) | Op::Caller => (0, 1),
            Op::Dup(n) => (n as isize + 1, 1),
            Op::Swap(n) => (n as isize + 2, 0),
            Op::Pop | Op::Store(_) | Op::StoreBlob => (1, -1),
            Op::JumpIfZero(_) | Op::JumpIfNotZero(_) => (1, -1),
            Op::Add | Op::Sub | Op::Mul | Op::Div | Op::Mod => (2, -1),
            Op::Lt | Op::Gt | Op::Eq | Op::And | Op::Or => (2, -1),
            Op::Neg | Op::IsZero | Op::Shl(_) | Op::Shr(_) | Op::SLoad => (1, 0),
            Op::SStore => (2, -2),
            Op::Emit { arity, .. } => (arity as isize, -(arity as isize)),
            Op::Jump(_) | Op::Halt | Op::Revert(_) | Op::Nop => (0, 0),
        };
        need = need.max(reads - height);
        height += delta;
        grow = grow.max(height);
    }
    (need as usize, grow as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fused(ops: &[Op]) -> Vec<Ins> {
        let blocks = [0, 1, 2, 3];
        let plain: Vec<Ins> = ops
            .iter()
            .enumerate()
            .map(|(pc, &op)| plain(op, pc, &blocks))
            .collect();
        let mut out = Vec::new();
        fuse(&plain, &mut out);
        out
    }

    #[test]
    fn the_five_runs_fuse_and_nothing_else_does() {
        use Op::*;
        assert_eq!(fused(&[Push(4), SLoad]), [Ins::SLoadConst(4)]);
        assert_eq!(fused(&[Nop, Load(2), Add]), [Ins::Nop, Ins::LoadAdd(2, 2)]);
        assert_eq!(
            fused(&[Load(1), Sub, Load(1), Eq]),
            [Ins::LoadSub(1, 1), Ins::LoadEq(1)]
        );
        assert_eq!(fused(&[Store(3), Load(3)]), [Ins::StoreLoad(3)]);
        assert_eq!(fused(&[Store(3), Load(2)]), [Ins::Store(3), Ins::Load(2)]);
        assert_eq!(
            fused(&[Load(2), Push(0), Lt, JumpIfZero(3)]),
            [Ins::LocalBranchLt(2, 0, 3, false)]
        );
        assert_eq!(
            fused(&[Push(9), Gt, JumpIfNotZero(1)]),
            [Ins::BranchGt(9, 1, true)]
        );
        // A compare that does not feed a jump, and a compare that does
        // not fuse, stay as they are.
        assert_eq!(
            fused(&[Push(9), Lt, Halt]),
            [Ins::Push(9), Ins::Lt, Ins::Halt]
        );
        assert_eq!(
            fused(&[Push(9), And, JumpIfZero(0)]),
            [Ins::Push(9), Ins::And, Ins::JumpIfZero(0)]
        );
        assert_eq!(fused(&[Push(7), Load(0), SStore]), [Ins::SStoreConst(7, 0)]);
    }

    #[test]
    fn stack_bounds_count_reads_below_the_entry_and_the_peak_above_it() {
        use Op::*;
        assert_eq!(stack_bounds(&[]), (0, 0));
        assert_eq!(stack_bounds(&[Push(1), Push(2), Add, Halt]), (0, 2));
        assert_eq!(stack_bounds(&[Add, Add]), (3, 0));
        assert_eq!(stack_bounds(&[Push(1), Dup(3)]), (3, 2));
        assert_eq!(stack_bounds(&[Swap(0), Pop, Pop, Push(1)]), (2, 0));
        assert_eq!(stack_bounds(&[Emit { tag: 1, arity: 3 }, Push(1)]), (3, 0));
    }
}
