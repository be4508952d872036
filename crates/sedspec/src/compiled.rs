//! Ahead-of-time compilation of an [`ExecutionSpecification`] into the
//! enforcement hot path's data layout.
//!
//! The interpreted walk ([`crate::checker::EsChecker::walk_round`])
//! resolves every transition through `BTreeMap<u32, Vec<EsEdge>>` plus a
//! per-step linear scan, looks commands up with a table scan, re-derives
//! the parameter check's expression scope on every statement, and clones
//! the entire shadow `ControlStructure` twice per round. [`CompiledSpec`]
//! lowers the specification once:
//!
//! * **direct-threaded dispatch**: every block carries a pre-resolved
//!   handler index ([`HKind`]) in a packed 20-byte [`HBlock`] record, so
//!   the walk is a tight loop over a dense array that never inspects the
//!   interpreted [`EsBlock`](crate::escfg::EsBlock)'s `Nbtd` enum (or
//!   touches its cache-hostile labels and boxed expressions) unless a
//!   block actually evaluates an expression or raises a violation;
//! * **one value lookup**: switch cases, command decisions and
//!   indirect-call values all resolve through a [`ValueIndex`], a
//!   sorted key list plus a dense value-indexed table when the keys are
//!   compact (one load instead of a binary search);
//! * **one lowering, checked where it runs**: every per-block array is
//!   indexed by the ES block id itself, so violations, trace events,
//!   forensic paths and command keys speak the specification's own
//!   numbering; the introspection methods the compile-preservation pass
//!   (SA401) diffs read the walk's own [`HBlock`] records and call the
//!   same [`ValueIndex::get`], so SA401 checks exactly the tables that
//!   are enforced;
//! * a **batched round engine** ([`CompiledSpec::walk_batch`]): clean
//!   completed rounds are committed by journal watermark and the journal
//!   is cleared once per batch, amortizing round setup and commit across
//!   a tenant's whole submission with a statically monomorphized no-sync
//!   walk (no `dyn SyncProvider` dispatch);
//! * the command access table as sorted `(decision, cmd)` keys with
//!   per-entry **bitmaps over a dense global block index**, so the
//!   per-block scope check is one bit test instead of a `BTreeSet`
//!   membership probe;
//! * per-operation precomputed parameter-check flags (overflow
//!   relevance, range-expression checkability), hoisting the allocating
//!   `Expr::vars()` / `Expr::locals()` walks out of the hot loop;
//! * a reusable [`WalkState`] whose shadow is mutated **in place** under
//!   a [`CsJournal`] undo journal — committing a round is a journal
//!   clear (a watermark bump inside a batch), aborting replays the
//!   journal backwards to the last watermark; no per-round clone.
//!
//! Verdicts are identical to the interpreted walk by construction (the
//! differential suite in `tests/compiled_equivalence.rs` asserts it);
//! block labels are materialized into [`Violation`]s only when one is
//! actually raised.

use std::sync::Arc;

use sedspec_dbl::interp::EvalError;
use sedspec_dbl::ir::{BinOp, BufId, Expr, Stmt, UnOp, VarId, Width};
use sedspec_dbl::state::{CsJournal, CsState};
use sedspec_dbl::value::{apply_binop, apply_unop, OverflowFlags, OverflowKind, TypedValue};
use sedspec_obs::{ObsSink, SyncKind, TraceEventKind};
use sedspec_vmm::IoRequest;

use crate::checker::{
    checkable_range_expr, BatchOutcome, CheckConfig, CmdCtx, NoSync, RoundReport, SyncProvider,
    Violation,
};
use crate::escfg::{gid, ungid, DsodOp, EdgeKey, EsCfg, Nbtd};
use crate::params::DeviceStateParams;
use crate::spec::ExecutionSpecification;

/// Sentinel for "no block" in dense transition tables.
const NO_BLOCK: u32 = u32::MAX;

/// Safety bound on walked blocks per round (mirrors the interpreter's).
const WALK_LIMIT: u64 = 1 << 20;

/// Hot-path command-scope word: "no active scope". The walk carries the
/// scope as a bare `u32` (a `cmd_keys` index, or one of these two
/// sentinels) so per-round scope bookkeeping is register traffic instead
/// of 48-byte [`CmdScope`] moves.
const NO_SCOPE: u32 = u32::MAX;

/// Hot-path command-scope word: the rare custom scope (a restored
/// snapshot whose command set matches no known entry); the [`CmdCtx`]
/// itself rides in a side slot.
const CUSTOM_SCOPE: u32 = u32::MAX - 1;

/// Lowers a [`CmdScope`] to its walk word, cloning the rare custom
/// context into the side slot.
fn scope_to_word(scope: &CmdScope) -> (u32, Option<CmdCtx>) {
    match scope {
        CmdScope::None => (NO_SCOPE, None),
        CmdScope::Entry(i) => (*i, None),
        CmdScope::Custom(c) => (CUSTOM_SCOPE, Some(c.clone())),
    }
}

/// Rehydrates a walk word (plus side slot) into a [`CmdScope`].
fn word_scope(w: u32, custom: &Option<CmdCtx>) -> CmdScope {
    match w {
        NO_SCOPE => CmdScope::None,
        CUSTOM_SCOPE => custom.clone().map_or(CmdScope::None, CmdScope::Custom),
        i => CmdScope::Entry(i),
    }
}

/// Pre-resolved handler index of one block: the direct-threaded
/// dispatch code the walk loop jumps through. Dense `u8` codes lower to
/// a computed-goto jump table; a handler-index byte per block is chosen
/// over literal `fn`-pointer threading because Rust function pointers
/// defeat inlining of the (tiny) handlers into the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum HKind {
    /// `Nbtd::None` on an exit block: the round completes.
    Exit,
    /// `Nbtd::None` on a return block: pop the call stack and resolve.
    Return,
    /// `Nbtd::None`: unconditional fall-through to `a`.
    Fall,
    /// `Nbtd::Branch`, condition evaluated on the shadow.
    BranchEval,
    /// `Nbtd::Branch`, outcome from the sync provider.
    BranchSync,
    /// `Nbtd::Switch`, scrutinee evaluated on the shadow.
    SwitchEval,
    /// `Nbtd::Switch`, value from the sync provider.
    SwitchSync,
    /// Command-decision switch, scrutinee evaluated on the shadow.
    SwitchCmdEval,
    /// Command-decision switch, value from the sync provider.
    SwitchCmdSync,
    /// `Nbtd::Indirect`: legitimacy-check a function-pointer value.
    Indirect,
}

impl HKind {
    /// A switch kind: `aux` indexes a [`SwitchTab`].
    fn is_switch(self) -> bool {
        matches!(
            self,
            HKind::SwitchEval | HKind::SwitchSync | HKind::SwitchCmdEval | HKind::SwitchCmdSync
        )
    }

    /// A command-decision switch: its [`SwitchTab`] carries `cmds`.
    fn is_cmd_decision(self) -> bool {
        matches!(self, HKind::SwitchCmdEval | HKind::SwitchCmdSync)
    }
}

/// Packed hot-path block record (20 bytes): everything the
/// direct-threaded walk needs, so a fall-through chain of blocks spans
/// a couple of cache lines instead of striding through the interpreted
/// `EsBlock`s. It is also the only per-block record: the introspection
/// methods read it too. `a` / `b` / `aux` are kind-dependent (targets
/// are [`NO_BLOCK`] when untrained):
///
/// | kind            | `a`        | `b`          | `aux`                 |
/// |-----------------|------------|--------------|-----------------------|
/// | `Fall`          | next       | —            | —                     |
/// | `BranchEval`    | taken      | not-taken    | condition program     |
/// | `BranchSync`    | taken      | not-taken    | program-block origin  |
/// | `Switch*`       | —          | —            | [`SwitchTab`] index   |
/// | `Indirect`      | pointer var| return origin| —                     |
#[derive(Debug, Clone, Copy)]
struct HBlock {
    a: u32,
    b: u32,
    aux: u32,
    /// Start of this block's flags in `op_flags`.
    ops_at: u32,
    kind: HKind,
    /// The block has DSOD operations (skip the `EsBlock` deref if not).
    has_dsod: bool,
    /// The block closes the active command scope.
    is_cmd_end: bool,
}

const _: () = assert!(std::mem::size_of::<HBlock>() == 20);

/// Per-switch-block dispatch: the case lookup plus, for command
/// decisions, the command lookup into this decision's run of the
/// global command-key table.
#[derive(Debug)]
struct SwitchTab {
    /// Trained case value → target ES block.
    cases: ValueIndex,
    /// Command decisions only: command → index into the sorted global
    /// `cmd_keys` (empty for plain switches).
    cmds: ValueIndex,
    /// Program-block origin (sync-provider lookups).
    origin: u32,
    /// Lowered scrutinee program (evaluating switch kinds).
    scrut: u32,
}

/// One micro-op of a lowered expression program.
///
/// [`Expr`] trees are boxed per node; evaluating one chases a pointer
/// and takes an enum dispatch per node. The compiler flattens every hot
/// expression (branch conditions, switch scrutinees, DSOD operand
/// expressions) into postfix [`FOp`] runs in one contiguous arena,
/// evaluated by [`eval_flat`] over a reused value stack — same
/// arithmetic, no pointer chasing, no per-round allocation.
#[derive(Debug, Clone, Copy)]
enum FOp {
    /// Push an (untyped) integer literal.
    Const(u64),
    /// Push a device-state variable (typed by its declaration).
    Var(VarId),
    /// Push a handler local (zero if out of range).
    Local(u32),
    /// Push the request's data value.
    IoData,
    /// Push the request's address.
    IoAddr,
    /// Push the request's access width in bytes.
    IoSize,
    /// Push the request's payload length.
    IoLen,
    /// Pop an index, push that payload byte (zero-padded).
    IoByte,
    /// Pop an index, push that buffer byte (arena faults propagate).
    BufLoad(BufId),
    /// Push a buffer's declared length.
    BufLen(BufId),
    /// Pop one value, push the unary result.
    Un(UnOp),
    /// Pop two values, push the binary result. The mask records which
    /// operand was a literal `Const` node (1 = lhs, 2 = rhs, 3 = both)
    /// for the C-style untyped-constant width adoption.
    Bin(BinOp, u8),
}

/// Whether constant `c` fits the width/signedness of `other`'s type
/// (the compiled mirror of the evaluator's literal-adoption gate).
#[inline]
fn const_fits(c: u64, other: TypedValue) -> bool {
    if other.signed {
        c <= other.width.mask() >> 1
    } else {
        c <= other.width.mask()
    }
}

/// Evaluates a non-popping (leaf) op straight to its value; `None` for
/// ops that consume stack operands.
#[inline]
fn eval_leaf(op: FOp, cs: &CsState, locals: &[TypedValue], io: &IoRequest) -> Option<TypedValue> {
    Some(match op {
        FOp::Const(c) => TypedValue::u64(c),
        FOp::Var(v) => cs.var_typed(v),
        FOp::Local(l) => locals.get(l as usize).copied().unwrap_or(TypedValue::u64(0)),
        FOp::IoData => TypedValue::u64(io.data),
        FOp::IoAddr => TypedValue::u64(io.addr),
        FOp::IoSize => TypedValue::u64(u64::from(io.size)),
        FOp::IoLen => TypedValue::u64(io.payload.len() as u64),
        FOp::BufLen(b) => TypedValue::u64(cs.buf_len(b) as u64),
        _ => return None,
    })
}

/// Applies the literal-adoption rule and the binary op to two already
/// evaluated operands (shared by the fast and general paths).
#[inline]
fn eval_bin(
    op: BinOp,
    lit: u8,
    mut va: TypedValue,
    mut vb: TypedValue,
    flags: &mut OverflowFlags,
) -> Result<TypedValue, EvalError> {
    // Bare literals adopt the other operand's type when they fit —
    // exactly the tree evaluator's rule (a literal's bits are its
    // constant, so `va.bits`/`vb.bits` are the values the tree matcher
    // read out of the `Const` node).
    match lit {
        1 if const_fits(va.bits, vb) => {
            va = TypedValue { bits: va.bits, width: vb.width, signed: vb.signed };
        }
        2 if const_fits(vb.bits, va) => {
            vb = TypedValue { bits: vb.bits, width: va.width, signed: va.signed };
        }
        _ => {}
    }
    let (v, of) = apply_binop(op, va, vb).map_err(EvalError::Arith)?;
    if of == OverflowKind::Arithmetic {
        flags.arithmetic = true;
    }
    Ok(v)
}

/// Evaluates a lowered postfix program. Semantically identical to
/// `eval_expr` over the tree it was lowered from: same evaluation
/// order, same literal width adoption, same overflow accumulation and
/// the same error points.
///
/// The two shapes that dominate real specifications — a bare leaf
/// (`addr`, a state variable) and `leaf ⊕ leaf` (`cmd & 0x7f`,
/// `addr == REG`) — run register-to-register without touching the
/// value stack.
#[inline]
fn eval_flat(
    ops: &[FOp],
    cs: &CsState,
    locals: &[TypedValue],
    io: &IoRequest,
    stack: &mut Vec<TypedValue>,
    flags: &mut OverflowFlags,
) -> Result<TypedValue, EvalError> {
    match *ops {
        [op] => {
            if let Some(v) = eval_leaf(op, cs, locals, io) {
                return Ok(v);
            }
        }
        [a, b, FOp::Bin(op, lit)] => {
            if let (Some(va), Some(vb)) =
                (eval_leaf(a, cs, locals, io), eval_leaf(b, cs, locals, io))
            {
                return eval_bin(op, lit, va, vb, flags);
            }
        }
        _ => {}
    }
    stack.clear();
    for op in ops {
        let v = match *op {
            FOp::IoByte => {
                let i = stack.pop().expect("lowered arity");
                TypedValue::unsigned(
                    u64::from(io.payload_byte(i.as_i128().max(0) as usize)),
                    Width::W8,
                )
            }
            FOp::BufLoad(b) => {
                let i = stack.pop().expect("lowered arity");
                let (byte, _) = cs.buf_read(b, i.as_i128() as i64).map_err(EvalError::Arena)?;
                TypedValue::unsigned(u64::from(byte), Width::W8)
            }
            FOp::Un(op) => {
                let a = stack.pop().expect("lowered arity");
                apply_unop(op, a)
            }
            FOp::Bin(op, lit) => {
                let vb = stack.pop().expect("lowered arity");
                let va = stack.pop().expect("lowered arity");
                eval_bin(op, lit, va, vb, flags)?
            }
            leaf => eval_leaf(leaf, cs, locals, io)
                .expect("every op that pops stack operands is matched above"),
        };
        stack.push(v);
    }
    Ok(stack.pop().expect("lowered program yields one value"))
}

/// Emits `e` in postfix order into the op arena.
fn emit_expr(e: &Expr, out: &mut Vec<FOp>) {
    match e {
        Expr::Const(v) => out.push(FOp::Const(*v)),
        Expr::Var(v) => out.push(FOp::Var(*v)),
        Expr::Local(l) => out.push(FOp::Local(l.0)),
        Expr::IoData => out.push(FOp::IoData),
        Expr::IoAddr => out.push(FOp::IoAddr),
        Expr::IoSize => out.push(FOp::IoSize),
        Expr::IoLen => out.push(FOp::IoLen),
        Expr::IoByte(i) => {
            emit_expr(i, out);
            out.push(FOp::IoByte);
        }
        Expr::BufLoad(b, i) => {
            emit_expr(i, out);
            out.push(FOp::BufLoad(*b));
        }
        Expr::BufLen(b) => out.push(FOp::BufLen(*b)),
        Expr::Unary(op, a) => {
            emit_expr(a, out);
            out.push(FOp::Un(*op));
        }
        Expr::Binary(op, a, b) => {
            emit_expr(a, out);
            emit_expr(b, out);
            let lit = u8::from(matches!(**a, Expr::Const(_)))
                | (u8::from(matches!(**b, Expr::Const(_))) << 1);
            out.push(FOp::Bin(*op, lit));
        }
    }
}

/// A lowered DSOD operation: the walk-relevant projection of
/// [`DsodOp`] with every operand expression pre-flattened, so the DSOD
/// hot loop never matches on boxed [`Stmt`] trees.
#[derive(Debug, Clone, Copy)]
enum FDsod {
    /// `Stmt::SetVar` — journal-logged shadow variable write.
    SetVar { v: VarId, fp: u32 },
    /// `Stmt::SetLocal` — with the declared width pre-resolved.
    SetLocal { l: u32, w: Width, fp: u32 },
    /// `Stmt::BufStore` — journal-logged shadow buffer byte write.
    BufStore { b: BufId, fp_idx: u32, fp_val: u32 },
    /// `Stmt::BufFill` — journal-logged whole-buffer fill.
    BufFill { b: BufId, fp: u32 },
    /// `Stmt::CopyPayload` — payload bytes into the shadow buffer.
    CopyPayload { b: BufId, fp_off: u32, fp_len: u32 },
    /// External scalar load: value from the sync provider.
    SyncVar { v: VarId },
    /// External buffer load: range-checked, content from the provider.
    SyncBuf { b: BufId, fp_off: u32, fp_len: u32 },
    /// Outbound buffer read: range-checked only.
    CheckBufRead { b: BufId, fp_off: u32, fp_len: u32 },
    /// An `Exec` statement the shadow walk does not model (intrinsics);
    /// executing one is a specification defect, caught as it always was.
    Unsupported,
}

/// One handler's compiled ES-CFG. Every per-block array is indexed by
/// ES block and every stored target is an ES block id.
#[derive(Debug)]
struct CompiledCfg {
    /// Entry ES block, [`NO_BLOCK`] when never traced.
    entry: u32,
    /// Packed per-block records, one per ES block.
    hot: Vec<HBlock>,
    switch_tabs: Vec<SwitchTab>,
    /// Per-DSOD-op parameter-check flags (meaning depends on op kind;
    /// see [`op_flag`]).
    op_flags: Vec<bool>,
    /// Program-block origin → ES block after pass-through resolution.
    resolve: Vec<u32>,
    /// Statically legitimate function-pointer value → its position in
    /// `fn_tos`.
    fns: ValueIndex,
    /// Observed ES target per legit value ([`NO_BLOCK`] = legit but
    /// untraced), parallel to `fns`' sorted keys.
    fn_tos: Vec<u32>,
    /// Flat postfix expression arena ([`eval_flat`]).
    fops: Vec<FOp>,
    /// `(start, len)` program handles into `fops`.
    fprogs: Vec<(u32, u32)>,
    /// Lowered DSOD operations, parallel to `op_flags`.
    fdsod: Vec<FDsod>,
    /// Per-round handler-locals initializer (one memcpy per round).
    locals_tmpl: Vec<TypedValue>,
}

impl CompiledCfg {
    /// The lowered postfix run of expression program `fp`.
    #[inline]
    fn fprog(&self, fp: u32) -> &[FOp] {
        let (s, l) = self.fprogs[fp as usize];
        &self.fops[s as usize..(s + l) as usize]
    }
}

/// The active command scope in compiled form.
///
/// The steady-state variants are `Copy`-cheap; `Custom` carries a full
/// [`CmdCtx`] and only appears when a restored snapshot's scope does not
/// match any compiled table entry (hand-edited contexts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CmdScope {
    /// No command active.
    #[default]
    None,
    /// Scope of compiled command entry `i` (index into the sorted keys).
    Entry(u32),
    /// A restored scope with no matching compiled entry; checked through
    /// its own `allowed` set, exactly like the interpreted walk.
    Custom(CmdCtx),
}

/// Reusable per-checker walk state: the shadow instance, its undo
/// journal, scratch buffers and the committed/pending command scope.
///
/// All scratch storage is reused across rounds, so a steady-state walk
/// performs no heap allocation.
///
/// Batched rounds commit by **watermark**: `committed_mark` records the
/// journal depth of everything already accepted, so aborting an open
/// round rolls back only past the mark, and finalizing a batch is a
/// single journal clear.
#[derive(Debug)]
pub struct WalkState {
    pub(crate) shadow: CsState,
    journal: CsJournal,
    locals: Vec<TypedValue>,
    call_stack: Vec<u32>,
    scope: CmdScope,
    pending: CmdScope,
    /// Journal depth of the committed batch prefix; 0 outside a batch.
    committed_mark: usize,
    /// Committed scope as of batch start ([`WalkState::abort_all`]).
    batch_scope: CmdScope,
    /// ES blocks visited by the last observed walk (populated only when
    /// a sink is attached, so the unobserved path stays allocation-free).
    path: Vec<u32>,
    /// Reused operand stack for [`eval_flat`].
    estack: Vec<TypedValue>,
}

impl WalkState {
    /// Fresh state over a boot-initialized shadow instance.
    pub fn new(shadow: CsState) -> Self {
        WalkState {
            shadow,
            journal: CsJournal::new(),
            locals: Vec::new(),
            call_stack: Vec::new(),
            scope: CmdScope::None,
            pending: CmdScope::None,
            committed_mark: 0,
            batch_scope: CmdScope::None,
            path: Vec::new(),
            estack: Vec::new(),
        }
    }

    /// The current (committed) shadow state.
    pub fn shadow(&self) -> &CsState {
        &self.shadow
    }

    /// ES blocks the last observed walk visited, in walk order. Empty
    /// unless the walk ran with a sink attached.
    pub fn last_path(&self) -> &[u32] {
        &self.path
    }

    /// Writes currently in the undo journal (uncommitted round depth
    /// plus the watermarked batch prefix).
    pub(crate) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Journal depth of the watermark-committed batch prefix.
    pub(crate) fn committed_writes(&self) -> usize {
        self.committed_mark
    }

    /// Net shadow byte changes of the uncommitted round, as coalesced
    /// `(offset, original, current)` ranges. Must be read before
    /// [`WalkState::commit`] / [`WalkState::abort`].
    pub fn shadow_diff(&self) -> Vec<(u32, Vec<u8>, Vec<u8>)> {
        self.shadow.journal_diff(&self.journal)
    }

    /// The committed command scope.
    pub(crate) fn scope(&self) -> &CmdScope {
        &self.scope
    }

    /// Replaces shadow and scope wholesale (snapshot restore).
    pub(crate) fn reset(&mut self, shadow: CsState, scope: CmdScope) {
        self.shadow = shadow;
        self.scope = scope;
        self.journal.clear();
        self.committed_mark = 0;
        self.pending = CmdScope::None;
    }

    /// Re-synchronizes the shadow from the real device state without
    /// reallocating, clearing the command scope.
    pub(crate) fn resync(&mut self, real: &CsState) {
        if self.shadow.arena_size() == real.arena_size() {
            self.shadow.copy_arena_from(real);
        } else {
            self.shadow = real.clone();
        }
        self.scope = CmdScope::None;
        self.journal.clear();
        self.committed_mark = 0;
        self.pending = CmdScope::None;
    }

    /// Accepts the last walk: keeps the shadow mutations and promotes
    /// the pending command scope.
    pub(crate) fn commit(&mut self) {
        self.journal.clear();
        self.committed_mark = 0;
        self.scope = std::mem::take(&mut self.pending);
    }

    /// Rejects the last walk: rolls the shadow back through the journal
    /// — down to the watermarked batch prefix, which stays committed —
    /// and drops the pending scope.
    pub(crate) fn abort(&mut self) {
        self.shadow.undo_to(&mut self.journal, self.committed_mark);
        self.pending = CmdScope::None;
    }

    /// Opens a batch: remembers the committed scope so
    /// [`WalkState::abort_all`] can restore it.
    pub(crate) fn begin_batch(&mut self) {
        self.batch_scope = self.scope.clone();
    }

    /// Watermark-commits the round just walked: accepted writes stay in
    /// the journal, finalized wholesale by [`WalkState::commit_marked`].
    /// The batched walk keeps the command scope in a register across
    /// rounds, so only the watermark advances here.
    pub(crate) fn mark_watermark(&mut self) {
        self.committed_mark = self.journal.len();
    }

    /// Finalizes every watermark-committed round: one journal clear for
    /// the whole batch. Any open (unmarked) round must be aborted first.
    pub(crate) fn commit_marked(&mut self) {
        debug_assert_eq!(self.journal.len(), self.committed_mark, "open round not aborted");
        self.journal.clear();
        self.committed_mark = 0;
    }

    /// Rolls the whole batch back — watermarked prefix included — and
    /// restores the scope captured by [`WalkState::begin_batch`].
    pub(crate) fn abort_all(&mut self) {
        self.shadow.undo(&mut self.journal);
        self.committed_mark = 0;
        self.scope = std::mem::take(&mut self.batch_scope);
        self.pending = CmdScope::None;
    }
}

/// An execution specification lowered for the enforcement hot path.
///
/// Cheap to share: the fleet compiles each published revision once and
/// every tenant's checker holds an `Arc<CompiledSpec>`.
#[derive(Debug)]
pub struct CompiledSpec {
    spec: Arc<ExecutionSpecification>,
    cfgs: Vec<CompiledCfg>,
    /// Dense-global-block-index offset per program.
    block_offsets: Vec<u32>,
    /// Sorted `(decision gid, cmd)` command keys.
    cmd_keys: Vec<(u64, u64)>,
    /// Accessibility bitmap over dense global block ids, parallel to
    /// `cmd_keys`.
    cmd_masks: Vec<Vec<u64>>,
    /// Index into `spec.cmd_table.entries`, parallel to `cmd_keys`.
    cmd_entry_idx: Vec<u32>,
}

/// Precomputed parameter-check flag for one DSOD op (the allocating
/// `Expr::vars()`/`Expr::locals()` scope derivation, hoisted to compile
/// time):
///
/// * `Exec(SetVar)` — the statement is overflow-relevant (reads or
///   writes a selected parameter);
/// * `Exec(BufStore)` — the index expression is range-checkable;
/// * `Exec(CopyPayload)`, `SyncBuf`, `CheckBufRead` — both range
///   expressions are checkable;
/// * everything else — unused (`false`).
fn op_flag(op: &DsodOp, params: &DeviceStateParams) -> bool {
    let param_refs = |e: &Expr| e.vars().iter().any(|v| params.contains_var(*v));
    match op {
        DsodOp::Exec(Stmt::SetVar(v, e)) => param_refs(e) || params.contains_var(*v),
        DsodOp::Exec(Stmt::BufStore(_, idx, _)) => checkable_range_expr(idx, params),
        DsodOp::Exec(Stmt::CopyPayload { buf_off, len, .. }) => {
            checkable_range_expr(buf_off, params) && checkable_range_expr(len, params)
        }
        DsodOp::Exec(_) => false,
        DsodOp::SyncVar(_) => false,
        DsodOp::SyncBuf { off, len, .. } | DsodOp::CheckBufRead { off, len, .. } => {
            checkable_range_expr(off, params) && checkable_range_expr(len, params)
        }
    }
}

/// Whether a sorted value set is compact enough for a dense
/// value-indexed table: span bounded by `max(64, 4×entries)` with an
/// absolute cap, so dense dispatch never buys unbounded memory.
/// Returns `(min, span)`.
fn dense_span(vals: &[u64]) -> Option<(u64, u32)> {
    let (&min, &max) = (vals.first()?, vals.last()?);
    let span = max.checked_sub(min)?.checked_add(1)?;
    // Generous density rule: a hole-y table is still a single indexed
    // load where the sorted fallback is a data-dependent binary search
    // on the dispatch hot path, so spend up to 16 KiB (4096 × u32) per
    // table before giving up — register files with strided addresses
    // (e.g. a 7-case switch spanning ~100 ports) stay O(1).
    if span <= (vals.len() as u64 * 64).max(256) && span <= 4096 {
        Some((min, span as u32))
    } else {
        None
    }
}

/// Hole in a [`ValueIndex`]'s dense table. A payload equal to it reads
/// as absent on both sides of the index.
const ABSENT: u32 = u32::MAX;

/// The compiled form's one `u64` value → `u32` payload lookup: switch
/// cases (value → ES block), command decisions (command → global
/// command-key index) and function-pointer tables (value → position in
/// `fn_tos`). The walk and the introspection methods SA401 diffs both
/// resolve values through [`ValueIndex::get`].
///
/// The sorted key list is always kept; it is the only side that can
/// hold a sparse set, and a specification published as JSON may carry
/// one. When [`dense_span`] admits the keys, `get` reads a
/// value-indexed table instead: one load where the sorted side is a
/// data-dependent binary search.
#[derive(Debug, Default)]
struct ValueIndex {
    /// Sorted, distinct keys.
    keys: Vec<u64>,
    /// Payload per key, parallel to `keys`.
    vals: Vec<u32>,
    /// `dense[k - min]` is key `k`'s payload ([`ABSENT`] holes); empty
    /// when the keys are too sparse for a table.
    dense: Vec<u32>,
    min: u64,
}

impl ValueIndex {
    /// Indexes `(key, payload)` pairs. The first pair given for a key
    /// wins, like the interpreted specification's first-match edge
    /// lookup.
    fn build(mut pairs: Vec<(u64, u32)>) -> Self {
        pairs.sort_by_key(|&(k, _)| k);
        pairs.dedup_by_key(|&mut (k, _)| k);
        let (keys, vals): (Vec<u64>, Vec<u32>) = pairs.into_iter().unzip();
        let (min, dense) = match dense_span(&keys) {
            Some((min, span)) => {
                let mut dense = vec![ABSENT; span as usize];
                for (&k, &v) in keys.iter().zip(&vals) {
                    dense[(k - min) as usize] = v;
                }
                (min, dense)
            }
            None => (0, Vec::new()),
        };
        ValueIndex { keys, vals, dense, min }
    }

    /// The payload of `key`, `None` when `key` is not indexed.
    #[inline]
    fn get(&self, key: u64) -> Option<u32> {
        let v = if self.dense.is_empty() {
            self.vals[self.keys.binary_search(&key).ok()?]
        } else {
            *self.dense.get(usize::try_from(key.wrapping_sub(self.min)).ok()?)?
        };
        (v != ABSENT).then_some(v)
    }
}

fn compile_cfg(cfg: &EsCfg, params: &DeviceStateParams) -> CompiledCfg {
    let mut hot = Vec::with_capacity(cfg.blocks.len());
    let mut switch_tabs = Vec::new();
    let mut op_flags = Vec::new();
    let mut fops: Vec<FOp> = Vec::new();
    let mut fprogs: Vec<(u32, u32)> = Vec::new();
    let mut fdsod: Vec<FDsod> = Vec::new();
    for (es, blk) in cfg.blocks.iter().enumerate() {
        let es = es as u32;
        let pick = |key: EdgeKey| cfg.edge(es, key).map_or(NO_BLOCK, |e| e.to);
        let mut lower = |e: &Expr| -> u32 {
            let start = fops.len() as u32;
            emit_expr(e, &mut fops);
            fprogs.push((start, fops.len() as u32 - start));
            (fprogs.len() - 1) as u32
        };
        let ops_at = op_flags.len() as u32;
        op_flags.extend(blk.dsod.iter().map(|op| op_flag(op, params)));
        for op in &blk.dsod {
            fdsod.push(match op {
                DsodOp::Exec(Stmt::SetVar(v, e)) => FDsod::SetVar { v: *v, fp: lower(e) },
                DsodOp::Exec(Stmt::SetLocal(l, e)) => FDsod::SetLocal {
                    l: l.0,
                    w: cfg.locals.get(l.0 as usize).copied().unwrap_or(Width::W64),
                    fp: lower(e),
                },
                DsodOp::Exec(Stmt::BufStore(b, idx, val)) => {
                    FDsod::BufStore { b: *b, fp_idx: lower(idx), fp_val: lower(val) }
                }
                DsodOp::Exec(Stmt::BufFill(b, e)) => FDsod::BufFill { b: *b, fp: lower(e) },
                DsodOp::Exec(Stmt::CopyPayload { buf, buf_off, len }) => {
                    FDsod::CopyPayload { b: *buf, fp_off: lower(buf_off), fp_len: lower(len) }
                }
                DsodOp::Exec(Stmt::Intrinsic(_)) => FDsod::Unsupported,
                DsodOp::SyncVar(v) => FDsod::SyncVar { v: *v },
                DsodOp::SyncBuf { buf, off, len } => {
                    FDsod::SyncBuf { b: *buf, fp_off: lower(off), fp_len: lower(len) }
                }
                DsodOp::CheckBufRead { buf, off, len } => {
                    FDsod::CheckBufRead { b: *buf, fp_off: lower(off), fp_len: lower(len) }
                }
            });
        }
        let (kind, a, b, aux) = match &blk.nbtd {
            Nbtd::None if blk.is_exit => (HKind::Exit, 0, 0, 0),
            Nbtd::None if blk.is_return => (HKind::Return, 0, 0, 0),
            Nbtd::None => (HKind::Fall, pick(EdgeKey::Next), 0, 0),
            // An eval branch carries its lowered condition in `aux`; a
            // sync branch carries the program-block origin the provider
            // is keyed on.
            Nbtd::Branch { cond, needs_sync, .. } => {
                let (kind, aux) = if *needs_sync {
                    (HKind::BranchSync, blk.origin)
                } else {
                    (HKind::BranchEval, lower(cond))
                };
                (kind, pick(EdgeKey::Taken), pick(EdgeKey::NotTaken), aux)
            }
            Nbtd::Switch { scrutinee, needs_sync, is_cmd_decision } => {
                let tab = switch_tabs.len() as u32;
                let cases = cfg.edges.get(&es).map_or_else(Vec::new, |list| {
                    list.iter()
                        .filter_map(|e| match e.key {
                            EdgeKey::Case(v) => Some((v, e.to)),
                            _ => None,
                        })
                        .collect()
                });
                switch_tabs.push(SwitchTab {
                    cases: ValueIndex::build(cases),
                    // Filled in by `compile` once the global command-key
                    // order is known.
                    cmds: ValueIndex::default(),
                    origin: blk.origin,
                    scrut: lower(scrutinee),
                });
                let kind = match (*needs_sync, *is_cmd_decision) {
                    (false, false) => HKind::SwitchEval,
                    (true, false) => HKind::SwitchSync,
                    (false, true) => HKind::SwitchCmdEval,
                    (true, true) => HKind::SwitchCmdSync,
                };
                (kind, 0, 0, tab)
            }
            Nbtd::Indirect { ptr, ret_origin } => (HKind::Indirect, ptr.0, *ret_origin, 0),
        };
        hot.push(HBlock {
            a,
            b,
            aux,
            ops_at,
            kind,
            has_dsod: !blk.dsod.is_empty(),
            is_cmd_end: blk.kind == sedspec_dbl::ir::BlockKind::CmdEnd,
        });
    }
    let max_origin = cfg.forward.keys().next_back().map_or(0, |&k| k as usize + 1);
    let mut resolve = vec![NO_BLOCK; max_origin];
    for &origin in cfg.forward.keys() {
        if let Some(es) = cfg.resolve(origin) {
            resolve[origin as usize] = es;
        }
    }
    // `legit_fn_values` is a sorted set, so position `i` is also the
    // rank of the value among `fns`' keys.
    let fns =
        ValueIndex::build(cfg.legit_fn_values.iter().zip(0..).map(|(&v, i)| (v, i)).collect());
    let fn_tos: Vec<u32> =
        fns.keys.iter().map(|v| cfg.fn_targets.get(v).copied().unwrap_or(NO_BLOCK)).collect();
    CompiledCfg {
        entry: cfg.entry.unwrap_or(NO_BLOCK),
        hot,
        switch_tabs,
        op_flags,
        resolve,
        fns,
        fn_tos,
        fops,
        fprogs,
        fdsod,
        locals_tmpl: cfg.locals.iter().map(|&w| TypedValue::unsigned(0, w)).collect(),
    }
}

impl CompiledSpec {
    /// Lowers a specification. The original is retained (shared) for
    /// DSOD statements, NBTD expressions, labels and serialization.
    pub fn compile(spec: Arc<ExecutionSpecification>) -> Self {
        let mut block_offsets = Vec::with_capacity(spec.cfgs.len());
        let mut total: u32 = 0;
        for cfg in &spec.cfgs {
            block_offsets.push(total);
            total += cfg.blocks.len() as u32;
        }
        let mut cfgs: Vec<CompiledCfg> =
            spec.cfgs.iter().map(|c| compile_cfg(c, &spec.params)).collect();

        let mut cmd_entry_idx: Vec<u32> = (0..spec.cmd_table.entries.len() as u32).collect();
        cmd_entry_idx.sort_by_key(|&i| {
            let e = &spec.cmd_table.entries[i as usize];
            (e.decision, e.cmd)
        });
        let cmd_keys: Vec<(u64, u64)> = cmd_entry_idx
            .iter()
            .map(|&i| {
                let e = &spec.cmd_table.entries[i as usize];
                (e.decision, e.cmd)
            })
            .collect();
        let words = (total as usize).div_ceil(64).max(1);
        let cmd_masks: Vec<Vec<u64>> = cmd_entry_idx
            .iter()
            .map(|&i| {
                let mut mask = vec![0u64; words];
                for &g in &spec.cmd_table.entries[i as usize].allowed {
                    let (p, es) = ungid(g);
                    if let Some(&off) = block_offsets.get(p) {
                        if es < spec.cfgs[p].blocks.len() as u32 {
                            let d = (off + es) as usize;
                            mask[d / 64] |= 1u64 << (d % 64);
                        }
                    }
                }
                mask
            })
            .collect();

        // Now that the global key order is known, index each command
        // decision's run of keys: command → global key index. Runs whose
        // decision is no command-decision switch stay unreachable, as the
        // walk never consults them.
        let mut lo = 0u32;
        for run in cmd_keys.chunk_by(|x, y| x.0 == y.0) {
            let (p, es) = ungid(run[0].0);
            let hb = cfgs.get(p).and_then(|c| c.hot.get(es as usize)).copied();
            if let Some(hb) = hb.filter(|hb| hb.kind.is_cmd_decision()) {
                cfgs[p].switch_tabs[hb.aux as usize].cmds =
                    ValueIndex::build(run.iter().zip(lo..).map(|(k, i)| (k.1, i)).collect());
            }
            lo += run.len() as u32;
        }
        CompiledSpec { spec, cfgs, block_offsets, cmd_keys, cmd_masks, cmd_entry_idx }
    }

    /// The specification this was compiled from.
    pub fn spec(&self) -> &ExecutionSpecification {
        &self.spec
    }

    /// Shared handle to the original specification.
    pub fn spec_arc(&self) -> &Arc<ExecutionSpecification> {
        &self.spec
    }

    // ---- structural introspection (the static compile-preservation
    // ---- diff in `sedspec-analysis` compares these against the
    // ---- interpreted `EsCfg` it was lowered from) ----

    /// Number of compiled handler CFGs.
    pub fn program_count(&self) -> usize {
        self.cfgs.len()
    }

    /// Compiled entry block of `program`, `None` when untraced.
    pub fn entry_of(&self, program: usize) -> Option<u32> {
        let ccfg = &self.cfgs[program];
        (ccfg.entry != NO_BLOCK).then_some(ccfg.entry)
    }

    /// Number of compiled blocks of `program`, `None` when there is no
    /// such program.
    pub fn block_count(&self, program: usize) -> Option<usize> {
        Some(self.cfgs.get(program)?.hot.len())
    }

    /// Compiled transition target out of `program`/`es` for `key`, read
    /// from the walk's own block record: a key the block's compiled kind
    /// never takes (a `Case` out of a branch, `Next` out of an exit)
    /// resolves to `None`, and case and indirect values go through the
    /// same value lookup as the walk.
    pub fn edge_target(&self, program: usize, es: u32, key: EdgeKey) -> Option<u32> {
        let ccfg = self.cfgs.get(program)?;
        let hb = ccfg.hot.get(es as usize)?;
        let branch = matches!(hb.kind, HKind::BranchEval | HKind::BranchSync);
        let to = match key {
            EdgeKey::Next if hb.kind == HKind::Fall => hb.a,
            EdgeKey::Taken if branch => hb.a,
            EdgeKey::NotTaken if branch => hb.b,
            EdgeKey::Case(v) if hb.kind.is_switch() => {
                ccfg.switch_tabs[hb.aux as usize].cases.get(v)?
            }
            EdgeKey::IndirectTo(v) if hb.kind == HKind::Indirect => {
                ccfg.fn_tos[ccfg.fns.get(v)? as usize]
            }
            _ => NO_BLOCK,
        };
        (to != NO_BLOCK).then_some(to)
    }

    /// Number of compiled switch cases out of `program`/`es` (zero for
    /// a block that is no switch), `None` when there is no such block.
    pub fn case_count(&self, program: usize, es: u32) -> Option<usize> {
        let ccfg = self.cfgs.get(program)?;
        let hb = ccfg.hot.get(es as usize)?;
        Some(if hb.kind.is_switch() {
            ccfg.switch_tabs[hb.aux as usize].cases.keys.len()
        } else {
            0
        })
    }

    /// Compiled pass-through resolution of a program-block origin.
    pub fn resolve_of(&self, program: usize, origin: u32) -> Option<u32> {
        let ccfg = &self.cfgs[program];
        let es = ccfg.resolve.get(origin as usize).copied()?;
        (es != NO_BLOCK).then_some(es)
    }

    /// Compiled function-pointer table of `program`: every statically
    /// legitimate value with its observed ES target (`None` = legit but
    /// untraced).
    pub fn fn_entries(&self, program: usize) -> Vec<(u64, Option<u32>)> {
        let ccfg = &self.cfgs[program];
        ccfg.fns
            .keys
            .iter()
            .zip(&ccfg.fn_tos)
            .map(|(&v, &t)| (v, (t != NO_BLOCK).then_some(t)))
            .collect()
    }

    /// Sorted compiled `(decision gid, cmd)` command keys.
    pub fn cmd_keys(&self) -> &[(u64, u64)] {
        &self.cmd_keys
    }

    /// Whether compiled command key `key_idx` admits block
    /// `program`/`es` through its accessibility bitmap (`false` for a
    /// block the compiled form does not have).
    pub fn cmd_mask_allows(&self, key_idx: usize, program: usize, es: u32) -> bool {
        self.block_count(program).is_some_and(|n| (es as usize) < n)
            && self.scope_allows_w(key_idx as u32, &None, program, es)
    }

    /// Number of bits set in compiled command key `key_idx`'s bitmap.
    pub fn cmd_mask_popcount(&self, key_idx: usize) -> u32 {
        self.cmd_masks[key_idx].iter().map(|w| w.count_ones()).sum()
    }

    /// Precomputed parameter-check flags of `program`/`es`, one per
    /// DSOD op, `None` when there is no such block.
    pub fn op_flags_of(&self, program: usize, es: u32) -> Option<&[bool]> {
        let ops_at = self.cfgs.get(program)?.hot.get(es as usize)?.ops_at as usize;
        let n = self.spec.cfgs[program].blocks[es as usize].dsod.len();
        self.cfgs[program].op_flags.get(ops_at..ops_at + n)
    }

    /// Maps a (possibly restored) interpreted command context to its
    /// compiled scope. Contexts matching a table entry collapse to the
    /// bitmap-backed [`CmdScope::Entry`]; anything else is carried as
    /// [`CmdScope::Custom`] and checked through its own set.
    pub fn scope_of(&self, ctx: Option<&CmdCtx>) -> CmdScope {
        match ctx {
            None => CmdScope::None,
            Some(c) => match self.cmd_keys.binary_search(&(c.decision, c.cmd)) {
                Ok(i)
                    if self.spec.cmd_table.entries[self.cmd_entry_idx[i] as usize].allowed
                        == c.allowed =>
                {
                    CmdScope::Entry(i as u32)
                }
                _ => CmdScope::Custom(c.clone()),
            },
        }
    }

    /// Materializes a compiled scope back into the interpreted
    /// [`CmdCtx`] representation (allocates; inspection/snapshot only).
    pub fn materialize(&self, scope: &CmdScope) -> Option<CmdCtx> {
        match scope {
            CmdScope::None => None,
            CmdScope::Entry(i) => {
                let (decision, cmd) = self.cmd_keys[*i as usize];
                let entry = &self.spec.cmd_table.entries[self.cmd_entry_idx[*i as usize] as usize];
                Some(CmdCtx { decision, cmd, allowed: entry.allowed.clone() })
            }
            CmdScope::Custom(c) => Some(c.clone()),
        }
    }

    /// Whether block `program`/`es` is accessible under the hot-path
    /// scope word `w`.
    #[inline]
    fn scope_allows_w(&self, w: u32, custom: &Option<CmdCtx>, program: usize, es: u32) -> bool {
        if w == CUSTOM_SCOPE {
            custom.as_ref().is_none_or(|c| c.allowed.contains(&gid(program, es)))
        } else {
            let d = (self.block_offsets[program] + es) as usize;
            self.cmd_masks[w as usize][d / 64] & (1u64 << (d % 64)) != 0
        }
    }

    /// The active command under the hot-path scope word `w`.
    fn scope_cmd_w(&self, w: u32, custom: &Option<CmdCtx>) -> u64 {
        match w {
            NO_SCOPE => 0,
            CUSTOM_SCOPE => custom.as_ref().map_or(0, |c| c.cmd),
            i => self.cmd_keys[i as usize].1,
        }
    }

    /// Walks the specification for one I/O round **in place** on
    /// `ws.shadow`, journaling every write. The caller decides the
    /// round's fate: [`WalkState::commit`] keeps the mutations (O(1)),
    /// [`WalkState::abort`] rolls them back through the journal.
    ///
    /// Verdict-equivalent to [`crate::checker::EsChecker::walk_round`].
    ///
    /// With `sink` set, every visited block and consumed sync value is
    /// emitted as a trace event and the walked path is retained on `ws`
    /// for forensics; with `sink` `None` the observed instrumentation is
    /// compiled out entirely and the walk allocates nothing.
    pub fn walk(
        &self,
        config: &CheckConfig,
        program: usize,
        req: &IoRequest,
        sync: &mut dyn SyncProvider,
        ws: &mut WalkState,
        sink: Option<&dyn ObsSink>,
    ) -> RoundReport {
        let mut report = RoundReport::default();
        let (w, mut custom) = scope_to_word(&ws.scope);
        let w_out = match sink {
            Some(_) => self.walk_impl::<dyn SyncProvider, true>(
                config,
                program,
                req,
                sync,
                ws,
                sink,
                &mut report,
                w,
                &mut custom,
            ),
            None => self.walk_impl::<dyn SyncProvider, false>(
                config,
                program,
                req,
                sync,
                ws,
                None,
                &mut report,
                w,
                &mut custom,
            ),
        };
        ws.pending = word_scope(w_out, &custom);
        report
    }

    /// Walks a batch of `(program, request)` rounds with the statically
    /// monomorphized no-sync engine, watermark-committing every clean
    /// completed round in place. Stops at the first round that raises a
    /// violation or suspends at a sync point: that round's journaled
    /// writes are left open (the caller aborts or re-drives it) and its
    /// report lands in `out.stopper`.
    ///
    /// Call [`WalkState::begin_batch`] first; finalize the committed
    /// prefix with [`WalkState::commit_marked`] (one journal clear for
    /// the whole batch).
    pub fn walk_batch<'a, I>(
        &self,
        config: &CheckConfig,
        rounds: I,
        ws: &mut WalkState,
        scratch: &mut RoundReport,
        out: &mut BatchOutcome,
    ) where
        I: IntoIterator<Item = (usize, &'a IoRequest)>,
    {
        out.committed = 0;
        out.blocks_walked = 0;
        out.stopper = None;
        let mut nosync = NoSync;
        // The command scope rides across rounds as a register-resident
        // word; `ws.scope`/`ws.pending` are only materialized when the
        // batch stops or drains.
        let (mut w, mut custom) = scope_to_word(&ws.scope);
        for (program, req) in rounds {
            scratch.reset();
            let w_out = self.walk_impl::<NoSync, false>(
                config,
                program,
                req,
                &mut nosync,
                ws,
                None,
                scratch,
                w,
                &mut custom,
            );
            if !scratch.ok() || scratch.needs_sync {
                // Leave the state exactly as the per-round engine would:
                // the last committed round's exit scope promoted, the
                // stopper's exit scope pending (dropped by the abort or
                // promoted if the caller re-drives and commits).
                ws.pending = word_scope(w_out, &custom);
                ws.scope = word_scope(w, &custom);
                out.stopper = Some(std::mem::take(scratch));
                return;
            }
            w = w_out;
            ws.mark_watermark();
            out.committed += 1;
            out.blocks_walked += scratch.blocks_walked;
        }
        ws.scope = word_scope(w, &custom);
        ws.pending = CmdScope::None;
    }

    /// The direct-threaded round engine. Generic over the sync provider
    /// (monomorphized for the batched no-sync path, virtual for the
    /// general one) and over `OBS`, which compiles the trace
    /// instrumentation in or out.
    /// Takes the entry command scope as a word (plus the rare custom
    /// context in `custom`) and returns the exit scope word; the caller
    /// decides where to materialize it.
    #[allow(clippy::too_many_lines)]
    #[allow(clippy::too_many_arguments)]
    fn walk_impl<S: SyncProvider + ?Sized, const OBS: bool>(
        &self,
        config: &CheckConfig,
        program: usize,
        req: &IoRequest,
        sync: &mut S,
        ws: &mut WalkState,
        sink: Option<&dyn ObsSink>,
        report: &mut RoundReport,
        mut scope_w: u32,
        custom: &mut Option<CmdCtx>,
    ) -> u32 {
        if OBS {
            ws.path.clear();
        }
        let ccfg = &self.cfgs[program];
        let scfg = &self.spec.cfgs[program];

        if ccfg.entry == NO_BLOCK {
            if config.conditional_jump {
                report.violations.push(Violation::UntracedEntry { program });
            }
            return scope_w;
        }

        ws.locals.clear();
        ws.locals.extend_from_slice(&ccfg.locals_tmpl);
        ws.call_stack.clear();
        let p_param = config.parameter;
        let p_cj = config.conditional_jump;
        let p_cs = config.command_scope;
        let mut cur = ccfg.entry;

        'walk: loop {
            report.blocks_walked += 1;
            if report.blocks_walked > WALK_LIMIT {
                break;
            }
            let hb = ccfg.hot[cur as usize];
            if OBS {
                if let Some(s) = sink {
                    ws.path.push(cur);
                    s.event(TraceEventKind::BlockStep { program: program as u32, block: cur });
                }
            }

            // Command-scope accessibility (finer-grained conditional check).
            if scope_w != NO_SCOPE && p_cs && !self.scope_allows_w(scope_w, custom, program, cur) {
                if p_cj {
                    report.violations.push(Violation::BlockOutsideCommand {
                        program,
                        block: cur,
                        label: scfg.blocks[cur as usize].label.clone(),
                        cmd: self.scope_cmd_w(scope_w, custom),
                    });
                }
                break;
            }
            if hb.is_cmd_end {
                scope_w = NO_SCOPE;
            }

            // --- DSOD: lowered ops, flat expression programs ---
            if hb.has_dsod {
                let sblk = &scfg.blocks[cur as usize];
                for k in 0..sblk.dsod.len() {
                    let flag = ccfg.op_flags[hb.ops_at as usize + k];
                    match ccfg.fdsod[hb.ops_at as usize + k] {
                        FDsod::SyncVar { v } => match sync.var_value(v) {
                            Some(val) => {
                                ws.shadow.set_var_logged(v, val, &mut ws.journal);
                                report.syncs_used += 1;
                                if OBS {
                                    if let Some(s) = sink {
                                        s.event(TraceEventKind::SyncFetch { kind: SyncKind::Var });
                                    }
                                }
                            }
                            None => {
                                report.needs_sync = true;
                                break 'walk;
                            }
                        },
                        FDsod::SyncBuf { b, fp_off, fp_len } => {
                            if let Some(v) = Self::range_violation(
                                ccfg,
                                config,
                                flag,
                                b,
                                fp_off,
                                fp_len,
                                ws,
                                req,
                                program,
                                cur,
                                &sblk.label,
                            ) {
                                report.violations.push(v);
                                break 'walk;
                            }
                            match sync.buf_content(b) {
                                Some((off0, bytes)) => {
                                    report.syncs_used += 1;
                                    report.sync_bytes += bytes.len() as u64;
                                    if OBS {
                                        if let Some(s) = sink {
                                            s.event(TraceEventKind::SyncFetch {
                                                kind: SyncKind::Buf,
                                            });
                                        }
                                    }
                                    for (k, byte) in bytes.iter().enumerate() {
                                        if ws
                                            .shadow
                                            .buf_write_logged(
                                                b,
                                                off0 + k as i64,
                                                *byte,
                                                &mut ws.journal,
                                            )
                                            .is_err()
                                        {
                                            if p_param {
                                                report.violations.push(Violation::ShadowFault {
                                                    program,
                                                    block: cur,
                                                    detail: "external copy left the arena".into(),
                                                });
                                            }
                                            break 'walk;
                                        }
                                    }
                                }
                                None => {
                                    report.needs_sync = true;
                                    break 'walk;
                                }
                            }
                        }
                        FDsod::CheckBufRead { b, fp_off, fp_len } => {
                            if let Some(v) = Self::range_violation(
                                ccfg,
                                config,
                                flag,
                                b,
                                fp_off,
                                fp_len,
                                ws,
                                req,
                                program,
                                cur,
                                &sblk.label,
                            ) {
                                report.violations.push(v);
                                break 'walk;
                            }
                        }
                        exec => {
                            if let Err(v) = Self::exec_shadow(
                                ccfg,
                                exec,
                                flag,
                                ws,
                                req,
                                p_param,
                                program,
                                cur,
                                &sblk.label,
                            ) {
                                if p_param {
                                    report.violations.push(v);
                                }
                                break 'walk;
                            }
                        }
                    }
                }
            }

            // --- NBTD: direct-threaded dispatch over pre-resolved
            // handler indices (the dense `match` lowers to a jump
            // table; no `Nbtd` enum inspection on the hot path) ---
            match hb.kind {
                HKind::Exit => {
                    report.completed = true;
                    break;
                }
                HKind::Return => {
                    let Some(ret) = ws.call_stack.pop() else {
                        if p_cj {
                            report.violations.push(Violation::UntracedPath { program, block: cur });
                        }
                        break;
                    };
                    let es = ccfg.resolve.get(ret as usize).copied().unwrap_or(NO_BLOCK);
                    if es == NO_BLOCK {
                        if p_cj {
                            report.violations.push(Violation::UntracedPath { program, block: cur });
                        }
                        break;
                    }
                    cur = es;
                }
                HKind::Fall => {
                    if hb.a == NO_BLOCK {
                        if p_cj {
                            report.violations.push(Violation::UntracedPath { program, block: cur });
                        }
                        break;
                    }
                    cur = hb.a;
                }
                HKind::BranchEval | HKind::BranchSync => {
                    let taken = if hb.kind == HKind::BranchSync {
                        match sync.branch_outcome(hb.aux) {
                            Some(t) => {
                                report.syncs_used += 1;
                                if OBS {
                                    if let Some(s) = sink {
                                        s.event(TraceEventKind::SyncFetch {
                                            kind: SyncKind::Branch,
                                        });
                                    }
                                }
                                t
                            }
                            None => {
                                report.needs_sync = true;
                                break;
                            }
                        }
                    } else {
                        let mut flags = OverflowFlags::clear();
                        match eval_flat(
                            ccfg.fprog(hb.aux),
                            &ws.shadow,
                            &ws.locals,
                            req,
                            &mut ws.estack,
                            &mut flags,
                        ) {
                            Ok(v) => v.is_true(),
                            Err(e) => {
                                if p_param {
                                    report.violations.push(Violation::ShadowFault {
                                        program,
                                        block: cur,
                                        detail: e.to_string(),
                                    });
                                }
                                break;
                            }
                        }
                    };
                    let to = if taken { hb.a } else { hb.b };
                    if to == NO_BLOCK {
                        if p_cj {
                            report.violations.push(Violation::UntrainedBranch {
                                program,
                                block: cur,
                                label: scfg.blocks[cur as usize].label.clone(),
                                taken,
                            });
                        }
                        break;
                    }
                    cur = to;
                }
                HKind::SwitchEval
                | HKind::SwitchSync
                | HKind::SwitchCmdEval
                | HKind::SwitchCmdSync => {
                    let tab = &ccfg.switch_tabs[hb.aux as usize];
                    let value = if matches!(hb.kind, HKind::SwitchSync | HKind::SwitchCmdSync) {
                        match sync.switch_value(tab.origin) {
                            Some(v) => {
                                report.syncs_used += 1;
                                if OBS {
                                    if let Some(s) = sink {
                                        s.event(TraceEventKind::SyncFetch {
                                            kind: SyncKind::Switch,
                                        });
                                    }
                                }
                                v
                            }
                            None => {
                                report.needs_sync = true;
                                break;
                            }
                        }
                    } else {
                        let mut flags = OverflowFlags::clear();
                        match eval_flat(
                            ccfg.fprog(tab.scrut),
                            &ws.shadow,
                            &ws.locals,
                            req,
                            &mut ws.estack,
                            &mut flags,
                        ) {
                            Ok(v) => v.bits,
                            Err(e) => {
                                if p_param {
                                    report.violations.push(Violation::ShadowFault {
                                        program,
                                        block: cur,
                                        detail: e.to_string(),
                                    });
                                }
                                break;
                            }
                        }
                    };
                    if hb.kind.is_cmd_decision() {
                        if let Some(ki) = tab.cmds.get(value) {
                            scope_w = ki;
                        } else {
                            if p_cj && p_cs {
                                report.violations.push(Violation::UnknownCommand {
                                    program,
                                    block: cur,
                                    label: scfg.blocks[cur as usize].label.clone(),
                                    cmd: value,
                                });
                                break;
                            }
                            scope_w = NO_SCOPE;
                        }
                    }
                    let Some(to) = tab.cases.get(value) else {
                        if p_cj {
                            report.violations.push(Violation::UnknownSwitchTarget {
                                program,
                                block: cur,
                                label: scfg.blocks[cur as usize].label.clone(),
                                value,
                            });
                        }
                        break;
                    };
                    cur = to;
                }
                HKind::Indirect => {
                    let value = ws.shadow.var(VarId(hb.a));
                    let Some(fi) = ccfg.fns.get(value) else {
                        if config.indirect_jump {
                            report.violations.push(Violation::IndirectTarget {
                                program,
                                block: cur,
                                label: scfg.blocks[cur as usize].label.clone(),
                                value,
                            });
                        }
                        break;
                    };
                    let t = ccfg.fn_tos[fi as usize];
                    if t == NO_BLOCK {
                        if p_cj {
                            report.violations.push(Violation::UntracedPath { program, block: cur });
                        }
                        break;
                    }
                    ws.call_stack.push(hb.b);
                    cur = t;
                }
            }
        }

        scope_w
    }

    /// Bounds-checks a buffer range under the precomputed checkability
    /// flag; mirrors the interpreted `range_violation` exactly,
    /// including its silent tolerance of evaluation errors.
    #[allow(clippy::too_many_arguments)]
    fn range_violation(
        ccfg: &CompiledCfg,
        config: &CheckConfig,
        checkable: bool,
        buf: BufId,
        fp_off: u32,
        fp_len: u32,
        ws: &mut WalkState,
        req: &IoRequest,
        program: usize,
        block: u32,
        label: &str,
    ) -> Option<Violation> {
        if !config.parameter || !checkable {
            return None;
        }
        let mut flags = OverflowFlags::clear();
        let o =
            eval_flat(ccfg.fprog(fp_off), &ws.shadow, &ws.locals, req, &mut ws.estack, &mut flags)
                .ok()?
                .as_i128() as i64;
        let l =
            eval_flat(ccfg.fprog(fp_len), &ws.shadow, &ws.locals, req, &mut ws.estack, &mut flags)
                .ok()?
                .as_i128() as i64;
        let cap = ws.shadow.buf_len(buf) as i64;
        if o < 0 || l < 0 || o + l > cap {
            return Some(Violation::BufferOverflow {
                program,
                block,
                label: label.to_string(),
                buf,
                start: o,
                end: o + l,
                cap: cap as u64,
            });
        }
        None
    }

    /// Executes one lowered DSOD statement on the journaled shadow; the
    /// compiled counterpart of the interpreted `exec_shadow`, with the
    /// expression-scope derivation replaced by the precomputed `flag`
    /// and every operand expression pre-flattened.
    #[allow(clippy::too_many_arguments)]
    fn exec_shadow(
        ccfg: &CompiledCfg,
        op: FDsod,
        flag: bool,
        ws: &mut WalkState,
        req: &IoRequest,
        enforce: bool,
        program: usize,
        block: u32,
        label: &str,
    ) -> Result<(), Violation> {
        let mut flags = OverflowFlags::clear();
        let shadow_fault =
            |e: EvalError| Violation::ShadowFault { program, block, detail: e.to_string() };

        match op {
            FDsod::SetVar { v, fp } => {
                let val = eval_flat(
                    ccfg.fprog(fp),
                    &ws.shadow,
                    &ws.locals,
                    req,
                    &mut ws.estack,
                    &mut flags,
                )
                .map_err(shadow_fault)?;
                if enforce && flags.arithmetic && flag {
                    return Err(Violation::IntegerOverflow {
                        program,
                        block,
                        label: label.to_string(),
                    });
                }
                let (w, signed) = ws.shadow.var_meta(v);
                let (conv, _) = val.convert(w, signed);
                ws.shadow.set_var_logged(v, conv.bits, &mut ws.journal);
            }
            FDsod::SetLocal { l, w, fp } => {
                let val = eval_flat(
                    ccfg.fprog(fp),
                    &ws.shadow,
                    &ws.locals,
                    req,
                    &mut ws.estack,
                    &mut flags,
                )
                .map_err(shadow_fault)?;
                let (conv, _) = val.convert(w, false);
                ws.locals[l as usize] = conv;
            }
            FDsod::BufStore { b, fp_idx, fp_val } => {
                let i = eval_flat(
                    ccfg.fprog(fp_idx),
                    &ws.shadow,
                    &ws.locals,
                    req,
                    &mut ws.estack,
                    &mut flags,
                )
                .map_err(shadow_fault)?
                .as_i128() as i64;
                let v = eval_flat(
                    ccfg.fprog(fp_val),
                    &ws.shadow,
                    &ws.locals,
                    req,
                    &mut ws.estack,
                    &mut flags,
                )
                .map_err(shadow_fault)?;
                let cap = ws.shadow.buf_len(b) as i64;
                if enforce && flag && (i < 0 || i >= cap) {
                    return Err(Violation::BufferOverflow {
                        program,
                        block,
                        label: label.to_string(),
                        buf: b,
                        start: i,
                        end: i + 1,
                        cap: cap as u64,
                    });
                }
                ws.shadow.buf_write_logged(b, i, v.bits as u8, &mut ws.journal).map_err(|e| {
                    Violation::ShadowFault { program, block, detail: e.to_string() }
                })?;
            }
            FDsod::BufFill { b, fp } => {
                let v = eval_flat(
                    ccfg.fprog(fp),
                    &ws.shadow,
                    &ws.locals,
                    req,
                    &mut ws.estack,
                    &mut flags,
                )
                .map_err(shadow_fault)?;
                ws.shadow.buf_fill_logged(b, v.bits as u8, &mut ws.journal);
            }
            FDsod::CopyPayload { b, fp_off, fp_len } => {
                let off = eval_flat(
                    ccfg.fprog(fp_off),
                    &ws.shadow,
                    &ws.locals,
                    req,
                    &mut ws.estack,
                    &mut flags,
                )
                .map_err(shadow_fault)?
                .as_i128() as i64;
                let n = eval_flat(
                    ccfg.fprog(fp_len),
                    &ws.shadow,
                    &ws.locals,
                    req,
                    &mut ws.estack,
                    &mut flags,
                )
                .map_err(shadow_fault)?
                .as_i128()
                .max(0) as i64;
                let cap = ws.shadow.buf_len(b) as i64;
                if enforce && flag && (off < 0 || off + n > cap) {
                    return Err(Violation::BufferOverflow {
                        program,
                        block,
                        label: label.to_string(),
                        buf: b,
                        start: off,
                        end: off + n,
                        cap: cap as u64,
                    });
                }
                for k in 0..n {
                    let byte = req.payload_byte(k as usize);
                    ws.shadow.buf_write_logged(b, off + k, byte, &mut ws.journal).map_err(|e| {
                        Violation::ShadowFault { program, block, detail: e.to_string() }
                    })?;
                }
            }
            FDsod::Unsupported => unreachable!("intrinsics never appear as Exec DSOD"),
            FDsod::SyncVar { .. } | FDsod::SyncBuf { .. } | FDsod::CheckBufRead { .. } => {
                unreachable!("sync ops are handled inline by the walk")
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `get` answers exactly what a plain search of the sorted keys
    /// answers, on both sides of the index.
    #[test]
    fn value_index_agrees_with_a_sorted_search() {
        let dense: Vec<u64> = vec![0x10, 0x11, 0x14, 0x40, 0x7f];
        let sparse: Vec<u64> = vec![3, 0x2000, 0x9000, 1 << 40, u64::MAX - 1];
        for (keys, is_dense) in [(dense, true), (sparse, false)] {
            let pairs: Vec<(u64, u32)> = keys.iter().zip(100..).map(|(&k, v)| (k, v)).collect();
            // Reversed input, plus a later duplicate that must lose.
            let mut given: Vec<(u64, u32)> = pairs.iter().rev().copied().collect();
            given.push((keys[1], 7));
            let idx = ValueIndex::build(given);
            assert_eq!(!idx.dense.is_empty(), is_dense, "{keys:x?}");
            let (min, max) = (keys[0], keys[keys.len() - 1]);
            let mut probes = vec![0, min.wrapping_sub(1), max.wrapping_add(1), u64::MAX];
            for &k in &keys {
                probes.extend([k, k.wrapping_sub(1), k.wrapping_add(1)]);
            }
            for p in probes {
                let want = pairs.binary_search_by_key(&p, |&(k, _)| k).ok().map(|i| pairs[i].1);
                assert_eq!(idx.get(p), want, "probe {p:#x} in {keys:x?}");
            }
        }
        assert_eq!(ValueIndex::default().get(0), None);
        // A payload equal to the hole sentinel reads as absent on both
        // sides.
        assert_eq!(ValueIndex::build(vec![(5, ABSENT)]).get(5), None);
        assert_eq!(ValueIndex::build(vec![(5, ABSENT), (1 << 20, 1)]).get(5), None);
    }
}
