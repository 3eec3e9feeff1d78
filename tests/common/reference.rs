//! The reference oracle for the lowered walker: the original tree
//! interpreter over `Program` and `Placement`, kept for tests only.
//!
//! It walks the nested CFG directly, hashes each branch's site key and
//! compares `gen_f64() < p` on every dynamic branch, counts profiles
//! straight into `BTreeMap`s, and asks the placement for every block's
//! address. The production walker (`impact::profile::Walker`) must
//! reproduce it exactly.

use impact::cache::AccessSink;
use impact::ir::{BlockId, FuncId, Program, Terminator, BYTES_PER_INSTR};
use impact::layout::Placement;
use impact::profile::{ExecLimits, ExecSummary, Profile, TransferKind};
use impact_support::Rng;

/// One dynamic control transfer, named by `(function, block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefTransfer {
    pub kind: TransferKind,
    pub from_func: FuncId,
    pub from_block: BlockId,
    pub to: Option<(FuncId, BlockId)>,
}

/// Observer of reference-walk events, in execution order.
pub trait RefVisitor {
    fn block(&mut self, func: FuncId, block: BlockId);
    fn transfer(&mut self, transfer: RefTransfer);
}

/// Runs `program` under `input_seed`: the walker loop as it was before
/// lowering.
pub fn walk<V: RefVisitor>(
    program: &Program,
    limits: ExecLimits,
    input_seed: u64,
    visitor: &mut V,
) -> ExecSummary {
    let mut rng = Rng::seed_from_u64(input_seed ^ 0xD1B5_4A32_D192_ED03);
    let mut summary = ExecSummary::default();
    let mut stack: Vec<(FuncId, BlockId)> = Vec::new();
    let mut func = program.entry();
    let mut block = program.function(func).entry();

    loop {
        let f = program.function(func);
        let bb = f.block(block);
        visitor.block(func, block);
        summary.blocks += 1;
        summary.instructions += bb.instr_count();

        let (kind, to) = match bb.terminator() {
            Terminator::Jump { target } => (TransferKind::Jump, Some((func, *target))),
            Terminator::Branch {
                taken,
                not_taken,
                bias,
            } => {
                let p = bias.effective(input_seed, impact::ir::site_key(f.name(), block));
                if rng.gen_f64() < p {
                    (TransferKind::BranchTaken, Some((func, *taken)))
                } else {
                    (TransferKind::BranchNotTaken, Some((func, *not_taken)))
                }
            }
            Terminator::Switch { targets } => {
                let total: u64 = targets.iter().map(|(_, w)| u64::from(*w)).sum();
                let mut pick = rng.gen_below(total);
                let mut chosen = targets[0].0;
                for (t, w) in targets {
                    let w = u64::from(*w);
                    if pick < w {
                        chosen = *t;
                        break;
                    }
                    pick -= w;
                }
                (TransferKind::Switch, Some((func, chosen)))
            }
            Terminator::Call { callee, ret_to } => {
                if stack.len() >= limits.max_call_depth {
                    summary.truncated = true;
                    break;
                }
                stack.push((func, *ret_to));
                let entry = program.function(*callee).entry();
                (TransferKind::Call, Some((*callee, entry)))
            }
            Terminator::Return => (TransferKind::Return, stack.pop()),
            Terminator::Exit => (TransferKind::Exit, None),
        };

        match kind {
            TransferKind::Call => summary.calls += 1,
            TransferKind::Return => summary.returns += 1,
            k if k.is_intra_function() => summary.intra_transfers += 1,
            _ => {}
        }

        visitor.transfer(RefTransfer {
            kind,
            from_func: func,
            from_block: block,
            to,
        });

        match to {
            Some((nf, nb)) => {
                func = nf;
                block = nb;
            }
            None => break,
        }

        if summary.instructions >= limits.max_instructions {
            summary.truncated = true;
            break;
        }
    }
    summary
}

/// Accumulates a [`Profile`] one `BTreeMap` update per transfer.
struct ProfileVisitor<'a> {
    profile: &'a mut Profile,
    /// Shadow call stack of `(caller, calling block)`.
    stack: Vec<(FuncId, BlockId)>,
}

impl RefVisitor for ProfileVisitor<'_> {
    fn block(&mut self, func: FuncId, block: BlockId) {
        self.profile.funcs[func.index()].block_counts[block.index()] += 1;
    }

    fn transfer(&mut self, t: RefTransfer) {
        match t.kind {
            TransferKind::Call => {
                let (callee, _) = t.to.expect("call always has a destination");
                self.stack.push((t.from_func, t.from_block));
                *self
                    .profile
                    .call_sites
                    .entry((t.from_func, t.from_block))
                    .or_insert(0) += 1;
                *self
                    .profile
                    .call_arcs
                    .entry((t.from_func, callee))
                    .or_insert(0) += 1;
                self.profile.funcs[callee.index()].invocations += 1;
            }
            TransferKind::Return => {
                if let Some((caller, call_block)) = self.stack.pop() {
                    if let Some((_, to_block)) = t.to {
                        *self.profile.funcs[caller.index()]
                            .arcs
                            .entry((call_block, to_block))
                            .or_insert(0) += 1;
                    }
                }
            }
            k if k.is_intra_function() => {
                if let Some((_, to_block)) = t.to {
                    *self.profile.funcs[t.from_func.index()]
                        .arcs
                        .entry((t.from_block, to_block))
                        .or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }
}

/// The profile of `runs` walks from `base_seed`, as `Profiler::profile`
/// computed it before lowering.
pub fn profile(program: &Program, runs: u32, base_seed: u64, limits: ExecLimits) -> Profile {
    let mut profile = Profile::empty_for(program);
    for run in 0..runs {
        let mut visitor = ProfileVisitor {
            profile: &mut profile,
            stack: Vec::new(),
        };
        let summary = walk(program, limits, base_seed + u64::from(run), &mut visitor);
        profile.funcs[program.entry().index()].invocations += 1;
        profile.runs += 1;
        profile.totals.instructions += summary.instructions;
        profile.totals.blocks += summary.blocks;
        profile.totals.intra_transfers += summary.intra_transfers;
        profile.totals.calls += summary.calls;
        profile.totals.returns += summary.returns;
        profile.totals.truncated |= summary.truncated;
    }
    profile
}

/// Coalesces executed blocks into fetch runs, looking every address up
/// in the placement.
struct RunEmitter<'a, S> {
    program: &'a Program,
    placement: &'a Placement,
    sink: &'a mut S,
    run_start: u64,
    run_words: u64,
}

impl<S: AccessSink> RunEmitter<'_, S> {
    fn flush(&mut self) {
        if self.run_words > 0 {
            self.sink.access_run(self.run_start, self.run_words);
            self.run_words = 0;
        }
    }
}

impl<S: AccessSink> RefVisitor for RunEmitter<'_, S> {
    fn block(&mut self, func: FuncId, block: BlockId) {
        let base = self.placement.addr(func, block);
        let instrs = self.program.function(func).block(block).instr_count();
        if instrs == 0 {
            return;
        }
        if self.run_words > 0 && base == self.run_start + self.run_words * BYTES_PER_INSTR {
            self.run_words += instrs;
        } else {
            self.flush();
            self.run_start = base;
            self.run_words = instrs;
        }
    }

    fn transfer(&mut self, _t: RefTransfer) {}
}

/// Streams the fetch runs of `(program, placement)` under `input_seed`
/// to `sink`, as `TraceGenerator::stream` did before lowering.
pub fn stream<S: AccessSink>(
    program: &Program,
    placement: &Placement,
    limits: ExecLimits,
    input_seed: u64,
    sink: &mut S,
) -> ExecSummary {
    let mut emitter = RunEmitter {
        program,
        placement,
        sink,
        run_start: 0,
        run_words: 0,
    };
    let summary = walk(program, limits, input_seed, &mut emitter);
    emitter.flush();
    summary
}
