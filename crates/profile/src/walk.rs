//! The execution walker: a seeded interpreter over a program's CFGs,
//! lowered once to a flat block table (see [`Walker`]).
//!
//! The walker is the single source of dynamic behavior in the whole
//! reproduction. Both the profiler (this crate) and the dynamic trace
//! generator (`impact-trace`) drive it with different [`ExecVisitor`]s, so
//! the instruction stream the cache simulator sees is — by construction —
//! the same behavior the profile was trained on (under a different input
//! seed).

use impact_ir::{BlockId, BranchBias, FuncId, Program, Terminator};
use impact_support::Rng;

/// Kind of a dynamic control transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Unconditional jump.
    Jump,
    /// Conditional branch, taken arm.
    BranchTaken,
    /// Conditional branch, fall-through arm.
    BranchNotTaken,
    /// Multi-way switch dispatch.
    Switch,
    /// Function call.
    Call,
    /// Function return.
    Return,
    /// Program exit.
    Exit,
}

impl TransferKind {
    /// `true` for intra-function transfers (everything except
    /// call/return/exit) — the paper's "control transfers other than
    /// function call/return".
    #[must_use]
    pub fn is_intra_function(self) -> bool {
        matches!(
            self,
            TransferKind::Jump
                | TransferKind::BranchTaken
                | TransferKind::BranchNotTaken
                | TransferKind::Switch
        )
    }

    /// `true` when the transfer redirects the fetch stream (a not-taken
    /// branch keeps fetching sequentially; every other transfer jumps).
    #[must_use]
    pub fn is_taken(self) -> bool {
        !matches!(self, TransferKind::BranchNotTaken)
    }
}

/// One dynamic control transfer observed by the walker.
///
/// Blocks are named by their *global* id: the walker numbers every block
/// of the program densely, function by function in id order (see
/// [`Walker::local`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Kind of transfer.
    pub kind: TransferKind,
    /// Global id of the block whose terminator transferred.
    pub from: u32,
    /// Out-arm that fired: `0` for a jump, `0` taken / `1` not taken for
    /// a branch, the arm's index for a switch, and `0` otherwise.
    pub arm: u32,
    /// Global id of the destination block, if execution continues.
    /// `None` only for [`TransferKind::Exit`] and a `Return` that empties
    /// the call stack.
    pub to: Option<u32>,
}

/// Observer of walker events.
///
/// Events arrive in execution order: `block` for every basic block entered
/// (before its instructions are "executed"), then `transfer` for its
/// terminator.
pub trait ExecVisitor {
    /// The block with global id `block` begins executing.
    fn block(&mut self, block: u32);
    /// A control transfer fired.
    fn transfer(&mut self, transfer: Transfer);
}

/// A visitor that ignores everything (useful to measure walk length only).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullVisitor;

impl ExecVisitor for NullVisitor {
    fn block(&mut self, _block: u32) {}
    fn transfer(&mut self, _transfer: Transfer) {}
}

/// Resource limits for one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecLimits {
    /// Stop after this many dynamic instructions (terminators included).
    pub max_instructions: u64,
    /// Abort the run if the call stack exceeds this depth.
    pub max_call_depth: usize,
}

impl Default for ExecLimits {
    /// Generous defaults: 50 M instructions, depth 512.
    fn default() -> Self {
        Self {
            max_instructions: 50_000_000,
            max_call_depth: 512,
        }
    }
}

/// Outcome of one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecSummary {
    /// Dynamic instructions executed (bodies + terminator slots).
    pub instructions: u64,
    /// Dynamic basic blocks entered.
    pub blocks: u64,
    /// Intra-function control transfers executed (jump/branch/switch).
    pub intra_transfers: u64,
    /// Function calls executed.
    pub calls: u64,
    /// Function returns executed.
    pub returns: u64,
    /// `true` if the walk hit [`ExecLimits::max_instructions`] before the
    /// program exited.
    pub truncated: bool,
}

/// The lowered form of one terminator, with every target resolved to a
/// global block id.
#[derive(Debug, Clone, Copy)]
enum Op {
    Jump {
        to: u32,
    },
    /// `site` indexes [`Walker::sites`] and the per-run threshold vector.
    Branch {
        site: u32,
        taken: u32,
        not_taken: u32,
    },
    /// Arms are `arms[first..first + len]`; `total` is their weight sum.
    Switch {
        first: u32,
        len: u32,
        total: u64,
    },
    /// `entry` is the callee's entry block, `ret_to` the continuation.
    Call {
        entry: u32,
        ret_to: u32,
    },
    Return,
    Exit,
}

/// One row of the flat block table.
#[derive(Debug, Clone, Copy)]
struct FlatBlock {
    /// Instructions executed by the block, terminator slot included.
    words: u64,
    op: Op,
}

/// The seeded interpreter, over a program lowered to a flat block table.
///
/// Two seeds are in play:
/// * the **input seed** identifies the simulated input file; it shifts
///   per-branch probabilities via
///   [`BranchBias::effective`](impact_ir::BranchBias::effective), and
/// * the same seed also initializes the walker's RNG, which resolves each
///   dynamic branch outcome.
///
/// A walk is fully determined by `(program, input_seed, limits)`.
///
/// # Lowering
///
/// [`Walker::new`] lowers the program once; every later [`Walker::run`]
/// (one per seed) reuses the table. Blocks get dense global ids, function
/// by function in id order. Each table row holds the block's word count
/// and its terminator with targets already resolved: a call names the
/// callee's entry block and its return continuation, a switch its arms
/// with their weights, and a branch its *site*. Each branch site's
/// [`site_key`](impact_ir::site_key) is hashed here, once, rather than on
/// every dynamic branch.
///
/// # Integer thresholds
///
/// At the start of a run each site's effective probability `p` becomes
/// the integer threshold `thr = ceil(p · 2^53)`, and a branch is taken
/// when `(rng.next_u64() >> 11) < thr`. That decides exactly as the float
/// test `rng.gen_f64() < p` would on the same RNG draw:
///
/// * the draw `k = next_u64() >> 11` is an integer in `[0, 2^53)`; it is
///   exact as an `f64`, and `gen_f64` returns `k / 2^53`, which is exact
///   too, since dividing by a power of two only moves the exponent;
/// * `p · 2^53` is exact for the same reason (a subnormal `p` scales up
///   exactly, and no `p ≤ 1` overflows), so `k / 2^53 < p` holds exactly
///   when `k < p · 2^53`;
/// * for an integer `k` and a real `y`, `k < y` holds exactly when
///   `k < ceil(y)`, and `ceil(p · 2^53) ≤ 2^53` converts to `u64`
///   exactly.
///
/// The edges agree as well: `p = 0` gives `thr = 0` (never taken),
/// `p = 1` gives `thr = 2^53` (always taken), and a NaN `p` converts to
/// `thr = 0`, just as every comparison with NaN is false.
///
/// A branch consumes one draw either way, and a switch picks its arm
/// with [`Rng::gen_below`] over the arms' total weight, so the draw
/// sequence of a walk is the float test's too.
#[derive(Debug)]
pub struct Walker {
    blocks: Vec<FlatBlock>,
    /// Switch arms `(target, weight)`, sliced by [`Op::Switch`].
    arms: Vec<(u32, u64)>,
    /// Branch sites `(bias, site key)`, indexed by [`Op::Branch`]'s `site`.
    sites: Vec<(BranchBias, u64)>,
    /// Global id of each function's block 0.
    func_base: Vec<u32>,
    /// Global id of the program's entry block.
    entry: u32,
    limits: ExecLimits,
}

/// Seed mix of the walker's RNG.
const RNG_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// The integer threshold of probability `p`: `(x >> 11) < threshold(p)`
/// exactly when `(x >> 11) as f64 / 2^53 < p` (proof on [`Walker`]).
fn threshold(p: f64) -> u64 {
    // `as` saturates: NaN and negatives become 0, +inf becomes u64::MAX.
    (p * (1u64 << 53) as f64).ceil() as u64
}

impl Walker {
    /// Lowers `program` into a walker with default limits.
    ///
    /// # Panics
    ///
    /// Panics if the program has `u32::MAX` blocks or more.
    #[must_use]
    pub fn new(program: &Program) -> Self {
        let mut func_base = Vec::with_capacity(program.function_count());
        let mut total = 0usize;
        for (_, f) in program.functions() {
            func_base.push(u32::try_from(total).expect("block ids fit in u32"));
            total += f.block_count();
        }
        u32::try_from(total).expect("block ids fit in u32");
        let global = |func: FuncId, block: BlockId| func_base[func.index()] + block.index() as u32;

        let mut blocks = Vec::with_capacity(total);
        let mut arms = Vec::new();
        let mut sites = Vec::new();
        for (fid, f) in program.functions() {
            for (bid, bb) in f.blocks() {
                let op = match bb.terminator() {
                    Terminator::Jump { target } => Op::Jump {
                        to: global(fid, *target),
                    },
                    Terminator::Branch {
                        taken,
                        not_taken,
                        bias,
                    } => {
                        // Branch behavior is keyed by (function name,
                        // block), so it survives structural renumbering.
                        sites.push((*bias, impact_ir::site_key(f.name(), bid)));
                        Op::Branch {
                            site: (sites.len() - 1) as u32,
                            taken: global(fid, *taken),
                            not_taken: global(fid, *not_taken),
                        }
                    }
                    Terminator::Switch { targets } => {
                        let first = arms.len() as u32;
                        arms.extend(
                            targets
                                .iter()
                                .map(|(t, w)| (global(fid, *t), u64::from(*w))),
                        );
                        Op::Switch {
                            first,
                            len: targets.len() as u32,
                            total: targets.iter().map(|(_, w)| u64::from(*w)).sum(),
                        }
                    }
                    Terminator::Call { callee, ret_to } => Op::Call {
                        entry: global(*callee, program.function(*callee).entry()),
                        ret_to: global(fid, *ret_to),
                    },
                    Terminator::Return => Op::Return,
                    Terminator::Exit => Op::Exit,
                };
                blocks.push(FlatBlock {
                    words: bb.instr_count(),
                    op,
                });
            }
        }
        let main = program.entry();
        Self {
            entry: global(main, program.function(main).entry()),
            blocks,
            arms,
            sites,
            func_base,
            limits: ExecLimits::default(),
        }
    }

    /// Replaces the execution limits.
    #[must_use]
    pub fn with_limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Number of blocks in the program: global ids are `0..block_count()`.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The `(function, block)` a global id names.
    #[must_use]
    pub fn local(&self, global: u32) -> (FuncId, BlockId) {
        let f = self.func_base.partition_point(|&base| base <= global) - 1;
        (
            FuncId::new(f),
            BlockId::new((global - self.func_base[f]) as usize),
        )
    }

    /// Runs the program under `input_seed`, reporting events to `visitor`.
    ///
    /// The walk ends when the program exits, when
    /// [`ExecLimits::max_instructions`] is reached, or when a call would
    /// exceed [`ExecLimits::max_call_depth`] (runaway recursion); the
    /// latter two mark the summary as truncated.
    pub fn run<V: ExecVisitor>(&self, input_seed: u64, visitor: &mut V) -> ExecSummary {
        let mut rng = Rng::seed_from_u64(input_seed ^ RNG_SALT);
        let thresholds: Vec<u64> = self
            .sites
            .iter()
            .map(|(bias, key)| threshold(bias.effective(input_seed, *key)))
            .collect();
        let mut summary = ExecSummary::default();
        let mut stack: Vec<u32> = Vec::new();
        let mut at = self.entry;

        loop {
            let block = self.blocks[at as usize];
            visitor.block(at);
            summary.blocks += 1;
            summary.instructions += block.words;

            let (kind, arm, to) = match block.op {
                Op::Jump { to } => (TransferKind::Jump, 0, Some(to)),
                Op::Branch {
                    site,
                    taken,
                    not_taken,
                } => {
                    if (rng.next_u64() >> 11) < thresholds[site as usize] {
                        (TransferKind::BranchTaken, 0, Some(taken))
                    } else {
                        (TransferKind::BranchNotTaken, 1, Some(not_taken))
                    }
                }
                Op::Switch { first, len, total } => {
                    let arms = &self.arms[first as usize..(first + len) as usize];
                    let mut pick = rng.gen_below(total);
                    let mut chosen = 0;
                    for (i, &(_, w)) in arms.iter().enumerate() {
                        if pick < w {
                            chosen = i;
                            break;
                        }
                        pick -= w;
                    }
                    (TransferKind::Switch, chosen as u32, Some(arms[chosen].0))
                }
                Op::Call { entry, ret_to } => {
                    if stack.len() >= self.limits.max_call_depth {
                        // Runaway recursion: end the walk as a truncation
                        // rather than unwinding — the trace up to here is
                        // still a valid (partial) execution.
                        summary.truncated = true;
                        break;
                    }
                    stack.push(ret_to);
                    (TransferKind::Call, 0, Some(entry))
                }
                Op::Return => (TransferKind::Return, 0, stack.pop()),
                Op::Exit => (TransferKind::Exit, 0, None),
            };

            match kind {
                TransferKind::Call => summary.calls += 1,
                TransferKind::Return => summary.returns += 1,
                TransferKind::Exit => {}
                _ => summary.intra_transfers += 1,
            }

            visitor.transfer(Transfer {
                kind,
                from: at,
                arm,
                to,
            });

            match to {
                Some(next) => at = next,
                None => break,
            }

            if summary.instructions >= self.limits.max_instructions {
                summary.truncated = true;
                break;
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, Instr, ProgramBuilder, Terminator};

    use super::*;

    fn loop_program(p_loop: f64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let body = f.block(vec![Instr::IntAlu; 3]);
        let exit = f.block(vec![]);
        f.terminate(
            body,
            Terminator::branch(body, exit, BranchBias::fixed(p_loop)),
        );
        f.terminate(exit, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    /// Collects the visited block sequence (global ids).
    #[derive(Default)]
    struct Recorder {
        blocks: Vec<u32>,
        transfers: Vec<TransferKind>,
    }

    impl ExecVisitor for Recorder {
        fn block(&mut self, block: u32) {
            self.blocks.push(block);
        }
        fn transfer(&mut self, t: Transfer) {
            self.transfers.push(t.kind);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let p = loop_program(0.9);
        let mut a = Recorder::default();
        let mut b = Recorder::default();
        let sa = Walker::new(&p).run(7, &mut a);
        let sb = Walker::new(&p).run(7, &mut b);
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let p = loop_program(0.5);
        let lens: Vec<u64> = (0..16)
            .map(|s| Walker::new(&p).run(s, &mut NullVisitor).blocks)
            .collect();
        assert!(
            lens.iter().any(|&l| l != lens[0]),
            "16 seeds all produced identical walks: {lens:?}"
        );
    }

    #[test]
    fn never_looping_branch_exits_immediately() {
        let p = loop_program(0.0);
        let mut r = Recorder::default();
        let s = Walker::new(&p).run(0, &mut r);
        assert_eq!(s.blocks, 2);
        assert_eq!(
            r.transfers,
            vec![TransferKind::BranchNotTaken, TransferKind::Exit]
        );
        assert!(!s.truncated);
    }

    #[test]
    fn always_looping_branch_truncates_at_limit() {
        let p = loop_program(1.0);
        let limits = ExecLimits {
            max_instructions: 100,
            max_call_depth: 8,
        };
        let s = Walker::new(&p).with_limits(limits).run(0, &mut NullVisitor);
        assert!(s.truncated);
        assert!(s.instructions >= 100);
        // One block beyond the limit at most (limit checked per block).
        assert!(s.instructions < 100 + 5);
    }

    #[test]
    fn loop_length_tracks_probability() {
        // Expected iterations of a geometric loop with p = 0.9 is 10.
        let p = loop_program(0.9);
        let total: u64 = (0..200)
            .map(|s| Walker::new(&p).run(s, &mut NullVisitor).blocks - 1)
            .sum();
        let mean = total as f64 / 200.0;
        assert!(
            (6.0..=14.0).contains(&mean),
            "mean loop iterations {mean} far from expected 10"
        );
    }

    #[test]
    fn calls_and_returns_balance() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.reserve("leaf");
        let mut main = pb.function("main");
        let b0 = main.block_n(1);
        let b1 = main.block_n(1);
        let b2 = main.block_n(0);
        main.terminate(b0, Terminator::call(leaf, b1));
        main.terminate(b1, Terminator::branch(b0, b2, BranchBias::fixed(0.7)));
        main.terminate(b2, Terminator::Exit);
        let mid = main.finish();
        let mut lf = pb.function_reserved(leaf);
        let l0 = lf.block_n(2);
        lf.terminate(l0, Terminator::Return);
        lf.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();

        let s = Walker::new(&p).run(3, &mut NullVisitor);
        assert_eq!(s.calls, s.returns);
        assert!(s.calls >= 1);
    }

    #[test]
    fn return_from_entry_ends_program() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b = f.block_n(1);
        f.terminate(b, Terminator::Return);
        let id = f.finish();
        pb.set_entry(id);
        let p = pb.finish().unwrap();
        let mut r = Recorder::default();
        let s = Walker::new(&p).run(0, &mut r);
        assert_eq!(s.blocks, 1);
        assert_eq!(r.transfers, vec![TransferKind::Return]);
    }

    #[test]
    fn switch_respects_zero_weights() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let s0 = f.block_n(0);
        let never = f.block_n(0);
        let always = f.block_n(0);
        f.terminate(
            s0,
            Terminator::Switch {
                targets: vec![(never, 0), (always, 5)],
            },
        );
        f.terminate(never, Terminator::Exit);
        f.terminate(always, Terminator::Exit);
        let id = f.finish();
        pb.set_entry(id);
        let p = pb.finish().unwrap();

        let walker = Walker::new(&p);
        for seed in 0..32 {
            let mut r = Recorder::default();
            walker.run(seed, &mut r);
            assert_eq!(
                walker.local(r.blocks[1]).1,
                always,
                "zero-weight arm was selected"
            );
        }
    }

    #[test]
    fn runaway_recursion_truncates() {
        let mut pb = ProgramBuilder::new();
        let me = pb.reserve("main");
        let mut f = pb.function_reserved(me);
        let b0 = f.block_n(0);
        let b1 = f.block_n(0);
        f.terminate(b0, Terminator::call(me, b1));
        f.terminate(b1, Terminator::Return);
        f.finish();
        pb.set_entry(me);
        let p = pb.finish().unwrap();
        let limits = ExecLimits {
            max_instructions: u64::MAX,
            max_call_depth: 16,
        };
        let s = Walker::new(&p).with_limits(limits).run(0, &mut NullVisitor);
        assert!(s.truncated);
        assert_eq!(s.calls, 16, "the walk stops at the depth limit");
    }

    #[test]
    fn global_ids_are_dense_and_invert() {
        let mut pb = ProgramBuilder::new();
        let leaf = pb.reserve("leaf");
        let mut main = pb.function("main");
        let m0 = main.block_n(1);
        let m1 = main.block_n(0);
        main.terminate(m0, Terminator::call(leaf, m1));
        main.terminate(m1, Terminator::Exit);
        let mid = main.finish();
        let mut lf = pb.function_reserved(leaf);
        let l0 = lf.block_n(2);
        let l1 = lf.block_n(0);
        lf.terminate(l0, Terminator::jump(l1));
        lf.terminate(l1, Terminator::Return);
        lf.finish();
        pb.set_entry(mid);
        let p = pb.finish().unwrap();

        let walker = Walker::new(&p);
        assert_eq!(walker.block_count(), 4);
        let mut next = 0;
        for (fid, f) in p.functions() {
            for bid in f.block_ids() {
                assert_eq!(walker.local(next), (fid, bid));
                next += 1;
            }
        }
        let mut r = Recorder::default();
        walker.run(0, &mut r);
        // main's entry, leaf's two blocks, then main's continuation.
        assert_eq!(r.blocks, vec![2, 0, 1, 3]);
    }

    #[test]
    fn transfers_name_their_arm() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let s0 = f.block_n(0);
        let a = f.block_n(0);
        let b = f.block_n(0);
        f.terminate(
            s0,
            Terminator::Switch {
                targets: vec![(a, 0), (b, 1)],
            },
        );
        f.terminate(a, Terminator::Exit);
        f.terminate(b, Terminator::branch(a, b, BranchBias::fixed(0.0)));
        let id = f.finish();
        pb.set_entry(id);
        let p = pb.finish().unwrap();

        #[derive(Default)]
        struct Arms(Vec<(TransferKind, u32, u32, Option<u32>)>);
        impl ExecVisitor for Arms {
            fn block(&mut self, _block: u32) {}
            fn transfer(&mut self, t: Transfer) {
                self.0.push((t.kind, t.from, t.arm, t.to));
            }
        }
        let mut arms = Arms::default();
        let limits = ExecLimits {
            max_instructions: 3,
            max_call_depth: 8,
        };
        Walker::new(&p).with_limits(limits).run(0, &mut arms);
        assert_eq!(
            arms.0,
            vec![
                (TransferKind::Switch, 0, 1, Some(2)),
                (TransferKind::BranchNotTaken, 2, 1, Some(2)),
                (TransferKind::BranchNotTaken, 2, 1, Some(2)),
            ]
        );
    }

    /// `(x >> 11) < threshold(p)` decides exactly as the float test
    /// `gen_f64() < p` on the same draw, for any draw and any `p`.
    #[test]
    fn thresholds_decide_exactly_as_the_float_test() {
        const SCALE: f64 = (1u64 << 53) as f64;
        let edges = [
            0.0,
            -0.0,
            1.0,
            0.5,
            1.0 / SCALE,
            1.0 - 1.0 / SCALE,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::from_bits(1),       // smallest subnormal
            f64::NAN,
            -0.25,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        impact_support::check::forall(
            2000,
            |rng| {
                let x = rng.next_u64();
                // Draws near each edge's boundary, plus uniform ones.
                let k = (x >> 11) as f64;
                let p = match rng.gen_below(4) {
                    0 => edges[rng.gen_below(edges.len() as u64) as usize],
                    1 => (k + rng.gen_below(3) as f64 - 1.0) / SCALE,
                    2 => (k + 0.5) / SCALE,
                    _ => rng.gen_f64(),
                };
                (x, p)
            },
            |&(x, p)| {
                let k = x >> 11;
                assert_eq!(k < threshold(p), (k as f64 / SCALE) < p, "x={x:#x} p={p:e}");
            },
        );
        for &p in &edges {
            for k in [0, 1, (1u64 << 52), (1u64 << 53) - 2, (1u64 << 53) - 1] {
                assert_eq!(k < threshold(p), (k as f64 / SCALE) < p, "k={k} p={p:e}");
            }
        }
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(1.0), 1u64 << 53);
        assert_eq!(threshold(f64::NAN), 0);
    }
}
