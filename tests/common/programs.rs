//! Random valid programs for the property tests.

use impact::ir::{BlockId, BranchBias, FuncId, Instr, Program, ProgramBuilder, Terminator};
use impact_support::Rng;

/// A terminator with indices to be resolved modulo the actual counts.
#[derive(Clone, Debug)]
enum TermPlan {
    Jump(usize),
    Branch(usize, usize, u8),
    Switch(Vec<(usize, u32)>),
    Call(usize, usize),
    Return,
    Exit,
}

fn gen_term(rng: &mut Rng) -> TermPlan {
    match rng.gen_below(6) {
        0 => TermPlan::Jump(rng.next_u64() as usize),
        1 => TermPlan::Branch(
            rng.next_u64() as usize,
            rng.next_u64() as usize,
            rng.gen_below(256) as u8,
        ),
        2 => {
            let arms = rng.gen_range_inclusive(1, 3);
            TermPlan::Switch(
                (0..arms)
                    .map(|_| (rng.next_u64() as usize, rng.gen_below(10) as u32))
                    .collect(),
            )
        }
        3 => TermPlan::Call(rng.next_u64() as usize, rng.next_u64() as usize),
        4 => TermPlan::Return,
        _ => TermPlan::Exit,
    }
}

/// Blocks per function: `(body_len, terminator plan)`.
type FuncPlan = Vec<(usize, TermPlan)>;

/// A random valid program: 1–4 functions of 1–7 blocks with every
/// terminator kind, calls (recursion included) and zero-weight switch arms.
pub fn gen_program(rng: &mut Rng) -> Program {
    let nfuncs = rng.gen_range_inclusive(1, 4);
    let plans: Vec<FuncPlan> = (0..nfuncs)
        .map(|_| {
            let nblocks = rng.gen_range_inclusive(1, 7);
            (0..nblocks)
                .map(|_| (rng.gen_below(6) as usize, gen_term(rng)))
                .collect()
        })
        .collect();
    build_program(&plans)
}

fn build_program(plans: &[FuncPlan]) -> Program {
    let mut pb = ProgramBuilder::new();
    let ids: Vec<FuncId> = (0..plans.len())
        .map(|i| pb.reserve(format!("f{i}")))
        .collect();
    for (fi, plan) in plans.iter().enumerate() {
        let mut fb = pb.function_reserved(ids[fi]);
        let blocks: Vec<BlockId> = plan
            .iter()
            .map(|(body, _)| fb.block(vec![Instr::IntAlu; *body]))
            .collect();
        let n = blocks.len();
        for (bi, (_, term)) in plan.iter().enumerate() {
            let resolve = |x: usize| blocks[x % n];
            let t = match term {
                TermPlan::Jump(t) => Terminator::jump(resolve(*t)),
                TermPlan::Branch(a, b, p) => Terminator::branch(
                    resolve(*a),
                    resolve(*b),
                    BranchBias::fixed(f64::from(*p) / 255.0),
                ),
                TermPlan::Switch(targets) => {
                    let mut arms: Vec<(BlockId, u32)> =
                        targets.iter().map(|(t, w)| (resolve(*t), *w)).collect();
                    if arms.iter().all(|(_, w)| *w == 0) {
                        arms[0].1 = 1;
                    }
                    Terminator::Switch { targets: arms }
                }
                TermPlan::Call(f, r) => Terminator::call(ids[*f % ids.len()], resolve(*r)),
                TermPlan::Return => Terminator::Return,
                TermPlan::Exit => Terminator::Exit,
            };
            fb.terminate(blocks[bi], t);
        }
        fb.finish();
    }
    pb.set_entry(ids[0]);
    pb.finish().expect("plans always build valid programs")
}
