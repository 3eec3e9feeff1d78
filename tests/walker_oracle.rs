//! Equivalence of the lowered walker with the reference tree
//! interpreter (`common::reference`), over the paper workloads, the
//! extended set and random programs, across seeds and truncating limits.
//!
//! Four layers are compared: (a) the walk itself — block sequence,
//! transfers and summary; (b) `Profiler::profile` against a profile
//! counted straight into `BTreeMap`s; (c) `TraceGenerator::stream`'s
//! fetch runs against the placement-lookup emitter; (d) `MultiLane`
//! statistics over both streams.

use std::cell::RefCell;

use impact::cache::{AccessSink, Associativity, CacheConfig, MultiLane};
use impact::ir::{BlockId, FuncId, Program};
use impact::layout::{baseline, Placement};
use impact::profile::{ExecLimits, ExecSummary, ExecVisitor, Profiler, Transfer, Walker};
use impact::trace::TraceGenerator;
use impact_support::check::forall;

mod common;
use common::programs::gen_program;
use common::reference::{self, RefTransfer, RefVisitor};

const SEEDS: [u64; 4] = [0, 1, 7, TraceGenerator::DEFAULT_EVAL_SEED];

/// A roomy budget, an instruction-limit truncation and a call-depth
/// truncation.
const LIMITS: [ExecLimits; 3] = [
    ExecLimits {
        max_instructions: 60_000,
        max_call_depth: 512,
    },
    ExecLimits {
        max_instructions: 2_500,
        max_call_depth: 512,
    },
    ExecLimits {
        max_instructions: 60_000,
        max_call_depth: 1,
    },
];

/// One recorded event, in `(function, block)` terms.
#[derive(Debug, PartialEq, Eq)]
enum Event {
    Block(FuncId, BlockId),
    Transfer(RefTransfer),
}

/// Records the reference walker's events.
#[derive(Default)]
struct RefLog(Vec<Event>);

impl RefVisitor for RefLog {
    fn block(&mut self, func: FuncId, block: BlockId) {
        self.0.push(Event::Block(func, block));
    }
    fn transfer(&mut self, t: RefTransfer) {
        self.0.push(Event::Transfer(t));
    }
}

/// Records the lowered walker's events, translating global ids back.
struct Log<'w> {
    walker: &'w Walker,
    events: Vec<Event>,
}

impl ExecVisitor for Log<'_> {
    fn block(&mut self, block: u32) {
        let (f, b) = self.walker.local(block);
        self.events.push(Event::Block(f, b));
    }
    fn transfer(&mut self, t: Transfer) {
        let (from_func, from_block) = self.walker.local(t.from);
        self.events.push(Event::Transfer(RefTransfer {
            kind: t.kind,
            from_func,
            from_block,
            to: t.to.map(|g| self.walker.local(g)),
        }));
    }
}

/// Records fetch runs.
#[derive(Default, Debug, PartialEq, Eq)]
struct Runs(Vec<(u64, u64)>);

impl AccessSink for Runs {
    fn access(&mut self, addr: u64) {
        self.0.push((addr, 1));
    }
    fn access_run(&mut self, addr: u64, words: u64) {
        self.0.push((addr, words));
    }
}

fn lanes() -> MultiLane {
    MultiLane::new([
        CacheConfig::direct_mapped(1024, 64),
        CacheConfig::direct_mapped(4096, 32).with_associativity(Associativity::Ways(2)),
    ])
}

/// How many walks each truncation ended, to show both were exercised.
#[derive(Default)]
struct Endings {
    instr_truncated: usize,
    depth_truncated: usize,
}

impl Endings {
    fn note(&mut self, s: &ExecSummary, limits: ExecLimits) {
        if s.truncated && s.instructions >= limits.max_instructions {
            self.instr_truncated += 1;
        } else if s.truncated {
            self.depth_truncated += 1;
        }
    }
}

/// Checks (a)–(d) for `program` under every seed and limit set, with the
/// natural placement and one shuffled placement.
fn check(program: &Program, endings: &mut Endings) {
    let placements: [Placement; 2] = [baseline::natural(program), baseline::random(program, 3)];
    for limits in LIMITS {
        let walker = Walker::new(program).with_limits(limits);
        for seed in SEEDS {
            // (a) the walk itself.
            let mut expected = RefLog::default();
            let ref_summary = reference::walk(program, limits, seed, &mut expected);
            let mut got = Log {
                walker: &walker,
                events: Vec::new(),
            };
            let summary = walker.run(seed, &mut got);
            assert_eq!(summary, ref_summary, "summary, seed {seed}, {limits:?}");
            assert!(got.events == expected.0, "events, seed {seed}, {limits:?}");
            endings.note(&summary, limits);

            // (c) fetch runs and (d) lane statistics, per placement.
            for placement in &placements {
                let gen = TraceGenerator::new(program, placement).with_limits(limits);
                let mut want = Runs::default();
                let s = reference::stream(program, placement, limits, seed, &mut want);
                let mut runs = Runs::default();
                assert_eq!(gen.stream(seed, &mut runs), s);
                assert_eq!(runs, want, "runs, seed {seed}, {limits:?}");

                let (mut a, mut b) = (lanes(), lanes());
                reference::stream(program, placement, limits, seed, &mut a);
                gen.stream(seed, &mut b);
                assert_eq!(a.stats(), b.stats(), "lanes, seed {seed}, {limits:?}");
            }
        }
        // (b) the profile, over runs starting at two base seeds.
        for base_seed in [0, 41] {
            let profiler = Profiler::new().runs(3).base_seed(base_seed).limits(limits);
            assert_eq!(
                profiler.profile(program),
                reference::profile(program, 3, base_seed, limits),
                "profile, base seed {base_seed}, {limits:?}"
            );
        }
    }
}

#[test]
fn paper_workloads_walk_profile_and_trace_as_the_reference() {
    let mut endings = Endings::default();
    for w in impact::workloads::all() {
        check(&w.program, &mut endings);
    }
    assert!(endings.instr_truncated > 0 && endings.depth_truncated > 0);
}

#[test]
fn extended_workloads_walk_profile_and_trace_as_the_reference() {
    let mut endings = Endings::default();
    for w in impact::workloads::extended() {
        check(&w.program, &mut endings);
    }
    assert!(endings.instr_truncated > 0);
}

#[test]
fn random_programs_walk_profile_and_trace_as_the_reference() {
    let endings = RefCell::new(Endings::default());
    forall(64, gen_program, |program| {
        check(program, &mut endings.borrow_mut());
    });
    let endings = endings.into_inner();
    assert!(endings.instr_truncated > 0 && endings.depth_truncated > 0);
}
