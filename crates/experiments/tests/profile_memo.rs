//! The session's profile memo changes no result: a memoized pipeline run
//! equals a plain one for every configuration the table runners re-run,
//! the memo never lets two different programs share a profile, and the
//! tables that use it print the same bytes at any `--jobs`.

use impact_experiments::prepare::{pipeline_config, Budget};
use impact_experiments::tables::{min_prob, t9};
use impact_ir::{BranchBias, Function, Program, Terminator};
use impact_layout::pipeline::{Pipeline, PipelineConfig, PipelineResult};
use impact_layout::scale::scale_code;
use impact_profile::ProfileMemo;

fn assert_same(what: &str, memoized: &PipelineResult, plain: &PipelineResult) {
    assert_eq!(memoized.program, plain.program, "{what}: program");
    assert_eq!(memoized.placement, plain.placement, "{what}: placement");
    assert_eq!(memoized.profile, plain.profile, "{what}: profile");
    assert_eq!(
        memoized.pre_inline_profile, plain.pre_inline_profile,
        "{what}: pre_inline_profile"
    );
    assert_eq!(
        memoized.trace_quality, plain.trace_quality,
        "{what}: trace_quality"
    );
    assert_eq!(
        memoized.inline_report, plain.inline_report,
        "{what}: inline_report"
    );
}

/// Every `(program, config)` pair `minprob`, `table9`, `ablation` and
/// `score` re-run, through one shared memo, against plain runs.
#[test]
fn memoized_pipeline_equals_plain_runs_for_every_table_config() {
    let memo = ProfileMemo::new();
    for name in ["grep", "wc"] {
        let w = impact_workloads::by_name(name).unwrap();
        let standard = pipeline_config(&w, &Budget::fast());
        let mut runs: Vec<(String, Program, PipelineConfig)> = Vec::new();
        for factor in t9::FACTORS {
            runs.push((
                format!("{name} table9 x{factor}"),
                scale_code(&w.program, factor),
                standard.clone(),
            ));
        }
        for min_prob in min_prob::THRESHOLDS {
            let config = PipelineConfig {
                min_prob,
                ..standard.clone()
            };
            runs.push((
                format!("{name} minprob {min_prob}"),
                w.program.clone(),
                config,
            ));
        }
        let no_inline = PipelineConfig {
            inline: None,
            ..standard.clone()
        };
        runs.push((format!("{name} inline-off"), w.program.clone(), no_inline));
        for (what, program, config) in &runs {
            let pipeline = Pipeline::new(config.clone());
            assert_same(
                what,
                &pipeline.run_memoized(program, &memo),
                &pipeline.run(program),
            );
        }
    }
    // The thresholds and the inline-off run share the 1.0x prefix.
    assert!(
        memo.walked() < memo.requested() / 2,
        "{} walks for {} requests",
        memo.walked(),
        memo.requested()
    );
}

/// `program` with every function rebuilt through `edit(index, function)`.
fn rebuilt(program: &Program, edit: impl Fn(usize, &Function) -> Function) -> Program {
    let funcs = program
        .functions()
        .map(|(fid, f)| edit(fid.index(), f))
        .collect();
    Program::from_parts(funcs, program.entry()).expect("edited program stays valid")
}

/// `program` with the first conditional branch's bias moved slightly.
fn one_bias_changed(program: &Program) -> Program {
    let (fid, bid) = program
        .functions()
        .flat_map(|(fid, f)| f.blocks().map(move |(bid, b)| (fid, bid, b)))
        .find(|(_, _, b)| matches!(b.terminator(), Terminator::Branch { .. }))
        .map(|(fid, bid, _)| (fid, bid))
        .expect("workload has a conditional branch");
    rebuilt(program, |i, f| {
        let mut f = f.clone();
        if i == fid.index() {
            let block = f.block_mut(bid);
            if let Terminator::Branch {
                taken,
                not_taken,
                bias,
            } = *block.terminator()
            {
                let base = if bias.base > 0.5 {
                    bias.base - 0.01
                } else {
                    bias.base + 0.01
                };
                block.set_terminator(Terminator::Branch {
                    taken,
                    not_taken,
                    bias: BranchBias { base, ..bias },
                });
            }
        }
        f
    })
}

/// `program` with its entry function renamed.
fn entry_renamed(program: &Program) -> Program {
    let entry = program.entry().index();
    rebuilt(program, |i, f| {
        if i == entry {
            let blocks = f.blocks().map(|(_, b)| b.clone()).collect();
            Function::from_parts(format!("{}_renamed", f.name()), blocks, f.entry())
        } else {
            f.clone()
        }
    })
}

/// Programs that differ in one branch bias, one block size or one name
/// never share an entry: each is walked and gets its own profile.
#[test]
fn memo_keeps_near_identical_programs_apart() {
    let w = impact_workloads::by_name("wc").unwrap();
    let base = w.program.clone();
    let variants = [
        ("base", base.clone()),
        ("one branch bias", one_bias_changed(&base)),
        ("scale 0.5", scale_code(&base, 0.5)),
        ("entry renamed", entry_renamed(&base)),
    ];
    for (i, (a, pa)) in variants.iter().enumerate() {
        for (b, pb) in &variants[i + 1..] {
            assert_ne!(pa, pb, "{a} and {b} must differ");
        }
    }
    let config = pipeline_config(&w, &Budget::fast());
    let profiler = config.profiler();
    let memo = ProfileMemo::new();
    for (what, program) in &variants {
        assert_eq!(
            memo.profile(&profiler, program),
            profiler.profile(program),
            "{what}"
        );
    }
    assert_eq!(memo.walked(), variants.len() as u64);
    assert_eq!(memo.len(), variants.len());
}

/// The tables that re-run the pipeline through the memo print the same
/// bytes whatever the worker count, so which thread walks a shared
/// profile first never shows in the output.
#[test]
fn memoized_tables_are_identical_for_any_job_count() {
    let run = |jobs: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "minprob", "table9", "ablation", "score", "--fast", "--jobs", jobs,
            ])
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "repro --jobs {jobs} failed");
        out.stdout
    };
    assert_eq!(run("1"), run("2"), "table bytes must not depend on --jobs");
}
