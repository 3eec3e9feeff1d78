//! Placement verifiers (`IPA101`–`IPA105`): each violation of a
//! placement's coverage, overlap or alignment becomes a diagnostic.

use impact_ir::BYTES_PER_INSTR;

use crate::diag::{Diagnostic, Location};
use crate::pass::{Context, Pass};

/// `IPA101` — every block of the program must have an address.
///
/// Also catches shape mismatches (a placement assembled for a different
/// program), which the old bool check folded into the same `false`.
pub struct PlacementCoverage;

impl Pass for PlacementCoverage {
    fn code(&self) -> &'static str {
        "IPA101"
    }

    fn name(&self) -> &'static str {
        "placement-coverage"
    }

    fn description(&self) -> &'static str {
        "every block is assigned an address"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let Some(placement) = ctx.placement else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (fid, func) in ctx.program.functions() {
            for (bid, _) in func.blocks() {
                if placement.try_addr(fid, bid).is_none() {
                    out.push(Diagnostic::error(
                        self.code(),
                        Location::block(func.name(), bid.index()),
                        format!("block {bid} of {:?} was never placed", func.name()),
                    ));
                }
            }
        }
        out
    }
}

/// `IPA102` — placed blocks must tile memory exactly: no overlaps, no
/// gaps, ending at `total_bytes`.
pub struct PlacementOverlap;

impl Pass for PlacementOverlap {
    fn code(&self) -> &'static str {
        "IPA102"
    }

    fn name(&self) -> &'static str {
        "placement-overlap"
    }

    fn description(&self) -> &'static str {
        "blocks tile memory without overlaps or gaps"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let Some(placement) = ctx.placement else {
            return Vec::new();
        };
        // (addr, len, function name, block index), address-sorted.
        let mut spans: Vec<(u64, u64, &str, usize)> = Vec::new();
        for (fid, func) in ctx.program.functions() {
            for (bid, block) in func.blocks() {
                if let Some(a) = placement.try_addr(fid, bid) {
                    spans.push((a, block.size_bytes(), func.name(), bid.index()));
                }
            }
        }
        spans.sort_unstable();

        let mut out = Vec::new();
        let mut cursor = 0u64;
        let mut prev: Option<(&str, usize)> = None;
        for (a, len, fname, b) in spans {
            if a < cursor {
                let (pf, pb) = prev.expect("overlap implies a predecessor");
                out.push(Diagnostic::error(
                    self.code(),
                    Location::block(fname, b),
                    format!(
                        "{fname}/b{b} at {a:#x} overlaps {pf}/b{pb}, which extends to {cursor:#x}"
                    ),
                ));
            } else if a > cursor {
                out.push(Diagnostic::error(
                    self.code(),
                    Location::block(fname, b),
                    format!("gap of {} bytes before {fname}/b{b} at {a:#x}", a - cursor),
                ));
            }
            cursor = cursor.max(a + len);
            prev = Some((fname, b));
        }
        if cursor != placement.total_bytes() {
            out.push(Diagnostic::error(
                self.code(),
                Location::program(),
                format!(
                    "placed code ends at {cursor:#x} but the placement claims {:#x} total bytes",
                    placement.total_bytes()
                ),
            ));
        }
        out
    }
}

/// `IPA103` — the effective / non-executed split must be honored.
///
/// Blocks a function layout marked *effective* must live below
/// `effective_bytes`; *non-executed* blocks must live at or above it.
/// With a profile present, any block that actually executed must also be
/// in the effective region — the invariant the paper's Step 4/5 split is
/// built on.
pub struct EffectiveSplit;

impl Pass for EffectiveSplit {
    fn code(&self) -> &'static str {
        "IPA103"
    }

    fn name(&self) -> &'static str {
        "effective-split"
    }

    fn description(&self) -> &'static str {
        "effective and non-executed regions do not interleave"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let Some(placement) = ctx.placement else {
            return Vec::new();
        };
        let split = placement.effective_bytes();
        let mut out = Vec::new();

        if let Some(layouts) = ctx.layouts {
            for (fid, func) in ctx.program.functions() {
                let Some(layout) = layouts.get(fid.index()) else {
                    continue;
                };
                for &b in &layout.effective {
                    if let Some(a) = placement.try_addr(fid, b) {
                        if a >= split {
                            out.push(Diagnostic::error(
                                self.code(),
                                Location::block(func.name(), b.index()),
                                format!(
                                    "effective block {}/{b} placed at {a:#x}, beyond the \
                                     effective region end {split:#x}",
                                    func.name()
                                ),
                            ));
                        }
                    }
                }
                for &b in &layout.non_executed {
                    if let Some(a) = placement.try_addr(fid, b) {
                        if a < split {
                            out.push(Diagnostic::error(
                                self.code(),
                                Location::block(func.name(), b.index()),
                                format!(
                                    "non-executed block {}/{b} placed at {a:#x}, inside the \
                                     effective region (ends {split:#x})",
                                    func.name()
                                ),
                            ));
                        }
                    }
                }
            }
        }

        if let Some(profile) = ctx.profile {
            for (fid, func) in ctx.program.functions() {
                if fid.index() >= profile.funcs.len() {
                    continue;
                }
                for (bid, _) in func.blocks() {
                    if profile.block_weight(fid, bid) == 0 {
                        continue;
                    }
                    if let Some(a) = placement.try_addr(fid, bid) {
                        if a >= split {
                            out.push(Diagnostic::error(
                                self.code(),
                                Location::block(func.name(), bid.index()),
                                format!(
                                    "block {}/{bid} executed {} times but sits in the \
                                     non-executed region at {a:#x}",
                                    func.name(),
                                    profile.block_weight(fid, bid)
                                ),
                            ));
                        }
                    }
                }
            }
        }
        out
    }
}

/// `IPA104` — instruction alignment.
///
/// Every address the model hands out must be a multiple of the (single,
/// fixed) instruction size; a misaligned block breaks the cache-line
/// accounting of every downstream consumer.
pub struct Alignment;

impl Pass for Alignment {
    fn code(&self) -> &'static str {
        "IPA104"
    }

    fn name(&self) -> &'static str {
        "alignment"
    }

    fn description(&self) -> &'static str {
        "all block addresses are instruction-aligned"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let Some(placement) = ctx.placement else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (fid, func) in ctx.program.functions() {
            for (bid, _) in func.blocks() {
                if let Some(a) = placement.try_addr(fid, bid) {
                    if a % BYTES_PER_INSTR != 0 {
                        out.push(Diagnostic::error(
                            self.code(),
                            Location::block(func.name(), bid.index()),
                            format!(
                                "block {}/{bid} at {a:#x} is not {BYTES_PER_INSTR}-byte aligned",
                                func.name()
                            ),
                        ));
                    }
                }
            }
        }
        if placement.total_bytes() % BYTES_PER_INSTR != 0 {
            out.push(Diagnostic::error(
                self.code(),
                Location::program(),
                format!(
                    "total placement size {:#x} is not {BYTES_PER_INSTR}-byte aligned",
                    placement.total_bytes()
                ),
            ));
        }
        out
    }
}

/// `IPA105` — traces broken across the layout.
///
/// A selected trace is meant to run top-to-bottom in memory; when the
/// final addresses of consecutive trace blocks are not adjacent, the
/// trace's sequential locality was lost. The optimized pipeline only
/// breaks traces at the effective/non-executed boundary; a baseline
/// placement breaks many — hence a warning, not an error.
pub struct BrokenTraces;

impl Pass for BrokenTraces {
    fn code(&self) -> &'static str {
        "IPA105"
    }

    fn name(&self) -> &'static str {
        "broken-traces"
    }

    fn description(&self) -> &'static str {
        "selected traces stay contiguous in the final layout"
    }

    fn run(&self, ctx: &Context<'_>) -> Vec<Diagnostic> {
        let (Some(placement), Some(traces)) = (ctx.placement, ctx.traces) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (fid, func) in ctx.program.functions() {
            let Some(ta) = traces.get(fid.index()) else {
                continue;
            };
            for (t, trace) in ta.traces().iter().enumerate() {
                // Zero-weight traces are parked in the non-executed
                // region; their internal order is not a locality promise.
                let executed = ctx
                    .profile
                    .is_none_or(|p| trace.iter().any(|&b| p.block_weight(fid, b) > 0));
                if !executed {
                    continue;
                }
                let mut breaks = 0usize;
                for pair in trace.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    let (Some(addr_a), Some(addr_b)) =
                        (placement.try_addr(fid, a), placement.try_addr(fid, b))
                    else {
                        continue; // IPA101 reports unplaced blocks.
                    };
                    if addr_a + func.block(a).size_bytes() != addr_b {
                        breaks += 1;
                    }
                }
                if breaks > 0 {
                    out.push(Diagnostic::warning(
                        self.code(),
                        Location::trace(func.name(), t),
                        format!(
                            "trace {t} of {:?} ({} blocks) is broken at {breaks} of its \
                             {} internal transitions",
                            func.name(),
                            trace.len(),
                            trace.len() - 1
                        ),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, FuncId, Program, ProgramBuilder, Terminator};
    use impact_layout::baseline;
    use impact_layout::pipeline::{Pipeline, PipelineConfig};
    use impact_layout::placement::Placement;

    use super::*;
    use crate::pass::Registry;

    fn looped_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let helper = pb.reserve("helper");
        let mut main = pb.function("main");
        let m0 = main.block_n(2);
        let m1 = main.block_n(1);
        let m2 = main.block_n(0);
        let dead = main.block_n(6);
        main.terminate(m0, Terminator::call(helper, m1));
        main.terminate(m1, Terminator::branch(m0, m2, BranchBias::fixed(0.8)));
        main.terminate(m2, Terminator::Exit);
        main.terminate(dead, Terminator::jump(m2));
        let mid = main.finish();
        let mut h = pb.function_reserved(helper);
        let h0 = h.block_n(3);
        h.terminate(h0, Terminator::Return);
        h.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    /// Address table of a placement, for corruption.
    fn raw_addrs(p: &Program, placement: &Placement) -> Vec<Vec<u64>> {
        p.functions()
            .map(|(fid, f)| {
                f.block_ids()
                    .map(|b| placement.try_addr(fid, b).unwrap_or(u64::MAX))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pipeline_placement_passes_all_verifiers() {
        let p = looped_program();
        let r = Pipeline::new(PipelineConfig::default()).run(&p);
        let ctx = crate::pass::Context::of_result(&r);
        let report = Registry::placement_verifiers().run(&ctx);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn missing_address_fires_coverage() {
        let p = looped_program();
        let natural = baseline::natural(&p);
        let main = p.entry().index();
        let mut addrs = raw_addrs(&p, &natural);
        addrs[main][1] = u64::MAX;
        let broken = Placement::from_raw(
            addrs,
            natural.func_order().to_vec(),
            natural.effective_bytes(),
            natural.total_bytes(),
        );
        let ctx = crate::pass::Context::program_only(&p).with_placement(&broken);
        let diags = PlacementCoverage.run(&ctx);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "IPA101");
    }

    #[test]
    fn overlap_and_gap_fire_overlap_check() {
        let p = looped_program();
        let natural = baseline::natural(&p);
        let mut addrs = raw_addrs(&p, &natural);
        // Two blocks at the same address: an overlap, and a gap where the
        // displaced block used to be.
        let main = p.entry().index();
        addrs[main][1] = addrs[main][0];
        let broken = Placement::from_raw(
            addrs,
            natural.func_order().to_vec(),
            natural.effective_bytes(),
            natural.total_bytes(),
        );
        let ctx = crate::pass::Context::program_only(&p).with_placement(&broken);
        let diags = PlacementOverlap.run(&ctx);
        assert!(diags.iter().any(|d| d.message.contains("overlaps")));
        assert!(diags.iter().any(|d| d.message.contains("gap")));
        assert!(diags.iter().all(|d| d.code == "IPA102"));
    }

    #[test]
    fn executed_block_in_cold_region_fires_split_check() {
        let p = looped_program();
        let r = Pipeline::new(PipelineConfig {
            inline: None,
            ..PipelineConfig::default()
        })
        .run(&p);
        // Swap the dead block with a hot one: both directions violate the
        // split (and the layouts disagree with the addresses).
        let main = r.program.entry().index();
        let mut addrs = raw_addrs(&r.program, &r.placement);
        addrs[main].swap(0, 3);
        let broken = Placement::from_raw(
            addrs,
            r.placement.func_order().to_vec(),
            r.placement.effective_bytes(),
            r.placement.total_bytes(),
        );
        let ctx = crate::pass::Context::of_result(&r).with_placement(&broken);
        let diags = EffectiveSplit.run(&ctx);
        assert!(diags.iter().any(|d| d.code == "IPA103"));
        assert!(diags.iter().any(|d| d.message.contains("executed")));
    }

    #[test]
    fn misaligned_address_fires_alignment() {
        let p = looped_program();
        let natural = baseline::natural(&p);
        let main = p.entry().index();
        let mut addrs = raw_addrs(&p, &natural);
        addrs[main][0] += 2;
        let broken = Placement::from_raw(
            addrs,
            natural.func_order().to_vec(),
            natural.effective_bytes(),
            natural.total_bytes(),
        );
        let ctx = crate::pass::Context::program_only(&p).with_placement(&broken);
        let diags = Alignment.run(&ctx);
        assert!(diags
            .iter()
            .any(|d| d.code == "IPA104" && d.location == Location::block("main", 0)));
    }

    #[test]
    fn random_baseline_breaks_pipeline_traces() {
        let p = looped_program();
        let r = Pipeline::new(PipelineConfig::default()).run(&p);
        let scrambled = baseline::random(&r.program, 7);
        let ctx = crate::pass::Context::of_result(&r).with_placement(&scrambled);
        let diags = BrokenTraces.run(&ctx);
        assert!(
            diags.iter().any(|d| d.code == "IPA105"),
            "a random placement of {} traces should break at least one",
            r.traces.iter().map(|t| t.trace_count()).sum::<usize>()
        );
        // The optimized placement keeps its own (executed) traces whole.
        let clean = BrokenTraces.run(&crate::pass::Context::of_result(&r));
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn shape_mismatch_is_diagnosed_not_panicked() {
        let p = looped_program();
        // A placement with too few functions and blocks entirely.
        let broken = Placement::from_raw(vec![vec![0]], vec![FuncId::new(0)], 4, 4);
        let ctx = crate::pass::Context::program_only(&p).with_placement(&broken);
        let diags = PlacementCoverage.run(&ctx);
        // Every block except main/b0 is reported unplaced.
        let total_blocks: usize = p.functions().map(|(_, f)| f.block_count()).sum();
        assert_eq!(diags.len(), total_blocks - 1);
    }
}
