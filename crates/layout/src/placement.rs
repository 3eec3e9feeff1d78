//! Byte-addressed memory maps assembled from layout decisions.

use impact_ir::{BlockId, FuncId, Program};

use crate::function_layout::FunctionLayout;
use crate::global_layout::GlobalOrder;

/// A complete instruction placement: every basic block of a program
/// assigned a byte address.
///
/// Code starts at address 0 and is contiguous; the *effective* (executed)
/// regions of all functions come first, followed by every *non-executed*
/// region — exactly the split the paper's global layout produces. For
/// baseline placements (no region split) the non-executed span is empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// `block_addr[f][b]` — byte address of block `b` of function `f`.
    block_addr: Vec<Vec<u64>>,
    /// Function placement order.
    func_order: Vec<FuncId>,
    /// Bytes in effective regions (equals `total_bytes` for baselines).
    effective_bytes: u64,
    /// Total placed bytes.
    total_bytes: u64,
}

impl Placement {
    /// Assembles the optimized placement: effective regions of all
    /// functions in global DFS order, then non-executed regions in the
    /// same order.
    ///
    /// # Panics
    ///
    /// Panics if `layouts` is not indexed by function id over all of
    /// `program`'s functions.
    #[must_use]
    pub fn assemble(program: &Program, global: &GlobalOrder, layouts: &[FunctionLayout]) -> Self {
        assert_eq!(
            layouts.len(),
            program.function_count(),
            "one layout per function required"
        );
        let mut block_addr: Vec<Vec<u64>> = program
            .functions()
            .map(|(_, f)| vec![u64::MAX; f.block_count()])
            .collect();

        let mut cursor = 0u64;
        for &fid in global.order() {
            let func = program.function(fid);
            for &b in &layouts[fid.index()].effective {
                block_addr[fid.index()][b.index()] = cursor;
                cursor += func.block(b).size_bytes();
            }
        }
        let effective_bytes = cursor;
        for &fid in global.order() {
            let func = program.function(fid);
            for &b in &layouts[fid.index()].non_executed {
                block_addr[fid.index()][b.index()] = cursor;
                cursor += func.block(b).size_bytes();
            }
        }

        Self {
            block_addr,
            func_order: global.order().to_vec(),
            effective_bytes,
            total_bytes: cursor,
        }
    }

    /// Assembles a placement where each function is contiguous (no
    /// effective/non-executed split): functions in `func_order`, blocks of
    /// each function in the order given by `block_orders[f]`.
    ///
    /// Used by the baseline layouts.
    ///
    /// # Panics
    ///
    /// Panics if the orders do not cover the program exactly.
    #[must_use]
    pub fn contiguous(
        program: &Program,
        func_order: &[FuncId],
        block_orders: &[Vec<BlockId>],
    ) -> Self {
        assert_eq!(func_order.len(), program.function_count());
        assert_eq!(block_orders.len(), program.function_count());
        let mut block_addr: Vec<Vec<u64>> = program
            .functions()
            .map(|(_, f)| vec![u64::MAX; f.block_count()])
            .collect();

        let mut cursor = 0u64;
        for &fid in func_order {
            let func = program.function(fid);
            assert_eq!(
                block_orders[fid.index()].len(),
                func.block_count(),
                "block order of {fid} must cover the function"
            );
            for &b in &block_orders[fid.index()] {
                block_addr[fid.index()][b.index()] = cursor;
                cursor += func.block(b).size_bytes();
            }
        }

        Self {
            block_addr,
            func_order: func_order.to_vec(),
            effective_bytes: cursor,
            total_bytes: cursor,
        }
    }

    /// Builds a placement directly from raw per-block addresses, with no
    /// validation whatsoever.
    ///
    /// This exists for tools that need to model *corrupted* placements —
    /// notably the `impact-analyze` lint tests, which seed deliberate
    /// violations (overlaps, gaps, misalignment) and assert the verifier
    /// passes catch them. Production code should use [`Placement::assemble`]
    /// or [`Placement::contiguous`].
    #[must_use]
    pub fn from_raw(
        block_addr: Vec<Vec<u64>>,
        func_order: Vec<FuncId>,
        effective_bytes: u64,
        total_bytes: u64,
    ) -> Self {
        Self {
            block_addr,
            func_order,
            effective_bytes,
            total_bytes,
        }
    }

    /// Byte address of block `b` of function `f`.
    ///
    /// # Panics
    ///
    /// Panics if the block was never placed (placement construction
    /// guarantees all blocks are placed, so this indicates misuse of the
    /// indices).
    #[must_use]
    pub fn addr(&self, f: FuncId, b: BlockId) -> u64 {
        let a = self.block_addr[f.index()][b.index()];
        assert_ne!(a, u64::MAX, "{f}/{b} was never placed");
        a
    }

    /// Byte address of block `b` of function `f`, or `None` if the indices
    /// are out of range or the block was never assigned an address.
    ///
    /// Unlike [`Placement::addr`] this never panics, which makes it the
    /// right accessor for verifiers that must diagnose malformed
    /// placements instead of crashing on them.
    #[must_use]
    pub fn try_addr(&self, f: FuncId, b: BlockId) -> Option<u64> {
        let a = *self.block_addr.get(f.index())?.get(b.index())?;
        if a == u64::MAX {
            None
        } else {
            Some(a)
        }
    }

    /// Total placed bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Bytes belonging to effective (executed) regions.
    #[must_use]
    pub fn effective_bytes(&self) -> u64 {
        self.effective_bytes
    }

    /// Function placement order.
    #[must_use]
    pub fn func_order(&self) -> &[FuncId] {
        &self.func_order
    }
}

#[cfg(test)]
mod tests {
    use impact_ir::{BranchBias, ProgramBuilder, Terminator};
    use impact_profile::Profiler;

    use crate::function_layout::FunctionLayout;
    use crate::global_layout::GlobalOrder;
    use crate::trace_select::TraceSelector;

    use super::*;

    fn two_function_program() -> impact_ir::Program {
        let mut pb = ProgramBuilder::new();
        let helper = pb.reserve("helper");
        let mut main = pb.function("main");
        let m0 = main.block_n(2);
        let m1 = main.block_n(1);
        let m2 = main.block_n(0);
        let m_dead = main.block_n(5);
        main.terminate(m0, Terminator::call(helper, m1));
        main.terminate(m1, Terminator::branch(m0, m2, BranchBias::fixed(0.6)));
        main.terminate(m2, Terminator::Exit);
        main.terminate(m_dead, Terminator::jump(m2));
        let mid = main.finish();
        let mut h = pb.function_reserved(helper);
        let h0 = h.block_n(3);
        h.terminate(h0, Terminator::Return);
        h.finish();
        pb.set_entry(mid);
        pb.finish().unwrap()
    }

    fn optimized(program: &impact_ir::Program) -> Placement {
        let prof = Profiler::new().runs(4).profile(program);
        let selector = TraceSelector::new();
        let layouts: Vec<FunctionLayout> = program
            .functions()
            .map(|(fid, func)| {
                let ta = selector.select(func, fid, &prof);
                FunctionLayout::compute(func, fid, &ta, &prof)
            })
            .collect();
        let global = GlobalOrder::compute(program, &prof);
        Placement::assemble(program, &global, &layouts)
    }

    #[test]
    fn assembled_placement_is_valid() {
        // Full validity is checked by the IPA verifier in
        // `tests/verify_placements.rs`; here: every block has an address
        // and the span is exact.
        let p = two_function_program();
        let placement = optimized(&p);
        for (fid, func) in p.functions() {
            for bid in func.block_ids() {
                assert!(placement.try_addr(fid, bid).is_some());
            }
        }
        assert_eq!(placement.total_bytes(), p.total_bytes());
    }

    #[test]
    fn dead_code_lands_after_all_effective_code() {
        let p = two_function_program();
        let placement = optimized(&p);
        let main = p.entry();
        let dead_addr = placement.addr(main, BlockId::new(3));
        assert!(dead_addr >= placement.effective_bytes());
        // helper's single (executed) block is inside the effective span.
        let helper = p.function_by_name("helper").unwrap();
        assert!(placement.addr(helper, BlockId::new(0)) < placement.effective_bytes());
    }

    #[test]
    fn effective_bytes_counts_executed_blocks_only() {
        let p = two_function_program();
        let placement = optimized(&p);
        // Executed blocks: main m0 (12B), m1 (8B), m2 (4B), helper h0 (16B).
        assert_eq!(placement.effective_bytes(), 40);
        // Dead block m_dead: 24B.
        assert_eq!(placement.total_bytes(), 64);
    }

    #[test]
    fn contiguous_places_in_declared_order() {
        let p = two_function_program();
        let func_order: Vec<FuncId> = p.function_ids().collect();
        let block_orders: Vec<Vec<BlockId>> = p
            .functions()
            .map(|(_, f)| f.block_ids().collect())
            .collect();
        let placement = Placement::contiguous(&p, &func_order, &block_orders);
        assert_eq!(placement.effective_bytes(), placement.total_bytes());
        // First function id is "helper" (reserved first), placed at 0.
        let first = func_order[0];
        let f = p.function(first);
        assert_eq!(placement.addr(first, f.entry()), 0);
    }

    #[test]
    #[should_panic(expected = "one layout per function")]
    fn assemble_rejects_wrong_layout_count() {
        let p = two_function_program();
        let prof = Profiler::new().runs(2).profile(&p);
        let global = GlobalOrder::compute(&p, &prof);
        let _ = Placement::assemble(&p, &global, &[]);
    }
}
