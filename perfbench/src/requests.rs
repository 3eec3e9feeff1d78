//! Seeded `/v1/simulate` request bodies for `serve_cold`.
//!
//! The benchmark seed draws `(program, input seed)` pairs from the ten
//! paper workloads; the program travels as impact-asm text, so every
//! request exercises the service's asm and JSON parsers.

use std::collections::HashSet;

use impact_cache::CacheConfig;
use impact_ir::Program;
use impact_profile::ExecLimits;
use impact_support::json::Json;
use impact_support::Rng;
use impact_workloads::Workload;

/// Dynamic instruction cap sent with every body. Long enough that the
/// trace walk and simulation dominate a cold request, short enough that
/// a run completes the 1,000+ requests a p99 needs.
pub const MAX_INSTRS: u64 = 400_000;

/// Exclusive bound on drawn input seeds: JSON numbers are doubles, so
/// seeds stay well inside the exactly representable integers.
const SEED_BOUND: u64 = 1 << 40;

/// The two cache configurations of every body: the paper's 2 KB / 64 B
/// direct-mapped headline cache and an 8 KB / 32 B one, so the lane bank
/// simulates two block geometries per trace.
#[must_use]
pub fn configs() -> [CacheConfig; 2] {
    [
        CacheConfig::direct_mapped(2048, 64),
        CacheConfig::direct_mapped(8192, 32),
    ]
}

/// Execution limits matching [`MAX_INSTRS`] (the service's call-depth cap).
#[must_use]
pub fn limits() -> ExecLimits {
    ExecLimits {
        max_instructions: MAX_INSTRS,
        max_call_depth: 512,
    }
}

/// One drawn request: workload index and input seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Draw {
    /// Index into [`Programs::workloads`].
    pub program: usize,
    /// Input seed sent in the body.
    pub seed: u64,
}

/// The ten paper workloads with their impact-asm text, JSON-escaped once.
pub struct Programs {
    /// The workload models, in `impact_workloads::all()` order.
    pub workloads: Vec<Workload>,
    /// `workloads[i].program` printed as impact-asm text.
    pub asm: Vec<String>,
    /// The same text quoted as a JSON string.
    pub asm_json: Vec<String>,
}

impl Programs {
    /// Builds the workload models and prints their asm text.
    #[must_use]
    pub fn load() -> Self {
        let workloads = impact_workloads::all();
        let asm: Vec<String> = workloads
            .iter()
            .map(|w| impact_asm::print_program(&w.program))
            .collect();
        let asm_json = asm
            .iter()
            .map(|a| Json::Str(a.clone()).to_string())
            .collect();
        Self {
            workloads,
            asm,
            asm_json,
        }
    }

    /// The program a draw refers to.
    #[must_use]
    pub fn program(&self, draw: Draw) -> &Program {
        &self.workloads[draw.program].program
    }

    /// The `/v1/simulate` body for `draw`.
    #[must_use]
    pub fn body(&self, draw: Draw) -> String {
        format!(
            "{{\"program\": {}, \"seed\": {}, \"max_instrs\": {MAX_INSTRS}, \"layout\": \"natural\", \
             \"configs\": [{{\"size\": 2048, \"block\": 64}}, {{\"size\": 8192, \"block\": 32}}]}}",
            self.asm_json[draw.program], draw.seed
        )
    }
}

/// `count` distinct draws from the benchmark seed over `programs`
/// workloads. Programs come in rounds, each a seeded permutation of all
/// of them, so any stretch of consecutive requests carries nearly the
/// same mix of cheap and costly programs; input seeds are drawn freely.
#[must_use]
pub fn draws(seed: u64, count: usize, programs: usize) -> Vec<Draw> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut round: Vec<usize> = (0..programs).collect();
    while out.len() < count {
        rng.shuffle(&mut round);
        for &program in round.iter().take(count - out.len()) {
            loop {
                let draw = Draw {
                    program,
                    seed: rng.gen_below(SEED_BOUND),
                };
                if seen.insert(draw) {
                    out.push(draw);
                    break;
                }
            }
        }
    }
    out
}
