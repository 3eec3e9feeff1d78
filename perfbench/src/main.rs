//! `perfbench [--impact-bin PATH] --workload <repro_all|serve_cold>
//! --seed N --seconds S --trace 0|1`
//!
//! Prints a run record line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--record-digests`
//! prints the table digests of the current tree instead (see
//! `digests.rs`).

use std::process::ExitCode;

use impact_perfbench::{report, Options};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--record-digests"] {
        for (label, text, json) in impact_perfbench::repro::table_outputs() {
            println!(
                "    (\"{label}\", \"{}\", \"{}\"),",
                impact_perfbench::digests::sha256_hex(&text),
                impact_perfbench::digests::sha256_hex(&json)
            );
        }
        return ExitCode::SUCCESS;
    }
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench [--impact-bin PATH] --workload <repro_all|serve_cold> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = impact_perfbench::run(&opts);
    println!("{}", outcome.run_record(&opts));
    println!(
        "{}",
        report::result_line(&outcome.tally, &outcome.printed(opts.trace))
    );
    ExitCode::SUCCESS
}
