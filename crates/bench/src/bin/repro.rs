//! `repro`: prints, writes and asserts the paper's tables and figures
//! from the claims ledger (`diablo_bench::ledger`). At exit it states on
//! stderr what it cost: wall seconds and peak RSS.

use diablo_bench::cli;

fn main() -> std::io::Result<()> {
    let start = std::time::Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows = diablo_bench::ledger::rows();
    let code = cli::run(&args, &rows, &mut std::io::stdout().lock())?;
    if let Some(line) = cli::cost(start) {
        eprintln!("{line}");
    }
    std::process::exit(code)
}
