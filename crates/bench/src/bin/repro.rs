//! `repro`: prints, writes and asserts the paper's tables and figures
//! from the claims ledger (`diablo_bench::ledger`).

fn main() -> std::io::Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows = diablo_bench::ledger::rows();
    std::process::exit(diablo_bench::cli::run(&args, &rows, &mut std::io::stdout().lock())?)
}
