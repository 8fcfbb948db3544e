//! The `repro` command line: subcommands over the ledger, no flags.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use diablo_chains::Chain;
use diablo_contracts::DApp;
use diablo_core::analysis::{comparison_csv, latency_cdf_dat, throughput_series_dat};
use diablo_net::DeploymentKind::Consortium;

use crate::cache::{Cache, Key, Load, Variant, CONFIGS};
use crate::ledger::Row;

const USAGE: &str = "\
usage: repro <id>...|all [dir]     print the tables, or write <dir>/<id>.txt
       repro assert [<id>...|all]  evaluate the predicates; exit 1 naming each claim that failed
       repro ledger                print the claim -> check map
       repro sweep <dir>           Figures 3 and 2's runs as plot files and a matrix.csv in <dir>";

/// The rows `ids` name (`all`, or nothing, names every row), or the id
/// that names none.
fn select<'a>(rows: &[Row], ids: &'a [String]) -> Result<Vec<Row>, &'a str> {
    let mut picked = Vec::new();
    for id in ids {
        match rows.iter().find(|row| row.id == id) {
            Some(row) => picked.push(*row),
            None if id == "all" => return Ok(rows.to_vec()),
            None => return Err(id),
        }
    }
    Ok(if picked.is_empty() { rows.to_vec() } else { picked })
}

/// Runs `repro` with `args` over `rows`; returns the exit code.
pub fn run(args: &[String], rows: &[Row], out: &mut dyn Write) -> io::Result<i32> {
    let cache = Cache::default();
    let (asserting, ids, dir) = match args {
        [cmd] if cmd == "ledger" => {
            let ledger: String = rows.iter().map(Row::entry).collect();
            write!(out, "{ledger}")?;
            return Ok(0);
        }
        [cmd, dir] if cmd == "sweep" => return sweep(Path::new(dir), out),
        [cmd, ids @ ..] if cmd == "assert" => (true, ids, None),
        // A last argument that names no row is the directory to write to.
        [ids @ .., dir] if !ids.is_empty() && select(rows, std::slice::from_ref(dir)).is_err() => {
            (false, ids, Some(Path::new(dir)))
        }
        ids => (false, ids, None),
    };
    let picked = match select(rows, ids) {
        Ok(picked) if asserting || !ids.is_empty() => picked,
        picked => {
            let unknown = picked.err().map_or(String::new(), |id| format!("no row `{id}`\n"));
            writeln!(out, "repro: {unknown}{USAGE}")?;
            return Ok(2);
        }
    };
    let mut failed = 0;
    for row in picked {
        if asserting {
            let mut report = String::new();
            failed += row.assert(&cache, &mut report);
            write!(out, "{report}")?;
        } else if let Some(dir) = dir {
            let path = dir.join(row.id).with_extension("txt");
            fs::create_dir_all(dir)?;
            fs::write(&path, row.render(&cache))?;
            writeln!(out, "wrote {}", path.display())?;
        } else {
            writeln!(out, "{}", row.render(&cache))?;
        }
    }
    if asserting {
        writeln!(out, "{failed} claim(s) failed")?;
    }
    Ok(i32::from(failed > 0))
}

/// The full matrix, exported for plotting: the Table 2 curves under
/// `<dir>/traces/`, then for every run of Figures 3 and 2 a throughput
/// series and a latency CDF, and one comparison CSV over all of them.
/// Each result is written out and dropped, so none outlives its run.
fn sweep(dir: &Path, out: &mut dyn Write) -> io::Result<i32> {
    fs::create_dir_all(dir.join("traces"))?;
    for dapp in DApp::ALL {
        let w = Load::Trace(dapp).workload();
        let mut dat = String::from("# second submitted_tps\n");
        for (sec, rate) in w.rates().enumerate() {
            let _ = writeln!(dat, "{sec} {rate:.1}");
        }
        fs::write(dir.join("traces").join(w.name()).with_extension("dat"), dat)?;
    }
    let native = |chain| CONFIGS.map(|kind| (chain, kind, Load::Native(1_000)));
    let traced = |dapp| Chain::ALL.map(|chain| (chain, Consortium, Load::Trace(dapp)));
    let fig3 = Chain::ALL.into_iter().flat_map(native);
    let matrix = fig3.chain(DApp::ALL.into_iter().flat_map(traced));
    let mut csv = String::new();
    for (chain, deployment, load) in matrix {
        let key = Key { chain, deployment, load, variant: Variant::Standard };
        let result = key.experiment().run();
        let stem = format!("{}-{chain}-{}", result.workload, deployment.name()).to_lowercase();
        writeln!(out, "{stem}: {}", result.summary())?;
        if result.able() {
            fs::write(dir.join(format!("{stem}.series.dat")), throughput_series_dat(&result))?;
            fs::write(dir.join(format!("{stem}.cdf.dat")), latency_cdf_dat(&result, 400))?;
        }
        let rows = comparison_csv(&[&result]);
        csv.extend(rows.lines().skip(usize::from(!csv.is_empty())).flat_map(|line| [line, "\n"]));
    }
    fs::write(dir.join("matrix.csv"), csv)?;
    writeln!(out, "wrote traces/, matrix.csv and the per-run .dat files to {}", dir.display())?;
    Ok(0)
}

/// What a `repro` process begun at `start` has cost the host so far: its
/// wall seconds and its peak resident set (`VmHWM`), as one line for
/// stderr. `None` where `/proc/self/status` cannot be read.
pub fn cost(start: Instant) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let hwm = status.lines().find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kb: u64 = hwm.trim().strip_suffix("kB")?.trim().parse().ok()?;
    let secs = start.elapsed().as_secs_f64();
    Some(format!("repro: {secs:.2} s wall, {kb} kB peak RSS"))
}
