//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints the run record, then, as the last line
//! of standard output, one JSON object with the metrics. A traced run
//! also writes its spans to `out/spans-<workload>-<seed>.tsv` in this
//! package's directory.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

use perfbench::workloads::{Kind, Sizes};
use perfbench::{run, Options, Outcome};

const USAGE: &str = "usage: perfbench --workload <gpu-suite|llc-replay|llc-retention|oracle-fuzz> \
                     [--seed <u64>] [--seconds <0..=60>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=60.0).contains(s))
                    .ok_or_else(|| format!("--seconds {value}: expected 0 to 60"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        sizes: Sizes::RUN,
    })
}

fn write_spans(o: &Options, out: &Outcome) -> std::io::Result<()> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{}.tsv", o.kind.name(), o.seed));
    let mut w = BufWriter::new(fs::File::create(path)?);
    writeln!(w, "## setup")?;
    out.setup_spans.write_tsv(&mut w)?;
    writeln!(w, "## reps")?;
    out.rep_spans.write_tsv(&mut w)?;
    w.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    if opts.trace {
        if let Err(e) = write_spans(&opts, &outcome) {
            eprintln!("perfbench: could not write spans: {e}");
        }
    }
    println!("{}", outcome.record_line());
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
