//! Command line of the MemSnap benchmark.
//!
//! ```text
//! perfbench --workload <serve_zipf|commit_scatter|replicate_wan>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints report lines, then one JSON result line. Exits 1 on any
//! correctness violation and 2 on bad arguments.

use std::process::ExitCode;

use msnap_perfbench::{result_json, run, Params, Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad value for {flag}: {value}: {e}");
        let badf = |e: std::num::ParseFloatError| format!("bad value for {flag}: {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = value.parse::<f64>().map_err(badf)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let params = Params {
        seed: args.seed,
        scale: Scale::Full,
    };
    let result = run(args.workload, &params, args.seconds, args.trace);
    for note in &result.notes {
        println!("# {note}");
    }
    if let Some(spans) = &result.spans {
        let path = format!(
            ".bench_out/spans_{}_{}.tsv",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                spans.write_tsv(&mut w)?;
                std::io::Write::flush(&mut w)
            });
        match written {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => println!("# spans not written: {e}"),
        }
    }
    println!("{}", result_json(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
