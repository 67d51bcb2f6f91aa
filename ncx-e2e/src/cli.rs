//! The command line both binaries share.

use crate::inputs::Params;
use crate::spec::Spec;
use crate::workload::{fresh_dir, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut seen = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad("must be in (0, 60]"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
        seen.push(flag.as_str());
    }
    for required in ["--workload", "--seed", "--seconds", "--trace"] {
        if !seen.contains(&required) {
            return Err(format!("missing {required}"));
        }
    }
    Ok(parsed)
}

/// Scratch space inside the checkout: `work/` beside this package's
/// manifest (git-ignored), one directory per process.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// What a binary does with a parsed command line: one workload, full size.
pub type RunFn = fn(&Args, &Params, &Spec, &Workload, &Path) -> Result<(String, bool), String>;

/// `main` of both binaries. `traced` is the `--trace` value this binary
/// serves; `run.sh` picks the binary by it.
pub fn main_with(run: RunFn, traced: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let checked = parse_args(&argv).and_then(|args| {
        if args.trace != traced {
            return Err(format!(
                "this binary serves --trace {}; run.sh picks the other one for --trace {}",
                u8::from(traced),
                u8::from(args.trace)
            ));
        }
        let wl = Workload::by_name(&args.workload)
            .filter(|w| spec.workloads.iter().any(|n| n == w.name))
            .ok_or_else(|| {
                format!(
                    "unknown workload `{}`; BENCHMARK.json lists {:?}",
                    args.workload, spec.workloads
                )
            })?;
        Ok((args, wl))
    });
    let (args, wl) = match checked {
        Ok(ok) => ok,
        Err(why) => {
            eprintln!("ncx-e2e: {why}");
            eprintln!("usage: run.sh --workload <name> --seed <u64> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let work = fresh_dir(&work_root().join(format!("run-{}", std::process::id())));
    let outcome = run(&args, &Params::full(), &spec, wl, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok((text, correct)) => {
            print!("{text}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(why) => {
            eprintln!("ncx-e2e: {why}");
            ExitCode::from(2)
        }
    }
}
