//! `kdom-perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics when `--trace 0`, the per-layer metrics when
//! `--trace 1`. Exits non-zero when any operation failed or any output
//! failed its certificate. `--workload all` runs every workload in a
//! child process of its own (so each reports its own peak memory) and
//! prints one line per workload before a combined line.

use std::process::{Command, ExitCode};

use kdom_perfbench::metrics::{Outcome, END_TO_END, PER_LAYER};
use kdom_perfbench::workloads::{run, Config, Scale, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds {} must be positive", args.seconds));
    }
    Ok(args)
}

/// Clears every `KDOM_*` variable, naming each: `fast_mst` and the
/// engine read their configuration from the environment, and a leftover
/// `KDOM_THREADS` or `KDOM_TRACE` would silently change what is timed.
fn clear_kdom_env() {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("KDOM_"))
        .collect();
    for k in set {
        eprintln!("kdom-perfbench: clearing {k} so the library runs its defaults");
        std::env::remove_var(k);
    }
}

/// Runs each workload in a child process and combines their result lines.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("kdom-perfbench: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut combined = Vec::new();
    for w in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let line = match &out {
            Ok(o) => String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .unwrap_or("")
                .to_string(),
            Err(e) => format!("{{\"error\": \"{e}\"}}"),
        };
        ok &= out.as_ref().is_ok_and(|o| o.status.success());
        println!("{} {line}", w.name());
        combined.push(format!("\"{}\": {line}", w.name()));
    }
    println!(
        "{{\"correct\": {ok}, \"workloads\": {{{}}}}}",
        combined.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kdom-perfbench: {e}");
            eprintln!("usage: kdom-perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    clear_kdom_env();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    if nproc < 2 {
        eprintln!(
            "kdom-perfbench: {nproc} CPU available; bfs_gnm_1m times 2 engine threads and \
             serve_mix one pool worker per CPU, so at least 2 are needed"
        );
        return ExitCode::from(2);
    }
    eprintln!("kdom-perfbench: nproc={nproc}");
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        eprintln!(
            "kdom-perfbench: unknown workload {:?} (one of {}, or all)",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::Full,
    };
    let outcome: Outcome = run(workload, &cfg, args.trace);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", outcome.to_json(table));
    if outcome.correct(table) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
