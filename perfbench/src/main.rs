//! Command-line entry point of the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload prove --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints progress and failures to stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! A traced run also writes its spans as Chrome trace JSON under
//! `.perfbench-out/`.

use pipemap_perfbench::{result_json, run, trace, Size, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\n\
         usage: perfbench --workload prove|search --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::Prove,
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut seen_workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value {value:?} for {flag}")) };
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::parse(&value).unwrap_or_else(|| bad());
                seen_workload = true;
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| bad()),
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !seen_workload {
        usage("--workload is required");
    }
    args
}

fn main() {
    let a = parse_args();
    let out = match run(a.workload, Size::Full, a.seed, a.seconds, a.traced) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    for p in &out.problems {
        eprintln!("perfbench: FAILED {p}");
    }
    eprintln!(
        "perfbench: {} seed {}: {} round(s), (cpu, wall s, peak MiB) {:?}, {} set-up(s)",
        a.workload.name(),
        a.seed,
        out.rounds.len(),
        out.rounds
            .iter()
            .map(|r| (
                r.cpu,
                (r.timed_s * 1e3).round() / 1e3,
                (r.peak_rss_mb * 10.0).round() / 10.0
            ))
            .collect::<Vec<_>>(),
        out.setup_s.len(),
    );
    if a.traced {
        let dir = std::path::Path::new(".perfbench-out");
        let path = dir.join(format!("trace-{}-seed{}.json", a.workload.name(), a.seed));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&out.spans)));
        match written {
            Ok(()) => eprintln!(
                "perfbench: {} span(s) -> {}",
                out.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&out, a.traced));
}
