//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the full record (provenance, configuration, every figure with
//! its sample count) as one JSON line, then the result line: `correct`,
//! `attempted`, `failed` and `metrics`.
//! Exits 1 if any result was wrong, 2 on bad arguments.

use ajx_perfbench::report::{self, json_obj, json_str, num};
use ajx_perfbench::workloads::{self, Opts};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <point_4k|seq_64k|repair_lrc|fleet_mux> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let opts = Opts {
        seed: seed.unwrap_or_else(|| usage("--seed must be a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds must be a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace must be 0 or 1")),
        tiny: false,
    };
    let out = workloads::run(&workload, &opts)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    let correct = out.wrong == 0;

    let mut record = vec![
        ("workload".to_string(), json_str(&workload)),
        ("seed".to_string(), opts.seed.to_string()),
        ("seconds".to_string(), num(opts.seconds)),
        ("trace".to_string(), opts.trace.to_string()),
        ("command".to_string(), json_str(&argv.join(" "))),
        ("git_rev".to_string(), json_str(&report::git_rev())),
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "gf_backend".to_string(),
            json_str(ajx_gf::kernel::active_backend().name()),
        ),
        ("attempted".to_string(), out.attempted.to_string()),
        ("errors".to_string(), out.errors.to_string()),
        ("wrong".to_string(), out.wrong.to_string()),
        (
            "failed_frac".to_string(),
            num(out.failed() as f64 / out.attempted.max(1) as f64),
        ),
    ];
    record.extend(out.record.iter().cloned());
    println!("{}", json_obj(&[("record".to_string(), json_obj(&record))]));
    println!("{}", report::result_line(&out, correct));
    if !correct {
        std::process::exit(1);
    }
}
