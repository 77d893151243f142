//! `girbench` — the repository's one benchmark. See `README.md` in this
//! directory for the workloads, the metrics and how to read the output.
//!
//! ```text
//! girbench --workload <name>|--all [--seed <u64>] [--trace [0|1]]
//!          [--selfcheck] [--seconds <f>]
//! ```

mod engines;
mod gen;
mod json;
mod ledger;
mod measure;
mod oracle;
mod shadow;
mod trace;
mod workloads;

use json::Json;
use measure::Report;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, DEFAULT_SEED, END_TO_END, NOMINAL_SECONDS, PER_LAYER, WORKLOADS};

/// Environment knobs of the program that would change what is measured.
const SCRUBBED_ENV: [&str; 4] = [
    "GIR_FORCE_PATH",
    "GIR_OBS",
    "GIR_POOL_THREADS",
    "GIR_POOL_MIN_ITEMS",
];

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    trace: bool,
    selfcheck: bool,
    /// Nominal run length. Op counts are fixed, so that hit, miss and
    /// repair counts repeat exactly; they apply as written at
    /// [`NOMINAL_SECONDS`] and stretch with this.
    seconds: f64,
}

impl Args {
    fn scale(&self) -> f64 {
        self.seconds / NOMINAL_SECONDS
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
        v.parse().map_err(|_| format!("{flag}: cannot read {v}"))
    }
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        trace: false,
        selfcheck: false,
        seconds: NOMINAL_SECONDS,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--all" => args.all = true,
            "--selfcheck" => args.selfcheck = true,
            "--seed" => args.seed = num(flag, value()?)?,
            "--seconds" => args.seconds = num(flag, value()?)?,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".to_string());
    }
    Ok(args)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

fn json_strings(xs: &[&str]) -> String {
    let quoted: Vec<String> = xs.iter().map(|x| format!("\"{x}\"")).collect();
    format!("[{}]", quoted.join(","))
}

/// One line per metric, then the result object the driver reads.
fn print_report(w: &Workload, report: &Report) {
    for m in &report.metrics {
        // An end-to-end metric carries its regression bound, a per-layer
        // metric the end-to-end metrics and workloads it should move.
        let rest = if let Some(e) = END_TO_END.iter().find(|e| e.name == m.name) {
            format!(
                "\"better\":\"{}\",\"bound\":{}",
                better(e.higher_is_better),
                json_num(e.bound)
            )
        } else {
            let l = PER_LAYER
                .iter()
                .find(|l| l.name == m.name)
                .expect("every printed metric is in the catalogue");
            format!(
                "\"better\":\"{}\",\"bound\":null,\"moves\":{},\"on\":{}",
                better(l.higher_is_better),
                json_strings(l.moves.metrics),
                json_strings(l.moves.on)
            )
        };
        println!(
            "{{\"workload\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"value\":{},\"samples\":{},{rest}}}",
            w.name,
            m.name,
            m.unit,
            json_num(m.value),
            m.samples,
        );
    }
    for note in report.notes.iter().chain(&report.gate_violations) {
        eprintln!("# {}: {note}", w.name);
    }
    eprintln!(
        "# {}: attempted {} failed {} failed_share {} verified {}",
        w.name,
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        report.verified,
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}

fn header(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = if gir_core::pool::would_parallelize(2, usize::MAX) {
        nproc
    } else {
        1
    };
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    eprintln!(
        "# girbench nproc={nproc} pool_threads={pool} commit={commit} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace
    );
}

fn run_in_process(w: &Workload, args: &Args) -> Report {
    let artifacts = measure::artifacts_dir();
    if args.trace {
        ledger::run(w, args.seed, args.scale(), &artifacts)
    } else {
        measure::run(w, args.seed, args.scale(), &artifacts)
    }
}

/// Runs one workload in a process of its own (peak RSS is per process)
/// and returns its result object; its output passes through.
fn run_child(w: &Workload, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().ok_or("no output")?;
    let result = Json::parse(last)?;
    if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{} failed ({})", w.name, out.status));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs per set of a self-check.
const SELFCHECK_RUNS: usize = 3;

/// Two sets of runs of `w` on this build, taken alternately, and every
/// end-to-end metric's two medians held to the metric's own bound — what
/// the driver does with ten runs a set, in little.
fn selfcheck(w: &Workload, args: &Args) -> Result<bool, String> {
    let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..SELFCHECK_RUNS {
        for set in &mut sets {
            set.push(run_child(w, args, false)?);
        }
    }
    let mut ok = true;
    for e in END_TO_END {
        let mut medians = [0.0; 2];
        for (median, set) in medians.iter_mut().zip(&sets) {
            let mut values = set
                .iter()
                .map(|r| metric_value(r, e.name))
                .collect::<Option<Vec<f64>>>()
                .ok_or_else(|| format!("{}: {} missing from a result", w.name, e.name))?;
            *median = measure::median_f64(&mut values);
        }
        let [a, b] = medians;
        let diff = (b - a).abs() / a.abs();
        let within = diff <= e.bound;
        ok &= within;
        println!(
            "{{\"workload\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"first\":{},\"second\":{},\"rel_diff\":{},\"bound\":{},\"ok\":{within}}}",
            w.name,
            e.name,
            e.unit,
            json_num(a),
            json_num(b),
            json_num(diff),
            json_num(e.bound)
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    for key in SCRUBBED_ENV {
        std::env::remove_var(key);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("girbench: {e}");
            return ExitCode::from(2);
        }
    };
    let chosen: Vec<&Workload> = match &args.workload {
        None => WORKLOADS.iter().collect(),
        Some(name) => match workloads::find(name) {
            Some(w) => vec![w],
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("girbench: unknown workload {name}; one of {names:?}");
                return ExitCode::from(2);
            }
        },
    };
    header(&args);
    if !args.all && !args.selfcheck {
        let report = run_in_process(chosen[0], &args);
        print_report(chosen[0], &report);
        return if report.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut ok = true;
    for w in chosen {
        let outcome = if args.selfcheck {
            selfcheck(w, &args)
        } else {
            run_child(w, &args, args.trace).map(|_| true)
        };
        match outcome {
            Ok(passed) => ok &= passed,
            Err(e) => {
                eprintln!("girbench: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json`, found by walking up from this package.
    fn benchmark_json() -> Json {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                let text = std::fs::read_to_string(candidate).unwrap();
                return Json::parse(&text).unwrap();
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the package");
        }
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or("")
    }

    #[test]
    fn benchmark_json_is_the_catalogue() {
        let spec = benchmark_json();
        let listed: Vec<(&str, &str)> = spec
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);

        let e2e = spec.get("end_to_end").unwrap().as_array();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, ours) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(listed, "name"), ours.name);
            assert_eq!(field(listed, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(field(listed, "better"), better(ours.higher_is_better));
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(ours.bound));
        }
        let layers = spec.get("per_layer").unwrap().as_array();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (listed, ours) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(listed, "name"), ours.name);
            assert_eq!(field(listed, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(field(listed, "better"), better(ours.higher_is_better));
            // What a layer metric should move must exist.
            for metric in ours.moves.metrics {
                assert!(END_TO_END.iter().any(|e| e.name == *metric), "{metric}");
            }
            for workload in ours.moves.on {
                assert!(workloads::find(workload).is_some(), "{workload}");
            }
        }
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(NOMINAL_SECONDS)
        );
        let paths: Vec<&str> = spec
            .get("paths")
            .unwrap()
            .as_array()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["crates/bench/src/bin/girbench"]);
    }

    fn names(report: &Report) -> Vec<(&str, &str)> {
        report
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect()
    }

    /// Every workload, untraced and traced, at 1/50 of its op counts:
    /// no failed op, every catalogued metric exactly once with its unit
    /// and none besides, the ledger computed and the spans written. One
    /// test, because the traced run installs a process-wide collector.
    #[test]
    fn smoke_every_workload_at_small_scale() {
        let artifacts = measure::artifacts_dir();
        let seed = DEFAULT_SEED;
        let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|e| (e.name, e.unit)).collect();
        let layers: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        for w in WORKLOADS {
            let plain = measure::run(w, seed, 0.02, &artifacts);
            assert_eq!(plain.failed, 0, "{}: {:?}", w.name, plain.notes);
            assert!(plain.verified > 0, "{}", w.name);
            assert_eq!(names(&plain), e2e, "{}", w.name);
            for m in &plain.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {}",
                    w.name,
                    m.name
                );
            }

            let traced = ledger::run(w, seed, 0.02, &artifacts);
            assert_eq!(traced.failed, 0, "{}: {:?}", w.name, traced.notes);
            assert_eq!(names(&traced), layers, "{}", w.name);
            for m in &traced.metrics {
                assert!(m.value.is_finite(), "{} {}", w.name, m.name);
            }
            assert!(traced.value("girbench.ledger.closure_read").unwrap() > 0.0);
            if w.stream.updates_per_cycle > 0 {
                assert!(traced.value("girbench.ledger.closure_write").unwrap() > 0.0);
            }
            assert!(artifacts.join(format!("trace-{}.json", w.name)).exists());
        }
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        assert!(parse_args(&argv("--workload x --trace")).unwrap().trace);
        assert!(
            parse_args(&argv("--workload x --trace 1 --seed 3"))
                .unwrap()
                .trace
        );
        let off = parse_args(&argv("--workload x --seed 3 --seconds 5 --trace 0")).unwrap();
        assert!(!off.trace);
        assert_eq!(off.seed, 3);
        assert_eq!(off.scale(), 0.5);
        assert!(parse_args(&argv("--all --workload x")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
