//! `sgq-benchmark`: the repo's benchmark. See `README.md`.
//!
//! One run = one workload under one seed: set up (several times, for a
//! steady `setup_s`), measure for `--seconds`, verify every op's rows
//! against the oracle, print every metric by name with its unit, and end
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` measures the end-to-end metrics with all tracing off;
//! `--trace 1` is the separate traced run that gives the per-layer ones.

mod expected;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use expected::DEFAULT_SEED;
use layers::{parse_json, JsonValue};
use metrics::Value;
use workloads::{Kind, Mode, Pass, Seeds, Workload};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
/// A seed no size or bound was tuned on (as `--seed` and as
/// `--data-seed`); `--check-repeat` and claims of later PRs must also
/// hold on it.
const HELD_OUT_SEED: u64 = 0x0dd_ba11;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str = "usage: sgq-benchmark --workload <replay-rel|replay-graph|replay-dop|prepare-cold|serve-mixed|all>
           [--seed N] [--data-seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
       sgq-benchmark --write-expected
       sgq-benchmark --check-repeat [--seed N] [--data-seed N] [--seconds S]";

struct Options {
    workload: Option<String>,
    /// Seeds the op stream (`--seed`).
    seed: u64,
    /// Seeds the dataset generators (`--data-seed`).
    data_seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    write_expected: bool,
    check_repeat: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        data_seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
        write_expected: false,
        check_repeat: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = parse_seed(value()?).ok_or("--seed: not a number")?,
            "--data-seed" => {
                o.data_seed = parse_seed(value()?).ok_or("--data-seed: not a number")?
            }
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds: out of range (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--write-expected" => o.write_expected = true,
            "--check-repeat" => o.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

/// Where the run happened — printed with every run.
fn machine(o: &Options) -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |key| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    JsonValue::obj([
        ("nproc", JsonValue::Int(nproc as u64)),
        ("query_threads", JsonValue::Int(workloads::threads() as u64)),
        ("cpu", JsonValue::Str(cpu)),
        // `run.sh` exports these; a bare binary run reports "unknown".
        ("rustc", JsonValue::Str(env("SGQ_RUSTC"))),
        ("commit", JsonValue::Str(env("SGQ_COMMIT"))),
        ("seed", JsonValue::Int(o.seed)),
        ("data_seed", JsonValue::Int(o.data_seed)),
    ])
}

/// What one run of one workload produced.
struct Report {
    metrics: Vec<Value>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The highest percentile that still has ten samples beyond it:
    /// `(percentile, ms, timed ops)`.
    tail: Option<(u32, f64, usize)>,
    per_query: JsonValue,
}

/// Sets up `SETUPS` times (each includes one untimed warm-up round) and
/// keeps the last; returns the workload, its warm-up and `setup_s`.
fn set_up(kind: Kind, o: &Options, setups: usize) -> (Box<dyn Workload>, Pass, f64) {
    let mut times = Vec::new();
    let mut kept: Option<(Box<dyn Workload>, Pass)> = None;
    for _ in 0..setups {
        if let Some((mut old, _)) = kept.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let seeds = Seeds {
            ops: o.seed,
            data: o.data_seed,
        };
        kept = Some(workloads::setup(kind, seeds, o.smoke));
        times.push(t.elapsed().as_secs_f64());
    }
    let (workload, warm_up) = kept.expect("at least one set-up");
    (workload, warm_up, stats::median(&times))
}

fn run(kind: Kind, o: &Options) -> Result<Report, String> {
    // Only an end-to-end run reports `setup_s`, so only it repeats set-up.
    let setups = if o.trace || o.smoke { 1 } else { SETUPS };
    let (mut w, mut warm_up, setup_s) = set_up(kind, o, setups);
    // Verification is outside `setup_s` and outside the timed section.
    let expected = expected::for_workload(&*w, o.data_seed)?;
    w.verify(&expected, &mut warm_up);
    let budget = Duration::from_secs_f64(o.seconds);
    let stmts = w.stmts().to_vec();

    let mut passes: Vec<(Mode, Pass)> = Vec::new();
    if o.trace {
        let (modes, alternate) = w.trace_modes();
        passes = modes.iter().map(|&m| (m, Pass::default())).collect();
        // Alternating modes round by round exposes all of them to the
        // same drift, so their ratio (the tracing overhead) is steadier.
        let slice = if alternate {
            Duration::ZERO
        } else {
            budget.div_f64(modes.len() as f64)
        };
        let start = Instant::now();
        while {
            for (mode, pass) in &mut passes {
                w.run_slice(*mode, slice, pass);
            }
            start.elapsed() < budget
        } {}
    } else {
        let mut pass = Pass::default();
        w.run_slice(Mode::PLAIN, budget, &mut pass);
        passes.push((Mode::PLAIN, pass));
    }
    let last = passes.len() - 1;
    w.verify(&expected, &mut passes[last].1);

    // One row per statement: the optimisation-time / execution-time shape.
    let per_query = |extra: &dyn Fn(usize) -> Vec<(&'static str, JsonValue)>| {
        let rows = stmts.iter().enumerate().map(|(i, s)| {
            let mut row = vec![
                ("dataset", JsonValue::str(s.dataset.as_str())),
                ("query", JsonValue::str(s.name)),
                ("approach", JsonValue::str(s.approach.tag())),
                ("rows", JsonValue::Int(expected[i].rows)),
            ];
            row.extend(extra(i));
            JsonValue::obj(row)
        });
        JsonValue::Arr(rows.collect())
    };
    let (metrics, measured, per_query) = if o.trace {
        let spans = &passes
            .iter()
            .find(|(m, _)| *m == Mode::SPANS)
            .expect("a traced run has a spans pass")
            .1;
        write_trace(kind, spans)?;
        let col = |f: &dyn Fn(&workloads::RoundTrace) -> f64| {
            JsonValue::Num(stats::median(
                &spans.traces.iter().map(f).collect::<Vec<_>>(),
            ))
        };
        let table = per_query(&|i| {
            vec![
                ("optimisation_us", col(&|t| t.stmt_opt_us[i])),
                ("execution_us", col(&|t| t.stmt_exec_us[i])),
            ]
        });
        (metrics::per_layer(&passes, w.setup_layers()), spans, table)
    } else {
        let pass = &passes[0].1;
        let medians = metrics::stmt_medians(pass, stmts.len());
        let table = per_query(&|i| {
            vec![(
                "op_p50_ms",
                medians[i].map_or(JsonValue::Null, JsonValue::Num),
            )]
        });
        (metrics::end_to_end(pass, &stmts, setup_s), pass, table)
    };
    let latencies: Vec<f64> = measured.samples.iter().map(|&(_, ms)| ms).collect();
    let tail = stats::highest_supported_percentile(&latencies);
    w.shutdown();

    let mut report = Report {
        metrics,
        attempted: warm_up.attempted,
        failed: warm_up.failed,
        failures: warm_up.failures,
        tail,
        per_query,
    };
    for (_, pass) in passes {
        report.attempted += pass.attempted;
        report.failed += pass.failed;
        report.failures.extend(pass.failures);
    }
    Ok(report)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the spans of the last traced round as Chrome trace events.
fn write_trace(kind: Kind, spans: &Pass) -> Result<(), String> {
    let tracks: Vec<&[spans::Span]> = spans.last_spans.iter().map(Vec::as_slice).collect();
    let path = out_dir().join(format!("{}.trace.json", kind.name()));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, spans::chrome_trace(&tracks).render()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {}", path.display());
    Ok(())
}

fn metrics_json(metrics: &[Value]) -> JsonValue {
    JsonValue::Obj(
        metrics
            .iter()
            .map(|(name, v, unit)| {
                let entry = JsonValue::obj([
                    ("value", JsonValue::Num(*v)),
                    ("unit", JsonValue::str(*unit)),
                ]);
                (name.clone(), entry)
            })
            .collect(),
    )
}

/// Runs one workload, prints it, optionally writes the full report, and
/// ends with the one-line JSON result.
fn run_and_print(kind: Kind, o: &Options) -> Result<bool, String> {
    let machine = machine(o);
    println!("machine: {}", machine.render());
    println!(
        "workload: {} seed={:#x} data-seed={:#x} seconds={} trace={} smoke={}",
        kind.name(),
        o.seed,
        o.data_seed,
        o.seconds,
        u8::from(o.trace),
        o.smoke
    );
    let report = run(kind, o)?;
    for (name, v, unit) in &report.metrics {
        println!("  {name:<40} {v:>16.4} {unit}");
    }
    match report.tail {
        Some((p, ms, n)) => println!(
            "  op latency over {n} timed ops; highest percentile with >= {} samples beyond it: p{p} = {ms:.4} ms",
            stats::MIN_BEYOND
        ),
        None => println!("  too few timed ops for any latency percentile"),
    }
    println!("  attempted {} failed {}", report.attempted, report.failed);
    for why in &report.failures {
        println!("  FAILED {why}");
    }
    let correct = report.failed == 0;
    if let Some(path) = &o.out {
        let full = JsonValue::obj([
            ("workload", JsonValue::str(kind.name())),
            ("machine", machine),
            ("seconds", JsonValue::Num(o.seconds)),
            ("trace", JsonValue::Bool(o.trace)),
            ("correct", JsonValue::Bool(correct)),
            ("attempted", JsonValue::Int(report.attempted)),
            ("failed", JsonValue::Int(report.failed)),
            ("metrics", metrics_json(&report.metrics)),
            ("per_query", report.per_query),
            ("claim", JsonValue::Null),
        ]);
        std::fs::write(path, full.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let result = JsonValue::obj([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::Int(report.attempted)),
        ("failed", JsonValue::Int(report.failed)),
        ("metrics", metrics_json(&report.metrics)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

/// Runs one workload in a fresh process (so `peak_rss_mb` and caches
/// start clean) and returns its full report.
fn child(kind: Kind, o: &Options, trace: bool, tag: &str) -> Result<JsonValue, String> {
    let out = out_dir().join(format!("{}.{tag}.json", kind.name()));
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--data-seed", &o.data_seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out);
    if o.smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child to end.
    let status = cmd.status().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!(
            "{} (trace {trace}) exited with {status}",
            kind.name()
        ));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    parse_json(&text)
}

/// `--workload all`: every workload, both passes, one merged report.
fn run_all(o: &Options) -> Result<bool, String> {
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let e2e = child(kind, o, false, "e2e")?;
        let traced = child(kind, o, true, "layers")?;
        let part = |doc: &JsonValue, key| doc.get(key).cloned().unwrap_or(JsonValue::Null);
        workloads.push((
            kind.name().to_string(),
            JsonValue::obj([
                ("end_to_end", part(&e2e, "metrics")),
                ("per_layer", part(&traced, "metrics")),
                ("per_query_end_to_end", part(&e2e, "per_query")),
                ("per_query_layers", part(&traced, "per_query")),
            ]),
        ));
    }
    if let Some(path) = &o.out {
        let full = JsonValue::obj([
            ("benchmark", JsonValue::str("sgq-benchmark")),
            ("machine", machine(o)),
            ("default_seed", JsonValue::Int(DEFAULT_SEED)),
            ("held_out_seed", JsonValue::Int(HELD_OUT_SEED)),
            ("seconds", JsonValue::Num(o.seconds)),
            ("workloads", JsonValue::Obj(workloads)),
            ("claim", JsonValue::Null),
        ]);
        let pretty = full.render().replace("}, \"", "},\n\"") + "\n";
        std::fs::write(path, pretty).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(true)
}

/// Counts that must repeat exactly on the single-threaded workloads.
const EXACT: [&str; 9] = [
    "core.closures_eliminated",
    "core.reverted",
    "core.empty",
    "core.disjuncts_out",
    "core.atoms_out",
    "ra.exec.rows_materialized",
    "ra.exec.hash_builds",
    "ra.exec.fixpoint_rounds",
    "ra.exec.scans",
];

fn metric(doc: &JsonValue, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN)
}

/// `--check-repeat`: every workload twice, back to back, in fresh
/// processes; fails if an end-to-end metric differs between the two by
/// more than its own bound, or a deterministic count differs at all.
fn check_repeat(o: &Options) -> Result<bool, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = parse_json(&std::fs::read_to_string(path).map_err(|e| e.to_string())?)?;
    let bounds: Vec<(String, f64, bool)> = manifest
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
                m.get("better")?.as_str()? == "lower",
            ))
        })
        .collect();
    let mut ok = true;
    let mut table = vec!["| workload | metric | first | second | change | bound |".to_string()];
    table.push("|---|---|---|---|---|---|".to_string());
    for kind in Kind::ALL {
        let (a, b) = (
            child(kind, o, false, "repeat-a")?,
            child(kind, o, false, "repeat-b")?,
        );
        for (name, bound, lower) in &bounds {
            let (x, y) = (metric(&a, name), metric(&b, name));
            // How much worse the second run is, as a share of the first.
            let worse = if *lower { y / x - 1.0 } else { 1.0 - y / x };
            let within = worse.abs() <= *bound;
            ok &= within;
            table.push(format!(
                "| {} | {name} | {x:.4} | {y:.4} | {:+.2} % | {:.0} %{} |",
                kind.name(),
                worse * 100.0,
                bound * 100.0,
                if within { "" } else { " **exceeded**" }
            ));
        }
        if a.get("failed") != b.get("failed") {
            ok = false;
            table.push(format!(
                "| {} | failed | differs | | | exact |",
                kind.name()
            ));
        }
        let (a, b) = (
            child(kind, o, true, "repeat-a")?,
            child(kind, o, true, "repeat-b")?,
        );
        if kind != Kind::ReplayDop && kind != Kind::ServeMixed {
            for name in EXACT {
                let (x, y) = (metric(&a, name), metric(&b, name));
                if x != y {
                    ok = false;
                    table.push(format!(
                        "| {} | {name} | {x} | {y} | **differs** | exact |",
                        kind.name()
                    ));
                }
            }
        }
    }
    println!(
        "\ncheck-repeat, seed {:#x}, data seed {:#x}:\n{}",
        o.seed,
        o.data_seed,
        table.join("\n")
    );
    println!("check-repeat: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn write_expected() -> Result<bool, String> {
    for spec in Kind::all_datasets() {
        let path =
            expected::write(&layers::generate(spec, DEFAULT_SEED)).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|o| {
        if o.write_expected {
            write_expected()
        } else if o.check_repeat {
            check_repeat(&o)
        } else {
            match o.workload.as_deref() {
                Some("all") => run_all(&o),
                Some(name) => match Kind::from_name(name) {
                    Some(kind) => run_and_print(kind, &o),
                    None => Err(format!("unknown workload {name}\n{USAGE}")),
                },
                None => Err(USAGE.to_string()),
            }
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("sgq-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--smoke`: all five workloads, both passes and the trace writer
    /// at Fig. 2-like sizes.
    #[test]
    fn smoke_runs_every_workload_end_to_end_and_traced() {
        let start = Instant::now();
        for kind in Kind::ALL {
            for trace in [false, true] {
                let o = Options {
                    workload: None,
                    seed: DEFAULT_SEED,
                    data_seed: DEFAULT_SEED,
                    seconds: 0.05,
                    trace,
                    out: None,
                    smoke: true,
                    write_expected: false,
                    check_repeat: false,
                };
                let report = run(kind, &o).unwrap();
                assert_eq!(report.failed, 0, "{}: {:?}", kind.name(), report.failures);
                assert!(report.attempted > 0);
                let defs = if trace {
                    metrics::per_layer_defs()
                } else {
                    metrics::end_to_end_defs()
                };
                let names: Vec<&String> = report.metrics.iter().map(|m| &m.0).collect();
                assert_eq!(names, defs.iter().map(|d| &d.0).collect::<Vec<_>>());
                assert!(
                    report.metrics.iter().all(|m| m.1.is_finite()),
                    "{}",
                    kind.name()
                );
                if !trace {
                    // End-to-end metrics are never 0.
                    assert!(
                        report.metrics.iter().all(|m| m.1 > 0.0),
                        "{:?}",
                        report.metrics
                    );
                }
            }
            let trace = out_dir().join(format!("{}.trace.json", kind.name()));
            let doc = parse_json(&std::fs::read_to_string(trace).unwrap()).unwrap();
            assert!(!doc.get("traceEvents").unwrap().as_arr().unwrap().is_empty());
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "smoke must stay quick"
        );
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("0x5eed0011"), Some(DEFAULT_SEED));
        assert_eq!(parse_seed("17"), Some(17));
        assert_eq!(parse_seed("x"), None);
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = parse_args(&args(
            "--workload replay-rel --seed 3 --seconds 2 --trace 1",
        ))
        .unwrap();
        assert!(o.trace && o.seed == 3 && o.seconds == 2.0);
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--bogus")).is_err());
    }
}
