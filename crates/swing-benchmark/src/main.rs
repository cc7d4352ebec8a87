//! `swing-benchmark`: the repository's one benchmark.
//!
//! ```text
//! swing-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! swing-benchmark all    [--seed <n>] [--seconds <s>] [--trace] [--quick]
//! swing-benchmark repeat [--seed <n>] [--seconds <s>] [--quick]
//! swing-benchmark probes [--seed <n>] [--quick]
//! swing-benchmark list   [--json]
//! ```
//!
//! (`coldstarts --workload <name>` is what a run starts for `setup_s`.)
//!
//! The first form is what the benchmark driver runs: one workload in
//! one process, one JSON result object as the last line of stdout.
//! `all` and `repeat` re-execute this binary once per workload, so CPU
//! and peak-RSS accounting start clean for each. See README.md.

mod live;
mod metrics;
mod probes;
mod procstat;
mod stats;
mod trace;
mod workloads;

use live::RunOpts;
use metrics::{
    every_workload, Better, Outcome, BY_HAND, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  swing-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  swing-benchmark all    [--seed <n>] [--seconds <s>] [--trace] [--quick]
  swing-benchmark repeat [--seed <n>] [--seconds <s>] [--quick]
  swing-benchmark probes [--seed <n>] [--quick]
  swing-benchmark list   [--json]";

const QUICK_SECONDS: f64 = 2.0;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    /// Set by `all --trace` on its children: it has already run the
    /// layer probes once, in a process of their own.
    no_probes: bool,
    json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                a.seconds = Some(s);
            }
            // The driver passes `--trace 0|1`; by hand a bare `--trace`
            // reads better. Accept both.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                    a.trace = false;
                }
                Some("1") => {
                    it.next();
                    a.trace = true;
                }
                _ => a.trace = true,
            },
            "--quick" => a.quick = true,
            "--no-probes" => a.no_probes = true,
            "--json" => a.json = true,
            "all" | "repeat" | "probes" | "coldstarts" | "list" if a.command.is_none() => {
                a.command = Some(arg.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("swing-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        f64::from(RUN_SECONDS)
    });
    let result = match (args.command.as_deref(), &args.workload) {
        (None, Some(w)) => run_one(w, &args, seconds),
        (Some("list"), None) => {
            list(args.json);
            Ok(true)
        }
        (Some("probes"), None) => {
            let mut out = Outcome {
                correct: true,
                ..Outcome::default()
            };
            probes::run_all(&mut out, args.seed, args.quick);
            print_result(&out);
            Ok(true)
        }
        (Some("coldstarts"), Some(w)) => workloads::cold_starts(w, args.seed).map(|median| {
            let mut out = Outcome {
                correct: true,
                ..Outcome::default()
            };
            out.push("setup_s", median, "s");
            print_result(&out);
            true
        }),
        (Some("all"), None) => all(&args, seconds),
        (Some("repeat"), None) => repeat(&args, seconds),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("swing-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Fresh processes whose cold starts `setup_s` is taken over. How long
/// a three-worker swarm takes to its first tuple differs from process
/// to process (median of 41 starts: 1.6 to 3.3 ms over twenty processes
/// on `relay_idle`, pinned to one core or not), so however many starts
/// one process makes, ten runs' medians of them drifted by up to 23%
/// between two sets of the same code; with three processes a run, resampled
/// sets differ by more than the 25% bound 0.06% of the time, not 2%.
const COLD_PROCESSES: usize = 3;

/// One workload in this process, with the metrics that kind of run has
/// on it. Before it, in processes of their own so that neither side
/// leaves a thread or socket behind for the other: the cold starts of an
/// untraced run, the layer probes of a traced one.
fn measure(workload: &str, args: &Args, seconds: f64) -> Result<Outcome, String> {
    let opts = RunOpts {
        seed: args.seed,
        window: Duration::from_secs_f64(seconds),
        trace: args.trace,
        quick: args.quick,
    };
    let mut probed = if args.trace && !args.no_probes {
        child(&["probes"], args)?
    } else {
        Outcome::default()
    };
    let mut cold = Vec::new();
    if !(args.trace || args.quick || workload == metrics::SIM_FEDERATION) {
        for _ in 0..COLD_PROCESSES {
            let out = child(&["coldstarts", "--workload", workload], args)?;
            cold.push(out.get("setup_s").ok_or("coldstarts printed no setup_s")?);
        }
    }
    let mut out = workloads::run(workload, opts)?;
    if !args.trace {
        out.push("peak_rss_mb", procstat::peak_rss_mb(), "MiB");
    }
    if let Some(setup) = out.metrics.iter_mut().find(|m| m.name == "setup_s") {
        if !cold.is_empty() {
            setup.value = stats::median(&cold);
            out.notes.push(format!(
                "{workload}: setup_s is the median of {cold:.4?}, each the median cold start of one fresh process"
            ));
        }
    }
    probed.notes.append(&mut out.notes);
    probed.metrics.append(&mut out.metrics);
    Ok(Outcome {
        metrics: probed.metrics,
        notes: probed.notes,
        ..out
    })
}

/// Notes, then the result object as the last line.
fn print_result(out: &Outcome) {
    for note in &out.notes {
        println!("# {note}");
    }
    println!("{}", out.result_line());
}

/// Driver mode. An incorrect run still exits 0 — the result line says
/// `"correct": false` and the driver acts on that; only a run that
/// could not be measured at all exits non-zero.
fn run_one(workload: &str, args: &Args, seconds: f64) -> Result<bool, String> {
    let mut out = measure(workload, args, seconds)?;
    if let Ok(deps) = std::env::var("SWING_BENCHMARK_DEPS") {
        out.notes.push(format!("third-party crates from: {deps}"));
    }
    let wanted: Vec<(&str, &str)> = if args.trace {
        // The driver's contract has every traced run print every
        // per-layer name with a number.
        let absent: Vec<_> = PER_LAYER
            .iter()
            .filter(|m| !m.applies_to(workload))
            .collect();
        for m in &absent {
            out.push(m.name, 0.0, m.unit);
        }
        if !absent.is_empty() {
            let names: Vec<&str> = absent.iter().map(|m| m.name).collect();
            out.notes.push(format!(
                "{workload} has no value for these; they are written as 0 only because the result line must carry every name: {}",
                names.join(", ")
            ));
        }
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    if !args.no_probes {
        if let Some((name, _)) = wanted.iter().find(|(n, _)| out.get(n).is_none()) {
            return Err(format!("{workload} did not measure {name}"));
        }
    }
    print_result(&out);
    Ok(true)
}

fn list(json: bool) {
    if json {
        print!("{}", metrics::benchmark_json());
        return;
    }
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("by hand only (too noisy on a shared 2-vCPU host for the driver's bounds):");
    for w in &BY_HAND {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (tracing off):");
    for m in &END_TO_END {
        println!(
            "  {:<18} {:<4} {} is better, bound {:.0}%",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (traced run): {}", PER_LAYER.len());
    for m in PER_LAYER {
        println!(
            "  {:<38} {:<6} {} is better",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

/// Re-execute this binary with `first` and this run's seed, and read
/// the result line it prints last.
fn child(first: &[&str], args: &Args) -> Result<Outcome, String> {
    let what = first.join(" ");
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(first).args(["--seed", &args.seed.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn {what}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "`{what}` exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let mut out = lines
        .pop()
        .and_then(Outcome::from_result_line)
        .ok_or_else(|| format!("`{what}` printed no result line"))?;
    out.notes = lines
        .iter()
        .map(|l| l.trim_start_matches("# ").to_owned())
        .collect();
    Ok(out)
}

/// One workload in a process of its own, without the layer probes, and
/// only the metrics that workload has.
fn child_run(workload: &str, args: &Args, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let seconds = seconds.to_string();
    let trace_arg = if trace { "1" } else { "0" };
    let mut out = child(
        &[
            "--workload",
            workload,
            "--seconds",
            &seconds,
            "--trace",
            trace_arg,
            "--no-probes",
        ],
        args,
    )?;
    out.metrics.retain(|m| {
        PER_LAYER
            .iter()
            .find(|p| p.name == m.name)
            .is_none_or(|p| p.applies_to(workload))
    });
    Ok(out)
}

fn print_outcome(title: &str, out: &Outcome) {
    for note in &out.notes {
        println!("  # {note}");
    }
    println!(
        "  {title}: correct={} attempted={} failed={}",
        out.correct, out.attempted, out.failed
    );
    for m in &out.metrics {
        println!("    {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The workload whose throughput the tracing overhead is taken on: the
/// one that handles the most tuples per second, so a per-tuple cost
/// shows there first.
const OVERHEAD_WORKLOAD: &str = "relay_saturate";
const OVERHEAD_PAIRS: usize = 5;
/// Most tracing may cost, and the widest spread of either side's runs at
/// which a difference that small can still be told from noise.
const OVERHEAD_LIMIT_PCT: f64 = 5.0;

/// Tracing overhead on [`OVERHEAD_WORKLOAD`]'s throughput, from the
/// medians of [`OVERHEAD_PAIRS`] untraced/traced pairs that alternate
/// which side runs first; `first` is the pair `all` has already run.
/// `Ok(false)` if the overhead is resolved and above the limit.
fn overhead(args: &Args, seconds: f64, first: (f64, f64)) -> Result<bool, String> {
    let (mut plain, mut traced) = (vec![first.0], vec![first.1]);
    for pair in 1..OVERHEAD_PAIRS {
        let order = if pair % 2 == 1 {
            [true, false]
        } else {
            [false, true]
        };
        for trace in order {
            let out = child_run(OVERHEAD_WORKLOAD, args, seconds, trace)?;
            let (name, side) = if trace {
                ("trace.played_per_s", &mut traced)
            } else {
                ("played_per_s", &mut plain)
            };
            side.push(
                out.get(name)
                    .ok_or_else(|| format!("{OVERHEAD_WORKLOAD} did not report {name}"))?,
            );
        }
    }
    println!("  tracing overhead on {OVERHEAD_WORKLOAD} played_per_s, {OVERHEAD_PAIRS} alternating pairs:");
    println!("    untraced runs {plain:.0?}");
    println!("    traced runs   {traced:.0?}");
    let (a, b) = (stats::median(&plain), stats::median(&traced));
    let spread = 100.0 * stats::iqr_share(&plain).max(stats::iqr_share(&traced));
    let pct = 100.0 * (a - b) / a;
    println!(
        "    medians {a:.1} and {b:.1}; widest interquartile spread {spread:.1}% of its median"
    );
    if spread > OVERHEAD_LIMIT_PCT {
        println!(
            "    {:<38} unresolved: the medians differ by {pct:.1}%, the runs of one side by {spread:.1}%",
            "trace.overhead_pct"
        );
        return Ok(true);
    }
    println!("    {:<38} {:>16.4} %", "trace.overhead_pct", pct);
    Ok(pct <= OVERHEAD_LIMIT_PCT)
}

/// Every workload once; with `--trace`, the layer probes once, a traced
/// run of each workload, and the tracing overhead.
fn all(args: &Args, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "swing-benchmark all: seed {}, {seconds} s windows, {} cores",
        args.seed,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    if args.trace {
        print_outcome(
            "layer probes (a process of their own)",
            &child(&["probes"], args)?,
        );
    }
    let mut overhead_pair = None;
    for w in every_workload().map(|w| w.name) {
        let plain = child_run(w, args, seconds, false)?;
        print_outcome(w, &plain);
        ok &= plain.correct && plain.failed == 0;
        if args.trace {
            let traced = child_run(w, args, seconds, true)?;
            print_outcome(&format!("{w} (traced)"), &traced);
            ok &= traced.correct;
            if w == OVERHEAD_WORKLOAD {
                overhead_pair = plain
                    .get("played_per_s")
                    .zip(traced.get("trace.played_per_s"));
            }
        }
    }
    if let Some(first) = overhead_pair {
        ok &= overhead(args, seconds, first)?;
    }
    println!(
        "{}",
        if ok {
            "all workloads correct"
        } else {
            "FAILED: see above"
        }
    );
    Ok(ok)
}

/// Relative change of `b` against `a` in the direction that is worse.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The driver's workloads, untraced, twice: both values, their relative
/// difference and the bound, per metric and workload. A metric whose two
/// readings of the same code differ by more than its bound cannot carry
/// that bound. (`relay_saturate` did not, which is why it is [`BY_HAND`].)
fn repeat(args: &Args, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "swing-benchmark repeat: seed {}, {seconds} s windows",
        args.seed
    );
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for w in WORKLOADS.iter().map(|w| w.name) {
        let a = child_run(w, args, seconds, false)?;
        let b = child_run(w, args, seconds, false)?;
        ok &= a.correct && b.correct;
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.get(m.name), b.get(m.name)) else {
                return Err(format!("{w} did not report {}", m.name));
            };
            let diff = worsening(m.better, x, y).abs();
            let within = diff <= m.bound;
            ok &= within;
            println!(
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>7.1}% {:>6.0}%{}",
                w,
                m.name,
                x,
                y,
                diff * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  MISSED" }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "both sets agree within every bound"
        } else {
            "FAILED: see above"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload relay_idle --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("relay_idle"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), true));
        let a = parse_args(&argv("--workload x --seed 7 --seconds 10 --trace 0")).unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn parses_the_hand_typed_forms() {
        let a = parse_args(&argv("all --seed 2 --trace --quick")).unwrap();
        assert_eq!(a.command.as_deref(), Some("all"));
        assert!(a.trace && a.quick && a.seed == 2);
        let a = parse_args(&argv("list --json")).unwrap();
        assert!(a.command.as_deref() == Some("list") && a.json);
        assert!(parse_args(&argv("all --bogus")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    /// `--quick` smoke of every workload: 2 s windows, one after another
    /// (they share the host's cores). Each must be correct, lose
    /// nothing, and report every end-to-end metric as a positive number;
    /// its traced run must report the per-layer metrics it has a value
    /// for and no other, and the hop spans must account for the median
    /// latency.
    #[test]
    fn quick_smoke_of_every_workload() {
        let mut args = Args {
            seed: 11,
            quick: true,
            // The probes run in a process of their own, and a test has
            // no binary to start; `probes_measure_every_layer` runs them.
            no_probes: true,
            ..Args::default()
        };
        for w in every_workload().map(|w| w.name) {
            let out = measure(w, &args, QUICK_SECONDS).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(out.correct, "{w}: {:?}", out.notes);
            assert_eq!(out.failed, 0, "{w}: {:?}", out.notes);
            assert!(out.attempted > 0, "{w}");
            for m in &END_TO_END {
                let v = out
                    .get(m.name)
                    .unwrap_or_else(|| panic!("{w} lacks {}", m.name));
                assert!(v.is_finite() && v > 0.0, "{w} {} = {v}", m.name);
            }
            assert_eq!(out.metrics.len(), END_TO_END.len(), "{w}");
        }
        args.trace = true;
        let mut probed = Outcome::default();
        probes::run_all(&mut probed, args.seed, true);
        for w in every_workload().map(|w| w.name) {
            let out = measure(w, &args, QUICK_SECONDS).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(out.correct, "{w}: {:?}", out.notes);
            for m in PER_LAYER {
                let has = out.get(m.name).is_some() || probed.get(m.name).is_some();
                assert_eq!(has, m.applies_to(w), "{w} traced and {}", m.name);
            }
            assert_eq!(
                out.metrics.len() + probed.metrics.len(),
                PER_LAYER.iter().filter(|m| m.applies_to(w)).count(),
                "{w}"
            );
            if w != metrics::SIM_FEDERATION {
                let accounted = out.get("hop.sum_vs_e2e_p50_pct").unwrap();
                assert!(
                    (90.0..=110.0).contains(&accounted),
                    "{w}: hops account for {accounted}%"
                );
                assert!(live::trace_path(w).exists());
            }
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 11.0) < 0.0);
    }
}
