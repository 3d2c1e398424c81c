//! End-to-end benchmark of the publish -> audit -> serve path.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads, each one process with one caller in a closed loop, on
//! CENSUS-shaped OCC-5 microdata at l = 10:
//!
//! * `publish_sharded` — n = 100k; an op is one audited publication:
//!   `Publish` with the sharded engine, `audit_release_for(
//!   Stage::AnatomizeSharded, ..)`, then `qit_to_csv` + `st_to_csv`. An
//!   op fails when its audit fails (the release would be withheld).
//! * `serve_random` — n = 1M, exact mode; an op is one round trip of a
//!   batch of 200 independent queries at qd = 5, s = 5%.
//! * `serve_drilldown` — n = 1M, estimate mode from the published pair
//!   alone; an op is one round trip of 2000 queries (40 shared QI
//!   prefixes x 50 sensitive values).
//!
//! The inputs are generated from the seed by a child process
//! (`perfbench gen`), so neither its time nor its memory is measured.
//! Every output is checked outside the timed sections; a mismatch makes
//! the run exit 1. The last line of standard output is the result
//! object; the line before it carries diagnostics, among them the
//! host-noise probes taken at the start and end of the run. `--trace 1`
//! records spans around every call into the program, writes them to
//! `.perfbench_out/<workload>-<seed>.spans.jsonl` and reports the
//! per-layer metrics instead of the end-to-end ones.

mod inputs;
mod measure;
mod publish;
mod serve;

use anatomy_obs::Json;
use measure::{median, percentile, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PublishSharded,
    ServeRandom,
    ServeDrilldown,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "publish_sharded" => Some(Workload::PublishSharded),
            "serve_random" => Some(Workload::ServeRandom),
            "serve_drilldown" => Some(Workload::ServeDrilldown),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PublishSharded => "publish_sharded",
            Workload::ServeRandom => "serve_random",
            Workload::ServeDrilldown => "serve_drilldown",
        }
    }

    /// Rows of microdata the workload's inputs are generated with.
    pub fn n(self) -> usize {
        match self {
            Workload::PublishSharded => 100_000,
            Workload::ServeRandom | Workload::ServeDrilldown => 1_000_000,
        }
    }
}

/// The tail percentile reported as `op_p75_ms`: at the benchmark's run
/// length, the highest one with at least ten serve ops beyond it.
const TAIL: f64 = 0.75;

/// Every per-layer metric, printed by every traced run; a layer a
/// workload does not call reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("tables.csv_parse_ms", "ms"),
    ("tables.csv_parse_share", "ratio"),
    ("core.parse_release_ms", "ms"),
    ("core.parse_release_share", "ratio"),
    ("core.anatomize_sharded_ms", "ms"),
    ("core.anatomize_sharded_share", "ratio"),
    ("storage.pages_read", "count"),
    ("storage.pages_written", "count"),
    ("storage.io_over_model", "ratio"),
    ("audit.ms", "ms"),
    ("audit.share", "ratio"),
    ("audit.checks_failed", "count"),
    ("audit.released_ops", "count"),
    ("core.emit_ms", "ms"),
    ("core.emit_share", "ratio"),
    ("core.release_bytes", "bytes"),
    ("query.index_build_ms", "ms"),
    ("query.index_build_share", "ratio"),
    ("query.index_bytes", "bytes"),
    ("query.text_parse_ms", "ms"),
    ("query.text_parse_share", "ratio"),
    ("query.batch_eval_ms", "ms"),
    ("query.batch_eval_share", "ratio"),
    ("query.queries_per_cluster", "ratio"),
    ("pool.worker_shares", "count"),
    ("pool.help_drained", "count"),
    ("serve.bind_ms", "ms"),
    ("serve.bind_share", "ratio"),
    ("serve.residual_ms", "ms"),
    ("serve.residual_share", "ratio"),
    ("serve.busy_rejections", "count"),
    ("unattributed_ms", "ms"),
    ("unattributed_share", "ratio"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of every attempted op, in ms.
    pub op_ms: Vec<f64>,
    pub failed: u64,
    /// Why ops failed: failing audit check (or `busy`) -> ops.
    pub failed_checks: BTreeMap<String, u64>,
    pub first_failure: Option<String>,
    /// Rows published or queries answered.
    pub items: f64,
    pub bytes_in: f64,
    pub bytes_out: f64,
    /// The first correctness-gate failure.
    pub mismatch: Option<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Extra diagnostics printed beside the result.
    pub notes: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`").into()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`").into()),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

const WORK_ROOT: &str = ".perfbench_work";

/// The run's work directory for its generated inputs; removed when dropped, error or not,
/// together with its parent once no other run uses that.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Run this executable as a child and return its standard output.
fn child(args: &[&str]) -> Result<String> {
    let out = Command::new(std::env::current_exe()?).args(args).output()?;
    if !out.status.success() {
        return Err(format!(
            "`perfbench {}` failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        )
        .into());
    }
    Ok(String::from_utf8(out.stdout)?)
}

fn probe() -> Result<[f64; 3]> {
    let text = child(&["probe"])?;
    let values: Vec<f64> = text
        .split_whitespace()
        .map(str::parse)
        .collect::<std::result::Result<_, _>>()?;
    values
        .try_into()
        .map_err(|_| format!("bad probe output `{}`", text.trim()).into())
}

fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    let value = obj(vec![
        ("value", num(value)),
        ("unit", Json::Str(unit.to_string())),
    ]);
    (name.to_string(), value)
}

fn run(args: &Args) -> Result<bool> {
    let seed = args.seed.to_string();
    let dir = WorkDir(PathBuf::from(WORK_ROOT).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&dir.0)?;
    let dir_arg = dir.0.to_str().ok_or("work directory path is not UTF-8")?;
    child(&["gen", args.workload.name(), &seed, dir_arg])?;

    let probe_start = probe()?;
    let usage_start = measure::usage();
    let mut tr = Tracer::new(args.trace);
    let out = match args.workload {
        Workload::PublishSharded => publish::run(args.seconds, args.seed, &dir.0, &mut tr)?,
        w => serve::run(w, args.seconds, args.seed, &dir.0, &mut tr)?,
    };
    if out.op_ms.is_empty() {
        return Err(out
            .mismatch
            .unwrap_or_else(|| "no op was measured".to_string())
            .into());
    }
    let usage = measure::usage();
    let probe_end = probe()?;
    drop(dir);

    let op_total_s: f64 = out.op_ms.iter().sum::<f64>() / 1e3;
    let op_p50 = median(&out.op_ms);
    let metrics = if args.trace {
        std::fs::create_dir_all(".perfbench_out")?;
        let name = format!("{}-{}.spans.jsonl", args.workload.name(), args.seed);
        std::fs::write(Path::new(".perfbench_out").join(name), tr.to_jsonl())?;
        let mut rows: Vec<_> = PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, out.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        rows.push(metric("traced.op_p50_ms", op_p50, "ms"));
        rows
    } else {
        vec![
            metric("setup_s", median(&out.setup_s), "s"),
            metric("op_p50_ms", op_p50, "ms"),
            metric("op_p75_ms", percentile(&out.op_ms, TAIL), "ms"),
            metric("items_per_s", out.items / op_total_s, "1/s"),
            metric("peak_rss_mb", usage.max_rss_kb as f64 / 1024.0, "MB"),
            metric(
                "out_bytes_per_in_byte",
                out.bytes_out / out.bytes_in,
                "ratio",
            ),
        ]
    };

    let pair = |a: f64, b: f64| Json::Arr(vec![num(a), num(b)]);
    let mut diagnostics = vec![
        ("workload", Json::Str(args.workload.name().to_string())),
        ("seed", num(args.seed as f64)),
        ("ops", num(out.op_ms.len() as f64)),
        ("setup_reps", num(out.setup_s.len() as f64)),
        ("op_time_s", num(op_total_s)),
        (
            "failed_by_check",
            Json::Obj(
                out.failed_checks
                    .iter()
                    .map(|(k, &v)| (k.clone(), num(v as f64)))
                    .collect(),
            ),
        ),
        (
            "first_failure",
            Json::Str(out.first_failure.clone().unwrap_or_default()),
        ),
        (
            "mismatch",
            Json::Str(out.mismatch.clone().unwrap_or_default()),
        ),
        ("probe_alu_ms", pair(probe_start[0], probe_end[0])),
        ("probe_cache_ms", pair(probe_start[1], probe_end[1])),
        ("probe_mem_ms", pair(probe_start[2], probe_end[2])),
        ("user_s", num(usage.user_s - usage_start.user_s)),
        ("sys_s", num(usage.sys_s - usage_start.sys_s)),
        (
            "minor_faults",
            num((usage.minor_faults - usage_start.minor_faults) as f64),
        ),
        (
            "op_ms",
            Json::Arr(out.op_ms.iter().map(|&v| num(v)).collect()),
        ),
    ];
    diagnostics.extend(out.notes.iter().map(|&(k, v)| (k, num(v))));
    println!(
        "{}",
        obj(vec![("diagnostics", obj(diagnostics))]).render(false)
    );
    let correct = out.mismatch.is_none();
    let result = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", num(out.op_ms.len() as f64)),
        ("failed", num(out.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render(false));
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => parse_args(&argv[1..]).and_then(|a| run(&a)),
        // Internal: `perfbench gen <workload> <seed> <dir>`.
        Some("gen") => (|| -> Result<bool> {
            let [_, w, seed, dir] = &argv[..] else {
                return Err("usage: perfbench gen <workload> <seed> <dir>".into());
            };
            let w = Workload::parse(w).ok_or_else(|| format!("unknown workload `{w}`"))?;
            inputs::generate(w, seed.parse()?, Path::new(dir))?;
            Ok(true)
        })(),
        Some("probe") => {
            let [alu, cache, mem] = measure::probes();
            println!("{alu} {cache} {mem}");
            Ok(true)
        }
        _ => Err("usage: perfbench run --workload W --seed N --seconds S --trace 0|1".into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
