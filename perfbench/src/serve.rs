//! `serve_random` and `serve_drilldown`: one client on one connection
//! sends COUNT-query batches to an in-process server over TCP, closed
//! loop. The server is loaded through the library path (`ServedRelease`
//! plus `Server::bind` with the default configuration).

use crate::inputs::{data_schema, qi_schema, D, DATA, L, QIT, ST};
use crate::measure::{median, ms, splitmix64, Tracer};
use crate::{Outcome, Result, Workload};
use anatomy_core::{parse_release, AnatomizedTables};
use anatomy_obs::Json;
use anatomy_pool::Pool;
use anatomy_query::{
    estimate_anatomy, estimate_anatomy_batch_v2, evaluate_exact, evaluate_exact_batch_v2,
    workload_from_text, workload_to_text, CountQuery, InPredicate, QueryIndexV2, WorkloadSpec,
};
use anatomy_serve::{
    Mode, ServeClient, ServeConfig, ServeError, ServeSummary, ServedRelease, Server,
};
use anatomy_tables::{csv, Microdata, TableBuilder};
use std::io;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const NAME: &str = "bench";
/// Repetitions of the whole set-up; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Batches sent (and checked) before the measured ones: the first few
/// round trips after a load run up to twice as long.
const WARMUP: u64 = 3;
/// Queries per batch checked against the scalar oracle.
const SCALAR_SAMPLE: usize = 2;
/// `serve_random`: independent queries per batch, the Table 7 shape.
const RANDOM_BATCH: usize = 200;
/// `serve_drilldown`: shared 3-attribute QI prefixes per batch, each
/// asked for every sensitive value (up to 50).
const DRILL_PREFIXES: usize = 40;

/// A running in-process server and the one client connection to it.
struct Serving {
    client: ServeClient,
    handle: JoinHandle<io::Result<ServeSummary>>,
}

impl Serving {
    fn stop(mut self) -> Result<ServeSummary> {
        self.client.shutdown()?;
        let summary = self.handle.join().map_err(|_| "server thread panicked")??;
        Ok(summary)
    }
}

/// What the benchmark keeps for its oracles: the published pair, the
/// microdata (exact mode only) and the schema-only microdata the
/// estimate-only release parses queries against.
struct Loaded {
    md: Option<Microdata>,
    domains: Microdata,
    tables: AnatomizedTables,
}

/// One set-up: every step is a timed call into the program; cloning the
/// oracle copies (only when `keep`) stays outside the timed sections.
fn setup(
    data: Option<&str>,
    qit: &str,
    st: &str,
    keep: bool,
    tr: &mut Tracer,
) -> Result<(Serving, Option<Loaded>, f64)> {
    let mut took = Duration::ZERO;
    let md = match data {
        Some(text) => {
            let (md, d) = tr.time("tables.csv_parse", 0, || -> Result<Microdata> {
                Ok(Microdata::with_leading_qi(
                    csv::from_str(data_schema(), text)?,
                    D,
                )?)
            });
            took += d;
            Some(md?)
        }
        None => None,
    };
    let (tables, d) = tr.time("core.parse_release", 0, || {
        parse_release(qi_schema(), qit, st, L)
    });
    took += d;
    let tables = tables?;
    let domains = Microdata::with_leading_qi(TableBuilder::new(data_schema()).finish(), D)?;
    let kept = keep.then(|| Loaded {
        md: md.clone(),
        domains: domains.clone(),
        tables: tables.clone(),
    });
    let (release, d) = tr.time("query.index_build", 0, || match md {
        Some(md) => ServedRelease::exact(NAME, md, tables),
        None => Ok(ServedRelease::estimate_only(NAME, domains, tables)),
    });
    took += d;
    let release = release?;
    let (server, d) = tr.time("serve.bind", 0, || {
        Server::bind(ServeConfig::default(), vec![release])
    });
    took += d;
    let server = server?;
    let (serving, d) = tr.time("serve.connect", 0, || -> Result<Serving> {
        let (addr, handle) = server.spawn();
        let mut client = ServeClient::connect(&addr)?;
        client.ping()?;
        Ok(Serving { client, handle })
    });
    took += d;
    Ok((serving?, kept, took.as_secs_f64()))
}

/// The `bench_query_index` drilldown shape: `prefixes` distinct
/// 3-attribute QI conjunctions (about an eighth of each domain), each
/// fanned out over every sensitive value up to 50.
fn drilldown(md: &Microdata, prefixes: usize, mut rng: u64) -> Vec<CountQuery> {
    let pd = md.qi_count().min(3);
    let sens_values = (md.sensitive_domain_size() as usize).min(50);
    let mut queries = Vec::with_capacity(prefixes * sens_values);
    for _ in 0..prefixes {
        let qi_preds: Vec<(usize, InPredicate)> = (0..pd)
            .map(|attr| {
                let domain = md.qi_domain_size(attr);
                let k = (domain as usize / 8).max(1);
                let values = (0..k)
                    .map(|_| (splitmix64(&mut rng) % domain as u64) as u32)
                    .collect();
                (
                    attr,
                    InPredicate::new(values, domain).expect("values drawn in domain"),
                )
            })
            .collect();
        for s in 0..sens_values as u32 {
            queries.push(CountQuery {
                qi_preds: qi_preds.clone(),
                sens_pred: InPredicate::new(vec![s], md.sensitive_domain_size())
                    .expect("sensitive value in domain"),
            });
        }
    }
    queries
}

/// Describe the first served answer that differs from the in-process
/// v2 batch, else the first sampled query where v2 differs from the
/// scalar oracle.
fn diff<T: std::fmt::Display>(
    lines: &[String],
    want: &[T],
    served: Option<usize>,
    scalar: impl FnOnce() -> Option<usize>,
) -> Option<String> {
    match served {
        Some(i) => Some(format!(
            "query {i}: served `{}`, in-process v2 {}",
            lines[i], want[i]
        )),
        None => scalar().map(|i| {
            format!(
                "query {i}: in-process v2 {} differs from the scalar oracle",
                want[i]
            )
        }),
    }
}

/// Server-side counters read through `STATS`.
const STATS_COUNTERS: [&str; 4] = [
    "query.batch_v2_clusters",
    "pool.worker_shares",
    "pool.help_drained",
    "serve.busy_rejections",
];

fn stats(client: &mut ServeClient) -> Result<[f64; 4]> {
    let json = Json::parse(&client.stats()?)?;
    let counters = json
        .get("counters")
        .ok_or("STATS manifest has no counters")?;
    Ok(STATS_COUNTERS.map(|c| counters.get(c).and_then(Json::as_f64).unwrap_or(0.0)))
}

pub fn run(
    workload: Workload,
    seconds: u64,
    seed: u64,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Outcome> {
    let mut out = Outcome::default();
    let exact = workload == Workload::ServeRandom;
    let data = if exact {
        Some(std::fs::read_to_string(dir.join(DATA))?)
    } else {
        None
    };
    let qit = std::fs::read_to_string(dir.join(QIT))?;
    let st = std::fs::read_to_string(dir.join(ST))?;
    let mut serving = None;
    let mut loaded = None;
    for rep in 0..SETUP_REPS {
        let last = rep + 1 == SETUP_REPS;
        let (s, kept, took) = setup(data.as_deref(), &qit, &st, last, tr)?;
        out.setup_s.push(took);
        if last {
            serving = Some(s);
            loaded = kept;
        } else {
            s.stop()?;
        }
    }
    drop((data, qit, st));
    let mut serving = serving.expect("at least one set-up repetition");
    let Loaded {
        md,
        domains,
        tables,
    } = loaded.expect("the last set-up keeps the oracle copies");
    let parse_md = md.as_ref().unwrap_or(&domains);
    let oracle = match &md {
        Some(md) => QueryIndexV2::build(md, &tables)?,
        None => QueryIndexV2::from_published(&tables),
    };
    let (mode, mode_name) = if exact {
        (Mode::Exact, "exact")
    } else {
        (Mode::Estimate, "estimate")
    };

    let (mut text_parse, mut batch_eval, mut residual) = (vec![], vec![], vec![]);
    let (mut per_cluster, mut shares, mut help) = (vec![], vec![], vec![]);
    let mut busy = 0.0;
    let mut state = seed ^ 0x05E2_BE00;
    let mut sent = 0;
    let mut start = Instant::now();
    loop {
        if sent == WARMUP {
            start = Instant::now();
        }
        if sent > WARMUP && start.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
        sent += 1;
        let op = sent;
        let measured = op > WARMUP;
        // Each batch is made just before it is sent and dropped once
        // checked.
        let queries = if exact {
            WorkloadSpec {
                qd: 5,
                selectivity: 0.05,
                count: RANDOM_BATCH,
                seed: splitmix64(&mut state),
            }
            .generate(parse_md)?
        } else {
            drilldown(parse_md, DRILL_PREFIXES, splitmix64(&mut state))
        };
        let before = if tr.on() && measured {
            Some(stats(&mut serving.client)?)
        } else {
            None
        };
        let whole = tr.begin("op", op);
        let served = serving.client.batch_lines(NAME, mode, &queries);
        let rt = ms(tr.end(whole));
        if measured {
            out.op_ms.push(rt);
        }
        let lines = match served {
            Ok(lines) => lines,
            Err(ServeError::Busy { .. }) if measured => {
                out.failed += 1;
                *out.failed_checks.entry("busy".to_string()).or_default() += 1;
                continue;
            }
            Err(e) => return Err(format!("batch {op} ({mode_name}): {e}").into()),
        };
        if let Some(before) = before {
            let after = stats(&mut serving.client)?;
            let d: Vec<f64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
            per_cluster.push(queries.len() as f64 / d[0].max(1.0));
            shares.push(d[1]);
            help.push(d[2]);
            busy += d[3];
        }
        let text = workload_to_text(&queries);
        if measured {
            out.items += queries.len() as f64;
            out.bytes_in += text.len() as f64;
            out.bytes_out += lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64;
        }

        // Correctness gate, outside the op: every answer against the
        // in-process v2 batch, a fixed sample against the scalar oracle,
        // and the batch text against the queries it encodes.
        let (parsed, parse_d) = tr.time("query.text_parse", op, || {
            workload_from_text(parse_md, &text)
        });
        if parsed? != queries {
            out.mismatch = Some(format!(
                "batch {op}: query text does not parse back to the batch"
            ));
            break;
        }
        let sample = (0..SCALAR_SAMPLE).map(|k| k * queries.len() / SCALAR_SAMPLE);
        let (eval_d, bad) = match &md {
            Some(md) => {
                let (want, d) = tr.time("query.batch_eval", op, || {
                    evaluate_exact_batch_v2(Pool::global(), &oracle, &queries)
                });
                let served = lines
                    .iter()
                    .zip(&want)
                    .position(|(l, w)| l.parse::<u64>().ok() != Some(*w));
                let scalar = || {
                    sample
                        .clone()
                        .find(|&i| evaluate_exact(md, &queries[i]) != want[i])
                };
                (d, diff(&lines, &want, served, scalar))
            }
            None => {
                let (want, d) = tr.time("query.batch_eval", op, || {
                    estimate_anatomy_batch_v2(Pool::global(), &oracle, &tables, &queries)
                });
                let served = lines.iter().zip(&want).position(|(l, w)| {
                    l.parse::<f64>().map(f64::to_bits).ok() != Some(w.to_bits())
                });
                let scalar = || {
                    sample.clone().find(|&i| {
                        estimate_anatomy(&tables, &queries[i]).to_bits() != want[i].to_bits()
                    })
                };
                (d, diff(&lines, &want, served, scalar))
            }
        };
        if let Some(bad) = bad {
            out.mismatch = Some(format!("batch {op}: {bad}"));
            break;
        }
        if !measured {
            continue;
        }
        text_parse.push(ms(parse_d));
        batch_eval.push(ms(eval_d));
        residual.push(rt - ms(parse_d) - ms(eval_d));
    }
    if !batch_eval.is_empty() {
        out.notes.push(("gate_eval_p50_ms", median(&batch_eval)));
    }
    let summary = serving.stop()?;
    if summary.batches + summary.overloaded != sent {
        return Err(format!(
            "server answered {} batches and refused {}, but {sent} were sent",
            summary.batches, summary.overloaded
        )
        .into());
    }

    if tr.on() {
        let spans = tr.self_times();
        let setup_total: f64 = out.setup_s.iter().sum::<f64>() * 1e3;
        for row in [
            "tables.csv_parse",
            "core.parse_release",
            "query.index_build",
            "serve.bind",
        ] {
            if let Some(v) = spans.get(row) {
                out.layer(&format!("{row}_ms"), median(v));
                out.layer(&format!("{row}_share"), v.iter().sum::<f64>() / setup_total);
            }
        }
        let op_total: f64 = out.op_ms.iter().sum();
        for (row, v) in [
            ("query.text_parse", &text_parse),
            ("query.batch_eval", &batch_eval),
            ("serve.residual", &residual),
        ] {
            out.layer(&format!("{row}_ms"), median(v));
            out.layer(&format!("{row}_share"), v.iter().sum::<f64>() / op_total);
        }
        out.layer("query.index_bytes", oracle.memory_bytes() as f64);
        out.layer("query.queries_per_cluster", median(&per_cluster));
        out.layer("pool.worker_shares", median(&shares));
        out.layer("pool.help_drained", median(&help));
        out.layer("serve.busy_rejections", busy);
    }
    Ok(out)
}
