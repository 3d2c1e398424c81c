//! `publish_sharded`: audited publications of n = 100k OCC-5 rows at
//! l = 10 through the sharded engine, one caller, closed loop. An op is
//! the sharded publish, the audit `Publish::audit()` runs for that
//! engine, and QIT/ST emission.

use crate::inputs::{data_schema, qi_schema, D, DATA, L};
use crate::measure::{median, ms, splitmix64, Tracer};
use crate::{Outcome, Result};
use anatomy::{Engine, Publish};
use anatomy_audit::{audit_release_for, Stage};
use anatomy_core::{
    anatomize, model_pages, parse_release, qit_to_csv, st_to_csv, AnatomizeConfig,
    AnatomizedTables, ShardConfig,
};
use anatomy_tables::{csv, Microdata};
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions of the set-up (parsing the microdata CSV); `setup_s` is
/// their median.
const SETUP_REPS: usize = 11;

pub fn run(seconds: u64, seed: u64, dir: &Path, tr: &mut Tracer) -> Result<Outcome> {
    let mut out = Outcome::default();
    let text = std::fs::read_to_string(dir.join(DATA))?;
    let mut md = None;
    for _ in 0..SETUP_REPS {
        let (parsed, took) = tr.time("tables.csv_parse", 0, || -> Result<Microdata> {
            Ok(Microdata::with_leading_qi(
                csv::from_str(data_schema(), &text)?,
                D,
            )?)
        });
        md = Some(parsed?);
        out.setup_s.push(took.as_secs_f64());
    }
    let md = md.expect("at least one set-up repetition");

    let shard = ShardConfig::paper();
    let lambda = md.sensitive_domain_size() as usize;
    let model = model_pages(md.len(), D, lambda, L, &shard) as f64;
    let (mut pages_read, mut pages_written, mut io_over_model) = (vec![], vec![], vec![]);
    let (mut checks_failed, mut release_bytes) = (vec![], vec![]);
    let mut state = seed ^ 0x9B1_15E;
    let start = Instant::now();
    while out.op_ms.is_empty() || start.elapsed() < Duration::from_secs(seconds) {
        let op = out.op_ms.len() as u64 + 1;
        let s = splitmix64(&mut state);
        let whole = tr.begin("op", op);
        let (release, _) = tr.time("core.anatomize_sharded", op, || {
            Publish::new(&md)
                .l(L)
                .seed(s)
                .engine(Engine::Sharded(shard))
                .run()
        });
        let release = release?;
        let (report, _) = tr.time("audit", op, || {
            audit_release_for(Stage::AnatomizeSharded, &release.tables, L)
        });
        let ((qit, st), _) = tr.time("core.emit", op, || {
            (qit_to_csv(&release.tables), st_to_csv(&release.tables))
        });
        out.op_ms.push(ms(tr.end(whole)));

        // `Publish::audit()` would withhold this release: the op fails.
        let failing: Vec<_> = report.checks.iter().filter(|c| !c.passed).collect();
        if !failing.is_empty() {
            out.failed += 1;
        }
        for c in &failing {
            *out.failed_checks.entry(c.name.to_string()).or_default() += 1;
            out.first_failure.get_or_insert_with(|| {
                format!("{}: {}", c.name, c.detail.clone().unwrap_or_default())
            });
        }
        checks_failed.push(failing.len() as f64);
        out.items += md.len() as f64;
        out.bytes_in += text.len() as f64;
        out.bytes_out += (qit.len() + st.len()) as f64;
        release_bytes.push((qit.len() + st.len()) as f64);
        let io = release
            .io
            .ok_or("the sharded engine reports its page I/O")?;
        pages_read.push(io.page_reads as f64);
        pages_written.push(io.page_writes as f64);
        io_over_model.push(io.total() as f64 / model);

        // Correctness gate, untimed: the sharded engine's contract is
        // bit-for-bit identity with the in-memory pipeline for the same
        // seed, and the emitted text must parse back to the same pair.
        let cfg = AnatomizeConfig::new(L).with_seed(s);
        let reference = AnatomizedTables::publish(&md, &anatomize(&md, &cfg)?, L)?;
        if release.tables != reference {
            out.mismatch = Some(format!(
                "op {op}: sharded release differs from the in-memory one (seed {s})"
            ));
            break;
        }
        if parse_release(qi_schema(), &qit, &st, L)? != reference {
            out.mismatch = Some(format!(
                "op {op}: emitted QIT/ST do not parse back to the release"
            ));
            break;
        }
    }

    let spans = tr.self_times();
    let per_op = |name: &str| spans.get(name).map(Vec::as_slice).unwrap_or(&[]).to_vec();
    let op_total: f64 = out.op_ms.iter().sum();
    if tr.on() {
        let setup_total: f64 = out.setup_s.iter().sum::<f64>() * 1e3;
        let parse = per_op("tables.csv_parse");
        out.layer("tables.csv_parse_ms", median(&parse));
        out.layer(
            "tables.csv_parse_share",
            parse.iter().sum::<f64>() / setup_total,
        );
        for (span, ms_row, share_row) in [
            (
                "core.anatomize_sharded",
                "core.anatomize_sharded_ms",
                "core.anatomize_sharded_share",
            ),
            ("audit", "audit.ms", "audit.share"),
            ("core.emit", "core.emit_ms", "core.emit_share"),
            // The op span's self time is whatever no timed call covers.
            ("op", "unattributed_ms", "unattributed_share"),
        ] {
            let v = per_op(span);
            out.layer(ms_row, median(&v));
            out.layer(share_row, v.iter().sum::<f64>() / op_total);
        }
        out.layer("storage.pages_read", median(&pages_read));
        out.layer("storage.pages_written", median(&pages_written));
        out.layer("storage.io_over_model", median(&io_over_model));
        out.layer("audit.checks_failed", median(&checks_failed));
        out.layer(
            "audit.released_ops",
            (out.op_ms.len() as u64 - out.failed) as f64,
        );
        out.layer("core.release_bytes", median(&release_bytes));
    }
    Ok(out)
}
