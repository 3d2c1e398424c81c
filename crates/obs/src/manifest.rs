//! Run manifests: one run's parameters, counters, phase tree, and I/O
//! stats, serialized in the `BENCH_*.json` house style.
//!
//! A manifest is the auditable record of one anonymization or query
//! run — the systems-level analogue of the *transparent anonymization*
//! argument that the procedure itself should be publishable alongside
//! the data. Schema (`manifest_version` 1):
//!
//! ```json
//! {
//!   "manifest_version": 1,
//!   "name": "publish",
//!   "enabled": true,
//!   "params": { "l": 4, "seed": 42, "engine": "ladder" },
//!   "counters": { "core.rows_bucketized": 40 },
//!   "gauges": { "pool.queue_depth": { "value": 0, "max": 7 } },
//!   "histograms": { "pool.share_ns": { "count": 8, "sum": 91, "max": 30,
//!                                      "mean": 11.4, "p50": 7, "p90": 15, "p99": 30 } },
//!   "phases": [ { "name": "anatomize", "calls": 1, "total_ms": 1.5,
//!                 "min_ms": 1.5, "max_ms": 1.5, "children": [ ... ] } ],
//!   "latency": { "anatomize": { "count": 1, "p50_ns": 1500000, "p90_ns": 1500000,
//!                               "p99_ns": 1500000, "max_ns": 1500000 },
//!                "storage.page_write_ns": { ... } },
//!   "io": { "page_reads": 120, "page_writes": 60, "total": 180 },
//!   "audit": { "stage": "anatomize", "passed": true,
//!              "checks": { "l_diversity": true, ... } }
//! }
//! ```
//!
//! `io`, `audit`, and `latency` are optional: the first appears on
//! external-memory runs, the second when the release was audited
//! (`anatomy verify`, or `Publish` with auditing enabled), the third
//! whenever the run recorded latency histograms. A `latency` entry
//! exists for every phase span (histograms named `span_ns/<path>`,
//! surfaced under the bare `<path>`) and every `*_ns` instrument
//! histogram (per-page-op and pool-share latencies, surfaced under
//! their full name). Percentiles come from
//! [`HistSnapshot::percentile`](crate::HistSnapshot::percentile) over
//! log₂ buckets, so each quantile is exact only to within **2×** —
//! the granularity that answers "did this regress by an order of
//! magnitude", not "did this regress by 10%". The internal
//! `span_ns/`-prefixed histograms are folded into `latency` and kept
//! out of the `histograms` block.
//!
//! The phase tree nests by span path: `"anatomize/bucketize"` becomes a
//! child of `"anatomize"`. [`validate_manifest_json`] checks all of the
//! above structurally; the `check_manifest` binary (in `anatomy-audit`,
//! which also compares stage-stamped audit blocks against the invariant
//! registry) wraps it for CI.

use crate::json::Json;
use crate::snapshot::Snapshot;
use crate::span::SpanStats;
use crate::Registry;
use std::collections::BTreeMap;

/// Current value of `manifest_version`.
pub const MANIFEST_VERSION: u64 = 1;

/// A run parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for ParamValue {
    fn from(v: u64) -> Self {
        ParamValue::U64(v)
    }
}
impl From<usize> for ParamValue {
    fn from(v: usize) -> Self {
        ParamValue::U64(v as u64)
    }
}
impl From<u32> for ParamValue {
    fn from(v: u32) -> Self {
        ParamValue::U64(v as u64)
    }
}
impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::I64(v)
    }
}
impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::F64(v)
    }
}
impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}
impl From<&str> for ParamValue {
    fn from(v: &str) -> Self {
        ParamValue::Str(v.to_string())
    }
}
impl From<String> for ParamValue {
    fn from(v: String) -> Self {
        ParamValue::Str(v)
    }
}

/// Logical I/O totals carried by a manifest (mirrors
/// `anatomy_storage::IoStats` without depending on it — obs sits below
/// storage in the dependency order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSummary {
    pub page_reads: u64,
    pub page_writes: u64,
}

impl IoSummary {
    pub fn total(&self) -> u64 {
        self.page_reads + self.page_writes
    }
}

/// Outcome of a release-integrity audit carried by a manifest (mirrors
/// `anatomy_audit::AuditReport` without depending on it — obs sits at
/// the bottom of the dependency order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuditSummary {
    /// The pipeline stage whose registered invariants ran (the stable
    /// stage names of `anatomy_audit::Stage`); empty when the producer
    /// predates stage stamping.
    pub stage: String,
    /// Whether every check passed.
    pub passed: bool,
    /// Per-check outcomes, in the order the auditor ran them.
    pub checks: Vec<(String, bool)>,
}

/// One run's auditable record; see the module docs for the JSON schema.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// What ran ("publish", "query", "bench.cell", ...).
    pub name: String,
    /// Whether the registry was recording — a manifest captured with a
    /// disabled registry is all zeros, and says so.
    pub enabled: bool,
    /// Run parameters in insertion order (l, seed, n, engine, ...).
    pub params: Vec<(String, ParamValue)>,
    /// The instrument capture backing this manifest.
    pub snapshot: Snapshot,
    /// Logical I/O totals for external-memory runs.
    pub io: Option<IoSummary>,
    /// Release-integrity audit outcome, when the run was audited.
    pub audit: Option<AuditSummary>,
}

impl RunManifest {
    /// Capture `registry`'s full current state.
    pub fn capture(name: &str, registry: &Registry) -> RunManifest {
        RunManifest::from_snapshot(name, registry.enabled(), registry.snapshot())
    }

    /// Capture only activity since `earlier` (one bench cell out of a
    /// longer process).
    pub fn capture_since(name: &str, registry: &Registry, earlier: &Snapshot) -> RunManifest {
        let mut delta = registry.snapshot().since(earlier);
        // Spans that closed before `earlier` survive `since` as zero-call
        // entries; a run's phase tree and latency block list only the
        // phases that ran in it.
        delta.spans.retain(|_, s| s.calls > 0);
        delta
            .hists
            .retain(|k, h| !k.starts_with("span_ns/") || h.count > 0);
        RunManifest::from_snapshot(name, registry.enabled(), delta)
    }

    /// Wrap an already-taken snapshot.
    pub fn from_snapshot(name: &str, enabled: bool, snapshot: Snapshot) -> RunManifest {
        RunManifest {
            name: name.to_string(),
            enabled,
            params: Vec::new(),
            snapshot,
            io: None,
            audit: None,
        }
    }

    /// Record a run parameter (builder style).
    pub fn with_param(mut self, key: &str, value: impl Into<ParamValue>) -> Self {
        self.add_param(key, value);
        self
    }

    /// Record a run parameter.
    pub fn add_param(&mut self, key: &str, value: impl Into<ParamValue>) {
        self.params.push((key.to_string(), value.into()));
    }

    /// Attach logical I/O totals (builder style).
    pub fn with_io(mut self, page_reads: u64, page_writes: u64) -> Self {
        self.io = Some(IoSummary {
            page_reads,
            page_writes,
        });
        self
    }

    /// Attach a release-integrity audit outcome (builder style).
    pub fn with_audit(mut self, audit: AuditSummary) -> Self {
        self.audit = Some(audit);
        self
    }

    /// The phase tree reconstructed from span paths.
    pub fn phases(&self) -> Vec<PhaseNode> {
        phase_tree(&self.snapshot.spans)
    }

    /// Pretty JSON (the on-disk format for `--metrics`).
    pub fn to_json(&self) -> String {
        self.to_value().render(true)
    }

    /// Single-line JSON, for embedding inside other hand-rolled
    /// documents (per-cell manifests in `BENCH_anatomize.json`).
    pub fn to_json_compact(&self) -> String {
        self.to_value().render(false)
    }

    fn to_value(&self) -> Json {
        let params = self
            .params
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    ParamValue::U64(n) => Json::Num(*n as f64),
                    ParamValue::I64(n) => Json::Num(*n as f64),
                    ParamValue::F64(n) => Json::Num(*n),
                    ParamValue::Bool(b) => Json::Bool(*b),
                    ParamValue::Str(s) => Json::Str(s.clone()),
                };
                (k.clone(), v)
            })
            .collect();
        let counters = self
            .snapshot
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v as f64)))
            .collect();
        let gauges = self
            .snapshot
            .gauges
            .iter()
            .map(|(k, g)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(g.value as f64)),
                        ("max".into(), Json::Num(g.max as f64)),
                    ]),
                )
            })
            .collect();
        let latency: Vec<(String, Json)> = self
            .snapshot
            .hists
            .iter()
            .filter_map(|(k, h)| {
                let label = match k.strip_prefix("span_ns/") {
                    Some(path) => path.to_string(),
                    None if k.ends_with("_ns") => k.clone(),
                    None => return None,
                };
                Some((
                    label,
                    Json::Obj(vec![
                        ("count".into(), Json::Num(h.count as f64)),
                        ("p50_ns".into(), Json::Num(h.percentile(0.50) as f64)),
                        ("p90_ns".into(), Json::Num(h.percentile(0.90) as f64)),
                        ("p99_ns".into(), Json::Num(h.percentile(0.99) as f64)),
                        ("max_ns".into(), Json::Num(h.max as f64)),
                    ]),
                ))
            })
            .collect();
        let histograms = self
            .snapshot
            .hists
            .iter()
            .filter(|(k, _)| !k.starts_with("span_ns/"))
            .map(|(k, h)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".into(), Json::Num(h.count as f64)),
                        ("sum".into(), Json::Num(h.sum as f64)),
                        ("max".into(), Json::Num(h.max as f64)),
                        ("mean".into(), Json::Num(round3(h.mean()))),
                        ("p50".into(), Json::Num(h.percentile(0.50) as f64)),
                        ("p90".into(), Json::Num(h.percentile(0.90) as f64)),
                        ("p99".into(), Json::Num(h.percentile(0.99) as f64)),
                    ]),
                )
            })
            .collect();
        let phases = Json::Arr(self.phases().iter().map(PhaseNode::to_value).collect());
        let mut members = vec![
            (
                "manifest_version".to_string(),
                Json::Num(MANIFEST_VERSION as f64),
            ),
            ("name".to_string(), Json::Str(self.name.clone())),
            ("enabled".to_string(), Json::Bool(self.enabled)),
            ("params".to_string(), Json::Obj(params)),
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(histograms)),
            ("phases".to_string(), phases),
        ];
        if !latency.is_empty() {
            members.push(("latency".to_string(), Json::Obj(latency)));
        }
        if let Some(io) = &self.io {
            members.push((
                "io".to_string(),
                Json::Obj(vec![
                    ("page_reads".into(), Json::Num(io.page_reads as f64)),
                    ("page_writes".into(), Json::Num(io.page_writes as f64)),
                    ("total".into(), Json::Num(io.total() as f64)),
                ]),
            ));
        }
        if let Some(audit) = &self.audit {
            let checks = audit
                .checks
                .iter()
                .map(|(name, ok)| (name.clone(), Json::Bool(*ok)))
                .collect();
            let mut block = Vec::new();
            if !audit.stage.is_empty() {
                block.push(("stage".into(), Json::Str(audit.stage.clone())));
            }
            block.push(("passed".into(), Json::Bool(audit.passed)));
            block.push(("checks".into(), Json::Obj(checks)));
            members.push(("audit".to_string(), Json::Obj(block)));
        }
        Json::Obj(members)
    }
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

fn ns_to_ms(ns: u64) -> f64 {
    round3(ns as f64 / 1e6)
}

/// One node of a reconstructed phase tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseNode {
    /// Last segment of the span path ("bucketize" of
    /// "anatomize/bucketize").
    pub name: String,
    /// Aggregate timing of this exact path. A parent that never closed
    /// as a span itself (only deeper paths recorded) carries zeroed
    /// stats.
    pub stats: SpanStats,
    /// Child phases, ordered by name (span maps are `BTreeMap`s).
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    fn to_value(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("calls".into(), Json::Num(self.stats.calls as f64)),
            ("total_ms".into(), Json::Num(ns_to_ms(self.stats.total_ns))),
            ("min_ms".into(), Json::Num(ns_to_ms(self.stats.min_ns))),
            ("max_ms".into(), Json::Num(ns_to_ms(self.stats.max_ns))),
            (
                "children".into(),
                Json::Arr(self.children.iter().map(PhaseNode::to_value).collect()),
            ),
        ])
    }
}

/// Nest `/`-joined span paths into a forest. Missing intermediate
/// nodes (a recorded `"a/b"` without `"a"`) are synthesized with zeroed
/// stats so the tree is always well-formed.
pub fn phase_tree(spans: &BTreeMap<String, SpanStats>) -> Vec<PhaseNode> {
    let mut roots: Vec<PhaseNode> = Vec::new();
    for (path, stats) in spans {
        let segs: Vec<&str> = path.split('/').collect();
        insert_phase(&mut roots, &segs, *stats);
    }
    roots
}

fn insert_phase(level: &mut Vec<PhaseNode>, segs: &[&str], stats: SpanStats) {
    let Some((first, rest)) = segs.split_first() else {
        return;
    };
    let idx = match level.iter().position(|n| n.name == *first) {
        Some(i) => i,
        None => {
            level.push(PhaseNode {
                name: (*first).to_string(),
                ..PhaseNode::default()
            });
            level.len() - 1
        }
    };
    if rest.is_empty() {
        level[idx].stats = stats;
    } else {
        insert_phase(&mut level[idx].children, rest, stats);
    }
}

/// What [`validate_manifest_json`] found, for human-readable reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestSummary {
    /// The manifest's `name` field.
    pub name: String,
    /// Number of counters.
    pub counters: usize,
    /// Total phase-tree nodes.
    pub phases: usize,
    /// Entries in the `latency` block (0 when absent).
    pub latency: usize,
    /// `io.total` when the manifest carries I/O stats.
    pub io_total: Option<u64>,
    /// `audit.passed` when the manifest carries an audit outcome.
    pub audit_passed: Option<bool>,
    /// `audit.stage` when the audit block names its pipeline stage.
    pub audit_stage: Option<String>,
    /// The audit block's check names, in document order (empty when the
    /// manifest carries no audit) — what registry-aware validators
    /// compare against the invariant registry.
    pub audit_checks: Vec<String>,
}

/// Structurally validate a manifest document: required keys present and
/// typed, counters and I/O totals non-negative integers, `io.total`
/// consistent, phase tree well-formed (names non-empty, timing fields
/// numeric and non-negative, `children` arrays recursive). Returns a
/// summary for reporting, or the first problem found.
pub fn validate_manifest_json(text: &str) -> Result<ManifestSummary, String> {
    let doc = Json::parse(text)?;
    if doc.as_obj().is_none() {
        return Err("manifest root is not an object".into());
    }
    let version = doc
        .get("manifest_version")
        .and_then(Json::as_u64)
        .ok_or("missing integer manifest_version")?;
    if version != MANIFEST_VERSION {
        return Err(format!(
            "manifest_version {version} (this validator understands {MANIFEST_VERSION})"
        ));
    }
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("missing string name")?;
    if name.is_empty() {
        return Err("empty name".into());
    }
    doc.get("enabled")
        .and_then(Json::as_bool)
        .ok_or("missing boolean enabled")?;
    doc.get("params")
        .and_then(Json::as_obj)
        .ok_or("missing object params")?;
    let counters = doc
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("missing object counters")?;
    for (k, v) in counters {
        if v.as_u64().is_none() {
            return Err(format!("counter {k:?} is not a non-negative integer"));
        }
    }
    let gauges = doc
        .get("gauges")
        .and_then(Json::as_obj)
        .ok_or("missing object gauges")?;
    for (k, v) in gauges {
        for field in ["value", "max"] {
            if v.get(field).and_then(Json::as_f64).is_none() {
                return Err(format!("gauge {k:?} missing numeric {field}"));
            }
        }
    }
    let hists = doc
        .get("histograms")
        .and_then(Json::as_obj)
        .ok_or("missing object histograms")?;
    for (k, v) in hists {
        for field in ["count", "sum", "max", "p50", "p90", "p99"] {
            if v.get(field).and_then(Json::as_u64).is_none() {
                return Err(format!(
                    "histogram {k:?} missing non-negative integer {field}"
                ));
            }
        }
        if v.get("mean").and_then(Json::as_f64).is_none() {
            return Err(format!("histogram {k:?} missing numeric mean"));
        }
    }
    let phases = doc
        .get("phases")
        .and_then(Json::as_arr)
        .ok_or("missing array phases")?;
    let mut phase_count = 0usize;
    for node in phases {
        validate_phase(node, &mut phase_count)?;
    }
    let latency = match doc.get("latency") {
        None => 0,
        Some(lat) => {
            let entries = lat.as_obj().ok_or("latency is not an object")?;
            for (k, v) in entries {
                if k.is_empty() {
                    return Err("latency entry with empty name".into());
                }
                let mut fields = [0u64; 5];
                for (slot, field) in fields
                    .iter_mut()
                    .zip(["count", "p50_ns", "p90_ns", "p99_ns", "max_ns"])
                {
                    *slot = v.get(field).and_then(Json::as_u64).ok_or_else(|| {
                        format!("latency {k:?} missing non-negative integer {field}")
                    })?;
                }
                let [_, p50, p90, p99, max] = fields;
                if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
                    return Err(format!(
                        "latency {k:?} percentiles not monotone: p50 {p50} ≤ p90 {p90} ≤ p99 {p99} ≤ max {max} violated"
                    ));
                }
            }
            entries.len()
        }
    };
    let io_total = match doc.get("io") {
        None => None,
        Some(io) => {
            let reads = io
                .get("page_reads")
                .and_then(Json::as_u64)
                .ok_or("io missing non-negative integer page_reads")?;
            let writes = io
                .get("page_writes")
                .and_then(Json::as_u64)
                .ok_or("io missing non-negative integer page_writes")?;
            let total = io
                .get("total")
                .and_then(Json::as_u64)
                .ok_or("io missing non-negative integer total")?;
            if total != reads + writes {
                return Err(format!(
                    "io.total {total} != page_reads {reads} + page_writes {writes}"
                ));
            }
            Some(total)
        }
    };
    let (audit_passed, audit_stage, audit_checks) = match doc.get("audit") {
        None => (None, None, Vec::new()),
        Some(audit) => {
            let passed = audit
                .get("passed")
                .and_then(Json::as_bool)
                .ok_or("audit missing boolean passed")?;
            let stage = match audit.get("stage") {
                None => None,
                Some(s) => {
                    let s = s.as_str().ok_or("audit.stage is not a string")?;
                    if s.is_empty() {
                        return Err("audit.stage is empty".into());
                    }
                    Some(s.to_string())
                }
            };
            let checks = audit
                .get("checks")
                .and_then(Json::as_obj)
                .ok_or("audit missing object checks")?;
            for (k, v) in checks {
                if k.is_empty() {
                    return Err("audit check with empty name".into());
                }
                if v.as_bool().is_none() {
                    return Err(format!("audit check {k:?} is not a boolean"));
                }
            }
            // `passed` must be the conjunction of the per-check bits.
            let all = checks.iter().all(|(_, v)| v.as_bool() == Some(true));
            if passed != all {
                return Err(format!(
                    "audit.passed {passed} contradicts its per-check outcomes"
                ));
            }
            let names = checks.iter().map(|(k, _)| k.clone()).collect();
            (Some(passed), stage, names)
        }
    };
    Ok(ManifestSummary {
        name: name.to_string(),
        counters: counters.len(),
        phases: phase_count,
        latency,
        io_total,
        audit_passed,
        audit_stage,
        audit_checks,
    })
}

fn validate_phase(node: &Json, count: &mut usize) -> Result<(), String> {
    *count += 1;
    let name = node
        .get("name")
        .and_then(Json::as_str)
        .ok_or("phase node missing string name")?;
    if name.is_empty() || name.contains('/') {
        return Err(format!("malformed phase name {name:?}"));
    }
    node.get("calls")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("phase {name:?} missing non-negative integer calls"))?;
    for field in ["total_ms", "min_ms", "max_ms"] {
        let v = node
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("phase {name:?} missing numeric {field}"))?;
        if v < 0.0 {
            return Err(format!("phase {name:?} has negative {field}"));
        }
    }
    let children = node
        .get("children")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("phase {name:?} missing array children"))?;
    for child in children {
        validate_phase(child, count)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn capture_since_lists_only_phases_run_in_the_window() {
        let r = Registry::new();
        r.set_enabled(true);
        {
            let _a = r.span("earlier");
        }
        let before = r.snapshot();
        let idle = RunManifest::capture_since("idle", &r, &before);
        assert!(idle.phases().is_empty());
        assert!(!idle.to_json().contains("\"latency\""));
        {
            let _b = r.span("later");
        }
        let busy = RunManifest::capture_since("busy", &r, &before);
        let names: Vec<String> = busy.phases().into_iter().map(|p| p.name).collect();
        assert_eq!(names, ["later"]);
    }

    fn busy_registry() -> Registry {
        let r = Registry::new();
        r.set_enabled(true);
        r.counter("core.rows").add(40);
        r.gauge("pool.depth").set(3);
        r.histogram("lat").record(512);
        {
            let _a = r.span("anatomize");
            let _b = r.span("bucketize");
        }
        r
    }

    #[test]
    fn emitted_manifest_validates() {
        let r = busy_registry();
        let m = RunManifest::capture("publish", &r)
            .with_param("l", 4usize)
            .with_param("engine", "ladder")
            .with_io(120, 60);
        for text in [m.to_json(), m.to_json_compact()] {
            let summary = validate_manifest_json(&text).expect("manifest should validate");
            assert_eq!(summary.name, "publish");
            assert_eq!(summary.counters, 1);
            assert_eq!(summary.phases, 2);
            assert_eq!(summary.io_total, Some(180));
        }
    }

    #[test]
    fn latency_block_surfaces_spans_and_ns_hists() {
        let r = busy_registry();
        r.histogram("storage.page_write_ns").record(4096);
        let m = RunManifest::capture("publish", &r);
        let text = m.to_json();
        let summary = validate_manifest_json(&text).expect("latency manifest should validate");
        // Two span paths (anatomize, anatomize/bucketize) + one *_ns
        // instrument histogram; "lat" is neither and stays out.
        assert_eq!(summary.latency, 3);
        let doc = Json::parse(&text).unwrap();
        let lat = doc.get("latency").unwrap();
        assert!(lat.get("anatomize").is_some());
        assert!(lat.get("anatomize/bucketize").is_some());
        assert!(lat.get("storage.page_write_ns").is_some());
        assert!(lat.get("lat").is_none());
        // The span_ns/ internals are folded into latency, not shown raw.
        let hists = doc.get("histograms").unwrap();
        assert!(hists.get("lat").is_some());
        assert!(hists.get("span_ns/anatomize").is_none());
        let pw = lat.get("storage.page_write_ns").unwrap();
        assert_eq!(pw.get("max_ns").and_then(Json::as_u64), Some(4096));
        // Missing fields and non-monotone percentiles are rejected.
        let missing = text.replace("\"p50_ns\"", "\"p50_nope\"");
        assert!(validate_manifest_json(&missing).is_err());
        let lying = text.replace("\"max_ns\": 4096", "\"max_ns\": 0");
        let err = validate_manifest_json(&lying).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn phase_tree_nests_and_synthesizes_parents() {
        let mut spans = BTreeMap::new();
        let leaf = SpanStats {
            calls: 2,
            total_ns: 10,
            min_ns: 4,
            max_ns: 6,
        };
        spans.insert("a/b/c".to_string(), leaf);
        spans.insert("a".to_string(), SpanStats { calls: 1, ..leaf });
        spans.insert("d".to_string(), leaf);
        let tree = phase_tree(&spans);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].name, "a");
        assert_eq!(tree[0].stats.calls, 1);
        // "a/b" was never recorded: synthesized with zeroed stats.
        assert_eq!(tree[0].children[0].name, "b");
        assert_eq!(tree[0].children[0].stats, SpanStats::default());
        assert_eq!(tree[0].children[0].children[0].name, "c");
        assert_eq!(tree[0].children[0].children[0].stats, leaf);
        assert_eq!(tree[1].name, "d");
    }

    #[test]
    fn audit_block_round_trips_and_validates() {
        let r = busy_registry();
        let audit = AuditSummary {
            stage: "anatomize".to_string(),
            passed: false,
            checks: vec![
                ("qit_st_structure".to_string(), true),
                ("l_diversity".to_string(), false),
            ],
        };
        let m = RunManifest::capture("publish", &r).with_audit(audit);
        let text = m.to_json();
        let summary = validate_manifest_json(&text).expect("audited manifest should validate");
        assert_eq!(summary.audit_passed, Some(false));
        assert_eq!(summary.audit_stage.as_deref(), Some("anatomize"));
        assert_eq!(
            summary.audit_checks,
            vec!["qit_st_structure", "l_diversity"]
        );

        // A manifest without an audit reports None.
        let plain = RunManifest::capture("publish", &r).to_json();
        let plain_summary = validate_manifest_json(&plain).unwrap();
        assert_eq!(plain_summary.audit_passed, None);
        assert_eq!(plain_summary.audit_stage, None);
        assert!(plain_summary.audit_checks.is_empty());

        // A stage-less audit block (older producer) still validates.
        let unstamped = RunManifest::capture("publish", &r).with_audit(AuditSummary {
            stage: String::new(),
            passed: true,
            checks: vec![("qit_st_structure".to_string(), true)],
        });
        let s = validate_manifest_json(&unstamped.to_json()).unwrap();
        assert_eq!(s.audit_stage, None);
        assert_eq!(s.audit_passed, Some(true));

        // `passed` lying about its per-check outcomes is rejected.
        let lying = text.replace("\"passed\": false", "\"passed\": true");
        assert!(validate_manifest_json(&lying).is_err());
        // Non-boolean check outcomes are rejected.
        let bad = text.replace("\"l_diversity\": false", "\"l_diversity\": 0");
        assert!(validate_manifest_json(&bad).is_err());
        // An empty stage string is rejected.
        let empty_stage = text.replace("\"stage\": \"anatomize\"", "\"stage\": \"\"");
        assert!(validate_manifest_json(&empty_stage).is_err());
    }

    #[test]
    fn validator_rejects_broken_manifests() {
        let r = busy_registry();
        let good = RunManifest::capture("x", &r).with_io(1, 2).to_json();
        assert!(validate_manifest_json(&good).is_ok());
        for (label, bad) in [
            ("not json", "nope".to_string()),
            ("not object", "[]".to_string()),
            (
                "wrong version",
                good.replace("\"manifest_version\": 1", "\"manifest_version\": 9"),
            ),
            ("missing name", good.replace("\"name\"", "\"nom\"")),
            (
                "negative counter",
                good.replace("\"core.rows\": 40", "\"core.rows\": -1"),
            ),
            ("io mismatch", good.replace("\"total\": 3", "\"total\": 4")),
        ] {
            assert!(validate_manifest_json(&bad).is_err(), "accepted {label}");
        }
    }

    #[test]
    fn disabled_capture_says_so() {
        let r = Registry::new();
        r.counter("c");
        let m = RunManifest::capture("idle", &r);
        assert!(!m.enabled);
        let summary = validate_manifest_json(&m.to_json()).unwrap();
        assert_eq!(summary.phases, 0);
        assert_eq!(summary.io_total, None);
    }
}
