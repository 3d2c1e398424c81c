//! Timing, span recording, order statistics, process resource usage and
//! the host-noise probes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span: a timed call into a layer, or a whole op.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

/// An open span; close it with [`Tracer::end`].
pub struct Open {
    started: Instant,
    idx: Option<usize>,
}

/// The benchmark's own span recorder. Spans are kept in memory and
/// written out when the run ends. When tracing is off, `begin`/`end`
/// only read the clock, so untraced runs pay for nothing else.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let started = Instant::now();
        let idx = self.on.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                start: started - self.origin,
                end: started - self.origin,
                parent: self.stack.last().copied(),
                op,
            });
            self.stack.push(idx);
            idx
        });
        Open { started, idx }
    }

    /// Close `open` and return its wall time.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx].end = now - self.origin;
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close in LIFO order");
        }
        now - open.started
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name, op);
        let out = f();
        (out, self.end(open))
    }

    /// Per span name: the self time of every span (its duration minus
    /// the part its children cover), in recording order.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            out.entry(s.name)
                .or_default()
                .push(ms((s.end - s.start).saturating_sub(c)));
        }
        out
    }

    /// The spans as JSON lines, times in microseconds since the run began.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_us":{:.3},"end_us":{:.3},"parent":{parent},"op":{}}}"#,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.op
            );
        }
        out
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `p` (0 < p <= 1) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Deterministic 64-bit mixer for deriving per-op seeds.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// This process's resource usage so far (children excluded).
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub max_rss_kb: i64,
    pub minor_faults: i64,
}

#[cfg(target_os = "linux")]
pub fn usage() -> Usage {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        // maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
        // oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `r` is a live, writable struct with the layout of the
    // 64-bit Linux `struct rusage` (two `timeval`s then fourteen
    // `long`s), which is all `getrusage` writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    Usage {
        user_s: r.utime.sec as f64 + r.utime.usec as f64 * 1e-6,
        sys_s: r.stime.sec as f64 + r.stime.usec as f64 * 1e-6,
        max_rss_kb: r.longs[0],
        minor_faults: r.longs[4],
    }
}

#[cfg(not(target_os = "linux"))]
pub fn usage() -> Usage {
    compile_error!("the benchmark reads peak RSS through Linux getrusage");
}

/// Host-noise probes, in milliseconds: a fixed ALU kernel (fastest of
/// three), a cache-resident scan shaped like the audit's (400 passes
/// over 128Ki 12-byte records, 1.5 MiB) and a memory-streaming kernel
/// (10 passes over 64 MiB). Run in a child process so the probe buffers
/// never count towards the measured process's peak RSS.
pub fn probes() -> [f64; 3] {
    let alu = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x1234_5678_9ABC_DEF0u64;
            for _ in 0..40_000_000u32 {
                x = x.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x9E37;
            }
            std::hint::black_box(x);
            ms(t.elapsed())
        })
        .fold(f64::INFINITY, f64::min);

    let records: Vec<[u32; 3]> = (0..128 << 10).map(|i| [i / 10, i % 50, 1]).collect();
    let t = Instant::now();
    let mut hits = 0usize;
    for pass in 0..400 {
        hits += std::hint::black_box(&records)
            .iter()
            .filter(|r| r[0] == pass)
            .count();
    }
    std::hint::black_box(hits);
    let cache = ms(t.elapsed());

    const WORDS: usize = 64 << 20 >> 3;
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let t = Instant::now();
    let mut sum = 0u64;
    for _ in 0..10 {
        sum = sum.wrapping_add(std::hint::black_box(&buf).iter().fold(0u64, |a, &w| a ^ w));
    }
    std::hint::black_box(sum);
    [alu, cache, ms(t.elapsed())]
}
