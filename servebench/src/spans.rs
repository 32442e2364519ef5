//! The harness's own spans: one per public call it makes into the
//! program, each with a name, a start, an end, its parent and the id of
//! the workload run it belongs to. Spans stay in memory while the
//! benchmark runs and are written out as one Chrome trace-event file
//! when it ends. A disabled tracer records nothing and reads no clock.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            enabled: false,
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Start recording spans for workload run `run`, or stop recording.
    pub fn set_run(&mut self, run: u32, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "run switched inside a span");
        self.run = run;
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(index);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.stack.pop().expect("exit matches an enter");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// `(workload run, nanoseconds)` of every recorded span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<(u32, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.run, s.duration_ns() as f64))
            .collect()
    }

    /// Each span's self time: its duration minus the time its child
    /// spans cover. Children never overlap (one thread), so the covered
    /// time is the sum of their durations.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// The spans of the first `runs` recorded workload runs as Chrome
    /// trace-event JSON (open it in Perfetto or `chrome://tracing`);
    /// `args` carries the parent span index, the workload run and the
    /// self time.
    pub fn chrome_json(&self, runs: usize) -> String {
        let self_ns = self.self_ns();
        let mut seen: Vec<u32> = Vec::new();
        let kept = self
            .spans
            .iter()
            .take_while(|s| {
                if !seen.contains(&s.run) {
                    seen.push(s.run);
                }
                seen.len() <= runs
            })
            .count();
        let mut out = String::with_capacity(kept * 120 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, (s, own)) in self.spans[..kept].iter().zip(self_ns).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"run\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.run,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.run,
                own as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}
