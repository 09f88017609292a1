//! In-memory span recorder for traced runs. Each span has a name, a
//! start and end (ns since the recorder was created) and the index of
//! its parent span. Spans are written out once, at exit.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran.
    pub name: String,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records nested spans when enabled; costs one branch when not.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        Duration::from_nanos(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.end_ns - s.start_ns)
                .sum(),
        )
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total() {
        let mut spans = Spans::new(true);
        spans.span("outer", |s| {
            s.span("inner", |_| ());
            s.span("inner", |_| ());
        });
        assert!(spans.total("outer") >= spans.total("inner"));
        let text = spans.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).unwrap().ends_with("\"parent\":0}"));
    }

    #[test]
    fn disabled_recorder_is_empty() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.span("x", |_| 7), 7);
        assert_eq!(spans.to_jsonl(), "");
    }
}
