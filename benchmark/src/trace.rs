//! In-memory spans recorded by the benchmark's own files around the
//! calls into each layer. Nothing is written until the run ends.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one statement execution share this identifier.
    pub stmt_id: u32,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, stmt_id: u32, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            stmt_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span and return its duration in milliseconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.ms()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover (children of one span do not
    /// overlap, the benchmark runs one thread).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p as usize] -= s.ms();
            }
        }
        out
    }

    /// `{name, stmt_id, parent, start_ns, end_ns, self_ms}` per span;
    /// `parent` is an index into the array, -1 for a root.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .zip(self.self_ms())
                .map(|(s, self_ms)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("stmt_id", Json::Int(i64::from(s.stmt_id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Int(-1), |p| Json::Int(i64::from(p))),
                        ),
                        ("start_ns", Json::Int(s.start_ns as i64)),
                        ("end_ns", Json::Int(s.end_ns as i64)),
                        ("self_ms", Json::Num(self_ms)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin("stmt", 0, None);
        let child = t.begin("child", 0, Some(root));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child_ms = t.end(child);
        let root_ms = t.end(root);
        let selfs = t.self_ms();
        assert!(child_ms >= 2.0 && root_ms >= child_ms);
        assert!((selfs[0] - (root_ms - child_ms)).abs() < 1e-9);
        assert!(selfs[0] >= 0.0);
    }
}
