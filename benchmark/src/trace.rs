//! Spans recorded by the benchmark's own code around calls into the
//! program's layers, and the arithmetic that turns them into per-layer
//! numbers. Nothing here is compiled into the program under test.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// Nanoseconds on a timeline both processes of a run share.
///
/// Each process pairs one `Instant` with one wall-clock reading when
/// it starts; durations come from the monotonic clock, and the wall
/// clock only places the two processes' zero points relative to each
/// other (to well under the shortest span that is compared across
/// processes, a server dispatch).
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    /// This process's `start` on the shared timeline.
    offset_ns: i64,
    /// The shared timeline's zero as nanoseconds since the Unix epoch.
    pub epoch_unix_ns: u128,
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("system clock is past 1970")
        .as_nanos()
}

impl Clock {
    /// A new timeline whose zero is now (the generator's clock).
    pub fn new() -> Clock {
        Clock {
            start: Instant::now(),
            offset_ns: 0,
            epoch_unix_ns: unix_ns(),
        }
    }

    /// A clock on the timeline whose zero is `epoch_unix_ns` (the
    /// server's clock, handed the generator's epoch).
    pub fn aligned(epoch_unix_ns: u128) -> Clock {
        Clock {
            start: Instant::now(),
            offset_ns: (unix_ns() as i128 - epoch_unix_ns as i128) as i64,
            epoch_unix_ns,
        }
    }

    pub fn now_ns(&self) -> u64 {
        (self.offset_ns + self.start.elapsed().as_nanos() as i64).max(0) as u64
    }
}

/// The generator-side layers: every call the closed loop makes into
/// the program is inside exactly one of these spans.
pub const GEN_LAYERS: [&str; 7] = [
    "split.client.input_fwd",
    "split.client.head",
    "split.client.input_bwd",
    "net.compress.encode",
    "net.compress.decode",
    "split.tcp.send",
    "split.tcp.recv_wait",
];

/// Name of the span that blocks on the server.
pub const RECV_WAIT: &str = "split.tcp.recv_wait";
/// Name of the parent span of everything one wave does.
pub const WAVE: &str = "wave";

/// One timed interval: what ran, when, and which span caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the wave span this one ran under (`None` for a wave).
    pub parent: Option<usize>,
    pub wave: usize,
    pub session: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self, process: &str) -> Json {
        Json::obj([
            ("name", Json::from(self.name)),
            ("process", Json::from(process)),
            ("start_ns", Json::from(self.start_ns)),
            ("end_ns", Json::from(self.end_ns)),
            ("parent", self.parent.map_or(Json::Null, Json::from)),
            ("wave", Json::from(self.wave)),
            ("session", self.session.map_or(Json::Null, Json::from)),
        ])
    }
}

/// Records spans in memory while a traced run lasts. Switched off it
/// calls straight through, so traced and untraced runs share one loop.
pub struct Tracer {
    on: bool,
    clock: Clock,
    pub spans: Vec<Span>,
    wave: usize,
    wave_span: Option<usize>,
}

impl Tracer {
    pub fn new(on: bool, clock: Clock) -> Tracer {
        Tracer {
            on,
            clock,
            spans: Vec::new(),
            wave: 0,
            wave_span: None,
        }
    }

    pub fn begin_wave(&mut self, wave: usize) {
        self.wave = wave;
        if self.on {
            let now = self.clock.now_ns();
            self.wave_span = Some(self.spans.len());
            self.spans.push(Span {
                name: WAVE,
                start_ns: now,
                end_ns: now,
                parent: None,
                wave,
                session: None,
            });
        }
    }

    pub fn end_wave(&mut self) {
        if let Some(i) = self.wave_span.take() {
            self.spans[i].end_ns = self.clock.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, session: usize, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.clock.now_ns();
        let out = f();
        let end_ns = self.clock.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.wave_span,
            wave: self.wave,
            session: Some(session),
        });
        out
    }
}

/// For each wave among `spans`, the share of its wall time that its
/// child spans cover, in percent. The wave's self time is the rest:
/// loop bookkeeping and the tracer's own clock reads.
pub fn closure_pct(spans: &[Span]) -> Vec<f64> {
    let mut by_wave: std::collections::BTreeMap<usize, (u64, u64)> = Default::default();
    for s in spans {
        let (wall, covered) = by_wave.entry(s.wave).or_default();
        if s.name == WAVE {
            *wall = s.ns();
        } else {
            *covered += s.ns();
        }
    }
    by_wave
        .values()
        .filter(|(wall, _)| *wall > 0)
        .map(|(wall, covered)| 100.0 * *covered as f64 / *wall as f64)
        .collect()
}

/// Total length of `waits` not covered by any interval of `busy`.
///
/// `waits` are the generator's blocked-in-`recv` spans and `busy` the
/// server's dispatch spans; what is left is the time a reply was owed
/// while the handler was not running — socket transit, frame
/// reassembly, the write queue and the idle-sleep ladder. Both lists
/// must be sorted and free of overlap within themselves, which spans
/// of a single thread are. The result cannot be negative.
pub fn uncovered_ns(waits: &[(u64, u64)], busy: &[(u64, u64)]) -> u64 {
    let mut total = 0;
    let mut j = 0;
    for &(start, end) in waits {
        let mut at = start;
        while j < busy.len() && busy[j].1 <= at {
            j += 1;
        }
        let mut k = j;
        while k < busy.len() && busy[k].0 < end {
            if busy[k].0 > at {
                total += busy[k].0 - at;
            }
            at = at.max(busy[k].1.min(end));
            k += 1;
        }
        total += end.saturating_sub(at);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &'static str, start_ns: u64, end_ns: u64, wave: usize) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: Some(0),
            wave,
            session: Some(0),
        }
    }

    #[test]
    fn seven_spans_that_tile_a_wave_close_to_100_pct() {
        let mut spans = vec![Span {
            name: WAVE,
            start_ns: 0,
            end_ns: 700,
            parent: None,
            wave: 3,
            session: None,
        }];
        for (i, name) in GEN_LAYERS.iter().enumerate() {
            spans.push(leaf(name, 100 * i as u64, 100 * (i as u64 + 1), 3));
        }
        assert_eq!(closure_pct(&spans), vec![100.0]);
    }

    #[test]
    fn an_untraced_gap_shows_as_missing_closure() {
        let spans = vec![
            Span {
                name: WAVE,
                start_ns: 0,
                end_ns: 1000,
                parent: None,
                wave: 0,
                session: None,
            },
            leaf("split.tcp.send", 0, 400, 0),
            leaf(RECV_WAIT, 500, 1000, 0),
        ];
        assert_eq!(closure_pct(&spans), vec![90.0]);
    }

    #[test]
    fn tracer_switched_off_records_nothing_and_still_runs_the_call() {
        let mut t = Tracer::new(false, Clock::new());
        t.begin_wave(0);
        assert_eq!(t.span("split.tcp.send", 0, || 41 + 1), 42);
        t.end_wave();
        assert!(t.spans.is_empty());
    }

    #[test]
    fn tracer_nests_leaf_spans_under_their_wave() {
        let mut t = Tracer::new(true, Clock::new());
        t.begin_wave(7);
        t.span("split.tcp.send", 2, || ());
        t.end_wave();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, WAVE);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].wave, 7);
        assert_eq!(t.spans[1].session, Some(2));
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
    }

    #[test]
    fn wait_residual_is_the_wait_minus_what_the_server_covers() {
        // No server work at all: the whole wait is residual.
        assert_eq!(uncovered_ns(&[(10, 110)], &[]), 100);
        // Fully covered.
        assert_eq!(uncovered_ns(&[(10, 110)], &[(0, 200)]), 0);
        // Two dispatches inside one wait.
        assert_eq!(uncovered_ns(&[(0, 100)], &[(10, 30), (50, 90)]), 40);
        // A dispatch that straddles two waits counts in each only
        // where they overlap; server work outside any wait is ignored.
        assert_eq!(
            uncovered_ns(&[(0, 100), (150, 250)], &[(80, 170), (300, 400)]),
            80 + 80
        );
    }

    #[test]
    fn wait_residual_is_never_negative() {
        // Server spans that overrun, precede or exactly abut the waits.
        let waits = [(100, 200), (300, 400), (400, 500)];
        let cases: [&[(u64, u64)]; 4] = [
            &[(0, 1000)],
            &[(0, 100), (200, 300), (500, 600)],
            &[(150, 160), (160, 450)],
            &[(90, 110), (190, 310), (390, 410), (499, 501)],
        ];
        for busy in cases {
            let left = uncovered_ns(&waits, busy);
            assert!(left <= 300, "{busy:?} left {left}");
        }
        assert_eq!(uncovered_ns(&waits, cases[1]), 300);
        assert_eq!(uncovered_ns(&waits, cases[0]), 0);
    }

    #[test]
    fn aligned_clocks_agree_on_now() {
        let a = Clock::new();
        let b = Clock::aligned(a.epoch_unix_ns);
        let (ta, tb) = (a.now_ns(), b.now_ns());
        // Same machine, read back to back: within a millisecond.
        assert!(ta.abs_diff(tb) < 1_000_000, "{ta} vs {tb}");
    }
}
