//! Failure detection by missed heartbeats.
//!
//! A fleet coordinator (PROTOCOL.md §9.1) probes each backend with
//! `Ping` frames and declares it dead after `max_missed` *consecutive*
//! unanswered probes. This module holds the accounting only: a
//! [`HeartbeatMonitor`] is a deterministic state machine fed by the
//! caller's probe loop — it owns no socket and reads no clock, so the
//! same probe/reply sequence always yields the same verdict regardless
//! of scheduling. That matters because the whole point of a
//! deadline-based detector is to catch deaths that produce *no* socket
//! event (SIGKILL with the port lingering, a silent partition): the
//! detector must key off absence of replies, never off a FIN.
//!
//! The protocol is strict request/reply: each [`tick`] issues a fresh
//! sequence number and simultaneously rules on the previous one — a
//! probe still outstanding when the next tick fires counts as missed.
//! Replies are matched by exact sequence number, so a stale `Pong`
//! surfacing after a blip cannot retroactively clear newer misses it
//! knows nothing about.
//!
//! [`tick`]: HeartbeatMonitor::tick

/// What one [`HeartbeatMonitor::tick`] ruled about the *previous*
/// probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatVerdict {
    /// The previous probe was answered (or this is the first probe).
    Healthy,
    /// The previous probe went unanswered, but the consecutive-miss
    /// count is still below the death threshold.
    Missed,
    /// Consecutive misses reached `max_missed`: the peer is dead for
    /// good — no later reply revives it.
    Dead,
}

/// Per-peer heartbeat accounting for a health-check loop.
///
/// # Examples
///
/// ```
/// use menos_net::{HeartbeatMonitor, HeartbeatVerdict};
///
/// let mut hb = HeartbeatMonitor::new(3);
/// let seq = hb.tick().0;        // probe 0 goes out
/// assert!(hb.note_reply(seq));  // ...and is answered
/// hb.tick();                    // probe 1 goes out
/// hb.tick();                    // unanswered: 1 consecutive miss
/// hb.tick();                    // unanswered: 2
/// let (_, verdict) = hb.tick(); // unanswered: 3 of 3 — dead
/// assert_eq!(verdict, HeartbeatVerdict::Dead);
/// ```
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    max_missed: u32,
    next_seq: u64,
    outstanding: Option<u64>,
    consecutive_missed: u32,
    total_missed: u64,
    replies: u64,
    dead: bool,
}

impl HeartbeatMonitor {
    /// A monitor that declares death after `max_missed` consecutive
    /// unanswered probes. It never reads a clock: the probe loop owns
    /// the cadence. `max_missed` is clamped to at least 1 — a threshold
    /// of 0 would declare a peer dead before the first probe is even
    /// ruled on.
    pub fn new(max_missed: u32) -> Self {
        HeartbeatMonitor {
            max_missed: max_missed.max(1),
            next_seq: 0,
            outstanding: None,
            consecutive_missed: 0,
            total_missed: 0,
            replies: 0,
            dead: false,
        }
    }

    /// Issues the next probe: returns the sequence number to send and
    /// the verdict on the probe *before* it. Counting at the next tick
    /// (rather than on a reply timeout) makes one tick = one probe =
    /// one ruling, so `max_missed` ticks bound detection latency
    /// exactly.
    pub fn tick(&mut self) -> (u64, HeartbeatVerdict) {
        let verdict = if self.outstanding.is_some() {
            self.consecutive_missed += 1;
            self.total_missed += 1;
            if self.consecutive_missed >= self.max_missed {
                self.dead = true;
                HeartbeatVerdict::Dead
            } else {
                HeartbeatVerdict::Missed
            }
        } else {
            HeartbeatVerdict::Healthy
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding = Some(seq);
        (seq, verdict)
    }

    /// Records a `Pong` for probe `seq`. Only the currently
    /// outstanding sequence clears the miss streak; anything else is a
    /// stale duplicate and is ignored (returns `false`). A reply never
    /// resurrects a peer already ruled dead — failover has started and
    /// a late pong must not race it.
    pub fn note_reply(&mut self, seq: u64) -> bool {
        if self.dead || self.outstanding != Some(seq) {
            return false;
        }
        self.outstanding = None;
        self.consecutive_missed = 0;
        self.replies += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor(max_missed: u32) -> HeartbeatMonitor {
        HeartbeatMonitor::new(max_missed)
    }

    #[test]
    fn answered_probes_never_accumulate_misses() {
        let mut hb = monitor(3);
        for _ in 0..100 {
            let (seq, verdict) = hb.tick();
            assert_eq!(verdict, HeartbeatVerdict::Healthy);
            assert!(hb.note_reply(seq));
        }
        assert!(!hb.dead);
        assert_eq!(hb.total_missed, 0);
        assert_eq!(hb.replies, 100);
    }

    #[test]
    fn max_missed_consecutive_silences_rule_the_peer_dead() {
        let mut hb = monitor(3);
        hb.tick(); // probe 0, never answered
        assert_eq!(hb.tick().1, HeartbeatVerdict::Missed);
        assert_eq!(hb.tick().1, HeartbeatVerdict::Missed);
        assert_eq!(hb.tick().1, HeartbeatVerdict::Dead);
        assert!(hb.dead);
        assert_eq!(hb.consecutive_missed, 3);
        assert_eq!(hb.total_missed, 3);
    }

    #[test]
    fn a_reply_resets_the_streak_but_not_the_lifetime_count() {
        let mut hb = monitor(3);
        hb.tick(); // probe 0 unanswered
        let (seq, verdict) = hb.tick(); // miss 1, probe 1 out
        assert_eq!(verdict, HeartbeatVerdict::Missed);
        assert!(hb.note_reply(seq));
        assert_eq!(hb.consecutive_missed, 0);
        assert_eq!(hb.total_missed, 1, "lifetime count is monotonic");
        // A fresh streak must again take the full max_missed.
        hb.tick();
        assert_eq!(hb.tick().1, HeartbeatVerdict::Missed);
        assert!(!hb.dead);
    }

    #[test]
    fn stale_and_unknown_sequences_are_ignored() {
        let mut hb = monitor(2);
        let (first, _) = hb.tick();
        let (second, _) = hb.tick(); // first is now ruled missed
        assert!(
            !hb.note_reply(first),
            "a stale pong cannot clear newer misses"
        );
        assert!(!hb.note_reply(second + 99), "unknown seq is noise");
        assert!(hb.note_reply(second));
        assert!(!hb.note_reply(second), "replies are one-shot");
    }

    #[test]
    fn death_is_sticky() {
        let mut hb = monitor(1);
        let (seq, _) = hb.tick();
        let (next, verdict) = hb.tick();
        assert_eq!(verdict, HeartbeatVerdict::Dead);
        assert!(!hb.note_reply(seq), "a late pong must not race failover");
        assert!(!hb.note_reply(next), "nor a current one");
        assert!(hb.dead);
    }

    #[test]
    fn zero_max_missed_is_clamped_to_one() {
        let mut hb = monitor(0);
        assert_eq!(hb.tick().1, HeartbeatVerdict::Healthy);
        assert_eq!(hb.tick().1, HeartbeatVerdict::Dead);
    }
}
