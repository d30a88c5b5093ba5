//! The proxy side of connection recovery as one sans-IO state machine.
//!
//! [`ClientSession`] never touches a socket or a clock. A driver feeds
//! it decoded [`ServerMessage`]s and stall/reconnect events; it returns
//! the next backoff delay and hands the [`ClientMessage`]s to write to a
//! `write` callback, in wire order. [`crate::session::SimSession`]
//! drives it over the network simulator, `GatewayClient` (crate
//! `uniint-gateway`) over TCP.

use std::ops::{Deref, DerefMut};

use crate::plugin::DeviceFrame;
use crate::proxy::UniIntProxy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniint_protocol::error::ProtocolError;
use uniint_protocol::message::{ClientMessage, ServerMessage};

/// Consecutive resume attempts that may die on the wire before the
/// session escalates to a full refresh instead of an incremental one.
const MAX_FAILED_RESUMES: u32 = 3;

/// A reconnect backoff schedule: exponential from a base delay up to a
/// cap, plus up to 25% seeded jitter, for a limited number of attempts.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    base_us: u64,
    cap_us: u64,
    max_attempts: u32,
}

impl Backoff {
    /// Starts at `base_us`, doubles up to `cap_us` (microseconds), and
    /// gives up after `max_attempts` attempts per stall.
    pub const fn new(base_us: u64, cap_us: u64, max_attempts: u32) -> Backoff {
        Backoff {
            base_us,
            cap_us,
            max_attempts,
        }
    }
}

/// A [`UniIntProxy`] plus its connection-recovery state: retransmit
/// log, backoff, incremental resume and escalation to a full refresh.
///
/// It dereferences to the proxy for plug-ins and read-outs. Messages
/// that must survive a break go through [`ClientSession::send`].
#[derive(Debug)]
pub struct ClientSession {
    proxy: UniIntProxy,
    /// Every regular client message sent this session, in send order,
    /// minus an already-acknowledged prefix of `log_offset` messages.
    /// The server counts received client messages the same way, so
    /// `ResumeAck::client_msgs_received` indexes straight into this
    /// log: everything past that count is retransmitted verbatim.
    log: Vec<ClientMessage>,
    log_offset: u64,
    /// Messages at the end of `log` not yet written because a `Resume`
    /// was unacknowledged. Written then, they would reach the server
    /// ahead of the retransmissions its ack asks for, out of log order.
    held: usize,
    backoff: Backoff,
    /// Jitter RNG, seeded from the session seed.
    rng: StdRng,
    /// Reconnect attempts made in the current stall.
    attempts: u32,
    resume_pending: bool,
    /// Consecutive resumes that stalled again before their ack arrived.
    failed_resumes: u32,
    last_frame: Option<DeviceFrame>,
    frames_delivered: u64,
    bells: u32,
}

impl ClientSession {
    /// Wraps `proxy`; `seed` fixes the backoff jitter sequence.
    pub fn new(proxy: UniIntProxy, seed: u64, backoff: Backoff) -> ClientSession {
        ClientSession {
            proxy,
            log: Vec::new(),
            log_offset: 0,
            held: 0,
            backoff,
            rng: StdRng::seed_from_u64(seed ^ 0x5e55_10e5_b0ff_0e5e),
            attempts: 0,
            resume_pending: false,
            failed_resumes: 0,
            last_frame: None,
            frames_delivered: 0,
            bells: 0,
        }
    }

    /// Frames delivered to the output device so far.
    pub fn frames_delivered(&self) -> u64 {
        self.frames_delivered
    }

    /// The most recent adapted device frame.
    pub fn last_frame(&self) -> Option<&DeviceFrame> {
        self.last_frame.as_ref()
    }

    /// Bell count so far.
    pub fn bells(&self) -> u32 {
        self.bells
    }

    /// Opens the session: writes the initial `Hello`.
    pub fn open(&mut self, write: impl FnMut(&ClientMessage)) {
        let hello = self.proxy.connect();
        self.send(hello, write);
    }

    /// Logs regular client messages and writes them — or, while a
    /// `Resume` awaits its ack, holds them for the ack to write.
    /// `Resume` and retransmissions bypass the log: the server leaves
    /// the former out of its count, and the latter are logged already.
    pub fn send(&mut self, msgs: Vec<ClientMessage>, mut write: impl FnMut(&ClientMessage)) {
        for m in msgs {
            if self.resume_pending {
                self.held += 1;
            } else {
                write(&m);
            }
            self.log.push(m);
        }
    }

    /// Handles one decoded server message: answers a `ResumeAck` with
    /// the retransmissions it asks for, then feeds the proxy and sends
    /// its replies.
    ///
    /// # Errors
    ///
    /// Propagates the proxy's [`ProtocolError`].
    pub fn on_server(
        &mut self,
        msg: &ServerMessage,
        mut write: impl FnMut(&ClientMessage),
    ) -> Result<(), ProtocolError> {
        if let ServerMessage::ResumeAck {
            client_msgs_received,
            ..
        } = msg
        {
            self.on_resume_ack(*client_msgs_received, &mut write);
        }
        let out = self.proxy.handle_server(msg)?;
        if let Some(f) = out.frame {
            self.last_frame = Some(f);
            self.frames_delivered += 1;
        }
        if out.bell {
            self.bells += 1;
        }
        self.send(out.messages, write);
        Ok(())
    }

    /// The connection was found dead: records the stall and restarts
    /// the backoff schedule.
    pub fn on_stall(&mut self) {
        self.proxy.record_stall();
        self.attempts = 0;
    }

    /// Microseconds to wait before the next reconnect attempt.
    ///
    /// # Errors
    ///
    /// `Err(attempts)` once the schedule's attempt limit is spent.
    pub fn next_backoff(&mut self) -> Result<u64, u32> {
        if self.attempts >= self.backoff.max_attempts {
            return Err(self.attempts);
        }
        let doublings = self.attempts.min(63);
        self.attempts += 1;
        self.proxy.record_backoff_attempt();
        let b = self.backoff;
        let delay = b.base_us.saturating_mul(1 << doublings).min(b.cap_us);
        Ok(delay + self.rng.gen_range(0..=delay / 4))
    }

    /// A fresh connection is up: writes a new `Hello` if the break beat
    /// the handshake, otherwise a `Resume`, and escalates to a full
    /// refresh after `MAX_FAILED_RESUMES` resumes died before their ack.
    pub fn on_reconnect(&mut self, mut write: impl FnMut(&ClientMessage)) {
        if !self.proxy.is_connected() {
            // Nothing to resume (and no Resume was ever sent): start over.
            self.log.clear();
            self.log_offset = 0;
            self.open(write);
            return;
        }
        if self.resume_pending {
            self.failed_resumes += 1;
        }
        self.resume_pending = true;
        write(&self.proxy.make_resume());
        if self.failed_resumes >= MAX_FAILED_RESUMES {
            self.failed_resumes = 0;
            // Held like any message sent before the ack.
            let refresh = self.proxy.recover();
            self.send(refresh, write);
        }
    }

    /// Retransmits, in log order, every logged message the server
    /// reports missing, then the held ones.
    fn on_resume_ack(&mut self, client_msgs_received: u64, mut write: impl FnMut(&ClientMessage)) {
        self.resume_pending = false;
        self.failed_resumes = 0;
        // Never trust a count beyond what was written: `log_offset`
        // would run past the real stream, and a later ack would make
        // the server apply messages it already has a second time.
        let written = self.log_offset + (self.log.len() - self.held) as u64;
        let received = client_msgs_received.clamp(self.log_offset, written);
        let start = (received - self.log_offset) as usize;
        self.proxy
            .record_retransmits((self.log.len() - self.held - start) as u64);
        self.held = 0;
        for m in &self.log[start..] {
            write(m);
        }
        self.log.drain(..start);
        self.log_offset = received;
    }
}

impl Deref for ClientSession {
    type Target = UniIntProxy;

    fn deref(&self) -> &UniIntProxy {
        &self.proxy
    }
}

impl DerefMut for ClientSession {
    fn deref_mut(&mut self) -> &mut UniIntProxy {
        &mut self.proxy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_protocol::input::InputEvent;
    use uniint_raster::geom::Rect;
    use uniint_raster::pixel::PixelFormat;

    const SCHEDULE: Backoff = Backoff::new(20_000, 1_000_000, 16);

    fn session() -> ClientSession {
        ClientSession::new(UniIntProxy::new("unit"), 7, SCHEDULE)
    }

    /// Runs one session step and returns what it wrote.
    fn written(f: impl FnOnce(&mut dyn FnMut(&ClientMessage))) -> Vec<ClientMessage> {
        let mut out = Vec::new();
        f(&mut |m: &ClientMessage| out.push(m.clone()));
        out
    }

    fn init() -> ServerMessage {
        ServerMessage::Init {
            version: uniint_protocol::message::PROTOCOL_VERSION,
            width: 16,
            height: 8,
            format: PixelFormat::Rgb888,
            name: "panel".into(),
        }
    }

    fn ack(client_msgs_received: u64) -> ServerMessage {
        ServerMessage::ResumeAck {
            client_msgs_received,
            replayed: true,
        }
    }

    fn click(n: u16) -> ClientMessage {
        ClientMessage::Input(InputEvent::click(n, 0)[0])
    }

    /// A session whose handshake completed: log = Hello + Init replies.
    fn connected() -> ClientSession {
        let mut s = session();
        s.open(|_| {});
        s.on_server(&init(), |_| {}).unwrap();
        assert!(s.is_connected());
        s
    }

    #[test]
    fn break_before_handshake_starts_over_with_fresh_hello() {
        let mut s = session();
        let hello = written(|w| s.open(w));
        s.send(vec![click(1)], |_| {});
        assert_eq!(s.log.len(), 2);
        s.on_stall();
        s.next_backoff().unwrap();
        let out = written(|w| s.on_reconnect(w));
        assert_eq!(out, hello, "only a fresh Hello, no Resume");
        assert_eq!(s.log, hello, "log restarted from the new Hello");
        assert_eq!(s.log_offset, 0);
        assert!(!s.resume_pending);
    }

    #[test]
    fn ack_retransmits_exactly_the_tail_in_order() {
        let mut s = connected();
        let before = s.stats().retransmits;
        let sent = s.log.len() as u64;
        let clicks: Vec<ClientMessage> = (1..=4).map(click).collect();
        s.send(clicks.clone(), |_| {});
        s.on_stall();
        let out = written(|w| s.on_reconnect(w));
        assert_eq!(out, vec![s.make_resume()]);
        // The server got the first click only.
        let out = written(|w| s.on_server(&ack(sent + 1), w).unwrap());
        assert_eq!(&out[..3], &clicks[1..], "tail after the ack, in order");
        assert!(
            matches!(
                out[3],
                ClientMessage::UpdateRequest {
                    incremental: true,
                    ..
                }
            ),
            "then the proxy's catch-up request: {out:?}"
        );
        assert_eq!(s.stats().retransmits, before + 3);
        assert_eq!(s.log_offset, sent + 1);
        assert!(!s.resume_pending);
    }

    #[test]
    fn over_claiming_ack_is_clamped_to_what_was_sent() {
        let mut s = connected();
        let sent = s.log.len() as u64;
        s.on_stall();
        s.on_reconnect(|_| {});
        // The server claims more than was ever sent.
        let out = written(|w| s.on_server(&ack(sent + 5), w).unwrap());
        assert_eq!(out.len(), 1, "nothing to retransmit: {out:?}");
        let sent = sent + 1; // the catch-up request just logged
        assert_eq!(s.log_offset + s.log.len() as u64, sent);
        // Two clicks go out; the server sees only the first before the
        // next break. The second must be retransmitted, the first not.
        s.send(vec![click(1), click(2)], |_| {});
        s.on_stall();
        s.on_reconnect(|_| {});
        let out = written(|w| s.on_server(&ack(sent + 1), w).unwrap());
        assert_eq!(out[0], click(2), "only the lost click: {out:?}");
        assert_eq!(s.stats().retransmits, 1);
    }

    #[test]
    fn third_dead_resume_escalates_to_full_refresh() {
        let mut s = connected();
        let sent = s.log.len() as u64;
        for _ in 0..MAX_FAILED_RESUMES {
            s.on_stall();
            let out = written(|w| s.on_reconnect(w));
            assert_eq!(out, vec![s.make_resume()], "plain incremental resume");
        }
        assert_eq!(s.stats().full_resyncs, 0);
        // Each of those three resumes died before its ack.
        s.on_stall();
        let out = written(|w| s.on_reconnect(w));
        assert_eq!(out, vec![s.make_resume()], "the refresh waits for the ack");
        assert_eq!(s.stats().full_resyncs, 1, "proxy.recover() ran");
        assert_eq!(s.failed_resumes, 0);
        let refresh = [
            ClientMessage::SetPixelFormat(PixelFormat::Rgb888),
            ClientMessage::SetEncodings(uniint_protocol::encoding::Encoding::ALL.to_vec()),
            ClientMessage::UpdateRequest {
                incremental: false,
                rect: Rect::new(0, 0, 16, 8),
            },
        ];
        assert_eq!(s.log[s.log.len() - 3..], refresh, "logged, Resume not");
        let out = written(|w| s.on_server(&ack(sent), w).unwrap());
        assert_eq!(out[..3], refresh, "written once, after the ack");
        assert_eq!(s.stats().retransmits, 0, "first sends, not retransmits");
    }

    #[test]
    fn input_during_a_pending_resume_is_written_once_after_the_ack() {
        let mut s = connected();
        let sent = s.log.len() as u64;
        s.send(vec![click(1)], |_| {});
        s.on_stall();
        s.on_reconnect(|_| {});
        // The user taps again before the server has answered the Resume.
        let out = written(|w| s.send(vec![click(2)], w));
        assert!(out.is_empty(), "held behind the Resume: {out:?}");
        // The server lost click 1 with the old connection.
        let out = written(|w| s.on_server(&ack(sent), w).unwrap());
        assert_eq!(out[..2], [click(1), click(2)], "log order, once each");
        assert_eq!(s.stats().retransmits, 1, "only click 1 went out before");
        assert_eq!(s.log_offset, sent);
        // Nothing is held any more: the next input goes straight out.
        let out = written(|w| s.send(vec![click(3)], w));
        assert_eq!(out, vec![click(3)]);
    }

    #[test]
    fn backoff_sequence_is_pinned_and_gives_up_at_the_limit() {
        let delays = |backoff: Backoff| {
            let mut s = ClientSession::new(UniIntProxy::new("unit"), 7, backoff);
            s.on_stall();
            let mut v = Vec::new();
            let attempts = loop {
                match s.next_backoff() {
                    Ok(d) => v.push(d),
                    Err(attempts) => break attempts,
                }
            };
            assert_eq!(s.stats().backoff_attempts, attempts as u64);
            (v, attempts)
        };
        // Seed 7, captured from the two schedules' earlier hand-rolled
        // loops (simulator, then TCP).
        let (sim, attempts) = delays(SCHEDULE);
        assert_eq!(attempts, 16);
        assert_eq!(
            sim,
            [
                20023, 44170, 84353, 190968, 373975, 780282, 1095276, 1046558, 1200613, 1167737,
                1181432, 1132712, 1031582, 1207363, 1232236, 1211519
            ]
        );
        let (tcp, attempts) = delays(Backoff::new(10_000, 500_000, 10));
        assert_eq!(attempts, 10);
        assert_eq!(
            tcp,
            [12182, 24777, 44450, 91918, 175122, 391261, 515894, 518971, 623565, 500523]
        );
        // A new stall restarts the schedule from the base delay.
        let mut s = session();
        s.on_stall();
        s.next_backoff().unwrap();
        s.next_backoff().unwrap();
        s.on_stall();
        assert!((20_000..=25_000).contains(&s.next_backoff().unwrap()));
    }
}
