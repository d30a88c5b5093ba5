//! The UniInt server: exports a window as universal-interaction bitmap
//! updates and injects universal input events into it.
//!
//! The paper stresses that *existing thin-client servers are used
//! unmodified*; accordingly this server knows nothing about interaction
//! devices. It speaks only the universal protocol: damage-driven
//! framebuffer updates out, keyboard/pointer events in.

use std::collections::VecDeque;
use uniint_protocol::encoding::{encode_auto, Encoding};
use uniint_protocol::message::{ClientMessage, RectUpdate, ServerMessage, PROTOCOL_VERSION};
use uniint_raster::color::Color;
use uniint_raster::geom::Rect;
use uniint_raster::pixel::PixelFormat;
use uniint_raster::region::Region;
use uniint_telemetry::histogram::Histogram;
use uniint_telemetry::registry::{Counter, Registry};
use uniint_wsys::ui::Ui;

/// How many sent updates the server retains for incremental resume. A
/// `Resume` pointing further back than this falls back to full damage.
pub const RESUME_RETENTION: usize = 64;

/// Per-client protocol state.
#[derive(Debug)]
struct ClientState {
    format: PixelFormat,
    encodings: Vec<Encoding>,
    /// Pending update request: `(incremental, rect)`.
    pending: Option<(bool, Rect)>,
    /// Damage accumulated since the client's last update.
    damage: Region,
    /// Client messages received this session (`Resume` not counted), so
    /// a reattaching client learns how much of its send stream was lost.
    msgs_received: u64,
    /// Sequence number the next update will carry (from 1).
    next_update_seq: u64,
    /// Regions of the last [`RESUME_RETENTION`] updates, by sequence —
    /// the replay log incremental resume re-damages from.
    sent_log: VecDeque<(u64, Region)>,
}

/// Statistics the benchmarks read from a server.
///
/// A snapshot view reconstructed from registry counters by
/// [`UniIntServer::stats`]; the `Copy` by-value API is unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Update messages sent.
    pub updates_sent: u64,
    /// Rectangles sent across all updates.
    pub rects_sent: u64,
    /// Total payload bytes across all rectangles.
    pub payload_bytes: u64,
    /// Input events injected into the window system.
    pub inputs_injected: u64,
    /// Device-health notifications received from the proxy's supervisor.
    pub health_reports: u64,
}

/// Rects already encoded in one pump, keyed by `(clipped rect, pixel
/// format, allowed encodings)`. Every viewer answered from the same
/// rendered framebuffer with the same key gets the same bytes, so only
/// the first encodes; the rest copy its payload. A memo must not outlive
/// the framebuffer state it was filled from: each pump starts a new one.
#[derive(Debug, Default)]
pub(crate) struct EncodeMemo {
    entries: Vec<MemoEntry>,
}

#[derive(Debug)]
struct MemoEntry {
    rect: Rect,
    format: PixelFormat,
    allowed: Vec<Encoding>,
    encoding: Encoding,
    payload: Vec<u8>,
}

impl EncodeMemo {
    /// The encoding and payload for `rect` in `format` under `allowed`,
    /// from the memo or else from `pixels` (which the memo then keeps).
    fn encode(
        &mut self,
        rect: Rect,
        format: PixelFormat,
        allowed: &[Encoding],
        pixels: impl FnOnce() -> Vec<Color>,
    ) -> (Encoding, Vec<u8>) {
        let hit = self
            .entries
            .iter()
            .find(|e| e.rect == rect && e.format == format && e.allowed == allowed);
        if let Some(e) = hit {
            return (e.encoding, e.payload.clone());
        }
        let (encoding, payload) = encode_auto(&pixels(), rect, allowed, format);
        self.entries.push(MemoEntry {
            rect,
            format,
            allowed: allowed.to_vec(),
            encoding,
            payload: payload.clone(),
        });
        (encoding, payload)
    }
}

/// Pre-registered metric handles for one server; updates on the
/// damage/encode hot path are lock-free atomics.
#[derive(Debug)]
struct ServerMetrics {
    registry: Registry,
    updates_sent: Counter,
    rects_sent: Counter,
    payload_bytes: Counter,
    inputs_injected: Counter,
    health_reports: Counter,
    update_payload_bytes: Histogram,
}

impl ServerMetrics {
    fn new(registry: Registry) -> ServerMetrics {
        ServerMetrics {
            updates_sent: registry.counter("server.updates_sent"),
            rects_sent: registry.counter("server.rects_sent"),
            payload_bytes: registry.counter("server.payload_bytes"),
            inputs_injected: registry.counter("server.inputs_injected"),
            health_reports: registry.counter("server.health_reports"),
            update_payload_bytes: registry.histogram("server.update_payload_bytes"),
            registry,
        }
    }
}

/// The UniInt server endpoint for one window.
///
/// The server does not own the [`Ui`] — the appliance application does —
/// so every call that touches the window takes `&mut Ui`.
#[derive(Debug)]
pub struct UniIntServer {
    client: Option<ClientState>,
    size: (u16, u16),
    metrics: ServerMetrics,
}

impl UniIntServer {
    /// Creates a server for a window of the given size, with its own
    /// private registry.
    pub fn new(ui: &Ui) -> UniIntServer {
        UniIntServer::with_telemetry(ui, Registry::new())
    }

    /// Creates a server recording into a shared session `registry`.
    pub fn with_telemetry(ui: &Ui, registry: Registry) -> UniIntServer {
        UniIntServer {
            client: None,
            size: (ui.size().w as u16, ui.size().h as u16),
            metrics: ServerMetrics::new(registry),
        }
    }

    /// The registry this server records into.
    pub fn telemetry(&self) -> &Registry {
        &self.metrics.registry
    }

    /// Whether a client session is established.
    pub fn has_client(&self) -> bool {
        self.client.is_some()
    }

    /// Accumulated statistics, reconstructed from the registry counters.
    pub fn stats(&self) -> ServerStats {
        let m = &self.metrics;
        ServerStats {
            updates_sent: m.updates_sent.get(),
            rects_sent: m.rects_sent.get(),
            payload_bytes: m.payload_bytes.get(),
            inputs_injected: m.inputs_injected.get(),
            health_reports: m.health_reports.get(),
        }
    }

    /// Handles one client message, possibly producing replies.
    pub fn handle_message(&mut self, ui: &mut Ui, msg: ClientMessage) -> Vec<ServerMessage> {
        // Count every client message except Resume, which sits outside
        // the session's message stream (it describes the stream itself).
        if !matches!(msg, ClientMessage::Resume { .. }) {
            if let Some(c) = &mut self.client {
                c.msgs_received += 1;
            }
        }
        match msg {
            ClientMessage::Hello { version, name: _ } => {
                let version = version.min(PROTOCOL_VERSION);
                self.client = Some(ClientState {
                    format: PixelFormat::Rgb888,
                    encodings: vec![Encoding::Raw],
                    pending: None,
                    // A new session owes the client the whole screen.
                    damage: Region::from_rect(ui.framebuffer().bounds()),
                    msgs_received: 1,
                    next_update_seq: 1,
                    sent_log: VecDeque::new(),
                });
                vec![ServerMessage::Init {
                    version,
                    width: self.size.0,
                    height: self.size.1,
                    format: PixelFormat::Rgb888,
                    name: ui.title().to_owned(),
                }]
            }
            ClientMessage::SetPixelFormat(format) => {
                if let Some(c) = &mut self.client {
                    c.format = format;
                    // Everything must be resent in the new format.
                    c.damage = Region::from_rect(ui.framebuffer().bounds());
                }
                Vec::new()
            }
            ClientMessage::SetEncodings(encs) => {
                if let Some(c) = &mut self.client {
                    c.encodings = if encs.is_empty() {
                        vec![Encoding::Raw]
                    } else {
                        encs
                    };
                }
                Vec::new()
            }
            ClientMessage::UpdateRequest { incremental, rect } => {
                if let Some(c) = &mut self.client {
                    if !incremental {
                        c.damage.add(
                            rect.intersect(ui.framebuffer().bounds())
                                .unwrap_or(Rect::EMPTY),
                        );
                    }
                    c.pending = Some((incremental, rect));
                }
                self.pump(ui)
            }
            ClientMessage::Input(ev) => {
                self.metrics.inputs_injected.inc();
                ui.dispatch(ev);
                // Input often causes repaints; let the caller pump.
                Vec::new()
            }
            ClientMessage::CutText(_) => Vec::new(),
            ClientMessage::DeviceHealth { .. } => {
                // Telemetry only: the appliance side may surface it to the
                // user, but the session state does not depend on it.
                self.metrics.health_reports.inc();
                Vec::new()
            }
            ClientMessage::Resume { last_update_seq } => {
                let Some(c) = &mut self.client else {
                    // No session to resume (e.g. the server restarted);
                    // the client must fall back to a fresh Hello.
                    return vec![ServerMessage::ResumeAck {
                        client_msgs_received: 0,
                        replayed: false,
                    }];
                };
                let newest = c.next_update_seq - 1;
                let mut replayed = true;
                if last_update_seq < newest {
                    // The log must cover every update past the client's
                    // last applied one; otherwise retention was exceeded
                    // and the whole screen is owed again.
                    let covered = c
                        .sent_log
                        .front()
                        .is_some_and(|(s, _)| *s <= last_update_seq + 1);
                    if covered {
                        let ClientState {
                            sent_log, damage, ..
                        } = c;
                        for (s, region) in sent_log.iter() {
                            if *s > last_update_seq {
                                damage.union_with(region);
                            }
                        }
                    } else {
                        replayed = false;
                        c.damage = Region::from_rect(ui.framebuffer().bounds());
                    }
                }
                // Answer the re-damaged area on the next pump even if the
                // client's own UpdateRequest was among the lost messages.
                c.pending = Some((true, ui.framebuffer().bounds()));
                let msgs_received = c.msgs_received;
                vec![
                    // Geometry may have changed while the client was gone;
                    // a same-size Resize is a no-op client-side.
                    ServerMessage::Resize {
                        width: self.size.0,
                        height: self.size.1,
                    },
                    ServerMessage::ResumeAck {
                        client_msgs_received: msgs_received,
                        replayed,
                    },
                ]
            }
        }
    }

    /// Renders the window, folds new damage into the client's account and
    /// answers any pending update request. Also surfaces the bell.
    pub fn pump(&mut self, ui: &mut Ui) -> Vec<ServerMessage> {
        ui.render();
        let mut out = Vec::new();
        if ui.take_bell() {
            out.push(ServerMessage::Bell);
        }
        let new_damage = ui.framebuffer_mut().take_damage();
        self.add_damage(&new_damage);
        out.extend(self.answer_pending(ui, &mut EncodeMemo::default()));
        out
    }

    /// Folds externally drained damage into this client's account. Used
    /// by [`crate::multi::MultiServer`], which drains the framebuffer
    /// once and distributes the region to every connected client.
    pub fn add_damage(&mut self, damage: &Region) {
        if let Some(c) = &mut self.client {
            c.damage.union_with(damage);
        }
    }

    /// Answers the client's pending update request from the already
    /// rendered framebuffer, without draining new damage. Rects are
    /// encoded through `memo`, which must be filled from this same
    /// framebuffer state.
    pub(crate) fn answer_pending(&mut self, ui: &Ui, memo: &mut EncodeMemo) -> Vec<ServerMessage> {
        let mut out = Vec::new();
        let Some(c) = &mut self.client else {
            return out;
        };
        let Some((_incremental, rect)) = c.pending else {
            return out;
        };
        // Only the area the client asked about.
        let mut to_send = c.damage.clone();
        to_send.intersect_rect(rect);
        if to_send.is_empty() {
            return out;
        }
        for r in to_send.rects() {
            c.damage.subtract(*r);
        }
        c.pending = None;
        let fb = ui.framebuffer();
        let mut rects = Vec::with_capacity(to_send.rect_count());
        let mut update_bytes = 0u64;
        for &r in to_send.rects() {
            let Some(clipped) = r.intersect(fb.bounds()) else {
                continue;
            };
            let (encoding, payload) =
                memo.encode(clipped, c.format, &c.encodings, || fb.read_rect(clipped).1);
            self.metrics.rects_sent.inc();
            self.metrics.payload_bytes.add(payload.len() as u64);
            update_bytes += payload.len() as u64;
            rects.push(RectUpdate {
                rect: clipped,
                encoding,
                payload,
            });
        }
        if !rects.is_empty() {
            self.metrics.updates_sent.inc();
            self.metrics.update_payload_bytes.record(update_bytes);
            let seq = c.next_update_seq;
            c.next_update_seq += 1;
            c.sent_log.push_back((seq, to_send));
            if c.sent_log.len() > RESUME_RETENTION {
                c.sent_log.pop_front();
            }
            out.push(ServerMessage::Update {
                seq,
                format: c.format,
                rects,
            });
        }
        out
    }

    /// Notifies the client that the window was recomposed to a new size.
    pub fn notify_resize(&mut self, ui: &mut Ui) -> Vec<ServerMessage> {
        self.size = (ui.size().w as u16, ui.size().h as u16);
        if let Some(c) = &mut self.client {
            c.damage = Region::from_rect(ui.framebuffer().bounds());
            // Pre-resize updates describe a dead geometry: never replay
            // them. A resume across a resize degrades to full damage.
            c.sent_log.clear();
            vec![ServerMessage::Resize {
                width: self.size.0,
                height: self.size.1,
            }]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniint_protocol::input::InputEvent;
    use uniint_wsys::prelude::*;

    fn session() -> (Ui, UniIntServer) {
        let mut ui = Ui::new(160, 120, Theme::classic(), "test-panel");
        ui.add(Button::new("Power"), Rect::new(10, 10, 60, 20));
        let server = UniIntServer::new(&ui);
        (ui, server)
    }

    fn connect(ui: &mut Ui, server: &mut UniIntServer) {
        let replies = server.handle_message(
            ui,
            ClientMessage::Hello {
                version: 1,
                name: "t".into(),
            },
        );
        assert!(matches!(
            replies[0],
            ServerMessage::Init {
                width: 160,
                height: 120,
                ..
            }
        ));
        server.handle_message(ui, ClientMessage::SetEncodings(Encoding::ALL.to_vec()));
    }

    #[test]
    fn hello_yields_init() {
        let (mut ui, mut server) = session();
        assert!(!server.has_client());
        connect(&mut ui, &mut server);
        assert!(server.has_client());
    }

    #[test]
    fn full_update_covers_screen() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        let replies = server.handle_message(
            &mut ui,
            ClientMessage::UpdateRequest {
                incremental: false,
                rect: Rect::new(0, 0, 160, 120),
            },
        );
        let ServerMessage::Update { rects, .. } = &replies[0] else {
            panic!("expected update, got {replies:?}");
        };
        let covered: u64 = rects.iter().map(|r| r.rect.area()).sum();
        assert_eq!(covered, 160 * 120);
    }

    #[test]
    fn incremental_update_waits_for_damage() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        // Drain the initial full screen.
        server.handle_message(
            &mut ui,
            ClientMessage::UpdateRequest {
                incremental: false,
                rect: Rect::new(0, 0, 160, 120),
            },
        );
        // Incremental request with no damage: no reply yet.
        let replies = server.handle_message(
            &mut ui,
            ClientMessage::UpdateRequest {
                incremental: true,
                rect: Rect::new(0, 0, 160, 120),
            },
        );
        assert!(replies.is_empty());
        // An input event presses the button, causing damage.
        server.handle_message(
            &mut ui,
            ClientMessage::Input(InputEvent::Pointer {
                x: 20,
                y: 20,
                buttons: uniint_protocol::input::ButtonMask::LEFT,
            }),
        );
        let replies = server.pump(&mut ui);
        let ServerMessage::Update { rects, .. } = &replies[0] else {
            panic!("expected update after damage");
        };
        assert!(!rects.is_empty());
        // Damaged area is just the button, not the whole screen.
        let covered: u64 = rects.iter().map(|r| r.rect.area()).sum();
        assert!(
            covered < 160 * 120 / 2,
            "incremental should be small: {covered}"
        );
    }

    #[test]
    fn update_respects_requested_rect() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        let replies = server.handle_message(
            &mut ui,
            ClientMessage::UpdateRequest {
                incremental: false,
                rect: Rect::new(0, 0, 50, 50),
            },
        );
        let ServerMessage::Update { rects, .. } = &replies[0] else {
            panic!()
        };
        for r in rects {
            assert!(Rect::new(0, 0, 50, 50).contains_rect(r.rect));
        }
    }

    #[test]
    fn set_pixel_format_resends_everything() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        server.handle_message(
            &mut ui,
            ClientMessage::UpdateRequest {
                incremental: false,
                rect: Rect::new(0, 0, 160, 120),
            },
        );
        server.handle_message(&mut ui, ClientMessage::SetPixelFormat(PixelFormat::Mono1));
        let replies = server.handle_message(
            &mut ui,
            ClientMessage::UpdateRequest {
                incremental: true,
                rect: Rect::new(0, 0, 160, 120),
            },
        );
        let ServerMessage::Update { format, rects, .. } = &replies[0] else {
            panic!("format change must resend");
        };
        assert_eq!(*format, PixelFormat::Mono1);
        let covered: u64 = rects.iter().map(|r| r.rect.area()).sum();
        assert_eq!(covered, 160 * 120);
    }

    #[test]
    fn input_reaches_widgets() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        for ev in InputEvent::click(20, 20) {
            server.handle_message(&mut ui, ClientMessage::Input(ev));
        }
        let actions = ui.take_actions();
        assert_eq!(actions.len(), 1);
        assert_eq!(server.stats().inputs_injected, 2);
    }

    #[test]
    fn bell_is_forwarded() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        ui.ring_bell();
        let replies = server.pump(&mut ui);
        assert!(replies.contains(&ServerMessage::Bell));
    }

    #[test]
    fn resize_notification() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        ui.resize(320, 240);
        let replies = server.notify_resize(&mut ui);
        assert_eq!(
            replies,
            vec![ServerMessage::Resize {
                width: 320,
                height: 240
            }]
        );
    }

    #[test]
    fn stats_accumulate() {
        let (mut ui, mut server) = session();
        connect(&mut ui, &mut server);
        server.handle_message(
            &mut ui,
            ClientMessage::UpdateRequest {
                incremental: false,
                rect: Rect::new(0, 0, 160, 120),
            },
        );
        let s = server.stats();
        assert_eq!(s.updates_sent, 1);
        assert!(s.rects_sent >= 1);
        assert!(s.payload_bytes > 0);
    }

    #[test]
    fn no_client_pump_is_quiet() {
        let (mut ui, mut server) = session();
        assert!(server.pump(&mut ui).is_empty());
    }
}
