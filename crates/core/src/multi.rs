//! Multiple simultaneous viewers of one appliance panel.
//!
//! The paper notes thin-client systems are "usually used to move a
//! user's desktop according to the location of a user, or show multiple
//! desktops on the same display". [`MultiServer`] provides the dual: the
//! *same* appliance panel exported to several UniInt proxies at once —
//! the whole family controlling the living room from their own devices,
//! every screen kept consistent.

use crate::server::{EncodeMemo, ServerStats, UniIntServer};
use uniint_protocol::message::{ClientMessage, ServerMessage};
use uniint_telemetry::registry::Registry;
use uniint_wsys::ui::Ui;

/// Identifies one connected client (proxy) of a [`MultiServer`].
pub type ClientId = usize;

/// A UniInt server fanning one window out to many clients.
///
/// Each client keeps its own pixel format, encoding set and damage
/// account, so a TV proxy and a phone proxy can watch the same panel in
/// RGB888 and Mono1 respectively.
#[derive(Debug, Default)]
pub struct MultiServer {
    clients: Vec<Option<UniIntServer>>,
}

impl MultiServer {
    /// Creates a server with no clients.
    pub fn new() -> MultiServer {
        MultiServer::default()
    }

    /// Accepts a new connection, returning its id. The client still has
    /// to send `Hello` through [`handle_message`](Self::handle_message).
    pub fn accept(&mut self, ui: &Ui) -> ClientId {
        self.clients.push(Some(UniIntServer::new(ui)));
        self.clients.len() - 1
    }

    /// Like [`accept`](Self::accept), but the new per-client server
    /// records into a shared telemetry `registry`, so counters like
    /// `server.inputs_injected` aggregate across all clients.
    pub fn accept_with_telemetry(&mut self, ui: &Ui, registry: Registry) -> ClientId {
        self.clients
            .push(Some(UniIntServer::with_telemetry(ui, registry)));
        self.clients.len() - 1
    }

    /// Drops a client (its proxy disconnected). Ids of other clients stay
    /// stable; messages for a disconnected id are ignored.
    pub fn disconnect(&mut self, client: ClientId) {
        if let Some(slot) = self.clients.get_mut(client) {
            *slot = None;
        }
    }

    /// Number of live (not disconnected) connections.
    pub fn client_count(&self) -> usize {
        self.clients.iter().flatten().count()
    }

    /// Whether `client` completed its handshake and is still connected.
    pub fn has_session(&self, client: ClientId) -> bool {
        self.clients
            .get(client)
            .and_then(Option::as_ref)
            .map(UniIntServer::has_client)
            .unwrap_or(false)
    }

    /// Aggregated statistics over all live clients.
    pub fn stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for c in self.clients.iter().flatten() {
            let s = c.stats();
            total.updates_sent += s.updates_sent;
            total.rects_sent += s.rects_sent;
            total.payload_bytes += s.payload_bytes;
            total.inputs_injected += s.inputs_injected;
        }
        total
    }

    /// Handles one message from `client`, returning replies for that
    /// client. Input events affect the shared window (and therefore every
    /// other client's next update).
    pub fn handle_message(
        &mut self,
        ui: &mut Ui,
        client: ClientId,
        msg: ClientMessage,
    ) -> Vec<ServerMessage> {
        // Fold shared damage into *every* client's account before this
        // message is processed: an `UpdateRequest` pumps its own server,
        // and that pump must not consume window damage the other
        // viewers haven't been credited with yet.
        ui.render();
        let damage = ui.framebuffer_mut().take_damage();
        if !damage.is_empty() {
            for server in self.clients.iter_mut().flatten() {
                server.add_damage(&damage);
            }
        }
        let Some(Some(server)) = self.clients.get_mut(client) else {
            return Vec::new();
        };
        server.handle_message(ui, msg)
    }

    /// Renders once, distributes new damage (and the bell) to every
    /// client, and answers all pending update requests. Returns per-client
    /// message batches (empty batches omitted).
    pub fn pump_all(&mut self, ui: &mut Ui) -> Vec<(ClientId, Vec<ServerMessage>)> {
        ui.render();
        let bell = ui.take_bell();
        let damage = ui.framebuffer_mut().take_damage();
        // Viewers sharing a format and encoding set get the same bytes for
        // the same rect; encode each once. Local, so it dies with this
        // pump's view of the framebuffer.
        let mut memo = EncodeMemo::default();
        let mut out = Vec::new();
        for (id, slot) in self.clients.iter_mut().enumerate() {
            let Some(server) = slot else { continue };
            let mut msgs = Vec::new();
            if bell && server.has_client() {
                msgs.push(ServerMessage::Bell);
            }
            server.add_damage(&damage);
            msgs.extend(server.answer_pending(ui, &mut memo));
            if !msgs.is_empty() {
                out.push((id, msgs));
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::proxy::UniIntProxy;
    use uniint_raster::geom::Rect;
    use uniint_wsys::prelude::{Button, Theme};

    pub(crate) struct Rig {
        pub(crate) ui: Ui,
        pub(crate) server: MultiServer,
        pub(crate) proxies: Vec<UniIntProxy>,
    }

    impl Rig {
        pub(crate) fn new(n: usize) -> Rig {
            let mut ui = Ui::new(160, 120, Theme::classic(), "shared");
            ui.add(Button::new("Power"), Rect::new(20, 20, 80, 24));
            let mut server = MultiServer::new();
            let mut proxies = Vec::new();
            for i in 0..n {
                let id = server.accept(&ui);
                assert_eq!(id, i);
                proxies.push(UniIntProxy::new(format!("viewer-{i}")));
            }
            let mut rig = Rig {
                ui,
                server,
                proxies,
            };
            for i in 0..n {
                let hello = rig.proxies[i].connect();
                rig.deliver(i, hello);
            }
            rig.settle();
            rig
        }

        /// Client → server → (replies) → client, recursively.
        pub(crate) fn deliver(&mut self, client: usize, msgs: Vec<ClientMessage>) {
            for m in msgs {
                let replies = self.server.handle_message(&mut self.ui, client, m);
                self.receive(client, replies);
            }
        }

        pub(crate) fn receive(&mut self, client: usize, msgs: Vec<ServerMessage>) {
            for m in msgs {
                let out = self.proxies[client].handle_server(&m).expect("clean wire");
                let back = out.messages;
                if !back.is_empty() {
                    self.deliver(client, back);
                }
            }
        }

        /// Pump shared damage to everyone until quiescent.
        pub(crate) fn settle(&mut self) {
            loop {
                let batches = self.server.pump_all(&mut self.ui);
                if batches.is_empty() {
                    break;
                }
                for (id, msgs) in batches {
                    self.receive(id, msgs);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::Rig;
    use super::*;
    use uniint_protocol::input::InputEvent;
    use uniint_raster::geom::Rect;

    #[test]
    fn all_clients_complete_handshake() {
        let rig = Rig::new(3);
        for p in &rig.proxies {
            assert!(p.is_connected());
        }
        assert_eq!(rig.server.client_count(), 3);
        for i in 0..3 {
            assert!(rig.server.has_session(i));
        }
    }

    #[test]
    fn all_clients_see_identical_screen() {
        let mut rig = Rig::new(3);
        rig.settle();
        let reference = rig.ui.framebuffer().clone();
        for p in &rig.proxies {
            assert_eq!(p.server_frame().unwrap(), &reference);
        }
    }

    #[test]
    fn one_clients_input_updates_every_viewer() {
        let mut rig = Rig::new(2);
        // Client 0 clicks the button.
        let events: Vec<ClientMessage> = InputEvent::click(40, 30)
            .into_iter()
            .map(ClientMessage::Input)
            .collect();
        rig.deliver(0, events);
        rig.settle();
        let reference = rig.ui.framebuffer().clone();
        for (i, p) in rig.proxies.iter().enumerate() {
            assert_eq!(p.server_frame().unwrap(), &reference, "viewer {i}");
        }
        assert_eq!(rig.ui.take_actions().len(), 1, "the click fired once");
    }

    #[test]
    fn per_client_formats_are_independent() {
        let mut rig = Rig::new(2);
        rig.deliver(
            1,
            vec![ClientMessage::SetPixelFormat(
                uniint_raster::pixel::PixelFormat::Mono1,
            )],
        );
        // A change arrives for both.
        rig.ui
            .framebuffer_mut()
            .fill_rect(Rect::new(0, 0, 10, 10), uniint_raster::color::Color::RED);
        rig.settle();
        // Client 0 (RGB888) sees red; client 1 (Mono1) sees its reduction.
        let p0 = rig.proxies[0]
            .server_frame()
            .unwrap()
            .pixel(uniint_raster::geom::Point::new(5, 5))
            .unwrap();
        let p1 = rig.proxies[1]
            .server_frame()
            .unwrap()
            .pixel(uniint_raster::geom::Point::new(5, 5))
            .unwrap();
        assert_eq!(p0, uniint_raster::color::Color::RED);
        assert_ne!(p0, p1, "mono client got the reduced pixel");
    }

    #[test]
    fn shared_encodes_match_per_viewer_encodes() {
        use uniint_protocol::encoding::Encoding;
        use uniint_raster::color::Color;
        use uniint_raster::pixel::PixelFormat;

        // Viewers 0 and 1 share a key; 2 and 3 differ in format or set.
        let mut rig = Rig::new(4);
        rig.deliver(2, vec![ClientMessage::SetPixelFormat(PixelFormat::Mono1)]);
        rig.deliver(3, vec![ClientMessage::SetEncodings(vec![Encoding::Raw])]);
        rig.settle();
        let before: Vec<u64> = (0..4)
            .map(|i| viewer_stats(&rig, i).payload_bytes)
            .collect();

        let fb = rig.ui.framebuffer_mut();
        fb.fill_rect(Rect::new(0, 0, 30, 12), Color::RED);
        fb.fill_rect(Rect::new(100, 60, 9, 40), Color::BLUE);
        let batches = rig.server.pump_all(&mut rig.ui);
        assert_eq!(batches.len(), 4, "the change reaches every viewer");
        let rects_of = |id: ClientId| -> Vec<_> {
            let (_, msgs) = batches.iter().find(|(i, _)| *i == id).unwrap();
            msgs.iter()
                .flat_map(|m| match m {
                    ServerMessage::Update { rects, .. } => rects.clone(),
                    _ => Vec::new(),
                })
                .collect()
        };
        assert_eq!(rects_of(0), rects_of(1), "same key, same bytes");
        assert!(rects_of(3).iter().all(|r| r.encoding == Encoding::Raw));
        for (id, before) in before.into_iter().enumerate() {
            let sent: u64 = rects_of(id).iter().map(|r| r.payload.len() as u64).sum();
            let counted = viewer_stats(&rig, id).payload_bytes - before;
            assert_eq!(counted, sent, "viewer {id} counts its own bytes");
        }

        for (id, msgs) in batches {
            rig.receive(id, msgs);
        }
        rig.settle();
        for (id, fmt) in [
            PixelFormat::Rgb888,
            PixelFormat::Rgb888,
            PixelFormat::Mono1,
            PixelFormat::Rgb888,
        ]
        .into_iter()
        .enumerate()
        {
            let server = rig.ui.framebuffer();
            let expected: Vec<Color> = server.pixels().iter().map(|&c| fmt.reduce(c)).collect();
            let frame = rig.proxies[id].server_frame().unwrap();
            assert_eq!(frame.pixels(), &expected[..], "viewer {id} ({fmt})");
        }
    }

    fn viewer_stats(rig: &Rig, id: ClientId) -> ServerStats {
        rig.server.clients[id].as_ref().unwrap().stats()
    }

    #[test]
    fn bell_reaches_every_client() {
        let mut rig = Rig::new(2);
        rig.settle();
        rig.ui.ring_bell();
        let batches = rig.server.pump_all(&mut rig.ui);
        let bells = batches
            .iter()
            .filter(|(_, msgs)| msgs.contains(&ServerMessage::Bell))
            .count();
        assert_eq!(bells, 2);
    }

    #[test]
    fn unknown_client_is_ignored() {
        let mut rig = Rig::new(1);
        let replies = rig.server.handle_message(
            &mut rig.ui,
            99,
            ClientMessage::Hello {
                version: 1,
                name: "ghost".into(),
            },
        );
        assert!(replies.is_empty());
    }

    #[test]
    fn aggregate_stats_count_all_clients() {
        let mut rig = Rig::new(2);
        rig.settle();
        let s = rig.server.stats();
        assert!(s.updates_sent >= 2, "both initial full updates counted");
        assert!(s.payload_bytes > 0);
    }
}

#[cfg(test)]
mod disconnect_tests {
    use super::tests_support::Rig;

    #[test]
    fn disconnected_client_no_longer_served() {
        let mut rig = Rig::new(2);
        rig.settle();
        rig.server.disconnect(0);
        assert_eq!(rig.server.client_count(), 1);
        assert!(!rig.server.has_session(0));
        assert!(rig.server.has_session(1));
        // Damage is still delivered to the survivor only.
        rig.ui.framebuffer_mut().fill_rect(
            uniint_raster::geom::Rect::new(0, 0, 5, 5),
            uniint_raster::color::Color::GREEN,
        );
        let batches = rig.server.pump_all(&mut rig.ui);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].0, 1);
    }
}
