//! The proxy-side connection lifecycle over a real TCP socket.
//!
//! [`GatewayClient`] is a thin driver over
//! [`uniint_core::client::ClientSession`], the same recovery state
//! machine [`uniint_core::session::SimSession`] runs over the network
//! simulator. The session decides *what* to send — retransmit log,
//! seeded backoff with jitter, incremental `Resume`, escalation to a
//! full refresh after repeated failed resumes. This driver only moves
//! bytes through a [`FramedSocket`], detects stalls (EOF or a read
//! error; a failed write surfaces as one), sleeps the backoff delays
//! the session returns, and re-attaches by name with an unlogged
//! `Hello` before the session's `Resume` (the gateway keys sessions by
//! client name).

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use uniint_core::client::{Backoff, ClientSession};
use uniint_core::plugin::{DeviceEvent, OutputPlugin};
use uniint_core::proxy::{ProxyStats, UniIntProxy};
use uniint_protocol::error::ProtocolError;
use uniint_protocol::message::{ClientMessage, ServerMessage, PROTOCOL_VERSION};
use uniint_telemetry::registry::Registry;

use crate::codec::{FramedSocket, ReadStatus, DEFAULT_MAX_FRAME};

/// The TCP reconnect schedule: 10 ms doubling to 500 ms, 10 attempts.
const BACKOFF: Backoff = Backoff::new(10_000, 500_000, 10);

/// Tuning knobs for a [`GatewayClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Largest frame accepted from the server, bytes.
    pub max_frame: usize,
    /// Socket read timeout per [`GatewayClient::pump_once`] call.
    pub poll: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            max_frame: DEFAULT_MAX_FRAME,
            poll: Duration::from_millis(10),
        }
    }
}

/// Why a [`GatewayClient`] operation failed.
#[derive(Debug)]
pub enum GatewayError {
    /// Socket-level failure outside the recoverable set.
    Io(io::Error),
    /// The server sent something undecodable.
    Protocol(ProtocolError),
    /// The connection stalled and every reconnect attempt failed.
    Stalled {
        /// Reconnect attempts made before giving up.
        attempts: u32,
    },
}

impl From<io::Error> for GatewayError {
    fn from(e: io::Error) -> GatewayError {
        GatewayError::Io(e)
    }
}

impl From<ProtocolError> for GatewayError {
    fn from(e: ProtocolError) -> GatewayError {
        GatewayError::Protocol(e)
    }
}

impl std::fmt::Display for GatewayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayError::Io(e) => write!(f, "socket error: {e}"),
            GatewayError::Protocol(e) => write!(f, "protocol error: {e}"),
            GatewayError::Stalled { attempts } => {
                write!(f, "stalled; gave up after {attempts} reconnect attempts")
            }
        }
    }
}

impl std::error::Error for GatewayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GatewayError::Io(e) => Some(e),
            GatewayError::Protocol(e) => Some(e),
            GatewayError::Stalled { .. } => None,
        }
    }
}

/// A UniInt proxy attached to a [`crate::host::Gateway`] over TCP.
#[derive(Debug)]
pub struct GatewayClient {
    /// The protocol engine inside its recovery state machine
    /// (dereferences to [`UniIntProxy`]): framebuffer cache, device
    /// plug-ins, adapted frames, stats.
    pub proxy: ClientSession,
    addr: SocketAddr,
    cfg: ClientConfig,
    sock: FramedSocket,
}

/// The socket as a [`ClientSession`] sink.
///
/// Write errors are deliberately swallowed: a regular message *is*
/// logged, the broken socket surfaces as EOF on the next read, and the
/// resume handshake retransmits everything the server never saw.
fn wire(sock: &mut FramedSocket) -> impl FnMut(&ClientMessage) + '_ {
    move |m| {
        let _ = sock.send_client(m);
    }
}

impl GatewayClient {
    /// Connects to `addr` with default config and a private registry,
    /// completing the protocol handshake before returning.
    pub fn connect(
        addr: SocketAddr,
        name: impl Into<String>,
        seed: u64,
    ) -> Result<GatewayClient, GatewayError> {
        GatewayClient::connect_with(addr, name, seed, ClientConfig::default(), Registry::new())
    }

    /// Connects with explicit config and telemetry registry.
    pub fn connect_with(
        addr: SocketAddr,
        name: impl Into<String>,
        seed: u64,
        cfg: ClientConfig,
        registry: Registry,
    ) -> Result<GatewayClient, GatewayError> {
        let stream = TcpStream::connect(addr)?;
        let sock = FramedSocket::new(stream, cfg.max_frame, cfg.poll)?;
        let proxy = UniIntProxy::with_telemetry(name, registry);
        let mut c = GatewayClient {
            proxy: ClientSession::new(proxy, seed, BACKOFF),
            addr,
            cfg,
            sock,
        };
        c.proxy.open(wire(&mut c.sock));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !c.proxy.is_connected() {
            c.pump_once()?;
            if Instant::now() > deadline {
                return Err(GatewayError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "handshake never completed",
                )));
            }
        }
        Ok(c)
    }

    /// Accumulated proxy statistics (stalls, resumes, retransmits...).
    pub fn stats(&self) -> ProxyStats {
        self.proxy.stats()
    }

    /// Installs an output plug-in and sends the session renegotiation it
    /// requires (pixel format, encodings, full refresh).
    pub fn attach_output(&mut self, plugin: Box<dyn OutputPlugin>) {
        let msgs = self.proxy.attach_output(plugin);
        self.send_messages(msgs);
    }

    /// Translates a device-native event through the input plug-in and
    /// sends the resulting protocol messages.
    pub fn device_input(&mut self, ev: &DeviceEvent) {
        let msgs = self.proxy.device_input(ev);
        self.send_messages(msgs);
    }

    /// Sends arbitrary client messages (they enter the retransmission
    /// log like any other traffic).
    pub fn send_messages(&mut self, msgs: Vec<ClientMessage>) {
        self.proxy.send(msgs, wire(&mut self.sock));
    }

    /// Severs the TCP connection abruptly, as a cable pull or crashed
    /// process would. The next [`pump_once`](Self::pump_once) detects
    /// the break and runs the reconnect/resume path.
    pub fn kill_socket(&self) {
        let _ = self.sock.stream().shutdown(Shutdown::Both);
    }

    /// One poll cycle: read what arrived, decode frames, feed the proxy,
    /// send its replies. Detects connection breaks and recovers them
    /// (reconnect + incremental resume) transparently.
    ///
    /// Returns `true` when at least one server frame was processed.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Stalled`] when the gateway stayed unreachable for
    /// the whole backoff budget; [`GatewayError::Protocol`] on an
    /// undecodable (hostile) byte stream.
    pub fn pump_once(&mut self) -> Result<bool, GatewayError> {
        match self.sock.fill() {
            Ok(ReadStatus::Idle) => Ok(false),
            Ok(ReadStatus::Eof) | Err(_) => {
                self.reconnect()?;
                Ok(false)
            }
            Ok(ReadStatus::Data(_)) => {
                let mut processed = false;
                while let Some(frame) = self.sock.next_frame()? {
                    processed = true;
                    let msg = ServerMessage::decode_body(&mut frame.as_slice())?;
                    self.proxy.on_server(&msg, wire(&mut self.sock))?;
                }
                Ok(processed)
            }
        }
    }

    /// Re-establishes TCP, sleeping each backoff delay the session
    /// hands out, then lets the session reattach the protocol
    /// conversation on the fresh socket.
    fn reconnect(&mut self) -> Result<(), GatewayError> {
        self.proxy.on_stall();
        let stream = loop {
            let delay = self
                .proxy
                .next_backoff()
                .map_err(|attempts| GatewayError::Stalled { attempts })?;
            std::thread::sleep(Duration::from_micros(delay));
            if let Ok(s) = TcpStream::connect(self.addr) {
                break s;
            }
        };
        // A fresh FramedSocket also discards any half-received frame
        // from the dead connection.
        self.sock = FramedSocket::new(stream, self.cfg.max_frame, self.cfg.poll)?;
        if self.proxy.is_connected() {
            // Sessions are keyed by name: re-attach to ours before the
            // session's Resume. Unlogged, like Resume — the server
            // leaves both out of its received-message count.
            let _ = self.sock.send_client(&ClientMessage::Hello {
                version: PROTOCOL_VERSION,
                name: self.proxy.name().to_owned(),
            });
        }
        self.proxy.on_reconnect(wire(&mut self.sock));
        Ok(())
    }
}
