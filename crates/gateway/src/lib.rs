//! # uniint-gateway
//!
//! The real-network deployment boundary the paper assumes: UniInt
//! server and proxies as **separate OS processes** on an actual home
//! network, talking over TCP sockets instead of in-process pipes or the
//! discrete-event simulator.
//!
//! Five layers, bottom up:
//!
//! - [`codec`] — the length-prefixed frame codec shared by both ends:
//!   a hard max-frame-size bound enforced before allocation, and the
//!   protocol-version check applied to every `Hello`;
//! - [`state`] — the host's sans-IO session state machine
//!   ([`state::GatewayCore`]): name-keyed sessions over one
//!   [`uniint_core::multi::MultiServer`], held `Hello`s, expiry, and a
//!   bounded, coalescing [`state::OutQueue`] per connection;
//! - [`host`] — its TCP driver ([`host::Gateway`]): accept, reader and
//!   writer threads, and a state thread that sleeps until the next event
//!   or the core's next deadline;
//! - [`client`] — the connection lifecycle ([`client::GatewayClient`]):
//!   a TCP driver for [`uniint_core::client::ClientSession`], whose
//!   stall handling, seeded backoff and incremental `Resume` bring a
//!   proxy that loses TCP mid-update back without a full refresh;
//! - telemetry — every layer registers counters/gauges in a
//!   [`uniint_telemetry::registry::Registry`], so one snapshot covers
//!   the network edge too.
//!
//! ```no_run
//! use uniint_gateway::prelude::*;
//! use uniint_telemetry::registry::Registry;
//! use uniint_wsys::prelude::{Button, Theme, Ui};
//! use uniint_raster::geom::Rect;
//!
//! let mut ui = Ui::new(160, 120, Theme::classic(), "panel");
//! ui.add(Button::new("Power"), Rect::new(20, 20, 80, 24));
//! let gw = Gateway::spawn(ui, GatewayConfig::default(), Registry::new()).unwrap();
//! let mut client = GatewayClient::connect(gw.local_addr(), "phone-proxy", 7).unwrap();
//! assert!(client.proxy.is_connected());
//! let _panel = gw.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod host;
pub mod state;

/// Convenient re-exports of the gateway surface.
pub mod prelude {
    pub use crate::client::{ClientConfig, GatewayClient, GatewayError};
    pub use crate::codec::{check_hello_version, FramedSocket};
    pub use crate::host::{Gateway, GatewayConfig};
}
