//! # uniint — Universal Interaction with Networked Home Appliances
//!
//! A production-quality Rust reproduction of **Nakajima & Hasegawa,
//! "Universal Interaction with Networked Home Appliances" (ICDCS 2002)**:
//! a thin-client-style *universal interaction protocol* (bitmaps out,
//! keyboard/mouse in), a UniInt server exporting unmodified toolkit GUIs,
//! and a UniInt proxy that adapts them to heterogeneous interaction
//! devices — PDA, cellular phone, voice, gestures, remote controller —
//! switching devices dynamically with the user's situation.
//!
//! This facade re-exports the workspace crates:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`raster`] | `uniint-raster` | framebuffer, regions, scaling, dithering |
//! | [`protocol`] | `uniint-protocol` | the universal interaction wire protocol |
//! | [`wsys`] | `uniint-wsys` | the widget toolkit appliance GUIs use |
//! | [`havi`] | `uniint-havi` | HAVi-like home middleware (DCM/FCM, registry) |
//! | [`netsim`] | `uniint-netsim` | deterministic link simulator + live pipes |
//! | [`core`] | `uniint-core` | UniInt server, proxy, plug-ins, selection policy |
//! | [`devices`] | `uniint-devices` | simulated PDAs, phones, voice, remotes |
//! | [`apps`] | `uniint-apps` | appliance control-panel applications |
//! | [`gateway`] | `uniint-gateway` | real TCP transport: concurrent host + resuming client |
//! | [`telemetry`] | `uniint-telemetry` | deterministic metrics, journal, snapshots |
//! | [`trace`] | `uniint-trace` | session flight recorder: capture, replay, divergence checks |
//!
//! ## Quickstart
//!
//! ```
//! use uniint::prelude::*;
//!
//! // A home with a TV on the HAVi-like bus.
//! let mut net = HomeNetwork::new();
//! net.attach(
//!     DeviceSpec::new("TV", "living-room")
//!         .with_fcm(TunerFcm::new("TV Tuner", 12))
//!         .with_fcm(DisplayFcm::new("TV Display", 2)),
//! );
//! // The appliance application composes a control panel...
//! let mut app = ControlPanelApp::new(&mut net, None, Theme::classic());
//! // ...exported through a UniInt session and operated from a phone keypad.
//! let mut session = LocalSession::connect(app.ui_mut());
//! session.proxy.attach_input(Box::new(KeypadPlugin::new()));
//! session.device_input(app.ui_mut(), &SimPhone::press('5').unwrap());
//! app.process(&mut net);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use uniint_apps as apps;
pub use uniint_core as core;
pub use uniint_devices as devices;
pub use uniint_gateway as gateway;
pub use uniint_havi as havi;
pub use uniint_netsim as netsim;
pub use uniint_protocol as protocol;
pub use uniint_raster as raster;
pub use uniint_telemetry as telemetry;
pub use uniint_trace as trace;
pub use uniint_wsys as wsys;

/// One prelude across the whole system.
pub mod prelude {
    pub use uniint_apps::prelude::*;
    pub use uniint_core::prelude::*;
    pub use uniint_devices::prelude::*;
    pub use uniint_gateway::prelude::*;
    pub use uniint_havi::prelude::*;
    pub use uniint_netsim::prelude::*;
    pub use uniint_protocol::prelude::*;
    pub use uniint_raster::prelude::*;
    // `Registry` is deliberately not glob-exported: HAVi's element
    // registry already owns that name here. Reach the telemetry one as
    // `uniint::telemetry::prelude::Registry` (or via `session.telemetry()`).
    pub use uniint_telemetry::prelude::{
        Counter, Gauge, Histogram, HistogramSnapshot, Journal, JournalEvent, Snapshot, Span,
        VirtualClock,
    };
    pub use uniint_trace::prelude::{
        Divergence, Recorder, ReplayError, ReplayOutcome, Replayer, TraceConfig, TraceError,
        TraceHeader, TraceReader, TraceRecord, TraceWriter,
    };
    pub use uniint_wsys::prelude::{
        columns, grid, rows, Action, ActionEvent, Align, Button, Cell, Checkbox, ImageView, Label,
        ListBox, ProgressBar, Separator, Slider, Spinner, TabBar, TextField, Theme, Toggle, Ui,
        WidgetId,
    };
}
