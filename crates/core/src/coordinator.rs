//! The interaction coordinator: tracks which interaction devices are
//! available, applies the [`crate::context::SelectionPolicy`] whenever
//! the situation changes, and performs the dynamic plug-in switches on
//! the proxy.

use std::collections::BTreeSet;

use crate::context::{DeviceDescriptor, SelectionPolicy, Situation, UserProfile};
use crate::plugin::{InputPlugin, OutputPlugin};
use crate::proxy::UniIntProxy;
use uniint_protocol::message::ClientMessage;

/// Factory producing a fresh input plug-in (the "module the device
/// transmits to the proxy" in the paper).
pub type InputFactory = Box<dyn Fn() -> Box<dyn InputPlugin> + Send>;
/// Factory producing a fresh output plug-in.
pub type OutputFactory = Box<dyn Fn() -> Box<dyn OutputPlugin> + Send>;

/// An interaction device as registered with the coordinator: a
/// capability descriptor plus the plug-ins it can upload.
pub struct InteractionDevice {
    descriptor: DeviceDescriptor,
    input_factory: Option<InputFactory>,
    output_factory: Option<OutputFactory>,
}

impl core::fmt::Debug for InteractionDevice {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("InteractionDevice")
            .field("descriptor", &self.descriptor)
            .field("has_input", &self.input_factory.is_some())
            .field("has_output", &self.output_factory.is_some())
            .finish()
    }
}

impl InteractionDevice {
    /// Creates a device from its descriptor.
    pub fn new(descriptor: DeviceDescriptor) -> InteractionDevice {
        InteractionDevice {
            descriptor,
            input_factory: None,
            output_factory: None,
        }
    }

    /// Attaches the input plug-in factory.
    pub fn with_input_factory(mut self, f: InputFactory) -> InteractionDevice {
        self.input_factory = Some(f);
        self
    }

    /// Attaches the output plug-in factory.
    pub fn with_output_factory(mut self, f: OutputFactory) -> InteractionDevice {
        self.output_factory = Some(f);
        self
    }

    /// The descriptor.
    pub fn descriptor(&self) -> &DeviceDescriptor {
        &self.descriptor
    }

    /// Rewrites the input factory through `wrap` (no-op when the device
    /// has none). This is how supervisors and chaos harnesses interpose
    /// shims without access to the private factory field.
    pub fn map_input_factory(
        mut self,
        wrap: impl FnOnce(InputFactory) -> InputFactory,
    ) -> InteractionDevice {
        self.input_factory = self.input_factory.take().map(wrap);
        self
    }

    /// Rewrites the output factory through `wrap` (no-op when absent).
    pub fn map_output_factory(
        mut self,
        wrap: impl FnOnce(OutputFactory) -> OutputFactory,
    ) -> InteractionDevice {
        self.output_factory = self.output_factory.take().map(wrap);
        self
    }
}

/// What a reselection changed.
#[derive(Debug, Default, PartialEq)]
pub struct SwitchReport {
    /// New active input device id, when it changed.
    pub input_switched_to: Option<String>,
    /// New active output device id, when it changed.
    pub output_switched_to: Option<String>,
    /// Protocol messages the output switch produced (renegotiation).
    pub messages: Vec<ClientMessage>,
}

impl SwitchReport {
    /// Whether anything changed.
    pub fn changed(&self) -> bool {
        self.input_switched_to.is_some() || self.output_switched_to.is_some()
    }
}

/// Tracks devices and the user's situation, switching proxy plug-ins.
pub struct Coordinator {
    devices: Vec<InteractionDevice>,
    policy: SelectionPolicy,
    profile: UserProfile,
    situation: Situation,
    active_input: Option<String>,
    active_output: Option<String>,
    /// Device ids excluded from selection (quarantined/dead, as told by
    /// the supervisor). Orthogonal to registration: an excluded device
    /// stays registered and resumes competing once readmitted.
    excluded: BTreeSet<String>,
}

impl core::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Coordinator")
            .field("devices", &self.devices.len())
            .field("situation", &self.situation)
            .field("active_input", &self.active_input)
            .field("active_output", &self.active_output)
            .finish()
    }
}

impl Coordinator {
    /// Creates a coordinator with no devices.
    pub fn new(profile: UserProfile, situation: Situation) -> Coordinator {
        Coordinator {
            devices: Vec::new(),
            policy: SelectionPolicy,
            profile,
            situation,
            active_input: None,
            active_output: None,
            excluded: BTreeSet::new(),
        }
    }

    /// Current situation.
    pub fn situation(&self) -> &Situation {
        &self.situation
    }

    /// Active input device id.
    pub fn active_input(&self) -> Option<&str> {
        self.active_input.as_deref()
    }

    /// Active output device id.
    pub fn active_output(&self) -> Option<&str> {
        self.active_output.as_deref()
    }

    /// Registered device descriptors.
    pub fn descriptors(&self) -> Vec<&DeviceDescriptor> {
        self.devices.iter().map(|d| &d.descriptor).collect()
    }

    /// Registers a device (it became reachable) and reselects.
    pub fn register(&mut self, device: InteractionDevice, proxy: &mut UniIntProxy) -> SwitchReport {
        let id = device.descriptor.id.clone();
        self.devices.retain(|d| d.descriptor.id != id);
        // Re-registering the active device replaces its factories, so the
        // currently attached plug-ins are stale: detach and let reselect
        // upload fresh ones. Without this, a churned device keeps serving
        // through plug-ins from a registration that no longer exists.
        if self.active_input.as_deref() == Some(id.as_str()) {
            self.active_input = None;
            proxy.detach_input();
        }
        if self.active_output.as_deref() == Some(id.as_str()) {
            self.active_output = None;
            proxy.detach_output();
        }
        self.devices.push(device);
        self.reselect(proxy)
    }

    /// Unregisters a device (battery died, user left it behind) and
    /// reselects. Returns the report; `false` changes mean it was not the
    /// active device.
    pub fn unregister(&mut self, id: &str, proxy: &mut UniIntProxy) -> SwitchReport {
        let before = self.devices.len();
        self.devices.retain(|d| d.descriptor.id != id);
        self.excluded.remove(id);
        if self.devices.len() == before {
            return SwitchReport::default();
        }
        if self.active_input.as_deref() == Some(id) {
            self.active_input = None;
            proxy.detach_input();
        }
        if self.active_output.as_deref() == Some(id) {
            self.active_output = None;
            proxy.detach_output();
        }
        self.reselect(proxy)
    }

    /// Updates the user's situation and reselects devices — the paper's
    /// dynamic switch (cooking → voice, sofa → remote + TV).
    pub fn set_situation(&mut self, situation: Situation, proxy: &mut UniIntProxy) -> SwitchReport {
        self.situation = situation;
        self.reselect(proxy)
    }

    /// Updates the user profile and reselects.
    pub fn set_profile(&mut self, profile: UserProfile, proxy: &mut UniIntProxy) -> SwitchReport {
        self.profile = profile;
        self.reselect(proxy)
    }

    /// Marks a device as (un)available for selection without touching its
    /// registration. The supervisor calls this when health transitions
    /// quarantine or readmit a device; it does *not* reselect — callers
    /// batch availability changes and then [`Coordinator::reselect`].
    pub fn set_available(&mut self, id: &str, available: bool) -> bool {
        if available {
            self.excluded.remove(id)
        } else {
            self.excluded.insert(id.to_owned())
        }
    }

    /// Applies the policy, switching plug-ins where the best device
    /// differs from the active one. Only devices that actually carry the
    /// relevant plug-in factory and are not excluded compete for a role.
    pub fn reselect(&mut self, proxy: &mut UniIntProxy) -> SwitchReport {
        let mut report = SwitchReport::default();

        let input_candidates: Vec<DeviceDescriptor> = self
            .devices
            .iter()
            .filter(|d| d.input_factory.is_some() && !self.excluded.contains(&d.descriptor.id))
            .map(|d| d.descriptor.clone())
            .collect();
        let best_input = self
            .policy
            .select_input(&input_candidates, &self.situation, &self.profile)
            .map(|d| d.id.clone());
        if best_input != self.active_input {
            let from = self.active_input.clone().unwrap_or_else(|| "-".into());
            match &best_input {
                Some(id) => {
                    let dev = self
                        .devices
                        .iter()
                        .find(|d| &d.descriptor.id == id)
                        .expect("selected device is registered");
                    let f = dev
                        .input_factory
                        .as_ref()
                        .expect("input candidates carry a factory");
                    proxy.attach_input(f());
                    proxy
                        .telemetry()
                        .counter("coordinator.input_switches")
                        .inc();
                    proxy
                        .telemetry()
                        .journal()
                        .record("coordinator.switch", format!("input: {from} -> {id}"));
                    report.input_switched_to = Some(id.clone());
                    self.active_input = best_input.clone();
                }
                None => {
                    proxy.detach_input();
                    proxy
                        .telemetry()
                        .journal()
                        .record("coordinator.switch", format!("input: {from} -> -"));
                    self.active_input = None;
                }
            }
        }

        let output_candidates: Vec<DeviceDescriptor> = self
            .devices
            .iter()
            .filter(|d| d.output_factory.is_some() && !self.excluded.contains(&d.descriptor.id))
            .map(|d| d.descriptor.clone())
            .collect();
        let best_output = self
            .policy
            .select_output(&output_candidates, &self.situation, &self.profile)
            .map(|d| d.id.clone());
        if best_output != self.active_output {
            let from = self.active_output.clone().unwrap_or_else(|| "-".into());
            match &best_output {
                Some(id) => {
                    let dev = self
                        .devices
                        .iter()
                        .find(|d| &d.descriptor.id == id)
                        .expect("selected device is registered");
                    let f = dev
                        .output_factory
                        .as_ref()
                        .expect("output candidates carry a factory");
                    report.messages = proxy.attach_output(f());
                    proxy
                        .telemetry()
                        .counter("coordinator.output_switches")
                        .inc();
                    proxy
                        .telemetry()
                        .journal()
                        .record("coordinator.switch", format!("output: {from} -> {id}"));
                    report.output_switched_to = Some(id.clone());
                    self.active_output = best_output.clone();
                }
                None => {
                    proxy.detach_output();
                    proxy
                        .telemetry()
                        .journal()
                        .record("coordinator.switch", format!("output: {from} -> -"));
                    self.active_output = None;
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Activity, InputModality, Noise, OutputProfile};
    use crate::plugin::{DeviceEvent, DeviceFrame, InputContext, OutputCaps};
    use uniint_protocol::input::InputEvent;
    use uniint_raster::dither::DitherMode;
    use uniint_raster::framebuffer::Framebuffer;
    use uniint_raster::geom::Size;
    use uniint_raster::pixel::PixelFormat;
    use uniint_raster::scale::{scale_to_fit, ScaleFilter};

    #[derive(Debug)]
    struct NullInput(&'static str);
    impl InputPlugin for NullInput {
        fn kind(&self) -> &'static str {
            self.0
        }
        fn translate(&mut self, _ev: &DeviceEvent, _ctx: &InputContext) -> Vec<InputEvent> {
            Vec::new()
        }
    }

    #[derive(Debug)]
    struct NullOutput(&'static str);
    impl OutputPlugin for NullOutput {
        fn kind(&self) -> &'static str {
            self.0
        }
        fn caps(&self) -> OutputCaps {
            OutputCaps {
                size: Size::new(64, 64),
                format: PixelFormat::Rgb888,
                dither: DitherMode::None,
                scale: ScaleFilter::Nearest,
            }
        }
        fn adapt(&mut self, fb: &Framebuffer) -> DeviceFrame {
            DeviceFrame::new(
                scale_to_fit(fb, Size::new(64, 64), ScaleFilter::Nearest),
                PixelFormat::Rgb888,
                0,
            )
        }
    }

    fn phone() -> InteractionDevice {
        InteractionDevice::new(
            DeviceDescriptor::carried("phone-1", "Phone").with_input(InputModality::Keypad),
        )
        .with_input_factory(Box::new(|| Box::new(NullInput("keypad"))))
    }

    fn kitchen_mic() -> InteractionDevice {
        InteractionDevice::new(
            DeviceDescriptor::fixed("mic-1", "Mic", "kitchen").with_input(InputModality::Voice),
        )
        .with_input_factory(Box::new(|| Box::new(NullInput("voice"))))
    }

    fn pda_screen() -> InteractionDevice {
        InteractionDevice::new(DeviceDescriptor::carried("pda-1", "PDA").with_output(
            OutputProfile {
                size: Size::new(240, 320),
                depth_bits: 12,
                far_readable: false,
            },
        ))
        .with_output_factory(Box::new(|| Box::new(NullOutput("pda-screen"))))
    }

    fn cooking() -> Situation {
        Situation {
            zone: "kitchen".into(),
            activity: Activity::Cooking,
            hands_busy: true,
            noise: Noise::Moderate,
        }
    }

    /// Idle in the kitchen with normal background noise: the carried
    /// phone outranks the fixed mic here, so tests can observe the
    /// switch when the situation changes.
    fn idle_kitchen() -> Situation {
        Situation {
            zone: "kitchen".into(),
            activity: Activity::Idle,
            hands_busy: false,
            noise: Noise::Moderate,
        }
    }

    #[test]
    fn register_selects_first_device() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("kitchen"));
        let report = coord.register(phone(), &mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("phone-1"));
        assert_eq!(proxy.attached().0, Some("keypad"));
    }

    #[test]
    fn situation_change_switches_to_voice() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), idle_kitchen());
        coord.register(phone(), &mut proxy);
        coord.register(kitchen_mic(), &mut proxy);
        // Idle: keypad still fine (carried). Now hands get busy:
        let report = coord.set_situation(cooking(), &mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("mic-1"));
        assert_eq!(proxy.attached().0, Some("voice"));
    }

    #[test]
    fn no_switch_when_best_unchanged() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), cooking());
        coord.register(kitchen_mic(), &mut proxy);
        let report = coord.set_situation(cooking(), &mut proxy);
        assert!(!report.changed());
    }

    #[test]
    fn unregister_active_device_falls_back() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), cooking());
        coord.register(phone(), &mut proxy);
        coord.register(kitchen_mic(), &mut proxy);
        assert_eq!(coord.active_input(), Some("mic-1"));
        let report = coord.unregister("mic-1", &mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("phone-1"));
        assert_eq!(proxy.attached().0, Some("keypad"));
    }

    #[test]
    fn unregister_unknown_is_noop() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), cooking());
        coord.register(phone(), &mut proxy);
        let report = coord.unregister("nope", &mut proxy);
        assert!(!report.changed());
    }

    #[test]
    fn unregister_last_input_detaches() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), cooking());
        coord.register(kitchen_mic(), &mut proxy);
        coord.unregister("mic-1", &mut proxy);
        assert_eq!(coord.active_input(), None);
        assert_eq!(proxy.attached().0, None);
    }

    #[test]
    fn output_registration_reports_messages_when_connected() {
        let mut proxy = UniIntProxy::new("p");
        proxy
            .handle_server(&uniint_protocol::message::ServerMessage::Init {
                version: 1,
                width: 100,
                height: 100,
                format: PixelFormat::Rgb888,
                name: "x".into(),
            })
            .unwrap();
        let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("kitchen"));
        let report = coord.register(pda_screen(), &mut proxy);
        assert_eq!(report.output_switched_to.as_deref(), Some("pda-1"));
        assert!(!report.messages.is_empty(), "output switch renegotiates");
    }

    #[test]
    fn re_register_same_id_replaces() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("kitchen"));
        coord.register(phone(), &mut proxy);
        coord.register(phone(), &mut proxy);
        assert_eq!(coord.descriptors().len(), 1);
    }

    #[test]
    fn re_register_active_device_reattaches_fresh_plugin() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), Situation::idle("kitchen"));
        coord.register(phone(), &mut proxy);
        assert_eq!(proxy.attached().0, Some("keypad"));
        // Same id returns with a *different* plug-in: the proxy must not
        // keep serving through the stale one.
        let v2 = InteractionDevice::new(
            DeviceDescriptor::carried("phone-1", "Phone").with_input(InputModality::Keypad),
        )
        .with_input_factory(Box::new(|| Box::new(NullInput("keypad-v2"))));
        let report = coord.register(v2, &mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("phone-1"));
        assert_eq!(proxy.attached().0, Some("keypad-v2"));
    }

    #[test]
    fn excluded_device_loses_selection_and_readmission_restores_it() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), cooking());
        coord.register(phone(), &mut proxy);
        coord.register(kitchen_mic(), &mut proxy);
        assert_eq!(coord.active_input(), Some("mic-1"));
        coord.set_available("mic-1", false);
        let report = coord.reselect(&mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("phone-1"));
        assert_eq!(proxy.attached().0, Some("keypad"));
        coord.set_available("mic-1", true);
        let report = coord.reselect(&mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("mic-1"));
    }

    #[test]
    fn excluding_every_device_detaches() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), cooking());
        coord.register(kitchen_mic(), &mut proxy);
        coord.set_available("mic-1", false);
        coord.reselect(&mut proxy);
        assert_eq!(coord.active_input(), None);
        assert_eq!(proxy.attached().0, None);
    }

    #[test]
    fn factory_less_descriptor_is_not_a_candidate() {
        // A device advertising input modality but uploading no plug-in
        // must never win selection (previously it won and the attach was
        // silently skipped, wedging the active slot).
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), cooking());
        let ghost = InteractionDevice::new(
            DeviceDescriptor::fixed("ghost", "Ghost", "kitchen").with_input(InputModality::Voice),
        );
        coord.register(ghost, &mut proxy);
        coord.register(phone(), &mut proxy);
        assert_eq!(coord.active_input(), Some("phone-1"));
        assert_eq!(proxy.attached().0, Some("keypad"));
    }

    #[test]
    fn profile_change_reselects() {
        let mut proxy = UniIntProxy::new("p");
        let mut coord = Coordinator::new(UserProfile::neutral("u"), idle_kitchen());
        coord.register(phone(), &mut proxy);
        coord.register(kitchen_mic(), &mut proxy);
        let mut profile = UserProfile::neutral("u");
        profile.input_ranking = vec![InputModality::Voice];
        let report = coord.set_profile(profile, &mut proxy);
        assert_eq!(report.input_switched_to.as_deref(), Some("mic-1"));
    }
}
