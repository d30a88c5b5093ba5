//! Device plug-in property tests: every input plug-in is total over
//! arbitrary device events (no panic, and every pointer it emits lands
//! inside the server framebuffer), every output plug-in adapts an
//! arbitrary framebuffer into a non-empty frame that respects its own
//! capabilities, and a screen plug-in that re-adapts only what changed
//! returns exactly what a fresh one would.

use proptest::prelude::*;
use uniint::core::plugin::{InputContext, InputPlugin, OutputPlugin};
use uniint::prelude::*;
use uniint::protocol::input::InputEvent;

fn arb_device_event() -> impl Strategy<Value = DeviceEvent> {
    prop_oneof![
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| DeviceEvent::StylusDown { x, y }),
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| DeviceEvent::StylusMove { x, y }),
        (any::<u16>(), any::<u16>()).prop_map(|(x, y)| DeviceEvent::StylusUp { x, y }),
        any::<u8>().prop_map(DeviceEvent::KeypadDigit),
        proptest::sample::select(vec![Nav::Up, Nav::Down, Nav::Left, Nav::Right])
            .prop_map(DeviceEvent::KeypadNav),
        Just(DeviceEvent::KeypadSelect),
        Just(DeviceEvent::KeypadBack),
        proptest::sample::select(vec![
            "next",
            "select",
            "up",
            "louder",
            "five",
            "p",
            "",
            "garbage words that no grammar knows",
        ])
        .prop_map(|s| DeviceEvent::Voice(s.to_string())),
        proptest::sample::select(vec![
            Gesture::Swipe(Nav::Up),
            Gesture::Swipe(Nav::Right),
            Gesture::Fist,
            Gesture::Palm,
            Gesture::Circle,
        ])
        .prop_map(DeviceEvent::Gesture),
        proptest::sample::select(vec![
            RemoteKey::Power,
            RemoteKey::Ok,
            RemoteKey::Menu,
            RemoteKey::ChannelUp,
            RemoteKey::ChannelDown,
            RemoteKey::VolumeUp,
            RemoteKey::VolumeDown,
            RemoteKey::Mute,
        ])
        .prop_map(DeviceEvent::Remote),
        (0u8..12).prop_map(|d| DeviceEvent::Remote(RemoteKey::Digit(d))),
        any::<char>().prop_map(DeviceEvent::Char),
    ]
}

/// Arbitrary-but-plausible geometry: any non-degenerate server size and
/// device view, including views larger than the server.
fn arb_ctx() -> impl Strategy<Value = InputContext> {
    (1u32..500, 1u32..500, 1u32..500, 1u32..500).prop_map(|(sw, sh, dw, dh)| InputContext {
        server_size: Size::new(sw, sh),
        device_view: Size::new(dw, dh),
    })
}

fn all_input_plugins() -> Vec<Box<dyn InputPlugin>> {
    vec![
        Box::new(StylusPlugin::new()),
        Box::new(KeypadPlugin::new()),
        Box::new(VoicePlugin::new()),
        Box::new(GesturePlugin::new()),
        Box::new(RemotePlugin::new()),
        Box::new(KeyboardPlugin::new()),
    ]
}

fn all_output_plugins() -> Vec<Box<dyn OutputPlugin>> {
    vec![
        Box::new(ScreenPlugin::pda()),
        Box::new(ScreenPlugin::phone_lcd()),
        Box::new(ScreenPlugin::tv()),
        Box::new(ScreenPlugin::eyepiece()),
        Box::new(TerminalPlugin::standard()),
        Box::new(FallbackTerminal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every input plug-in consumes every device event without panicking,
    /// and every pointer event it produces is inside the server frame.
    #[test]
    fn input_plugins_are_total_and_in_bounds(
        events in proptest::collection::vec(arb_device_event(), 1..40),
        ctx in arb_ctx(),
    ) {
        for plugin in &mut all_input_plugins() {
            for ev in &events {
                for out in plugin.translate(ev, &ctx) {
                    if let InputEvent::Pointer { x, y, .. } = out {
                        prop_assert!(
                            (x as u32) < ctx.server_size.w && (y as u32) < ctx.server_size.h,
                            "{}: pointer ({x},{y}) outside {:?}",
                            plugin.kind(),
                            ctx.server_size,
                        );
                    }
                }
            }
        }
    }

    /// Every output plug-in adapts an arbitrary framebuffer into a
    /// non-empty frame no larger than its own declared capabilities.
    #[test]
    fn output_plugins_adapt_any_frame_within_caps(
        w in 1u32..260,
        h in 1u32..260,
        r in any::<u8>(),
        g in any::<u8>(),
        b in any::<u8>(),
    ) {
        let mut fb = Framebuffer::new(w, h, Color::rgb(r, g, b));
        // A couple of contrasting pixels so dithering has edges to chew on.
        fb.set_pixel(Point::new(0, 0), Color::rgb(255 - r, g, b));
        fb.set_pixel(
            Point::new(w as i32 - 1, h as i32 - 1),
            Color::rgb(r, 255 - g, b),
        );
        for plugin in &mut all_output_plugins() {
            let caps = plugin.caps();
            // First adaptation: full frame.
            let frame = plugin.adapt(&fb);
            let size = frame.frame.size();
            prop_assert!(size.w >= 1 && size.h >= 1, "{}: empty frame", plugin.kind());
            prop_assert!(
                size.w <= caps.size.w && size.h <= caps.size.h,
                "{}: {size:?} exceeds caps {:?}",
                plugin.kind(),
                caps.size,
            );
            prop_assert_eq!(frame.format, caps.format);
            prop_assert!(frame.wire_bytes > 0);
            // Re-adapting the identical frame must stay in bounds too
            // (exercises the delta path) and never grow the change set
            // beyond the frame itself.
            let again = plugin.adapt(&fb);
            prop_assert_eq!(again.frame.size(), size);
            prop_assert!(
                again.changed.area() <= (size.w as u64) * (size.h as u64),
                "{}: changed region larger than the frame",
                plugin.kind(),
            );
        }
    }
}

/// One edit of the server frame between two adaptations.
#[derive(Debug, Clone)]
enum Step {
    Fill(Rect, Color),
    Copy(Rect, Point),
    Clear(Color),
    Noop,
    /// Replace the frame with one of another size.
    Resize(u32, u32, Color),
}

fn arb_color() -> impl Strategy<Value = Color> {
    prop_oneof![
        // Flat GUI-like colors, so edits often leave pixels unchanged...
        proptest::sample::select(vec![
            Color::BLACK,
            Color::WHITE,
            Color::GRAY,
            Color::LIGHT_GRAY,
            Color::BLUE,
        ]),
        // ...and arbitrary ones.
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Color::rgb(r, g, b)),
    ]
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-8i32..200, -8i32..160, 0u32..80, 0u32..60).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (arb_rect(), arb_color()).prop_map(|(r, c)| Step::Fill(r, c)),
        2 => (arb_rect(), -8i32..200, -8i32..160).prop_map(|(r, x, y)| Step::Copy(r, Point::new(x, y))),
        1 => arb_color().prop_map(Step::Clear),
        1 => Just(Step::Noop),
        1 => (8u32..200, 8u32..160, arb_color()).prop_map(|(w, h, c)| Step::Resize(w, h, c)),
    ]
}

fn screen_profiles() -> [fn() -> ScreenPlugin; 4] {
    [
        ScreenPlugin::phone_lcd,
        ScreenPlugin::pda,
        ScreenPlugin::tv,
        ScreenPlugin::eyepiece,
    ]
}

/// Which pixels of a `size` frame `region` covers.
fn mask(region: &Region, size: Size) -> Vec<bool> {
    let mut m = vec![false; size.area() as usize];
    for r in region.iter() {
        for p in r.pixels() {
            m[(p.y as u32 * size.w + p.x as u32) as usize] = true;
        }
    }
    m
}

/// Adapts `frames` in turn with one retained plug-in, checking each
/// result against a fresh plug-in's frame and `changed` against the
/// diff from the previous frame.
fn check_retained_matches_fresh(
    make: fn() -> ScreenPlugin,
    frames: &[Framebuffer],
) -> Result<(), TestCaseError> {
    let mut retained = make();
    let mut prev: Option<Framebuffer> = None;
    for (i, fb) in frames.iter().enumerate() {
        let out = retained.adapt(fb);
        let fresh = make().adapt(fb);
        let kind = retained.kind();
        prop_assert!(out.frame == fresh.frame, "{kind}: step {i} frame differs");
        let size = out.frame.size();
        let expect = match &prev {
            Some(prev) if prev.size() == size => prev.diff_region(&out.frame),
            _ => Region::from_rect(out.frame.bounds()),
        };
        prop_assert!(
            mask(&out.changed, size) == mask(&expect, size),
            "{kind}: step {i} changed {:?}, diff {:?}",
            out.changed.rects(),
            expect.rects(),
        );
        prev = Some(out.frame);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Re-adapting only the changed source rows gives, at every step, the
    /// frame a fresh plug-in gives, and a `changed` region covering
    /// exactly the pixels that differ from the previous frame. Edits
    /// between two adaptations may pile up, so one call can see several
    /// dirty bands.
    #[test]
    fn retained_adaptation_matches_fresh(
        w in 8u32..200,
        h in 8u32..160,
        background in arb_color(),
        steps in proptest::collection::vec((arb_step(), any::<bool>()), 1..16),
    ) {
        let mut fb = Framebuffer::new(w, h, background);
        let mut frames = vec![fb.clone()];
        for (step, adapt) in &steps {
            match *step {
                Step::Fill(r, c) => fb.fill_rect(r, c),
                Step::Copy(r, to) => fb.copy_rect(r, to),
                Step::Clear(c) => fb.clear(c),
                Step::Noop => {}
                Step::Resize(w, h, c) => fb = Framebuffer::new(w, h, c),
            }
            if *adapt {
                frames.push(fb.clone());
            }
        }
        for make in screen_profiles() {
            check_retained_matches_fresh(make, &frames)?;
        }
    }
}

/// A frame of black and white bars with `edit` painted on.
fn bars(edit: Option<(Rect, Color)>) -> Framebuffer {
    let mut fb = Framebuffer::new(256, 192, Color::BLACK);
    for y in (0..192).step_by(24) {
        fb.fill_rect(Rect::new(0, y, 256, 12), Color::WHITE);
    }
    if let Some((r, c)) = edit {
        fb.fill_rect(r, c);
    }
    fb
}

#[test]
fn floyd_steinberg_converges_below_a_black_and_white_edit() {
    // Pure black and white quantize without error, so the error rows
    // passed down below the edit equal the cached ones at once.
    let edit = (Rect::new(40, 30, 50, 20), Color::WHITE);
    let frames = [bars(None), bars(Some(edit)), bars(None)];
    check_retained_matches_fresh(ScreenPlugin::phone_lcd, &frames).unwrap();
    let mut p = ScreenPlugin::phone_lcd();
    p.adapt(&frames[0]);
    let out = p.adapt(&frames[1]);
    assert!(!out.changed.is_empty());
    // 256×192 → 128×96: source rows 30..50 are device rows 15..25.
    assert!(
        out.changed.bounding_rect().bottom() <= 25,
        "{:?}",
        out.changed
    );
}

#[test]
fn floyd_steinberg_runs_to_the_bottom_when_errors_differ() {
    // Mid gray dithers to a pattern that any upstream change shifts, so
    // the tail never matches the cached error rows.
    let gray = |edit: Option<Rect>| {
        let mut fb = Framebuffer::new(256, 192, Color::gray(100));
        if let Some(r) = edit {
            fb.fill_rect(r, Color::gray(180));
        }
        fb
    };
    let frames = [gray(None), gray(Some(Rect::new(10, 4, 30, 6))), gray(None)];
    check_retained_matches_fresh(ScreenPlugin::phone_lcd, &frames).unwrap();
    let mut p = ScreenPlugin::phone_lcd();
    p.adapt(&frames[0]);
    let out = p.adapt(&frames[1]);
    assert!(
        out.changed.bounding_rect().bottom() > 60,
        "change should reach far below the edit: {:?}",
        out.changed.bounding_rect()
    );
}

#[test]
fn bands_sharing_a_device_row_are_all_recomputed() {
    // At a 4–5× box downscale, source rows 0 and 3 land on device row 0,
    // so one call sees two dirty bands (split by clean rows 1–2) whose
    // device rectangles overlap but span different columns.
    let base = || {
        let mut fb = Framebuffer::new(640, 452, Color::LIGHT_GRAY);
        fb.fill_rect(Rect::new(200, 100, 120, 40), Color::BLUE);
        fb
    };
    let mut edited = base();
    edited.fill_rect(Rect::new(0, 0, 12, 1), Color::BLACK);
    edited.fill_rect(Rect::new(400, 3, 12, 1), Color::BLACK);
    for make in screen_profiles() {
        check_retained_matches_fresh(make, &[base(), edited.clone(), base()]).unwrap();
    }
}
