//! Capture/encode resolutions and the adaptation ladder.

use std::fmt;

/// A video resolution in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Resolution {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Resolution {
    /// 1920×1080.
    pub const P1080: Resolution = Resolution::new(1920, 1080);
    /// 1280×720 — the default capture resolution in all experiments.
    pub const P720: Resolution = Resolution::new(1280, 720);
    /// 960×540.
    pub const P540: Resolution = Resolution::new(960, 540);
    /// 640×360.
    pub const P360: Resolution = Resolution::new(640, 360);
    /// 480×270.
    pub const P270: Resolution = Resolution::new(480, 270);
    /// 320×180 — the floor of the adaptation ladder.
    pub const P180: Resolution = Resolution::new(320, 180);

    /// The downscale ladder, highest first. Resolution adaptation walks
    /// this list; it is ordered and contiguous so a single index
    /// identifies a rung.
    pub const LADDER: [Resolution; 6] = [
        Resolution::P1080,
        Resolution::P720,
        Resolution::P540,
        Resolution::P360,
        Resolution::P270,
        Resolution::P180,
    ];

    /// Creates a resolution.
    pub const fn new(width: u32, height: u32) -> Resolution {
        Resolution { width, height }
    }

    /// Total pixel count.
    pub const fn pixels(self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Index of this resolution on [`Resolution::LADDER`], if it is a
    /// standard rung.
    pub fn ladder_index(self) -> Option<usize> {
        Resolution::LADDER.iter().position(|&r| r == self)
    }

    /// The next rung *down* the ladder (lower resolution), or `None` at
    /// the floor or for non-ladder resolutions.
    pub fn step_down(self) -> Option<Resolution> {
        let idx = self.ladder_index()?;
        Resolution::LADDER.get(idx + 1).copied()
    }

    /// The next rung *up* the ladder (higher resolution), or `None` at the
    /// top or for non-ladder resolutions.
    pub fn step_up(self) -> Option<Resolution> {
        let idx = self.ladder_index()?;
        idx.checked_sub(1).map(|i| Resolution::LADDER[i])
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_counts() {
        assert_eq!(Resolution::P720.pixels(), 921_600);
        assert_eq!(Resolution::P1080.pixels(), 2_073_600);
    }

    #[test]
    fn scale_vs_720p_reference() {
        // The R–D model's reference is 720p: 360p carries a quarter of
        // its pixels and 1080p 2.25 times as many.
        let p720 = Resolution::P720.pixels();
        assert_eq!(Resolution::P360.pixels() * 4, p720);
        assert_eq!(Resolution::P1080.pixels() * 4, p720 * 9);
    }

    #[test]
    fn ladder_is_strictly_descending() {
        for pair in Resolution::LADDER.windows(2) {
            assert!(pair[0].pixels() > pair[1].pixels());
        }
    }

    #[test]
    fn step_down_and_up_are_inverse() {
        for (i, &r) in Resolution::LADDER.iter().enumerate() {
            assert_eq!(r.ladder_index(), Some(i));
            if let Some(down) = r.step_down() {
                assert_eq!(down.step_up(), Some(r));
            }
        }
        assert_eq!(Resolution::P180.step_down(), None);
        assert_eq!(Resolution::P1080.step_up(), None);
    }

    #[test]
    fn non_ladder_resolution_has_no_steps() {
        let odd = Resolution::new(1000, 700);
        assert_eq!(odd.ladder_index(), None);
        assert_eq!(odd.step_down(), None);
        assert_eq!(odd.step_up(), None);
    }

    #[test]
    fn display_format() {
        assert_eq!(Resolution::P720.to_string(), "1280x720");
    }
}
