//! Scripted content: sessions whose content class changes over time.
//!
//! Real calls are not stationary: a meeting starts as talking heads,
//! switches to screen share for the slides, and back. Each switch is a
//! scene cut *and* a regime change for the complexity processes — the
//! worst case for rate control if it coincides with a bandwidth drop.
//! [`ScriptedSource`] plays a timeline of [`ContentClass`] segments as a
//! single continuous frame stream.

use ravel_sim::{Dur, Time};

use crate::profile::ContentClass;
use crate::resolution::Resolution;
use crate::source::{RawFrame, VideoSource};

/// One segment of the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// When this segment's content begins.
    pub start: Time,
    /// What is on screen from then on.
    pub class: ContentClass,
}

/// A frame source that switches content class on a timeline.
#[derive(Debug, Clone)]
pub struct ScriptedSource {
    segments: Vec<Segment>,
    /// One underlying source per segment (pre-built so switching does
    /// not disturb determinism), all sharing fps/resolution.
    sources: Vec<VideoSource>,
    active: usize,
    next_index: u64,
    fps: u32,
    frame_interval: Dur,
    resolution: Resolution,
}

impl ScriptedSource {
    /// Creates a scripted source. Segments must start at strictly
    /// increasing times and the first must start at `Time::ZERO`.
    pub fn new(
        segments: Vec<Segment>,
        resolution: Resolution,
        fps: u32,
        seed: u64,
    ) -> ScriptedSource {
        assert!(!segments.is_empty(), "ScriptedSource: no segments");
        assert_eq!(
            segments[0].start,
            Time::ZERO,
            "ScriptedSource: first segment must start at t=0"
        );
        for pair in segments.windows(2) {
            assert!(
                pair[0].start < pair[1].start,
                "ScriptedSource: segments must start in increasing order"
            );
        }
        let sources = segments
            .iter()
            .enumerate()
            .map(|(i, seg)| {
                VideoSource::new(seg.class.profile(), resolution, fps, seed ^ (i as u64) << 8)
            })
            .collect();
        ScriptedSource {
            segments,
            sources,
            active: 0,
            next_index: 0,
            fps,
            frame_interval: Dur::micros(1_000_000 / fps as u64),
            resolution,
        }
    }

    /// A canonical meeting: talking head, screen share for the middle
    /// stretch, then talking head again.
    pub fn meeting(share_from: Time, share_until: Time, fps: u32, seed: u64) -> ScriptedSource {
        ScriptedSource::new(
            vec![
                Segment {
                    start: Time::ZERO,
                    class: ContentClass::TalkingHead,
                },
                Segment {
                    start: share_from,
                    class: ContentClass::ScreenShare,
                },
                Segment {
                    start: share_until,
                    class: ContentClass::TalkingHead,
                },
            ],
            Resolution::P720,
            fps,
            seed,
        )
    }

    /// Frames per second.
    pub fn fps(&self) -> u32 {
        self.fps
    }

    /// Interval between frames.
    pub fn frame_interval(&self) -> Dur {
        self.frame_interval
    }

    /// Capture resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Capture time of frame `index`.
    pub fn pts_of(&self, index: u64) -> Time {
        Time::ZERO + self.frame_interval * index
    }

    /// Produces the next frame. A segment switch forces a scene cut on
    /// its first frame (the screen content changed completely).
    pub fn next_frame(&mut self) -> RawFrame {
        let index = self.next_index;
        self.next_index += 1;
        let pts = self.pts_of(index);

        let seg = self
            .segments
            .partition_point(|s| s.start <= pts)
            .saturating_sub(1);
        let switched = seg != self.active;
        self.active = seg;

        // Pull the frame from the active segment's process; restamp its
        // index/pts to the global timeline.
        let mut frame = self.sources[seg].next_frame();
        frame.index = index;
        frame.pts = pts;
        if switched {
            frame.complexity.scene_cut = true;
            // The first frame of new content is all fresh pixels.
            frame.complexity.spatial *= 1.3;
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meeting() -> ScriptedSource {
        ScriptedSource::meeting(Time::from_secs(5), Time::from_secs(10), 30, 1)
    }

    #[test]
    fn timeline_classes() {
        // The class on screen once the frame at each pts is produced
        // (25 fps puts a frame exactly on each switch).
        let mut s = ScriptedSource::meeting(Time::from_secs(5), Time::from_secs(10), 25, 1);
        let mut class_at = |at: Time| {
            while s.pts_of(s.next_index) <= at {
                s.next_frame();
            }
            s.segments[s.active].class
        };
        assert_eq!(class_at(Time::ZERO), ContentClass::TalkingHead);
        assert_eq!(class_at(Time::from_secs(5)), ContentClass::ScreenShare);
        assert_eq!(class_at(Time::from_secs(7)), ContentClass::ScreenShare);
        assert_eq!(class_at(Time::from_secs(10)), ContentClass::TalkingHead);
    }

    #[test]
    fn frames_are_continuous() {
        let mut s = meeting();
        for i in 0..400u64 {
            let f = s.next_frame();
            assert_eq!(f.index, i);
            assert_eq!(f.pts, s.pts_of(i));
        }
    }

    #[test]
    fn switches_force_scene_cuts() {
        let mut s = meeting();
        let mut cut_frames = Vec::new();
        for _ in 0..400 {
            let f = s.next_frame();
            if f.complexity.scene_cut {
                cut_frames.push(f.index);
            }
        }
        // First frame, plus the two switches at ~5 s and ~10 s (the 30 fps
        // grid puts frame 150 at 4.99995 s, so the switch lands on 151).
        assert!(cut_frames.contains(&0));
        assert!(
            cut_frames.iter().any(|i| (150..=151).contains(i)),
            "cuts: {cut_frames:?}"
        );
        assert!(
            cut_frames.iter().any(|i| (300..=301).contains(i)),
            "cuts: {cut_frames:?}"
        );
    }

    #[test]
    fn screen_share_segment_is_calmer() {
        let mut s = meeting();
        let mut talking = 0.0;
        let mut share = 0.0;
        for _ in 0..450 {
            let f = s.next_frame();
            if f.pts >= Time::from_secs(5) && f.pts < Time::from_secs(10) {
                share += f.complexity.temporal;
            } else if f.pts < Time::from_secs(5) {
                talking += f.complexity.temporal;
            }
        }
        // 150 frames each; screen share must be far calmer.
        assert!(share < talking / 2.0, "share {share} vs talking {talking}");
    }

    #[test]
    fn deterministic() {
        let mut a = meeting();
        let mut b = meeting();
        for _ in 0..300 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
    }

    #[test]
    #[should_panic(expected = "first segment")]
    fn rejects_late_first_segment() {
        ScriptedSource::new(
            vec![Segment {
                start: Time::from_secs(1),
                class: ContentClass::Gaming,
            }],
            Resolution::P720,
            30,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "increasing order")]
    fn rejects_unordered_segments() {
        ScriptedSource::new(
            vec![
                Segment {
                    start: Time::ZERO,
                    class: ContentClass::Gaming,
                },
                Segment {
                    start: Time::ZERO,
                    class: ContentClass::Sports,
                },
            ],
            Resolution::P720,
            30,
            0,
        );
    }
}
