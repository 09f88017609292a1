//! The decoder model: reference-chain integrity and display outcomes.
//!
//! The decoder does not reconstruct pixels; it tracks the one property
//! that matters for end-to-end quality: *can this frame be decoded at
//! all?* A P-frame is decodable only if its reference (the previous
//! decoded frame) was decoded; an I-frame always is. A frame that is
//! lost in the network breaks the chain for every P-frame behind it
//! until the next I-frame; one that arrives after its playout deadline
//! is decoded, but displayed stale.
//!
//! While the chain is broken the receiver *freezes*: it keeps displaying
//! the last good frame. The quality cost of a freeze grows with the
//! content's temporal complexity (a frozen talking head is barely
//! noticeable for one frame; frozen sports is not) — this is how the
//! baseline's overshoot-induced losses turn into the measured SSIM gap.

use crate::frame::FrameType;

/// What the decoder reads of an encoded frame: its type, which decides
/// whether it needs a decoded reference, and the SSIM it displays at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decodable {
    /// Intra or predicted.
    pub frame_type: FrameType,
    /// Modelled encode quality of the frame.
    pub ssim: f64,
}

/// What happened to one frame at the receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecodeOutcome {
    /// Decoded and displayed; carries the encode SSIM.
    Displayed {
        /// Encode quality of the displayed frame.
        ssim: f64,
    },
    /// The frame was undecodable (lost, late, or broken reference);
    /// the previous image stays on screen. Carries the modelled SSIM of
    /// the *stale* image vs. the current source frame.
    Frozen {
        /// Quality of the stale display vs. the live content.
        ssim: f64,
    },
}

impl DecodeOutcome {
    /// The SSIM the viewer experienced for this frame slot.
    pub fn displayed_ssim(self) -> f64 {
        match self {
            DecodeOutcome::Displayed { ssim } | DecodeOutcome::Frozen { ssim } => ssim,
        }
    }

    /// True if the viewer saw a fresh frame.
    pub fn is_displayed(self) -> bool {
        matches!(self, DecodeOutcome::Displayed { .. })
    }
}

/// Reference-chain tracking decoder.
#[derive(Debug, Clone)]
pub struct Decoder {
    /// True once a frame has decoded: a P-frame needs a reference.
    has_reference: bool,
    /// True when a P-frame's reference is missing; cleared by an I-frame.
    chain_broken: bool,
    /// SSIM of the image currently on screen (vs. its own source frame).
    screen_ssim: f64,
    /// Per-missing-frame SSIM decay rate, scaled by temporal complexity.
    freeze_decay_per_frame: f64,
    frames_frozen_run: u64,
    /// Times the chain went from healthy to broken.
    chain_breaks: u64,
}

impl Default for Decoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Decoder {
    /// Creates a decoder with the default freeze-decay model.
    pub fn new() -> Decoder {
        Decoder {
            has_reference: false,
            chain_broken: false,
            screen_ssim: 0.0,
            freeze_decay_per_frame: 0.05,
            frames_frozen_run: 0,
            chain_breaks: 0,
        }
    }

    /// True if the next P-frame cannot be decoded.
    pub fn chain_broken(&self) -> bool {
        self.chain_broken
    }

    /// How many times the reference chain went from healthy to broken.
    /// Each such break must end in a (PLI-requested) keyframe — the
    /// freeze-termination invariant counts on it.
    pub fn chain_breaks(&self) -> u64 {
        self.chain_breaks
    }

    /// Feeds a frame that arrived *after its playout deadline*: the
    /// decoder decodes it (the reference chain stays healthy and the
    /// screen updates), but what the viewer sees at this slot's moment is
    /// `staleness_frames` behind the live scene. The quality penalty
    /// grows with motion and saturates — a talking head that is 1 s
    /// stale looks about as wrong as one 0.5 s stale.
    pub fn feed_late(
        &mut self,
        frame: Decodable,
        staleness_frames: f64,
        temporal_complexity: f64,
    ) -> DecodeOutcome {
        // Decode bookkeeping: the chain advances exactly as for an
        // on-time frame.
        if frame.frame_type.is_intra() {
            self.chain_broken = false;
        }
        let decodable = match frame.frame_type {
            FrameType::I => true,
            FrameType::P => !self.chain_broken && self.has_reference,
        };
        if !decodable {
            // feed(None) breaks the chain (and counts the transition).
            return self.feed(None, temporal_complexity);
        }
        self.has_reference = true;
        self.screen_ssim = frame.ssim;
        self.frames_frozen_run = 0;
        let slope = self.freeze_decay_per_frame * temporal_complexity.max(0.05);
        let max_penalty = 0.25;
        let penalty =
            max_penalty * (1.0 - (-staleness_frames.max(0.0) * slope / max_penalty).exp());
        DecodeOutcome::Frozen {
            ssim: (frame.ssim - penalty).max(0.2),
        }
    }

    /// Feeds a slot the *sender* deliberately skipped: the display
    /// freezes for one slot, but the reference chain is intact — the
    /// encoder's next P-frame references the last *encoded* frame, which
    /// the receiver has. (Contrast with a lost/late frame, which removes
    /// a reference the following P-frames need.)
    pub fn feed_sender_skip(&mut self, temporal_complexity: f64) -> DecodeOutcome {
        self.frames_frozen_run += 1;
        let decay = self.freeze_decay_per_frame * temporal_complexity.max(0.05);
        let ssim = (self.screen_ssim - decay * self.frames_frozen_run as f64).max(0.2);
        DecodeOutcome::Frozen { ssim }
    }

    /// Feeds the next frame slot to the decoder.
    ///
    /// * `frame` — the encoded frame for this slot, or `None` if it never
    ///   arrived (lost, dropped, or skipped at the sender). A frame that
    ///   missed its playout deadline goes through [`Decoder::feed_late`].
    /// * `temporal_complexity` — the *source* frame's motion level,
    ///   used to price a freeze.
    pub fn feed(&mut self, frame: Option<Decodable>, temporal_complexity: f64) -> DecodeOutcome {
        let decodable = match frame {
            Some(f) => match f.frame_type {
                FrameType::I => true,
                FrameType::P => !self.chain_broken && self.has_reference,
            },
            None => false,
        };

        if decodable {
            let f = frame.expect("decodable implies present");
            if f.frame_type.is_intra() {
                self.chain_broken = false;
            }
            self.has_reference = true;
            self.screen_ssim = f.ssim;
            self.frames_frozen_run = 0;
            DecodeOutcome::Displayed { ssim: f.ssim }
        } else {
            // A missing or undecodable slot breaks the chain for
            // subsequent P-frames (their reference is not on screen).
            if !self.chain_broken {
                self.chain_breaks += 1;
            }
            self.chain_broken = true;
            self.frames_frozen_run += 1;
            // The stale image diverges from live content at a rate set by
            // motion; floor at 0.2 (a frozen image is still *an* image).
            let decay = self.freeze_decay_per_frame * temporal_complexity.max(0.05);
            let ssim = (self.screen_ssim - decay * self.frames_frozen_run as f64).max(0.2);
            DecodeOutcome::Frozen { ssim }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(frame_type: FrameType, ssim: f64) -> Decodable {
        Decodable { frame_type, ssim }
    }

    #[test]
    fn normal_playout_displays() {
        let mut d = Decoder::new();
        let out0 = d.feed(Some(frame(FrameType::I, 0.96)), 0.35);
        let out1 = d.feed(Some(frame(FrameType::P, 0.95)), 0.35);
        assert_eq!(out0, DecodeOutcome::Displayed { ssim: 0.96 });
        assert_eq!(out1, DecodeOutcome::Displayed { ssim: 0.95 });
    }

    #[test]
    fn first_frame_p_cannot_decode() {
        let mut d = Decoder::new();
        let out = d.feed(Some(frame(FrameType::P, 0.95)), 0.35);
        assert!(!out.is_displayed());
    }

    #[test]
    fn missing_frame_freezes_and_breaks_chain() {
        let mut d = Decoder::new();
        d.feed(Some(frame(FrameType::I, 0.96)), 0.35);
        let out1 = d.feed(None, 0.35);
        assert!(!out1.is_displayed());
        // Subsequent P cannot decode even though it arrived fine.
        let out2 = d.feed(Some(frame(FrameType::P, 0.95)), 0.35);
        assert!(!out2.is_displayed());
        assert!(d.chain_broken());
    }

    #[test]
    fn chain_breaks_count_transitions_not_slots() {
        let mut d = Decoder::new();
        d.feed(Some(frame(FrameType::I, 0.96)), 0.35);
        assert_eq!(d.chain_breaks(), 0);
        // Three consecutive missing slots are ONE break.
        d.feed(None, 0.35);
        d.feed(None, 0.35);
        d.feed(None, 0.35);
        assert_eq!(d.chain_breaks(), 1);
        // Repair, then break again: second transition.
        d.feed(Some(frame(FrameType::I, 0.94)), 0.35);
        d.feed(None, 0.35);
        assert_eq!(d.chain_breaks(), 2);
    }

    #[test]
    fn i_frame_repairs_chain() {
        let mut d = Decoder::new();
        d.feed(Some(frame(FrameType::I, 0.96)), 0.35);
        d.feed(None, 0.35);
        d.feed(Some(frame(FrameType::P, 0.95)), 0.35);
        let out = d.feed(Some(frame(FrameType::I, 0.94)), 0.35);
        assert!(out.is_displayed());
        assert!(!d.chain_broken());
        let next = d.feed(Some(frame(FrameType::P, 0.95)), 0.35);
        assert!(next.is_displayed());
    }

    #[test]
    fn late_frame_counts_as_missing() {
        let mut d = Decoder::new();
        d.feed(Some(frame(FrameType::I, 0.96)), 0.35);
        let out = d.feed_late(frame(FrameType::P, 0.95), 3.0, 0.35);
        // Missing from the display at its slot...
        assert!(!out.is_displayed());
        // ...but decoded, so the chain holds for the next P-frame.
        assert!(!d.chain_broken());
        let next = d.feed(Some(frame(FrameType::P, 0.95)), 0.35);
        assert!(next.is_displayed());
    }

    #[test]
    fn freeze_quality_decays_with_motion() {
        let mut d = Decoder::new();
        d.feed(Some(frame(FrameType::I, 0.96)), 1.0);
        let f1 = d.feed(None, 1.0).displayed_ssim();
        let f2 = d.feed(None, 1.0).displayed_ssim();
        let f3 = d.feed(None, 1.0).displayed_ssim();
        assert!(f1 > f2 && f2 > f3, "freeze should decay: {f1} {f2} {f3}");
        // High motion decays faster than low motion.
        let mut d2 = Decoder::new();
        d2.feed(Some(frame(FrameType::I, 0.96)), 0.05);
        let slow = d2.feed(None, 0.05).displayed_ssim();
        assert!(slow > f1);
    }

    #[test]
    fn freeze_floors_at_minimum() {
        let mut d = Decoder::new();
        d.feed(Some(frame(FrameType::I, 0.96)), 2.0);
        let mut last = 1.0;
        for _ in 0..100 {
            last = d.feed(None, 2.0).displayed_ssim();
        }
        assert_eq!(last, 0.2);
    }

    #[test]
    fn recovery_resets_freeze_run() {
        let mut d = Decoder::new();
        d.feed(Some(frame(FrameType::I, 0.96)), 1.0);
        d.feed(None, 1.0);
        d.feed(None, 1.0);
        d.feed(Some(frame(FrameType::I, 0.93)), 1.0);
        // A fresh freeze starts shallow again.
        let f = d.feed(None, 1.0).displayed_ssim();
        assert!(f > 0.8, "freeze after recovery too deep: {f}");
    }
}
