//! The synchronized superframe clock.
//!
//! All nodes share one frame structure (the paper's DSME networks are
//! beacon-synchronized; we assume ideal synchronisation). A frame of
//! duration `frame` contains a contention window (`cap_offset`,
//! `cap_len`) divided into `M` equal subslots — QMA's learning
//! states. "For application in DSME, 8 CAP slots are further
//! subdivided into 54 subslots" (§4).
//!
//! Contention MACs (CSMA and QMA alike) may only touch the medium
//! inside the CAP window.

use qma_des::{SimDuration, SimTime};

/// Frame/CAP/subslot geometry shared by all nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameClock {
    frame: SimDuration,
    cap_offset: SimDuration,
    cap_len: SimDuration,
    subslots: u16,
    subslot: SimDuration,
}

/// Where an instant falls inside the frame structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotPosition {
    /// Index of the frame containing the instant.
    pub frame_index: u64,
    /// Subslot index within the CAP, if the instant is inside the
    /// usable CAP area.
    pub subslot: Option<u16>,
}

impl FrameClock {
    /// Creates a clock.
    ///
    /// # Panics
    ///
    /// Panics if durations are inconsistent (CAP outside the frame,
    /// zero subslots, subslots longer than the CAP).
    pub fn new(
        frame: SimDuration,
        cap_offset: SimDuration,
        cap_len: SimDuration,
        subslots: u16,
    ) -> Self {
        assert!(subslots > 0, "need at least one subslot");
        assert!(!frame.is_zero(), "frame must have positive duration");
        assert!(
            cap_offset + cap_len <= frame,
            "CAP window exceeds the frame"
        );
        let subslot = SimDuration::from_micros(cap_len.as_micros() / subslots as u64);
        assert!(
            !subslot.is_zero(),
            "CAP too short for the requested subslot count"
        );
        FrameClock {
            frame,
            cap_offset,
            cap_len,
            subslots,
            subslot,
        }
    }

    /// The paper's DSME configuration: superframe order 3 (122.88 ms
    /// superframe), beacon slot + 8 CAP slots, CAP divided into 54
    /// subslots. The CAP occupies slots 1–8 of the 16-slot
    /// superframe (slot 0 carries the beacon).
    pub fn dsme_so3() -> Self {
        Self::dsme_so3_subslots(54)
    }

    /// The DSME SO3 superframe with a custom subslot count M — the
    /// frame-geometry knob campaign sweeps turn (the paper fixes
    /// M = 54; the subslot count trades state-space size against
    /// subslot duration).
    ///
    /// # Panics
    ///
    /// Panics if `subslots` is zero or exceeds the CAP length in µs.
    pub fn dsme_so3_subslots(subslots: u16) -> Self {
        let slot = SimDuration::from_micros(7_680); // 60·2³ symbols
        FrameClock::new(slot * 16, slot, slot * 8, subslots)
    }

    /// A standalone contention structure: the whole frame is CAP,
    /// divided into `subslots` subslots of `subslot_us` µs each.
    pub fn all_cap(subslots: u16, subslot_us: u64) -> Self {
        let cap = SimDuration::from_micros(subslot_us * subslots as u64);
        FrameClock::new(cap, SimDuration::ZERO, cap, subslots)
    }

    /// Frame duration.
    pub fn frame_duration(&self) -> SimDuration {
        self.frame
    }

    /// Subslot duration.
    pub fn subslot_duration(&self) -> SimDuration {
        self.subslot
    }

    /// Number of subslots per frame (M).
    pub fn subslots(&self) -> u16 {
        self.subslots
    }

    /// The CAP window `(offset, length)` within a frame.
    pub fn cap_window(&self) -> (SimDuration, SimDuration) {
        (self.cap_offset, self.cap_len)
    }

    /// Index of the frame containing `t`.
    pub fn frame_index(&self, t: SimTime) -> u64 {
        t.as_micros() / self.frame.as_micros()
    }

    /// Start of frame `index`.
    pub fn frame_start(&self, index: u64) -> SimTime {
        SimTime::from_micros(index * self.frame.as_micros())
    }

    /// Does `t` fall inside a usable subslot (i.e. within the CAP's
    /// `M × subslot` area)?
    pub fn in_cap(&self, t: SimTime) -> bool {
        self.position(t).subslot.is_some()
    }

    /// Locates `t` in the frame structure.
    pub fn position(&self, t: SimTime) -> SlotPosition {
        let frame_index = self.frame_index(t);
        let in_frame = t.as_micros() - frame_index * self.frame.as_micros();
        let cap_start = self.cap_offset.as_micros();
        let usable = self.subslot.as_micros() * self.subslots as u64;
        let subslot = if in_frame >= cap_start && in_frame < cap_start + usable {
            Some(((in_frame - cap_start) / self.subslot.as_micros()) as u16)
        } else {
            None
        };
        SlotPosition {
            frame_index,
            subslot,
        }
    }

    /// Start time of `subslot` in frame `frame_index`.
    ///
    /// # Panics
    ///
    /// Panics if the subslot is out of range.
    pub fn subslot_start(&self, frame_index: u64, subslot: u16) -> SimTime {
        assert!(subslot < self.subslots, "subslot out of range");
        self.frame_start(frame_index) + self.cap_offset + self.subslot * subslot as u64
    }

    /// The first subslot boundary strictly after `t`, as
    /// `(time, frame_index, subslot)`. This is where a contention MAC
    /// wakes up next.
    pub fn next_subslot_start(&self, t: SimTime) -> (SimTime, u64, u16) {
        let pos = self.position(t);
        // Candidate: next subslot in this frame.
        match pos.subslot {
            Some(m) if m + 1 < self.subslots => {
                let start = self.subslot_start(pos.frame_index, m + 1);
                (start, pos.frame_index, m + 1)
            }
            Some(_) => {
                let start = self.subslot_start(pos.frame_index + 1, 0);
                (start, pos.frame_index + 1, 0)
            }
            None => {
                // Before this frame's CAP, or after it?
                let cap0 = self.subslot_start(pos.frame_index, 0);
                if t < cap0 {
                    (cap0, pos.frame_index, 0)
                } else {
                    let start = self.subslot_start(pos.frame_index + 1, 0);
                    (start, pos.frame_index + 1, 0)
                }
            }
        }
    }

    /// The subslot boundary following subslot `m` of frame
    /// `frame_index`, as `(time, frame_index, subslot)`.
    ///
    /// Equivalent to [`FrameClock::next_subslot_start`] evaluated
    /// exactly at that subslot's start, but computed from the indices
    /// with multiplications only — no divisions — so a MAC that ticks
    /// every subslot can advance its position incrementally.
    pub fn subslot_after(&self, frame_index: u64, m: u16) -> (SimTime, u64, u16) {
        if m + 1 < self.subslots {
            (self.subslot_start(frame_index, m + 1), frame_index, m + 1)
        } else {
            (self.subslot_start(frame_index + 1, 0), frame_index + 1, 0)
        }
    }

    /// End of the usable CAP area in the frame containing `t`:
    /// transactions must finish before this instant.
    pub fn cap_end(&self, t: SimTime) -> SimTime {
        self.cap_end_of_frame(self.frame_index(t))
    }

    /// End of the usable CAP area of frame `frame_index` — the
    /// division-free variant of [`FrameClock::cap_end`] for callers
    /// that already know the frame index (the subslot-tick hot path).
    pub fn cap_end_of_frame(&self, frame_index: u64) -> SimTime {
        self.frame_start(frame_index) + self.cap_offset + self.subslot * self.subslots as u64
    }

    /// The global boundary index of subslot `m` in frame
    /// `frame_index`: `frame × M + m`. Strictly monotone in the
    /// subslot start time, so the world's per-boundary tick sweep
    /// can tell "this boundary", "a later one" and "one already
    /// swept" apart by comparing indices.
    pub fn boundary_index(&self, frame_index: u64, subslot: u16) -> u64 {
        frame_index * self.subslots as u64 + subslot as u64
    }

    /// How many subslots the interval `[from, to]` spans, i.e. the
    /// `i` in the paper's `Q(mₜ₊ᵢ)` when an action started at `from`
    /// completes at `to`. Counted in *global* subslot positions so a
    /// transaction crossing the CFP gap still lands on the right next
    /// state.
    pub fn global_subslot(&self, t: SimTime) -> u64 {
        let pos = self.position(t);
        let m = pos.subslot.unwrap_or_else(|| {
            // Clamp instants in the gap to the last subslot of the
            // frame (outcomes arriving after CAP end belong to the
            // final subslot's action).
            let cap0 = self.subslot_start(pos.frame_index, 0);
            if t < cap0 {
                0
            } else {
                self.subslots - 1
            }
        });
        pos.frame_index * self.subslots as u64 + m as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dsme_so3_geometry() {
        let c = FrameClock::dsme_so3();
        assert_eq!(c.frame_duration(), SimDuration::from_micros(122_880));
        assert_eq!(c.cap_window().0, SimDuration::from_micros(7_680));
        assert_eq!(c.cap_window().1, SimDuration::from_micros(61_440));
        assert_eq!(c.subslots(), 54);
        // 61.44 ms / 54 = 1137.77… → 1137 µs integer subslots.
        assert_eq!(c.subslot_duration(), SimDuration::from_micros(1_137));
    }

    #[test]
    fn position_maps_beacon_cap_cfp() {
        let c = FrameClock::dsme_so3();
        // Beacon slot: before the CAP.
        assert_eq!(c.position(SimTime::from_micros(100)).subslot, None);
        // First CAP subslot.
        let p = c.position(SimTime::from_micros(7_680));
        assert_eq!(p.subslot, Some(0));
        assert_eq!(p.frame_index, 0);
        // Last usable subslot starts at 7680 + 53·1137 = 67 941.
        assert_eq!(c.position(SimTime::from_micros(67_941)).subslot, Some(53));
        // CFP: after CAP end (7680 + 54·1137 = 69 078).
        assert_eq!(c.position(SimTime::from_micros(69_078)).subslot, None);
        assert!(!c.in_cap(SimTime::from_micros(100_000)));
        // Next frame wraps.
        let p = c.position(SimTime::from_micros(122_880 + 7_680));
        assert_eq!(p.frame_index, 1);
        assert_eq!(p.subslot, Some(0));
    }

    #[test]
    fn next_subslot_progression() {
        let c = FrameClock::dsme_so3();
        // From the beacon slot → subslot 0 of the same frame.
        let (t, f, m) = c.next_subslot_start(SimTime::from_micros(10));
        assert_eq!((t.as_micros(), f, m), (7_680, 0, 0));
        // From inside subslot 0 → subslot 1.
        let (t, _, m) = c.next_subslot_start(SimTime::from_micros(7_700));
        assert_eq!((t.as_micros(), m), (7_680 + 1_137, 1));
        // From the last subslot → subslot 0 of the next frame.
        let (t, f, m) = c.next_subslot_start(SimTime::from_micros(67_941));
        assert_eq!((t.as_micros(), f, m), (122_880 + 7_680, 1, 0));
        // From the CFP → subslot 0 of the next frame.
        let (t, f, m) = c.next_subslot_start(SimTime::from_micros(80_000));
        assert_eq!((t.as_micros(), f, m), (122_880 + 7_680, 1, 0));
    }

    #[test]
    fn all_cap_has_no_gap() {
        let c = FrameClock::all_cap(4, 1_000);
        assert_eq!(c.frame_duration(), SimDuration::from_millis(4));
        for us in (0..8_000).step_by(250) {
            assert!(c.in_cap(SimTime::from_micros(us)), "gap at {us}");
        }
        let (t, f, m) = c.next_subslot_start(SimTime::from_micros(3_999));
        assert_eq!((t.as_micros(), f, m), (4_000, 1, 0));
    }

    #[test]
    fn global_subslot_is_monotone_and_dense_in_cap() {
        let c = FrameClock::dsme_so3();
        let mut last = 0;
        for us in (0..400_000).step_by(137) {
            let g = c.global_subslot(SimTime::from_micros(us));
            assert!(g >= last, "not monotone at {us}");
            last = g;
        }
        // Subslot 53 of frame 0 and subslot 0 of frame 1 are adjacent.
        assert_eq!(c.global_subslot(SimTime::from_micros(67_941)), 53);
        assert_eq!(c.global_subslot(SimTime::from_micros(122_880 + 7_680)), 54);
        // CFP clamps to the frame's last subslot.
        assert_eq!(c.global_subslot(SimTime::from_micros(90_000)), 53);
    }

    #[test]
    fn subslot_after_matches_next_subslot_start() {
        for c in [FrameClock::dsme_so3(), FrameClock::all_cap(4, 1_000)] {
            for f in 0..3u64 {
                for m in 0..c.subslots() {
                    let t = c.subslot_start(f, m);
                    assert_eq!(
                        c.subslot_after(f, m),
                        c.next_subslot_start(t),
                        "divergence at frame {f} subslot {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn cap_end_boundary() {
        let c = FrameClock::dsme_so3();
        assert_eq!(c.cap_end(SimTime::from_micros(10_000)).as_micros(), 69_078);
        assert_eq!(
            c.cap_end(SimTime::from_micros(130_000)).as_micros(),
            122_880 + 69_078
        );
    }

    #[test]
    fn subslot_start_roundtrip() {
        let c = FrameClock::dsme_so3();
        for f in [0u64, 1, 7] {
            for m in [0u16, 1, 26, 53] {
                let t = c.subslot_start(f, m);
                let p = c.position(t);
                assert_eq!(p.frame_index, f);
                assert_eq!(p.subslot, Some(m));
            }
        }
    }

    #[test]
    #[should_panic(expected = "CAP window exceeds")]
    fn oversized_cap_panics() {
        let _ = FrameClock::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(5),
            SimDuration::from_millis(6),
            4,
        );
    }
}
