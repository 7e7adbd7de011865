//! IEEE 802.15.4 O-QPSK (2.4 GHz, 250 kb/s) timing constants.
//!
//! All MAC and DSME durations in this workspace derive from the
//! 16 µs symbol. One octet is 2 symbols; the synchronisation header
//! (4-octet preamble + 1-octet SFD) plus the PHY header add 12 symbols
//! to every frame.

/// One O-QPSK symbol in microseconds.
pub const SYMBOL_US: u64 = 16;
/// Symbols per octet at 250 kb/s (4 bits per symbol).
pub const SYMBOLS_PER_OCTET: u64 = 2;
/// SHR (preamble + SFD) + PHR length in symbols.
pub const PHY_OVERHEAD_SYMBOLS: u64 = 12;
/// Rx↔tx turnaround time in symbols (aTurnaroundTime).
pub const TURNAROUND_SYMBOLS: u64 = 12;
/// CCA detection window in symbols.
pub const CCA_SYMBOLS: u64 = 8;
/// One unit backoff period in symbols (aUnitBackoffPeriod).
pub const UNIT_BACKOFF_SYMBOLS: u64 = 20;
/// ACK wait duration in symbols (macAckWaitDuration).
pub const ACK_WAIT_SYMBOLS: u64 = 54;
/// PSDU length of an immediate acknowledgement frame, in octets.
pub const ACK_PSDU_OCTETS: u64 = 5;
/// Maximum PSDU length in octets (aMaxPHYPacketSize).
pub const MAX_PSDU_OCTETS: u64 = 127;
/// aBaseSlotDuration in symbols (one superframe slot at SO=0).
pub const BASE_SLOT_SYMBOLS: u64 = 60;
/// Number of slots in a superframe (aNumSuperframeSlots).
pub const SUPERFRAME_SLOTS: u64 = 16;

/// Timing calculator for the O-QPSK PHY.
///
/// # Examples
///
/// ```
/// use qma_phy::PhyTiming;
///
/// let t = PhyTiming::oqpsk_2_4ghz();
/// // A maximum-size frame (127-octet PSDU) is on air for 4.256 ms.
/// assert_eq!(t.frame_airtime_us(127), 4256);
/// // An ACK lasts 352 µs.
/// assert_eq!(t.ack_airtime_us(), 352);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhyTiming {
    symbol_us: u64,
}

impl Default for PhyTiming {
    fn default() -> Self {
        Self::oqpsk_2_4ghz()
    }
}

impl PhyTiming {
    /// The standard 2.4 GHz O-QPSK PHY (16 µs symbols).
    pub const fn oqpsk_2_4ghz() -> Self {
        PhyTiming {
            symbol_us: SYMBOL_US,
        }
    }

    /// Duration of `n` symbols in microseconds.
    pub const fn symbols_us(&self, n: u64) -> u64 {
        n * self.symbol_us
    }

    /// Airtime of a frame with a `psdu_octets`-octet MAC payload
    /// (PSDU), including SHR and PHR, in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `psdu_octets` exceeds [`MAX_PSDU_OCTETS`].
    #[inline]
    pub fn frame_airtime_us(&self, psdu_octets: u64) -> u64 {
        assert!(
            psdu_octets <= MAX_PSDU_OCTETS,
            "PSDU too large: {psdu_octets} > {MAX_PSDU_OCTETS}"
        );
        self.symbols_us(PHY_OVERHEAD_SYMBOLS + SYMBOLS_PER_OCTET * psdu_octets)
    }

    /// Airtime of an immediate ACK frame in microseconds.
    pub fn ack_airtime_us(&self) -> u64 {
        self.frame_airtime_us(ACK_PSDU_OCTETS)
    }

    /// The rx→tx / tx→rx turnaround in microseconds.
    pub const fn turnaround_us(&self) -> u64 {
        self.symbols_us(TURNAROUND_SYMBOLS)
    }

    /// The CCA window in microseconds.
    pub const fn cca_us(&self) -> u64 {
        self.symbols_us(CCA_SYMBOLS)
    }

    /// One unit backoff period in microseconds.
    pub const fn unit_backoff_us(&self) -> u64 {
        self.symbols_us(UNIT_BACKOFF_SYMBOLS)
    }

    /// macAckWaitDuration in microseconds, measured from the end of
    /// the data frame.
    pub const fn ack_wait_us(&self) -> u64 {
        self.symbols_us(ACK_WAIT_SYMBOLS)
    }

    /// Duration of one superframe slot at superframe order `so`, in
    /// microseconds.
    pub const fn superframe_slot_us(&self, so: u8) -> u64 {
        self.symbols_us(BASE_SLOT_SYMBOLS << so)
    }

    /// Duration of a whole superframe at superframe order `so`.
    pub const fn superframe_us(&self, so: u8) -> u64 {
        self.superframe_slot_us(so) * SUPERFRAME_SLOTS
    }
}

/// Pre-computed timing of one frame exchange (data + optional ACK),
/// used by MAC layers to know how long a transaction occupies the
/// medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTiming {
    /// Airtime of the data frame in µs.
    pub data_airtime_us: u64,
    /// Airtime of the ACK in µs (zero when no ACK is requested).
    pub ack_airtime_us: u64,
    /// Turnaround before the ACK in µs.
    pub turnaround_us: u64,
    /// How long the sender waits for an ACK after its data frame, µs.
    pub ack_wait_us: u64,
}

impl FrameTiming {
    /// Computes the exchange timing for a `psdu_octets` data frame.
    pub fn for_frame(phy: &PhyTiming, psdu_octets: u64, ack_requested: bool) -> FrameTiming {
        FrameTiming {
            data_airtime_us: phy.frame_airtime_us(psdu_octets),
            ack_airtime_us: if ack_requested {
                phy.ack_airtime_us()
            } else {
                0
            },
            turnaround_us: phy.turnaround_us(),
            ack_wait_us: phy.ack_wait_us(),
        }
    }

    /// Worst-case duration of the whole transaction from tx start to
    /// the point the sender knows the outcome: airtime plus either the
    /// full ACK exchange (success path) or the ACK wait (timeout
    /// path), whichever is longer.
    pub fn transaction_us(&self) -> u64 {
        let success_path = self.data_airtime_us + self.turnaround_us + self.ack_airtime_us;
        let timeout_path = self.data_airtime_us + self.ack_wait_us;
        success_path.max(timeout_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_constants() {
        let t = PhyTiming::oqpsk_2_4ghz();
        assert_eq!(t.symbols_us(1), 16);
        assert_eq!(t.cca_us(), 128);
        assert_eq!(t.turnaround_us(), 192);
        assert_eq!(t.unit_backoff_us(), 320);
        assert_eq!(t.ack_wait_us(), 864);
    }

    #[test]
    fn frame_airtimes() {
        let t = PhyTiming::oqpsk_2_4ghz();
        // Empty PSDU: just SHR+PHR = 12 symbols.
        assert_eq!(t.frame_airtime_us(0), 192);
        assert_eq!(t.frame_airtime_us(127), 4256);
        assert_eq!(t.ack_airtime_us(), 352);
    }

    #[test]
    #[should_panic(expected = "PSDU too large")]
    fn oversized_psdu_panics() {
        PhyTiming::oqpsk_2_4ghz().frame_airtime_us(128);
    }

    #[test]
    fn superframe_durations() {
        let t = PhyTiming::oqpsk_2_4ghz();
        // SO=0: 960 symbols = 15.36 ms.
        assert_eq!(t.superframe_us(0), 15_360);
        // SO=3: 8× longer.
        assert_eq!(t.superframe_us(3), 122_880);
        assert_eq!(t.superframe_slot_us(3), 7_680);
    }

    #[test]
    fn transaction_duration_paths() {
        let phy = PhyTiming::oqpsk_2_4ghz();
        let ft = FrameTiming::for_frame(&phy, 50, true);
        assert_eq!(ft.data_airtime_us, phy.frame_airtime_us(50));
        // ACK wait (864) > turnaround + ack air (192+352=544), so the
        // timeout path dominates.
        assert_eq!(ft.transaction_us(), ft.data_airtime_us + 864);
        let no_ack = FrameTiming::for_frame(&phy, 50, false);
        assert_eq!(no_ack.ack_airtime_us, 0);
    }
}
