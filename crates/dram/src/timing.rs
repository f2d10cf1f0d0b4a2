//! DRAM timing parameter sets (the paper's Table I).
//!
//! All parameters are stored in **nanoseconds** (`f64`), matching the
//! units of Table I and of the WCD analysis; the discrete-event controller
//! converts them to integer-picosecond [`autoplat_sim::SimDuration`]s.

use autoplat_sim::SimDuration;

/// A set of DRAM device timing parameters, in nanoseconds.
///
/// Field names follow the JEDEC datasheet conventions used by Table I of
/// the paper. Only the parameters the FR-FCFS analysis and simulator
/// consume are included.
///
/// # Examples
///
/// ```
/// use autoplat_dram::timing::presets::ddr3_1600;
///
/// let t = ddr3_1600();
/// assert_eq!(t.t_ck, 1.25);
/// assert_eq!(t.t_rfc, 260.0);
/// // Derived: the row cycle time tRC = tRAS + tRP.
/// assert_eq!(t.t_rc(), 48.75);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramTiming {
    /// Device name, e.g. `"DDR3-1600"`.
    pub name: String,
    /// Clock period.
    pub t_ck: f64,
    /// Data burst duration (BL8 on the data bus).
    pub t_burst: f64,
    /// RAS-to-CAS delay (activate to column command).
    pub t_rcd: f64,
    /// CAS latency (read command to first data).
    pub t_cl: f64,
    /// Row precharge time.
    pub t_rp: f64,
    /// Row active time (activate to precharge).
    pub t_ras: f64,
    /// Activate-to-activate delay, different banks.
    pub t_rrd: f64,
    /// Four-activate window.
    pub t_xaw: f64,
    /// Refresh cycle time.
    pub t_rfc: f64,
    /// Write recovery time.
    pub t_wr: f64,
    /// Write-to-read turnaround.
    pub t_wtr: f64,
    /// Read-to-precharge delay.
    pub t_rtp: f64,
    /// Read-to-write turnaround.
    pub t_rtw: f64,
    /// Rank-to-rank switch (chip select).
    pub t_cs: f64,
    /// Average refresh interval.
    pub t_refi: f64,
    /// Power-down exit latency.
    pub t_xp: f64,
    /// Self-refresh exit latency.
    pub t_xs: f64,
}

impl DramTiming {
    /// Row cycle time `tRC = tRAS + tRP`: the minimum spacing of two
    /// activates to the same bank.
    pub fn t_rc(&self) -> f64 {
        self.t_ras + self.t_rp
    }

    /// Worst-case cost of serving one **row-miss read**, back-to-back with
    /// a preceding miss to the same bank: the larger of the row cycle time
    /// and the full precharge→activate→read→data pipeline.
    pub fn read_miss_cost(&self) -> f64 {
        self.t_rc()
            .max(self.t_rp + self.t_rcd + self.t_cl + self.t_burst)
    }

    /// Cost of one **row-hit read** issued back-to-back with the previous
    /// column command: limited by the data-bus burst duration.
    pub fn read_hit_cost(&self) -> f64 {
        self.t_burst
    }

    /// Cost of one write within an ongoing write batch (row open,
    /// bus-limited).
    pub fn write_hit_cost(&self) -> f64 {
        self.t_burst
    }

    /// Total time overhead of one write batch of `n_wd` writes, including
    /// both bus turnarounds: read→write (`tRTW`), the writes themselves,
    /// write recovery (`tWR`), write→read turnaround (`tWTR`) and the CAS
    /// latency to restart the read pipe.
    pub fn write_batch_cost(&self, n_wd: u32) -> f64 {
        self.t_rtw + n_wd as f64 * self.write_hit_cost() + self.t_wr + self.t_wtr + self.t_cl
    }

    /// Validates basic sanity (all parameters strictly positive and the
    /// refresh interval longer than the refresh cycle).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        let fields = [
            ("tCK", self.t_ck),
            ("tBurst", self.t_burst),
            ("tRCD", self.t_rcd),
            ("tCL", self.t_cl),
            ("tRP", self.t_rp),
            ("tRAS", self.t_ras),
            ("tRRD", self.t_rrd),
            ("tXAW", self.t_xaw),
            ("tRFC", self.t_rfc),
            ("tWR", self.t_wr),
            ("tWTR", self.t_wtr),
            ("tRTP", self.t_rtp),
            ("tRTW", self.t_rtw),
            ("tCS", self.t_cs),
            ("tREFI", self.t_refi),
            ("tXP", self.t_xp),
            ("tXS", self.t_xs),
        ];
        for (name, v) in fields {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if self.t_refi <= self.t_rfc {
            return Err(format!(
                "tREFI ({}) must exceed tRFC ({})",
                self.t_refi, self.t_rfc
            ));
        }
        Ok(())
    }

    /// A timing value as a [`SimDuration`] for the discrete-event simulator.
    pub fn dur(ns: f64) -> SimDuration {
        SimDuration::from_ns(ns)
    }
}

/// Timing presets for common device families.
pub mod presets {
    use super::DramTiming;

    /// **Table I of the paper**: DDR3-1600, 4 Gbit datasheet values, in ns.
    pub fn ddr3_1600() -> DramTiming {
        DramTiming {
            name: "DDR3-1600".to_string(),
            t_ck: 1.25,
            t_burst: 5.0,
            t_rcd: 13.75,
            t_cl: 13.75,
            t_rp: 13.75,
            t_ras: 35.0,
            t_rrd: 6.0,
            t_xaw: 30.0,
            t_rfc: 260.0,
            t_wr: 15.0,
            t_wtr: 7.5,
            t_rtp: 7.5,
            t_rtw: 2.5,
            t_cs: 2.5,
            t_refi: 7800.0,
            t_xp: 6.0,
            t_xs: 270.0,
        }
    }

    /// DDR4-2400 (8 Gbit-class device, representative datasheet values).
    ///
    /// The paper notes the method applies to "any memory technology, by
    /// just changing the values of the timing parameters" — this preset
    /// exercises that claim.
    pub fn ddr4_2400() -> DramTiming {
        DramTiming {
            name: "DDR4-2400".to_string(),
            t_ck: 0.833,
            t_burst: 3.33,
            t_rcd: 13.32,
            t_cl: 13.32,
            t_rp: 13.32,
            t_ras: 32.0,
            t_rrd: 4.9,
            t_xaw: 21.0,
            t_rfc: 350.0,
            t_wr: 15.0,
            t_wtr: 7.5,
            t_rtp: 7.5,
            t_rtw: 2.5,
            t_cs: 1.666,
            t_refi: 7800.0,
            t_xp: 6.0,
            t_xs: 360.0,
        }
    }

    /// LPDDR4-3200 (automotive-grade low-power device, representative
    /// datasheet values).
    pub fn lpddr4_3200() -> DramTiming {
        DramTiming {
            name: "LPDDR4-3200".to_string(),
            t_ck: 0.625,
            t_burst: 5.0, // BL16 on a x16 channel
            t_rcd: 18.0,
            t_cl: 17.5,
            t_rp: 18.0,
            t_ras: 42.0,
            t_rrd: 10.0,
            t_xaw: 40.0,
            t_rfc: 280.0,
            t_wr: 18.0,
            t_wtr: 10.0,
            t_rtp: 7.5,
            t_rtw: 2.5,
            t_cs: 2.5,
            t_refi: 3904.0,
            t_xp: 7.5,
            t_xs: 300.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::presets::*;

    #[test]
    fn table1_values_match_paper() {
        let t = ddr3_1600();
        assert_eq!(t.t_ck, 1.25);
        assert_eq!(t.t_burst, 5.0);
        assert_eq!(t.t_rcd, 13.75);
        assert_eq!(t.t_cl, 13.75);
        assert_eq!(t.t_rp, 13.75);
        assert_eq!(t.t_ras, 35.0);
        assert_eq!(t.t_rrd, 6.0);
        assert_eq!(t.t_xaw, 30.0);
        assert_eq!(t.t_rfc, 260.0);
        assert_eq!(t.t_wr, 15.0);
        assert_eq!(t.t_wtr, 7.5);
        assert_eq!(t.t_rtp, 7.5);
        assert_eq!(t.t_rtw, 2.5);
        assert_eq!(t.t_cs, 2.5);
        assert_eq!(t.t_refi, 7800.0);
        assert_eq!(t.t_xp, 6.0);
        assert_eq!(t.t_xs, 270.0);
    }

    #[test]
    fn derived_costs_ddr3() {
        let t = ddr3_1600();
        assert_eq!(t.t_rc(), 48.75);
        assert_eq!(t.read_miss_cost(), 48.75); // tRC dominates the pipeline
        assert_eq!(t.read_hit_cost(), 5.0);
        // tRTW + 16*5 + tWR + tWTR + tCL
        assert_eq!(t.write_batch_cost(16), 2.5 + 80.0 + 15.0 + 7.5 + 13.75);
    }

    #[test]
    fn all_presets_validate() {
        for t in [ddr3_1600(), ddr4_2400(), lpddr4_3200()] {
            t.validate()
                .unwrap_or_else(|e| panic!("{} invalid: {e}", t.name));
        }
    }

    #[test]
    fn validation_rejects_nonpositive() {
        let mut t = ddr3_1600();
        t.t_rcd = 0.0;
        assert!(t.validate().is_err());
        let mut t2 = ddr3_1600();
        t2.t_refi = 100.0; // below tRFC
        assert!(t2.validate().unwrap_err().contains("tREFI"));
    }

    #[test]
    fn faster_devices_have_cheaper_hits() {
        assert!(ddr4_2400().read_hit_cost() < ddr3_1600().read_hit_cost());
    }
}
