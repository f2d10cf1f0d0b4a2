//! FR-FCFS controller configuration parameters.

/// Configuration of the FR-FCFS controller of Fig. 4/Fig. 5.
///
/// # Examples
///
/// ```
/// use autoplat_dram::ControllerConfig;
///
/// // The paper's Table II operating point.
/// let cfg = ControllerConfig::paper();
/// assert_eq!(cfg.w_high, 55);
/// assert_eq!(cfg.n_wd, 16);
/// assert_eq!(cfg.n_cap, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerConfig {
    /// High watermark: switch to write mode when the write queue holds at
    /// least this many requests.
    pub w_high: u32,
    /// Low watermark: with an empty read queue, switch to write mode when
    /// the write queue holds at least this many requests.
    pub w_low: u32,
    /// Write batch length: writes served per write-mode episode when reads
    /// are waiting.
    pub n_wd: u32,
    /// Maximum number of row hits promoted over an older row miss
    /// (starvation cap).
    pub n_cap: u32,
    /// Capacity of the read queue (requests).
    pub read_queue_capacity: usize,
    /// Capacity of the write queue (requests).
    pub write_queue_capacity: usize,
}

impl ControllerConfig {
    /// The configuration used for the paper's Table II:
    /// `W_high = 55`, `N_wd = 16`, `N_cap = 16`.
    pub fn paper() -> Self {
        ControllerConfig {
            w_high: 55,
            w_low: 16,
            n_wd: 16,
            n_cap: 16,
            read_queue_capacity: 64,
            write_queue_capacity: 64,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint: batch size
    /// and caps must be non-zero, `w_low <= w_high`, and the write queue
    /// must be able to hold `w_high` requests.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_wd == 0 {
            return Err("N_wd (write batch length) must be non-zero".into());
        }
        if self.n_cap == 0 {
            return Err("N_cap (hit promotion cap) must be non-zero".into());
        }
        if self.w_low > self.w_high {
            return Err(format!(
                "W_low ({}) must not exceed W_high ({})",
                self.w_low, self.w_high
            ));
        }
        if self.read_queue_capacity == 0 || self.write_queue_capacity == 0 {
            return Err("queue capacities must be non-zero".into());
        }
        if (self.write_queue_capacity as u32) < self.w_high {
            return Err(format!(
                "write queue capacity ({}) cannot reach W_high ({})",
                self.write_queue_capacity, self.w_high
            ));
        }
        Ok(())
    }

    /// Builder-style update of the write batch length.
    pub fn with_n_wd(mut self, n_wd: u32) -> Self {
        self.n_wd = n_wd;
        self
    }

    /// Builder-style update of the hit promotion cap.
    pub fn with_n_cap(mut self, n_cap: u32) -> Self {
        self.n_cap = n_cap;
        self
    }

    /// Builder-style update of the watermarks.
    pub fn with_watermarks(mut self, w_low: u32, w_high: u32) -> Self {
        self.w_low = w_low;
        self.w_high = w_high;
        self
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        ControllerConfig::paper()
            .validate()
            .expect("paper config valid");
    }

    #[test]
    fn default_equals_paper() {
        assert_eq!(ControllerConfig::default(), ControllerConfig::paper());
    }

    #[test]
    fn builders_update_fields() {
        let c = ControllerConfig::paper()
            .with_n_wd(8)
            .with_n_cap(4)
            .with_watermarks(10, 40);
        assert_eq!(c.n_wd, 8);
        assert_eq!(c.n_cap, 4);
        assert_eq!(c.w_low, 10);
        assert_eq!(c.w_high, 40);
        c.validate().expect("still valid");
    }

    #[test]
    fn validation_catches_errors() {
        assert!(ControllerConfig::paper().with_n_wd(0).validate().is_err());
        assert!(ControllerConfig::paper().with_n_cap(0).validate().is_err());
        assert!(ControllerConfig::paper()
            .with_watermarks(60, 55)
            .validate()
            .is_err());
        let mut c = ControllerConfig::paper();
        c.write_queue_capacity = 10; // < w_high = 55
        assert!(c.validate().is_err());
    }
}
