//! Hit/traffic accounting.

/// Counters accumulated by the simulator over the measured part of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimMetrics {
    /// Requests measured (excludes warmup).
    pub requests: u64,
    /// Object (content) hits.
    pub hits: u64,
    /// Misses that were admitted into the cache.
    pub misses_admitted: u64,
    /// Misses bypassed by admission control.
    pub misses_bypassed: u64,
    /// Total bytes requested.
    pub bytes_requested: u128,
    /// Bytes served from cache.
    pub bytes_hit: u128,
    /// Requests that could not be served at all (origin failure with no
    /// cached fallback — only fault-injected serving paths produce these;
    /// plain simulation leaves the field 0).
    pub errors: u64,
    /// Trace-time duration of the measured interval, seconds.
    pub duration_secs: f64,
}

lhr_util::impl_json!(struct SimMetrics {
    requests,
    hits,
    misses_admitted,
    misses_bypassed,
    bytes_requested,
    bytes_hit,
    errors,
    duration_secs,
});

impl SimMetrics {
    /// Object hit probability — the paper's headline "content hit" metric.
    pub fn object_hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Byte hit probability.
    pub fn byte_hit_ratio(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            self.bytes_hit as f64 / self.bytes_requested as f64
        }
    }

    /// WAN bytes fetched from origin (every miss is an origin fetch whether
    /// or not the object is admitted). Saturates rather than panicking if
    /// hand-built metrics claim more bytes hit than requested.
    pub fn wan_bytes(&self) -> u128 {
        self.bytes_requested.saturating_sub(self.bytes_hit)
    }

    /// WAN traffic rate in Gbps over the measured interval (the paper's
    /// Figure 8 right-hand metric).
    pub fn wan_gbps(&self) -> f64 {
        if self.duration_secs <= 0.0 {
            0.0
        } else {
            self.wan_bytes() as f64 * 8.0 / 1e9 / self.duration_secs
        }
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses_admitted + self.misses_bypassed
    }

    /// Fraction of measured requests served successfully (1.0 when nothing
    /// was measured — an empty interval has no failures).
    pub fn availability(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            (self.requests - self.errors.min(self.requests)) as f64 / self.requests as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_wan() {
        let m = SimMetrics {
            requests: 10,
            hits: 4,
            misses_admitted: 5,
            misses_bypassed: 1,
            bytes_requested: 1_000,
            bytes_hit: 250,
            errors: 2,
            duration_secs: 2.0,
        };
        assert!((m.object_hit_ratio() - 0.4).abs() < 1e-12);
        assert!((m.byte_hit_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(m.wan_bytes(), 750);
        assert_eq!(m.misses(), 6);
        assert!((m.wan_gbps() - 750.0 * 8.0 / 1e9 / 2.0).abs() < 1e-15);
        assert!((m.availability() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn wan_bytes_saturates_instead_of_panicking() {
        let m = SimMetrics {
            bytes_requested: 100,
            bytes_hit: 250,
            duration_secs: 1.0,
            ..SimMetrics::default()
        };
        assert_eq!(m.wan_bytes(), 0);
        assert_eq!(m.wan_gbps(), 0.0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = SimMetrics::default();
        assert_eq!(m.object_hit_ratio(), 0.0);
        assert_eq!(m.byte_hit_ratio(), 0.0);
        assert_eq!(m.wan_gbps(), 0.0);
        // Vacuous availability: no measured requests, no failures.
        assert_eq!(m.availability(), 1.0);
    }
}
