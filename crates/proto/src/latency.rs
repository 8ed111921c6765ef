//! The latency/throughput model of §7.3: an ideal environment where the
//! edge link transmits at 8 Gbps and latency is driven by distance (RTTs)
//! and content size. Its four numbers are constants: every serving layer
//! charges the same ones.

/// User ↔ edge round-trip time in milliseconds.
pub const EDGE_RTT_MS: f64 = 10.0;
/// Edge ↔ origin round-trip time in milliseconds.
pub const ORIGIN_RTT_MS: f64 = 60.0;
/// Edge link rate in Gbps (the paper's 8 Gbps).
pub const EDGE_GBPS: f64 = 8.0;
/// Origin fetch rate in Gbps (WAN bottleneck on misses).
pub const ORIGIN_GBPS: f64 = 2.0;

/// User-perceived latency of a cache hit, in milliseconds:
/// RTT + transfer at the edge rate (+ per-request compute time).
pub fn hit_latency_ms(size: u64, compute_ms: f64) -> f64 {
    EDGE_RTT_MS + transfer_ms(size, EDGE_GBPS) + compute_ms
}

/// Latency of a revalidation that found the content unchanged: one
/// origin RTT on top of a hit.
pub fn revalidate_latency_ms(size: u64, compute_ms: f64) -> f64 {
    hit_latency_ms(size, compute_ms) + ORIGIN_RTT_MS
}

/// Latency of a miss: edge RTT + origin RTT + origin fetch + edge
/// transfer (fetch and delivery overlap is ignored, matching the paper's
/// "the larger the size, the slower the user receives the complete
/// content"), with the origin transferring at `rate_scale` of its nominal
/// rate (latency spikes and slow-start epochs; `1.0` is a healthy origin).
pub fn miss_latency_scaled_ms(size: u64, compute_ms: f64, rate_scale: f64) -> f64 {
    EDGE_RTT_MS + origin_fetch_ms(size, rate_scale) + transfer_ms(size, EDGE_GBPS) + compute_ms
}

/// How long an origin fetch occupies the WAN side: one origin RTT plus the
/// transfer at `rate_scale` of the nominal origin rate. This is the
/// in-flight window concurrent misses coalesce into.
pub fn origin_fetch_ms(size: u64, rate_scale: f64) -> f64 {
    ORIGIN_RTT_MS + transfer_ms(size, ORIGIN_GBPS * rate_scale.max(1e-6))
}

/// Latency of a request the serving path could not satisfy: the error
/// response itself is tiny, so only the edge RTT (plus compute) remains;
/// retry backoffs and timeouts are charged by the caller.
pub fn error_latency_ms(compute_ms: f64) -> f64 {
    EDGE_RTT_MS + compute_ms
}

/// Server-side occupancy of one request in milliseconds — the time the
/// serving path is busy with it. Throughput in the "max" experiment is
/// `total bytes / Σ service time`.
pub fn service_ms(size: u64, hit: bool, compute_ms: f64) -> f64 {
    let wire = if hit {
        transfer_ms(size, EDGE_GBPS)
    } else {
        transfer_ms(size, ORIGIN_GBPS)
    };
    wire + compute_ms
}

/// Milliseconds to move `size` bytes at `gbps`.
pub fn transfer_ms(size: u64, gbps: f64) -> f64 {
    (size as f64 * 8.0) / (gbps * 1e9) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly() {
        // 1 GB at 8 Gbps = 1 s.
        assert!((transfer_ms(1_000_000_000, 8.0) - 1_000.0).abs() < 1e-6);
        assert!((transfer_ms(500_000_000, 8.0) - 500.0).abs() < 1e-6);
    }

    #[test]
    fn miss_is_slower_than_hit() {
        let size = 25_000_000; // ~25 MB, the CDN-A mean
        assert!(miss_latency_scaled_ms(size, 0.0, 1.0) > hit_latency_ms(size, 0.0) + ORIGIN_RTT_MS);
    }

    #[test]
    fn compute_time_adds_to_latency() {
        let base = hit_latency_ms(1_000, 0.0);
        assert!((hit_latency_ms(1_000, 2.5) - base - 2.5).abs() < 1e-9);
    }

    #[test]
    fn hit_service_uses_edge_rate() {
        assert!(service_ms(1 << 20, true, 0.0) < service_ms(1 << 20, false, 0.0));
    }

    #[test]
    fn scaled_miss_latency_degrades_with_rate() {
        let size = 1 << 20;
        assert!(miss_latency_scaled_ms(size, 0.0, 0.1) > miss_latency_scaled_ms(size, 0.0, 1.0));
        // The in-flight window grows as the origin slows.
        assert!(origin_fetch_ms(size, 0.25) > origin_fetch_ms(size, 1.0));
        // Error responses cost no transfer.
        assert!((error_latency_ms(0.0) - EDGE_RTT_MS).abs() < 1e-9);
    }

    #[test]
    fn magnitudes_match_paper_scale() {
        // The paper's Table 2 reports overall average latencies around
        // 90–170 ms on traces with mean sizes 25–100 MB; one 25 MB hit plus
        // occasional misses lands in that range.
        let hit = hit_latency_ms(25_000_000, 0.0);
        assert!((30.0..60.0).contains(&hit), "hit latency {hit}");
        let miss = miss_latency_scaled_ms(25_000_000, 0.0, 1.0);
        assert!((150.0..300.0).contains(&miss), "miss latency {miss}");
    }
}
