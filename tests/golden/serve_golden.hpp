// Checked-in SHA-256 digests of the canonical serve-layer determinism
// sweep and the canonical observed export. Regenerate with
// tools/regen_determinism_golden.sh after an *intentional* serve-layer
// behavior change — never to paper over an unexplained diff (that diff
// IS the determinism regression the fixture exists to catch).
#pragma once

namespace looplynx::golden {

inline constexpr char kServeSweepSha256[] =
    "e6d888337ecbc25a4b9cd1e2c31aada83c74e81e38e14c4a687d3512aef1b223";

/// Canonical Chrome-trace + Prometheus exports of two observed sweep
/// points; pins every byte both exporters emit (DESIGN.md §7).
inline constexpr char kObserveExportSha256[] =
    "ab758665507bb3d07ce56bd8bab72d4630a1727f2e3704aba549957f1f95d018";

/// Canonical prefix-cache sweep (multi-turn chat traffic through the
/// content-addressed cache, eviction tiers included); pins the cache
/// counters and every request's cached-prefix split (DESIGN.md §8).
inline constexpr char kCacheSweepSha256[] =
    "498fac134bc82c0884650258975af8757c177dc930a127a7a21ec2b1894fa32a";

/// Canonical disaggregated prefill/decode sweep (role splits with KV
/// migration and work stealing over the ring fabric, plus a per-tier
/// autoscaled point); pins the migration counters, fabric byte totals,
/// every request's migrated/stolen split, the per-tier live stats and
/// the tier-tagged scale log (DESIGN.md §10–§11).
inline constexpr char kDisaggSweepSha256[] =
    "552c06928ed3122a2f1a271f0f604dd5bc6975898a33fdf5ce918fdbf909067d";

}  // namespace looplynx::golden
