#!/usr/bin/env bash
# Regenerates the checked-in digests of the canonical serve-layer
# determinism sweep and the canonical observed export
# (tests/golden/serve_golden.hpp).
#
# Run this ONLY after an intentional serve-layer behavior change, and
# review the canonical text diff first:
#
#   GOLDEN_PRINT=1 ./build/test_determinism_golden   # inspect the text
#   tools/regen_determinism_golden.sh [build-dir]    # rewrite the digests
#
# A hash that moved without an intentional change is a determinism
# regression — fix the regression, do not regenerate over it.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo/build}"
header="$repo/tests/golden/serve_golden.hpp"

cmake --build "$build_dir" --target test_determinism_golden -j >/dev/null

sweep_hash="$(GOLDEN_PRINT=1 "$build_dir/test_determinism_golden" \
          --gtest_filter='DeterminismGolden.CanonicalSweepMatchesCheckedInDigest' \
          --gtest_brief=1 | sed -n 's/^SHA256 //p')"
observe_hash="$(GOLDEN_PRINT=1 "$build_dir/test_determinism_golden" \
          --gtest_filter='DeterminismGolden.CanonicalObservedExportMatchesCheckedInDigest' \
          --gtest_brief=1 | sed -n 's/^SHA256-OBSERVE //p')"
cache_hash="$(GOLDEN_PRINT=1 "$build_dir/test_determinism_golden" \
          --gtest_filter='DeterminismGolden.CanonicalCacheSweepMatchesCheckedInDigest' \
          --gtest_brief=1 | sed -n 's/^SHA256-CACHE //p')"
disagg_hash="$(GOLDEN_PRINT=1 "$build_dir/test_determinism_golden" \
          --gtest_filter='DeterminismGolden.CanonicalDisaggSweepMatchesCheckedInDigest' \
          --gtest_brief=1 | sed -n 's/^SHA256-DISAGG //p')"
contended_hash="$(GOLDEN_PRINT=1 "$build_dir/test_determinism_golden" \
          --gtest_filter='DeterminismGolden.ContendedDisaggMatchesCheckedInDigest' \
          --gtest_brief=1 | sed -n 's/^SHA256-CONTENDED //p')"
for hash in "$sweep_hash" "$observe_hash" "$cache_hash" "$disagg_hash" \
    "$contended_hash"; do
  if [[ ! "$hash" =~ ^[0-9a-f]{64}$ ]]; then
    echo "error: could not extract a SHA-256 from the golden test output" >&2
    exit 1
  fi
done

cat > "$header" <<EOF
// Checked-in SHA-256 digests of the canonical serve-layer determinism
// sweep and the canonical observed export. Regenerate with
// tools/regen_determinism_golden.sh after an *intentional* serve-layer
// behavior change — never to paper over an unexplained diff (that diff
// IS the determinism regression the fixture exists to catch).
#pragma once

namespace looplynx::golden {

inline constexpr char kServeSweepSha256[] =
    "$sweep_hash";

/// Canonical Chrome-trace + Prometheus exports of two observed sweep
/// points; pins every byte both exporters emit (DESIGN.md §7).
inline constexpr char kObserveExportSha256[] =
    "$observe_hash";

/// Canonical prefix-cache sweep (multi-turn chat traffic through the
/// content-addressed cache, eviction tiers included); pins the cache
/// counters and every request's cached-prefix split (DESIGN.md §8).
inline constexpr char kCacheSweepSha256[] =
    "$cache_hash";

/// Canonical disaggregated prefill/decode sweep (role splits with KV
/// migration and work stealing over the ring fabric, plus a per-tier
/// autoscaled point); pins the migration counters, fabric byte totals,
/// every request's migrated/stolen split, the per-tier live stats and
/// the tier-tagged scale log (DESIGN.md §10–§11).
inline constexpr char kDisaggSweepSha256[] =
    "$disagg_hash";

/// Canonical contended disaggregated point (4 prefill + 4 decode, JSQ
/// with steals, a one-byte-per-cycle KV link): most KV moves share a link
/// with another in flight, so it pins the fabric's cut-and-step path
/// (DESIGN.md §9, "Fabric trains").
inline constexpr char kContendedDisaggSha256[] =
    "$contended_hash";

}  // namespace looplynx::golden
EOF

echo "wrote $header"
echo "sweep   $sweep_hash"
echo "observe $observe_hash"
echo "cache   $cache_hash"
echo "disagg  $disagg_hash"
echo "contended $contended_hash"
