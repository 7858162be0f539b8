/**
 * @file
 * Per-finder steady-state mining engine: a rolling ring of recently
 * mined windows plus a persistent incremental miner.
 *
 * Steady-state applications (S3D, HTR, CFD iteration loops) re-issue
 * near-identical token streams for thousands of windows; whenever the
 * stream's period divides the analysis stride, the finder launches
 * window after window with *byte-identical* content. The shared
 * MiningCache already deduplicates that work across cluster nodes, but
 * every probe still pays a full content hash plus a block-span compare
 * — O(window) per job with a hash of every token. This engine sits in
 * front of it:
 *
 *  - **Probe** answers the rolling fast-path question — "is this
 *    window one of the last few windows this finder mined?" — with a
 *    Rabin-Karp-style rolling fingerprint over the window (the same
 *    HashCombine fold the cache keys use) against a small ring of
 *    fingerprints, followed by an exact token-for-token verification
 *    before any adoption (precisely the discipline core::MiningCache
 *    uses). A hit costs one fingerprint pass and one wide compare:
 *    zero suffix-array work, zero hash-table probes, zero slice
 *    materialization, zero allocations.
 *  - **Mine** serves ring misses through strings::IncrementalMiner,
 *    which repairs the previous window's suffix structures instead of
 *    rebuilding (see strings/incremental.h), then memoizes the result
 *    in the ring. Ring entries carry the winning repeat's period, so
 *    the ring is seeded exactly by the previous windows' winning
 *    periodic structures.
 *
 * Bit-identity: adoption only ever follows verified window equality,
 * and mining runs algorithms that are pure functions of (window,
 * config) — so with the engine on or off, every job's candidate set
 * is byte-identical. Thread-safe: workers of one finder may race;
 * every operation holds the engine mutex.
 */
#ifndef APOPHENIA_CORE_STEADY_MINER_H
#define APOPHENIA_CORE_STEADY_MINER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/finder.h"
#include "core/history.h"
#include "fault/checkpoint.h"
#include "runtime/task.h"
#include "strings/incremental.h"

namespace apo::core {

/** See file comment. */
class SteadyStateMiner {
  public:
    explicit SteadyStateMiner(const ApopheniaConfig& config);

    /** Monotone counters (Probe/Mine outcomes). */
    struct Stats {
        std::uint64_t probes = 0;
        std::uint64_t fast_path_hits = 0;  ///< verified ring hits
        std::uint64_t repairs = 0;         ///< incremental structure reuse
        std::uint64_t full_rebuilds = 0;
        std::uint64_t memoized = 0;  ///< results adopted into the ring
    };

    /**
     * Rolling fast path: fingerprint the window, match it against the
     * ring, verify token-for-token, and return the memoized candidate
     * set — or nullptr on a miss. Performs no heap allocation.
     */
    std::shared_ptr<const std::vector<CandidateTrace>> Probe(
        const HistorySnapshot& snapshot);

    /**
     * Mine `slice` through the incremental tiers (bit-identical to
     * MineSlice(slice, config)), memoize the result in the ring, and
     * report the tier that served it (kRepair / kFull) via `path`.
     */
    std::shared_ptr<const std::vector<CandidateTrace>> Mine(
        const std::vector<rt::TokenHash>& slice, MiningPath* path);

    /**
     * Adopt an externally produced result (a shared-cache hit) into
     * the ring so the *next* identical window takes the fast path
     * without even probing the cache. Sound for the same reason cache
     * adoption is: the result is a pure function of a window that was
     * verified equal.
     */
    void Memoize(const HistorySnapshot& snapshot,
                 std::shared_ptr<const std::vector<CandidateTrace>> results);
    void Memoize(std::span<const rt::TokenHash> slice,
                 std::shared_ptr<const std::vector<CandidateTrace>> results);

    Stats Snapshot() const;

    /** Dominant periods of the ring's memoized windows (0 = unknown),
     * in ring order. Introspection for tests. */
    std::vector<std::size_t> RingPeriods() const;

    /** Checkpoint hooks: the memoized ring (fingerprints, windows,
     * candidate sets, periods) plus the stats counters. The
     * incremental miner's suffix structures restart cold — mining is
     * a pure function of (window, config), so every restored result
     * stays bit-identical; only the repair-vs-rebuild tier counters
     * can differ after a restore. */
    void SaveState(fault::CheckpointWriter& writer) const;
    void LoadState(fault::CheckpointReader& reader);

  private:
    struct Entry {
        bool valid = false;
        std::uint64_t fingerprint = 0;
        std::vector<rt::TokenHash> window;
        std::shared_ptr<const std::vector<CandidateTrace>> results;
        /** Spacing of the winning repeat's first two occurrences —
         * the window's dominant period (0 = none/unknown). */
        std::size_t period = 0;
    };

    /** Ring lookup under `mutex_`; `equals(entry)` must verify exact
     * window equality. */
    template <typename VerifyEquals>
    std::shared_ptr<const std::vector<CandidateTrace>> ProbeLocked(
        std::uint64_t fingerprint, std::size_t length,
        const VerifyEquals& equals);

    /** Install (fingerprint, window, results) into the ring slot for
     * this window shape (same-length entry if present, else FIFO). */
    Entry& SlotFor(std::size_t length);

    const ApopheniaConfig* config_;
    mutable std::mutex mutex_;
    strings::IncrementalMiner miner_;
    std::vector<Entry> ring_;
    std::size_t next_slot_ = 0;
    Stats stats_;
};

}  // namespace apo::core

#endif  // APOPHENIA_CORE_STEADY_MINER_H
