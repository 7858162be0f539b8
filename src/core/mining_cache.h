/**
 * @file
 * Content-addressed shared mining cache for control-replicated runs.
 *
 * Under control replication every node feeds the *same* task stream to
 * its own trace finder, so every node launches a mining job over a
 * byte-identical history window at the same stream position — and the
 * dominant cost of the whole cluster (repeat mining) is paid N times
 * for one answer. This cache deduplicates that work: a completed
 * `AnalysisJob`'s candidate set is memoized under a content address of
 * the mined slice, and any node about to mine an identical window
 * adopts the published result in place instead.
 *
 * Correctness rests on two facts:
 *  - `MineSlice` is a pure function of (slice, config), so adoption is
 *    bit-identical to local mining — replicated decisions (and the
 *    stream digests) are unchanged whether the cache is on or off;
 *  - hits are *detected*, never assumed: the probe key is the window's
 *    own rolling content hash plus its length, and before a result is
 *    adopted the stored window is compared token-for-token against
 *    the prober's — a (vanishingly rare) 64-bit hash collision
 *    degrades to mining locally, never to adopting a wrong result.
 *
 * Probing and verification walk the probe's zero-copy
 * `HistorySnapshot` block spans directly, so a cache hit never
 * materializes the window at all — the adopter skips both the O(slice)
 * copy and the mining.
 *
 * Resident memory is bounded: at most `max_windows` published entries
 * are retained (evicted per `kEvictionPolicy` — the one authoritative
 * statement of the policy; a re-probed evicted window is simply
 * re-mined), and adopted candidate sets are shared_ptr-owned so an
 * in-flight job survives the eviction of its entry. The cache
 * therefore composes with the streaming-retire log mode's
 * bounded-memory guarantee on unbounded streams.
 *
 * The cache is also the cross-thread rendezvous of the parallel
 * cluster engine: when two nodes race to the same window, the first
 * becomes the miner and the second *blocks* until the result is
 * published (mining it twice would be no faster — the wait costs at
 * most one mining latency and keeps the every-window-mined-once
 * invariant at any thread count). A waiter never holds an in-progress
 * entry of its own, so the wait graph has no cycles.
 */
#ifndef APOPHENIA_CORE_MINING_CACHE_H
#define APOPHENIA_CORE_MINING_CACHE_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/finder.h"
#include "core/history.h"
#include "fault/checkpoint.h"
#include "runtime/task.h"
#include "support/hash.h"

namespace apo::core {

/** See file comment. Thread-safe; shared by all nodes of a cluster. */
class MiningCache {
  public:
    /**
     * The eviction policy, stated once (every other mention — here,
     * the cluster/service option comments, bench records — refers to
     * this constant): **publication-order FIFO**. Published entries
     * are dropped oldest-published-first when the retention bound is
     * exceeded; recency of *probes* never reorders the queue (unlike
     * the runtime TraceCache's LRU), because a steady replicated
     * stream re-probes windows in rough publication order anyway and
     * FIFO keeps eviction O(1) under the cache mutex. In-progress
     * (unpublished) entries are never evicted. Evictions surface as
     * Stats::evictions and, through the harness, as
     * `ExperimentResult::mining_cache_evictions`.
     */
    static constexpr std::string_view kEvictionPolicy =
        "publication-order FIFO";

    /** @param max_windows retained published entries (kEvictionPolicy
     * applies beyond it); 0 = unbounded. */
    explicit MiningCache(std::size_t max_windows = 1024)
        : max_windows_(max_windows)
    {
    }

    /** Content address of a window: the same incremental HashCombine
     * fold the stream digests use, over the window's tokens, plus the
     * length as a cheap first-stage check. The fold runs over the
     * *namespace-relative* tokens (token ^ name_space, see
     * rt::FoldNamespace), so two tenants issuing the same kernel
     * under different token namespaces address the same entry —
     * identical work is mined once service-wide. Namespace 0 (every
     * pre-tenancy caller) folds the tokens as-is. */
    struct Key {
        std::uint64_t hash = 0;
        std::size_t length = 0;

        friend bool operator==(const Key&, const Key&) = default;
    };

    static Key KeyOf(std::span<const rt::TokenHash> slice,
                     rt::TokenHash name_space = 0);
    /** Same fold, walked over the snapshot's block spans (no copy). */
    static Key KeyOf(const HistorySnapshot& snapshot,
                     rt::TokenHash name_space = 0);

    /** The outcome of a probe. */
    struct Claim {
        /** Non-null: a verified hit — adopt this candidate set (the
         * shared ownership survives eviction of the entry). The
         * tokens are namespace-relative; an adopter with a nonzero
         * namespace re-keys them via Rekey(). */
        std::shared_ptr<const std::vector<CandidateTrace>> results;
        /** True: the caller is the window's miner and MUST follow with
         * Publish() (or Abandon() on failure) before probing any
         * other key. When both fields are empty the key collided with
         * a different window: mine locally, do not publish. */
        bool miner = false;
        /** On a hit: the publisher's token namespace. A hit whose
         * publisher namespace differs from the prober's is a
         * cross-tenant hit — one tenant adopted another's mining. */
        rt::TokenHash owner = 0;
    };

    /**
     * Probe the cache with the window's content. A published entry
     * whose stored (namespace-relative) window matches returns its
     * candidate set (a hit). An in-progress entry blocks until the
     * miner publishes or abandons. An absent entry registers the
     * caller as its miner. `name_space` is the prober's token
     * namespace; verification compares the de-namespaced probe
     * tokens against the entry, so hits stay detected, never assumed,
     * across tenants.
     */
    Claim AcquireOrBegin(const Key& key, const HistorySnapshot& snapshot,
                         rt::TokenHash name_space = 0);

    /** Publish the mining result for a key this caller began; stores
     * the window and candidates in namespace-relative form (for hit
     * verification and cross-tenant adoption) and returns the
     * now-immutable shared candidate set so a namespace-0 miner
     * reads it in place like every adopter. (A nonzero-namespace
     * miner keeps its own salted results; the returned set is
     * namespace-relative.) May evict the oldest entries. */
    std::shared_ptr<const std::vector<CandidateTrace>> Publish(
        const Key& key, std::span<const rt::TokenHash> window,
        std::vector<CandidateTrace> results,
        rt::TokenHash name_space = 0);

    /** Publish an already-shared candidate set (the incremental
     * engine's miners own their results as shared_ptrs); with
     * namespace 0 stores the same pointer — no copy of the
     * candidates. */
    std::shared_ptr<const std::vector<CandidateTrace>> Publish(
        const Key& key, std::span<const rt::TokenHash> window,
        std::shared_ptr<const std::vector<CandidateTrace>> results,
        rt::TokenHash name_space = 0);

    /** Give up on a key this caller began (mining threw): waiters are
     * released and the next prober becomes the miner. */
    void Abandon(const Key& key);

    /** Re-key a candidate set into (or out of — XOR is its own
     * inverse) a token namespace: every token is folded with the
     * namespace salt, occurrences are preserved. Identity for
     * namespace 0. */
    static std::vector<CandidateTrace> Rekey(
        const std::vector<CandidateTrace>& candidates,
        rt::TokenHash name_space);

    /** Aggregate counters: every probe is a hit (result adopted,
     * possibly after waiting for the miner) or a miss (the caller
     * mined). `windows` counts mining runs that published — with no
     * eviction pressure and no collisions, misses == windows ⇔ each
     * distinct window was mined exactly once. `cross_namespace_hits`
     * counts hits whose publisher's token namespace differed from
     * the prober's (one tenant adopting another tenant's mining);
     * `evictions` counts entries dropped to the retention bound. */
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::size_t windows = 0;
        std::uint64_t cross_namespace_hits = 0;
        std::uint64_t evictions = 0;
    };

    Stats Snapshot() const;

    /** Currently retained published + in-progress entries. */
    std::size_t Size() const;

    // -- Overload control (serving support) ---------------------------------

    /** Resident bytes of the retained entries (stored window tokens
     * plus candidate-set tokens, 8 bytes each), maintained
     * incrementally — the service health monitor's memory-pressure
     * input. */
    std::size_t ResidentBytes() const;

    /** Pressure eviction: drop the oldest-published entries (the same
     * FIFO order as kEvictionPolicy) until ResidentBytes() is at most
     * `target_bytes`. An evicted window that recurs is re-mined;
     * in-flight adopters keep their shared_ptr. Counted in
     * Stats::evictions. Returns the number of entries evicted. */
    std::size_t EvictToResidentBytes(std::size_t target_bytes);

    /** Watchdog escape hatch: erase every in-progress (unpublished)
     * entry and wake all waiters blocked on them, so a stuck miner
     * can never hang the rendezvous forever. Each released waiter
     * re-probes and becomes the window's miner itself; the abandoned
     * miner's eventual late Publish onto a key that was since
     * republished is tolerated and dropped (first publication wins).
     * Returns the number of entries abandoned. */
    std::size_t AbandonInProgress();

    /** Checkpoint hooks: counters plus every retained published entry
     * in publication (FIFO) order. Every entry must be published —
     * in-progress entries mean a miner is mid-window and the cache is
     * not quiescent; throws fault::CheckpointError. LoadState
     * restores onto a fresh (empty) cache. */
    void SaveState(fault::CheckpointWriter& writer) const;
    void LoadState(fault::CheckpointReader& reader);

  private:
    struct Entry {
        bool ready = false;
        /** The mined window itself (namespace-relative tokens), for
         * exact hit verification. */
        std::vector<rt::TokenHash> window;
        std::shared_ptr<const std::vector<CandidateTrace>> results;
        /** Token namespace of the publisher (cross-tenant hit
         * attribution). */
        rt::TokenHash owner = 0;
    };

    struct KeyHasher {
        std::size_t operator()(const Key& key) const
        {
            return static_cast<std::size_t>(
                support::HashCombine(key.hash, key.length));
        }
    };

    /** The generic probe loop; Matches compares the prober's
     * (de-namespaced) window against an entry's stored tokens. */
    template <typename MatchesEntry>
    Claim Probe(const Key& key, rt::TokenHash name_space,
                const MatchesEntry& matches);

    /** Bytes an entry contributes to resident_bytes_. */
    static std::size_t EntryBytes(const Entry& entry);

    mutable std::mutex mutex_;
    std::condition_variable published_;
    std::unordered_map<Key, Entry, KeyHasher> entries_;
    /** Publication order of retained entries (the FIFO eviction
     * queue); in-progress entries are not in it and are never
     * evicted. */
    std::deque<Key> retained_;
    std::size_t max_windows_;
    std::size_t resident_bytes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t windows_published_ = 0;
    std::uint64_t cross_namespace_hits_ = 0;
    std::uint64_t evictions_ = 0;
};

}  // namespace apo::core

#endif  // APOPHENIA_CORE_MINING_CACHE_H
