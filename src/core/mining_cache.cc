#include "core/mining_cache.h"

#include <algorithm>

namespace apo::core {

namespace {

constexpr std::uint64_t kKeySeed = 0x9e3779b97f4a7c15ULL;

/** Token-for-token comparison of a snapshot against a stored window,
 * with the prober's tokens folded out of their namespace first. */
bool
SpansMatch(const HistorySnapshot& snapshot, rt::TokenHash name_space,
           const std::vector<rt::TokenHash>& window)
{
    if (snapshot.Size() != window.size()) {
        return false;
    }
    std::size_t at = 0;
    for (const HistorySnapshot::Span& span : snapshot.Spans()) {
        for (std::size_t i = 0; i < span.length; ++i) {
            if (rt::FoldNamespace(name_space, span.data[i]) !=
                window[at + i]) {
                return false;
            }
        }
        at += span.length;
    }
    return true;
}

}  // namespace

MiningCache::Key
MiningCache::KeyOf(std::span<const rt::TokenHash> slice,
                   rt::TokenHash name_space)
{
    std::uint64_t h = kKeySeed;
    for (const rt::TokenHash token : slice) {
        h = support::HashCombine(h, rt::FoldNamespace(name_space, token));
    }
    return Key{h, slice.size()};
}

MiningCache::Key
MiningCache::KeyOf(const HistorySnapshot& snapshot,
                   rt::TokenHash name_space)
{
    std::uint64_t h = kKeySeed;
    for (const HistorySnapshot::Span& span : snapshot.Spans()) {
        for (std::size_t i = 0; i < span.length; ++i) {
            h = support::HashCombine(
                h, rt::FoldNamespace(name_space, span.data[i]));
        }
    }
    return Key{h, snapshot.Size()};
}

template <typename MatchesEntry>
MiningCache::Claim
MiningCache::Probe(const Key& key, rt::TokenHash name_space,
                   const MatchesEntry& matches)
{
    std::unique_lock lock(mutex_);
    for (;;) {
        auto [it, inserted] = entries_.try_emplace(key);
        if (inserted) {
            ++misses_;
            it->second.owner = name_space;
            return Claim{nullptr, true, name_space};  // caller mines
        }
        if (it->second.ready) {
            // Detected, never assumed: adopt only a token-for-token
            // identical window. A 64-bit collision (different window,
            // same key) degrades to local mining without publishing —
            // the entry's owner keeps the slot.
            if (!matches(it->second)) {
                ++misses_;
                return Claim{nullptr, false, name_space};
            }
            ++hits_;
            if (it->second.owner != name_space) {
                ++cross_namespace_hits_;
            }
            return Claim{it->second.results, false, it->second.owner};
        }
        // Another node is mining this very window: adopt its result
        // when it lands instead of paying the mining cost twice.
        published_.wait(lock);
    }
}

MiningCache::Claim
MiningCache::AcquireOrBegin(const Key& key, const HistorySnapshot& snapshot,
                            rt::TokenHash name_space)
{
    return Probe(key, name_space, [&](const Entry& entry) {
        return SpansMatch(snapshot, name_space, entry.window);
    });
}

std::vector<CandidateTrace>
MiningCache::Rekey(const std::vector<CandidateTrace>& candidates,
                   rt::TokenHash name_space)
{
    std::vector<CandidateTrace> out;
    out.reserve(candidates.size());
    for (const CandidateTrace& candidate : candidates) {
        CandidateTrace rekeyed;
        rekeyed.occurrences = candidate.occurrences;
        rekeyed.tokens.reserve(candidate.tokens.size());
        for (const rt::TokenHash token : candidate.tokens) {
            rekeyed.tokens.push_back(
                rt::FoldNamespace(name_space, token));
        }
        out.push_back(std::move(rekeyed));
    }
    return out;
}

std::shared_ptr<const std::vector<CandidateTrace>>
MiningCache::Publish(const Key& key,
                     std::span<const rt::TokenHash> window,
                     std::vector<CandidateTrace> results,
                     rt::TokenHash name_space)
{
    return Publish(key, window,
                   std::make_shared<const std::vector<CandidateTrace>>(
                       std::move(results)),
                   name_space);
}

std::shared_ptr<const std::vector<CandidateTrace>>
MiningCache::Publish(
    const Key& key, std::span<const rt::TokenHash> window,
    std::shared_ptr<const std::vector<CandidateTrace>> results,
    rt::TokenHash name_space)
{
    // The entry is stored namespace-relative so any tenant can verify
    // and adopt it. Namespace 0 (every pre-tenancy caller) keeps the
    // zero-copy path: the published pointer is stored as-is.
    std::shared_ptr<const std::vector<CandidateTrace>> stored =
        name_space == 0
            ? std::move(results)
            : std::make_shared<const std::vector<CandidateTrace>>(
                  Rekey(*results, name_space));
    {
        std::lock_guard lock(mutex_);
        Entry& entry = entries_[key];
        if (entry.ready) {
            // Late publish: the watchdog abandoned this key while its
            // miner was stuck, a released waiter re-mined the window
            // and republished it first. Mining is a pure function of
            // the window, so the slot already holds the same answer —
            // keep it (first publication wins, the FIFO queue stays
            // duplicate-free).
            return stored;
        }
        entry.window.resize(window.size());
        for (std::size_t i = 0; i < window.size(); ++i) {
            entry.window[i] = rt::FoldNamespace(name_space, window[i]);
        }
        entry.results = stored;
        entry.ready = true;
        entry.owner = name_space;
        ++windows_published_;
        resident_bytes_ += EntryBytes(entry);
        retained_.push_back(key);
        // Bounded retention: evict the oldest published entries. An
        // evicted window that recurs is simply re-mined; in-flight
        // adopters keep their shared_ptr alive independently.
        while (max_windows_ != 0 && retained_.size() > max_windows_) {
            auto oldest = entries_.find(retained_.front());
            if (oldest != entries_.end()) {
                resident_bytes_ -= EntryBytes(oldest->second);
                entries_.erase(oldest);
            }
            retained_.pop_front();
            ++evictions_;
        }
    }
    published_.notify_all();
    return stored;
}

void
MiningCache::Abandon(const Key& key)
{
    {
        std::lock_guard lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end() && !it->second.ready) {
            entries_.erase(it);
        }
    }
    published_.notify_all();
}

MiningCache::Stats
MiningCache::Snapshot() const
{
    std::lock_guard lock(mutex_);
    return Stats{hits_, misses_,
                 static_cast<std::size_t>(windows_published_),
                 cross_namespace_hits_, evictions_};
}

std::size_t
MiningCache::Size() const
{
    std::lock_guard lock(mutex_);
    return entries_.size();
}

std::size_t
MiningCache::EntryBytes(const Entry& entry)
{
    std::size_t tokens = entry.window.size();
    if (entry.results != nullptr) {
        for (const CandidateTrace& candidate : *entry.results) {
            tokens += candidate.tokens.size();
        }
    }
    return tokens * sizeof(rt::TokenHash);
}

std::size_t
MiningCache::ResidentBytes() const
{
    std::lock_guard lock(mutex_);
    return resident_bytes_;
}

std::size_t
MiningCache::EvictToResidentBytes(std::size_t target_bytes)
{
    std::lock_guard lock(mutex_);
    std::size_t evicted = 0;
    while (resident_bytes_ > target_bytes && !retained_.empty()) {
        auto oldest = entries_.find(retained_.front());
        if (oldest != entries_.end()) {
            resident_bytes_ -= EntryBytes(oldest->second);
            entries_.erase(oldest);
        }
        retained_.pop_front();
        ++evictions_;
        ++evicted;
    }
    return evicted;
}

std::size_t
MiningCache::AbandonInProgress()
{
    std::size_t abandoned = 0;
    {
        std::lock_guard lock(mutex_);
        abandoned = std::erase_if(entries_, [](const auto& keyed) {
            return !keyed.second.ready;
        });
    }
    if (abandoned > 0) {
        published_.notify_all();
    }
    return abandoned;
}

void
MiningCache::SaveState(fault::CheckpointWriter& writer) const
{
    std::lock_guard lock(mutex_);
    if (entries_.size() != retained_.size()) {
        throw fault::CheckpointError(
            "MiningCache::SaveState requires a quiescent cache (a "
            "miner holds an in-progress entry)");
    }
    writer.BeginSection(fault::SectionTag::kMiningCache);
    writer.U64(hits_);
    writer.U64(misses_);
    writer.U64(windows_published_);
    writer.U64(cross_namespace_hits_);
    writer.U64(evictions_);
    writer.U64(retained_.size());
    for (const Key& key : retained_) {
        const Entry& entry = entries_.at(key);
        writer.U64(key.hash);
        writer.U64(key.length);
        writer.U64(entry.owner);
        writer.VecU64(entry.window);
        SaveCandidates(writer, entry.results != nullptr
                                   ? *entry.results
                                   : std::vector<CandidateTrace>{});
    }
    writer.EndSection();
}

void
MiningCache::LoadState(fault::CheckpointReader& reader)
{
    std::lock_guard lock(mutex_);
    if (!entries_.empty()) {
        throw fault::CheckpointError(
            "MiningCache::LoadState requires a fresh cache");
    }
    reader.BeginSection(fault::SectionTag::kMiningCache);
    hits_ = reader.U64();
    misses_ = reader.U64();
    windows_published_ = reader.U64();
    cross_namespace_hits_ = reader.U64();
    evictions_ = reader.U64();
    const std::uint64_t count = reader.U64();
    for (std::uint64_t i = 0; i < count; ++i) {
        Key key;
        key.hash = reader.U64();
        key.length = static_cast<std::size_t>(reader.U64());
        Entry& entry = entries_[key];
        entry.owner = reader.U64();
        entry.window = reader.VecU64();
        entry.results = std::make_shared<const std::vector<CandidateTrace>>(
            LoadCandidates(reader));
        entry.ready = true;
        resident_bytes_ += EntryBytes(entry);
        retained_.push_back(key);
    }
    reader.EndSection();
}

}  // namespace apo::core
