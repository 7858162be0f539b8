/**
 * @file
 * In-memory spans for the traced run.
 *
 * The benchmark opens a span around every call it makes into a layer
 * of the library — iteration → Frontend call → executor job / log
 * consumer, svc Run → tenant Iteration, and the re-application pass's
 * runtime calls — from its own code; nothing inside src/ is touched.
 * Every span carries its parent's id and the id of the iteration (or
 * tenant grant) it belongs to. When a span closes, its self time (its
 * duration minus the union of its children, see stats.h) is added to
 * its layer's total, so the per-layer split covers every span even
 * when only the first kMaxKeptSpans are kept for the Chrome trace.
 *
 * One thread only: spans from library worker threads (the cluster's
 * node team) are not recorded; that time stays in the calling span.
 */
#ifndef E2EBENCH_TRACER_H
#define E2EBENCH_TRACER_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace e2e {

/** Monotonic nanoseconds (steady clock). */
inline std::int64_t NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The layers spans are attributed to. */
enum class Layer : std::uint8_t {
    kBench,     ///< the benchmark's own loop (root spans)
    kApps,      ///< application issue code: LaunchBuilder + token hash
    kCore,      ///< calls into the Frontend (Apophenia, or the cluster)
    kMining,    ///< mining jobs, wrapped by the benchmark's executor
    kRuntime,   ///< runtime calls made directly by the benchmark
    kPipeline,  ///< sim::PipelineSimulator::Consume
    kDigest,    ///< sim::StreamDigest + sim::TracedFlags consume
    kCheck,     ///< the benchmark's graph-digest consumer
    kSvc,       ///< svc::TraceService::Run
    kReapply,   ///< runtime calls of the re-application pass
    kReapplyConsumer,  ///< its digest consumer (excluded from runtime)
    kReference,  ///< untraced reference and calibration bursts (svc)
    kCount,
};

const char* LayerName(Layer layer);

/** See file comment. */
class Tracer {
  public:
    static constexpr std::size_t kMaxKeptSpans = 60000;

    /** Start a new group: spans opened from now on carry its id (one
     * group per application iteration / tenant grant). */
    void NextGroup() { ++group_; }

    /** Open a span as a child of the innermost open span. */
    void Begin(Layer layer, const char* name);

    /** Close the innermost span; returns its self time (ns). */
    std::int64_t End();

    /** Record an already-finished leaf span under the innermost open
     * span (the log consumers time their parts back to back). */
    void Leaf(Layer layer, const char* name, std::int64_t start,
              std::int64_t end);

    /** Accumulated self time of one layer (ns). */
    std::int64_t SelfNs(Layer layer) const
    {
        return self_ns_[static_cast<std::size_t>(layer)];
    }

    std::size_t KeptSpans() const { return kept_.size(); }
    std::uint64_t DroppedSpans() const { return dropped_; }

    /** Write the kept spans as Chrome-trace JSON ("X" events, µs),
     * with `metadata` (a JSON object body) under "otherData". */
    bool WriteChromeTrace(const std::string& path,
                          const std::string& metadata) const;

  private:
    struct Frame {
        std::uint32_t id = 0;
        std::uint32_t parent = 0;
        std::uint32_t group = 0;
        Layer layer = Layer::kBench;
        const char* name = "";
        std::int64_t start = 0;
        /** Union of the closed children; they all end before this
         * span does, so only the start bounds them. */
        CoverAccumulator cover{Interval{0, 0}};
    };

    struct Span {
        std::uint32_t id = 0;
        std::uint32_t parent = 0;
        std::uint32_t group = 0;
        Layer layer = Layer::kBench;
        const char* name = "";
        std::int64_t start = 0;
        std::int64_t end = 0;
    };

    void Close(const Span& span, std::int64_t self);

    std::vector<Frame> stack_;
    std::vector<Span> kept_;
    std::uint64_t dropped_ = 0;
    std::uint32_t next_id_ = 1;
    std::uint32_t group_ = 0;
    std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)>
        self_ns_{};
};

/** RAII span; a no-op when the tracer is null (the timed run). */
class ScopedSpan {
  public:
    ScopedSpan(Tracer* tracer, Layer layer, const char* name)
        : tracer_(tracer)
    {
        if (tracer_ != nullptr) {
            tracer_->Begin(layer, name);
        }
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr) {
            tracer_->End();
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    Tracer* tracer_;
};

}  // namespace e2e

#endif  // E2EBENCH_TRACER_H
