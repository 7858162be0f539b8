#include "tracer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace e2e {

const char*
LayerName(Layer layer)
{
    switch (layer) {
      case Layer::kBench:
        return "bench";
      case Layer::kApps:
        return "apps";
      case Layer::kCore:
        return "core";
      case Layer::kMining:
        return "core.mining";
      case Layer::kRuntime:
        return "runtime";
      case Layer::kPipeline:
        return "sim.pipeline";
      case Layer::kDigest:
        return "sim.digest";
      case Layer::kCheck:
        return "bench.check";
      case Layer::kSvc:
        return "svc";
      case Layer::kReapply:
        return "reapply.runtime";
      case Layer::kReapplyConsumer:
        return "reapply.consumer";
      case Layer::kReference:
        return "bench.reference";
      case Layer::kCount:
        break;
    }
    return "?";
}

void
Tracer::Begin(Layer layer, const char* name)
{
    Frame frame;
    frame.id = next_id_++;
    frame.parent = stack_.empty() ? 0 : stack_.back().id;
    frame.group = group_;
    frame.layer = layer;
    frame.name = name;
    frame.start = NowNs();
    frame.cover = CoverAccumulator(Interval{frame.start, INT64_MAX});
    stack_.push_back(frame);
}

std::int64_t
Tracer::End()
{
    const std::int64_t end = NowNs();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::int64_t self = (end - frame.start) - frame.cover.Covered();
    Close(Span{frame.id, frame.parent, frame.group, frame.layer, frame.name,
               frame.start, end},
          self);
    return self;
}

void
Tracer::Leaf(Layer layer, const char* name, std::int64_t start,
             std::int64_t end)
{
    const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
    Close(Span{next_id_++, parent, group_, layer, name, start, end},
          end - start);
}

void
Tracer::Close(const Span& span, std::int64_t self)
{
    if (!stack_.empty()) {
        stack_.back().cover.Add(Interval{span.start, span.end});
    }
    const auto at = static_cast<std::size_t>(span.layer);
    self_ns_[at] += self;
    if (kept_.size() < kMaxKeptSpans) {
        kept_.push_back(span);
    } else {
        ++dropped_;
    }
}

bool
Tracer::WriteChromeTrace(const std::string& path,
                         const std::string& metadata) const
{
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    std::int64_t origin = INT64_MAX;
    for (const Span& s : kept_) {
        origin = std::min(origin, s.start);
    }
    std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"otherData\": %s,\n"
                      " \"traceEvents\": [\n",
                 metadata.c_str());
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        const Span& s = kept_[i];
        std::fprintf(
            out,
            "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"id\": %" PRIu32 ", \"parent\": %" PRIu32
            ", \"group\": %" PRIu32 "}}%s\n",
            s.name, LayerName(s.layer),
            static_cast<double>(s.start - origin) / 1000.0,
            static_cast<double>(s.end - s.start) / 1000.0, s.id, s.parent,
            s.group, i + 1 < kept_.size() ? "," : "");
    }
    std::fprintf(out, " ]}\n");
    return std::fclose(out) == 0;
}

}  // namespace e2e
