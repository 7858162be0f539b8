#include "stats.h"

#include <algorithm>

namespace e2e {

double
Median(std::vector<double> samples)
{
    if (samples.empty()) {
        return 0.0;
    }
    const std::size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
    const double upper = samples[mid];
    if (samples.size() % 2 == 1) {
        return upper;
    }
    const double lower =
        *std::max_element(samples.begin(), samples.begin() + mid);
    return (lower + upper) / 2.0;
}

Tail
TailPercentile(std::vector<double> samples, std::size_t beyond)
{
    Tail tail;
    tail.samples = samples.size();
    if (samples.empty()) {
        return tail;
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    if (n <= beyond) {
        tail.value = samples.front();
        return tail;
    }
    tail.value = samples[n - 1 - beyond];
    tail.percentile = 100.0 * static_cast<double>(n - beyond) /
                      static_cast<double>(n);
    return tail;
}

void
CoverAccumulator::Add(Interval child)
{
    const std::int64_t start = std::max(child.start, bound_.start);
    const std::int64_t end = std::min(child.end, bound_.end);
    if (end <= start) {
        return;
    }
    if (start >= cover_end_) {
        covered_ += end - start;
        cover_end_ = end;
    } else if (end > cover_end_) {
        covered_ += end - cover_end_;
        cover_end_ = end;
    }
}

std::int64_t
SelfTime(Interval span, std::vector<Interval> children)
{
    std::sort(children.begin(), children.end(),
              [](const Interval& a, const Interval& b) {
                  return a.start < b.start;
              });
    CoverAccumulator cover(span);
    for (const Interval& child : children) {
        cover.Add(child);
    }
    return (span.end - span.start) - cover.Covered();
}

}  // namespace e2e
