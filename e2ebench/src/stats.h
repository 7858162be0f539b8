/**
 * @file
 * The benchmark's own arithmetic: sample summaries and span self time.
 *
 * Kept free of the library so the rules the record states are unit
 * tested on their own (tests/e2ebench_test.cc):
 *
 *  - the tail of a sample set is the highest percentile that still has
 *    at least ten samples beyond it — the (beyond+1)-th largest sample;
 *  - a span's self time is its duration minus the part of its interval
 *    that the union of its children covers (children may overlap).
 */
#ifndef E2EBENCH_STATS_H
#define E2EBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

/** Median (mean of the two middle values for an even count); 0 for an
 * empty set. */
double Median(std::vector<double> samples);

/** A tail reading: the value, the percentile it sits at, and the
 * sample count it was taken over. */
struct Tail {
    double value = 0.0;
    /** 100 × (n − beyond) / n: the share of samples at or below. */
    double percentile = 0.0;
    std::size_t samples = 0;
};

/** The highest percentile of `samples` with at least `beyond` samples
 * above it, i.e. the (beyond+1)-th largest sample. With `beyond` or
 * fewer samples no such percentile exists and the reading is the
 * minimum at percentile 0. */
Tail TailPercentile(std::vector<double> samples, std::size_t beyond = 10);

/** A half-open time interval [start, end) in nanoseconds. */
struct Interval {
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/**
 * Length of the union of intervals fed in nondecreasing start order,
 * clipped to a bounding interval. The online form the tracer uses:
 * children of a span on one thread complete in start order.
 */
class CoverAccumulator {
  public:
    explicit CoverAccumulator(Interval bound) : bound_(bound) {}

    /** Add one interval; `start` must not precede an earlier one's. */
    void Add(Interval child);

    std::int64_t Covered() const { return covered_; }

  private:
    Interval bound_;
    std::int64_t cover_end_ = INT64_MIN;
    std::int64_t covered_ = 0;
};

/** Self time of `span`: its length minus the union of `children`
 * (any order, possibly overlapping, clipped to the span). */
std::int64_t SelfTime(Interval span, std::vector<Interval> children);

}  // namespace e2e

#endif  // E2EBENCH_STATS_H
