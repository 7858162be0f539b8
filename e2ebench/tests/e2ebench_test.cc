/**
 * @file
 * Tests of the benchmark's own arithmetic: the tail-percentile rule,
 * span self time, the graph-digest check, and the gated costs in
 * calibration-kernel units.
 */
#include <gtest/gtest.h>

#include <vector>

#include "calibration.h"
#include "graph_digest.h"
#include "runtime/runtime.h"
#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace e2e;

std::vector<double>
OneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) {  // unsorted on purpose
        v.push_back(i);
    }
    return v;
}

TEST(TailPercentile, IsTheEleventhLargestWithTenBeyond)
{
    const Tail tail = TailPercentile(OneTo(100));
    EXPECT_EQ(tail.value, 90.0);  // 91..100 are the ten beyond it
    EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
    EXPECT_EQ(tail.samples, 100u);

    const Tail big = TailPercentile(OneTo(1000));
    EXPECT_EQ(big.value, 990.0);
    EXPECT_DOUBLE_EQ(big.percentile, 99.0);
}

TEST(TailPercentile, ExactlyTenSamplesBeyond)
{
    const std::vector<double> samples = OneTo(37);
    const Tail tail = TailPercentile(samples);
    int beyond = 0;
    for (const double s : samples) {
        beyond += s > tail.value ? 1 : 0;
    }
    EXPECT_EQ(beyond, 10);
    EXPECT_DOUBLE_EQ(tail.percentile, 100.0 * 27.0 / 37.0);
}

TEST(TailPercentile, TooFewSamplesFallsBackToTheMinimum)
{
    const Tail tail = TailPercentile(OneTo(10));
    EXPECT_EQ(tail.value, 1.0);
    EXPECT_EQ(tail.percentile, 0.0);
    EXPECT_EQ(TailPercentile({}).samples, 0u);
}

TEST(TailPercentile, CustomBeyondCount)
{
    EXPECT_EQ(TailPercentile(OneTo(10), 2).value, 8.0);
}

TEST(Median, OddEvenEmpty)
{
    EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(Median({}), 0.0);
}

TEST(SelfTime, SpanMinusDisjointChildren)
{
    EXPECT_EQ(SelfTime({0, 100}, {{10, 20}, {30, 50}}), 100 - 10 - 20);
}

TEST(SelfTime, OverlappingChildrenCountOnce)
{
    // [10, 40) ∪ [20, 60) ∪ [50, 55) = [10, 60): 50 covered.
    EXPECT_EQ(SelfTime({0, 100}, {{20, 60}, {10, 40}, {50, 55}}), 50);
}

TEST(SelfTime, ChildrenAreClippedToTheSpan)
{
    EXPECT_EQ(SelfTime({100, 200}, {{50, 120}, {190, 260}}), 100 - 20 - 10);
    EXPECT_EQ(SelfTime({0, 10}, {{0, 10}, {2, 3}}), 0);
    EXPECT_EQ(SelfTime({0, 10}, {}), 10);
}

TEST(Tracer, LayerSelfTimesPartitionTheRoot)
{
    Tracer tracer;
    tracer.Begin(Layer::kBench, "root");
    tracer.Begin(Layer::kApps, "iteration");
    tracer.Begin(Layer::kCore, "call");
    const std::int64_t t0 = NowNs();
    tracer.Leaf(Layer::kPipeline, "consume", t0, t0 + 5);
    tracer.End();
    tracer.End();
    tracer.End();
    std::int64_t total = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount);
         ++i) {
        const std::int64_t self = tracer.SelfNs(static_cast<Layer>(i));
        EXPECT_GE(self, 0);
        total += self;
    }
    EXPECT_EQ(tracer.SelfNs(Layer::kPipeline), 5);
    EXPECT_GE(total, 5);
    EXPECT_EQ(tracer.KeptSpans(), 4u);
}

/** Digest of a small runtime's log: tokens + edges. */
GraphDigest
DigestOf(const apo::rt::Runtime& runtime)
{
    GraphDigest digest;
    for (const apo::rt::OpView op : runtime.Log()) {
        digest.Consume(op);
    }
    return digest;
}

apo::rt::Runtime
RunSmallStream()
{
    apo::rt::Runtime runtime;
    const apo::rt::RegionId a = runtime.CreateRegion();
    const apo::rt::RegionId b = runtime.CreateRegion();
    for (int i = 0; i < 6; ++i) {
        apo::rt::TaskLaunch launch;
        launch.task = apo::rt::TaskIdOf(i % 2 == 0 ? "produce" : "consume");
        launch.requirements.push_back(
            {a, 0, i % 2 == 0 ? apo::rt::Privilege::kWriteDiscard
                              : apo::rt::Privilege::kReadOnly});
        launch.requirements.push_back({b, 0, apo::rt::Privilege::kReadWrite});
        runtime.ExecuteTask(launch);
    }
    return runtime;
}

EpisodeSamples
Episode(double traced_ns, double untraced_ns, double kernel_ns)
{
    EpisodeSamples e;
    e.task_ns = {traced_ns, traced_ns * 2.0, traced_ns / 2.0};
    e.untraced_ns = {untraced_ns};
    e.kernel_ns = {kernel_ns, kernel_ns * 3.0, kernel_ns / 3.0};
    e.tasks = 10;
    e.wall_ns = 10.0 * traced_ns;
    return e;
}

TEST(RunRecord, CostsAreMediansOverTheKernelMedian)
{
    RunRecord record;
    record.AddEpisode(nullptr, true, Episode(800.0, 100.0, 400.0));
    ASSERT_EQ(record.task_cost_k.size(), 1u);
    EXPECT_DOUBLE_EQ(record.task_cost_k[0], 2.0);
    EXPECT_DOUBLE_EQ(record.untraced_cost_k[0], 0.25);
    EXPECT_DOUBLE_EQ(record.run_cost_k[0], 2.0);
    EXPECT_DOUBLE_EQ(record.task_cost_x[0], 8.0);
}

TEST(RunRecord, AFasterRuntimeLowersTheGatedCosts)
{
    // The runtime's share of both passes halves; core's is unchanged.
    RunRecord before;
    RunRecord after;
    before.AddEpisode(nullptr, true, Episode(1000.0, 400.0, 500.0));
    after.AddEpisode(nullptr, true, Episode(800.0, 200.0, 500.0));
    EXPECT_LT(after.task_cost_k[0], before.task_cost_k[0]);
    EXPECT_LT(after.untraced_cost_k[0], before.untraced_cost_k[0]);
    EXPECT_LT(after.run_cost_k[0], before.run_cost_k[0]);
    // traced ÷ untraced would have called it a regression.
    EXPECT_GT(after.task_cost_x[0], before.task_cost_x[0]);
}

TEST(RunRecord, WarmUpAndTracedEpisodesStayOutOfTheGatedCosts)
{
    RunRecord record;
    Tracer tracer;
    record.AddEpisode(nullptr, false, Episode(800.0, 100.0, 400.0));
    record.AddEpisode(&tracer, true, Episode(800.0, 100.0, 400.0));
    EXPECT_TRUE(record.task_cost_k.empty());
    EXPECT_EQ(record.traced_tasks, 10u);
}

TEST(Calibration, EachBurstKeepsOnePositiveSample)
{
    Calibration calibration;
    calibration.Burst();
    calibration.Burst();
    const std::vector<double> samples = calibration.TakeSamples();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_GT(samples[0], 0.0);
    EXPECT_GT(samples[1], 0.0);
    EXPECT_TRUE(calibration.TakeSamples().empty());
}

TEST(GraphDigest, EqualStreamsMatch)
{
    const apo::rt::Runtime one = RunSmallStream();
    const apo::rt::Runtime two = RunSmallStream();
    const GraphDigest a = DigestOf(one);
    EXPECT_TRUE(a.Matches(DigestOf(two)));
    EXPECT_GT(a.Edges(), 0u);
    EXPECT_EQ(a.Ops(), 6u);
}

TEST(GraphDigest, ACorruptedEdgeFailsTheCheck)
{
    const apo::rt::Runtime runtime = RunSmallStream();
    const GraphDigest reference = DigestOf(runtime);

    // Refold the same log with one edge's source moved.
    GraphDigest corrupted;
    bool done = false;
    for (const apo::rt::OpView op : runtime.Log()) {
        std::vector<apo::rt::Dependence> edges(op.dependences.begin(),
                                               op.dependences.end());
        if (!done && !edges.empty()) {
            edges.front().from += 1;
            done = true;
        }
        corrupted.Fold(op.token, edges);
    }
    ASSERT_TRUE(done);
    EXPECT_FALSE(corrupted.Matches(reference));
    RunRecord record;
    record.Check(corrupted.Matches(reference), "graph transparency");
    EXPECT_EQ(record.failures.size(), 1u);
    EXPECT_EQ(record.checks, 1u);

    // A changed edge kind is caught too.
    GraphDigest kinds;
    done = false;
    for (const apo::rt::OpView op : runtime.Log()) {
        std::vector<apo::rt::Dependence> edges(op.dependences.begin(),
                                               op.dependences.end());
        if (!done && !edges.empty()) {
            edges.front().kind =
                edges.front().kind == apo::rt::DependenceKind::kTrue
                    ? apo::rt::DependenceKind::kAnti
                    : apo::rt::DependenceKind::kTrue;
            done = true;
        }
        kinds.Fold(op.token, edges);
    }
    EXPECT_FALSE(kinds.Matches(reference));
}

TEST(GraphDigest, NamespaceIsFoldedOut)
{
    const apo::rt::Runtime runtime = RunSmallStream();
    const std::uint64_t salt = 0x1234567890abcdefULL;
    GraphDigest plain;
    GraphDigest salted(salt);
    for (const apo::rt::OpView op : runtime.Log()) {
        plain.Fold(op.token, op.dependences);
        salted.Fold(op.token ^ salt, op.dependences);
    }
    EXPECT_TRUE(plain.Matches(salted));
}

}  // namespace
