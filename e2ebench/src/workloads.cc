#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <thread>

#include "api/frontend.h"
#include "apps/htr.h"
#include "apps/s3d.h"
#include "apps/torchswe.h"
#include "core/apophenia.h"
#include "fault/checkpoint.h"
#include "graph_digest.h"
#include "runtime/runtime.h"
#include "sim/cluster.h"
#include "sim/metrics.h"
#include "sim/pipeline.h"
#include "support/executor.h"
#include "support/hash.h"
#include "svc/load_driver.h"
#include "svc/service.h"
#include "svc/workload.h"

namespace e2e {

bool
RunRecord::Check(bool ok, const std::string& what)
{
    checks += 1;
    if (!ok) {
        failures.push_back(what);
    }
    return ok;
}

void
RunRecord::SetDeterministic(std::size_t slot, const Deterministic& episode)
{
    if (slot >= slots.size()) {
        slots.resize(slot + 1);
        slots[slot] = episode;
        return;
    }
    Check(episode == slots[slot],
          "deterministic results differ between episodes of one input");
}

void
RunRecord::AddEpisode(Tracer* tracer, bool measured,
                      const EpisodeSamples& samples)
{
    if (tracer != nullptr) {
        traced_task_ns.insert(traced_task_ns.end(), samples.task_ns.begin(),
                              samples.task_ns.end());
        traced_tasks += samples.tasks;
        traced_wall_ns += samples.wall_ns;
        return;
    }
    if (!measured) {
        return;
    }
    task_ns.insert(task_ns.end(), samples.task_ns.begin(),
                   samples.task_ns.end());
    untraced_task_ns.insert(untraced_task_ns.end(),
                            samples.untraced_ns.begin(),
                            samples.untraced_ns.end());
    const Tail tail = TailPercentile(samples.task_ns);
    episode_tail.push_back(tail);
    episode_p50.push_back(Median(samples.task_ns));
    std::vector<double> cost_x = samples.cost_x;
    if (cost_x.empty()) {
        const double untraced_p50 = Median(samples.untraced_ns);
        for (const double ns : samples.task_ns) {
            cost_x.push_back(ns / untraced_p50);
        }
    }
    task_cost_x.push_back(Median(cost_x));
    tail_cost_x.push_back(TailPercentile(cost_x).value);
    const double kernel = Median(samples.kernel_ns);
    kernel_ns.push_back(kernel);
    task_cost_k.push_back(Median(samples.task_ns) / kernel);
    untraced_cost_k.push_back(Median(samples.untraced_ns) / kernel);
    run_cost_k.push_back(
        samples.wall_ns / static_cast<double>(samples.tasks) / kernel);
    timed_tasks += samples.tasks;
    timed_wall_ns += samples.wall_ns;
}

Deterministic
RunRecord::Averaged() const
{
    Deterministic mean;
    if (slots.empty()) {
        return mean;
    }
    for (const Deterministic& d : slots) {
        mean.sim_iters_per_s += d.sim_iters_per_s;
        mean.sim_iters_per_s_untraced += d.sim_iters_per_s_untraced;
        mean.sim_iters_per_s_manual += d.sim_iters_per_s_manual;
        mean.replayed_frac += d.replayed_frac;
        mean.warmup_iters += d.warmup_iters;
        mean.issue_p99_ticks += d.issue_p99_ticks;
        mean.degraded_frac += d.degraded_frac;
        for (const auto& [name, value] : d.counts) {
            mean.counts[name] += value;
        }
    }
    const double n = static_cast<double>(slots.size());
    for (double* field :
         {&mean.sim_iters_per_s, &mean.sim_iters_per_s_untraced,
          &mean.sim_iters_per_s_manual, &mean.replayed_frac,
          &mean.warmup_iters, &mean.issue_p99_ticks, &mean.degraded_frac}) {
        *field /= n;
    }
    for (auto& [name, value] : mean.counts) {
        value /= n;
    }
    return mean;
}

namespace {

using namespace apo;

// -- Fixed configuration -----------------------------------------------------

constexpr std::size_t kS3dIterations = 300;
constexpr std::size_t kTorchSweIterations = 400;
/** Untraced reference iterations issued between auto-pass chunks
 * (single-node and cluster workloads). */
constexpr std::size_t kReferenceChunk = 50;
constexpr std::size_t kHtrIterations = 200;
constexpr std::size_t kHtrSlots = 5;
constexpr std::size_t kClusterNodes = 8;
/** The cluster's thread team. Four threads on a 4-vCPU shared host
 * stall every batch barrier whenever the host takes one vCPU away:
 * in one ten-seed proof three runs halved the traced/untraced ratio.
 * Two threads keep the fan-out and barriers in play with a spare
 * core. */
constexpr std::size_t kClusterJobs = 2;
constexpr std::uint64_t kCheckpointIntervalTasks = 16384;
constexpr std::size_t kCrashNode = 5;
constexpr std::uint64_t kCrashAtTask = 24000;
constexpr std::uint64_t kRejoinAtTask = 48000;
constexpr std::size_t kSvcTenants = 4;
constexpr std::size_t kSvcKernelTasks = 40;
constexpr std::size_t kSvcGrantsPerTenant = 1000;
constexpr std::size_t kSvcSlots = 20;
constexpr double kSvcOfferedLoad = 1.5;
constexpr std::size_t kSvcQueueBound = 6;
constexpr std::size_t kSvcResume = 1;
/** A tenant's grants per calibration burst: a burst costs about as
 * much as a few grants. */
constexpr std::size_t kSvcGrantsPerBurst = 4;

/** Perlmutter 4×4: four nodes of four GPUs. */
apps::MachineConfig
Machine()
{
    apps::MachineConfig machine;
    machine.nodes = 4;
    machine.gpus_per_node = 4;
    return machine;
}

/** The paper artifact's configuration (appendix A.5). */
core::ApopheniaConfig
ArtifactConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 25;
    config.max_trace_length = 5000;
    config.batchsize = 5000;
    config.multi_scale_factor = 250;
    return config;
}

rt::RuntimeOptions
RuntimeOptions()
{
    rt::RuntimeOptions options;
    options.nodes = Machine().nodes;
    return options;
}

sim::PipelineOptions
PipelineFor(bool apophenia)
{
    sim::PipelineOptions options;
    options.machine = Machine();
    options.apophenia_front_end = apophenia;
    options.window = ArtifactConfig().window;
    return options;
}

/** Peak resident set of the process so far, in MiB. */
double
PeakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

double
Ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Steady-state simulated iterations/s of a finished simulation. */
double
SimIters(const sim::PipelineResult& result,
         const std::vector<std::size_t>& boundaries)
{
    return sim::SteadyThroughput(sim::IterationEndTimes(result, boundaries));
}

/** End-of-episode counts of one decision engine (summed over tenants
 * on svc, which keeps its own tally). */
void
CountEngine(const core::Apophenia& engine, Deterministic& det)
{
    const core::ApopheniaStats& as = engine.Stats();
    const core::FinderStats& fs = engine.Finder();
    const double ingested = static_cast<double>(as.jobs_ingested);
    auto& counts = det.counts;
    counts["core.trie_candidates"] =
        static_cast<double>(engine.Trie().NumCandidates());
    counts["core.trie_nodes"] = static_cast<double>(engine.Trie().NumNodes());
    counts["core.pending_high_water"] =
        static_cast<double>(as.pending_high_water);
    counts["core.buffered_frac"] =
        Ratio(static_cast<double>(as.launches_buffered),
              static_cast<double>(as.tasks_observed));
    counts["core.replays_per_record"] =
        Ratio(static_cast<double>(as.trace_replays),
              static_cast<double>(as.trace_records));
    counts["core.mining.jobs"] = static_cast<double>(fs.jobs_launched);
    counts["core.mining.fast_path_frac"] =
        Ratio(static_cast<double>(fs.mining_fast_path_hits), ingested);
    counts["core.mining.repair_frac"] =
        Ratio(static_cast<double>(fs.mining_repairs), ingested);
    counts["core.mining.full_frac"] =
        Ratio(static_cast<double>(fs.mining_full), ingested);
}

// -- Stack pieces owned by the benchmark ---------------------------------

/**
 * The streaming-retire consumer of an observed runtime: the harness's
 * consumers (pipeline model, stream digest, traced flags) plus the
 * benchmark's graph digest, each timed as a leaf span when tracing.
 * Heap-held: the runtime keeps a pointer to it.
 */
struct LogConsumers {
    LogConsumers(const sim::PipelineOptions& options, Tracer* tracer)
        : pipeline(options), tracer(tracer)
    {
    }

    void Consume(const rt::OpView& op)
    {
        if (tracer == nullptr) {
            graph.Consume(op);
            stream.Consume(op);
            flags.Consume(op);
            pipeline.Consume(op);
            return;
        }
        const std::int64_t t0 = NowNs();
        graph.Consume(op);
        const std::int64_t t1 = NowNs();
        stream.Consume(op);
        flags.Consume(op);
        const std::int64_t t2 = NowNs();
        pipeline.Consume(op);
        const std::int64_t t3 = NowNs();
        tracer->Leaf(Layer::kCheck, "GraphDigest", t0, t1);
        tracer->Leaf(Layer::kDigest, "StreamDigest+TracedFlags", t1, t2);
        tracer->Leaf(Layer::kPipeline, "PipelineSimulator::Consume", t2,
                     t3);
    }

    rt::OperationLog::Consumer Callback()
    {
        return [this](const rt::OpView& op) { Consume(op); };
    }

    GraphDigest graph;
    sim::StreamDigest stream;
    sim::TracedFlags flags;
    sim::PipelineSimulator pipeline;
    Tracer* tracer;
};

/** Inline executor that times every mining job when tracing:
 * deterministic like support::InlineExecutor. */
class BenchExecutor final : public support::Executor {
  public:
    BenchExecutor(Tracer* tracer, std::vector<double>* job_ns)
        : tracer_(tracer), job_ns_(job_ns)
    {
    }

    using support::Executor::Submit;
    void Submit(std::function<void()> job) override
    {
        if (tracer_ == nullptr) {
            job();
            return;
        }
        const std::int64_t t0 = NowNs();
        tracer_->Begin(Layer::kMining, "mining job");
        job();
        tracer_->End();
        job_ns_->push_back(static_cast<double>(NowNs() - t0));
    }
    void Drain() override {}

  private:
    Tracer* tracer_;
    std::vector<double>* job_ns_;
};

/**
 * The benchmark's issue surface over the stack under test: forwards
 * every call, opens a core span around each when tracing, and notes
 * the decision-stream position of every region operation so the
 * re-application pass can replay region and task calls in the order
 * the traced runtime saw them.
 */
class IssueFrontend final : public api::Frontend {
  public:
    IssueFrontend(api::Frontend& inner, Tracer* tracer,
                  const std::vector<core::Decision>* decisions)
        : inner_(&inner), tracer_(tracer), decisions_(decisions)
    {
    }

    std::string_view Name() const override { return "e2e-issue"; }

    rt::RegionId CreateRegion() override
    {
        Mark();
        ScopedSpan span(tracer_, Layer::kCore, "CreateRegion");
        return inner_->CreateRegion();
    }
    void DestroyRegion(rt::RegionId r) override
    {
        Mark();
        ScopedSpan span(tracer_, Layer::kCore, "DestroyRegion");
        inner_->DestroyRegion(r);
    }
    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t count) override
    {
        Mark();
        ScopedSpan span(tracer_, Layer::kCore, "PartitionRegion");
        return inner_->PartitionRegion(parent, count);
    }

    /** Decision count at each region operation, in call order. */
    const std::vector<std::uint64_t>& RegionMarks() const { return marks_; }

  protected:
    void DoExecuteTask(const rt::TaskLaunchView& launch) override
    {
        if (tracer_ == nullptr) {
            inner_->ExecuteTask(launch);
            return;
        }
        tracer_->Begin(Layer::kCore, "ExecuteTask");
        inner_->ExecuteTask(launch);
        tracer_->End();
    }
    bool DoBeginTrace(rt::TraceId id) override
    {
        inner_->BeginTrace(id);
        return false;
    }
    bool DoEndTrace(rt::TraceId id) override
    {
        inner_->EndTrace(id);
        return false;
    }
    void DoFlush() override
    {
        ScopedSpan span(tracer_, Layer::kCore, "Flush");
        inner_->Flush();
    }

  private:
    void Mark()
    {
        if (decisions_ != nullptr) {
            marks_.push_back(decisions_->size());
        }
    }

    api::Frontend* inner_;
    Tracer* tracer_;
    const std::vector<core::Decision>* decisions_;
    std::vector<std::uint64_t> marks_;
};

/** Per-mode runtime call timing of the re-application pass. */
struct ReapplyTiming {
    double analyze_ns = 0.0;
    double record_ns = 0.0;
    double replay_ns = 0.0;
    double marker_ns = 0.0;
    std::uint64_t analyze_calls = 0;
    std::uint64_t record_calls = 0;
    std::uint64_t replay_calls = 0;
};

/**
 * The re-application pass's issue surface: a fresh copy of the
 * application issues into it, launches are captured by input index,
 * and the auto run's core::Decision stream is applied to a fresh
 * runtime — untraced launches, Begin/End groups — region operations
 * at the decision positions IssueFrontend noted. Each runtime call is
 * a span when tracing, so its self time excludes the log consumer.
 */
class ReapplyFrontend final : public api::Frontend {
  public:
    ReapplyFrontend(rt::Runtime& runtime,
                    const std::vector<core::Decision>& decisions,
                    const std::vector<std::uint64_t>& region_marks,
                    Tracer* tracer, ReapplyTiming& timing)
        : runtime_(&runtime),
          decisions_(&decisions),
          marks_(&region_marks),
          tracer_(tracer),
          timing_(&timing)
    {
    }

    std::string_view Name() const override { return "e2e-reapply"; }

    rt::RegionId CreateRegion() override
    {
        ApplyBeforeRegionOp();
        return runtime_->CreateRegion();
    }
    void DestroyRegion(rt::RegionId r) override
    {
        ApplyBeforeRegionOp();
        runtime_->DestroyRegion(r);
    }
    std::vector<rt::RegionId> PartitionRegion(rt::RegionId parent,
                                              std::size_t count) override
    {
        ApplyBeforeRegionOp();
        return runtime_->PartitionRegion(parent, count);
    }

    /** Apply decisions [applied, end). */
    void ApplyUpTo(std::uint64_t end)
    {
        end = std::min<std::uint64_t>(end, decisions_->size());
        while (next_ < end) {
            Apply((*decisions_)[next_]);
            ++next_;
        }
    }

    /** False once a decision named a launch that was not captured, or
     * more region operations ran than the auto run made. */
    bool Consistent() const { return consistent_; }
    std::uint64_t Applied() const { return next_; }

  protected:
    void DoExecuteTask(const rt::TaskLaunchView& launch) override
    {
        inputs_.push_back(Captured{launch.Materialize(), launch.token});
    }
    bool DoBeginTrace(rt::TraceId) override { return false; }
    bool DoEndTrace(rt::TraceId) override { return false; }
    void DoFlush() override {}

  private:
    struct Captured {
        rt::TaskLaunch launch;
        rt::TokenHash token = 0;
    };

    void ApplyBeforeRegionOp()
    {
        if (region_ops_ >= marks_->size()) {
            consistent_ = false;
            return;
        }
        ApplyUpTo((*marks_)[region_ops_++]);
    }

    void Apply(const core::Decision& d)
    {
        switch (d.kind) {
          case core::Decision::Kind::kTask: {
            if (d.value < base_ || d.value - base_ >= inputs_.size()) {
                consistent_ = false;
                return;
            }
            while (base_ < d.value) {  // skipped inputs: inconsistent
                inputs_.pop_front();
                ++base_;
                consistent_ = false;
            }
            const Captured& input = inputs_.front();
            const rt::TaskLaunchView view =
                rt::TaskLaunchView::Of(input.launch, input.token);
            if (tracer_ == nullptr) {
                runtime_->ExecuteTask(view);
            } else {
                const char* name = !in_trace_  ? "analyze"
                                   : recording_ ? "record"
                                                : "replay";
                tracer_->Begin(Layer::kReapply, name);
                runtime_->ExecuteTask(view);
                const double self = static_cast<double>(tracer_->End());
                if (!in_trace_) {
                    timing_->analyze_ns += self;
                    timing_->analyze_calls += 1;
                } else if (recording_) {
                    timing_->record_ns += self;
                    timing_->record_calls += 1;
                } else {
                    timing_->replay_ns += self;
                    timing_->replay_calls += 1;
                }
            }
            inputs_.pop_front();
            ++base_;
            break;
          }
          case core::Decision::Kind::kBegin:
            in_trace_ = true;
            recording_ = d.recording;
            Marker("BeginTrace", [&] { runtime_->BeginTrace(d.value); });
            break;
          case core::Decision::Kind::kEnd:
            Marker("EndTrace", [&] { runtime_->EndTrace(d.value); });
            in_trace_ = false;
            break;
        }
    }

    template <typename Call>
    void Marker(const char* name, Call call)
    {
        if (tracer_ == nullptr) {
            call();
            return;
        }
        tracer_->Begin(Layer::kReapply, name);
        call();
        timing_->marker_ns += static_cast<double>(tracer_->End());
    }

    rt::Runtime* runtime_;
    const std::vector<core::Decision>* decisions_;
    const std::vector<std::uint64_t>* marks_;
    Tracer* tracer_;
    ReapplyTiming* timing_;
    std::deque<Captured> inputs_;
    std::uint64_t base_ = 0;  ///< input index of inputs_.front()
    std::uint64_t next_ = 0;  ///< next decision to apply
    std::size_t region_ops_ = 0;
    bool in_trace_ = false;
    bool recording_ = false;
    bool consistent_ = true;
};

/** One Runtime::SaveState → LoadState round trip into a fresh runtime
 * with the same options; adds its timing to the record when tracing.
 * @return the image size in bytes. */
std::size_t
CheckpointRoundTrip(const rt::Runtime& source, bool traced,
                    RunRecord& record)
{
    fault::CheckpointWriter writer;
    const std::int64_t t0 = NowNs();
    source.SaveState(writer);
    const std::int64_t t1 = NowNs();
    const std::vector<std::uint8_t> image = writer.TakeImage();
    rt::Runtime restored(RuntimeOptions());
    restored.EnableLogStreaming([](const rt::OpView&) {});
    fault::CheckpointReader reader(image);
    const std::int64_t t2 = NowNs();
    restored.LoadState(reader);
    const std::int64_t t3 = NowNs();
    if (traced) {
        record.sums["fault.save_ns"] += static_cast<double>(t1 - t0);
        record.sums["fault.load_ns"] += static_cast<double>(t3 - t2);
        record.sums["fault.round_trips"] += 1.0;
    }
    record.Check(restored.Stats().TotalTasks() ==
                     source.Stats().TotalTasks(),
                 "checkpoint round trip lost runtime state");
    return image.size();
}

/** Run `iterations` of `app` through `front`, one wall-ns-per-task
 * sample per iteration; iteration spans when tracing. */
struct IterationLoop {
    std::vector<double> samples;
    std::vector<std::size_t> boundaries;

    template <typename AfterIteration>
    void Run(apps::Application& app, api::Frontend& front,
             std::size_t iterations, bool manual, Tracer* tracer,
             AfterIteration after)
    {
        RunRange(app, front, 0, iterations, manual, tracer, after);
    }

    /** Iterations [begin, end). */
    template <typename AfterIteration>
    void RunRange(apps::Application& app, api::Frontend& front,
                  std::size_t begin, std::size_t end, bool manual,
                  Tracer* tracer, AfterIteration after)
    {
        for (std::size_t i = begin; i < end; ++i) {
            if (tracer != nullptr) {
                tracer->NextGroup();
                tracer->Begin(Layer::kApps, "Iteration");
            }
            const std::uint64_t before = front.Stats().tasks_executed;
            const std::int64_t t0 = NowNs();
            app.Iteration(front, i, manual);
            const std::int64_t t1 = NowNs();
            if (tracer != nullptr) {
                tracer->End();
            }
            const std::uint64_t tasks =
                front.Stats().tasks_executed - before;
            samples.push_back(static_cast<double>(t1 - t0) /
                              static_cast<double>(std::max<std::uint64_t>(
                                  tasks, 1)));
            boundaries.push_back(
                static_cast<std::size_t>(front.Stats().tasks_executed));
            after(i);
        }
    }
};

// -- s3d_steady / torchswe_alloc ----------------------------------------------

/**
 * A reference pass: the same application over a fresh runtime through
 * api::UntracedFrontend (or api::DirectFrontend with the application's
 * own annotations: the manual pass), with the observed-runtime
 * consumers attached. Advanced a chunk of iterations at a time, so its
 * samples spread over the episode rather than one short window.
 */
class ReferenceStack {
  public:
    ReferenceStack(std::unique_ptr<apps::Application> app, bool manual)
        : runtime_(RuntimeOptions()),
          consumers_(std::make_unique<LogConsumers>(PipelineFor(false),
                                                    nullptr)),
          untraced_(runtime_),
          direct_(runtime_),
          front_(manual ? static_cast<api::Frontend&>(direct_) : untraced_,
                 nullptr, nullptr),
          app_(std::move(app)),
          manual_(manual)
    {
        runtime_.EnableLogStreaming(consumers_->Callback());
        app_->Setup(front_);
    }

    /** Issue iterations up to `end` (exclusive). */
    void RunTo(std::size_t end)
    {
        loop_.RunRange(*app_, front_, next_, end, manual_, nullptr,
                       [](std::size_t) {});
        next_ = std::max(next_, end);
    }

    /** Flush and drain; returns the simulated iterations/s. */
    double Finish()
    {
        front_.Flush();
        runtime_.DrainLogStream();
        return SimIters(consumers_->pipeline.Finish(), loop_.boundaries);
    }

    const GraphDigest& Graph() const { return consumers_->graph; }
    const std::vector<double>& Samples() const { return loop_.samples; }

  private:
    rt::Runtime runtime_;
    std::unique_ptr<LogConsumers> consumers_;
    api::UntracedFrontend untraced_;
    api::DirectFrontend direct_;
    IssueFrontend front_;
    std::unique_ptr<apps::Application> app_;
    bool manual_;
    IterationLoop loop_;
    std::size_t next_ = 0;
};

class AppWorkload final : public Workload {
  public:
    enum class App { kS3d, kTorchSwe };

    explicit AppWorkload(App app) : app_(app) {}

    std::size_t Iterations() const override
    {
        return app_ == App::kS3d ? kS3dIterations : kTorchSweIterations;
    }

    void Episode(std::size_t slot, Tracer* tracer, Calibration* calibration,
                 RunRecord& record) override;

  private:
    std::unique_ptr<apps::Application> MakeApp() const
    {
        if (app_ == App::kS3d) {
            apps::S3dOptions options;
            options.machine = Machine();
            options.size = apps::ProblemSize::kMedium;
            return std::make_unique<apps::S3dApplication>(options);
        }
        apps::TorchSweOptions options;
        options.machine = Machine();
        options.size = apps::ProblemSize::kMedium;
        return std::make_unique<apps::TorchSweApplication>(options);
    }

    App app_;
    double manual_sim_iters_ = -1.0;  ///< computed once per run
};

void
AppWorkload::Episode(std::size_t slot, Tracer* tracer,
                     Calibration* calibration, RunRecord& record)
{
    const bool measured = calibration != nullptr;
    // The untraced reference advances in chunks between the auto
    // pass's iterations (outside the auto pass's timing); built at
    // its first chunk.
    std::unique_ptr<ReferenceStack> untraced;
    auto advance_reference = [&](std::size_t end) {
        if (untraced == nullptr) {
            untraced = std::make_unique<ReferenceStack>(MakeApp(), false);
        }
        untraced->RunTo(end);
    };

    std::vector<core::Decision> decisions;  // the re-application input
    decisions.reserve(Iterations() * 600);

    // ---- The traced stack: app → Apophenia → runtime (streaming) -------
    const std::int64_t t_start = NowNs();
    rt::Runtime runtime(RuntimeOptions());
    auto consumers = std::make_unique<LogConsumers>(PipelineFor(true),
                                                    tracer);
    runtime.EnableLogStreaming(consumers->Callback());
    BenchExecutor executor(tracer, &record.mining_job_ns);
    core::Apophenia apophenia(runtime, ArtifactConfig(), &executor);
    apophenia.SetDecisionSink(&decisions);
    IssueFrontend front(apophenia, tracer, &decisions);
    std::unique_ptr<apps::Application> app = MakeApp();
    app->Setup(front);
    const std::uint64_t setup_mark = decisions.size();
    const std::int64_t t_first = NowNs();
    if (measured) {
        record.setup_s.push_back(static_cast<double>(t_first - t_start) *
                                 1e-9);
    }

    std::vector<std::uint64_t> iteration_marks;
    std::vector<double> core_ns;  // per-iteration core span self time
    std::vector<double> tasks_per_iteration;
    iteration_marks.reserve(Iterations());
    if (tracer != nullptr) {
        tracer->Begin(Layer::kBench, "episode");
    }
    IterationLoop loop;
    std::int64_t core_before = tracer != nullptr ? tracer->SelfNs(Layer::kCore)
                                                 : 0;
    std::uint64_t tasks_before = 0;
    std::int64_t side_ns = 0;  // reference chunks and kernel bursts
    loop.Run(*app, front, Iterations(), false, tracer, [&](std::size_t i) {
        if (measured) {
            if (tracer != nullptr) {
                tracer->End();  // the root covers the auto pass only
            }
            const std::int64_t t0 = NowNs();
            if ((i + 1) % kReferenceChunk == 0 || i + 1 == Iterations()) {
                advance_reference(i + 1);
            }
            calibration->Burst();
            side_ns += NowNs() - t0;
            if (tracer != nullptr) {
                tracer->Begin(Layer::kBench, "episode");
            }
        }
        iteration_marks.push_back(decisions.size());
        const std::uint64_t tasks = front.Stats().tasks_executed;
        tasks_per_iteration.push_back(
            static_cast<double>(tasks - tasks_before));
        tasks_before = tasks;
        if (tracer != nullptr) {
            const std::int64_t now = tracer->SelfNs(Layer::kCore);
            core_ns.push_back(static_cast<double>(now - core_before));
            core_before = now;
        }
    });
    front.Flush();
    {
        ScopedSpan drain(tracer, Layer::kRuntime, "DrainLogStream");
        runtime.DrainLogStream();
    }
    if (tracer != nullptr) {
        tracer->End();
    }
    const std::int64_t t_end = NowNs();
    if (!measured) {
        record.peak_rss_mib = PeakRssMiB();
    }
    EpisodeSamples episode;
    episode.tasks = front.Stats().tasks_executed;
    episode.wall_ns = static_cast<double>(t_end - t_first - side_ns);
    episode.task_ns = std::move(loop.samples);

    Deterministic det;
    det.sim_iters_per_s =
        SimIters(consumers->pipeline.Finish(), loop.boundaries);
    det.replayed_frac = runtime.Stats().ReplayedFraction();
    const std::size_t warmup =
        sim::WarmupIterations(consumers->flags, loop.boundaries);
    det.warmup_iters = static_cast<double>(warmup);

    // ---- Untraced reference: graph transparency + untraced cost ---------
    advance_reference(Iterations());  // the warm-up runs it all here
    det.sim_iters_per_s_untraced = untraced->Finish();
    episode.untraced_ns = untraced->Samples();
    if (measured) {
        episode.kernel_ns = calibration->TakeSamples();
    }
    record.AddEpisode(tracer, measured, episode);
    record.Check(consumers->graph.Matches(untraced->Graph()),
                 "graph transparency: auto run's graph digest differs "
                 "from the untraced pass's");
    if (app_ == App::kS3d) {
        if (manual_sim_iters_ < 0.0) {
            ReferenceStack manual(MakeApp(), true);
            manual.RunTo(Iterations());
            manual_sim_iters_ = manual.Finish();
        }
        det.sim_iters_per_s_manual = manual_sim_iters_;
    }

    // ---- Re-application pass: decisions → fresh runtime -----------------
    ReapplyTiming timing;
    rt::Runtime replica(RuntimeOptions());
    sim::StreamDigest replica_digest;
    replica.EnableLogStreaming([&](const rt::OpView& op) {
        if (tracer == nullptr) {
            replica_digest.Consume(op);
            return;
        }
        const std::int64_t t0 = NowNs();
        replica_digest.Consume(op);
        tracer->Leaf(Layer::kReapplyConsumer, "StreamDigest", t0, NowNs());
    });
    ReapplyFrontend capture(replica, decisions, front.RegionMarks(), tracer,
                            timing);
    std::unique_ptr<apps::Application> copy = MakeApp();
    copy->Setup(capture);
    capture.ApplyUpTo(setup_mark);
    std::vector<double> runtime_ns;  // per iteration, when tracing
    for (std::size_t i = 0; i < Iterations(); ++i) {
        const std::int64_t before =
            tracer != nullptr ? tracer->SelfNs(Layer::kReapply) : 0;
        copy->Iteration(capture, i, false);
        capture.ApplyUpTo(iteration_marks[i]);
        if (tracer != nullptr) {
            runtime_ns.push_back(static_cast<double>(
                tracer->SelfNs(Layer::kReapply) - before));
        }
    }
    capture.ApplyUpTo(decisions.size());
    replica.DrainLogStream();
    record.Check(capture.Consistent() &&
                     capture.Applied() == decisions.size(),
                 "re-application pass could not apply the decision "
                 "stream");
    record.Check(replica_digest == consumers->stream,
                 "re-application pass did not reproduce the auto "
                 "runtime's StreamDigest");

    // ---- Counts, failures, per-layer timing -----------------------------
    const rt::RuntimeStats& rs = runtime.Stats();
    CountEngine(apophenia, det);
    auto& counts = det.counts;
    counts["runtime.edges_per_task"] =
        Ratio(static_cast<double>(consumers->graph.Edges()),
              static_cast<double>(consumers->graph.Ops()));
    counts["runtime.trace_mismatches"] =
        static_cast<double>(rs.trace_mismatches);
    counts["runtime.tasks_rewound"] = static_cast<double>(rs.tasks_rewound);
    counts["runtime.log_peak_resident_bytes"] =
        static_cast<double>(runtime.Log().PeakResidentBytes());
    counts["fault.checkpoint_bytes"] = static_cast<double>(
        CheckpointRoundTrip(replica, tracer != nullptr, record));
    record.ops_attempted += episode.tasks;
    record.ops_failed += rs.trace_mismatches + rs.tasks_rewound;
    record.SetDeterministic(slot, det);

    if (tracer != nullptr) {
        auto& sums = record.sums;
        sums["runtime.reapply_ns"] +=
            timing.analyze_ns + timing.record_ns + timing.replay_ns +
            timing.marker_ns;
        sums["runtime.analyze_ns"] += timing.analyze_ns;
        sums["runtime.analyze_calls"] +=
            static_cast<double>(timing.analyze_calls);
        sums["runtime.record_ns"] += timing.record_ns;
        sums["runtime.record_calls"] +=
            static_cast<double>(timing.record_calls);
        sums["runtime.replay_ns"] += timing.replay_ns;
        sums["runtime.replay_calls"] +=
            static_cast<double>(timing.replay_calls);
        // core self per task by iteration: the core span's self time
        // minus the runtime work the re-application pass measured for
        // the decisions that iteration produced.
        const std::size_t n = Iterations();
        const std::size_t tenth = std::max<std::size_t>(1, n / 10);
        const std::size_t first = std::min(warmup, n - tenth);
        auto per_task = [&](std::size_t from, std::size_t to) {
            double ns = 0.0;
            double t = 0.0;
            for (std::size_t i = from; i < to; ++i) {
                ns += core_ns[i] - runtime_ns[i];
                t += tasks_per_iteration[i];
            }
            return Ratio(ns, t);
        };
        record.core_growth.push_back(
            Ratio(per_task(n - tenth, n), per_task(first, first + tenth)));
    }
}

// -- htr_cluster8 ---------------------------------------------------------------

std::unique_ptr<apps::Application>
MakeHtr()
{
    apps::HtrOptions options;
    options.machine = Machine();
    options.size = apps::ProblemSize::kMedium;
    return std::make_unique<apps::HtrApplication>(options);
}

class ClusterWorkload final : public Workload {
  public:
    explicit ClusterWorkload(std::uint64_t seed) : seed_(seed) {}

    std::size_t Iterations() const override { return kHtrIterations; }
    std::size_t Slots() const override { return kHtrSlots; }

    void Episode(std::size_t slot, Tracer* tracer, Calibration* calibration,
                 RunRecord& record) override;

  private:
    /** Slot `slot`'s cluster: the seed drives the coordination
     * jitter. */
    sim::ClusterOptions Options(std::size_t slot, bool traced) const
    {
        sim::ClusterOptions options;
        options.coordination.nodes = kClusterNodes;
        options.coordination.seed = support::HashCombine(seed_, slot);
        options.config = ArtifactConfig();
        options.config.enabled = traced;
        options.runtime_options = RuntimeOptions();
        options.stream_logs = true;
        options.jobs = std::min<std::size_t>(
            kClusterJobs, std::max(1u, std::thread::hardware_concurrency()));
        options.share_mining_cache = true;
        options.shared_decisions = true;
        if (traced) {
            // Fault tolerance needs the shared decision engine, which
            // an untraced cluster does not have; node 0's stream is
            // the same either way.
            options.checkpoint_interval_tasks = kCheckpointIntervalTasks;
            options.fault_plan.events.push_back(
                {.node = kCrashNode,
                 .crash_at_task = kCrashAtTask,
                 .rejoin_at_task = kRejoinAtTask});
        }
        return options;
    }

    /** Checks every cluster run must pass. */
    static void CheckCluster(const sim::Cluster& cluster, const char* which,
                             RunRecord& record)
    {
        std::size_t quarantined = 0;
        std::size_t crashed = 0;
        for (std::size_t n = 0; n < cluster.Nodes(); ++n) {
            quarantined += cluster.NodeQuarantined(n) ? 1 : 0;
            crashed += cluster.NodeCrashed(n) ? 1 : 0;
        }
        record.Check(cluster.StreamDigestsAgree(),
                     std::string(which) + " cluster: node stream digests "
                                          "disagree");
        record.Check(quarantined == 0,
                     std::string(which) + " cluster: a node ended "
                                          "quarantined");
        record.Check(crashed == 0, std::string(which) +
                                       " cluster: a node never rejoined");
        record.ops_failed += quarantined;
    }

    /** Per-layer counts of an auto cluster at the end of an episode. */
    static void CountCluster(const sim::Cluster& cluster, std::uint64_t tasks,
                             const LogConsumers& consumers,
                             Deterministic& det)
    {
        CountEngine(cluster.Decider(), det);
        const core::MiningCache::Stats cache = cluster.MiningCacheStats();
        const sim::FaultStats& faults = cluster.FaultRecovery();
        const rt::Runtime& node0 = cluster.NodeRuntime(0);
        double stall = 0.0;
        for (const sim::NodeMetrics& node : cluster.PerNode()) {
            stall += node.stall_tasks;
        }
        auto& counts = det.counts;
        counts["core.mining.cache_hit_frac"] =
            Ratio(static_cast<double>(cache.hits),
                  static_cast<double>(cache.hits + cache.misses));
        counts["runtime.edges_per_task"] =
            Ratio(static_cast<double>(consumers.graph.Edges()),
                  static_cast<double>(consumers.graph.Ops()));
        counts["runtime.trace_mismatches"] =
            static_cast<double>(node0.Stats().trace_mismatches);
        counts["runtime.tasks_rewound"] =
            static_cast<double>(node0.Stats().tasks_rewound);
        counts["runtime.log_peak_resident_bytes"] =
            static_cast<double>(node0.Log().PeakResidentBytes());
        counts["sim.cluster.tasks_per_batch"] =
            Ratio(static_cast<double>(tasks),
                  static_cast<double>(cluster.DecisionCost().batches));
        counts["sim.cluster.agreement_misses"] =
            static_cast<double>(cluster.Coordination().late_jobs);
        counts["sim.cluster.stall_tasks"] = stall;
        counts["fault.checkpoints"] =
            static_cast<double>(faults.checkpoints_taken);
        counts["fault.checkpoint_bytes"] =
            static_cast<double>(faults.last_checkpoint_bytes);
        counts["fault.resyncs"] =
            static_cast<double>(faults.rejoins + faults.heals);
    }

    std::uint64_t seed_;
};

/**
 * The untraced reference of one cluster episode: the same cluster with
 * tracing disabled, advanced a chunk of iterations at a time.
 */
class ClusterReference {
  public:
    explicit ClusterReference(const sim::ClusterOptions& options)
        : cluster_(options),
          consumers_(std::make_unique<LogConsumers>(PipelineFor(false),
                                                    nullptr)),
          front_(cluster_, nullptr, nullptr),
          app_(MakeHtr())
    {
        cluster_.AddLogConsumer(0, consumers_->Callback());
        app_->Setup(front_);
    }

    /** Issue iterations up to `end` (exclusive). */
    void RunTo(std::size_t end)
    {
        loop_.RunRange(*app_, front_, loop_.samples.size(), end, false,
                       nullptr, [](std::size_t) {});
    }

    /** Flush and drain; returns the simulated iterations/s. */
    double Finish()
    {
        front_.Flush();
        cluster_.DrainLogStreams();
        return SimIters(consumers_->pipeline.Finish(), loop_.boundaries);
    }

    const sim::Cluster& Cluster() const { return cluster_; }
    const GraphDigest& Graph() const { return consumers_->graph; }
    const std::vector<double>& Samples() const { return loop_.samples; }

  private:
    sim::Cluster cluster_;
    std::unique_ptr<LogConsumers> consumers_;
    IssueFrontend front_;
    std::unique_ptr<apps::Application> app_;
    IterationLoop loop_;
};

void
ClusterWorkload::Episode(std::size_t slot, Tracer* tracer,
                         Calibration* calibration, RunRecord& record)
{
    const bool measured = calibration != nullptr;
    EpisodeSamples episode;
    Deterministic det;
    std::unique_ptr<ClusterReference> reference;  // built at first use
    auto advance_reference = [&](std::size_t end) {
        if (reference == nullptr) {
            reference =
                std::make_unique<ClusterReference>(Options(slot, false));
        }
        reference->RunTo(end);
    };

    // Node 0's consumer runs on whichever team thread steps node 0:
    // no spans from it (see tracer.h).
    auto consumers =
        std::make_unique<LogConsumers>(PipelineFor(true), nullptr);
    {
        const std::int64_t t_start = NowNs();
        sim::Cluster cluster(Options(slot, true));
        cluster.AddLogConsumer(0, consumers->Callback());
        IssueFrontend front(cluster, tracer, nullptr);
        std::unique_ptr<apps::Application> app = MakeHtr();
        app->Setup(front);
        const std::int64_t t_first = NowNs();
        if (measured) {
            record.setup_s.push_back(
                static_cast<double>(t_first - t_start) * 1e-9);
        }

        if (tracer != nullptr) {
            tracer->Begin(Layer::kBench, "episode");
        }
        IterationLoop loop;
        std::int64_t side_ns = 0;  // reference chunks and kernel bursts
        loop.Run(*app, front, Iterations(), false, tracer,
                 [&](std::size_t i) {
                     if (!measured) {
                         return;
                     }
                     if (tracer != nullptr) {
                         tracer->End();  // the root covers the auto pass
                     }
                     const std::int64_t t0 = NowNs();
                     if ((i + 1) % kReferenceChunk == 0 ||
                         i + 1 == Iterations()) {
                         advance_reference(i + 1);
                     }
                     calibration->Burst();
                     side_ns += NowNs() - t0;
                     if (tracer != nullptr) {
                         tracer->Begin(Layer::kBench, "episode");
                     }
                 });
        front.Flush();
        {
            ScopedSpan drain(tracer, Layer::kCore, "DrainLogStreams");
            cluster.DrainLogStreams();
        }
        if (tracer != nullptr) {
            tracer->End();
        }
        episode.wall_ns = static_cast<double>(NowNs() - t_first - side_ns);
        if (!measured) {
            record.peak_rss_mib = PeakRssMiB();
        }
        episode.tasks = front.Stats().tasks_executed;
        episode.task_ns = std::move(loop.samples);

        det.sim_iters_per_s =
            SimIters(consumers->pipeline.Finish(), loop.boundaries);
        const rt::Runtime& node0 = cluster.NodeRuntime(0);
        det.replayed_frac = node0.Stats().ReplayedFraction();
        det.warmup_iters = static_cast<double>(
            sim::WarmupIterations(consumers->flags, loop.boundaries));
        CheckCluster(cluster, "auto", record);
        CountCluster(cluster, episode.tasks, *consumers, det);
        const sim::FaultStats& faults = cluster.FaultRecovery();
        record.Check(faults.crashes == 1 && faults.rejoins == 1,
                     "the scheduled crash and rejoin did not both happen");
        record.ops_attempted += episode.tasks;
        record.ops_failed +=
            node0.Stats().trace_mismatches + node0.Stats().tasks_rewound;
        CheckpointRoundTrip(node0, tracer != nullptr, record);
        if (tracer != nullptr) {
            const sim::DecisionStats cost = cluster.DecisionCost();
            record.sums["sim.cluster.decision_ns"] +=
                static_cast<double>(cost.decision_ns);
            record.sums["sim.cluster.apply_ns"] +=
                static_cast<double>(cost.apply_ns);
            record.sums["sim.cluster.jobs"] =
                static_cast<double>(cluster.Jobs());
        }
    }

    advance_reference(Iterations());  // the warm-up runs it all here
    det.sim_iters_per_s_untraced = reference->Finish();
    episode.untraced_ns = reference->Samples();
    CheckCluster(reference->Cluster(), "untraced", record);
    record.Check(consumers->graph.Matches(reference->Graph()),
                 "graph transparency: auto cluster's node-0 graph digest "
                 "differs from the untraced cluster's");
    if (measured) {
        episode.kernel_ns = calibration->TakeSamples();
    }
    record.AddEpisode(tracer, measured, episode);
    record.SetDeterministic(slot, det);
}

// -- svc_overload -----------------------------------------------------------------

/** Per-tenant grant timing, filled by TenantApp. */
struct GrantLog {
    std::int64_t first_grant_ns = 0;
    std::vector<double> samples;
    std::vector<std::size_t> tenant;  ///< the tenant of each sample
    /** Time spent in the interleaved untraced reference and kernel
     * bursts (inside Run, excluded from the service's wall time). */
    std::int64_t side_ns = 0;
};

/** One tenant's kernel alone, untraced, over a fresh runtime with a
 * retained log (for its graph digest and pipeline model). */
struct AloneStack {
    explicit AloneStack(const svc::SyntheticOptions& options)
        : runtime(RuntimeOptions()), front(runtime), app(options)
    {
        app.Setup(front);
    }

    rt::Runtime runtime;
    api::UntracedFrontend front;
    svc::SyntheticWorkload app;
    IterationLoop loop;
};

/**
 * The benchmark's wrapper apps::Application around one synthetic
 * tenant: times every grant (TraceService::Run's Iteration call) and,
 * when tracing, opens the iteration span and routes the tenant's
 * calls through an IssueFrontend so Frontend calls are spans too.
 * After each grant of a measured episode it advances the same kernel
 * alone, untraced, by one iteration (and runs a calibration burst
 * every kSvcGrantsPerBurst grants): the untraced reference runs side
 * by side with the service, outside the grant's timing.
 */
class TenantApp final : public apps::Application {
  public:
    TenantApp(svc::SyntheticOptions options, std::size_t tenant,
              Tracer* tracer, Calibration* calibration, GrantLog& log)
        : options_(options),
          inner_(options),
          tenant_(tenant),
          tracer_(tracer),
          calibration_(calibration),
          log_(&log)
    {
    }

    /** Advance the reference to `end` iterations and return it. */
    AloneStack& RunAloneTo(std::size_t end)
    {
        if (alone_ == nullptr) {
            alone_ = std::make_unique<AloneStack>(options_);
        }
        alone_->loop.RunRange(alone_->app, alone_->front,
                              alone_->loop.samples.size(), end, false,
                              nullptr, [](std::size_t) {});
        return *alone_;
    }

    std::string_view Name() const override { return "e2e-tenant"; }

    void Setup(api::Frontend& fe) override { inner_.Setup(Wrap(fe)); }

    void Iteration(api::Frontend& fe, std::size_t iter,
                   bool manual_tracing) override
    {
        api::Frontend& target = Wrap(fe);
        if (tracer_ != nullptr) {
            tracer_->NextGroup();
            tracer_->Begin(Layer::kApps, "Iteration");
        }
        const std::uint64_t before = fe.Stats().tasks_executed;
        const std::int64_t t0 = NowNs();
        if (log_->first_grant_ns == 0) {
            log_->first_grant_ns = t0;
        }
        inner_.Iteration(target, iter, manual_tracing);
        const std::int64_t t1 = NowNs();
        if (tracer_ != nullptr) {
            tracer_->End();
        }
        const std::uint64_t tasks = fe.Stats().tasks_executed - before;
        log_->samples.push_back(
            static_cast<double>(t1 - t0) /
            static_cast<double>(std::max<std::uint64_t>(tasks, 1)));
        log_->tenant.push_back(tenant_);
        if (calibration_ == nullptr) {
            return;
        }

        if (tracer_ != nullptr) {
            tracer_->Begin(Layer::kReference, "untraced reference");
        }
        const std::int64_t r0 = NowNs();
        RunAloneTo(iter + 1);
        if (iter % kSvcGrantsPerBurst == 0) {
            calibration_->Burst();
        }
        log_->side_ns += NowNs() - r0;
        if (tracer_ != nullptr) {
            tracer_->End();
        }
    }

  private:
    api::Frontend& Wrap(api::Frontend& fe)
    {
        if (tracer_ == nullptr) {
            return fe;
        }
        if (wrapper_ == nullptr) {
            wrapper_ = std::make_unique<IssueFrontend>(fe, tracer_, nullptr);
        }
        return *wrapper_;
    }

    svc::SyntheticOptions options_;
    svc::SyntheticWorkload inner_;
    std::size_t tenant_;
    Tracer* tracer_;
    Calibration* calibration_;
    GrantLog* log_;
    std::unique_ptr<IssueFrontend> wrapper_;
    std::unique_ptr<AloneStack> alone_;
};

class ServiceWorkload final : public Workload {
  public:
    explicit ServiceWorkload(std::uint64_t seed) : seed_(seed) {}

    std::size_t Iterations() const override { return kSvcGrantsPerTenant; }
    std::size_t Slots() const override { return kSvcSlots; }

    void Episode(std::size_t slot, Tracer* tracer, Calibration* calibration,
                 RunRecord& record) override;

  private:
    struct Fleet {
        std::unique_ptr<svc::TraceService> service;
        std::vector<std::unique_ptr<TenantApp>> apps;
    };

    /** Slot `slot`'s kernel for `tenant`, drawn from the seed. Tenants
     * 0 and 1 run one kernel, 2 and 3 another, so the shared mining
     * cache sees cross-tenant (cross-namespace) hits. */
    svc::SyntheticOptions KernelOptions(std::size_t slot,
                                        std::size_t tenant) const
    {
        svc::SyntheticOptions options;
        options.machine = Machine();
        options.seed = support::HashCombine(seed_, 2 * slot + tenant / 2);
        options.kernel_tasks = kSvcKernelTasks;
        // Exactly kernel_tasks per grant, so the offered load is exact
        // (as in svc::LoadDriver).
        options.noise_interval = 0;
        return options;
    }

    Fleet BuildFleet(std::size_t slot, Tracer* tracer,
                     Calibration* calibration, GrantLog& log,
                     BenchExecutor& executor) const
    {
        svc::ServiceOptions options;
        options.config = ArtifactConfig();
        options.machine = Machine();
        options.executor = &executor;
        // Retained logs: the per-tenant graph-digest check reads each
        // tenant's log after the run (the service has no hook for a
        // second streaming consumer on an unreplicated tenant).
        options.log_mode = sim::LogMode::kRetained;
        Fleet fleet;
        fleet.service = std::make_unique<svc::TraceService>(options);
        const std::uint64_t gap = svc::LoadDriver::DeriveArrivalGap(
            kSvcTenants, kSvcKernelTasks, kSvcOfferedLoad);
        for (std::size_t t = 0; t < kSvcTenants; ++t) {
            fleet.apps.push_back(std::make_unique<TenantApp>(
                KernelOptions(slot, t), t, tracer, calibration, log));
            svc::TenantOptions tenant;
            tenant.name = "tenant-" + std::to_string(t);
            tenant.app = fleet.apps.back().get();
            tenant.iterations = Iterations();
            tenant.arrival_gap = gap;
            tenant.overload_policy = svc::OverloadPolicy::kDegrade;
            tenant.max_queue_iterations = kSvcQueueBound;
            tenant.degrade_resume_iterations = kSvcResume;
            fleet.service->AddTenant(std::move(tenant));
        }
        return fleet;
    }

    std::uint64_t seed_;
};

void
ServiceWorkload::Episode(std::size_t slot, Tracer* tracer,
                         Calibration* calibration, RunRecord& record)
{
    const bool measured = calibration != nullptr;
    const std::int64_t t_start = NowNs();
    GrantLog log;
    BenchExecutor executor(tracer, &record.mining_job_ns);
    Fleet fleet = BuildFleet(slot, tracer, calibration, log, executor);
    svc::TraceService& service = *fleet.service;
    const std::int64_t t_run = NowNs();
    if (tracer != nullptr) {
        tracer->Begin(Layer::kBench, "episode");
        tracer->Begin(Layer::kSvc, "TraceService::Run");
    }
    const svc::ServiceResult result = service.Run();
    if (tracer != nullptr) {
        tracer->End();
        tracer->End();
    }
    const std::int64_t t_end = NowNs();
    if (measured) {
        record.setup_s.push_back(
            static_cast<double>(log.first_grant_ns - t_start) * 1e-9);
    } else {
        record.peak_rss_mib = PeakRssMiB();
    }

    std::uint64_t tasks = 0;
    std::uint64_t shed = 0;
    std::uint64_t granted = 0;
    std::uint64_t degraded = 0;
    std::uint64_t degrade_windows = 0;
    std::uint64_t backlog = 0;
    std::uint64_t mismatches = 0;
    double p99 = 0.0;
    for (const svc::TenantStats& tenant : result.tenants) {
        tasks += tenant.tokens_issued;
        shed += tenant.iterations_shed;
        granted += tenant.iterations_completed;
        degraded += tenant.iterations_degraded;
        degrade_windows += tenant.degrade_windows;
        backlog = std::max(backlog, tenant.max_backlog);
        p99 = std::max(p99, tenant.p99_issue_latency);
    }
    EpisodeSamples episode;
    episode.tasks = tasks;
    episode.wall_ns = static_cast<double>(t_end - t_run - log.side_ns);
    episode.task_ns = std::move(log.samples);

    // ---- Per tenant: graph digest vs the same tenant alone, untraced ----
    Deterministic det;
    std::vector<double> untraced_samples;
    std::vector<double> tenant_untraced_p50(kSvcTenants, 0.0);
    double auto_iters = 0.0;
    double untraced_iters = 0.0;
    double replayed = 0.0;
    double total = 0.0;
    double edges = 0.0;
    double ops = 0.0;
    double warmup = 0.0;
    double peak_log = 0.0;
    double trie_nodes = 0.0;
    double trie_candidates = 0.0;
    double pending_high_water = 0.0;
    double buffered = 0.0;
    double observed = 0.0;
    double replays = 0.0;
    double records = 0.0;
    double fast = 0.0;
    double repairs = 0.0;
    double full = 0.0;
    double ingested = 0.0;
    double jobs = 0.0;
    for (std::size_t t = 0; t < kSvcTenants; ++t) {
        const rt::Runtime& tenant_runtime = service.TenantRuntime(t);
        GraphDigest served(service.TenantNamespace(t));
        for (const rt::OpView op : tenant_runtime.Log()) {
            served.Consume(op);
        }

        // The warm-up runs the whole reference here.
        AloneStack& alone = fleet.apps[t]->RunAloneTo(Iterations());
        alone.front.Flush();
        untraced_iters +=
            SimIters(sim::SimulatePipeline(alone.runtime.Log(),
                                           PipelineFor(false)),
                     alone.loop.boundaries);
        GraphDigest reference;
        for (const rt::OpView op : alone.runtime.Log()) {
            reference.Consume(op);
        }
        record.Check(served.Matches(reference),
                     "graph transparency: tenant " + std::to_string(t) +
                         "'s graph digest differs from the same tenant "
                         "run alone untraced");
        untraced_samples.insert(untraced_samples.end(),
                                alone.loop.samples.begin(),
                                alone.loop.samples.end());
        tenant_untraced_p50[t] = Median(alone.loop.samples);

        const sim::ExperimentResult& e = result.experiments[t];
        auto_iters += e.iterations_per_second;
        replayed += static_cast<double>(e.runtime_stats.tasks_replayed);
        total += static_cast<double>(e.runtime_stats.TotalTasks());
        mismatches += e.runtime_stats.trace_mismatches +
                      e.runtime_stats.tasks_rewound;
        edges += static_cast<double>(served.Edges());
        ops += static_cast<double>(served.Ops());
        warmup = std::max(warmup, static_cast<double>(e.warmup_iterations));
        peak_log = std::max(peak_log,
                            static_cast<double>(e.log_peak_resident_bytes));
        const core::Apophenia& engine = service.TenantEngine(t);
        trie_nodes += static_cast<double>(engine.Trie().NumNodes());
        trie_candidates += static_cast<double>(engine.Trie().NumCandidates());
        pending_high_water =
            std::max(pending_high_water,
                     static_cast<double>(engine.Stats().pending_high_water));
        buffered += static_cast<double>(engine.Stats().launches_buffered);
        observed += static_cast<double>(engine.Stats().tasks_observed);
        replays += static_cast<double>(engine.Stats().trace_replays);
        records += static_cast<double>(engine.Stats().trace_records);
        fast += static_cast<double>(e.mining_fast_path_hits);
        repairs += static_cast<double>(e.mining_repairs);
        full += static_cast<double>(e.mining_full);
        ingested += static_cast<double>(engine.Stats().jobs_ingested);
        jobs += static_cast<double>(engine.Finder().jobs_launched);
    }
    // Each grant against its own tenant's untraced cost: the tenants'
    // kernels differ, so a ratio of pooled medians would mix them.
    for (std::size_t i = 0; i < episode.task_ns.size(); ++i) {
        episode.cost_x.push_back(episode.task_ns[i] /
                                 tenant_untraced_p50[log.tenant[i]]);
    }
    episode.untraced_ns = std::move(untraced_samples);
    if (measured) {
        episode.kernel_ns = calibration->TakeSamples();
    }
    record.AddEpisode(tracer, measured, episode);

    const double tenants = static_cast<double>(kSvcTenants);
    det.sim_iters_per_s = auto_iters / tenants;
    det.sim_iters_per_s_untraced = untraced_iters / tenants;
    det.replayed_frac = Ratio(replayed, total);
    det.warmup_iters = warmup;
    det.issue_p99_ticks = p99;
    det.degraded_frac = Ratio(static_cast<double>(degraded),
                              static_cast<double>(granted));
    auto& counts = det.counts;
    counts["core.trie_candidates"] = trie_candidates;
    counts["core.trie_nodes"] = trie_nodes;
    counts["core.pending_high_water"] = pending_high_water;
    counts["core.buffered_frac"] = Ratio(buffered, observed);
    counts["core.replays_per_record"] = Ratio(replays, records);
    counts["core.mining.jobs"] = jobs;
    counts["core.mining.fast_path_frac"] = Ratio(fast, ingested);
    counts["core.mining.repair_frac"] = Ratio(repairs, ingested);
    counts["core.mining.full_frac"] = Ratio(full, ingested);
    counts["core.mining.cache_hit_frac"] =
        Ratio(static_cast<double>(result.mining_cache.hits),
              static_cast<double>(result.mining_cache.hits +
                                  result.mining_cache.misses));
    counts["runtime.edges_per_task"] = Ratio(edges, ops);
    counts["runtime.trace_mismatches"] = static_cast<double>(mismatches);
    counts["runtime.log_peak_resident_bytes"] = peak_log;
    counts["svc.cross_tenant_hit_frac"] = result.cross_tenant_sharing;
    counts["svc.degrade_transitions"] =
        static_cast<double>(degrade_windows);
    counts["svc.max_backlog"] = static_cast<double>(backlog);
    record.ops_attempted += tasks + shed;
    record.ops_failed += shed + mismatches;
    record.SetDeterministic(slot, det);
}

}  // namespace

std::unique_ptr<Workload>
MakeWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "s3d_steady") {
        return std::make_unique<AppWorkload>(AppWorkload::App::kS3d);
    }
    if (name == "torchswe_alloc") {
        return std::make_unique<AppWorkload>(AppWorkload::App::kTorchSwe);
    }
    if (name == "htr_cluster8") {
        return std::make_unique<ClusterWorkload>(seed);
    }
    if (name == "svc_overload") {
        return std::make_unique<ServiceWorkload>(seed);
    }
    return nullptr;
}

}  // namespace e2e
