/**
 * @file
 * e2e_bench — the repository benchmark's entry point.
 *
 *   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
 *             [--revision REV] [--out DIR]
 *
 * Repeats episodes of the workload (workloads.h) for S seconds. The
 * first episode is a warm-up whose samples are dropped. With --trace 0
 * every episode runs without spans and the end-to-end metrics are
 * reported; with --trace 1 episodes alternate spans on / spans off, the
 * per-layer metrics come from the spans-on episodes and the tracing
 * overhead is their task_ns_p50 against the spans-off episodes'. The
 * traced run writes DIR/<workload>-seed<N>.trace.json (Chrome trace)
 * and DIR/<workload>-seed<N>.layers.txt (per-layer self-time table).
 *
 * Human-readable lines come first, stamped with the seed, revision
 * and host; the last line is one JSON object
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * The exit code is nonzero when any correctness check failed.
 */
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace e2e;

/** Share of the traced wall time the per-layer self times must cover. */
constexpr double kMinCoverage = 0.95;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string revision = "unknown";
    std::string out = ".";
};

bool
ParseArgs(int argc, char** argv, Args& args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            args.seconds = std::atof(value.c_str());
        } else if (key == "--trace") {
            args.trace = value == "1";
        } else if (key == "--revision") {
            args.revision = value;
        } else if (key == "--out") {
            args.out = value;
        } else {
            std::fprintf(stderr, "e2e_bench: unknown option %s\n",
                         key.c_str());
            return false;
        }
    }
    if (argc % 2 == 0) {
        std::fprintf(stderr, "e2e_bench: option without a value\n");
        return false;
    }
    return !args.workload.empty() && args.seconds > 0.0;
}

std::string
CpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

std::string
Compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("GCC ") + __VERSION__;
#else
    return "unknown";
#endif
}

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

struct Metric {
    double value = 0.0;
    std::string unit;
};

/** The end-to-end metrics, in BENCHMARK.json order. Wall-clock cost
 * is gated in calibration-kernel operations timed side by side in
 * every episode (calibration.h: a shared host's speed swings by 2×
 * over minutes, so absolute readings are recorded, not gated). */
std::vector<std::pair<std::string, Metric>>
EndToEnd(const RunRecord& r)
{
    const Deterministic d = r.Averaged();
    return {
        {"task_cost_vs_kernel", {Median(r.task_cost_k), "kernel_ops"}},
        {"untraced_cost_vs_kernel",
         {Median(r.untraced_cost_k), "kernel_ops"}},
        {"run_cost_vs_kernel", {Median(r.run_cost_k), "kernel_ops"}},
        {"setup_s", {Median(r.setup_s), "s"}},
        {"peak_rss_mb", {r.peak_rss_mib, "MiB"}},
        {"sim_iters_per_s", {d.sim_iters_per_s, "iter/sim_s"}},
        {"speedup_vs_untraced",
         {d.sim_iters_per_s / d.sim_iters_per_s_untraced, "x"}},
        {"replayed_frac", {d.replayed_frac, "frac"}},
        {"warmup_iters", {d.warmup_iters, "iters"}},
    };
}

/** Absolute wall-clock readings of the measured spans-off episodes,
 * the kernel's own speed, and traced ÷ untraced over the same stream
 * (the paper's cost of tracing; a faster runtime raises it): recorded
 * in every run, not gated. */
std::vector<std::pair<std::string, Metric>>
WallClock(const RunRecord& r)
{
    std::vector<double> tails;
    for (const Tail& tail : r.episode_tail) {
        tails.push_back(tail.value);
    }
    return {
        {"task_ns_p50", {Median(r.task_ns), "ns"}},
        {"task_ns_tail", {Median(tails), "ns"}},
        {"task_cost_vs_untraced", {Median(r.task_cost_x), "x"}},
        {"tail_cost_vs_untraced", {Median(r.tail_cost_x), "x"}},
        {"tasks_per_s",
         {static_cast<double>(r.timed_tasks) / (r.timed_wall_ns * 1e-9),
          "1/s"}},
        {"untraced_task_ns", {Median(r.untraced_task_ns), "ns"}},
        {"bench.kernel_ns_per_op", {Median(r.kernel_ns), "ns"}},
    };
}

/** Metrics of one workload only, and failures: reported with the
 * per-layer set, since every end-to-end metric is reported on every
 * workload and must never read 0. */
std::vector<std::pair<std::string, Metric>>
WorkloadSpecific(const RunRecord& r)
{
    const Deterministic d = r.Averaged();
    const double failed =
        static_cast<double>(r.ops_failed + r.failures.size());
    const double attempted = static_cast<double>(r.ops_attempted + r.checks);
    return {
        {"speedup_vs_manual",
         {d.sim_iters_per_s_manual > 0.0
              ? d.sim_iters_per_s / d.sim_iters_per_s_manual
              : 0.0,
          "x"}},
        {"issue_p99_ticks", {d.issue_p99_ticks, "ticks"}},
        {"degraded_frac", {d.degraded_frac, "frac"}},
        {"failed_frac", {attempted == 0.0 ? 0.0 : failed / attempted, "frac"}},
    };
}

/** Layers whose time is outside the traced wall: the reference and
 * re-application passes. */
bool
OutsideWall(Layer layer)
{
    return layer == Layer::kReapply || layer == Layer::kReapplyConsumer ||
           layer == Layer::kReference;
}

/** Self time of every layer of the traced wall except the benchmark's
 * own loop. */
double
AttributedNs(const Tracer& t)
{
    double ns = 0.0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount);
         ++i) {
        const Layer layer = static_cast<Layer>(i);
        if (layer != Layer::kBench && !OutsideWall(layer)) {
            ns += static_cast<double>(t.SelfNs(layer));
        }
    }
    return ns;
}

double
Sum(const RunRecord& r, const std::string& key)
{
    const auto it = r.sums.find(key);
    return it == r.sums.end() ? 0.0 : it->second;
}

/** Self time that no span below it names: the iteration spans' own
 * (apps) and, on the cluster, the Frontend calls' minus the decision
 * and apply cost it reports (sim.cluster.other). Whatever the spans
 * miss lands here, so a large share means weak attribution. */
double
ResidualNs(const RunRecord& r, const Tracer& t)
{
    double ns = static_cast<double>(t.SelfNs(Layer::kApps));
    if (r.sums.count("sim.cluster.decision_ns") != 0) {
        ns += static_cast<double>(t.SelfNs(Layer::kCore)) -
              Sum(r, "sim.cluster.decision_ns") -
              Sum(r, "sim.cluster.apply_ns") /
                  std::max(1.0, Sum(r, "sim.cluster.jobs"));
    }
    return ns;
}

double
PerUnit(double value, double units)
{
    return units == 0.0 ? 0.0 : value / units;
}

/** The per-layer metrics, in BENCHMARK.json order. */
std::vector<std::pair<std::string, Metric>>
PerLayer(const RunRecord& r, const Tracer& t)
{
    const double tasks = static_cast<double>(r.traced_tasks);
    auto self = [&](Layer layer) {
        return static_cast<double>(t.SelfNs(layer));
    };
    auto per_task = [&](double ns) { return PerUnit(ns, tasks); };
    const Deterministic d = r.Averaged();
    auto count = [&](const char* name) {
        const auto it = d.counts.find(name);
        return it == d.counts.end() ? 0.0 : it->second;
    };

    // Split of the core span's self time (see README.md): single-node
    // workloads move the runtime's share, measured by the
    // re-application pass, out of it; the cluster's is all decision /
    // apply / coordination; svc keeps the runtime inside core.
    const double core_span = self(Layer::kCore);
    const double reapply = Sum(r, "runtime.reapply_ns");
    const bool cluster = r.sums.count("sim.cluster.decision_ns") != 0;
    const double decision = Sum(r, "sim.cluster.decision_ns");
    const double apply = Sum(r, "sim.cluster.apply_ns");
    const double jobs = std::max(1.0, Sum(r, "sim.cluster.jobs"));
    const double core_self = cluster ? 0.0 : core_span - reapply;
    const double runtime = reapply + self(Layer::kRuntime);
    const double trips = Sum(r, "fault.round_trips");
    const Tail job_tail = TailPercentile(r.mining_job_ns);
    const double traced_p50 = Median(r.traced_task_ns);
    const double timed_p50 = Median(r.task_ns);

    std::vector<std::pair<std::string, Metric>> m = {
        {"apps.self_ns_per_task", {per_task(self(Layer::kApps)), "ns"}},
        {"core.self_ns_per_task", {per_task(core_self), "ns"}},
        {"core.self_ns_growth", {Median(r.core_growth), "x"}},
        {"core.trie_candidates", {count("core.trie_candidates"), "count"}},
        {"core.trie_nodes", {count("core.trie_nodes"), "count"}},
        {"core.pending_high_water",
         {count("core.pending_high_water"), "count"}},
        {"core.buffered_frac", {count("core.buffered_frac"), "frac"}},
        {"core.replays_per_record",
         {count("core.replays_per_record"), "x"}},
        {"core.mining.jobs", {count("core.mining.jobs"), "count"}},
        {"core.mining.ns_per_task", {per_task(self(Layer::kMining)), "ns"}},
        {"core.mining.job_ns_p50", {Median(r.mining_job_ns), "ns"}},
        {"core.mining.job_ns_tail", {job_tail.value, "ns"}},
        {"core.mining.fast_path_frac",
         {count("core.mining.fast_path_frac"), "frac"}},
        {"core.mining.repair_frac", {count("core.mining.repair_frac"), "frac"}},
        {"core.mining.full_frac", {count("core.mining.full_frac"), "frac"}},
        {"core.mining.cache_hit_frac",
         {count("core.mining.cache_hit_frac"), "frac"}},
        {"runtime.ns_per_task", {per_task(runtime), "ns"}},
        {"runtime.analyze_ns_per_call",
         {PerUnit(Sum(r, "runtime.analyze_ns"),
                  Sum(r, "runtime.analyze_calls")),
          "ns"}},
        {"runtime.record_ns_per_call",
         {PerUnit(Sum(r, "runtime.record_ns"), Sum(r, "runtime.record_calls")),
          "ns"}},
        {"runtime.replay_ns_per_call",
         {PerUnit(Sum(r, "runtime.replay_ns"), Sum(r, "runtime.replay_calls")),
          "ns"}},
        {"runtime.edges_per_task", {count("runtime.edges_per_task"), "count"}},
        {"runtime.trace_mismatches",
         {count("runtime.trace_mismatches"), "count"}},
        {"runtime.tasks_rewound", {count("runtime.tasks_rewound"), "count"}},
        {"runtime.log_peak_resident_bytes",
         {count("runtime.log_peak_resident_bytes"), "B"}},
        {"sim.pipeline_ns_per_task", {per_task(self(Layer::kPipeline)), "ns"}},
        {"sim.digest_ns_per_task", {per_task(self(Layer::kDigest)), "ns"}},
        {"sim.cluster.decision_ns_per_task", {per_task(decision), "ns"}},
        {"sim.cluster.apply_ns_per_task", {per_task(apply), "ns"}},
        {"sim.cluster.other_ns_per_task",
         {cluster ? per_task(core_span - decision - apply / jobs) : 0.0,
          "ns"}},
        {"sim.cluster.tasks_per_batch",
         {count("sim.cluster.tasks_per_batch"), "count"}},
        {"sim.cluster.agreement_misses",
         {count("sim.cluster.agreement_misses"), "count"}},
        {"sim.cluster.stall_tasks", {count("sim.cluster.stall_tasks"), "tasks"}},
        {"fault.checkpoints", {count("fault.checkpoints"), "count"}},
        {"fault.checkpoint_bytes", {count("fault.checkpoint_bytes"), "B"}},
        {"fault.resyncs", {count("fault.resyncs"), "count"}},
        {"fault.save_ns", {PerUnit(Sum(r, "fault.save_ns"), trips), "ns"}},
        {"fault.load_ns", {PerUnit(Sum(r, "fault.load_ns"), trips), "ns"}},
        {"svc.self_ns_per_task", {per_task(self(Layer::kSvc)), "ns"}},
        {"svc.cross_tenant_hit_frac",
         {count("svc.cross_tenant_hit_frac"), "frac"}},
        {"svc.degrade_transitions",
         {count("svc.degrade_transitions"), "count"}},
        {"svc.max_backlog", {count("svc.max_backlog"), "iters"}},
        {"bench.check_ns_per_task", {per_task(self(Layer::kCheck)), "ns"}},
        {"trace.coverage_frac",
         {PerUnit(AttributedNs(t), r.traced_wall_ns), "frac"}},
        {"trace.residual_frac",
         {PerUnit(ResidualNs(r, t), r.traced_wall_ns), "frac"}},
        {"trace.traced_task_ns_p50", {traced_p50, "ns"}},
        {"trace.overhead_frac",
         {timed_p50 == 0.0 ? 0.0 : traced_p50 / timed_p50 - 1.0, "frac"}},
    };
    for (auto& entry : WallClock(r)) {
        m.push_back(std::move(entry));
    }
    for (auto& entry : WorkloadSpecific(r)) {
        m.push_back(std::move(entry));
    }
    return m;
}

/** The per-layer self-time table of the traced episodes. */
std::string
LayerTable(const RunRecord& r, const Tracer& t)
{
    const double wall = r.traced_wall_ns;
    const double tasks = static_cast<double>(r.traced_tasks);
    std::ostringstream out;
    char line[256];
    std::snprintf(line, sizeof line, "%-18s %16s %8s %12s\n", "layer",
                  "self_ns", "share", "ns/task");
    out << line;
    for (std::size_t i = 0; i < static_cast<std::size_t>(Layer::kCount);
         ++i) {
        const Layer layer = static_cast<Layer>(i);
        if (OutsideWall(layer)) {
            continue;
        }
        const double ns = static_cast<double>(t.SelfNs(layer));
        std::snprintf(line, sizeof line, "%-18s %16.0f %7.2f%% %12.1f\n",
                      LayerName(layer), ns, 100.0 * PerUnit(ns, wall),
                      PerUnit(ns, tasks));
        out << line;
    }
    std::snprintf(line, sizeof line,
                  "traced wall %.0f ns over %.0f tasks; layers other than "
                  "bench cover %.2f%%\n",
                  wall, tasks, 100.0 * PerUnit(AttributedNs(t), wall));
    out << line;
    std::snprintf(line, sizeof line,
                  "outside the wall: re-application runtime %.0f ns, its "
                  "consumer %.0f ns, svc untraced reference and calibration "
                  "bursts %.0f ns\n",
                  static_cast<double>(t.SelfNs(Layer::kReapply)),
                  static_cast<double>(t.SelfNs(Layer::kReapplyConsumer)),
                  static_cast<double>(t.SelfNs(Layer::kReference)));
    out << line;
    return out.str();
}

std::string
JsonNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

std::string
JsonEscape(const std::string& text)
{
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!ParseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: e2e_bench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--revision REV] [--out DIR]\n");
        return 2;
    }
    std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
    if (workload == nullptr) {
        std::fprintf(stderr, "e2e_bench: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }

    const std::string host =
        "cpu=\"" + CpuModel() + "\" nproc=" +
        std::to_string(std::max(1u, std::thread::hardware_concurrency())) +
        " compiler=\"" + Compiler() + "\" build=" + E2E_BUILD_TYPE;
    std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("# revision=%s %s\n", args.revision.c_str(), host.c_str());

    // Keep freed memory in the process instead of handing it back to
    // the kernel: otherwise every episode pays page faults for the heap
    // its predecessor released, at a price a virtual machine's host
    // sets anew from minute to minute.
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

    RunRecord record;
    Tracer tracer;
    std::unique_ptr<Calibration> calibration;  // made after the warm-up
    std::size_t episodes = 0;
    const std::int64_t start = NowNs();
    try {
        const std::int64_t deadline =
            start + static_cast<std::int64_t>(args.seconds * 1e9);
        const std::size_t min_episodes =
            std::max<std::size_t>(args.trace ? 3 : 2, workload->Slots());
        for (;;) {
            const bool traced = args.trace && episodes % 2 == 1;
            workload->Episode(episodes % workload->Slots(),
                              traced ? &tracer : nullptr, calibration.get(),
                              record);
            if (calibration == nullptr) {
                calibration = std::make_unique<Calibration>();
            }
            ++episodes;
            if (episodes >= min_episodes && NowNs() >= deadline) {
                break;
            }
        }
    } catch (const std::exception& e) {
        record.Check(false, std::string("exception: ") + e.what());
    }
    const double elapsed = static_cast<double>(NowNs() - start) * 1e-9;

    std::vector<std::pair<std::string, Metric>> metrics =
        args.trace ? PerLayer(record, tracer) : EndToEnd(record);
    for (const auto& [name, metric] : metrics) {
        record.Check(std::isfinite(metric.value),
                     "metric " + name + " is not finite");
    }
    if (args.trace) {
        record.Check(PerUnit(AttributedNs(tracer), record.traced_wall_ns) >=
                         kMinCoverage,
                     "per-layer self times cover less than 95% of the "
                     "traced wall time");
    }
    std::printf("# episodes=%zu (first is warm-up) input_slots=%zu "
                "iterations/episode=%zu elapsed_s=%.3f checks=%llu "
                "failed_checks=%zu\n",
                episodes, workload->Slots(), workload->Iterations(), elapsed,
                static_cast<unsigned long long>(record.checks),
                record.failures.size());
    if (!args.trace && !record.episode_tail.empty()) {
        const Tail& tail = record.episode_tail.front();
        std::printf("# task_ns_p50 over %zu samples; a tail is p%.3f of "
                    "an episode's %zu samples (10 beyond it), medians over "
                    "%zu episodes\n",
                    record.task_ns.size(), tail.percentile, tail.samples,
                    record.episode_tail.size());
        for (const auto& [name, metric] : WallClock(record)) {
            std::printf("# %s = %.6g %s\n", name.c_str(), metric.value,
                        metric.unit.c_str());
        }
        for (const auto& [name, metric] : WorkloadSpecific(record)) {
            std::printf("# %s = %.6g %s\n", name.c_str(), metric.value,
                        metric.unit.c_str());
        }
    }
    std::printf("# episode task_ns_p50:");
    for (const double p50 : record.episode_p50) {
        std::printf(" %.0f", p50);
    }
    std::printf("\n# episode kernel_ns_per_op:");
    for (const double ns : record.kernel_ns) {
        std::printf(" %.0f", ns);
    }
    std::printf("\n# episode task_cost_vs_kernel:");
    for (const double x : record.task_cost_k) {
        std::printf(" %.2f", x);
    }
    std::printf("\n");
    for (const std::string& failure : record.failures) {
        std::printf("# CHECK FAILED: %s\n", failure.c_str());
    }

    if (args.trace) {
        const std::string table = LayerTable(record, tracer);
        std::printf("%s", table.c_str());
        std::error_code ec;
        std::filesystem::create_directories(args.out, ec);
        const std::string base = args.out + "/" + args.workload + "-seed" +
                                 std::to_string(args.seed);
        std::ofstream(base + ".layers.txt") << table;
        std::ostringstream meta;
        meta << "{\"workload\": \"" << JsonEscape(args.workload)
             << "\", \"seed\": " << args.seed << ", \"revision\": \""
             << JsonEscape(args.revision) << "\", \"host\": \""
             << JsonEscape(host) << "\", \"kept_spans\": "
             << tracer.KeptSpans()
             << ", \"dropped_spans\": " << tracer.DroppedSpans() << "}";
        if (tracer.WriteChromeTrace(base + ".trace.json", meta.str())) {
            std::printf("# spans: %s.trace.json (%zu kept, %llu past the "
                        "cap; the table covers all)\n",
                        base.c_str(), tracer.KeptSpans(),
                        static_cast<unsigned long long>(
                            tracer.DroppedSpans()));
        }
    }

    std::ostringstream json;
    json << "{\"correct\": "
         << (record.failures.empty() ? "true" : "false")
         << ", \"attempted\": " << record.ops_attempted + record.checks
         << ", \"failed\": " << record.ops_failed + record.failures.size()
         << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto& [name, metric] = metrics[i];
        const double value = std::isfinite(metric.value) ? metric.value : 0.0;
        std::printf("%-36s %.6g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
        json << (i == 0 ? "" : ", ") << "\"" << name << "\": {\"value\": "
             << JsonNumber(value) << ", \"unit\": \"" << metric.unit
             << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    if (!record.failures.empty()) {
        std::fprintf(stderr, "e2e_bench: %s\n", record.failures.front().c_str());
        return 1;
    }
    return 0;
}
