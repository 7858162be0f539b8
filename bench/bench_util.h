/**
 * @file
 * Shared helpers for the figure-reproduction benchmarks: machine
 * models for the paper's two systems, the artifact's Apophenia
 * configuration, and table printing.
 *
 * Absolute throughputs are simulated (see DESIGN.md section 4.1) and
 * are not expected to match the paper's hardware numbers; the *shapes*
 * — who wins, by what factor, where the crossovers are — are the
 * reproduction target, and EXPERIMENTS.md records both.
 */
#ifndef APOPHENIA_BENCH_BENCH_UTIL_H
#define APOPHENIA_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.h"
#include "core/config.h"
#include "sim/harness.h"

namespace apo::bench {

// -- JSON record-file helpers (BENCH_micro_repeats.json) --------------------
//
// The perf-record file is one JSON object shared by several writers:
// micro_repeats sets its own root members, the figure benches each
// merge one section in, and every writer must preserve the others'
// members. These helpers locate a top-level `"key": value` member
// without a JSON library: by scanning at nesting depth 1 (the file
// is machine-written, so strings hold no escaped quotes).

inline std::string ReadFileOrEmpty(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        return "";
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** End of the JSON value starting at `begin` (an object, array,
 * string or bare scalar), or npos if it is unterminated. */
inline std::size_t JsonValueEnd(const std::string& content,
                                std::size_t begin)
{
    int depth = 0;
    for (std::size_t at = begin; at < content.size(); ++at) {
        const char c = content[at];
        if (c == '"') {
            at = content.find('"', at + 1);
            if (at == std::string::npos) {
                return at;
            }
            if (depth == 0) {
                return at + 1;
            }
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (depth == 0) {
                return at;  // a bare scalar ends at its parent's close
            }
            if (--depth == 0) {
                return at + 1;
            }
        } else if (depth == 0 && (c == ',' || c == ' ' || c == '\n')) {
            return at;
        }
    }
    return depth == 0 ? content.size() : std::string::npos;
}

/** Locate the root object's member `"key": value`: on success,
 * `member_begin` is the quoted key's position and
 * [value_begin, value_end) delimits the value. Members of nested
 * objects never match, so a root key that a section also uses
 * (`config`, `hardware_concurrency`) finds the root's own member. */
inline bool FindJsonMember(const std::string& content,
                           const std::string& key,
                           std::size_t* member_begin,
                           std::size_t* value_begin,
                           std::size_t* value_end)
{
    int depth = 0;
    for (std::size_t at = 0; at < content.size(); ++at) {
        const char c = content[at];
        if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            --depth;
        } else if (c == '"') {
            const std::size_t close = content.find('"', at + 1);
            if (close == std::string::npos) {
                return false;
            }
            const std::size_t colon =
                content.find_first_not_of(" \t\n", close + 1);
            if (depth == 1 && colon != std::string::npos &&
                content[colon] == ':' && close - at - 1 == key.size() &&
                content.compare(at + 1, key.size(), key) == 0) {
                const std::size_t begin =
                    content.find_first_not_of(" \t\n", colon + 1);
                if (begin == std::string::npos) {
                    return false;
                }
                const std::size_t end = JsonValueEnd(content, begin);
                if (end == std::string::npos) {
                    return false;
                }
                *member_begin = at;
                *value_begin = begin;
                *value_end = end;
                return true;
            }
            at = close;
        }
    }
    return false;
}

/** Set the root member `key` to the JSON text `value`: replaced in
 * place when it exists (stable member order keeps re-runs to
 * value-only diffs), appended otherwise. An empty `content` starts a
 * new object. Returns false when `content` is not a JSON object. */
inline bool SetJsonMember(std::string& content, const std::string& key,
                          const std::string& value)
{
    if (content.empty()) {
        content = "{\n}\n";
    }
    std::size_t member = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    if (FindJsonMember(content, key, &member, &begin, &end)) {
        content.replace(begin, end - begin, value);
        return true;
    }
    const std::size_t close = content.rfind('}');
    if (close == std::string::npos) {
        return false;
    }
    std::size_t tail = close;
    while (tail > 0 && (content[tail - 1] == ' ' ||
                        content[tail - 1] == '\n' ||
                        content[tail - 1] == '\t' ||
                        content[tail - 1] == ',')) {
        --tail;
    }
    const bool has_members = content.find('"') < tail;
    content.erase(tail);
    content += has_members ? ",\n" : "\n";
    content += "  \"" + key + "\": " + value + "\n}\n";
    return true;
}

/** Write `content` to `path`, replacing the file. Returns 0 on
 * success. */
inline int WriteJsonFile(const std::string& path, const std::string& content)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    out << content;
    return 0;
}

/** Merge `"key": {...section...}` into the JSON object file at
 * `path` (see SetJsonMember). Creates the file when absent. Returns
 * 0 on success. */
inline int MergeIntoJson(const std::string& path, const std::string& key,
                         const std::string& section)
{
    std::string content = ReadFileOrEmpty(path);
    if (!SetJsonMember(content, key, section)) {
        std::fprintf(stderr, "%s is not a JSON object\n", path.c_str());
        return 1;
    }
    return WriteJsonFile(path, content);
}

/** The host's thread count as every bench section records it —
 * wall-clock-derived metrics (speedups, tokens/sec) are only
 * comparable across record generations with the host pinned next to
 * them. Never 0 (the unknown-hardware fallback is 1). */
inline unsigned HardwareConcurrency()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** The APO_JOBS thread-count override, or 0 when it is unset. A set
 * but non-numeric/zero APO_JOBS reads as 0, exactly as the engine
 * ignores it. */
inline unsigned long ApoJobsOverride()
{
    const char* jobs = std::getenv("APO_JOBS");
    if (jobs == nullptr) {
        return 0;
    }
    char* end = nullptr;
    const unsigned long value = std::strtoul(jobs, &end, 10);
    return end != jobs && *end == '\0' ? value : 0;
}

/** The host-pinning JSON fragment every bench section embeds next to
 * its wall-clock metrics: `"hardware_concurrency": N`, plus
 * `"apo_jobs": J` when the APO_JOBS override is set — a record
 * produced under an override is only comparable to records produced
 * under the same one, so the override is pinned in the record rather
 * than silently shaping it. No trailing comma. */
inline std::string ConcurrencyJson()
{
    std::string out = "\"hardware_concurrency\": " +
                      std::to_string(HardwareConcurrency());
    if (const unsigned long jobs = ApoJobsOverride(); jobs > 0) {
        out += ", \"apo_jobs\": " + std::to_string(jobs);
    }
    return out;
}

/** Perlmutter: 4 NVIDIA A100s per node (paper section 6). */
inline apps::MachineConfig Perlmutter(std::size_t gpus)
{
    apps::MachineConfig m;
    m.gpus_per_node = 4;
    m.nodes = std::max<std::size_t>(1, gpus / m.gpus_per_node);
    if (gpus < m.gpus_per_node) {
        m.gpus_per_node = gpus;
    }
    return m;
}

/** Eos: 8 NVIDIA H100s per node (paper section 6). */
inline apps::MachineConfig Eos(std::size_t gpus)
{
    apps::MachineConfig m;
    m.gpus_per_node = 8;
    m.nodes = std::max<std::size_t>(1, gpus / m.gpus_per_node);
    if (gpus < m.gpus_per_node) {
        m.gpus_per_node = gpus;
    }
    return m;
}

/** The artifact's standard Apophenia configuration (appendix A.5). */
inline core::ApopheniaConfig ArtifactConfig()
{
    core::ApopheniaConfig config;
    config.min_trace_length = 25;
    config.max_trace_length = 5000;
    config.batchsize = 5000;
    config.multi_scale_factor = 250;
    return config;
}

/** Tracks the min/max of a ratio across a sweep (the "0.92x-1.03x"
 * style bands the paper reports). */
class RatioBand {
  public:
    void Add(double value)
    {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
        seen_ = true;
    }
    std::string Format() const
    {
        if (!seen_) {
            return "n/a";
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.2fx-%.2fx", min_, max_);
        return buf;
    }

  private:
    double min_ = 1e300;
    double max_ = -1e300;
    bool seen_ = false;
};

/** Run one experiment with a freshly constructed application. */
template <typename App, typename Options>
sim::ExperimentResult RunOne(const Options& app_options,
                             sim::TracingMode mode,
                             const apps::MachineConfig& machine,
                             std::size_t iterations,
                             const core::ApopheniaConfig& auto_config)
{
    App app(app_options);
    sim::ExperimentOptions options;
    options.mode = mode;
    options.machine = machine;
    options.iterations = iterations;
    options.auto_config = auto_config;
    return sim::RunExperiment(app, options);
}

}  // namespace apo::bench

#endif  // APOPHENIA_BENCH_BENCH_UTIL_H
