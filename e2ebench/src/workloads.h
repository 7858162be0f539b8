/**
 * @file
 * The four benchmark workloads and the record one run of them fills.
 *
 * A run repeats *episodes* until its time is up. An episode builds the
 * whole stack from scratch, issues a fixed number of application
 * iterations through it (so every deterministic metric is identical
 * across episodes and runs of one seed) while its untraced reference
 * and the calibration kernel (calibration.h) advance side by side,
 * drains it, then runs the remaining reference passes and correctness
 * checks:
 *
 *  - s3d_steady, torchswe_alloc: one application thread, closed loop,
 *    api::Frontend → core::Apophenia (inline executor) → rt::Runtime
 *    with a streaming-retire log; reference passes: untraced (and, for
 *    S3D, manual) over the same stream, plus the re-application pass
 *    that replays the recorded core::Decision stream into a fresh
 *    runtime;
 *  - htr_cluster8: the same closed loop through an 8-node sim::Cluster
 *    (shared decision engine, shared mining cache, periodic
 *    checkpoints, one crash and rejoin); reference: the untraced
 *    cluster;
 *  - svc_overload: 4 synthetic tenants through svc::TraceService, open
 *    loop in virtual time at 1.5× the traced capacity under
 *    OverloadPolicy::kDegrade; reference: each tenant alone, untraced.
 */
#ifndef E2EBENCH_WORKLOADS_H
#define E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "calibration.h"
#include "stats.h"
#include "tracer.h"

namespace e2e {

/** Results that must not change between episodes or runs of a seed. */
struct Deterministic {
    double sim_iters_per_s = 0.0;
    double sim_iters_per_s_untraced = 0.0;
    double sim_iters_per_s_manual = 0.0;  ///< 0: no manual port run
    double replayed_frac = 0.0;
    double warmup_iters = 0.0;
    double issue_p99_ticks = 0.0;  ///< svc_overload only
    double degraded_frac = 0.0;    ///< svc_overload only
    /** Per-layer counts taken at the end of an episode. */
    std::map<std::string, double> counts;

    friend bool operator==(const Deterministic&,
                           const Deterministic&) = default;
};

/** What one episode measured. */
struct EpisodeSamples {
    /** Wall ns per issued task, one sample per application iteration
     * (per tenant grant in svc). */
    std::vector<double> task_ns;
    /** Issued tasks and wall time of the issue phase: from the first
     * timed task through flush and drain. */
    std::uint64_t tasks = 0;
    double wall_ns = 0.0;
    /** The untraced reference pass over the same stream, one sample
     * per iteration (per grant). */
    std::vector<double> untraced_ns;
    /** The calibration kernel's bursts: wall ns per operation. */
    std::vector<double> kernel_ns;
    /** Each task_ns sample over the untraced cost of its own stream;
     * left empty, it is task_ns over the untraced median. */
    std::vector<double> cost_x;
};

/** Everything a run gathers across its episodes. */
struct RunRecord {
    /** Samples of the measured episodes without spans. */
    std::vector<double> task_ns;
    std::vector<double> untraced_task_ns;
    /** Tail reading and median of each measured episode, in run
     * order. */
    std::vector<Tail> episode_tail;
    std::vector<double> episode_p50;
    /** Per measured episode, in calibration-kernel operations (the
     * median burst's ns per operation): median traced cost per task,
     * median untraced cost per task, and wall time per task of the
     * whole issue phase. */
    std::vector<double> task_cost_k;
    std::vector<double> untraced_cost_k;
    std::vector<double> run_cost_k;
    std::vector<double> kernel_ns;
    /** Per measured episode, traced against untraced over the same
     * stream: median cost per task and tail cost per task (over the
     * untraced median). */
    std::vector<double> task_cost_x;
    std::vector<double> tail_cost_x;
    std::uint64_t timed_tasks = 0;
    double timed_wall_ns = 0.0;
    /** Seconds from the start of each measured episode to its first
     * timed task. */
    std::vector<double> setup_s;
    /** Process peak resident set (MiB) at the end of the warm-up
     * episode's issue phase, before any reference pass existed. */
    double peak_rss_mib = 0.0;

    /** Raw samples of the episodes with spans on, and their issue-phase
     * tasks and wall time (the per-layer base). */
    std::vector<double> traced_task_ns;
    std::uint64_t traced_tasks = 0;
    double traced_wall_ns = 0.0;

    /** Deterministic results per input slot (see Workload::Slots). */
    std::vector<Deterministic> slots;

    /** Time sums measured outside the tracer's layers during traced
     * episodes (cluster decision cost, re-application per mode, ...). */
    std::map<std::string, double> sums;
    std::vector<double> mining_job_ns;
    /** core self ns/task growth, one reading per traced episode. */
    std::vector<double> core_growth;

    /** Correctness checks and failed operations. */
    std::uint64_t checks = 0;
    std::vector<std::string> failures;
    std::uint64_t ops_attempted = 0;
    std::uint64_t ops_failed = 0;

    /** Count one check; record `what` when it fails. */
    bool Check(bool ok, const std::string& what);

    /** Store one episode's samples: with the timed series when
     * measured without spans, with the traced series when traced;
     * the warm-up episode's are dropped. */
    void AddEpisode(Tracer* tracer, bool measured,
                    const EpisodeSamples& samples);

    /** Store an episode's deterministic results for its input slot; a
     * later episode of the same slot that disagrees fails a check. */
    void SetDeterministic(std::size_t slot, const Deterministic& det);

    /** The run's deterministic results: the mean over the slots. */
    Deterministic Averaged() const;
};

/** See file comment. */
class Workload {
  public:
    virtual ~Workload() = default;

    /** Iterations (or tenant grants per tenant) of one episode. */
    virtual std::size_t Iterations() const = 0;

    /** Distinct inputs the episodes cycle through: episode e runs the
     * inputs of slot e % Slots(), all derived from the seed. A run
     * covers every slot at least once, so it averages over several
     * seeded inputs instead of resting on one draw. */
    virtual std::size_t Slots() const { return 1; }

    /** One episode on the inputs of `slot`. `tracer` is null in timed
     * episodes. `calibration` is null in the warm-up episode, whose
     * samples are dropped: it runs its reference passes only after its
     * issue phase, where it takes RunRecord::peak_rss_mib. */
    virtual void Episode(std::size_t slot, Tracer* tracer,
                         Calibration* calibration, RunRecord& record) = 0;
};

/** @return null for an unknown name. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H
