/**
 * @file
 * The graph-transparency digest: a rolling hash of every operation's
 * token and dependence edges, in log order — and nothing else. Unlike
 * sim::StreamDigest it ignores how an operation's analysis was
 * obtained (analyzed, recorded, replayed) and which trace carried it,
 * so an automatically traced run and an untraced run of the same
 * stream must produce equal digests: tracing may change how the
 * dependence graph is computed, never the graph.
 *
 * Tokens are folded namespace-relative (token ^ name_space), so a
 * service tenant's graph compares against the same workload run alone
 * without a namespace.
 */
#ifndef E2EBENCH_GRAPH_DIGEST_H
#define E2EBENCH_GRAPH_DIGEST_H

#include <cstdint>
#include <span>

#include "runtime/dependence.h"
#include "runtime/oplog.h"
#include "support/hash.h"

namespace e2e {

class GraphDigest {
  public:
    explicit GraphDigest(std::uint64_t name_space = 0)
        : name_space_(name_space)
    {
    }

    void Consume(const apo::rt::OpView& op)
    {
        Fold(op.token, op.dependences);
    }

    /** Fold one operation: its token, then each edge's endpoints and
     * kind. */
    void Fold(std::uint64_t token,
              std::span<const apo::rt::Dependence> edges)
    {
        using apo::support::HashCombine;
        std::uint64_t h = HashCombine(state_, token ^ name_space_);
        for (const apo::rt::Dependence& d : edges) {
            h = HashCombine(h, d.from);
            h = HashCombine(h, d.to);
            h = HashCombine(h, static_cast<std::uint64_t>(d.kind));
        }
        state_ = h;
        ops_ += 1;
        edges_ += edges.size();
    }

    std::uint64_t Value() const { return state_; }
    std::uint64_t Ops() const { return ops_; }
    std::uint64_t Edges() const { return edges_; }

    /** Equal digests over equal operation counts. */
    bool Matches(const GraphDigest& other) const
    {
        return state_ == other.state_ && ops_ == other.ops_;
    }

  private:
    std::uint64_t name_space_;
    std::uint64_t state_ = 0x6a09e667f3bcc909ULL;
    std::uint64_t ops_ = 0;
    std::uint64_t edges_ = 0;
};

}  // namespace e2e

#endif  // E2EBENCH_GRAPH_DIGEST_H
