/**
 * @file
 * Shared helpers for workload factories.
 */

#ifndef INFS_WORKLOADS_COMMON_HH
#define INFS_WORKLOADS_COMMON_HH

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

#include "core/workload.hh"
#include "sim/rng.hh"

namespace infs {
namespace wl {

/** Fill an array with deterministic pseudo-random values in [lo, hi). */
inline void
randomFill(ArrayStore &store, ArrayId a, float lo, float hi,
           std::uint64_t seed)
{
    Rng rng(seed);
    for (float &v : store.array(a).data)
        v = rng.nextFloat(lo, hi);
}

/** Bytes of @p elems fp32 elements. */
inline Bytes
fp32Bytes(std::int64_t elems)
{
    return static_cast<Bytes>(elems) * 4;
}

/**
 * Phase::buildTdfg for a graph that goes through a static compile step,
 * such as the e-graph optimizer (§3.2: tDFG optimization happens at
 * compile time; only lowering happens at run time). The first call runs
 * @p compile; every later call, from any copy of the Workload and from
 * any thread, returns that same graph. The result lives with the phase,
 * not the process: a freshly made Workload compiles again. The graph
 * must not depend on the iteration (Phase::sameTdfgEachIter).
 */
class StaticTdfg
{
  public:
    explicit StaticTdfg(std::function<TdfgGraph()> compile)
        : state_(std::make_shared<State>())
    {
        state_->compile = std::move(compile);
    }

    TdfgGraph
    operator()(std::uint64_t) const
    {
        std::call_once(state_->once, [s = state_.get()] {
            s->graph.emplace(s->compile());
            ++s->compiles;
        });
        return *state_->graph;
    }

    /** Times the compile step has run for this phase (0 or 1). */
    unsigned
    compiles() const
    {
        return state_->compiles.load();
    }

  private:
    struct State {
        std::function<TdfgGraph()> compile;
        std::once_flag once;
        std::optional<TdfgGraph> graph;
        std::atomic<unsigned> compiles{0};
    };
    std::shared_ptr<State> state_;
};

} // namespace wl
} // namespace infs

#endif // INFS_WORKLOADS_COMMON_HH
