/**
 * @file
 * Static compile of a phase graph (wl::StaticTdfg): conv2d's e-graph
 * optimization runs once per Workload, shared by its copies and by every
 * caller (executor, job planner, any thread), while a freshly made
 * Workload compiles on its own.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/tdfg_hash.hh"
#include "core/backend.hh"
#include "core/executor.hh"
#include "workloads/common.hh"
#include "workloads/workloads.hh"

namespace infs {
namespace {

/** The static-compile builder of conv2d's only phase. */
const wl::StaticTdfg &
conv2dCompile(const Workload &w)
{
    const auto *st = w.phases.at(0).buildTdfg.target<wl::StaticTdfg>();
    infs_assert(st != nullptr, "conv2d's phase lost its static compile");
    return *st;
}

TEST(StaticCompile, OneSaturationPerWorkloadAndItsCopies)
{
    Workload w = makeConv2d(24, 20);
    EXPECT_EQ(conv2dCompile(w).compiles(), 0u);
    const std::uint64_t first = tdfgHash(w.phases[0].buildTdfg(0));
    Workload copy = w;
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(tdfgHash(w.phases[0].buildTdfg(0)), first);
        EXPECT_EQ(tdfgHash(copy.phases[0].buildTdfg(0)), first);
    }
    EXPECT_EQ(conv2dCompile(w).compiles(), 1u);
    EXPECT_EQ(conv2dCompile(copy).compiles(), 1u);
}

TEST(StaticCompile, ConcurrentCallersShareOneSaturation)
{
    Workload w = makeConv2d(128, 128);
    Workload copy = w;
    std::uint64_t h[2] = {0, 0};
    std::thread t0([&] { h[0] = tdfgHash(w.phases[0].buildTdfg(0)); });
    std::thread t1([&] { h[1] = tdfgHash(copy.phases[0].buildTdfg(0)); });
    t0.join();
    t1.join();
    EXPECT_EQ(h[0], h[1]);
    EXPECT_EQ(conv2dCompile(w).compiles(), 1u);
}

TEST(StaticCompile, FreshWorkloadSaturatesAgain)
{
    Workload a = makeConv2d(24, 20);
    Workload b = makeConv2d(24, 20);
    const std::uint64_t ha = tdfgHash(a.phases[0].buildTdfg(0));
    EXPECT_EQ(conv2dCompile(a).compiles(), 1u);
    EXPECT_EQ(conv2dCompile(b).compiles(), 0u);
    EXPECT_EQ(tdfgHash(b.phases[0].buildTdfg(0)), ha);
    EXPECT_EQ(conv2dCompile(b).compiles(), 1u);
}

TEST(StaticCompile, ExecutorAndPlannerShareTheCompile)
{
    for (bool transposed : {false, true}) {
        Workload w = makeConv2d(24, 20);
        w.assumeTransposed = transposed;
        InfinitySystem sys(testSystemConfig());
        Executor(sys, Paradigm::InfS).run(w);
        planPrimaryJob(w, testSystemConfig(), nullptr, 0);
        EXPECT_EQ(conv2dCompile(w).compiles(), 1u)
            << (transposed ? "transposed" : "cold");
    }
}

} // namespace
} // namespace infs
