/**
 * @file
 * Differential tests for the execution backends (DESIGN.md §12): the
 * fidelity contract is that for the SAME planned job,
 *  - the functional backend's checksum is byte-identical to the fabric's
 *    (word-level replay == bit-serial fabric, bit for bit), and
 *  - the timing backend's sim_cycles equal the fabric's replay exactly
 *    (both run the identical cycle-replay path).
 *
 * Compiled twice: the default target covers a fast scenario subset plus
 * randomized tDFGs (tier1 + differential labels); with INFS_DIFF_FULL it
 * covers all 17 registry scenarios and a deeper random sweep
 * (differential + slow labels, nightly CI).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random_tdfg.hh"
#include "core/backend.hh"
#include "jit/jit.hh"
#include "mem/address_map.hh"
#include "workloads/registry.hh"

namespace infs {
namespace {

constexpr std::int64_t kDiffVolumeCap = 1 << 18;

/** The lowering config under test. The test_backend_diff_nocmdopt twin
 * compiles with INFS_NO_CMDOPT to certify the raw (pre-optimizer)
 * streams too, so a fidelity break is attributable in one CI run. */
SystemConfig
diffConfig()
{
    SystemConfig cfg = testSystemConfig();
#ifdef INFS_NO_CMDOPT
    cfg.cmdOpt = false;
#endif
    return cfg;
}

/** Run @p job on all three backends and pin the fidelity contract. */
void
expectBackendsAgree(const BackendJob &job, const std::string &what)
{
    SystemConfig cfg = testSystemConfig();
    BackendResult fab = makeBackend(ExecBackendKind::Fabric, cfg)
                            ->runJob(job);
    BackendResult fun = makeBackend(ExecBackendKind::Functional, cfg)
                            ->runJob(job);
    BackendResult tim = makeBackend(ExecBackendKind::Timing, cfg)
                            ->runJob(job);

    EXPECT_TRUE(fab.bitAccurate) << what;
    EXPECT_TRUE(fab.hasTiming) << what;
    EXPECT_TRUE(fun.bitAccurate) << what;
    EXPECT_TRUE(tim.hasTiming) << what;

    // Bits: functional must reproduce the fabric byte for byte.
    EXPECT_EQ(fun.checksum, fab.checksum) << what;
    // Time: the replay is a pure function of (program, layout, config),
    // so fabric and timing must report identical cycles — and traffic
    // and energy, which are sums over the same command walk.
    EXPECT_EQ(tim.simCycles, fab.simCycles) << what;
    EXPECT_EQ(tim.nocHopBytes, fab.nocHopBytes) << what;
    EXPECT_EQ(tim.energyJoules, fab.energyJoules) << what;
}

/** Plan the scenario's primary job and diff it; some scenarios plan no
 * job (near-memory only or untileable) — vacuously consistent. */
void
diffScenario(const char *name, bool full_size = false)
{
    SCOPED_TRACE(name);
    const BenchScenario *sc = findScenario(name);
    ASSERT_NE(sc, nullptr);
    Workload w = full_size ? sc->full() : sc->quick();
    SystemConfig cfg = diffConfig();
    auto job = planPrimaryJob(w, cfg, nullptr, kDiffVolumeCap);
    if (!job)
        return;
    expectBackendsAgree(*job, name);
}

#ifdef INFS_DIFF_FULL

// Nightly: every registry scenario, bit for bit and cycle for cycle.
TEST(BackendDiffFull, AllScenarios)
{
    for (const BenchScenario &sc : benchRegistry())
        diffScenario(sc.name);
}

// And again at paper-scale sizes (those under the volume cap): the
// boundary-tile and multi-bank paths only open up at full size.
TEST(BackendDiffFull, FullSizeScenarios)
{
    for (const BenchScenario &sc : benchRegistry())
        diffScenario(sc.name, /*full_size=*/true);
}

#else // !INFS_DIFF_FULL

// Per-PR tier-1 subset: cheap scenarios spanning the command mix —
// aligned compute (vec_add), tree reduction (array_sum), intra/inter
// shifts (stencil1d), 2-D shifts + subsampling (dwt2d), broadcast +
// reduce (mm_outer), and the iterative kmeans inner loop.
TEST(BackendDiff, FastScenarioSubset)
{
    for (const char *name : {"vec_add", "array_sum", "stencil1d", "dwt2d",
                             "mm_outer", "kmeans_inner"})
        diffScenario(name);
}

#endif // INFS_DIFF_FULL

/**
 * Randomized tDFGs (tests/common/random_tdfg.hh), lowered with the real
 * JIT and diffed across backends.
 */
void
diffRandomGraphs(std::uint64_t seed_base, unsigned count)
{
    SystemConfig cfg = diffConfig();
    AddressMap map(cfg.l3, cfg.noc.memCtrls);
    JitCompiler jit(cfg);
    const Coord n = 1024;
    unsigned lowered = 0;
    for (unsigned g_i = 0; g_i < count; ++g_i) {
        const TdfgGraph g =
            randomTdfg(seed_base + g_i, "rand" + std::to_string(g_i), n)
                .graph;
        TiledLayout lay({n}, {256});
        auto prog_or = jit.tryLower(g, lay, map);
        if (!prog_or)
            continue; // Constraint refusals are fine; diff what lowers.
        ++lowered;
        BackendJob job;
        job.layout = lay;
        job.prog = *prog_or;
        job.volume = n;
        expectBackendsAgree(job, g.name());
    }
    // The generator must actually exercise the contract, not skip
    // everything through lowering refusals.
    EXPECT_GE(lowered, count / 2) << "random generator mostly unlowerable";
}

#ifdef INFS_DIFF_FULL
TEST(BackendDiffFull, RandomizedGraphs)
{
    diffRandomGraphs(/*seed_base=*/7000, /*count=*/24);
}
#else
TEST(BackendDiff, RandomizedGraphs)
{
    diffRandomGraphs(/*seed_base=*/4000, /*count=*/8);
}
#endif

/** The registry itself: stable names, both factories callable. */
TEST(BackendDiff, RegistryIsComplete)
{
    EXPECT_EQ(benchRegistry().size(), 17u);
    EXPECT_NE(findScenario("vec_add"), nullptr);
    EXPECT_NE(findScenario("pointnet_msg"), nullptr);
    EXPECT_EQ(findScenario("no_such_scenario"), nullptr);
}

} // namespace
} // namespace infs
