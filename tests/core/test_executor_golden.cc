/**
 * @file
 * Executor golden: every deterministic ExecStats field of every registry
 * scenario under every paradigm, pinned against executor_golden.inc.
 * Rows cover quick sizes under testSystemConfig and paper sizes under
 * defaultSystemConfig, each as built, in steady-state mode
 * (assumeTransposed) and in steady-state mode under a persistent command
 * fault. Any change to routing, fallback, lowering or timing accounting
 * that moves a simulated number fails here.
 *
 * Regenerate only when a change is meant to alter simulated results: run
 * with an empty table and paste the "missing row" lines the test prints.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>

#include "core/executor.hh"
#include "workloads/registry.hh"

namespace infs {
namespace {

/** One pinned run. Ticks are cycles then the Fig 14 breakdown in
 * ExecStats declaration order. */
struct GoldenRow {
    const char *key;
    std::array<Tick, 10> ticks;
    std::uint64_t inMemOps;
    std::uint64_t totalOps;
    std::uint64_t regionsDegraded;
    int scheduleId;
    const char *chosenTile;
    const char *phaseCycles;
    std::array<double, numTrafficClasses> nocHopBytes;
    double energyJoules;
};

const GoldenRow kGolden[] = {
#include "core/executor_golden.inc"
};

std::array<Tick, 10>
ticksOf(const ExecStats &st)
{
    return {st.cycles,        st.dramCycles,        st.jitCycles,
            st.moveCycles,    st.computeCycles,     st.finalReduceCycles,
            st.mixCycles,     st.nearMemCycles,     st.coreCycles,
            st.syncCycles};
}

std::string
tileString(const ExecStats &st)
{
    std::string s;
    for (Coord c : st.chosenTile)
        s.append(s.empty() ? "" : " ").append(std::to_string(c));
    return s;
}

std::string
phaseString(const ExecStats &st)
{
    std::string s;
    for (const auto &[name, t] : st.phaseCycles)
        s.append(s.empty() ? "" : " ")
            .append(name)
            .append(":")
            .append(std::to_string(t));
    return s;
}

/** @p st as one executor_golden.inc line. */
std::string
formatRow(const std::string &key, const ExecStats &st)
{
    std::string s = "    {\"" + key + "\", {";
    const auto ticks = ticksOf(st);
    for (std::size_t i = 0; i < ticks.size(); ++i)
        s.append(i ? ", " : "").append(std::to_string(ticks[i]));
    s.append("}, ")
        .append(std::to_string(st.inMemOps))
        .append(", ")
        .append(std::to_string(st.totalOps))
        .append(", ")
        .append(std::to_string(st.regionsDegraded))
        .append(", ")
        .append(std::to_string(st.scheduleId))
        .append(", \"")
        .append(tileString(st))
        .append("\", \"")
        .append(phaseString(st))
        .append("\", {");
    char buf[32];
    for (std::size_t c = 0; c < st.nocHopBytes.size(); ++c) {
        std::snprintf(buf, sizeof buf, "%.17g", st.nocHopBytes[c]);
        s.append(c ? ", " : "").append(buf);
    }
    std::snprintf(buf, sizeof buf, "%.17g", st.energyJoules);
    s.append("}, ").append(buf).append("},");
    return s;
}

void
expectRelNear(double got, double want, const std::string &what)
{
    EXPECT_LE(std::fabs(got - want),
              1e-9 * std::max(std::fabs(got), std::fabs(want)))
        << what << ": got " << got << ", want " << want;
}

void
expectMatches(const GoldenRow &g, const ExecStats &st)
{
    EXPECT_EQ(ticksOf(st), g.ticks);
    EXPECT_EQ(st.inMemOps, g.inMemOps);
    EXPECT_EQ(st.totalOps, g.totalOps);
    EXPECT_EQ(st.regionsDegraded, g.regionsDegraded);
    EXPECT_EQ(st.scheduleId, g.scheduleId);
    EXPECT_EQ(tileString(st), g.chosenTile);
    EXPECT_EQ(phaseString(st), g.phaseCycles);
    for (std::size_t c = 0; c < st.nocHopBytes.size(); ++c)
        expectRelNear(st.nocHopBytes[c], g.nocHopBytes[c],
                      std::string("nocHopBytes[")
                          .append(std::to_string(c))
                          .append("]"));
    expectRelNear(st.energyJoules, g.energyJoules, "energyJoules");
}

constexpr Paradigm kParadigms[] = {
    Paradigm::Base1T, Paradigm::Base, Paradigm::NearL3,
    Paradigm::InL3,   Paradigm::InfS, Paradigm::InfSNoJit};

/** Workload variants run for every scenario at one size. */
enum class Mode { AsBuilt, Steady, Fault };

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::AsBuilt: return "asbuilt";
      case Mode::Steady: return "steady";
      case Mode::Fault: return "fault";
    }
    return "?";
}

/** Run every scenario x @p modes x paradigm at one size and compare each
 * row whose key starts with @p size against the table. */
void
checkSize(const std::string &size, const SystemConfig &base_cfg,
          std::initializer_list<Mode> modes)
{
    std::map<std::string, const GoldenRow *> golden;
    for (const GoldenRow &g : kGolden)
        if (std::string(g.key).find("/" + size + "/") != std::string::npos)
            golden.emplace(g.key, &g);

    std::size_t seen = 0;
    for (const BenchScenario &sc : benchRegistry()) {
        for (Mode mode : modes) {
            SystemConfig cfg = base_cfg;
            if (mode == Mode::Fault) {
                // Hard command fault: every in-memory region exhausts its
                // retries and degrades.
                cfg.fault.enabled = true;
                cfg.fault.cmdTransientRate = 1.0;
                cfg.fault.persistentFraction = 1.0;
                cfg.fault.retryBudget = 2;
            }
            Workload w = size == "quick" ? sc.quick() : sc.full();
            w.assumeTransposed = mode != Mode::AsBuilt;
            for (Paradigm p : kParadigms) {
                const std::string key = std::string(sc.name) + "/" + size +
                                        "/" + modeName(mode) + "/" +
                                        paradigmName(p);
                SCOPED_TRACE(key);
                InfinitySystem sys(cfg);
                ExecStats st = Executor(sys, p).run(w);
                auto it = golden.find(key);
                if (it == golden.end()) {
                    ADD_FAILURE() << "missing row:\n" << formatRow(key, st);
                    continue;
                }
                ++seen;
                expectMatches(*it->second, st);
            }
        }
    }
    EXPECT_EQ(seen, golden.size()) << "stale rows in the table";
}

TEST(ExecutorGolden, QuickSizes)
{
    checkSize("quick", testSystemConfig(),
              {Mode::AsBuilt, Mode::Steady, Mode::Fault});
}

TEST(ExecutorGolden, PaperSizes)
{
    checkSize("full", defaultSystemConfig(),
              {Mode::AsBuilt, Mode::Steady, Mode::Fault});
}

} // namespace
} // namespace infs
