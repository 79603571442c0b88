/**
 * @file
 * Golden extraction corpus (DESIGN.md §2): a structural hash of what
 * TdfgOptimizer extracts from each of a fixed set of tDFGs — conv2d at
 * quick and full size, the appendix's Fig 20 example, two symmetric
 * stencils and seeded random graphs. The hashes in
 * extraction_golden.inc pin the output node for node, so a change to
 * saturation or extraction that alters any extracted graph, its cost or
 * its roots fails here. Also pins conv2d's e-graph growth per iteration.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random_tdfg.hh"
#include "common/tdfg_hash.hh"
#include "egraph/egraph.hh"
#include "workloads/workloads.hh"

namespace infs {
namespace {

/** Hash of one optimizer outcome: every field of every extracted node in
 * order, the outputs, the root nodes and the cost; or the error. */
std::uint64_t
extractionHash(const Expected<ExtractionResult> &res)
{
    StructuralHash h;
    if (!res) {
        h.add(static_cast<int>(res.error().code));
        h.add(res.error().message);
        return h.value();
    }
    h.add(res->graph);
    h.add(res->rootNodes);
    h.add(res->cost);
    return h.value();
}

/** The appendix's worked example (Fig 20). */
TdfgGraph
corpusFig20(Coord n)
{
    TdfgGraph g(1, "fig20");
    NodeId a0 = g.tensor(0, HyperRect::interval(0, n - 2), "A0");
    NodeId a2 = g.tensor(0, HyperRect::interval(2, n), "A2");
    NodeId v = g.constant(3.0, "V");
    NodeId m0 = g.compute(BitOp::Mul, {a0, v});
    NodeId m2 = g.compute(BitOp::Mul, {a2, v});
    NodeId s = g.compute(BitOp::Add,
                         {g.move(m0, 0, 1), g.move(m2, 0, -1)});
    g.output(s, 1);
    return g;
}

/**
 * 1-D symmetric 3-point stencil: B[i] = C0*A[i-1] + C1*A[i] + C0*A[i+1].
 * @p fused_sum adds the three terms in one 3-input compute (the
 * BM_EGraphOptimizeStencil form); otherwise as two 2-input adds.
 */
TdfgGraph
corpusSymStencil(Coord n, bool fused_sum)
{
    TdfgGraph g(1, "sym_stencil");
    NodeId a0 = g.tensor(0, HyperRect::interval(0, n - 2));
    NodeId a1 = g.tensor(0, HyperRect::interval(1, n - 1));
    NodeId a2 = g.tensor(0, HyperRect::interval(2, n));
    NodeId c0 = g.constant(0.25);
    NodeId c1 = g.constant(0.5);
    NodeId t0 = g.move(g.compute(BitOp::Mul, {a0, c0}), 0, 1);
    NodeId t1 = g.compute(BitOp::Mul, {a1, c1});
    NodeId t2 = g.move(g.compute(BitOp::Mul, {a2, c0}), 0, -1);
    NodeId s = fused_sum
                   ? g.compute(BitOp::Add, {t0, t1, t2})
                   : g.compute(BitOp::Add,
                               {g.compute(BitOp::Add, {t0, t1}), t2});
    g.output(s, 1);
    return g;
}

/** Number of seeded random tDFGs in the corpus. */
constexpr unsigned kCorpusRandomGraphs = 200;

/** Every corpus graph, by name, in a fixed order. */
std::vector<std::pair<std::string, TdfgGraph>>
extractionCorpus()
{
    std::vector<std::pair<std::string, TdfgGraph>> c;
    c.emplace_back("conv2d_quick", conv2dTdfg(24, 20));
    c.emplace_back("conv2d_full", conv2dTdfg(128, 128));
    c.emplace_back("fig20", corpusFig20(64));
    c.emplace_back("sym_stencil", corpusSymStencil(48, false));
    c.emplace_back("bm_stencil", corpusSymStencil(1024, true));
    for (unsigned i = 0; i < kCorpusRandomGraphs; ++i) {
        std::string name = "rand" + std::to_string(i);
        c.emplace_back(name, randomTdfg(5000 + i, name).graph);
    }
    return c;
}

const std::vector<std::pair<std::string, std::uint64_t>> kGolden = {
#include "egraph/extraction_golden.inc"
};

TEST(ExtractionGolden, CorpusExtractsAsRecorded)
{
    auto corpus = extractionCorpus();
    ASSERT_EQ(corpus.size(), kGolden.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto &[name, g] = corpus[i];
        ASSERT_EQ(name, kGolden[i].first);
        TdfgOptimizer opt;
        EXPECT_EQ(extractionHash(opt.tryOptimize(g)), kGolden[i].second)
            << name;
    }
}

TEST(ExtractionGolden, Conv2dGrowthPerIteration)
{
    using Size = TdfgOptimizer::EGraphSize;
    const std::vector<Size> expected = {
        {198, 407}, {240, 690}, {237, 805}, {229, 828},
        {231, 848}, {237, 872}, {237, 882}, {236, 884}};
    TdfgOptimizer opt;
    ASSERT_TRUE(opt.tryOptimize(conv2dTdfg(128, 128)));
    EXPECT_EQ(opt.iterationsRun(), expected.size());
    EXPECT_EQ(opt.sizeAfterIteration(), expected);
    // Each e-node is created once; semi-naive matching keeps the calls
    // that only find existing e-nodes to a fraction of the 26,538 that
    // re-running every match made (27,848 add() calls in all).
    EXPECT_EQ(opt.nodesAdded(), 1310u);
    EXPECT_LE(opt.nodesAdded() + opt.hashconsHits(), 27848u / 2);
}

TEST(ExtractionGolden, Conv2dWorkloadCompilesTheSameGraph)
{
    // makeConv2d's static compile is exactly the optimizer's extraction.
    Workload w = makeConv2d(128, 128);
    TdfgOptimizer opt;
    Expected<ExtractionResult> res = opt.tryOptimize(conv2dTdfg(128, 128));
    ASSERT_TRUE(res);
    EXPECT_EQ(tdfgHash(w.phases[0].buildTdfg(0)), tdfgHash(res->graph));
}

} // namespace
} // namespace infs
