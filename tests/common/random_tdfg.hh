/**
 * @file
 * Seeded random tDFGs shared by the backend fidelity diffs and the
 * e-graph extraction corpus: layered graphs over a 1-D lattice mixing
 * computes, immediates, moves, broadcasts and a final optional reduce.
 * A seed always yields the same graph, so failures replay exactly.
 */

#ifndef INFS_TESTS_COMMON_RANDOM_TDFG_HH
#define INFS_TESTS_COMMON_RANDOM_TDFG_HH

#include <string>
#include <vector>

#include "sim/rng.hh"
#include "tdfg/graph.hh"

namespace infs {

/** A random graph and the number of input arrays it reads (ids 0..n-1);
 * its output array is id @p inputs. */
struct RandomTdfg {
    TdfgGraph graph;
    unsigned inputs = 0;
};

/** Build the random tDFG for @p seed over the lattice [0, @p n). */
inline RandomTdfg
randomTdfg(std::uint64_t seed, std::string name, Coord n = 1024)
{
    const std::vector<BitOp> ops = {BitOp::Add, BitOp::Sub, BitOp::Mul,
                                    BitOp::Max, BitOp::Min};
    Rng rng(seed);
    RandomTdfg r{TdfgGraph(1, std::move(name))};
    TdfgGraph &g = r.graph;
    std::vector<NodeId> pool;
    r.inputs = 2 + static_cast<unsigned>(rng.nextBounded(2));
    for (unsigned a = 0; a < r.inputs; ++a)
        pool.push_back(g.tensor(static_cast<ArrayId>(a),
                                HyperRect::interval(0, n)));
    const unsigned n_ops = 3 + static_cast<unsigned>(rng.nextBounded(5));
    for (unsigned k = 0; k < n_ops; ++k) {
        NodeId a = pool[rng.nextBounded(pool.size())];
        switch (rng.nextBounded(4)) {
        case 0: { // Binary compute of two live nodes.
            NodeId b = pool[rng.nextBounded(pool.size())];
            pool.push_back(g.compute(ops[rng.nextBounded(ops.size())],
                                     {a, b}));
            break;
        }
        case 1: // Compute against an immediate constant.
            pool.push_back(
                g.compute(ops[rng.nextBounded(ops.size())],
                          {a, g.constant(0.25 * (1 + rng.nextBounded(
                                                      16)))}));
            break;
        case 2: { // Shift by a mixed intra/inter-tile distance.
            Coord dist = static_cast<Coord>(rng.nextBounded(40)) - 20;
            pool.push_back(g.move(a, 0, dist == 0 ? 1 : dist));
            break;
        }
        default: { // Short-range broadcast along dim 0.
            Coord cnt = 2 + static_cast<Coord>(rng.nextBounded(3));
            pool.push_back(g.broadcast(a, 0, 0, cnt));
            break;
        }
        }
    }
    NodeId out = pool.back();
    if (rng.nextBounded(3) == 0)
        out = g.reduce(pool.back(), BitOp::Add, 0);
    g.output(out, static_cast<ArrayId>(r.inputs));
    return r;
}

} // namespace infs

#endif // INFS_TESTS_COMMON_RANDOM_TDFG_HH
