/**
 * @file
 * Structural hash of a tDFG: every field of every node in order, plus
 * the outputs. Two graphs hash alike exactly when they are node-for-node
 * the same (up to 64-bit collisions), which lets tests pin a graph
 * without storing it.
 */

#ifndef INFS_TESTS_COMMON_TDFG_HASH_HH
#define INFS_TESTS_COMMON_TDFG_HASH_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "tdfg/graph.hh"

namespace infs {

/** FNV-1a over the bytes of every field fed in. */
class StructuralHash
{
  public:
    template <class T>
    void
    add(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        unsigned char b[sizeof(T)];
        std::memcpy(b, &v, sizeof(T));
        for (unsigned char c : b)
            h_ = (h_ ^ c) * 0x100000001b3ULL;
    }

    void
    add(const std::string &s)
    {
        add(s.size());
        for (char c : s)
            add(c);
    }

    template <class T>
    void
    add(const std::vector<T> &v)
    {
        add(v.size());
        for (const T &x : v)
            add(x);
    }

    /** Feed every field of every node of @p g, then its outputs. */
    void
    add(const TdfgGraph &g)
    {
        add(g.dims());
        add(g.name());
        add(g.size());
        for (const TdfgNode &n : g.nodes()) {
            add(n.kind);
            add(n.operands);
            add(n.infiniteDomain);
            for (unsigned d = 0; d < n.domain.dims(); ++d) {
                add(n.domain.lo(d));
                add(n.domain.hi(d));
            }
            add(n.array);
            add(n.constValue);
            add(n.fn);
            add(n.dim);
            add(n.dist);
            add(n.count);
            add(n.streamRole);
            add(n.pattern.array);
            add(n.pattern.start);
            add(n.pattern.strides);
            add(n.pattern.counts);
            add(n.pattern.indirectArray);
            add(n.name);
        }
        for (const TdfgGraph::Output &o : g.outputs()) {
            add(o.node);
            add(o.array);
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Structural hash of @p g alone. */
inline std::uint64_t
tdfgHash(const TdfgGraph &g)
{
    StructuralHash h;
    h.add(g);
    return h.value();
}

} // namespace infs

#endif // INFS_TESTS_COMMON_TDFG_HASH_HH
