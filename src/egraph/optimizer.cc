/**
 * @file
 * Equality-saturation rules (appendix Eqs. 3-9) and cost-based extraction.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "analysis/verify_tdfg.hh"
#include "egraph/egraph.hh"

namespace infs {

namespace {

bool
isCommutative(BitOp fn)
{
    return fn == BitOp::Add || fn == BitOp::Mul || fn == BitOp::Max ||
           fn == BitOp::Min;
}

/** Find an e-node of @p kind in class @p id; nullptr when absent. */
const ENode *
findKind(const EGraph &eg, EClassId id, TdfgKind kind)
{
    for (const ENode &n : eg.eclass(id).nodes)
        if (n.kind == kind)
            return &n;
    return nullptr;
}

/** Predicate for snapshot(): e-nodes of kind @p k. */
auto
isKind(TdfgKind k)
{
    return [k](const ENode &n) { return n.kind == k; };
}

/**
 * Copy of the e-nodes of class @p c that @p keep selects, in order. A
 * match copies before it merges, since merging into c grows (or moves)
 * c's node list.
 */
template <class Keep>
std::vector<ENode>
snapshot(const EGraph &eg, EClassId c, Keep &&keep)
{
    std::vector<ENode> out;
    for (const ENode &n : eg.eclass(c).nodes)
        if (keep(n))
            out.push_back(n);
    return out;
}

/** Merge @p a and @p b when they are distinct classes; true on a union. */
bool
unite(EGraph &eg, EClassId a, EClassId b)
{
    return eg.find(a) != eg.find(b) && eg.merge(a, b);
}

/**
 * The read set of one rule match (one class visit, or one tensor pair of
 * the expansion rule) from its last run, for semi-naive matching.
 *
 * Skipping a clean match is exact. Every class the match resolved is at
 * the version it had then, so a rerun would read the same e-nodes, build
 * the same e-nodes over the same canonical children, and find each of
 * them in the hashcons (the last run added or found it, and rebuild()
 * re-inserts it unchanged). Its merges would join classes that are
 * already one, or be refused again for differing domains. A match that
 * did unite classes changed a class it had read, so it is never clean.
 */
struct MatchRecord {
    bool ran = false;
    std::vector<EGraph::ClassRead> reads;

    bool
    clean(const EGraph &eg) const
    {
        if (!ran)
            return false;
        for (const EGraph::ClassRead &r : reads)
            if (eg.version(r.id) != r.version)
                return false;
        return true;
    }
};

/** Run @p match unless its record is clean; returns the unions made. */
template <class Match>
unsigned
runMatch(EGraph &eg, MatchRecord &rec, Match &&match)
{
    if (rec.clean(eg))
        return 0;
    rec.ran = true;
    rec.reads.clear();
    eg.trackReads(&rec.reads);
    unsigned unions = match();
    eg.trackReads(nullptr);
    // Versions only grow: keep each class's first (oldest) read.
    auto &r = rec.reads;
    std::sort(r.begin(), r.end(), [](const auto &x, const auto &y) {
        return x.id != y.id ? x.id < y.id : x.version < y.version;
    });
    r.erase(std::unique(r.begin(), r.end(),
                        [](const auto &x, const auto &y) {
                            return x.id == y.id;
                        }),
            r.end());
    return unions;
}

/** A rule matched one class at a time; returns the unions it made. */
using ClassRule = unsigned (*)(EGraph &eg, EClassId c);

unsigned
ruleCommutative(EGraph &eg, EClassId c)
{
    // Eq. 3b: C(f, A, B) <=> C(f, B, A).
    unsigned applied = 0;
    for (const ENode &n : snapshot(eg, c, [](const ENode &x) {
             return x.kind == TdfgKind::Compute && x.children.size() == 2 &&
                    isCommutative(x.fn);
         })) {
        ENode sw = n;
        std::swap(sw.children[0], sw.children[1]);
        applied += unite(eg, c, eg.add(std::move(sw)));
    }
    return applied;
}

unsigned
ruleDistributive(EGraph &eg, EClassId c)
{
    // Eq. 3c with g = multiply-by-shared-operand:
    // C(+, C(*, A, K), C(*, B, K)) => C(*, C(+, A, B), K).
    unsigned applied = 0;
    for (const ENode &n : snapshot(eg, c, [](const ENode &x) {
             return x.kind == TdfgKind::Compute && x.fn == BitOp::Add &&
                    x.children.size() == 2;
         })) {
        const ENode *lm = findKind(eg, n.children[0], TdfgKind::Compute);
        const ENode *rm = findKind(eg, n.children[1], TdfgKind::Compute);
        if (!lm || !rm || lm->fn != BitOp::Mul || rm->fn != BitOp::Mul)
            continue;
        if (lm->children.size() != 2 || rm->children.size() != 2)
            continue;
        // Find the shared factor K.
        for (int li = 0; li < 2; ++li) {
            for (int ri = 0; ri < 2; ++ri) {
                if (eg.find(lm->children[li]) != eg.find(rm->children[ri]))
                    continue;
                ENode sum;
                sum.kind = TdfgKind::Compute;
                sum.fn = BitOp::Add;
                sum.children = {lm->children[1 - li], rm->children[1 - ri]};
                EClassId sum_c = eg.add(std::move(sum));
                ENode mul;
                mul.kind = TdfgKind::Compute;
                mul.fn = BitOp::Mul;
                mul.children = {sum_c, lm->children[li]};
                applied += unite(eg, c, eg.add(std::move(mul)));
            }
        }
    }
    return applied;
}

unsigned
ruleComputeMoveExchange(EGraph &eg, EClassId c)
{
    // Eq. 4a: C(f, M(A0,i,d), M(A1,i,d), ...) <=> M(C(f, A0, A1, ...),i,d).
    // Constant operands are translation-invariant and pass through.
    unsigned applied = 0;
    for (const ENode &n : snapshot(eg, c, [](const ENode &x) {
             return x.kind == TdfgKind::Compute || x.kind == TdfgKind::Move;
         })) {
        if (n.kind == TdfgKind::Compute) {
            // Hoist: all non-const children contain a Move with the same
            // (dim, dist).
            bool ok = true, found = false;
            unsigned dim = 0;
            Coord dist = 0;
            std::vector<EClassId> inner;
            for (EClassId ch : n.children) {
                if (eg.eclass(ch).infiniteDomain) {
                    inner.push_back(ch);
                    continue;
                }
                const ENode *mv = findKind(eg, ch, TdfgKind::Move);
                if (!mv) {
                    ok = false;
                    break;
                }
                if (!found) {
                    dim = mv->dim;
                    dist = mv->dist;
                    found = true;
                } else if (mv->dim != dim || mv->dist != dist) {
                    ok = false;
                    break;
                }
                inner.push_back(mv->children[0]);
            }
            if (!ok || !found || dist == 0)
                continue;
            ENode cmp;
            cmp.kind = TdfgKind::Compute;
            cmp.fn = n.fn;
            cmp.children = std::move(inner);
            EClassId cmp_c = eg.add(std::move(cmp));
            ENode mv;
            mv.kind = TdfgKind::Move;
            mv.dim = dim;
            mv.dist = dist;
            mv.children = {cmp_c};
            applied += unite(eg, c, eg.add(std::move(mv)));
        } else {
            // Sink: M(C(f, A...), i, d) => C(f, M(A,i,d)...).
            const ENode *cm = findKind(eg, n.children[0], TdfgKind::Compute);
            if (!cm)
                continue;
            ENode cmp;
            cmp.kind = TdfgKind::Compute;
            cmp.fn = cm->fn;
            for (EClassId ch : cm->children) {
                if (eg.eclass(ch).infiniteDomain) {
                    cmp.children.push_back(ch);
                    continue;
                }
                ENode mv;
                mv.kind = TdfgKind::Move;
                mv.dim = n.dim;
                mv.dist = n.dist;
                mv.children = {ch};
                cmp.children.push_back(eg.add(std::move(mv)));
            }
            applied += unite(eg, c, eg.add(std::move(cmp)));
        }
    }
    return applied;
}

unsigned
ruleComputeBroadcastExchange(EGraph &eg, EClassId c)
{
    // Eq. 4b: C(f, B(A,i,dist,cnt)) <=> B(C(f, A),i,dist,cnt) (unary form:
    // other operands must be constants).
    unsigned applied = 0;
    for (const ENode &n : snapshot(eg, c, isKind(TdfgKind::Compute))) {
        const ENode *bc = nullptr;
        std::vector<EClassId> inner;
        bool ok = true;
        for (EClassId ch : n.children) {
            if (eg.eclass(ch).infiniteDomain) {
                inner.push_back(ch);
                continue;
            }
            if (bc != nullptr) {
                ok = false; // Only the unary (one tensor) form.
                break;
            }
            bc = findKind(eg, ch, TdfgKind::Broadcast);
            if (!bc) {
                ok = false;
                break;
            }
            inner.push_back(bc->children[0]);
        }
        if (!ok || bc == nullptr)
            continue;
        ENode cmp;
        cmp.kind = TdfgKind::Compute;
        cmp.fn = n.fn;
        cmp.children = std::move(inner);
        EClassId cmp_c = eg.add(std::move(cmp));
        ENode nb;
        nb.kind = TdfgKind::Broadcast;
        nb.dim = bc->dim;
        nb.dist = bc->dist;
        nb.count = bc->count;
        nb.children = {cmp_c};
        applied += unite(eg, c, eg.add(std::move(nb)));
    }
    return applied;
}

unsigned
ruleShrinkThroughCompute(EGraph &eg, EClassId c)
{
    // Eq. 9: C(f, S(i,p,q,A), consts...) => S(i,p,q, C(f, A, consts...)).
    // Multi-tensor form requires every tensor operand to carry the same
    // shrink. A class may hold several shrink nodes (one per expansion
    // pairing), so every candidate of the first tensor operand is tried.
    unsigned applied = 0;
    for (const ENode &n : snapshot(eg, c, isKind(TdfgKind::Compute))) {
        // Candidate shrinks of the first non-const child.
        std::vector<ENode> candidates;
        for (EClassId ch : n.children) {
            if (eg.eclass(ch).infiniteDomain)
                continue;
            candidates = snapshot(eg, ch, isKind(TdfgKind::Shrink));
            break; // Only the first tensor child seeds candidates.
        }
        for (const ENode &cand : candidates) {
            unsigned dim = cand.dim;
            Coord lo = cand.shrinkLo, hi = cand.shrinkHi;
            bool ok = true, first_tensor = true;
            std::vector<EClassId> inner;
            for (EClassId ch : n.children) {
                if (eg.eclass(ch).infiniteDomain) {
                    inner.push_back(ch);
                    continue;
                }
                if (first_tensor) {
                    inner.push_back(cand.children[0]);
                    first_tensor = false;
                    continue;
                }
                const ENode *match = nullptr;
                for (const ENode &s : eg.eclass(ch).nodes) {
                    if (s.kind == TdfgKind::Shrink && s.dim == dim &&
                        s.shrinkLo == lo && s.shrinkHi == hi) {
                        match = &s;
                        break;
                    }
                }
                if (!match) {
                    ok = false;
                    break;
                }
                inner.push_back(match->children[0]);
            }
            if (!ok)
                continue;
            ENode cmp;
            cmp.kind = TdfgKind::Compute;
            cmp.fn = n.fn;
            cmp.children = std::move(inner);
            EClassId cmp_c = eg.add(std::move(cmp));
            ENode s;
            s.kind = TdfgKind::Shrink;
            s.dim = dim;
            s.shrinkLo = lo;
            s.shrinkHi = hi;
            s.children = {cmp_c};
            applied += unite(eg, c, eg.add(std::move(s)));
        }
    }
    return applied;
}

unsigned
ruleShrinkThroughMove(EGraph &eg, EClassId c)
{
    // Eq. 7a/7b: M(S(i,p,q,A), j, d) <=> S(i', p', q', M(A, j, d)) where
    // the shrink range shifts by d when i == j.
    unsigned applied = 0;
    for (const ENode &n : snapshot(eg, c, isKind(TdfgKind::Move))) {
        const ENode *s = findKind(eg, n.children[0], TdfgKind::Shrink);
        if (!s)
            continue;
        ENode mv;
        mv.kind = TdfgKind::Move;
        mv.dim = n.dim;
        mv.dist = n.dist;
        mv.children = {s->children[0]};
        EClassId mv_c = eg.add(std::move(mv));
        ENode ns;
        ns.kind = TdfgKind::Shrink;
        ns.dim = s->dim;
        ns.shrinkLo = s->shrinkLo + (s->dim == n.dim ? n.dist : 0);
        ns.shrinkHi = s->shrinkHi + (s->dim == n.dim ? n.dist : 0);
        ns.children = {mv_c};
        applied += unite(eg, c, eg.add(std::move(ns)));
    }
    return applied;
}

/** True when shrink @p n keeps the whole range of its child class. */
bool
shrinkIsIdentity(const EGraph &eg, const ENode &n)
{
    const EClass &child = eg.eclass(n.children[0]);
    return !child.infiniteDomain && child.domain.lo(n.dim) == n.shrinkLo &&
           child.domain.hi(n.dim) == n.shrinkHi;
}

/** For a move @p n whose child class's first move runs along the same
 * dimension, that move; nullptr otherwise. */
const ENode *
innerMoveSameDim(const EGraph &eg, const ENode &n)
{
    const ENode *m = findKind(eg, n.children[0], TdfgKind::Move);
    return m && m->dim == n.dim ? m : nullptr;
}

unsigned
ruleShrinkCombine(EGraph &eg, EClassId c)
{
    // Eq. 6b plus elimination: a shrink whose range equals its child's
    // domain is the identity.
    unsigned applied = 0;
    for (const ENode &n : snapshot(eg, c, isKind(TdfgKind::Shrink))) {
        if (shrinkIsIdentity(eg, n)) {
            applied += unite(eg, c, n.children[0]);
            continue;
        }
        const ENode *s = findKind(eg, n.children[0], TdfgKind::Shrink);
        if (s && s->dim == n.dim) {
            ENode ns;
            ns.kind = TdfgKind::Shrink;
            ns.dim = n.dim;
            ns.shrinkLo = std::max(n.shrinkLo, s->shrinkLo);
            ns.shrinkHi = std::min(n.shrinkHi, s->shrinkHi);
            ns.children = {s->children[0]};
            applied += unite(eg, c, eg.add(std::move(ns)));
        }
    }
    return applied;
}

unsigned
ruleMoveFusion(EGraph &eg, EClassId c)
{
    // M(M(A,i,d1),i,d2) => M(A,i,d1+d2); M(A,i,0) => A.
    unsigned applied = 0;
    for (const ENode &n : snapshot(eg, c, isKind(TdfgKind::Move))) {
        if (n.dist == 0) {
            applied += unite(eg, c, n.children[0]);
            continue;
        }
        const ENode *m = innerMoveSameDim(eg, n);
        if (!m)
            continue;
        Coord total = m->dist + n.dist;
        if (total == 0) {
            applied += unite(eg, c, m->children[0]);
        } else {
            ENode nm;
            nm.kind = TdfgKind::Move;
            nm.dim = n.dim;
            nm.dist = total;
            nm.children = {m->children[0]};
            applied += unite(eg, c, eg.add(std::move(nm)));
        }
    }
    return applied;
}

/**
 * True when some class holds an identity e-node already united with
 * the class itself: a shrink keeping its child's whole range, a
 * zero-distance move, or a move cancelling its child class's first move
 * back onto the class. The elimination rules match such a node again on
 * every iteration without uniting anything.
 */
bool
holdsSelfIdentity(const EGraph &eg)
{
    for (EClassId c : eg.canonicalClasses()) {
        for (const ENode &n : eg.eclass(c).nodes) {
            EClassId same = invalidEClass;
            if (n.kind == TdfgKind::Shrink && shrinkIsIdentity(eg, n)) {
                same = n.children[0];
            } else if (n.kind == TdfgKind::Move && n.dist == 0) {
                same = n.children[0];
            } else if (n.kind == TdfgKind::Move) {
                const ENode *m = innerMoveSameDim(eg, n);
                if (m && m->dist + n.dist == 0)
                    same = m->children[0];
            }
            if (same != invalidEClass && eg.find(same) == c)
                return true;
        }
    }
    return false;
}

/** Semi-naive state of one saturation: the last run of every match. */
struct MatchRecords {
    /** Per class rule, indexed by class id. */
    std::vector<std::vector<MatchRecord>> visits;
    /** Tensor expansion: a stable index per tensor e-node, and the pair
     * records, pairs[hi][lo] for tensor indices lo < hi. */
    std::unordered_map<ENode, unsigned, ENodeHash> tensorIndex;
    std::vector<std::vector<MatchRecord>> pairs;

    MatchRecord &
    pair(unsigned a, unsigned b)
    {
        return a < b ? pairs[b][a] : pairs[a][b];
    }
};

/** Run @p rule over every canonical class, skipping clean visits. */
unsigned
applyClassRule(EGraph &eg, ClassRule rule, std::vector<MatchRecord> &visits)
{
    unsigned applied = 0;
    std::vector<EClassId> classes = eg.canonicalClasses();
    visits.resize(eg.idBound());
    for (EClassId c : classes)
        applied += runMatch(eg, visits[c], [&] { return rule(eg, c); });
    return applied;
}

unsigned
ruleTensorExpansion(EGraph &eg, MatchRecords &rec)
{
    // Eq. 5: T(..., p, q, ...) <=> S(i, p, q, T(..., p', q', ...)) for any
    // containing range. We expand pairs of tensors over the same array to
    // their bounding union — exactly the "tensor expansion" transformation
    // of §3.2, which unlocks compute reuse. Each pair is one match: a pair
    // whose classes are unchanged since its last run is skipped.
    unsigned applied = 0;
    // Collect tensor nodes (array, rect, class, stable index).
    struct TensorRef {
        ArrayId array;
        HyperRect rect;
        EClassId cls;
        unsigned index;
    };
    std::vector<TensorRef> tensors;
    for (EClassId c : eg.canonicalClasses()) {
        for (const ENode &n : eg.eclass(c).nodes) {
            if (n.kind != TdfgKind::Tensor)
                continue;
            auto [it, fresh] = rec.tensorIndex.try_emplace(
                n, static_cast<unsigned>(rec.tensorIndex.size()));
            if (fresh)
                rec.pairs.emplace_back(it->second);
            tensors.push_back({n.array, n.rect, c, it->second});
        }
    }

    for (std::size_t i = 0; i < tensors.size(); ++i) {
        for (std::size_t j = i + 1; j < tensors.size(); ++j) {
            if (tensors[i].array != tensors[j].array)
                continue;
            if (tensors[i].rect == tensors[j].rect)
                continue;
            MatchRecord &pr = rec.pair(tensors[i].index, tensors[j].index);
            applied += runMatch(eg, pr, [&] {
                unsigned united = 0;
                HyperRect uni =
                    tensors[i].rect.boundingUnion(tensors[j].rect);
                ENode big;
                big.kind = TdfgKind::Tensor;
                big.array = tensors[i].array;
                big.rect = uni;
                EClassId big_c = eg.add(std::move(big));
                for (const TensorRef *t : {&tensors[i], &tensors[j]}) {
                    if (t->rect == uni)
                        continue;
                    // Chain shrinks per differing dimension.
                    EClassId cur = big_c;
                    HyperRect cur_rect = uni;
                    for (unsigned d = 0; d < uni.dims(); ++d) {
                        if (t->rect.lo(d) == cur_rect.lo(d) &&
                            t->rect.hi(d) == cur_rect.hi(d))
                            continue;
                        ENode s;
                        s.kind = TdfgKind::Shrink;
                        s.dim = d;
                        s.shrinkLo = t->rect.lo(d);
                        s.shrinkHi = t->rect.hi(d);
                        s.children = {cur};
                        cur = eg.add(std::move(s));
                        cur_rect = cur_rect.withDim(d, t->rect.lo(d),
                                                    t->rect.hi(d));
                    }
                    united += unite(eg, t->cls, cur);
                }
                return united;
            });
        }
    }
    return applied;
}

/** One pass of every enabled rule, in a fixed order; returns unions. */
unsigned
applyRules(EGraph &eg, const TdfgOptimizer::Options &opts,
           MatchRecords &rec)
{
    unsigned n = 0;
    unsigned slot = 0;
    auto classRule = [&](ClassRule rule) {
        if (rec.visits.size() <= slot)
            rec.visits.resize(slot + 1);
        n += applyClassRule(eg, rule, rec.visits[slot++]);
    };
    if (opts.enableAlgebra) {
        classRule(ruleCommutative);
        classRule(ruleDistributive);
    }
    if (opts.enableExchange) {
        classRule(ruleComputeMoveExchange);
        classRule(ruleComputeBroadcastExchange);
    }
    if (opts.enableExpansion)
        n += ruleTensorExpansion(eg, rec);
    classRule(ruleShrinkThroughCompute);
    classRule(ruleShrinkThroughMove);
    classRule(ruleShrinkCombine);
    classRule(ruleMoveFusion);
    return n;
}

} // namespace

Expected<ExtractionResult>
TdfgOptimizer::tryOptimize(const TdfgGraph &g, const ExtractionCost &cost)
{
    rewrites_ = 0;
    iterations_ = 0;
    sizes_.clear();
    EGraph eg(g.dims());

    // Ingest: one e-class per original node (hash-consing may alias).
    std::vector<EClassId> classOf(g.size(), invalidEClass);
    for (NodeId id = 0; id < g.size(); ++id) {
        const TdfgNode &n = g.node(id);
        ENode en;
        en.kind = n.kind;
        en.fn = n.fn;
        en.dim = n.dim;
        en.dist = n.dist;
        en.count = n.count;
        en.array = n.array;
        en.constValue = n.constValue;
        if (n.kind == TdfgKind::Tensor)
            en.rect = n.domain;
        if (n.kind == TdfgKind::Shrink) {
            en.shrinkLo = n.domain.lo(n.dim);
            en.shrinkHi = n.domain.hi(n.dim);
        }
        if (n.kind == TdfgKind::Stream) {
            en.streamTag = static_cast<std::int32_t>(id);
            en.rect = n.domain;
        }
        for (NodeId op : n.operands)
            en.children.push_back(classOf[op]);
        classOf[id] = eg.add(std::move(en));
    }

    // Saturate within budgets ("can be exhaustive or terminated early").
    // The loop stops after an iteration that unites no classes, unless
    // the e-graph holds a self-identity node: every iteration matches
    // such a node again, and the loop has always counted that as
    // progress, so those graphs run the whole iteration budget. Deciding
    // this from the e-graph rather than from match counts keeps the stop
    // independent of which matches semi-naive matching skips.
    MatchRecords rec;
    for (unsigned it = 0; it < opts_.maxIterations; ++it) {
        ++iterations_;
        unsigned unions = applyRules(eg, opts_, rec);
        eg.rebuild();
        rewrites_ += unions;
        sizes_.push_back({eg.numClasses(), eg.numNodes()});
        if ((unions == 0 && !holdsSelfIdentity(eg)) ||
            sizes_.back().nodes > opts_.maxNodes)
            break;
    }
    nodesAdded_ = eg.nodesAdded();
    hashconsHits_ = eg.hashconsHits();

    if (logVerbosity() >= 3)
        std::fprintf(stderr, "%s", eg.dump().c_str());

    // Roots: every output plus every (side-effecting) stream node.
    std::vector<EClassId> roots;
    for (const auto &o : g.outputs())
        roots.push_back(eg.find(classOf[o.node]));
    for (NodeId id = 0; id < g.size(); ++id)
        if (g.node(id).kind == TdfgKind::Stream)
            roots.push_back(eg.find(classOf[id]));
    Expected<ExtractionResult> res = extract(eg, roots, cost, g);
    if (!res)
        return res.error();
    // Re-attach outputs.
    for (std::size_t i = 0; i < g.outputs().size(); ++i)
        res->graph.output(res->rootNodes[i], g.outputs()[i].array);
    if (opts_.verifyExtraction) {
        if (auto ok = checkTdfg(res->graph); !ok)
            return ok.error();
    }
    return res;
}

ExtractionResult
TdfgOptimizer::optimize(const TdfgGraph &g, const ExtractionCost &cost)
{
    Expected<ExtractionResult> res = tryOptimize(g, cost);
    if (!res) {
        infs_fatal("tDFG '%s': optimization failed with no fallback: %s",
                   g.name().c_str(), res.error().str().c_str());
    }
    return std::move(*res);
}

double
ExtractionCost::nodeCost(const ENode &n, const EClass &cls) const
{
    double vol = cls.infiniteDomain
                     ? 1.0
                     : static_cast<double>(std::max<std::int64_t>(
                           cls.domain.volume(), 1));
    double waves = std::ceil(vol / bitlinesTotal);
    switch (n.kind) {
      case TdfgKind::Tensor:
      case TdfgKind::ConstVal:
        return 0.01;
      case TdfgKind::Shrink:
        return 0.01; // Lowered to a nop by the JIT (appendix).
      case TdfgKind::Compute:
        return static_cast<double>(latency.opCycles(n.fn, DType::Fp32)) *
               waves * std::max<double>(1.0, n.children.size() - 1.0);
      case TdfgKind::Move:
        // Intra-array shift latency plus a traffic term growing with the
        // amount of moved data.
        return static_cast<double>(
                   latency.intraShiftCycles(DType::Fp32)) * waves +
               vol / bitlinesTotal;
      case TdfgKind::Broadcast:
        // Broadcast reuses the read data through the H tree: cheap.
        return static_cast<double>(
                   latency.intraShiftCycles(DType::Fp32)) * waves * 0.5;
      case TdfgKind::Reduce:
        return static_cast<double>(latency.opCycles(n.fn, DType::Fp32)) *
               10.0 * waves;
      case TdfgKind::Stream:
        return 1000.0; // Opaque near-memory work.
    }
    return 1.0;
}

namespace {

/** Per-class chosen e-node (nullptr: none), indexed by class id,
 * produced by one cost fixpoint. */
using Selection = std::vector<const ENode *>;

/**
 * Relax class costs to a fixpoint. @p refs optionally amortizes a child's
 * cost across its (candidate) consumers, which lets extraction see sharing
 * (tree-cost extraction double-counts shared subgraphs).
 */
void
relaxCosts(const EGraph &eg, const ExtractionCost &cost,
           const std::vector<unsigned> *refs, std::vector<double> &best,
           Selection &sel)
{
    const double inf = std::numeric_limits<double>::infinity();
    // Near-ties (within cost_tol) break toward the candidate whose
    // children span larger domains: computes over expanded tensors cost
    // the same cycles on bitline-parallel hardware, and the expanded form
    // is the canonical one that hash-consing shares across shrunk
    // consumers (§3.2 "tensor expansion", appendix Eq. 5).
    const double cost_tol = 0.5;
    auto classes = eg.canonicalClasses();
    best.assign(eg.idBound(), inf);
    std::vector<double> vol(eg.idBound(), -inf);
    sel.assign(eg.idBound(), nullptr);
    auto childVolume = [&](const ENode &n) {
        double v = 0.0;
        for (EClassId ch : n.children) {
            const EClass &cc = eg.eclass(ch);
            if (!cc.infiniteDomain)
                v += static_cast<double>(cc.domain.volume());
        }
        return v;
    };
    for (unsigned round = 0; round < 64; ++round) {
        bool changed = false;
        for (EClassId c : classes) {
            for (const ENode &n : eg.eclass(c).nodes) {
                double total = cost.nodeCost(n, eg.eclass(c));
                bool feasible = true;
                for (EClassId ch : n.children) {
                    EClassId cc = eg.find(ch);
                    double bc = best[cc];
                    if (bc == inf) {
                        feasible = false;
                        break;
                    }
                    double share = 1.0;
                    if (refs != nullptr && (*refs)[cc] > 1)
                        share = (*refs)[cc];
                    total += bc / share;
                }
                if (!feasible)
                    continue;
                double v = childVolume(n);
                bool better = total < best[c] - cost_tol ||
                              (total < best[c] + cost_tol && v > vol[c]);
                if (better) {
                    best[c] = std::min(best[c], total);
                    vol[c] = v;
                    sel[c] = &n;
                    changed = true;
                }
            }
        }
        if (!changed)
            break;
    }
}

/**
 * Build a tDFG from a selection; memoized so shared classes emit once.
 * The amortized selection may contain cycles (its relaxation is only
 * asymptotically convergent); on re-entry we fall back to the tree
 * selection, which positive node costs guarantee to be acyclic.
 */
struct GraphBuilder {
    GraphBuilder(const EGraph &eg_, const Selection &sel_,
                 const Selection &fallback_, const TdfgGraph &original_,
                 TdfgGraph &g_)
        : eg(eg_), sel(sel_), fallback(fallback_), original(original_),
          g(g_), built(eg_.idBound(), invalidNode),
          inProgress(eg_.idBound(), 0)
    {}

    const EGraph &eg;
    const Selection &sel;
    const Selection &fallback;
    const TdfgGraph &original;
    TdfgGraph &g;
    std::vector<NodeId> built;        ///< Per class id; invalidNode: none.
    std::vector<char> inProgress;     ///< Per class id.
    /** First failure; once set, build() unwinds returning invalidNode. */
    std::optional<Error> err;

    NodeId
    build(EClassId c, bool use_fallback = false)
    {
        if (err)
            return invalidNode;
        c = eg.find(c);
        if (built[c] != invalidNode)
            return built[c];
        if (inProgress[c]) {
            if (use_fallback) {
                // The tree selection's positive node costs should make
                // it acyclic; a cycle here means the cost fixpoint was
                // corrupted, so reject the extraction rather than abort.
                err = Error{ErrCode::VerifyFailed,
                            "extraction: cycle in acyclic tree selection "
                            "at class " + std::to_string(c)};
                return invalidNode;
            }
            use_fallback = true;
        }
        const ENode *chosen = (use_fallback ? fallback : sel)[c];
        if (chosen == nullptr) {
            err = Error{ErrCode::VerifyFailed,
                        "extraction: class " + std::to_string(c) +
                            " unreachable in the cost fixpoint"};
            return invalidNode;
        }
        const ENode &n = *chosen;
        inProgress[c] = true;
        std::vector<NodeId> kids;
        for (EClassId ch : n.children)
            kids.push_back(build(ch, use_fallback));
        inProgress[c] = false;
        if (err)
            return invalidNode;
        // A deeper frame may have completed this class via the fallback
        // path; reuse it rather than emitting a duplicate node.
        if (built[c] != invalidNode)
            return built[c];
        NodeId id = invalidNode;
        switch (n.kind) {
          case TdfgKind::Tensor:
            id = g.tensor(n.array, n.rect);
            break;
          case TdfgKind::ConstVal:
            id = g.constant(n.constValue);
            break;
          case TdfgKind::Compute:
            id = g.compute(n.fn, kids);
            break;
          case TdfgKind::Move:
            id = g.move(kids[0], n.dim, n.dist);
            break;
          case TdfgKind::Broadcast:
            id = g.broadcast(kids[0], n.dim, n.dist, n.count);
            break;
          case TdfgKind::Shrink:
            id = g.shrink(kids[0], n.dim, n.shrinkLo, n.shrinkHi);
            break;
          case TdfgKind::Reduce:
            id = g.reduce(kids[0], n.fn, n.dim);
            break;
          case TdfgKind::Stream: {
            const TdfgNode &orig = original.node(
                static_cast<NodeId>(n.streamTag));
            id = g.stream(orig.streamRole, orig.pattern,
                          kids.empty() ? invalidNode : kids[0],
                          orig.domain, orig.name, orig.fn);
            break;
          }
        }
        built[c] = id;
        return id;
    }
};

} // namespace

Expected<ExtractionResult>
TdfgOptimizer::extract(const EGraph &eg, const std::vector<EClassId> &roots,
                       const ExtractionCost &cost,
                       const TdfgGraph &original) const
{
    // Phase 1: plain tree-cost fixpoint.
    std::vector<double> cost1;
    Selection sel1;
    relaxCosts(eg, cost, nullptr, cost1, sel1);

    // Reference counts over classes reachable from the roots: how many
    // candidate e-nodes consume each class. Classes consumed more than
    // once are sharing opportunities.
    std::vector<unsigned> refs(eg.idBound(), 0);
    {
        std::vector<EClassId> stack;
        std::vector<char> seen(eg.idBound(), 0);
        for (EClassId r : roots)
            stack.push_back(eg.find(r));
        while (!stack.empty()) {
            EClassId c = stack.back();
            stack.pop_back();
            if (seen[c])
                continue;
            seen[c] = true;
            for (const ENode &n : eg.eclass(c).nodes) {
                for (EClassId ch : n.children) {
                    EClassId cc = eg.find(ch);
                    ++refs[cc];
                    if (!seen[cc])
                        stack.push_back(cc);
                }
            }
        }
    }

    // Phase 2: sharing-amortized fixpoint.
    std::vector<double> cost2;
    Selection sel2;
    relaxCosts(eg, cost, &refs, cost2, sel2);

    // Build both candidate graphs and keep the one whose *true* cost (each
    // node charged once) is lower — never worse than tree extraction.
    auto buildGraph = [&](const Selection &sel,
                          ExtractionResult &res) -> std::optional<Error> {
        GraphBuilder b(eg, sel, sel1, original, res.graph);
        for (EClassId r : roots)
            res.rootNodes.push_back(b.build(r));
        if (b.err)
            return b.err;
        res.cost = 0.0;
        for (NodeId id = 0; id < res.graph.size(); ++id) {
            const TdfgNode &n = res.graph.node(id);
            ENode en;
            en.kind = n.kind;
            en.fn = n.fn;
            en.children.resize(n.operands.size());
            EClass pseudo;
            pseudo.domain = n.infiniteDomain ? HyperRect{} : n.domain;
            pseudo.infiniteDomain = n.infiniteDomain;
            res.cost += cost.nodeCost(en, pseudo);
        }
        return std::nullopt;
    };

    ExtractionResult tree{TdfgGraph(eg.dims(), original.name() + ".opt"),
                          0.0, {}};
    if (std::optional<Error> e = buildGraph(sel1, tree))
        return *std::move(e); // No tree selection: nothing to extract.
    ExtractionResult shared{TdfgGraph(eg.dims(), original.name() + ".opt"),
                            0.0, {}};
    if (std::optional<Error> e = buildGraph(sel2, shared)) {
        // The amortized selection is an optimization attempt on top of
        // the sound tree extraction; losing it costs performance only.
        infs_warn("extract: amortized selection rejected (%s); using tree "
                  "extraction", e->str().c_str());
        return tree;
    }
    if (logVerbosity() >= 2)
        std::fprintf(stderr, "extract: tree=%.2f shared=%.2f\n", tree.cost,
                     shared.cost);
    return shared.cost <= tree.cost ? std::move(shared) : std::move(tree);
}

} // namespace infs
