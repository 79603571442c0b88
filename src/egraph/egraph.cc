#include "egraph/egraph.hh"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>

namespace infs {

bool
ENode::operator==(const ENode &o) const
{
    return kind == o.kind && fn == o.fn && dim == o.dim && dist == o.dist &&
           count == o.count && shrinkLo == o.shrinkLo &&
           shrinkHi == o.shrinkHi && array == o.array &&
           constValue == o.constValue && rect == o.rect &&
           streamTag == o.streamTag && children == o.children;
}

std::size_t
ENodeHash::operator()(const ENode &n) const
{
    auto mix = [](std::size_t h, std::size_t v) {
        return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    };
    std::size_t h = static_cast<std::size_t>(n.kind);
    h = mix(h, static_cast<std::size_t>(n.fn));
    h = mix(h, n.dim);
    h = mix(h, static_cast<std::size_t>(n.dist));
    h = mix(h, static_cast<std::size_t>(n.count));
    h = mix(h, static_cast<std::size_t>(n.shrinkLo));
    h = mix(h, static_cast<std::size_t>(n.shrinkHi));
    h = mix(h, static_cast<std::size_t>(n.array));
    h = mix(h, std::hash<double>()(n.constValue));
    h = mix(h, static_cast<std::size_t>(n.streamTag));
    for (unsigned d = 0; d < n.rect.dims(); ++d) {
        h = mix(h, static_cast<std::size_t>(n.rect.lo(d)));
        h = mix(h, static_cast<std::size_t>(n.rect.hi(d)));
    }
    for (EClassId c : n.children)
        h = mix(h, c);
    return h;
}

EClassId
EGraph::find(EClassId id) const
{
    infs_assert(id < parent_.size(), "eclass %u out of %zu", id,
                parent_.size());
    while (parent_[id] != id) {
        parent_[id] = parent_[parent_[id]]; // Path halving.
        id = parent_[id];
    }
    if (reads_)
        reads_->push_back({id, version_[id]});
    return id;
}

void
EGraph::domainOf(const ENode &n, HyperRect &out, bool &infinite) const
{
    infinite = false;
    switch (n.kind) {
      case TdfgKind::Tensor:
        out = n.rect;
        return;
      case TdfgKind::ConstVal:
        infinite = true;
        return;
      case TdfgKind::Compute: {
        bool have = false;
        for (EClassId ch : n.children) {
            const EClass &c = eclass(ch);
            if (c.infiniteDomain)
                continue;
            if (!have) {
                out = c.domain;
                have = true;
            } else {
                out = out.intersect(c.domain);
            }
        }
        if (!have)
            infinite = true;
        return;
      }
      case TdfgKind::Move:
        out = eclass(n.children[0]).domain.shifted(n.dim, n.dist);
        return;
      case TdfgKind::Broadcast: {
        const HyperRect &src = eclass(n.children[0]).domain;
        Coord span = src.size(n.dim);
        out = src.withDim(n.dim, src.lo(n.dim) + n.dist,
                          src.lo(n.dim) + n.dist + n.count * span);
        return;
      }
      case TdfgKind::Shrink:
        out = eclass(n.children[0]).domain.withDim(n.dim, n.shrinkLo,
                                                   n.shrinkHi);
        return;
      case TdfgKind::Reduce: {
        const HyperRect &src = eclass(n.children[0]).domain;
        out = src.withDim(n.dim, src.lo(n.dim), src.lo(n.dim) + 1);
        return;
      }
      case TdfgKind::Stream:
        // Stream domains are carried in rect (opaque to rewriting).
        out = n.rect;
        return;
    }
    infs_panic("domainOf: unknown kind");
}

EClassId
EGraph::add(ENode n)
{
    for (EClassId &ch : n.children) // Canonical children.
        ch = find(ch);
    auto it = hashcons_.find(n);
    if (it != hashcons_.end()) {
        ++hashconsHits_;
        return find(it->second);
    }
    ++nodesAdded_;

    HyperRect dom;
    bool infinite = false;
    domainOf(n, dom, infinite);

    EClassId id = static_cast<EClassId>(classes_.size());
    EClass cls;
    cls.nodes.push_back(n);
    cls.domain = dom;
    cls.infiniteDomain = infinite;
    classes_.push_back(std::move(cls));
    parent_.push_back(id);
    version_.push_back(++clock_);
    hashcons_.emplace(std::move(n), id);
    if (reads_)
        reads_->push_back({id, version_[id]});
    return id;
}

Expected<bool>
EGraph::tryMerge(EClassId a, EClassId b)
{
    if (!validId(a) || !validId(b)) {
        return Error{ErrCode::InvalidArgument,
                     "egraph merge(" + std::to_string(a) + ", " +
                         std::to_string(b) + ") beyond the " +
                         std::to_string(parent_.size()) +
                         " allocated classes"};
    }
    return merge(a, b);
}

bool
EGraph::merge(EClassId a, EClassId b)
{
    a = find(a);
    b = find(b);
    if (a == b)
        return true;
    const EClass &ca = classes_[a];
    const EClass &cb = classes_[b];
    // Equivalence requires identical domains (§appendix): reject unsound
    // merges defensively.
    if (ca.infiniteDomain != cb.infiniteDomain)
        return false;
    if (!ca.infiniteDomain && !(ca.domain == cb.domain))
        return false;
    // Union into the smaller id for determinism.
    if (b < a)
        std::swap(a, b);
    parent_[b] = a;
    auto &na = classes_[a].nodes;
    auto &nb = classes_[b].nodes;
    na.insert(na.end(), std::make_move_iterator(nb.begin()),
              std::make_move_iterator(nb.end()));
    nb.clear();
    touch(a);
    touch(b);
    dirty_ = true;
    return true;
}

void
EGraph::rebuild()
{
    while (dirty_) {
        dirty_ = false;
        hashcons_.clear();
        for (EClassId id = 0; id < classes_.size(); ++id) {
            if (parent_[id] != id)
                continue;
            auto &nodes = classes_[id].nodes;
            std::vector<ENode> canon;
            canon.reserve(nodes.size());
            bool changed = false;
            for (ENode &n : nodes) {
                for (EClassId &ch : n.children) {
                    EClassId root = find(ch);
                    changed |= root != ch;
                    ch = root;
                }
                if (std::find(canon.begin(), canon.end(), n) == canon.end())
                    canon.push_back(std::move(n));
                else
                    changed = true;
            }
            nodes = std::move(canon);
            if (changed)
                touch(id);
            for (const ENode &n : nodes) {
                auto [it, inserted] = hashcons_.emplace(n, id);
                if (!inserted && find(it->second) != id) {
                    // Congruence: identical nodes in different classes.
                    merge(it->second, id);
                }
            }
        }
    }
}

std::size_t
EGraph::numClasses() const
{
    std::size_t n = 0;
    for (EClassId id = 0; id < classes_.size(); ++id)
        if (parent_[id] == id)
            ++n;
    return n;
}

std::size_t
EGraph::numNodes() const
{
    std::size_t n = 0;
    for (EClassId id = 0; id < classes_.size(); ++id)
        if (parent_[id] == id)
            n += classes_[id].nodes.size();
    return n;
}

const EClass &
EGraph::eclass(EClassId id) const
{
    return classes_[find(id)];
}

std::vector<EClassId>
EGraph::canonicalClasses() const
{
    std::vector<EClassId> out;
    for (EClassId id = 0; id < classes_.size(); ++id)
        if (parent_[id] == id && !classes_[id].nodes.empty())
            out.push_back(id);
    return out;
}


std::string
EGraph::dump() const
{
    std::ostringstream os;
    for (EClassId id : canonicalClasses()) {
        const EClass &c = classes_[id];
        os << "class " << id;
        if (c.infiniteDomain)
            os << " (inf)";
        else
            os << " " << c.domain.str();
        os << ":\n";
        for (const ENode &n : c.nodes) {
            os << "  " << tdfgKindName(n.kind);
            if (n.kind == TdfgKind::Compute || n.kind == TdfgKind::Reduce)
                os << "/" << bitOpName(n.fn);
            if (n.kind == TdfgKind::Tensor)
                os << " a" << n.array << " " << n.rect.str();
            if (n.kind == TdfgKind::ConstVal)
                os << " " << n.constValue;
            if (n.kind == TdfgKind::Move)
                os << " d" << n.dim << ":" << n.dist;
            if (n.kind == TdfgKind::Shrink)
                os << " d" << n.dim << ":[" << n.shrinkLo << ","
                   << n.shrinkHi << ")";
            for (EClassId ch : n.children)
                os << " %" << find(ch);
            os << "\n";
        }
    }
    return os.str();
}

} // namespace infs

