/**
 * @file
 * Equality graph (e-graph) for tDFG optimization (§3.2 "Optimizing tDFG"
 * and the appendix). A from-scratch reimplementation of the equality-
 * saturation substrate the paper builds with the egg library: union-find
 * over equivalence classes, hash-consed e-nodes, batched rewriting, and
 * cost-based extraction. Rules match semi-naively: per-class version
 * stamps and recorded read sets let a rule skip every match whose inputs
 * have not changed since it last ran (DESIGN.md §2).
 *
 * Two tDFG nodes are equivalent iff they represent the same result AND
 * share the same lattice domain, so every e-class carries its domain and
 * merges across differing domains are rejected.
 */

#ifndef INFS_EGRAPH_EGRAPH_HH
#define INFS_EGRAPH_EGRAPH_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/expected.hh"
#include "tdfg/graph.hh"

namespace infs {

/** Equivalence class id. */
using EClassId = std::uint32_t;
inline constexpr EClassId invalidEClass = ~EClassId(0);

/**
 * One operator application over e-classes. Parameter fields mirror
 * TdfgNode; children refer to e-classes rather than nodes.
 */
struct ENode {
    TdfgKind kind = TdfgKind::Tensor;
    BitOp fn = BitOp::Add;
    unsigned dim = 0;
    Coord dist = 0;
    Coord count = 0;
    Coord shrinkLo = 0;     ///< Shrink target range.
    Coord shrinkHi = 0;
    ArrayId array = invalidArray;
    double constValue = 0.0;
    HyperRect rect;         ///< Tensor: source rect (identity-relevant).
    /** Original node id for opaque Stream nodes (not rewritten). */
    std::int32_t streamTag = -1;
    std::vector<EClassId> children;

    bool operator==(const ENode &o) const;
};

/** Hash for hash-consing. */
struct ENodeHash {
    std::size_t operator()(const ENode &n) const;
};

/** One equivalence class: its e-nodes and semantic domain. */
struct EClass {
    std::vector<ENode> nodes;
    HyperRect domain;
    bool infiniteDomain = false;
};

/**
 * The e-graph. Nodes are added with canonical children; merge() unions
 * classes and rebuild() restores congruence (hash-consing invariants).
 */
class EGraph
{
  public:
    /** A class a tracked reader resolved, at the version it saw. */
    struct ClassRead {
        EClassId id;
        std::uint64_t version;
    };

    explicit EGraph(unsigned dims) : dims_(dims) {}

    unsigned dims() const { return dims_; }

    /** Add (or find) an e-node; returns its class. */
    EClassId add(ENode n);

    /** Canonical representative of a class. */
    EClassId find(EClassId id) const;

    /** True when @p id names an allocated class (canonical or not). */
    bool validId(EClassId id) const { return id < parent_.size(); }

    /** One past the largest allocated class id. */
    std::size_t idBound() const { return parent_.size(); }

    /**
     * Version stamp of class @p id (not canonicalized). It changes when
     * the class is created, absorbs a class or is absorbed, or has its
     * e-nodes re-canonicalized or de-duplicated by rebuild(); never
     * otherwise (a class's domain is fixed).
     */
    std::uint64_t version(EClassId id) const { return version_[id]; }

    /**
     * Until called again with nullptr, append to @p out every class
     * find() resolves to and every class add() creates, at its current
     * version: the read set of one rule match. Every class access of a
     * rule goes through find(), so nothing a match depends on escapes.
     */
    void trackReads(std::vector<ClassRead> *out) { reads_ = out; }

    /** add() calls that created an e-node. */
    std::size_t nodesAdded() const { return nodesAdded_; }
    /** add() calls the hashcons answered with an existing class. */
    std::size_t hashconsHits() const { return hashconsHits_; }

    /**
     * Union two classes. Rejected (returns false) when their domains
     * differ — equivalence in the tDFG requires equal domains.
     */
    bool merge(EClassId a, EClassId b);

    /**
     * merge() for untrusted callers: a malformed id becomes a
     * recoverable InvalidArgument diagnostic instead of an abort. The
     * value carries merge()'s domain-compatibility verdict.
     */
    Expected<bool> tryMerge(EClassId a, EClassId b);

    /** Restore congruence closure after a batch of merges. */
    void rebuild();

    /** Number of canonical classes. */
    std::size_t numClasses() const;

    /** Total e-nodes across canonical classes. */
    std::size_t numNodes() const;

    const EClass &eclass(EClassId id) const;

    /** All canonical class ids (stable snapshot). */
    std::vector<EClassId> canonicalClasses() const;

    /** Compute the semantic domain an e-node would produce. */
    void domainOf(const ENode &n, HyperRect &out, bool &infinite) const;

    /** Multi-line dump of every canonical class for debugging. */
    std::string dump() const;

  private:
    void touch(EClassId id) { version_[id] = ++clock_; }

    unsigned dims_;
    mutable std::vector<EClassId> parent_;  // Union-find.
    std::vector<EClass> classes_;
    std::vector<std::uint64_t> version_;    // Per class id; see version().
    std::uint64_t clock_ = 0;
    std::unordered_map<ENode, EClassId, ENodeHash> hashcons_;
    bool dirty_ = false;
    std::vector<ClassRead> *reads_ = nullptr;
    std::size_t nodesAdded_ = 0;
    std::size_t hashconsHits_ = 0;
};

/**
 * Architecture-informed extraction cost model (appendix: "estimated
 * latency of move vs. compute node, the amount of moved/broadcast data,
 * and the number of computations").
 */
struct ExtractionCost {
    double bitlinesTotal = 4.0 * 1024 * 1024;  ///< PEs available.
    LatencyTable latency;

    /** Cost of one e-node excluding children. */
    double nodeCost(const ENode &n, const EClass &cls) const;
};

/** Result of extraction: a tDFG rebuilt from the cheapest e-nodes. */
struct ExtractionResult {
    TdfgGraph graph;
    double cost = 0.0;
    std::vector<NodeId> rootNodes;  ///< tDFG node per requested root.
};

/**
 * Equality-saturation optimizer implementing the appendix's rewrite rules
 * (Eqs. 3-9 plus tensor expansion and compute reuse).
 */
class TdfgOptimizer
{
  public:
    struct Options {
        unsigned maxIterations = 8;   ///< Saturation rounds budget.
        std::size_t maxNodes = 20000; ///< Early-termination node budget.
        bool enableExpansion = true;  ///< Tensor expansion (Eq. 5).
        bool enableExchange = true;   ///< Compute/move/bc exchange (Eq. 4).
        bool enableAlgebra = true;    ///< Assoc/comm/distrib (Eq. 3).
        /** Re-run the tDFG verifier on every extracted graph, so a bad
         * rewrite surfaces as a diagnostic at the rewrite (DESIGN.md §9). */
        bool verifyExtraction = true;
    };

    TdfgOptimizer() = default;
    explicit TdfgOptimizer(Options opts) : opts_(opts) {}

    /**
     * Optimize @p g: ingest into an e-graph, saturate, extract the
     * cheapest equivalent graph. Outputs are preserved. Extraction
     * failures (cyclic or incomplete selections, an extracted graph that
     * fails verification) are recoverable diagnostics: callers keep the
     * unoptimized graph and move on.
     */
    Expected<ExtractionResult>
    tryOptimize(const TdfgGraph &g,
                const ExtractionCost &cost = ExtractionCost{});

    /** tryOptimize() for callers with no fallback; failures are fatal. */
    ExtractionResult optimize(const TdfgGraph &g,
                              const ExtractionCost &cost = ExtractionCost{});

    /** E-graph size after one saturation iteration. */
    struct EGraphSize {
        std::size_t classes = 0;
        std::size_t nodes = 0;
        bool operator==(const EGraphSize &) const = default;
    };

    /** Rewrite matches of the last run that united two classes. */
    unsigned rewritesApplied() const { return rewrites_; }
    /** Number of saturation iterations performed in the last run. */
    unsigned iterationsRun() const { return iterations_; }
    /** E-nodes the last run created (ingest included). */
    std::size_t nodesAdded() const { return nodesAdded_; }
    /** add() calls of the last run that found an existing e-node. */
    std::size_t hashconsHits() const { return hashconsHits_; }
    /** Canonical classes and e-nodes after each iteration of the last
     * run. */
    const std::vector<EGraphSize> &sizeAfterIteration() const
    {
        return sizes_;
    }

  private:
    Expected<ExtractionResult> extract(const EGraph &eg,
                                       const std::vector<EClassId> &roots,
                                       const ExtractionCost &cost,
                                       const TdfgGraph &original) const;

    Options opts_{};
    unsigned rewrites_ = 0;
    unsigned iterations_ = 0;
    std::size_t nodesAdded_ = 0;
    std::size_t hashconsHits_ = 0;
    std::vector<EGraphSize> sizes_;
};

} // namespace infs

#endif // INFS_EGRAPH_EGRAPH_HH
