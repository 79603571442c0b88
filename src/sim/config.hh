/**
 * @file
 * System and microarchitecture parameters (paper Table 2). All simulated
 * components are constructed from one SystemConfig so experiments can sweep
 * parameters without recompiling.
 */

#ifndef INFS_SIM_CONFIG_HH
#define INFS_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace infs {

/** Core model parameters (abstract OOO8; throughput-bound phases). */
struct CoreConfig {
    double ghz = 2.0;              ///< Clock frequency.
    unsigned simdLanesFp32 = 16;   ///< One 512-bit vector op per cycle.
};

/** Shared L3 (NUCA) parameters. */
struct L3Config {
    unsigned numBanks = 64;           ///< One bank per tile, 8x8.
    unsigned waysPerBank = 18;        ///< 18 ways; 16 reservable.
    unsigned computeWays = 16;        ///< Ways reservable for in-memory.
    unsigned arraysPerWay = 16;       ///< 256x256 SRAM arrays per way.
    unsigned wordlines = 256;         ///< Rows per SRAM array.
    unsigned bitlines = 256;          ///< Columns (PEs) per SRAM array.
    Tick bankLatency = 20;            ///< Access latency per Table 2.
    Bytes interleave = 1024;          ///< Static NUCA interleave granule.
    Bytes htreeBandwidth = 64;        ///< H-tree total bytes/cycle per bank.

    /** Bytes of one SRAM array (256x256 bits = 8kB). */
    Bytes arrayBytes() const { return Bytes(wordlines) * bitlines / 8; }
    /** Total capacity in bytes across all ways. */
    Bytes totalBytes() const
    {
        return Bytes(numBanks) * waysPerBank * arraysPerWay * arrayBytes();
    }
    /** Compute-reservable capacity in bytes. */
    Bytes computeBytes() const
    {
        return Bytes(numBanks) * computeWays * arraysPerWay * arrayBytes();
    }
    /** Total compute SRAM arrays available for in-memory execution. */
    std::uint64_t totalComputeArrays() const
    {
        return std::uint64_t(numBanks) * computeWays * arraysPerWay;
    }
    /** Total bitlines (PEs) available for in-memory execution. */
    std::uint64_t totalBitlines() const
    {
        return totalComputeArrays() * bitlines;
    }
};

/** Mesh network-on-chip parameters. */
struct NocConfig {
    unsigned meshX = 8;
    unsigned meshY = 8;
    Bytes linkBytes = 32;      ///< Bytes per link per cycle.
    Tick linkLatency = 1;
    Tick routerStages = 5;     ///< Pipeline stages per router hop.
    unsigned memCtrls = 16;    ///< Memory controllers on the mesh edge.
};

/** Main memory parameters. */
struct DramConfig {
    double bandwidthGBs = 25.6;   ///< DDR4-3200 per Table 2.
    Tick latency = 200;           ///< Loaded access latency in core cycles.

    /** Bytes deliverable per core cycle at the given core frequency. */
    double bytesPerCycle(double ghz = 2.0) const
    {
        return bandwidthGBs / ghz; // GB/s over Gcycle/s.
    }
};

/** Stream engine parameters (NSC near-memory baseline). */
struct StreamConfig {
    Tick computeInitLatency = 4;     ///< SEL3 compute initiation.
    unsigned flowControlLines = 8;   ///< Sync every N cache lines.
    /** fp32 lanes per bank for near-stream computation (NSC executes
     * SIMD ops on a spare hardware context, §2.1). */
    unsigned sel3LanesFp32 = 16;
};

/**
 * Fault-injection parameters. Rates are per-event probabilities; with
 * `enabled == false` (the default) every fault hook is skipped entirely
 * and simulation results are bit-identical to a fault-free build.
 */
struct FaultConfig {
    bool enabled = false;          ///< Master switch for all injection.
    std::uint64_t seed = 0x1f5eedULL; ///< Deterministic schedule seed.

    /** Probability a compute command suffers an SRAM wordline bit flip. */
    double sramBitFlipRate = 0.0;
    /** Probability a NoC packet is dropped or corrupted in flight. */
    double nocFaultRate = 0.0;
    /** Probability an in-memory command fails transiently at issue. */
    double cmdTransientRate = 0.0;
    /** Fraction of command faults that persist across retries. */
    double persistentFraction = 0.0;

    unsigned retryBudget = 3;      ///< Bounded retries before degrading.
    Tick detectCycles = 4;         ///< Parity/ECC check latency per fault.
    Tick retryPenaltyCycles = 8;   ///< Re-issue overhead per retry.
};

/**
 * How much static analysis (src/analysis) the runtime performs on its own
 * intermediate artifacts before executing them.
 */
enum class VerifyLevel : std::uint8_t {
    Off,    ///< No verification (production default).
    Graphs, ///< tDFG verifier on every graph the runtime handles.
    Full,   ///< Graphs + command-stream hazard analysis per lowering.
};

/** Human-readable verify-level name ("off"/"graphs"/"full"). */
const char *verifyLevelName(VerifyLevel v);

/**
 * Which execution backend runs lowered in-memory jobs (src/core/backend.hh);
 * the tools pick one with --backend. The enum lives here, next to
 * VerifyLevel, so name parsing stays in the sim layer.
 */
enum class ExecBackendKind : std::uint8_t {
    Fabric,     ///< Bit-accurate SRAM fabric: ground truth for bits.
    Functional, ///< Word-level command replay: bit-identical, no bit-serial.
    Timing,     ///< Cycle replay only: sim_cycles/NoC/energy, no bits.
};

/** Human-readable backend name ("fabric"/"functional"/"timing"). */
const char *backendName(ExecBackendKind b);

/** Parse a backend name; returns false (leaving @p out untouched) on an
 * unknown name so CLIs can fail loudly with a usage message. */
bool parseBackendName(const std::string &name, ExecBackendKind &out);

/**
 * Which SIMD kernel table the bit-plane kernels (src/bitserial/simd.hh)
 * dispatch to. One binary carries both tables; the active one is picked
 * at runtime from this knob, the INFS_SIMD environment variable, or cpuid
 * detection (in that order). The tables are bit-identical by construction
 * and certified by tests/bitserial/test_simd_paths.cc.
 */
enum class SimdIsa : std::uint8_t {
    Auto,     ///< Resolve from INFS_SIMD, else detect the best available.
    Portable, ///< Portable scalar kernels (the reference table).
    Avx2,     ///< x86 AVX2 kernels (requires hardware support).
};

/** Human-readable ISA name ("auto"/"portable"/"avx2"). */
const char *simdIsaName(SimdIsa isa);

/** Parse an ISA name; returns false (leaving @p out untouched) on an
 * unknown name so CLIs can fail loudly with a usage message. */
bool parseSimdIsaName(const std::string &name, SimdIsa &out);

/** Tensor controller / JIT runtime parameters. */
struct TensorConfig {
    unsigned lotEntries = 16;          ///< Layout override table regions.
    DType elemType = DType::Fp32;      ///< In-memory element type.
    /** JIT cost per lowered tDFG node in core cycles (calibrated so the
     * Table 3 regions land near the paper's 220 us mean with gauss_elim
     * as the 1616 us outlier, §8). */
    Tick jitPerNodeCycles = 100;
    /** JIT cost per generated command in core cycles. */
    Tick jitPerCommandCycles = 12;
    /** Fixed JIT invocation overhead in cycles. */
    Tick jitFixedCycles = 400;
};

/** Full system configuration (Table 2 defaults). */
struct SystemConfig {
    CoreConfig core;
    L3Config l3;
    NocConfig noc;
    DramConfig dram;
    StreamConfig stream;
    TensorConfig tensor;
    FaultConfig fault;
    /** Static-analysis level for graphs and lowered command streams. */
    VerifyLevel verifyLevel = VerifyLevel::Off;

    /**
     * Lowered-command optimizer (src/jit/cmdopt.hh): movement coalescing,
     * redundant-command elimination, and hazard-driven Sync elision on
     * every cold lowering, between Alg. 2 lowering and backend execution.
     * Byte-preserving on the output slots by construction and certified
     * by the backend differential tests; at verifyLevel Full the hazard
     * analyzer additionally re-checks every optimized stream and the JIT
     * falls back to the raw stream on any diagnostic (DESIGN.md §13).
     */
    bool cmdOpt = true;

    /** Sync-elision sub-pass of the command optimizer; separate knob so
     * the ablation harness (`infs-bench --ablate`) can quantify barrier
     * elision apart from the peephole rewrites. No effect when cmdOpt is
     * off. */
    bool cmdOptSyncElision = true;

    /** SIMD ISA for the bit-plane kernels (DESIGN.md §14). Auto resolves
     * from the INFS_SIMD environment variable, then cpuid detection.
     * Every path produces byte-identical bits and identical ExecStats. */
    SimdIsa simd = SimdIsa::Auto;

    /**
     * Fat-binary schedule selection (DESIGN.md §14): the JIT lowers a few
     * tile schedules per memoized region (Executor's kFatBinaryCandidates)
     * and the executor picks at dispatch time by replayed cost weighted
     * with observed bank occupancy. Candidates sharing the reduced
     * dimension's tile size are byte-identical on outputs, so selection
     * never changes results — only simulated time. Off = the
     * single-schedule path.
     */
    bool fatBinary = true;

    /**
     * Host threads the simulator's parallel engine may use (bank-parallel
     * fabric execution, per-subtensor JIT lowering, region pre-lowering —
     * DESIGN.md §10). 0 = `hardware_concurrency`; 1 = exact legacy
     * single-thread behavior. Simulation results are bit-identical for
     * every value (the engine shards deterministically and merges in a
     * fixed order), so this is purely a wall-clock knob.
     */
    unsigned hostThreads = 0;

    unsigned numCores() const { return noc.meshX * noc.meshY; }

    /** Peak fp32 multicore throughput in ops/cycle (Eq. 1 baseline). */
    double basePeakOpsPerCycle() const
    {
        return double(numCores()) * core.simdLanesFp32;
    }

    /** Human-readable one-line summary for bench headers. */
    std::string summary() const;
};

/** The default Table 2 configuration. */
SystemConfig defaultSystemConfig();

/** A scaled-down configuration for fast unit tests (same shape). */
SystemConfig testSystemConfig();

} // namespace infs

#endif // INFS_SIM_CONFIG_HH
