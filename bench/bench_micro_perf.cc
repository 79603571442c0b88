/**
 * @file
 * Host-side performance microbenchmarks (google-benchmark): the cost of
 * the simulator's own hot paths — bit-serial ops over a 256x256 array,
 * the TTU transpose, the 32x32 bit-transpose kernel of each SIMD table,
 * Alg. 1 decomposition, Alg. 2 lowering, JIT lowering of a full stencil,
 * e-graph optimization (a 1-D stencil and conv2d at 128x128), and one
 * stencil3d program on the bit-accurate fabric at 1 and 4 host threads.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "bitserial/compute_sram.hh"
#include "bitserial/simd.hh"
#include "bitserial/transpose.hh"
#include "core/backend.hh"
#include "egraph/egraph.hh"
#include "jit/jit.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "workloads/registry.hh"
#include "workloads/workloads.hh"

namespace infs {
namespace {

void
BM_BitSerialInt32Add(benchmark::State &state)
{
    ComputeSram sram(256, 256);
    Rng rng(1);
    for (unsigned bl = 0; bl < 256; ++bl) {
        sram.writeElement(bl, 0, DType::Int32, rng.next() & 0xffffffff);
        sram.writeElement(bl, 32, DType::Int32, rng.next() & 0xffffffff);
    }
    BitRow mask = sram.fullMask();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sram.execBinary(BitOp::Add, DType::Int32, 0, 32, 64, mask));
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_BitSerialInt32Add);

void
BM_BitSerialInt32Mul(benchmark::State &state)
{
    ComputeSram sram(256, 256);
    Rng rng(2);
    for (unsigned bl = 0; bl < 256; ++bl) {
        sram.writeElement(bl, 0, DType::Int32, rng.next() & 0xffffffff);
        sram.writeElement(bl, 32, DType::Int32, rng.next() & 0xffffffff);
    }
    BitRow mask = sram.fullMask();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sram.execBinary(BitOp::Mul, DType::Int32, 0, 32, 64, mask));
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_BitSerialInt32Mul);

void
BM_TransposeRoundTrip(benchmark::State &state)
{
    ComputeSram sram(256, 256);
    TensorTransposeUnit ttu;
    std::vector<std::uint64_t> data(256);
    Rng rng(3);
    for (auto &v : data)
        v = rng.next() & 0xffffffff;
    for (auto _ : state) {
        ttu.loadTransposed(sram, data, DType::Fp32, 0);
        ttu.storeFromTransposed(sram, data, DType::Fp32, 0);
    }
    state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_TransposeRoundTrip);

void
BM_Transpose32(benchmark::State &state)
{
    // One 32x32 block through the kernel of the table named by the arg
    // (a SimdIsa value); skipped where the host lacks the ISA.
    const auto isa = static_cast<SimdIsa>(state.range(0));
    if (!simd::available(isa)) {
        state.SkipWithError("ISA not available on this host");
        return;
    }
    const simd::SimdKernels &k = simd::kernelsFor(isa);
    state.SetLabel(simdIsaName(isa));
    std::uint32_t in[32], out[32];
    Rng rng(3);
    for (auto &w : in)
        w = static_cast<std::uint32_t>(rng.next());
    for (auto _ : state) {
        k.transpose32(in, out);
        benchmark::DoNotOptimize(out);
        in[0] ^= out[31]; // Chain the calls.
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Transpose32)
    ->Arg(static_cast<int>(SimdIsa::Portable))
    ->Arg(static_cast<int>(SimdIsa::Avx2));

void
BM_DecomposeTensor(benchmark::State &state)
{
    HyperRect t = HyperRect::box2(3, 2041, 5, 2043);
    std::vector<Coord> tile{16, 16};
    for (auto _ : state)
        benchmark::DoNotOptimize(decomposeTensor(t, tile));
}
BENCHMARK(BM_DecomposeTensor);

void
BM_CompileMove(benchmark::State &state)
{
    HyperRect t = HyperRect::box2(0, 2048, 0, 2048);
    for (auto _ : state)
        benchmark::DoNotOptimize(compileMove(t, 0, state.range(0), 16));
}
BENCHMARK(BM_CompileMove)->Arg(1)->Arg(17)->Arg(-5);

void
BM_JitLowerStencil(benchmark::State &state)
{
    SystemConfig cfg = defaultSystemConfig();
    AddressMap map(cfg.l3);
    const Coord n = 2048;
    TdfgGraph g(2, "stencil2d");
    HyperRect inner = HyperRect::box2(1, n - 1, 1, n - 1);
    NodeId c = g.tensor(0, inner);
    NodeId l = g.move(g.tensor(0, inner.shifted(0, -1)), 0, 1);
    NodeId r = g.move(g.tensor(0, inner.shifted(0, 1)), 0, -1);
    NodeId u = g.move(g.tensor(0, inner.shifted(1, -1)), 1, 1);
    NodeId d = g.move(g.tensor(0, inner.shifted(1, 1)), 1, -1);
    g.output(g.compute(BitOp::Add, {c, l, r, u, d}), 1);
    TiledLayout lay({n, n}, {16, 16});
    for (auto _ : state) {
        JitCompiler jit(cfg);
        benchmark::DoNotOptimize(jit.lower(g, lay, map));
    }
}
BENCHMARK(BM_JitLowerStencil);

void
BM_EGraphOptimizeStencil(benchmark::State &state)
{
    const Coord n = 1024;
    TdfgGraph g(1, "sym_stencil");
    NodeId a0 = g.tensor(0, HyperRect::interval(0, n - 2));
    NodeId a1 = g.tensor(0, HyperRect::interval(1, n - 1));
    NodeId a2 = g.tensor(0, HyperRect::interval(2, n));
    NodeId c0 = g.constant(0.25);
    NodeId c1 = g.constant(0.5);
    NodeId s = g.compute(
        BitOp::Add,
        {g.move(g.compute(BitOp::Mul, {a0, c0}), 0, 1),
         g.compute(BitOp::Mul, {a1, c1}),
         g.move(g.compute(BitOp::Mul, {a2, c0}), 0, -1)});
    g.output(s, 1);
    for (auto _ : state) {
        TdfgOptimizer opt;
        benchmark::DoNotOptimize(opt.optimize(g));
    }
}
BENCHMARK(BM_EGraphOptimizeStencil);

void
BM_EGraphOptimizeConv2d(benchmark::State &state)
{
    // The static compile makeConv2d(128, 128) runs once per Workload.
    const TdfgGraph g = conv2dTdfg(128, 128);
    for (auto _ : state) {
        TdfgOptimizer opt;
        benchmark::DoNotOptimize(opt.optimize(g));
        state.counters["nodes_added"] =
            static_cast<double>(opt.nodesAdded());
        state.counters["hashcons_hits"] =
            static_cast<double>(opt.hashconsHits());
    }
}
BENCHMARK(BM_EGraphOptimizeConv2d)->Unit(benchmark::kMillisecond);

void
BM_FabricExecuteStencil3d(benchmark::State &state)
{
    // The full-size stencil3d job of the benchmark registry: execute
    // only, on a freshly staged fabric per iteration, with the arg as
    // the host thread count.
    const SystemConfig cfg = testSystemConfig();
    simd::setActive(cfg.simd);
    const Workload w = findScenario("stencil3d")->full();
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    const auto job = planPrimaryJob(w, cfg, &pool, 1 << 18);
    if (!job) {
        state.SkipWithError("stencil3d planned no job");
        return;
    }
    for (auto _ : state) {
        state.PauseTiming();
        auto fab = std::make_unique<BitAccurateFabric>(
            job->layout, cfg.l3.wordlines, cfg.l3.bitlines);
        fab->setThreadPool(&pool);
        seedJobInputs(*fab, *job);
        state.ResumeTiming();
        fab->execute(*job->prog);
        state.PauseTiming();
        benchmark::DoNotOptimize(checksumJobOutputs(*fab, *job));
        fab.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_FabricExecuteStencil3d)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace
} // namespace infs

BENCHMARK_MAIN();
