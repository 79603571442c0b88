/**
 * @file
 * The timing backend: replays lowered-command cycle costs through the
 * tensor controller (latency.hh per-op costs, per-bank busy fold, NoC
 * crossings, barriers) without touching bits. sim_cycles is exactly the
 * fabric backend's — both run the same replay — which the differential
 * tests certify.
 */

#include "core/backend.hh"

#include "sim/logging.hh"

namespace infs {

namespace {

class TimingBackend final : public ExecBackend
{
  public:
    using ExecBackend::ExecBackend;

    ExecBackendKind kind() const override
    {
        return ExecBackendKind::Timing;
    }

    BackendResult runJob(const BackendJob &job) override
    {
        infs_assert(job.prog != nullptr, "timing backend needs a program");
        BackendResult res;
        TimingReplayResult t = replayTiming(cfg_, job);
        res.simCycles = t.simCycles;
        res.nocHopBytes = t.nocHopBytes;
        res.energyJoules = t.energyJoules;
        res.hasTiming = true;
        return res;
    }
};

} // namespace

std::unique_ptr<ExecBackend>
makeTimingBackend(const SystemConfig &cfg)
{
    return std::make_unique<TimingBackend>(cfg);
}

} // namespace infs
