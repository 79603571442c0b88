#include "sim/config.hh"

#include <sstream>

namespace infs {

std::string
SystemConfig::summary() const
{
    std::ostringstream os;
    os << numCores() << " cores @ " << core.ghz << "GHz, "
       << noc.meshX << "x" << noc.meshY << " mesh, L3 "
       << (l3.totalBytes() >> 20) << "MB (" << l3.numBanks << " banks x "
       << l3.waysPerBank << " ways x " << l3.arraysPerWay << " arrays of "
       << l3.wordlines << "x" << l3.bitlines << "), "
       << (l3.totalBitlines() >> 20) << "M bitlines, DRAM "
       << dram.bandwidthGBs << "GB/s";
    return os.str();
}

const char *
verifyLevelName(VerifyLevel v)
{
    switch (v) {
      case VerifyLevel::Off: return "off";
      case VerifyLevel::Graphs: return "graphs";
      case VerifyLevel::Full: return "full";
    }
    return "?";
}

const char *
backendName(ExecBackendKind b)
{
    switch (b) {
      case ExecBackendKind::Fabric: return "fabric";
      case ExecBackendKind::Functional: return "functional";
      case ExecBackendKind::Timing: return "timing";
    }
    return "?";
}

bool
parseBackendName(const std::string &name, ExecBackendKind &out)
{
    if (name == "fabric") {
        out = ExecBackendKind::Fabric;
    } else if (name == "functional") {
        out = ExecBackendKind::Functional;
    } else if (name == "timing") {
        out = ExecBackendKind::Timing;
    } else {
        return false;
    }
    return true;
}

const char *
simdIsaName(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Auto: return "auto";
      case SimdIsa::Portable: return "portable";
      case SimdIsa::Avx2: return "avx2";
    }
    return "?";
}

bool
parseSimdIsaName(const std::string &name, SimdIsa &out)
{
    if (name == "auto") {
        out = SimdIsa::Auto;
    } else if (name == "portable") {
        out = SimdIsa::Portable;
    } else if (name == "avx2") {
        out = SimdIsa::Avx2;
    } else {
        return false;
    }
    return true;
}

SystemConfig
defaultSystemConfig()
{
    return SystemConfig{};
}

SystemConfig
testSystemConfig()
{
    SystemConfig cfg;
    cfg.noc.meshX = 4;
    cfg.noc.meshY = 4;
    cfg.l3.numBanks = 16;
    cfg.l3.waysPerBank = 18;
    cfg.l3.computeWays = 16;
    cfg.l3.arraysPerWay = 4;
    cfg.l3.wordlines = 256;
    cfg.l3.bitlines = 256;
    // Tests run every graph and command stream through the verifier so a
    // lowering bug surfaces as a diagnostic, not silently wrong numbers.
    cfg.verifyLevel = VerifyLevel::Full;
    return cfg;
}

} // namespace infs
