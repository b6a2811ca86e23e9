#include "sim/presets.hh"

#include <climits>

#include "common/logging.hh"
#include "common/parse.hh"
#include "sim/spec.hh"

namespace msp {

const char *
predictorName(PredictorKind p)
{
    return p == PredictorKind::Gshare ? "gshare" : "TAGE";
}

MachineConfig
baselineConfig(PredictorKind predictor)
{
    MachineConfig m;
    m.name = "Baseline";
    m.predictor = predictor;
    CoreParams &c = m.core;
    c.kind = CoreKind::Baseline;
    c.robSize = 128;
    c.iqSize = 48;
    c.numIntPhys = 96;
    c.numFpPhys = 96;
    c.ldqSize = 48;
    c.sq1Size = 24;
    c.sq2Size = 0;
    c.frontendDepth = 5;
    c.ldqReleaseAtExec = false;   // ROB semantics: hold to retire
    return m;
}

MachineConfig
cprConfig(PredictorKind predictor, unsigned physRegs, unsigned checkpoints)
{
    MachineConfig m;
    m.name = physRegs == 192 ? "CPR"
                             : csprintf("CPR-%u", physRegs);
    m.predictor = predictor;
    CoreParams &c = m.core;
    c.kind = CoreKind::Cpr;
    c.iqSize = 128;
    c.numIntPhys = physRegs;
    c.numFpPhys = physRegs;
    c.ldqSize = 48;
    c.sq1Size = 48;
    c.sq2Size = 256;
    c.numCheckpoints = checkpoints;
    c.frontendDepth = 5;
    return m;
}

MachineConfig
nspConfig(unsigned n, PredictorKind predictor, bool arbitration)
{
    MachineConfig m;
    m.name = csprintf("%u-SP%s", n, arbitration ? "+Arb" : "");
    m.predictor = predictor;
    CoreParams &c = m.core;
    c.kind = CoreKind::Msp;
    c.iqSize = 128;
    c.regsPerBank = n;
    c.ldqSize = 48;
    c.sq1Size = 48;
    c.sq2Size = 256;
    c.lcsLatency = 1;
    c.arbitration = arbitration;
    // The register-port arbitration stage deepens the pipeline (Sec. 3).
    c.frontendDepth = arbitration ? 6 : 5;
    return m;
}

MachineConfig
idealMspConfig(PredictorKind predictor)
{
    MachineConfig m;
    m.name = "ideal MSP";
    m.predictor = predictor;
    CoreParams &c = m.core;
    c.kind = CoreKind::Msp;
    c.iqSize = 128;
    c.infiniteBanks = true;
    c.regsPerBank = 1u << 18;
    c.ldqSize = 48;
    c.sq1Size = 48;
    c.sq2Size = 256;
    c.infiniteSq = true;
    c.lcsLatency = 0;
    c.arbitration = false;
    c.frontendDepth = 5;
    return m;
}

MachineConfig
presetByName(const std::string &name, PredictorKind predictor)
{
    if (name == "default") {
        MachineConfig m;
        m.name = "default";
        m.predictor = predictor;
        return m;
    }
    if (name == "baseline")
        return baselineConfig(predictor);
    if (name == "cpr")
        return cprConfig(predictor);
    if (name == "ideal")
        return idealMspConfig(predictor);
    // <n>sp or <n>sp-noarb, e.g. "16sp", "64sp-noarb". The count is
    // parsed strictly: "+16sp" (atoi would accept the sign) and an
    // overflowing count (atoi UB) are malformed presets, not typos to
    // paper over.
    const std::size_t sp = name.find("sp");
    if (sp != std::string::npos && sp > 0) {
        const std::string suffix = name.substr(sp);
        if (suffix == "sp" || suffix == "sp-noarb") {
            const std::string count = name.substr(0, sp);
            std::uint64_t n = 0;
            const parse::Status st = parse::decimalU64(count, n);
            // n >= 3, the msp.subprocessors minimum (see its parameter
            // doc in sim/spec.cc).
            if (st != parse::Status::Ok || n < 3 || n > UINT_MAX) {
                throw SpecError(csprintf(
                    "bad subprocessor count '%s' in preset '%s' (%s)",
                    count.c_str(), name.c_str(),
                    st == parse::Status::Ok ? "out of range"
                                            : parse::statusReason(st)));
            }
            return nspConfig(static_cast<unsigned>(n), predictor,
                             suffix == "sp");
        }
    }
    throw SpecError(csprintf("unknown preset '%s' (want default, "
                             "baseline, cpr, ideal, <n>sp or "
                             "<n>sp-noarb)", name.c_str()));
}

std::string
presetNameFor(const MachineConfig &config)
{
    // Derive the candidate name from the identity fields, then prove
    // it by rebuilding the preset and comparing every registered
    // parameter — a name that rebuilds a different machine (tweaked
    // ablation config, injected test fault) would mislabel the spec.
    const auto [name, rebuilt] = nearestPreset(config);
    return sameSpec(rebuilt, config) ? name : "";
}

} // namespace msp
