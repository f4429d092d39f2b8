#include "redundancy/srt.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace fh::redundancy
{

pipeline::CoreParams
srtParams(pipeline::CoreParams base)
{
    base.threads *= 2;
    base.detector = filters::DetectorParams::none();
    // The extra contexts need rename storage.
    base.physRegs = std::max(base.physRegs,
                             base.threads * isa::numArchRegs +
                                 base.robSize + 8);
    return base;
}

void
configureSrt(pipeline::Core &core, unsigned lead_threads,
             const SrtConfig &cfg, u64 lead_budget)
{
    fh_assert(core.numThreads() == 2 * lead_threads,
              "SRT core must have twice the lead contexts");
    fh_assert(cfg.coverage > 0.0 && cfg.coverage <= 1.0,
              "coverage fraction out of range");
    for (unsigned t = 0; t < lead_threads; ++t) {
        auto &opts = core.threadOptions(lead_threads + t);
        opts.oracleFetch = true;
        opts.perfectDcache = true;
        opts.maxInsts = std::max<u64>(
            1, static_cast<u64>(std::llround(cfg.coverage *
                                             static_cast<double>(
                                                 lead_budget))));
    }
}

} // namespace fh::redundancy
