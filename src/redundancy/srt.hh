/**
 * @file
 * Idealized SRT (Reinhardt & Mukherjee) comparison model, as the paper
 * evaluates it (Section 4): the trailing thread occupies SMT resources
 * but sees no branch mispredictions (branch outcome queue) and no
 * cache misses (load value queue). SRT-iso additionally duplicates
 * only a fraction of the leading thread's instructions equal to
 * FaultHound's coverage, to equalize coverage between the schemes.
 */

#ifndef FH_REDUNDANCY_SRT_HH
#define FH_REDUNDANCY_SRT_HH

#include "pipeline/core.hh"
#include "pipeline/params.hh"

namespace fh::redundancy
{

struct SrtConfig
{
    /** Fraction of leading-thread instructions duplicated: 1.0 = full
     *  SRT; FaultHound's measured coverage for SRT-iso. */
    double coverage = 1.0;
};

/**
 * Derive SRT core parameters from a baseline: twice the hardware
 * contexts (each leading thread gains a trailing copy) and no
 * value-locality detector.
 */
pipeline::CoreParams srtParams(pipeline::CoreParams base);

/**
 * Configure the trailing contexts of an SRT core. Thread t in
 * [lead, 2*lead) is the idealized copy of thread t - lead; each copy
 * executes coverage * lead_budget instructions and then vacates its
 * context.
 */
void configureSrt(pipeline::Core &core, unsigned lead_threads,
                  const SrtConfig &cfg, u64 lead_budget);

} // namespace fh::redundancy

#endif // FH_REDUNDANCY_SRT_HH
