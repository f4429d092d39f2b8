/**
 * @file
 * Shared helpers for the experiment harnesses (one binary per paper
 * table/figure). Every harness honors these environment knobs, read
 * with the FH_* readers of sim/config.hh: unset or empty gives the
 * default, and a malformed value, or one outside the range of the
 * matching fhsim key (the bounds in dist/spec.hh), exits naming the
 * variable.
 *
 *   FH_BENCH       run only the named benchmark (default: all 14; an
 *                  unknown name exits listing the valid ones)
 *   FH_INSTS       instruction budget of timing runs, 1 to 10^15
 *   FH_INJECTIONS  fault injections per campaign, at least 1
 *   FH_WINDOW      run-window length (instructions, paper: 1000),
 *                  at least 1
 *   FH_SEED        master seed
 *   FH_THREADS     host fork threads, 0-1024 (default 0: all
 *                  hardware threads; each campaign also runs its
 *                  producer thread, which runs trials too when they
 *                  back up; results are bit-identical for any value)
 *   FH_CI_TARGET   adaptive stop: pooled SDC-rate Wilson CI
 *                  half-width target, 0-0.5 (default 0 = fixed-count)
 *   FH_CI_WAVE     adaptive stop wave size in trials, at least 1
 *                  (default 64)
 *
 * The library's own FH_STRICT (sim/error.hh: an in-trial panic aborts
 * instead of counting as a trial error) reaches every harness too.
 * No variable bounds a trial's wall time: each fork stops after
 * CampaignConfig::forkMaxCycles cycles, so a cell's counts never
 * depend on host load.
 *
 * The campaign-heavy harnesses additionally parallelize across their
 * independent scheme/size/benchmark cells, splitting the FH_THREADS
 * budget between cells (outer) and each cell's campaign forks (inner)
 * via splitThreads().
 */

#ifndef FH_BENCH_HARNESS_HH
#define FH_BENCH_HARNESS_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dist/spec.hh"
#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "filters/detector.hh"
#include "pipeline/core.hh"
#include "sim/config.hh"
#include "sim/text_table.hh"
#include "workload/workload.hh"

namespace fh::bench
{

/** FH_THREADS as CampaignConfig::threads (0 = the campaign default,
 *  fault::resolveForkThreads). */
inline unsigned
envThreadCount()
{
    return static_cast<unsigned>(envU64("FH_THREADS", 0, 0, dist::kMaxJobs));
}

/** Worker-thread budget from FH_THREADS (unset/0 = all hardware). */
inline unsigned
envThreads()
{
    return exec::resolveThreads(envThreadCount());
}

/** Instruction budget of timing runs from FH_INSTS. */
inline u64
envInsts(u64 def)
{
    return envU64("FH_INSTS", def, 1, dist::kMaxInsts);
}

/**
 * Split of the FH_THREADS budget between the independent
 * configuration cells of a harness and each cell's campaign forks.
 * Each running cell's campaign adds its producer thread beside its
 * inner fork threads, and that producer runs forks too whenever its
 * stream of trials is full, so a cell can keep inner + 1 threads busy.
 */
struct ThreadSplit
{
    unsigned outer = 1; ///< exec::ThreadPool size across cells
    unsigned inner = 1; ///< CampaignConfig::threads within a cell
};

inline ThreadSplit
splitThreads(u64 cells)
{
    const u64 budget = envThreads();
    ThreadSplit split;
    split.outer = static_cast<unsigned>(
        std::min<u64>(std::max<u64>(cells, 1), budget));
    split.inner =
        static_cast<unsigned>(std::max<u64>(1, budget / split.outer));
    return split;
}

/** Benchmarks selected by FH_BENCH (default: all of Table 1); a
 *  name that matches none exits listing the valid ones. */
inline std::vector<workload::BenchmarkInfo>
selectedBenchmarks()
{
    const std::string pick = envString("FH_BENCH");
    if (pick.empty())
        return workload::all();
    if (const workload::BenchmarkInfo *info = workload::find(pick))
        return {*info};
    std::fprintf(stderr, "unknown FH_BENCH '%s'; pick one of:\n",
                 pick.c_str());
    for (const auto &info : workload::all())
        std::fprintf(stderr, "  %s\n", info.name.c_str());
    std::exit(1);
}

/** Build a benchmark program for the given SMT context count. */
inline isa::Program
buildProgram(const workload::BenchmarkInfo &info, unsigned max_threads)
{
    workload::WorkloadSpec spec;
    spec.maxThreads = max_threads;
    spec.seed = envU64("FH_SEED", 0x5eedULL);
    return info.build(spec);
}

/** Table 2 core with the given detector attached. */
inline pipeline::CoreParams
coreParams(const filters::DetectorParams &det)
{
    pipeline::CoreParams params;
    params.detector = det;
    return params;
}

/**
 * Run a fresh core until every thread commits its equal share of
 * inst_budget (frozen precisely, so schemes are compared on identical
 * per-thread work); returns the core for stats.
 */
inline pipeline::Core
runBudget(const pipeline::CoreParams &params, const isa::Program *prog,
          u64 inst_budget)
{
    pipeline::Core core(params, prog);
    core.runPerThreadBudget(inst_budget / core.numThreads(),
                            inst_budget * 200 + 1000000);
    return core;
}

/** The four screening schemes of Figure 8, in paper order. */
struct SchemeDef
{
    std::string label;
    filters::DetectorParams params;
};

inline std::vector<SchemeDef>
fig8Schemes()
{
    return {
        {"PBFS", filters::DetectorParams::pbfsSticky()},
        {"PBFS-biased", filters::DetectorParams::pbfsBiased()},
        {"FH-backend", filters::DetectorParams::faultHoundBackend()},
        {"FaultHound", filters::DetectorParams::faultHound()},
    };
}

/** False-positive recovery actions per committed instruction. */
inline double
fpRate(const pipeline::Core &core)
{
    const auto &d = core.detector().stats();
    const u64 committed = core.stats().committed;
    if (committed == 0)
        return 0.0;
    return static_cast<double>(d.replays + d.rollbacks +
                               d.commitTriggers) /
           static_cast<double>(committed);
}

/**
 * Steady-state false-positive rate: run a warmup quarter of the
 * budget (filters train, caches warm), then measure recovery actions
 * per instruction over the remainder.
 */
inline double
fpRateSteady(const pipeline::CoreParams &params, const isa::Program *prog,
             u64 inst_budget)
{
    pipeline::Core core(params, prog);
    const u64 per_thread = inst_budget / core.numThreads();
    const Cycle bound = inst_budget * 200 + 1000000;
    core.runPerThreadBudget(per_thread / 4, bound);
    const auto warm = core.detector().stats();
    const u64 committed_warm = core.stats().committed;
    core.runPerThreadBudget(per_thread, bound);
    const auto &d = core.detector().stats();
    const u64 committed = core.stats().committed - committed_warm;
    if (committed == 0)
        return 0.0;
    return static_cast<double>((d.replays - warm.replays) +
                               (d.rollbacks - warm.rollbacks) +
                               (d.commitTriggers - warm.commitTriggers)) /
           static_cast<double>(committed);
}

inline double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

/** Default campaign configuration from the environment. */
inline fault::CampaignConfig
campaignConfig()
{
    fault::CampaignConfig cfg;
    cfg.injections = envU64("FH_INJECTIONS", 120, 1, dist::kAnyU64);
    cfg.window = envU64("FH_WINDOW", 1000, 1, dist::kAnyU64);
    cfg.seed = envU64("FH_SEED", 1);
    cfg.threads = envThreadCount();
    cfg.ciTarget =
        envDouble("FH_CI_TARGET", 0.0, 0.0, dist::kMaxCiTarget);
    cfg.ciWave = envU64("FH_CI_WAVE", 64, 1, dist::kAnyU64);
    return cfg;
}

} // namespace fh::bench

#endif // FH_BENCH_HARNESS_HH
