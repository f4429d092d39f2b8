/**
 * @file
 * Shared machinery of the experiment harnesses (one binary per paper
 * table/figure): their options, one cell runner and one benchmark
 * table.
 *
 * Options. A harness takes `key=value` arguments and `--config FILE`
 * through fhsim's parser, unknown-key refusal and help printer
 * (sim/config.hh), and declares only the keys it reads: `bench`,
 * `seed` and `jobs` (the host-thread budget), `insts` where it runs
 * fault-free timing runs, and the schedule keys (fault::readSchedule)
 * where it runs campaigns. `help=1` lists them with their ranges and
 * defaults; any other key is refused, naming it, and so is a malformed
 * value or one outside the range of its fhsim key (dist/spec.hh). The
 * FH_* variables these keys replaced are refused while set, naming
 * the key to use instead. FH_STRICT (sim/error.hh) reaches every
 * harness too. No option bounds a trial's wall time: each fork stops
 * after CampaignConfig::forkMaxCycles cycles, so a cell's counts never
 * depend on host load.
 *
 * Cells. A harness's independent configurations (benchmark x scheme,
 * size or variant) are its cells. runCells streams them, splitting
 * `jobs` between cells and each cell's campaign forks, and returns
 * their results in cell order, so every harness prints the same bytes
 * for any `jobs`.
 */

#ifndef FH_BENCH_HARNESS_HH
#define FH_BENCH_HARNESS_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "dist/spec.hh"
#include "exec/stream.hh"
#include "fault/campaign.hh"
#include "filters/detector.hh"
#include "pipeline/core.hh"
#include "redundancy/srt.hh"
#include "sim/config.hh"
#include "sim/text_table.hh"
#include "workload/workload.hh"

namespace fh::bench
{

/** The keys a harness reads; `help` comes with every harness. */
struct Keys
{
    bool cells = true;     ///< `bench`, `seed` and `jobs`
    u64 insts = 0;         ///< `insts`' default; 0 = no `insts` key
    bool campaign = false; ///< the schedule keys (fault::readSchedule)
};

/** A harness's option values. */
struct Options
{
    std::vector<workload::BenchmarkInfo> benchmarks = workload::all();
    u64 seed = workload::WorkloadSpec{}.seed; ///< the workload seed
    /** Host-thread budget; 0 = one per hardware thread (runCells). */
    unsigned jobs = 0;
    u64 insts = 0;
    /** The schedule; runCells sets its threads per cell. */
    fault::CampaignConfig campaign;

    /** Build a benchmark program for the given SMT context count. */
    isa::Program
    program(const workload::BenchmarkInfo &info, unsigned maxThreads) const
    {
        workload::WorkloadSpec spec;
        spec.maxThreads = maxThreads;
        spec.seed = seed;
        return info.build(spec);
    }
};

/** The FH_* variables the harness keys replaced, with their keys. */
inline constexpr std::pair<const char *, const char *> kRetiredVariables[] =
    {{"FH_BENCH", "bench"},         {"FH_INSTS", "insts"},
     {"FH_INJECTIONS", "injections"}, {"FH_WINDOW", "window"},
     {"FH_SEED", "seed"},           {"FH_THREADS", "jobs"},
     {"FH_CI_TARGET", "ci_target"}, {"FH_CI_WAVE", "ci_wave"}};

/**
 * Read a harness's options from its arguments, declaring the keys it
 * reads. Exits 1 while a retired FH_* variable is set, and on a bad
 * argument, a malformed or out-of-range value, an unknown benchmark
 * or an undeclared key; help=1 prints the declared keys and exits 0.
 */
inline Options
parseOptions(int argc, char **argv, const Keys &keys)
{
    std::string prog = argv[0];
    prog.erase(0, prog.rfind('/') + 1);
    bool retired = false;
    for (const auto &[var, key] : kRetiredVariables) {
        if (std::getenv(var)) {
            std::fprintf(stderr, "%s: %s is retired; pass %s=VALUE "
                                 "instead\n",
                         prog.c_str(), var, key);
            retired = true;
        }
    }
    Config cfg;
    if (retired || !parseArgs(cfg, argc, argv, prog))
        std::exit(1);

    Options o;
    if (keys.cells) {
        cfg.declareKey("bench", "run only this benchmark (default: all "
                                "14)");
        if (!keys.campaign)
            cfg.declareKey("seed", "workload seed, any 64-bit value "
                                   "(default 0x5eed)");
        cfg.declareKey(
            "jobs",
            keys.campaign
                ? "host-thread budget, 0-1024, 0 = one per hardware "
                  "thread: min(cells, jobs) cells run at once, and "
                  "each cell's campaign runs max(1, jobs / that many) "
                  "fork threads beside its producer (default 0)"
                : "host-thread budget, 0-1024, 0 = one per hardware "
                  "thread: min(cells, jobs) cells run at once "
                  "(default 0)");
        const std::string pick = cfg.getString("bench");
        if (!pick.empty()) {
            const workload::BenchmarkInfo *info = workload::find(pick);
            if (!info) {
                std::fprintf(stderr, "%s: unknown bench '%s'; pick one "
                                     "of:\n",
                             prog.c_str(), pick.c_str());
                for (const auto &known : workload::all())
                    std::fprintf(stderr, "  %s\n", known.name.c_str());
                std::exit(1);
            }
            o.benchmarks = {*info};
        }
        o.seed = cfg.getU64("seed", o.seed);
        o.jobs = static_cast<unsigned>(
            cfg.getU64("jobs", 0, 0, dist::kMaxJobs));
    }
    if (keys.insts) {
        cfg.declareKey("insts",
                       csprintf("instruction budget of each fault-free "
                                "run, 1 to 10^15 (default %llu)",
                                static_cast<unsigned long long>(
                                    keys.insts)));
        o.insts = cfg.getU64("insts", keys.insts, 1, dist::kMaxInsts);
    }
    if (keys.campaign) {
        o.campaign.injections = 120;
        fault::readSchedule(cfg, o.campaign);
    }
    cfg.declareKey("help", "print this option list and exit");
    if (cfg.getBool("help", false)) {
        printHelp(cfg, prog);
        std::exit(0);
    }
    if (!rejectUnknown(cfg, prog))
        std::exit(1);
    return o;
}

/**
 * Run cell(i, campaign) for every cell i in [0, n) and return the
 * results in cell order. The jobs budget (0 = one per hardware
 * thread) splits between cells and their campaigns: outer =
 * min(n, budget) cells run at once, on a stream of outer - 1 workers
 * and the calling thread, which helps, so one job (or one cell) runs
 * every cell on the caller and starts no thread. campaign is
 * opts.campaign with threads = max(1, budget / outer) fork threads,
 * which run beside each running cell's producer. A split that counts
 * the producers, outer x (inner + 1) <= budget, was not faster
 * (EXPERIMENTS.md "One harness runner"). Results are the same for any
 * budget: a cell's work depends only on i, and a campaign's results on
 * nothing host-local.
 */
template <typename Cell>
auto
runCells(const Options &opts, u64 n, const Cell &cell)
{
    const u64 budget = opts.jobs ? opts.jobs : exec::hardwareThreads();
    const u64 outer = std::min(std::max<u64>(n, 1), budget);
    fault::CampaignConfig campaign = opts.campaign;
    campaign.threads = static_cast<unsigned>(std::max<u64>(1, budget / outer));
    std::vector<decltype(cell(u64{}, campaign))> results(n);
    exec::Stream stream(static_cast<unsigned>(outer - 1),
                        std::max<u64>(n, 1), [&](u64 i, unsigned) {
                            results[i] = cell(i, campaign);
                        });
    for (u64 i = 0; i < n; ++i)
        stream.push();
    while (!stream.empty())
        if (!stream.retire())
            stream.help();
    return results;
}

/** The mean of value(i) over i in [0, n), summed in order; 0 for
 *  n = 0. */
template <typename Value>
double
mean(u64 n, const Value &value)
{
    double s = 0.0;
    for (u64 i = 0; i < n; ++i)
        s += value(i);
    return n ? s / static_cast<double>(n) : 0.0;
}

/**
 * The benchmark x column table of Figures 7-11: a row per benchmark of
 * value(b, c), benchmark b's value in column c, as a percentage, then
 * a `mean` row of each column's mean, at one precision throughout.
 */
template <typename Value>
TextTable
benchmarkTable(const std::vector<workload::BenchmarkInfo> &benchmarks,
               const std::vector<std::string> &columns,
               const Value &value, int precision = 1)
{
    std::vector<std::string> header{"benchmark"};
    header.insert(header.end(), columns.begin(), columns.end());
    TextTable table(header);
    for (size_t b = 0; b < benchmarks.size(); ++b) {
        std::vector<std::string> row{benchmarks[b].name};
        for (size_t c = 0; c < columns.size(); ++c)
            row.push_back(TextTable::pct(value(b, c), precision));
        table.addRow(row);
    }
    std::vector<std::string> means{"mean"};
    for (size_t c = 0; c < columns.size(); ++c)
        means.push_back(TextTable::pct(
            mean(benchmarks.size(), [&](u64 b) { return value(b, c); }),
            precision));
    table.addRow(means);
    return table;
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

/** SRT-iso's coverage: FaultHound's level. */
constexpr double kSrtCoverage = 0.75;

/**
 * Run prog under SRT-iso (redundant trailing threads, one per leading
 * thread) until the leading threads commit inst_budget; returns the
 * core for its cycles and energy.
 */
inline pipeline::Core
runSrt(const isa::Program &prog, u64 inst_budget)
{
    const pipeline::CoreParams base =
        coreParams(filters::DetectorParams::none());
    pipeline::Core core(redundancy::srtParams(base), &prog);
    const u64 per_lead = inst_budget / base.threads;
    redundancy::configureSrt(core, base.threads, {kSrtCoverage},
                             per_lead);
    std::vector<u64> targets(core.numThreads(), 0);
    for (unsigned t = 0; t < base.threads; ++t) {
        core.threadOptions(t).stopAfterInsts = per_lead;
        targets[t] = per_lead;
    }
    core.runUntilCommitted(targets, inst_budget * 200 + 1000000);
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
    std::vector<SchemeDef> schemes;
    for (const filters::SchemePreset &preset : filters::kSchemePresets)
        if (preset.params().scheme != filters::Scheme::None)
            schemes.push_back({preset.label, preset.params()});
    return schemes;
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

} // namespace fh::bench

#endif // FH_BENCH_HARNESS_HH
