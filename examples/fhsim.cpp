/**
 * @file
 * fhsim — the command-line simulator driver, the binary a downstream
 * user actually runs. Configures the core from key=value options (file
 * and/or command line), runs a benchmark under a chosen scheme, and
 * dumps gem5-style stats; optionally runs a fault-injection campaign —
 * in this process, or sharded across worker processes through the
 * distributed campaign fabric (src/dist).
 *
 * Usage:
 *   fhsim [--config FILE] [key=value ...]        run sim (+ campaign)
 *   fhsim dispatch jobs=N [key=value ...]        campaign on N local
 *                                                worker processes
 *   fhsim serve listen=HOST:PORT [key=value ...] coordinator only;
 *                                                workers join remotely
 *   fhsim worker HOST:PORT [jobs=N]              join a coordinator
 *
 * Run `fhsim` with no arguments (or `help=1`) for the full option
 * list — it is generated from the same consumed-key registry that
 * powers the unknown-option check, so it cannot drift from what the
 * driver actually accepts.
 *
 * Unknown keys are fatal: `injectons=5000` should refuse to run, not
 * silently run the default campaign.
 *
 * SIGINT/SIGTERM stop new trials, drain the in-flight wave (dispatch
 * mode forwards the signal to every worker and drains them all),
 * flush the journal, and emit the (partial-flagged) outputs; exit
 * code 130.
 *
 * Examples:
 *   fhsim bench=429.mcf scheme=pbfs-biased insts=200000
 *   fhsim bench=apache campaign=true injections=500 jobs=8 \
 *         journal=apache.fhj
 *   fhsim dispatch jobs=4 bench=ocean injections=5000 json=-
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "dist/coordinator.hh"
#include "dist/spawner.hh"
#include "dist/spec.hh"
#include "dist/worker.hh"
#include "energy/energy_model.hh"
#include "exec/interrupt.hh"
#include "exec/progress.hh"
#include "exec/thread_pool.hh"
#include "fault/campaign.hh"
#include "fault/campaign_json.hh"
#include "fault/journal.hh"
#include "pipeline/stats_dump.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

using namespace fh;

namespace
{

/**
 * The full option registry: every key any fhsim mode reads, with its
 * help line. Declaring them all up front serves both masters — the
 * typo check refuses anything not listed here, and printHelp() prints
 * exactly this list.
 */
void
declareAllKeys(const Config &cfg)
{
    // Simulation.
    cfg.declareKey("bench", "benchmark name (default 400.perl)");
    cfg.declareKey("scheme",
                   "none|pbfs|pbfs-biased|fh-backend|faulthound "
                   "(default faulthound)");
    cfg.declareKey("insts",
                   "per-thread instruction budget, 1 to 10^15: the "
                   "run's cycle cap, 400 per instruction, must fit in "
                   "64 bits (default 100000)");
    cfg.declareKey("threads", "SMT contexts, 1-8 (default 2)");
    cfg.declareKey("seed",
                   "workload/data seed, any 64-bit value (default "
                   "0x5eed)");
    cfg.declareKey("tcam.entries",
                   "first-level TCAM entries, 0-1024: 0 = the scheme "
                   "preset (32); every lookup searches them all");
    cfg.declareKey("tcam.threshold",
                   "TCAM loosen threshold, 0-64: 0 = the scheme preset "
                   "(4); it bounds a mismatch count over a 64-bit word");
    cfg.declareKey("delay_buffer",
                   "delay buffer entries, 0-250: 0 = the default (16); "
                   "it holds ROB slots and the ROB has 250");
    // Campaign.
    cfg.declareKey("campaign",
                   "also run a fault campaign (default false)");
    cfg.declareKey("injections",
                   "campaign injections, at least 1 (default 300)");
    cfg.declareKey("window",
                   "campaign run window in instructions per SMT "
                   "thread, at least 1 (default 1000)");
    cfg.declareKey("jobs",
                   "campaign fork threads, plus one producer thread "
                   "that also runs trials when they back up, "
                   "or worker processes in dispatch mode; 0-1024, "
                   "0 = all hardware threads");
    cfg.declareKey("journal",
                   "trial-journal path for checkpoint/resume");
    cfg.declareKey("ci_target",
                   "adaptive stop: pooled SDC-rate CI half-width "
                   "target, 0-0.5: 0 = fixed-count campaign; a "
                   "half-width of 0.5 already spans every rate");
    cfg.declareKey("ci_wave",
                   "adaptive stop wave size in trials, at least 1 "
                   "(default 64)");
    cfg.declareKey("json",
                   "write the JSON campaign record here "
                   "(\"-\" = stdout)");
    // Distributed fabric.
    cfg.declareKey("listen",
                   "serve/dispatch mode: coordinator endpoint, "
                   "host:port or unix:/path (port 0 = ephemeral)");
    cfg.declareKey("workers",
                   "serve mode: expected worker count, 1-1024; sizes "
                   "the lease chunks (default 1)");
    cfg.declareKey("chunk",
                   "trials per range lease, 0 up to injections; 0 = "
                   "auto (~4 per worker)");
    cfg.declareKey("lease_timeout_ms",
                   "heartbeat silence before a worker's lease is "
                   "re-issued, 1 to 86400000 ms: 0 would revoke every "
                   "lease at once, and a day of silence is a dead "
                   "worker (default 10000)");
    cfg.declareKey("heartbeat_ms",
                   "worker liveness heartbeat period, 1 to 86400000 "
                   "ms: 0 would flood the link, and no lease timeout "
                   "waits longer (default 300)");
    cfg.declareKey("worker_jobs",
                   "dispatch mode: fork threads per worker process, "
                   "0-1024 (default 1)");
    cfg.declareKey("help", "print this option list and exit");
}

void
printHelp(const Config &cfg)
{
    std::printf(
        "usage: fhsim [--config FILE] [key=value ...]\n"
        "       fhsim dispatch jobs=N [key=value ...]\n"
        "       fhsim serve listen=HOST:PORT [key=value ...]\n"
        "       fhsim worker HOST:PORT [jobs=N]\n"
        "\noptions:\n");
    for (const auto &[key, desc] : cfg.keyDocs())
        std::printf("  %-18s%s\n", key.c_str(), desc.c_str());
}

bool
parseArgs(Config &cfg, int argc, char **argv, int first)
{
    std::string error;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            declareAllKeys(cfg);
            printHelp(cfg);
            std::exit(0);
        }
        if (arg == "--config") {
            if (i + 1 >= argc || !cfg.parseFile(argv[++i], error)) {
                std::fprintf(stderr, "fhsim: %s\n", error.c_str());
                return false;
            }
            continue;
        }
        if (!cfg.set(arg)) {
            std::fprintf(stderr, "fhsim: bad option '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    return true;
}

/** Refuse to run with unrecognised keys (a misspelt key silently
 *  running a default campaign wastes hours). */
bool
rejectUnknown(const Config &cfg)
{
    const auto unknown = cfg.unknownKeys();
    if (unknown.empty())
        return true;
    for (const auto &key : unknown)
        std::fprintf(stderr, "fhsim: unknown option '%s'\n",
                     key.c_str());
    std::fprintf(stderr, "fhsim: refusing to run with unrecognised "
                         "options; run `fhsim` for the list\n");
    return false;
}

/** The deterministic campaign description all modes share, built from
 *  the same keys the in-process path reads. */
dist::CampaignSpec
specFromConfig(const Config &cfg)
{
    dist::CampaignSpec spec;
    spec.bench = cfg.getString("bench", "400.perl");
    spec.scheme = cfg.getString("scheme", "faulthound");
    spec.coreThreads = static_cast<unsigned>(
        cfg.getU64("threads", 2, 1, dist::kMaxSmtThreads));
    spec.workload.maxThreads = std::max(2u, spec.coreThreads);
    spec.workload.seed = cfg.getU64("seed", 0x5eedULL);
    spec.tcamEntries = static_cast<unsigned>(
        cfg.getU64("tcam.entries", 0, 0, dist::kMaxTcamEntries));
    spec.tcamThreshold = static_cast<unsigned>(
        cfg.getU64("tcam.threshold", 0, 0, dist::kMaxTcamThreshold));
    spec.delayBuffer = static_cast<unsigned>(
        cfg.getU64("delay_buffer", 0, 0, dist::kMaxDelayBuffer));
    spec.campaign.injections =
        cfg.getU64("injections", 300, 1, dist::kAnyU64);
    spec.campaign.window = cfg.getU64("window", 1000, 1, dist::kAnyU64);
    spec.campaign.seed = cfg.getU64("seed", 1);
    spec.campaign.ciTarget =
        cfg.getDouble("ci_target", 0.0, 0.0, dist::kMaxCiTarget);
    spec.campaign.ciWave = cfg.getU64("ci_wave", 64, 1, dist::kAnyU64);
    return spec;
}

/** Coordinator options shared by dispatch and serve; false (after
 *  printing why) on a malformed listen endpoint. */
bool
coordinatorOptions(const Config &cfg, const dist::CampaignSpec &spec,
                   unsigned workers, exec::ProgressMeter &meter,
                   dist::CoordinatorOptions &copts)
{
    std::string error;
    if (!dist::parseEndpoint(cfg.getString("listen", "127.0.0.1:0"),
                             copts.listen, error)) {
        std::fprintf(stderr, "fhsim: %s\n", error.c_str());
        return false;
    }
    copts.workers = workers;
    copts.chunk = cfg.getU64("chunk", 0, 0, spec.campaign.injections);
    copts.leaseTimeoutMs = cfg.getU64("lease_timeout_ms",
                                      copts.leaseTimeoutMs, 1, dist::kMaxMs);
    copts.progress = &meter;
    return true;
}

/** The stdout campaign block + FH_JSON record + exit code, shared by
 *  the in-process and distributed paths so their outputs are
 *  comparable byte for byte (stdout) / field for field (JSON). */
int
emitCampaignOutputs(const Config &cfg, const std::string &bench,
                    unsigned workers,
                    const fault::CampaignConfig &ccfg,
                    const fault::CampaignResult &r, fault::WallTime time,
                    const dist::DistStats *fabric = nullptr)
{
    std::printf("%-34s%-16.4f# fraction of injections\n",
                "campaign.masked", r.maskedFrac());
    std::printf("%-34s%-16.4f# fraction of injections\n",
                "campaign.noisy", r.noisyFrac());
    std::printf("%-34s%-16.4f# fraction of injections\n",
                "campaign.sdc", r.sdcFrac());
    std::printf("%-34s%-16.4f# of SDC faults\n",
                "campaign.coverage", r.coverage());
    std::printf("%-34s%-16llu# trials isolated after in-fork "
                "errors\n",
                "campaign.trial_errors",
                static_cast<unsigned long long>(r.trialErrors));
    std::printf("%-34s%-16llu# bare forks past forkMaxCycles\n",
                "campaign.hung_bare",
                static_cast<unsigned long long>(r.hungBare));
    std::printf("%-34s%-16llu# protected forks past "
                "forkMaxCycles\n",
                "campaign.hung_protected",
                static_cast<unsigned long long>(r.hungProtected));
    std::printf("%-34s%-16d# 1 = interrupted, counters are a "
                "prefix\n",
                "campaign.partial", r.partial ? 1 : 0);
    std::printf("%-34s%-16llu# masked with no fork executed\n",
                "campaign.skipped_provably_masked",
                static_cast<unsigned long long>(
                    r.skippedProvablyMasked));
    std::printf("%-34s%-16llu# bare forks ended by fault-watch "
                "erasure\n",
                "campaign.early_terminated",
                static_cast<unsigned long long>(r.earlyTerminated));
    std::printf("%-34s%-16d# 1 = adaptive CI stop fired\n",
                "campaign.ci_stopped", r.ciStopped ? 1 : 0);
    // Timing and the other diagnostics go to stderr, as FH_JSON's key
    // names and values: stdout stays byte-identical across runs and
    // worker counts (the determinism suite diffs it).
    fault::printCampaignSummary(stderr, "fhsim", bench, workers, ccfg, r,
                                time, fabric);
    const std::string json = cfg.getString("json", "");
    if (!json.empty())
        fault::writeCampaignJson(json, bench, workers, ccfg, r, time,
                                 fabric);
    if (r.partial) {
        std::fprintf(stderr,
                     "fhsim: campaign interrupted after %llu "
                     "trials; rerun with the same journal to "
                     "resume\n",
                     static_cast<unsigned long long>(r.injected));
        return 130;
    }
    return 0;
}

/** Runs the coordinator for dispatch and serve; meter is the one it
 *  ticks. */
int
runCoordinator(const Config &cfg, dist::Coordinator &coord,
               const dist::CampaignSpec &spec, unsigned workers,
               const exec::ProgressMeter &meter)
{
    const std::string journalPath = cfg.getString("journal", "");
    std::unique_ptr<fault::TrialJournal> journal;
    if (!journalPath.empty())
        journal = std::make_unique<fault::TrialJournal>(
            journalPath, spec.campaign,
            filters::to_string(spec.buildParams().detector.scheme));

    const auto t0 = std::chrono::steady_clock::now();
    fault::CampaignResult r = coord.run(journal.get());
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    return emitCampaignOutputs(cfg, spec.bench, workers, spec.campaign,
                               r, {seconds, meter.executingSeconds()},
                               &coord.stats());
}

int
cmdDispatch(int argc, char **argv)
{
    Config cfg;
    if (!parseArgs(cfg, argc, argv, 2))
        return 1;
    declareAllKeys(cfg);
    if (cfg.getBool("help", false)) {
        printHelp(cfg);
        return 0;
    }
    if (!rejectUnknown(cfg))
        return 1;

    const dist::CampaignSpec spec = specFromConfig(cfg);
    const unsigned jobs = static_cast<unsigned>(
        std::max<u64>(1, cfg.getU64("jobs", 1, 0, dist::kMaxJobs)));
    const u64 workerJobs =
        cfg.getU64("worker_jobs", 1, 0, dist::kMaxJobs);

    exec::installShutdownHandlers();
    exec::ProgressMeter meter("fhsim dispatch",
                              spec.campaign.injections);

    dist::CoordinatorOptions copts;
    if (!coordinatorOptions(cfg, spec, jobs, meter, copts))
        return 1;
    const u64 heartbeatMs =
        cfg.getU64("heartbeat_ms", dist::WorkerOptions{}.heartbeatMs, 1,
                   dist::kMaxMs);
    dist::Coordinator coord(spec, copts);

    const std::string exe = dist::selfExe();
    if (exe.empty()) {
        std::fprintf(stderr, "fhsim: cannot resolve own binary "
                             "path for worker spawn\n");
        return 1;
    }
    std::vector<pid_t> pids;
    for (unsigned i = 0; i < jobs; ++i) {
        const pid_t pid = dist::spawnExec(
            {exe, "worker", coord.endpoint().str(),
             "jobs=" + std::to_string(workerJobs),
             "heartbeat_ms=" + std::to_string(heartbeatMs)});
        if (pid < 0) {
            std::fprintf(stderr, "fhsim: worker spawn failed\n");
            return 1;
        }
        pids.push_back(pid);
        coord.addChild(pid);
        // Guard against the no-RAII death paths (fh_fatal exits,
        // FH_STRICT panics abort): whatever kills this process must
        // not orphan the workers.
        dist::ChildGuard::add(pid);
    }
    std::fprintf(stderr,
                 "fhsim: dispatching %llu injections to %u worker "
                 "process(es) on %s\n",
                 static_cast<unsigned long long>(
                     spec.campaign.injections),
                 jobs, coord.endpoint().str().c_str());

    const int rc = runCoordinator(cfg, coord, spec, jobs, meter);
    // The coordinator closed every socket; workers exit on their own.
    // Reap them all — dispatch never leaves orphans.
    for (pid_t pid : pids) {
        dist::reap(pid);
        dist::ChildGuard::remove(pid);
    }
    return rc;
}

int
cmdServe(int argc, char **argv)
{
    Config cfg;
    if (!parseArgs(cfg, argc, argv, 2))
        return 1;
    declareAllKeys(cfg);
    if (cfg.getBool("help", false)) {
        printHelp(cfg);
        return 0;
    }
    if (!rejectUnknown(cfg))
        return 1;

    const dist::CampaignSpec spec = specFromConfig(cfg);
    exec::installShutdownHandlers();
    exec::ProgressMeter meter("fhsim serve",
                              spec.campaign.injections);

    const unsigned workers = static_cast<unsigned>(
        cfg.getU64("workers", 1, 1, dist::kMaxJobs));
    dist::CoordinatorOptions copts;
    if (!coordinatorOptions(cfg, spec, workers, meter, copts))
        return 1;
    dist::Coordinator coord(spec, copts);
    std::fprintf(stderr,
                 "fhsim: serving %llu injections on %s; start "
                 "workers with `fhsim worker %s`\n",
                 static_cast<unsigned long long>(
                     spec.campaign.injections),
                 coord.endpoint().str().c_str(),
                 coord.endpoint().str().c_str());

    return runCoordinator(cfg, coord, spec, copts.workers, meter);
}

int
cmdWorker(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: fhsim worker HOST:PORT [jobs=N]\n");
        return 1;
    }
    Config cfg;
    if (!parseArgs(cfg, argc, argv, 3))
        return 1;
    declareAllKeys(cfg);
    if (!rejectUnknown(cfg))
        return 1;

    dist::WorkerOptions wopts;
    std::string error;
    if (!dist::parseEndpoint(argv[2], wopts.endpoint, error)) {
        std::fprintf(stderr, "fhsim: %s\n", error.c_str());
        return 1;
    }
    wopts.jobs =
        static_cast<unsigned>(cfg.getU64("jobs", 1, 0, dist::kMaxJobs));
    wopts.heartbeatMs =
        cfg.getU64("heartbeat_ms", wopts.heartbeatMs, 1, dist::kMaxMs);
    return dist::runWorker(wopts);
}

int
runSim(const Config &cfg)
{
    const dist::CampaignSpec spec = specFromConfig(cfg);
    const std::string &bench = spec.bench;
    if (!workload::find(bench)) {
        std::fprintf(stderr, "fhsim: unknown benchmark '%s'; pick "
                             "one of:\n",
                     bench.c_str());
        for (const auto &info : workload::all())
            std::fprintf(stderr, "  %s\n", info.name.c_str());
        return 1;
    }
    filters::DetectorParams preset;
    if (!dist::schemeByName(spec.scheme, preset)) {
        std::fprintf(stderr, "fhsim: unknown scheme '%s'\n",
                     spec.scheme.c_str());
        return 1;
    }
    isa::Program prog = spec.buildProgram();
    const pipeline::CoreParams params = spec.buildParams();

    const u64 insts = cfg.getU64("insts", 100000, 1, dist::kMaxInsts);
    std::fprintf(stderr,
                 "fhsim: %s, scheme %s, %llu insts/thread, %u "
                 "threads\n",
                 bench.c_str(),
                 filters::to_string(params.detector.scheme).c_str(),
                 static_cast<unsigned long long>(insts),
                 params.threads);

    pipeline::Core core(params, &prog);
    core.runPerThreadBudget(insts, insts * 400 + 1000000);
    pipeline::dumpStats(core, std::cout);

    auto e = energy::computeEnergy(core);
    std::printf("%-34s%-16.0f# dynamic+static energy (arb. units)\n",
                "energy.total", e.total());
    std::printf("%-34s%-16.0f# filter-table energy\n",
                "energy.detector", e.detector);

    if (cfg.getBool("campaign", false)) {
        fault::CampaignConfig ccfg = spec.campaign;
        ccfg.threads = static_cast<unsigned>(
            cfg.getU64("jobs", 0, 0, dist::kMaxJobs));
        ccfg.journalPath = cfg.getString("journal", "");
        exec::installShutdownHandlers();
        exec::ProgressMeter meter("fhsim campaign", ccfg.injections);
        ccfg.progress = &meter;
        std::fprintf(stderr, "fhsim: running %llu-injection "
                             "campaign on %u fork thread(s) plus the "
                             "producer, which runs trials too when "
                             "they back up...\n",
                     static_cast<unsigned long long>(ccfg.injections),
                     exec::resolveThreads(ccfg.threads));
        const auto t0 = std::chrono::steady_clock::now();
        auto r = fault::runCampaign(params, &prog, ccfg);
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        return emitCampaignOutputs(cfg, bench,
                                   exec::resolveThreads(ccfg.threads),
                                   ccfg, r,
                                   {seconds, meter.executingSeconds()});
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        const std::string mode = argv[1];
        if (mode == "dispatch")
            return cmdDispatch(argc, argv);
        if (mode == "serve")
            return cmdServe(argc, argv);
        if (mode == "worker")
            return cmdWorker(argc, argv);
    }

    Config cfg;
    if (!parseArgs(cfg, argc, argv, 1))
        return 1;
    declareAllKeys(cfg);
    if (argc == 1 || cfg.getBool("help", false)) {
        // Bare `fhsim` documents itself; the registry above is the
        // single source of truth for the option list.
        printHelp(cfg);
        return 0;
    }
    if (!rejectUnknown(cfg))
        return 1;
    return runSim(cfg);
}
