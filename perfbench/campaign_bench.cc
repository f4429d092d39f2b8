/**
 * @file
 * Campaign benchmark program. Runs one fault-injection campaign
 * workload in a closed loop — one client, each campaign starting when
 * the previous one has returned its result — for a given wall time,
 * and prints one JSON object with a sample per campaign. run.py turns
 * the samples into the benchmark's metrics and checks each campaign's
 * classification against the recorded reference.
 *
 *   fh_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                --tmp DIR --out DIR [--cross-check 0|1]
 *
 * --seed sets both the campaign seed and the workload data seed.
 * --tmp holds the per-run journal and Unix socket (both removed at
 * exit); --out receives the span file of a traced run.
 * --cross-check 1 runs the campaign once more, untimed, in the
 * reference shape (in-process, one thread, no journal) and reports its
 * classification, for seeds that have no recorded reference.
 *
 * With --trace 1 the run alternates untraced and traced campaigns,
 * records a span around every call it makes into a layer (workload
 * build, session construction, runRange, each sink call with its
 * merge and journal record, coordinator construction, worker spawn,
 * Coordinator::run, reap, and the warmed-core pipeline and snapshot
 * probes), writes the spans with their self times to --out, and
 * reports per-layer figures. Spans are taken only on the thread that
 * calls into the layers, so the tracer needs no locking.
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.hh"
#include "dist/spawner.hh"
#include "dist/spec.hh"
#include "dist/worker.hh"
#include "exec/progress.hh"
#include "fault/campaign.hh"
#include "fault/journal.hh"
#include "filters/detector.hh"
#include "pipeline/core.hh"
#include "workload/workload.hh"

using namespace fh;

namespace
{

/** Bytes requested from operator new while counting is on: the exact
 *  heap footprint of whatever the counting thread constructs (malloc's
 *  own statistics round to chunk sizes that depend on heap history). */
std::atomic<bool> gCountNew{false};
std::atomic<u64> gNewBytes{0};

} // namespace

void *
operator new(std::size_t n)
{
    if (gCountNew.load(std::memory_order_relaxed))
        gNewBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
cpuSeconds(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Larger of this process's peak RSS and any reaped child's, in KiB. */
long
peakRssKb()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return std::max(self.ru_maxrss, kids.ru_maxrss);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

long
fileSize(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size)
                                          : 0;
}

// ----------------------------------------------------------- workloads

/**
 * One benchmark workload: everything its campaigns are a function of,
 * apart from the seed. perfbench/README.md explains each choice.
 */
struct Workload
{
    const char *name;
    const char *bench;
    bool dispatch;      ///< through dist::Coordinator + forked workers
    u64 injections;     ///< fixed count, or the cap when ciTarget > 0
    double ciTarget;    ///< adaptive stop target; 0 = fixed count
    u64 ciWave;
    u64 window;
    u64 warmupInsts;
    unsigned threads;   ///< pool threads (per worker when dispatched)
    unsigned workers;   ///< worker processes when dispatched
    u64 chunk;          ///< trials per lease when dispatched; 0 = auto
    bool journal;
};

const Workload kWorkloads[] = {
    {"perl-fixed-1t", "400.perl", false, 2000, 0.0, 64, 1000, 500000, 1, 0,
     0, false},
    {"mcf-journal-1t", "429.mcf", false, 1800, 0.0, 64, 1000, 400000, 1, 0,
     0, true},
    {"ocean-adaptive-dispatch", "ocean", true, 8192, 0.013, 64, 1000,
     500000, 1, 2, 256, false},
};

dist::CampaignSpec
makeSpec(const Workload &w, u64 seed)
{
    dist::CampaignSpec s;
    s.bench = w.bench;
    s.scheme = "faulthound";
    s.workload.seed = seed;
    s.campaign.injections = w.injections;
    s.campaign.window = w.window;
    s.campaign.warmupInsts = w.warmupInsts;
    s.campaign.seed = seed;
    s.campaign.ciTarget = w.ciTarget;
    s.campaign.ciWave = w.ciWave;
    s.campaign.earlyStop = true;
    s.campaign.threads = w.threads;
    return s;
}

/** The scheme name runCampaign writes into a journal header. */
std::string
schemeName(const pipeline::CoreParams &params)
{
    return filters::to_string(params.detector.scheme);
}

/** The program the spec describes, built through workload::build
 *  exactly as dist::CampaignSpec::buildProgram builds it. */
isa::Program
buildProgram(const dist::CampaignSpec &spec)
{
    workload::WorkloadSpec ws = spec.workload;
    ws.maxThreads = std::max(2u, spec.coreThreads);
    return workload::build(spec.bench, ws);
}

// ------------------------------------------------------------- tracing

/** In-memory span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        u64 run;
        int parent;
        Clock::time_point start;
        Clock::time_point end;
    };

    bool on = false;
    u64 run = 0; ///< id shared by the spans of one campaign or probe

    int open(const char *name)
    {
        if (!on)
            return -1;
        const int id = static_cast<int>(spans_.size());
        const int parent = stack_.empty() ? -1 : stack_.back();
        const auto now = Clock::now();
        spans_.push_back({name, run, parent, now, now});
        stack_.push_back(id);
        return id;
    }

    void close(int id)
    {
        if (id < 0)
            return;
        spans_[id].end = Clock::now();
        stack_.pop_back();
    }

    /** Durations in seconds of every span with this name in run r. */
    std::vector<double> durations(const char *name, u64 r) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (s.run == r && std::strcmp(s.name, name) == 0)
                out.push_back(secondsBetween(s.start, s.end));
        return out;
    }

    /** One JSON line per span, with its self time: its duration less
     *  the part its child spans cover. */
    bool write(const std::string &path) const
    {
        std::vector<double> childTime(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.parent >= 0)
                childTime[s.parent] += secondsBetween(s.start, s.end);
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const Clock::time_point t0 =
            spans_.empty() ? Clock::now() : spans_.front().start;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const double dur = secondsBetween(s.start, s.end);
            std::fprintf(f,
                         "{\"id\": %zu, \"run\": %llu, \"name\": \"%s\", "
                         "\"parent\": %d, \"start_us\": %.3f, "
                         "\"end_us\": %.3f, \"self_us\": %.3f}\n",
                         i, static_cast<unsigned long long>(s.run), s.name,
                         s.parent, 1e6 * secondsBetween(t0, s.start),
                         1e6 * secondsBetween(t0, s.end),
                         1e6 * (dur - childTime[i]));
        }
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** A span around one call: opened here, closed at scope exit. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

// ----------------------------------------------------------- campaigns

/** One trial as the sink saw it, kept for the journal probe. */
struct Record
{
    u64 trial;
    fault::CampaignResult delta;
    fault::TrialMeta meta;
};

/** One campaign, start to result. */
struct Sample
{
    double setupS = 0.0; ///< start -> first trial result
    double runS = 0.0;   ///< first trial result -> campaign result
    double cpuS = 0.0;   ///< user+sys, this process + reaped children
    fault::CampaignResult result;

    // Layer figures.
    fault::CampaignPhases producer; ///< RangeOutcome::phases, summed
    fault::SchedCounters masterSched;
    double rangeS = 0.0;    ///< wall time inside runRange calls
    long journalBytes = 0;  ///< record bytes (header excluded)
    double coordCpuS = 0.0; ///< dispatch: coordinator process
    double workerCpuS = 0.0; ///< dispatch: reaped workers
    dist::DistStats fabric;
    std::vector<Record> records; ///< traced in-process campaigns only

    u64 run = 0; ///< tracer run id
    bool traced = false;
};

/**
 * In-process campaign through fault::CampaignSession, with the merge
 * and journal sink runCampaign uses. Adaptive campaigns advance one
 * wave per runRange and apply runCampaign's stop rule at each wave
 * boundary.
 */
Sample
runInProcess(const dist::CampaignSpec &spec, unsigned threads,
             const std::string &journalPath, Tracer &tr)
{
    Sample s;
    const double cpu0 =
        cpuSeconds(RUSAGE_SELF) + cpuSeconds(RUSAGE_CHILDREN);
    const auto t0 = Clock::now();

    isa::Program prog;
    {
        Scope sp(tr, "workload.build");
        prog = buildProgram(spec);
    }
    const pipeline::CoreParams params = spec.buildParams();
    fault::CampaignConfig cfg = spec.campaign;
    cfg.threads = threads;
    std::unique_ptr<fault::CampaignSession> session;
    {
        Scope sp(tr, "session.construct");
        session =
            std::make_unique<fault::CampaignSession>(params, &prog, cfg);
    }
    std::unique_ptr<fault::TrialJournal> journal;
    long headerBytes = 0;
    if (!journalPath.empty()) {
        std::remove(journalPath.c_str());
        Scope sp(tr, "journal.open");
        journal = std::make_unique<fault::TrialJournal>(
            journalPath, cfg, schemeName(params));
        headerBytes = fileSize(journalPath);
    }

    fault::CampaignResult &result = s.result;
    Clock::time_point first = t0;
    bool haveFirst = false;
    const bool keep = tr.on;
    const fault::TrialSink sink = [&](u64 trial,
                                      const fault::CampaignResult &delta,
                                      const fault::TrialMeta &meta) {
        if (!haveFirst) {
            first = Clock::now();
            haveFirst = true;
        }
        {
            Scope sp(tr, "sink");
            {
                Scope m(tr, "merge");
                result += delta;
                result.profile.addTrial(delta, meta);
            }
            if (journal) {
                Scope j(tr, "journal.record");
                journal->record(trial, delta, meta);
            }
        }
        if (keep)
            s.records.push_back({trial, delta, meta});
    };

    auto range = [&](u64 begin, u64 end) {
        const auto r0 = Clock::now();
        fault::RangeOutcome out;
        {
            Scope sp(tr, "session.runRange");
            out = session->runRange(begin, end, sink);
        }
        s.rangeS += secondsBetween(r0, Clock::now());
        s.producer += out.phases;
        s.masterSched += out.sched;
        return out;
    };

    if (cfg.ciTarget <= 0.0) {
        range(0, cfg.injections);
    } else {
        const fault::StratumSpace &space = session->strata();
        const u64 wave = std::max<u64>(cfg.ciWave, 1);
        u64 pos = 0;
        while (pos < cfg.injections) {
            if (pos > 0 && pos % wave == 0 &&
                fault::pooledSdcHalfWidth(result.profile, space) <=
                    cfg.ciTarget) {
                result.ciStopped = true;
                break;
            }
            const fault::RangeOutcome out = range(
                pos, std::min((pos / wave + 1) * wave, cfg.injections));
            pos = out.nextTrial;
            if (out.halted || out.stopped)
                break;
        }
    }
    const auto tEnd = Clock::now();
    if (journal) {
        s.journalBytes = fileSize(journalPath) - headerBytes;
        journal.reset();
        std::remove(journalPath.c_str());
    }
    session.reset();
    s.setupS = secondsBetween(t0, first);
    s.runS = secondsBetween(first, tEnd);
    s.cpuS = cpuSeconds(RUSAGE_SELF) + cpuSeconds(RUSAGE_CHILDREN) - cpu0;
    return s;
}

/** Kills (if still running) and reaps spawned workers on every exit
 *  path, so no orphan loads the next run. */
class WorkerReaper
{
  public:
    WorkerReaper() = default;
    WorkerReaper(const WorkerReaper &) = delete;
    WorkerReaper &operator=(const WorkerReaper &) = delete;

    ~WorkerReaper()
    {
        for (pid_t pid : pids) {
            ::kill(pid, SIGKILL);
            dist::reap(pid);
            dist::ChildGuard::remove(pid);
        }
    }

    /** Normal path: wait for every worker to exit after Shutdown. */
    void reapAll()
    {
        for (pid_t pid : pids) {
            dist::reap(pid);
            dist::ChildGuard::remove(pid);
        }
        pids.clear();
    }

    std::vector<pid_t> pids;
};

/**
 * Dispatched campaign: the coordinator runs in this process and the
 * workers are forked from it (dist::spawnFn), connecting over a Unix
 * socket. Set-up ends at the coordinator's first merged trial, seen
 * through its progress meter.
 */
Sample
runDispatch(const dist::CampaignSpec &spec, unsigned threads,
            unsigned workers, u64 chunk, const std::string &socketPath,
            Tracer &tr)
{
    Sample s;
    const double self0 = cpuSeconds(RUSAGE_SELF);
    const double kids0 = cpuSeconds(RUSAGE_CHILDREN);
    const auto t0 = Clock::now();

    // A meter that never logs: it only counts merged trials.
    exec::ProgressMeter meter("perfbench", 0, u64{1} << 60);
    dist::CoordinatorOptions opts;
    std::string error;
    if (!dist::parseEndpoint("unix:" + socketPath, opts.listen, error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        std::exit(1);
    }
    opts.workers = workers;
    opts.chunk = chunk;
    opts.progress = &meter;
    std::unique_ptr<dist::Coordinator> coord;
    {
        Scope sp(tr, "dist.Coordinator");
        coord = std::make_unique<dist::Coordinator>(spec, opts);
    }
    WorkerReaper reaper;
    {
        Scope sp(tr, "dist.spawnFn");
        const dist::Endpoint ep = coord->endpoint();
        for (unsigned i = 0; i < workers; ++i) {
            const pid_t pid = dist::spawnFn([ep, threads] {
                ::prctl(PR_SET_PDEATHSIG, SIGKILL);
                dist::WorkerOptions w;
                w.endpoint = ep;
                w.jobs = threads;
                return dist::runWorker(w);
            });
            if (pid < 0) {
                std::fprintf(stderr, "perfbench: worker spawn failed\n");
                std::exit(1);
            }
            dist::ChildGuard::add(pid);
            reaper.pids.push_back(pid);
            coord->addChild(pid);
        }
    }

    std::atomic<bool> finished{false};
    Clock::time_point first = t0;
    std::thread watcher([&] {
        while (meter.done() == 0 && !finished.load())
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        first = Clock::now();
    });
    {
        Scope sp(tr, "dist.Coordinator.run");
        s.result = coord->run(nullptr);
    }
    const auto tEnd = Clock::now();
    finished = true;
    watcher.join();
    s.coordCpuS = cpuSeconds(RUSAGE_SELF) - self0;
    {
        Scope sp(tr, "dist.reap");
        reaper.reapAll();
    }
    s.fabric = coord->stats();
    coord.reset();
    std::remove(socketPath.c_str());
    s.workerCpuS = cpuSeconds(RUSAGE_CHILDREN) - kids0;
    s.setupS = secondsBetween(t0, std::min(first, tEnd));
    s.runS = secondsBetween(std::min(first, tEnd), tEnd);
    s.cpuS = s.coordCpuS + s.workerCpuS;
    return s;
}

// -------------------------------------------------------------- probes

struct PipelineProbe
{
    double nsPerCycle = 0.0;
    double kinstPerS = 0.0;
    double ipc = 0.0;
    double copyUs = 0.0;
    double footprintKb = 0.0;
};

/**
 * Warm a pipeline::Core of the workload's program exactly as the
 * campaign master is warmed, then time Core::advance over a fixed
 * cycle count (IPC over that span is exact), and time a snapshot:
 * copy-assign the core and advance the source by one mean gap, which
 * pays the copy-on-write detach, against the same advance without a
 * copy. The footprint is the heap a fresh copy requests plus the
 * simulated memory it shares copy-on-write.
 */
PipelineProbe
probePipeline(const dist::CampaignSpec &spec, Tracer &tr)
{
    PipelineProbe p;
    isa::Program prog;
    {
        Scope sp(tr, "workload.build");
        prog = buildProgram(spec);
    }
    const pipeline::CoreParams params = spec.buildParams();
    pipeline::Core core(params, &prog);
    {
        Scope sp(tr, "probe.warmup");
        while (core.committedTotal() < spec.campaign.warmupInsts &&
               !core.allHalted())
            core.tick();
    }

    {
        Scope sp(tr, "probe.pipeline");
        constexpr Cycle kChunk = 20000;
        constexpr int kChunks = 15;
        std::vector<double> perCycle;
        const u64 c0 = core.cycle();
        const u64 i0 = core.committedTotal();
        double wall = 0.0;
        for (int i = 0; i < kChunks; ++i) {
            const auto t = Clock::now();
            core.advance(kChunk);
            const double d = secondsBetween(t, Clock::now());
            wall += d;
            perCycle.push_back(1e9 * d / kChunk);
        }
        const u64 cycles = core.cycle() - c0;
        const u64 insts = core.committedTotal() - i0;
        p.nsPerCycle = median(perCycle);
        p.kinstPerS = wall > 0 ? 1e-3 * static_cast<double>(insts) / wall
                               : 0.0;
        p.ipc = cycles ? static_cast<double>(insts) /
                             static_cast<double>(cycles)
                       : 0.0;
    }

    {
        Scope sp(tr, "probe.snapshot");
        const Cycle gap =
            (spec.campaign.minGap + spec.campaign.maxGap) / 2;
        gNewBytes = 0;
        gCountNew = true;
        pipeline::Core snap(core);
        gCountNew = false;
        p.footprintKb =
            static_cast<double>(gNewBytes.load() +
                                8 * core.memory().footprintWords()) /
            1024.0;
        std::vector<double> plain, copied;
        for (int i = 0; i < 200; ++i) {
            auto t = Clock::now();
            core.advance(gap);
            plain.push_back(secondsBetween(t, Clock::now()));
            t = Clock::now();
            snap = core;
            core.advance(gap);
            copied.push_back(secondsBetween(t, Clock::now()));
        }
        p.copyUs = 1e6 * (median(copied) - median(plain));
    }
    return p;
}

/** Write a campaign's record stream into a fresh journal (for the
 *  workloads that run without one); returns the record bytes. Each
 *  record() call is a "journal.record" span. */
long
probeJournal(const dist::CampaignSpec &spec,
             const std::vector<Record> &records, const std::string &path,
             Tracer &tr)
{
    std::remove(path.c_str());
    long bytes = 0;
    {
        fault::TrialJournal journal(path, spec.campaign,
                                    schemeName(spec.buildParams()));
        const long header = fileSize(path);
        for (const Record &r : records) {
            Scope sp(tr, "journal.record");
            journal.record(r.trial, r.delta, r.meta);
        }
        bytes = fileSize(path) - header;
    }
    std::remove(path.c_str());
    return bytes;
}

// -------------------------------------------------------------- output

void
writeClassification(std::FILE *f, const fault::CampaignResult &r)
{
    auto u = [](u64 v) { return static_cast<unsigned long long>(v); };
    std::fprintf(f,
                 "{\"injected\": %llu, \"masked\": %llu, \"noisy\": %llu, "
                 "\"sdc\": %llu, \"recovered\": %llu, \"detected\": %llu, "
                 "\"uncovered\": %llu, \"trial_errors\": %llu, "
                 "\"ci_stopped\": %s, \"bins\": {\"covered\": %llu, "
                 "\"second_level_masked\": %llu, \"completed_reg\": %llu, "
                 "\"arch_reg\": %llu, \"rename_uncovered\": %llu, "
                 "\"no_trigger\": %llu, \"other\": %llu}}",
                 u(r.injected), u(r.masked), u(r.noisy), u(r.sdc),
                 u(r.recovered), u(r.detected), u(r.uncovered),
                 u(r.trialErrors), r.ciStopped ? "true" : "false",
                 u(r.bins.covered), u(r.bins.secondLevelMasked),
                 u(r.bins.completedReg), u(r.bins.archReg),
                 u(r.bins.renameUncovered), u(r.bins.noTrigger),
                 u(r.bins.other));
}

void
writeSample(std::FILE *f, const Sample &s)
{
    std::fprintf(f,
                 "{\"traced\": %s, \"setup_s\": %.6f, \"run_s\": %.6f, "
                 "\"cpu_s\": %.6f, \"degraded\": %s, \"classification\": ",
                 s.traced ? "true" : "false", s.setupS, s.runS, s.cpuS,
                 s.fabric.degraded ? "true" : "false");
    writeClassification(f, s.result);
    std::fprintf(f, "}");
}

double
trialsPerSecond(const Sample &s)
{
    return s.runS > 0 ? static_cast<double>(s.result.injected - 1) / s.runS
                      : 0.0;
}

struct Args
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool crossCheck = false;
    std::string tmp = ".";
    std::string out = ".";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (*end)
                return false;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (*end || !(a.seconds > 0))
                return false;
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "1") == 0;
        } else if (k == "--cross-check") {
            a.crossCheck = std::strcmp(v, "1") == 0;
        } else if (k == "--tmp") {
            a.tmp = v;
        } else if (k == "--out") {
            a.out = v;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !a.workload.empty();
}

/** Runs campaigns and probes, giving each its own tracer run id. */
struct Bench
{
    const Workload &w;
    dist::CampaignSpec spec;
    std::string tmp;
    Tracer tracer;
    u64 nextRun = 0;

    /** Start a new tracer run; an untraced one records nothing. */
    Tracer &begin(bool traced)
    {
        tracer.on = traced;
        tracer.run = nextRun++;
        return tracer;
    }

    /** One campaign of the workload in its own shape. */
    Sample campaign(bool traced)
    {
        Tracer &tr = begin(traced);
        Sample s = w.dispatch
                       ? runDispatch(spec, w.threads, w.workers, w.chunk,
                                     tmp + "/fabric.sock", tr)
                       : runInProcess(spec, w.threads,
                                      w.journal ? tmp + "/journal.jsonl"
                                                : std::string(),
                                      tr);
        s.run = tracer.run;
        s.traced = traced;
        tracer.on = false;
        return s;
    }

    /** The campaign of `sp` in the reference shape: in-process, one
     *  thread, no journal. */
    Sample reference(const dist::CampaignSpec &sp, bool traced)
    {
        Tracer &tr = begin(traced);
        Sample s = runInProcess(sp, 1, std::string(), tr);
        s.run = tracer.run;
        s.traced = traced;
        tracer.on = false;
        return s;
    }

    /** Durations of the named spans in the given samples' runs. */
    std::vector<double> spans(const char *name,
                              const std::vector<const Sample *> &from)
    {
        std::vector<double> d;
        for (const Sample *s : from) {
            const std::vector<double> x = tracer.durations(name, s->run);
            d.insert(d.end(), x.begin(), x.end());
        }
        return d;
    }
};

double
sum(const std::vector<double> &v)
{
    double t = 0.0;
    for (double x : v)
        t += x;
    return t;
}

/** Fabric figures: spawn time, coordinator and worker CPU per trial,
 *  worker CPU per trial over the in-process reference's, and leases. */
void
fabricMetrics(const std::vector<const Sample *> &dispatched,
              const Sample &inProcess, Bench &b,
              std::map<std::string, double> &m)
{
    double coord = 0.0, workers = 0.0, trials = 0.0;
    for (const Sample *s : dispatched) {
        coord += s->coordCpuS;
        workers += s->workerCpuS;
        trials += static_cast<double>(s->result.injected);
    }
    const double refPerTrial =
        inProcess.cpuS / static_cast<double>(inProcess.result.injected);
    m["fabric.spawn_ms"] = 1e3 * median(b.spans("dist.spawnFn", dispatched));
    m["fabric.coord_cpu_ms_per_trial"] = 1e3 * coord / trials;
    m["fabric.worker_cpu_ms_per_trial"] = 1e3 * workers / trials;
    m["fabric.cpu_overhead"] = workers / trials / refPerTrial;
    m["fabric.ranges_issued"] =
        static_cast<double>(dispatched.back()->fabric.rangesIssued);
    m["fabric.ranges_reissued"] =
        static_cast<double>(dispatched.back()->fabric.rangesReissued);
}

/**
 * Per-layer figures of a traced run; BENCHMARK.json lists them and the
 * end-to-end metric each should move. Layers below the fabric come
 * from the traced campaigns — on the dispatched workload from its
 * in-process reference campaign, since the coordinator builds no
 * program and the wire carries no phase times. A layer the workload's
 * campaign does not exercise is measured by a probe of the same
 * campaign: the journal by writing the traced campaign's records to a
 * scratch journal, the fabric by dispatching the workload's first
 * kFabricProbeTrials trials to two forked workers.
 */
std::map<std::string, double>
layerMetrics(Bench &b, const std::vector<Sample> &samples,
             const Sample &ref)
{
    constexpr u64 kFabricProbeTrials = 128;
    const Workload &w = b.w;
    std::vector<const Sample *> traced, plain;
    for (const Sample &s : samples)
        (s.traced ? traced : plain).push_back(&s);
    const std::vector<const Sample *> local =
        w.dispatch ? std::vector<const Sample *>{&ref} : traced;

    std::map<std::string, double> m;
    m["workload.build_ms"] =
        1e3 * median(b.spans("workload.build", local));
    m["session.setup_ms"] =
        1e3 * median(b.spans("session.construct", local));

    double trials = 0.0, rangeS = 0.0;
    fault::CampaignPhases prod, fork;
    fault::SchedCounters sched;
    for (const Sample *s : local) {
        trials += static_cast<double>(s->result.injected);
        rangeS += s->rangeS;
        prod += s->producer;
        fork += s->result.phases;
        sched += s->masterSched;
        sched += s->result.sched;
    }
    const double us = 1e-3 / trials;
    const double forkNs = static_cast<double>(
        fork.bareNs + fork.protectedNs + fork.compareNs);
    const unsigned localThreads = w.dispatch ? 1 : w.threads;
    m["producer.advance_us_per_trial"] =
        static_cast<double>(prod.goldenNs) * us;
    m["producer.snapshot_us_per_trial"] =
        static_cast<double>(prod.snapshotNs) * us;
    m["producer.share"] =
        1e-9 * static_cast<double>(prod.goldenNs + prod.snapshotNs) /
        rangeS;
    m["fork.bare_us_per_trial"] = static_cast<double>(fork.bareNs) * us;
    m["fork.protected_us_per_trial"] =
        static_cast<double>(fork.protectedNs) * us;
    m["fork.compare_us_per_trial"] =
        static_cast<double>(fork.compareNs) * us;
    m["pool.busy_share"] = 1e-9 * forkNs / (localThreads * rangeS);
    m["merge.us_per_trial"] = 1e6 * sum(b.spans("merge", local)) / trials;
    m["sched.issue_evals"] = static_cast<double>(sched.issueEvals);
    m["sched.issue_candidates"] =
        static_cast<double>(sched.issueCandidates);
    m["sched.wakeup_hits"] = static_cast<double>(sched.wakeupHits);

    std::vector<double> records;
    double journalBytes = 0.0, journalTrials = trials;
    if (w.journal) {
        records = b.spans("journal.record", local);
        for (const Sample *s : local)
            journalBytes += static_cast<double>(s->journalBytes);
    } else {
        const Sample &src = *local.back();
        Tracer &tr = b.begin(true);
        journalBytes = static_cast<double>(
            probeJournal(b.spec, src.records, b.tmp + "/probe.jsonl", tr));
        tr.on = false;
        records = tr.durations("journal.record", tr.run);
        journalTrials = static_cast<double>(src.records.size());
    }
    m["journal.us_per_record"] =
        1e6 * sum(records) / static_cast<double>(records.size());
    m["journal.bytes_per_trial"] = journalBytes / journalTrials;

    // Exact work counters of the workload's own campaign.
    const Sample &own = *traced.back();
    m["work.skipped_provably_masked"] =
        static_cast<double>(own.result.skippedProvablyMasked);
    m["work.early_terminated"] =
        static_cast<double>(own.result.earlyTerminated);
    m["work.hung_bare"] = static_cast<double>(own.result.hungBare);
    m["sampling.waves"] =
        w.ciTarget > 0 ? std::ceil(static_cast<double>(own.result.injected) /
                                   static_cast<double>(w.ciWave))
                       : 0.0;

    if (w.dispatch) {
        fabricMetrics(traced, ref, b, m);
    } else {
        dist::CampaignSpec probe = b.spec;
        probe.campaign.injections = kFabricProbeTrials;
        probe.campaign.ciTarget = 0.0;
        Tracer &tr = b.begin(true);
        Sample d =
            runDispatch(probe, 1, 2, 0, b.tmp + "/fabric.sock", tr);
        d.run = b.tracer.run;
        b.tracer.on = false;
        const Sample inProcess = b.reference(probe, false);
        fabricMetrics({&d}, inProcess, b, m);
    }

    const PipelineProbe pp = probePipeline(b.spec, b.begin(true));
    b.tracer.on = false;
    m["pipeline.ns_per_cycle"] = pp.nsPerCycle;
    m["pipeline.kinst_per_s"] = pp.kinstPerS;
    m["pipeline.ipc"] = pp.ipc;
    m["snapshot.copy_us"] = pp.copyUs;
    m["snapshot.footprint_kb"] = pp.footprintKb;

    std::vector<double> tpsTraced, tpsPlain;
    for (const Sample *s : traced)
        tpsTraced.push_back(trialsPerSecond(*s));
    for (const Sample *s : plain)
        tpsPlain.push_back(trialsPerSecond(*s));
    m["trace.overhead"] = median(tpsTraced) / median(tpsPlain);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    // Die with whoever started us, and take the workers along (each
    // sets the same), so a killed run leaves no process behind.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: fh_perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --tmp DIR --out DIR "
                     "[--cross-check 0|1]\n");
        return 2;
    }
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (args.workload == cand.name)
            w = &cand;
    if (!w) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    Bench b{*w, makeSpec(*w, args.seed), args.tmp, {}, 0};

    // Closed loop: campaigns back to back until the next one would end
    // past the wall budget. A traced run alternates untraced and
    // traced campaigns and runs at least one of each.
    std::vector<Sample> samples;
    const auto start = Clock::now();
    for (u64 i = 0;; ++i) {
        samples.push_back(b.campaign(args.trace && i % 2 == 1));
        const double elapsed = secondsBetween(start, Clock::now());
        if (args.trace && i == 0)
            continue;
        if (elapsed + elapsed / static_cast<double>(i + 1) > args.seconds)
            break;
    }
    const long peakKb = peakRssKb();

    // The reference shape, for seeds without a recorded reference and
    // for every traced run of the dispatched workload.
    const bool wantRef = args.crossCheck || (args.trace && w->dispatch);
    Sample ref;
    if (wantRef)
        ref = b.reference(b.spec, args.trace && w->dispatch);

    std::map<std::string, double> layers;
    if (args.trace) {
        layers = layerMetrics(b, samples, ref);
        const std::string path = args.out + "/trace-" + w->name + "-seed" +
                                 std::to_string(args.seed) + ".jsonl";
        if (!b.tracer.write(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
    }

    std::FILE *f = stdout;
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, ", w->name,
                 static_cast<unsigned long long>(args.seed));
    std::fprintf(f, "\"peak_rss_kb\": %ld, \"campaigns\": [", peakKb);
    for (size_t i = 0; i < samples.size(); ++i) {
        if (i)
            std::fprintf(f, ", ");
        writeSample(f, samples[i]);
    }
    std::fprintf(f, "]");
    if (wantRef) {
        std::fprintf(f, ", \"reference\": ");
        writeClassification(f, ref.result);
    }
    if (args.trace) {
        std::fprintf(f, ", \"layers\": {");
        const char *sep = "";
        for (const auto &[k, v] : layers) {
            std::fprintf(f, "%s\"%s\": %.17g", sep, k.c_str(), v);
            sep = ", ";
        }
        std::fprintf(f, "}");
    }
    std::fprintf(f, "}\n");
    return 0;
}
