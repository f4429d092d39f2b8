/**
 * @file
 * The campaign resilience layer: panic-to-SimError trial isolation
 * (and its FH_STRICT escape hatch), the trial journal's
 * kill-at-trial-K → resume → bit-identical-continuation contract at 1
 * and 4 worker threads, the one trial bound (forkMaxCycles on an
 * always-looping program, the GoldenLedger forceFinalizeAll hung-master
 * drain), the refusal of a program the golden ledger cannot serve, and
 * an FH_JSON throughput that counts executed trials only.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include <sys/stat.h>

#include "exec/progress.hh"
#include "fault/campaign.hh"
#include "fault/campaign_json.hh"
#include "fault/journal.hh"
#include "fault/tandem.hh"
#include "isa/program.hh"
#include "pipeline/core.hh"
#include "sim/error.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

using namespace fh;

namespace
{

/** Scoped FH_STRICT override restoring the previous value on exit. */
class StrictModeOverride
{
  public:
    explicit StrictModeOverride(const char *value)
    {
        const char *old = std::getenv("FH_STRICT");
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        setenv("FH_STRICT", value, 1);
    }

    ~StrictModeOverride()
    {
        if (had_)
            setenv("FH_STRICT", old_.c_str(), 1);
        else
            unsetenv("FH_STRICT");
    }

  private:
    bool had_ = false;
    std::string old_;
};

isa::Program
prog()
{
    workload::WorkloadSpec spec;
    spec.maxThreads = 2;
    spec.footprintDivider = 64;
    return workload::build("ocean", spec);
}

pipeline::CoreParams
fhParams()
{
    pipeline::CoreParams p;
    p.detector = filters::DetectorParams::faultHound();
    return p;
}

/** Both SMT contexts spin forever: addi/jmp, unreachable halt. */
isa::Program
spinProg()
{
    isa::ProgramBuilder b("spin");
    b.addSegment(0x20000000, 4096);
    b.addSegment(0x20010000, 4096);
    b.emit(isa::makeLi(2, 0));
    const u32 loop = b.here();
    b.emit(isa::makeRRI(isa::Op::Addi, 2, 2, 1));
    b.emit(isa::makeJmp(loop));
    isa::Program p = b.take();
    p.threadBases = {0x20000000, 0x20010000};
    return p;
}

/** Both SMT contexts on one data segment: no thread owns a segment. */
isa::Program
sharedSegmentProg()
{
    isa::ProgramBuilder b("shared-segment");
    b.addSegment(0x20000000, 4096);
    b.emit(isa::makeLi(2, 0));
    b.emit(isa::makeHalt());
    isa::Program p = b.take();
    p.threadBases = {0x20000000, 0x20000000};
    return p;
}

/** One SMT context that stores into the segment it does not own. */
isa::Program
unownedWriterProg()
{
    isa::ProgramBuilder b("unowned-writer");
    b.addSegment(0x20000000, 4096);
    b.addSegment(0x20010000, 4096);
    b.emit(isa::makeLi(2, 0x20010000));
    b.emit(isa::makeLi(3, 1));
    const u32 loop = b.here();
    b.emit(isa::makeSt(2, 3, 0));
    b.emit(isa::makeRRI(isa::Op::Addi, 3, 3, 1));
    b.emit(isa::makeJmp(loop));
    isa::Program p = b.take();
    p.threadBases = {0x20000000, 0x20010000};
    return p;
}

/** A journal path under the test temp dir, fresh per call site. */
std::string
journalPath(const std::string &name)
{
    const std::string path = testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
}

void
expectIdentical(const fault::CampaignResult &a,
                const fault::CampaignResult &b)
{
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.masked, b.masked);
    EXPECT_EQ(a.noisy, b.noisy);
    EXPECT_EQ(a.sdc, b.sdc);
    EXPECT_EQ(a.recovered, b.recovered);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.uncovered, b.uncovered);
    EXPECT_EQ(a.trialErrors, b.trialErrors);
    EXPECT_EQ(a.hungBare, b.hungBare);
    EXPECT_EQ(a.hungProtected, b.hungProtected);
    EXPECT_EQ(a.bins.covered, b.bins.covered);
    EXPECT_EQ(a.bins.secondLevelMasked, b.bins.secondLevelMasked);
    EXPECT_EQ(a.bins.completedReg, b.bins.completedReg);
    EXPECT_EQ(a.bins.archReg, b.bins.archReg);
    EXPECT_EQ(a.bins.renameUncovered, b.bins.renameUncovered);
    EXPECT_EQ(a.bins.noTrigger, b.bins.noTrigger);
    EXPECT_EQ(a.bins.other, b.bins.other);
}

fault::CampaignConfig
baseConfig()
{
    fault::CampaignConfig cfg;
    cfg.injections = 24;
    cfg.window = 300;
    cfg.seed = 77;
    cfg.threads = 1;
    return cfg;
}

/**
 * The resume-determinism contract (at the given worker-thread count):
 * killing a journaled campaign after K executed trials and rerunning
 * it with the same configuration yields the exact counters of the
 * uninterrupted reference run.
 */
void
checkResume(unsigned threads)
{
    auto program = prog();
    auto params = fhParams();

    fault::CampaignConfig cfg = baseConfig();
    cfg.threads = threads;
    const auto reference = fault::runCampaign(params, &program, cfg);
    ASSERT_EQ(reference.injected, cfg.injections);
    EXPECT_FALSE(reference.partial);

    cfg.journalPath =
        journalPath("resume_t" + std::to_string(threads) + ".fhj");
    cfg.stopAfterTrials = 10; // simulated SIGINT after 10 trials
    const auto interrupted = fault::runCampaign(params, &program, cfg);
    EXPECT_TRUE(interrupted.partial);
    EXPECT_GE(interrupted.injected, cfg.stopAfterTrials);
    EXPECT_LT(interrupted.injected, cfg.injections);

    cfg.stopAfterTrials = 0;
    const auto resumed = fault::runCampaign(params, &program, cfg);
    EXPECT_FALSE(resumed.partial);
    // Every trial the interrupted run completed was replayed from the
    // journal, not executed again.
    EXPECT_EQ(resumed.replayedTrials, interrupted.injected);
    expectIdentical(reference, resumed);

    // A second rerun replays everything and still matches.
    const auto replayed = fault::runCampaign(params, &program, cfg);
    EXPECT_EQ(replayed.replayedTrials, cfg.injections);
    expectIdentical(reference, replayed);
    std::remove(cfg.journalPath.c_str());
}

} // namespace

TEST(TrialIsolation, PanicThrowsSimErrorInsideScope)
{
    StrictModeOverride strict("0");
    PanicScope scope;
    EXPECT_TRUE(PanicScope::active());
    try {
        fh_panic("isolated failure %d", 42);
        FAIL() << "fh_panic returned";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.message()).find("isolated failure 42"),
                  std::string::npos);
        EXPECT_NE(std::string(e.file()).find("test_resilience"),
                  std::string::npos);
        EXPECT_GT(e.line(), 0);
        EXPECT_NE(std::string(e.what()).find("isolated failure 42"),
                  std::string::npos);
    }
}

TEST(TrialIsolation, ScopeNestsAndDeactivates)
{
    EXPECT_FALSE(PanicScope::active());
    {
        PanicScope outer;
        PanicScope inner;
        EXPECT_TRUE(PanicScope::active());
    }
    EXPECT_FALSE(PanicScope::active());
}

TEST(TrialIsolationDeathTest, PanicAbortsOutsideScope)
{
    StrictModeOverride strict("0");
    EXPECT_FALSE(PanicScope::active());
    EXPECT_DEATH(fh_panic("unscoped"), "panic: unscoped");
}

TEST(TrialIsolationDeathTest, StrictModeAbortsEvenInScope)
{
    StrictModeOverride strict("1");
    PanicScope scope;
    EXPECT_DEATH(fh_panic("strict"), "panic: strict");
}

TEST(TrialIsolation, CampaignIsolatesInTrialPanic)
{
    StrictModeOverride strict("0");
    auto program = prog();
    auto params = fhParams();

    fault::CampaignConfig cfg = baseConfig();
    const auto clean = fault::runCampaign(params, &program, cfg);
    EXPECT_EQ(clean.trialErrors, 0u);

    cfg.panicAtTrial = 7;
    const auto serial = fault::runCampaign(params, &program, cfg);
    EXPECT_EQ(serial.injected, cfg.injections);
    EXPECT_EQ(serial.trialErrors, 1u);
    // The errored trial is counted in injected but in no class;
    // everything else classifies exactly as before.
    EXPECT_EQ(serial.masked + serial.noisy + serial.sdc +
                  serial.trialErrors,
              serial.injected);
    EXPECT_EQ(serial.masked + serial.noisy + serial.sdc + 1,
              clean.masked + clean.noisy + clean.sdc);

    // Isolation does not disturb the worker-count determinism
    // contract: the panicking trial errors identically under a pool.
    cfg.threads = 4;
    const auto parallel = fault::runCampaign(params, &program, cfg);
    expectIdentical(serial, parallel);
}

TEST(TrialIsolationDeathTest, StrictModeAbortsCampaignOnTrialPanic)
{
    StrictModeOverride strict("1");
    auto program = prog();
    auto params = fhParams();
    fault::CampaignConfig cfg = baseConfig();
    cfg.injections = 10;
    cfg.panicAtTrial = 5;
    EXPECT_DEATH(fault::runCampaign(params, &program, cfg),
                 "panic: campaign debug hook");
}

TEST(LedgerLayoutDeathTest, CampaignRefusesThreadsSharingASegment)
{
    // The golden ledger needs a segment per SMT thread; a program
    // without one is refused by name instead of run another way.
    isa::Program p = sharedSegmentProg();
    EXPECT_DEATH(fault::runCampaign(fhParams(), &p, baseConfig()),
                 "program 'shared-segment'");
}

TEST(LedgerLayoutDeathTest, CampaignRefusesWritesToAnUnownedSegment)
{
    // At 1 SMT thread the second segment has no owner; the ledger
    // assumes a fault-free run never writes it, and says so when a
    // program breaks that instead of classifying against a stale
    // digest.
    isa::Program p = unownedWriterProg();
    pipeline::CoreParams params = fhParams();
    params.threads = 1;
    fault::CampaignConfig cfg = baseConfig();
    cfg.injections = 2;
    EXPECT_DEATH(fault::runCampaign(params, &p, cfg),
                 "no SMT thread owns");
}

TEST(Journal, ResumeBitIdenticalLedgerSerial) { checkResume(1); }

TEST(Journal, ResumeBitIdenticalLedgerParallel) { checkResume(4); }

TEST(Journal, CompletedJournalShortCircuitsTheCampaign)
{
    auto program = prog();
    auto params = fhParams();
    fault::CampaignConfig cfg = baseConfig();
    cfg.journalPath = journalPath("complete.fhj");
    const auto first = fault::runCampaign(params, &program, cfg);
    EXPECT_EQ(first.replayedTrials, 0u);
    const auto second = fault::runCampaign(params, &program, cfg);
    EXPECT_EQ(second.replayedTrials, cfg.injections);
    expectIdentical(first, second);
    // The journal covers the campaign, so no range runs: the master
    // never advances past warmup to skip over the journaled gaps.
    EXPECT_EQ(second.sched.issueEvals, 0u);
    EXPECT_EQ(second.phases.goldenNs, 0u);
    std::remove(cfg.journalPath.c_str());
}

// A resume rewrites the journal's validated prefix into a temporary
// file that replaces the journal by rename, so a kill during the
// rewrite cannot truncate it: the journal keeps its bytes, becomes a
// new file, and no temporary file stays behind.
TEST(Journal, ResumeReplacesTheJournalWithItsRewrite)
{
    fault::CampaignConfig cfg = baseConfig();
    cfg.journalPath = journalPath("rewrite.fhj");
    auto bytes = [&] {
        std::ifstream in(cfg.journalPath, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    auto inode = [&] {
        struct stat st{};
        EXPECT_EQ(stat(cfg.journalPath.c_str(), &st), 0);
        return st.st_ino;
    };
    {
        fault::TrialJournal journal(cfg.journalPath, cfg, "FaultHound");
        for (u64 t = 0; t < 5; ++t) {
            fault::CampaignResult delta;
            ++delta.injected;
            ++delta.masked;
            fault::TrialMeta meta;
            meta.pc = 0x1000 + t;
            journal.record(t, delta, meta);
        }
    }
    const std::string written = bytes();
    const ino_t before = inode();

    fault::TrialJournal resumed(cfg.journalPath, cfg, "FaultHound");
    EXPECT_EQ(resumed.replayCount(), 5u);
    EXPECT_EQ(bytes(), written);
    EXPECT_NE(inode(), before);
    EXPECT_FALSE(std::ifstream(cfg.journalPath + ".tmp").good());
    std::remove(cfg.journalPath.c_str());
}

// A rewrite that cannot replace the journal (here the journal path is
// a directory, so the rename fails) is fatal and removes its
// temporary file.
TEST(Journal, AFailedRewriteLeavesNoTemporaryFile)
{
    fault::CampaignConfig cfg = baseConfig();
    const std::string dir = journalPath("journal_dir");
    ASSERT_EQ(mkdir(dir.c_str(), 0700), 0);
    EXPECT_DEATH(fault::TrialJournal(dir, cfg, "FaultHound"),
                 "cannot replace journal");
    EXPECT_FALSE(std::ifstream(dir + ".tmp").good());
    std::remove(dir.c_str());
}

TEST(Journal, ReplayedTrialsAddNoThroughput)
{
    // trials_per_second divides executed trials by the wall time: a
    // campaign replayed whole from its journal executed none, so it
    // reports 0 however fast the replay was.
    auto program = prog();
    auto params = fhParams();
    fault::CampaignConfig cfg = baseConfig();
    cfg.journalPath = journalPath("throughput.fhj");
    fault::runCampaign(params, &program, cfg);
    const auto replayed = fault::runCampaign(params, &program, cfg);
    ASSERT_EQ(replayed.replayedTrials, cfg.injections);

    const std::string json = journalPath("throughput.json");
    ASSERT_TRUE(fault::writeCampaignJson(json, "ocean", 1, cfg, replayed,
                                         {1.0, 1.0}));
    std::ifstream in(json);
    const std::string text{std::istreambuf_iterator<char>(in), {}};
    EXPECT_NE(text.find("\"trials_per_second\": 0.0,"), std::string::npos)
        << text;
    std::remove(json.c_str());
    std::remove(cfg.journalPath.c_str());
}

TEST(Journal, ResumedProgressRateCountsExecutedTrials)
{
    // A resume folds its journaled prefix at once, then spends a while
    // (warmup, the master's skip-advance over the prefix) before its
    // first trial executes. The progress line's rate and ETA, like
    // trials_per_second, must count the executed trials over the time
    // since the first of them, while its done/total still counts the
    // replayed ones.
    using SteadyClock = std::chrono::steady_clock;
    fault::CampaignConfig cfg = baseConfig();
    cfg.injections = 2000;
    cfg.journalPath = journalPath("progress.fhj");
    fault::CampaignResult delta;
    delta.injected = 1;
    delta.masked = 1;
    {
        fault::TrialJournal journal(cfg.journalPath, cfg, "FaultHound");
        for (u64 t = 0; t < 1000; ++t)
            journal.record(t, delta, fault::TrialMeta{});
    }
    fault::TrialJournal journal(cfg.journalPath, cfg, "FaultHound");
    exec::ProgressMeter meter("resume", cfg.injections,
                              /*interval_ms=*/0); // a line per tick
    testing::internal::CaptureStderr();
    fault::CampaignMerge merge(cfg, &journal, &meter);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(meter.executingSeconds(), 0.0);
    // The session starts the clock as it begins its first trial.
    const auto before = SteadyClock::now();
    meter.start();
    merge.add(1000, delta, fault::TrialMeta{});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    merge.add(1001, delta, fault::TrialMeta{});
    const double executing = meter.executingSeconds();
    const double window =
        std::chrono::duration<double>(SteadyClock::now() - before).count();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(meter.done(), 1002u);
    EXPECT_GE(executing, 0.02);
    EXPECT_LE(executing, window);

    const size_t at = err.rfind("info: resume: ");
    ASSERT_NE(at, std::string::npos) << err;
    const std::string last = err.substr(at);
    EXPECT_NE(last.find("1002/2000 trials"), std::string::npos) << last;
    const size_t bar = last.find(" | ");
    ASSERT_NE(bar, std::string::npos) << last;
    double rate = 0.0;
    double eta = 0.0;
    ASSERT_EQ(std::sscanf(last.c_str() + bar, " | %lf trials/s | ETA %lfs",
                          &rate, &eta),
              2)
        << last;
    // Two executed trials over at least 20 ms and at most the window,
    // 998 left. Counting the 300 ms before the clock would hold the
    // rate under 2 / 0.3 trials/s; counting the 1000 replayed trials
    // would lift it over 1002 / window.
    EXPECT_GE(rate + 0.05, 2.0 / window) << last;
    EXPECT_LE(rate, 2.0 / 0.02 + 1.0) << last;
    EXPECT_LE(eta, 998.0 * window / 2.0 + 0.5) << last;
    EXPECT_GE(eta, 998.0 * 0.02 / 2.0 - 0.5) << last;
    std::remove(cfg.journalPath.c_str());
}

TEST(JournalDeathTest, ConfigMismatchRefusesToResume)
{
    auto program = prog();
    auto params = fhParams();
    fault::CampaignConfig cfg = baseConfig();
    cfg.injections = 4;
    cfg.journalPath = journalPath("mismatch.fhj");
    fault::runCampaign(params, &program, cfg);
    // Same journal, different seed: resuming would silently mix two
    // campaigns, so the journal must refuse.
    cfg.seed = cfg.seed + 1;
    EXPECT_DEATH(fault::runCampaign(params, &program, cfg),
                 "different campaign configuration");
    std::remove(cfg.journalPath.c_str());
}

TEST(HungForks, AlwaysLoopingForkExhaustsForkMaxCycles)
{
    // Direct runFork on a program that can never reach its commit
    // targets: the cycle bound is the only thing that ends the fork.
    isa::Program p = spinProg();
    pipeline::CoreParams params; // no detector
    pipeline::Core master(params, &p);
    for (int i = 0; i < 2000; ++i)
        master.tick();
    ASSERT_FALSE(master.allHalted());

    std::vector<u64> targets =
        fault::windowTargets(master, 1'000'000'000ull);
    auto out =
        fault::runFork(master, nullptr, false, targets, /*max_cycles=*/3000);
    EXPECT_FALSE(out.reachedTargets);
    EXPECT_FALSE(out.trapped);
}

TEST(HungForks, CampaignCountsHungForksWithoutReclassifying)
{
    // A window far beyond what forkMaxCycles allows: every bare fork
    // hangs (counted), classification still covers every injection,
    // and the ledger drain takes the forceFinalizeAll hung-master
    // path (window >> forkMaxCycles, master not halted).
    auto program = prog();
    auto params = fhParams();
    fault::CampaignConfig cfg = baseConfig();
    cfg.injections = 8;
    cfg.window = 5000;
    cfg.forkMaxCycles = 200;

    const auto serial = fault::runCampaign(params, &program, cfg);
    EXPECT_EQ(serial.injected, cfg.injections);
    EXPECT_GT(serial.hungBare, 0u);
    EXPECT_EQ(serial.masked + serial.noisy + serial.sdc,
              serial.injected);

    cfg.threads = 4;
    const auto parallel = fault::runCampaign(params, &program, cfg);
    expectIdentical(serial, parallel);
}
