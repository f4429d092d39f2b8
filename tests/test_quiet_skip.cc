/**
 * @file
 * Tick-by-tick oracle for the quiet-cycle skip (DESIGN.md "Quiet-cycle
 * skip"). Core::tick() advances exactly one cycle and is the
 * reference; advance() and runUntilCommitted() go through Core::step(),
 * which jumps over cycles in which no stage can act. A step-driven core
 * must be indistinguishable from a tick-driven one: the same cycle,
 * every CoreStats field but skippedCycles, the same commit stream
 * (cycle, thread, count, arch digest), architectural state, memory,
 * caches, filters and return values.
 *
 * Covered: the three campaign workloads and the fuzz suite's random
 * programs; SMT 1 and 2; FaultHound and no detector; wakeup and scan
 * issue; forks carrying each injection target (rename faults included),
 * bounded both loosely and tightly; and a dead machine that only its
 * cycle bound stops.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "pipeline/core.hh"
#include "random_program.hh"
#include "run_fork.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

using namespace fh;
using pipeline::Core;

namespace
{

/** One event of a core's retirement stream. */
struct CommitEvent
{
    Cycle cycle;
    unsigned tid;
    u64 committed;
    u64 digest;
    bool halted;

    bool operator==(const CommitEvent &other) const = default;
};

class CommitLog : public pipeline::CommitObserver
{
  public:
    std::vector<CommitEvent> events;

    void onCommit(const Core &core, unsigned tid) override
    {
        record(core, tid, false);
    }
    void onThreadHalted(const Core &core, unsigned tid) override
    {
        record(core, tid, true);
    }

  private:
    void record(const Core &core, unsigned tid, bool halted)
    {
        events.push_back({core.cycle(), tid, core.committed(tid),
                          core.archDigest(tid), halted});
    }
};

/** Core::advance, written as the tick loop it must equal. */
void
tickAdvance(Core &core, Cycle cycles)
{
    const Cycle end = core.cycle() + cycles;
    while (core.cycle() < end && !core.allHalted())
        core.tick();
}

/** Core::runUntilCommitted, written as the tick loop it must equal;
 *  `watching` says whether the caller armed the regfile watch. */
bool
tickRunUntilCommitted(Core &core, const std::vector<u64> &targets,
                      Cycle max_cycles, bool watching)
{
    auto done = [&] {
        for (unsigned tid = 0; tid < core.numThreads(); ++tid)
            if (!core.halted(tid) && core.committed(tid) < targets[tid])
                return false;
        return true;
    };
    auto all_frozen = [&] {
        for (unsigned tid = 0; tid < core.numThreads(); ++tid) {
            const u64 stop = core.threadOptions(tid).stopAfterInsts;
            if (!core.halted(tid) &&
                (stop == 0 || core.committed(tid) < stop)) {
                return false;
            }
        }
        return true;
    };
    const Cycle end = core.cycle() + max_cycles;
    for (;;) {
        if (done())
            return true;
        if (watching && core.regfileWatchErased())
            return done();
        if (all_frozen())
            return done();
        if (core.cycle() >= end)
            return done();
        core.tick();
    }
}

/** Cheap per-chunk check: the clock and every counter. */
void
expectSameCounters(const Core &ref, const Core &got)
{
    ASSERT_EQ(ref.cycle(), got.cycle());
    pipeline::CoreStats a = ref.stats();
    pipeline::CoreStats b = got.stats();
    ASSERT_EQ(a.skippedCycles, 0u);
    b.skippedCycles = 0;
    ASSERT_TRUE(a == b)
        << "cycles " << a.cycles << " vs " << b.cycles << ", committed "
        << a.committed << " vs " << b.committed << ", issue evals "
        << a.issueEvals << " vs " << b.issueEvals << ", candidates "
        << a.issueCandidates << " vs " << b.issueCandidates
        << ", overflow rescans " << a.overflowRescans << " vs "
        << b.overflowRescans;
}

/** Everything a classifier or a harness could read. Reads registers,
 *  so call it only once a run has ended (it disarms a fault watch). */
void
expectSameMachine(const Core &ref, const Core &got, const CommitLog &ref_log,
                  const CommitLog &got_log)
{
    expectSameCounters(ref, got);
    for (unsigned tid = 0; tid < ref.numThreads(); ++tid) {
        EXPECT_EQ(ref.committed(tid), got.committed(tid)) << "tid " << tid;
        EXPECT_EQ(ref.halted(tid), got.halted(tid)) << "tid " << tid;
        EXPECT_EQ(ref.trapOf(tid), got.trapOf(tid)) << "tid " << tid;
        EXPECT_TRUE(ref.archState(tid) == got.archState(tid))
            << "tid " << tid;
    }
    ASSERT_EQ(ref.memory().segmentCount(), got.memory().segmentCount());
    for (size_t i = 0; i < ref.memory().segmentCount(); ++i)
        EXPECT_EQ(ref.memory().segmentDigest(i),
                  got.memory().segmentDigest(i))
            << "segment " << i;
    EXPECT_TRUE(ref.hierarchy() == got.hierarchy());
    EXPECT_TRUE(ref.detector() == got.detector());
    EXPECT_EQ(ref.faultDetected(), got.faultDetected());
    ASSERT_EQ(ref_log.events.size(), got_log.events.size());
    for (size_t i = 0; i < ref_log.events.size(); ++i)
        ASSERT_TRUE(ref_log.events[i] == got_log.events[i])
            << "commit event " << i << " at cycle "
            << ref_log.events[i].cycle << " vs "
            << got_log.events[i].cycle;
}

/** A fuzz program is named "fuzz<seed>"; anything else is a workload. */
const isa::Program &
program(const std::string &name)
{
    static std::map<std::string, isa::Program> cache;
    auto it = cache.find(name);
    if (it != cache.end())
        return it->second;
    isa::Program prog;
    if (name.rfind("fuzz", 0) == 0) {
        prog = test::randomProgram(std::stoull(name.substr(4)), 2000);
    } else {
        workload::WorkloadSpec spec;
        spec.maxThreads = 2;
        // mcf keeps its full pointer-chase footprint, so it misses past
        // the L2 like the campaign workload; the others are shrunk.
        spec.footprintDivider = name == "429.mcf" ? 1 : 64;
        prog = workload::build(name, spec);
    }
    return cache.emplace(name, std::move(prog)).first->second;
}

struct Machine
{
    std::string program;
    unsigned threads;
    bool faultHound;
    bool scanIssue;
};

/** Name the machine in gtest output instead of raw bytes. */
void
PrintTo(const Machine &m, std::ostream *os)
{
    *os << m.program << " smt" << m.threads
        << (m.faultHound ? " faulthound" : " none")
        << (m.scanIssue ? " scan" : " wake");
}

std::string
machineName(const testing::TestParamInfo<Machine> &info)
{
    std::string name;
    for (char ch : info.param.program)
        name += std::isalnum(static_cast<unsigned char>(ch)) ? ch : '_';
    return name + "_smt" + std::to_string(info.param.threads) +
           (info.param.faultHound ? "_fh" : "_none") +
           (info.param.scanIssue ? "_scan" : "_wake");
}

pipeline::CoreParams
paramsFor(const Machine &m)
{
    pipeline::CoreParams params;
    params.threads = m.threads;
    params.detector = m.faultHound ? filters::DetectorParams::faultHound()
                                   : filters::DetectorParams::none();
    params.scanIssue = m.scanIssue;
    return params;
}

std::vector<Machine>
machines()
{
    std::vector<Machine> out;
    for (const char *prog : {"429.mcf", "400.perl", "ocean"})
        for (unsigned threads : {1u, 2u})
            for (bool fh : {true, false})
                for (bool scan : {false, true})
                    out.push_back({prog, threads, fh, scan});
    for (u64 seed = 1; seed <= 4; ++seed)
        out.push_back({"fuzz" + std::to_string(seed), 1 + unsigned(seed % 2),
                       seed <= 2, seed % 2 == 0});
    return out;
}

class QuietSkip : public testing::TestWithParam<Machine>
{
};

} // namespace

/** advance() in random chunk sizes against the tick loop. */
TEST_P(QuietSkip, AdvanceMatchesTicking)
{
    const Machine &m = GetParam();
    const pipeline::CoreParams params = paramsFor(m);
    const isa::Program &prog = program(m.program);
    Core ref(params, &prog);
    Core got(params, &prog);
    CommitLog ref_log;
    CommitLog got_log;
    ref.setCommitObserver(&ref_log);
    got.setCommitObserver(&got_log);

    Rng rng(m.threads * 31 + m.program.size());
    while (ref.cycle() < 25'000 && !ref.allHalted()) {
        // Mostly long chunks, so skips run into the chunk bound; some of
        // one cycle, which leave step() no room to skip.
        const Cycle chunk = rng.chance(0.2) ? 1 : rng.range(2, 4000);
        tickAdvance(ref, chunk);
        got.advance(chunk);
        expectSameCounters(ref, got);
        if (HasFatalFailure())
            return;
    }
    expectSameMachine(ref, got, ref_log, got_log);
    if (m.program == "429.mcf") {
        EXPECT_GT(got.stats().skippedCycles, got.stats().cycles / 4);
    }
}

/**
 * Campaign-shaped forks: from snapshots of a warmed master, inject one
 * fault of each target and run the window with runUntilCommitted
 * against the tick loop, detector off (bare, quiesced, regfile watch
 * armed) and on (protected).
 */
TEST_P(QuietSkip, ForksMatchTicking)
{
    const Machine &m = GetParam();
    const pipeline::CoreParams params = paramsFor(m);
    const isa::Program &prog = program(m.program);
    Core master(params, &prog);
    tickAdvance(master, 3000);

    // drawPlan under a mix that forces each target in turn; one more
    // fork past the last mix runs without a fault.
    const fault::InjectionMix mixes[] = {
        {1.0, 0.0, 0.0}, // rename
        {0.0, 1.0, 0.0}, // LSQ
        {0.0, 0.0, 0.0}, // register file, uniform
        {0.0, 0.0, 1.0}, // register file, in flight (or idle)
    };
    const size_t kMixes = std::size(mixes);

    Rng rng(m.threads * 7 + m.program.size());
    u64 skipped = 0;
    for (unsigned snap = 0; snap < 3 && !master.allHalted(); ++snap) {
        tickAdvance(master, rng.range(200, 1200));
        if (master.allHalted())
            break;
        const std::vector<u64> targets = fault::windowTargets(master, 400);
        for (size_t k = 0; k <= kMixes; ++k) {
            const bool inject = k < kMixes;
            const fault::InjectionPlan plan =
                inject ? fault::drawPlan(master, mixes[k], rng)
                       : fault::InjectionPlan{};
            for (bool detector : {false, true}) {
                if (detector && !m.faultHound)
                    continue;
                // A tight bound cuts forks off inside quiet spans.
                const Cycle bound =
                    rng.chance(0.3) ? rng.range(1, 300) : 40'000;
                SCOPED_TRACE(testing::Message()
                             << "snapshot " << snap << " target "
                             << (inject ? fault::to_string(plan.target)
                                        : std::string("no-fault"))
                             << " detector " << detector << " bound "
                             << bound);
                Core ref(master);
                Core got(master);
                CommitLog ref_log;
                CommitLog got_log;
                const bool watching = !detector && inject &&
                                      plan.target == fault::Target::RegFile;
                for (auto [core, log] :
                     {std::pair{&ref, &ref_log}, std::pair{&got, &got_log}}) {
                    core->setCommitObserver(log);
                    core->setDetectorEnabled(detector);
                    core->setQuiesceFrozen(!detector);
                    for (unsigned tid = 0; tid < core->numThreads(); ++tid)
                        core->threadOptions(tid).stopAfterInsts =
                            targets[tid];
                    if (inject)
                        fault::apply(*core, plan);
                    if (watching)
                        core->armRegfileWatch(plan.preg);
                }
                const bool ref_ret =
                    tickRunUntilCommitted(ref, targets, bound, watching);
                const bool got_ret = got.runUntilCommitted(targets, bound);
                EXPECT_EQ(ref_ret, got_ret);
                EXPECT_EQ(ref.regfileWatchErased(),
                          got.regfileWatchErased());
                skipped += got.stats().skippedCycles; // master ticked
                expectSameMachine(ref, got, ref_log, got_log);
                if (HasFatalFailure())
                    return;
            }
        }
    }
    if (m.program == "429.mcf") {
        EXPECT_GT(skipped, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Machines, QuietSkip, testing::ValuesIn(machines()),
                         machineName);

/**
 * A machine that runs off the end of its text never halts and never
 * acts again: no threshold is pending, so one step skips straight to
 * the caller's bound, and a hung fork costs two ticks, not a million.
 */
TEST(QuietSkipDead, HungMachineSkipsToItsBound)
{
    isa::Program prog = test::randomProgram(5, 3);
    ASSERT_EQ(prog.text.back().op, isa::Op::Halt);
    prog.text.pop_back();
    pipeline::CoreParams params;
    Core ref(params, &prog);
    Core got(params, &prog);
    CommitLog ref_log;
    CommitLog got_log;
    ref.setCommitObserver(&ref_log);
    got.setCommitObserver(&got_log);

    const std::vector<u64> targets(2, 1'000'000);
    constexpr Cycle kBound = 1'000'000;
    EXPECT_FALSE(tickRunUntilCommitted(ref, targets, kBound, false));
    EXPECT_FALSE(got.runUntilCommitted(targets, kBound));
    expectSameMachine(ref, got, ref_log, got_log);
    EXPECT_EQ(got.cycle(), kBound);
    EXPECT_GT(got.stats().skippedCycles, kBound - 1000);

    tickAdvance(ref, 12345);
    EXPECT_EQ(got.step(12345), 12345u);
    expectSameMachine(ref, got, ref_log, got_log);
}
