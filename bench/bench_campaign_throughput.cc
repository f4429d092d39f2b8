/**
 * @file
 * Campaign-throughput micro-harness: the headline trials/second number
 * behind BENCH_campaign.json. Runs one fault-injection campaign at 1
 * worker thread and at all hardware threads and reports throughput
 * plus the per-phase wall-time breakdown (snapshot / golden-ledger /
 * bare / protected / compare).
 *
 * Human-readable summary goes to stderr; a machine-readable record in
 * the BENCH_campaign.json shape goes to FH_JSON (path, or "-" for
 * stdout — the default), so CI can smoke the schema:
 *
 *   FH_INJECTIONS=2000 FH_THREADS=1 bench_campaign_throughput
 *
 * Honors FH_BENCH (default 400.perl, matching the recorded baseline),
 * FH_INJECTIONS (default 2000), FH_WINDOW, FH_SEED.
 *
 * FH_DIST_WORKERS=N adds a multi-PROCESS row: the same campaign run
 * through the distributed fabric (in-process coordinator, N forked
 * worker processes on a loopback socket), which both measures dispatch
 * overhead against the in-process rows and asserts the merged
 * classification is bit-identical to the single-thread run.
 *
 * FH_AB_EARLY_STOP=1 (the default; 0 disables) adds an interleaved
 * early-stop A/B block: FH_BENCH_ROUNDS (default 3) alternating rounds
 * of the same campaign with arch-digest early termination on and off,
 * asserting identical classification and reporting best-of-rounds
 * throughput for both sides plus the on/off speedup ratio.
 *
 * FH_BENCH_BASELINE=<binary|mode> turns on interleaved same-window A/B
 * measurement — the honest way to compare revisions on a noisy shared
 * container, where back-to-back runs see different neighbors. Each of
 * FH_BENCH_ROUNDS (default 5) rounds runs the current binary and the
 * baseline alternately under identical settings (single worker
 * thread), and the summary reports best-of-rounds for both sides plus
 * the ratio. The baseline is either a path to an older
 * bench_campaign_throughput binary (run as a subprocess, throughput
 * parsed from its FH_JSON), or the literal mode name "scan" for an
 * in-process FH_SCAN_ISSUE-oracle comparison of the two issue-stage
 * implementations inside this binary.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dist/coordinator.hh"
#include "dist/spawner.hh"
#include "dist/spec.hh"
#include "dist/worker.hh"
#include "harness.hh"

using namespace fh;

namespace
{

struct Run
{
    unsigned threads = 1;
    unsigned processes = 0; ///< 0 = in-process; else distributed
    double seconds = 0.0;
    fault::CampaignResult result;
};

void
printPhases(std::FILE *out, const fault::CampaignPhases &p)
{
    const double total =
        static_cast<double>(p.totalNs() ? p.totalNs() : 1);
    auto pct = [&](u64 ns) {
        return 100.0 * static_cast<double>(ns) / total;
    };
    std::fprintf(out,
                 "  phases: snapshot %.1f%%  golden-ledger %.1f%%  "
                 "bare %.1f%%  protected %.1f%%  compare %.1f%%\n",
                 pct(p.snapshotNs), pct(p.goldenNs), pct(p.bareNs),
                 pct(p.protectedNs), pct(p.compareNs));
}

void
printSched(std::FILE *out, const fault::SchedCounters &s)
{
    const double occ =
        s.issueEvals ? static_cast<double>(s.issueCandidates) /
                           static_cast<double>(s.issueEvals)
                     : 0.0;
    auto u = [](u64 v) { return static_cast<unsigned long long>(v); };
    std::fprintf(out,
                 "  scheduler: %llu wakeup hits, %llu overflow parks, "
                 "%llu overflow rescans, issue occupancy %.2f\n",
                 u(s.wakeupHits), u(s.overflowParks),
                 u(s.overflowRescans), occ);
}

void
writeJsonSched(std::FILE *out, const fault::SchedCounters &s,
               const char *indent)
{
    auto u = [](u64 v) { return static_cast<unsigned long long>(v); };
    std::fprintf(out,
                 "%s\"scheduler\": { \"wakeup_hits\": %llu, "
                 "\"overflow_parks\": %llu, \"overflow_rescans\": %llu, "
                 "\"issue_evals\": %llu, \"issue_candidates\": %llu },\n",
                 indent, u(s.wakeupHits), u(s.overflowParks),
                 u(s.overflowRescans), u(s.issueEvals),
                 u(s.issueCandidates));
}

/// One timed single-configuration campaign; returns trials/second.
double
runCampaignOnce(const pipeline::CoreParams &params,
                const isa::Program *prog,
                const fault::CampaignConfig &cfg,
                fault::CampaignResult *result)
{
    const auto t0 = std::chrono::steady_clock::now();
    fault::CampaignResult r = fault::runCampaign(params, prog, cfg);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const double tps =
        seconds > 0 ? static_cast<double>(r.injected) / seconds : 0.0;
    if (result)
        *result = std::move(r);
    return tps;
}

/// Run an older bench binary as the B side of an A/B round and pull
/// trials_per_second out of its FH_JSON. The first occurrence in the
/// file is the single-thread row, which is the one we compare against.
/// FH_BENCH_BASELINE is cleared in the child so a baseline built from
/// this revision cannot recurse into its own A/B loop.
double
runBaselineBinary(const std::string &bin)
{
    const std::string tmp = "/tmp/fh_bench_ab_baseline.json";
    const std::string cmd = "FH_THREADS=1 FH_DIST_WORKERS=0 "
                            "FH_BENCH_BASELINE= FH_JSON='" +
                            tmp + "' '" + bin +
                            "' >/dev/null 2>/dev/null";
    if (std::system(cmd.c_str()) != 0)
        return 0.0;
    std::FILE *f = std::fopen(tmp.c_str(), "r");
    if (!f)
        return 0.0;
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(tmp.c_str());
    const char *key = "\"trials_per_second\":";
    const size_t pos = text.find(key);
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(text.c_str() + pos + std::strlen(key), nullptr);
}

void
writeJsonPhases(std::FILE *out, const fault::CampaignPhases &p,
                const char *indent)
{
    const double total =
        static_cast<double>(p.totalNs() ? p.totalNs() : 1);
    auto u = [](u64 v) { return static_cast<unsigned long long>(v); };
    auto pct = [&](u64 ns) {
        return 100.0 * static_cast<double>(ns) / total;
    };
    std::fprintf(out,
                 "%s\"phases_ns\": { \"snapshot\": %llu, \"golden\": "
                 "%llu, \"bare\": %llu, \"protected\": %llu, "
                 "\"compare\": %llu },\n",
                 indent, u(p.snapshotNs), u(p.goldenNs), u(p.bareNs),
                 u(p.protectedNs), u(p.compareNs));
    std::fprintf(out,
                 "%s\"phases_pct\": { \"snapshot\": %.1f, \"golden\": "
                 "%.1f, \"bare\": %.1f, \"protected\": %.1f, "
                 "\"compare\": %.1f }",
                 indent, pct(p.snapshotNs), pct(p.goldenNs),
                 pct(p.bareNs), pct(p.protectedNs), pct(p.compareNs));
}

} // namespace

int
main()
{
    const std::string bench_name = bench::envStr("FH_BENCH", "400.perl");
    auto cfg = bench::campaignConfig();
    cfg.injections = bench::envU64("FH_INJECTIONS", 2000);

    workload::WorkloadSpec spec;
    spec.maxThreads = 2;
    isa::Program prog = workload::build(bench_name, spec);
    pipeline::CoreParams params;
    params.detector = filters::DetectorParams::faultHound();

    std::vector<unsigned> counts{1};
    if (exec::hardwareThreads() > 1)
        counts.push_back(exec::hardwareThreads());

    std::vector<Run> runs;
    for (unsigned threads : counts) {
        Run run;
        run.threads = threads;
        cfg.threads = threads;
        std::fprintf(stderr,
                     "campaign throughput: %s, %llu injections, %u "
                     "worker thread(s)...\n",
                     bench_name.c_str(),
                     static_cast<unsigned long long>(cfg.injections),
                     threads);
        const auto t0 = std::chrono::steady_clock::now();
        run.result = fault::runCampaign(params, &prog, cfg);
        run.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        const double tps =
            run.seconds > 0
                ? static_cast<double>(run.result.injected) / run.seconds
                : 0.0;
        std::fprintf(stderr, "  %.1f trials/s (%.2f s)\n", tps,
                     run.seconds);
        printPhases(stderr, run.result.phases);
        printSched(stderr, run.result.sched);
        runs.push_back(std::move(run));
    }

    // Optional distributed row: same campaign through the fabric,
    // with real forked worker processes. Trial frames deliberately
    // omit the nondeterministic phase times, so this row reports
    // wall-clock and throughput only — and doubles as a determinism
    // check against the single-thread row.
    const unsigned distWorkers = static_cast<unsigned>(
        bench::envU64("FH_DIST_WORKERS", 0));
    if (distWorkers > 0) {
        dist::CampaignSpec dspec;
        dspec.bench = bench_name;
        dspec.scheme = "faulthound";
        dspec.workload = spec;
        dspec.campaign = cfg;
        dspec.campaign.threads = 1;
        dspec.campaign.journalPath.clear();

        std::fprintf(stderr,
                     "campaign throughput: %s, %llu injections, %u "
                     "worker process(es) via dispatch fabric...\n",
                     bench_name.c_str(),
                     static_cast<unsigned long long>(cfg.injections),
                     distWorkers);
        const auto t0 = std::chrono::steady_clock::now();
        dist::CoordinatorOptions copts;
        copts.workers = distWorkers;
        dist::Coordinator coord(dspec, copts);
        const dist::Endpoint ep = coord.endpoint();
        std::vector<pid_t> pids;
        for (unsigned i = 0; i < distWorkers; ++i) {
            const pid_t pid = dist::spawnFn([ep] {
                dist::WorkerOptions w;
                w.endpoint = ep;
                return dist::runWorker(w);
            });
            pids.push_back(pid);
            coord.addChild(pid);
        }
        Run run;
        run.result = coord.run(nullptr);
        for (pid_t pid : pids)
            dist::reap(pid);
        run.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        run.threads = 1;
        run.processes = distWorkers;
        const double tps =
            run.seconds > 0
                ? static_cast<double>(run.result.injected) / run.seconds
                : 0.0;
        std::fprintf(stderr, "  %.1f trials/s (%.2f s)\n", tps,
                     run.seconds);

        const fault::CampaignResult &a = runs.front().result;
        const fault::CampaignResult &b = run.result;
        if (a.injected != b.injected || a.masked != b.masked ||
            a.noisy != b.noisy || a.sdc != b.sdc ||
            a.recovered != b.recovered || a.detected != b.detected ||
            a.uncovered != b.uncovered ||
            a.trialErrors != b.trialErrors) {
            std::fprintf(stderr,
                         "FATAL: distributed classification diverges "
                         "from the in-process run\n");
            return 1;
        }
        runs.push_back(std::move(run));
    }

    // Interleaved A/B: alternate current-vs-baseline rounds under
    // identical settings, so noise on a shared container lands on both
    // sides of the comparison instead of whichever binary ran second.
    // Best-of-rounds is the headline on each side — the max is the run
    // least disturbed by neighbors.
    const std::string baselineSpec =
        bench::envStr("FH_BENCH_BASELINE", "");
    std::vector<double> abCur, abBase;
    if (!baselineSpec.empty()) {
        const unsigned rounds = static_cast<unsigned>(
            bench::envU64("FH_BENCH_ROUNDS", 5));
        const bool modeBaseline = baselineSpec == "scan";
        fault::CampaignConfig abCfg = cfg;
        abCfg.threads = 1;
        pipeline::CoreParams scanParams = params;
        scanParams.scanIssue = true;
        std::fprintf(stderr,
                     "interleaved A/B: current vs %s, %u round(s), 1 "
                     "worker thread\n",
                     modeBaseline ? "in-process scan oracle"
                                  : baselineSpec.c_str(),
                     rounds);
        for (unsigned round = 0; round < rounds; ++round) {
            fault::CampaignResult cur;
            abCur.push_back(
                runCampaignOnce(params, &prog, abCfg, &cur));
            double base = 0.0;
            if (modeBaseline) {
                fault::CampaignResult alt;
                base = runCampaignOnce(scanParams, &prog, abCfg, &alt);
                // Free equivalence check: the scan oracle must
                // classify every trial identically.
                if (cur.injected != alt.injected ||
                    cur.masked != alt.masked || cur.noisy != alt.noisy ||
                    cur.sdc != alt.sdc ||
                    cur.recovered != alt.recovered ||
                    cur.detected != alt.detected ||
                    cur.uncovered != alt.uncovered ||
                    cur.trialErrors != alt.trialErrors) {
                    std::fprintf(stderr,
                                 "FATAL: scan-oracle classification "
                                 "diverges from wakeup scheduler\n");
                    return 1;
                }
            } else {
                base = runBaselineBinary(baselineSpec);
                if (base <= 0.0) {
                    std::fprintf(stderr,
                                 "FATAL: baseline %s produced no "
                                 "throughput figure\n",
                                 baselineSpec.c_str());
                    return 1;
                }
            }
            abBase.push_back(base);
            std::fprintf(stderr,
                         "  round %u/%u: current %.1f vs baseline "
                         "%.1f trials/s (%.3fx)\n",
                         round + 1, rounds, abCur.back(), base,
                         base > 0 ? abCur.back() / base : 0.0);
        }
        const double bestCur =
            *std::max_element(abCur.begin(), abCur.end());
        const double bestBase =
            *std::max_element(abBase.begin(), abBase.end());
        std::fprintf(stderr,
                     "  best-of-%u: current %.1f vs baseline %.1f "
                     "trials/s — ratio %.3fx\n",
                     rounds, bestCur, bestBase,
                     bestBase > 0 ? bestCur / bestBase : 0.0);
    }

    // Interleaved early-stop A/B: the same campaign with arch-digest
    // early termination on and off, alternating rounds so container
    // noise lands on both sides. Classification must be identical —
    // early exit is licensed only by provable fault erasure — so the
    // check here is as much an oracle as a benchmark. Best-of-rounds
    // on each side, ratio = on/off (the early-stop speedup).
    std::vector<double> abEsOn, abEsOff;
    fault::CampaignResult esOnR, esOffR;
    const bool abEarlyStop =
        bench::envU64("FH_AB_EARLY_STOP", 1) != 0;
    if (abEarlyStop) {
        const unsigned rounds = static_cast<unsigned>(
            bench::envU64("FH_BENCH_ROUNDS", 3));
        fault::CampaignConfig onCfg = cfg;
        onCfg.threads = 1;
        onCfg.earlyStop = true;
        fault::CampaignConfig offCfg = onCfg;
        offCfg.earlyStop = false;
        std::fprintf(stderr,
                     "interleaved A/B: early-stop on vs off, %u "
                     "round(s), 1 worker thread\n",
                     rounds);
        for (unsigned round = 0; round < rounds; ++round) {
            abEsOn.push_back(
                runCampaignOnce(params, &prog, onCfg, &esOnR));
            abEsOff.push_back(
                runCampaignOnce(params, &prog, offCfg, &esOffR));
            if (esOnR.injected != esOffR.injected ||
                esOnR.masked != esOffR.masked ||
                esOnR.noisy != esOffR.noisy ||
                esOnR.sdc != esOffR.sdc ||
                esOnR.recovered != esOffR.recovered ||
                esOnR.detected != esOffR.detected ||
                esOnR.uncovered != esOffR.uncovered ||
                esOnR.trialErrors != esOffR.trialErrors) {
                std::fprintf(stderr,
                             "FATAL: early-stop classification "
                             "diverges from the full-window run\n");
                return 1;
            }
            std::fprintf(stderr,
                         "  round %u/%u: on %.1f vs off %.1f "
                         "trials/s (%.3fx)\n",
                         round + 1, rounds, abEsOn.back(),
                         abEsOff.back(),
                         abEsOff.back() > 0
                             ? abEsOn.back() / abEsOff.back()
                             : 0.0);
        }
        const double bestOn =
            *std::max_element(abEsOn.begin(), abEsOn.end());
        const double bestOff =
            *std::max_element(abEsOff.begin(), abEsOff.end());
        std::fprintf(stderr,
                     "  best-of-%u: on %.1f vs off %.1f trials/s — "
                     "ratio %.3fx (%llu/%llu trials early-terminated)\n",
                     rounds, bestOn, bestOff,
                     bestOff > 0 ? bestOn / bestOff : 0.0,
                     static_cast<unsigned long long>(
                         esOnR.earlyTerminated),
                     static_cast<unsigned long long>(esOnR.injected));
    }

    const std::string json = bench::envStr("FH_JSON", "-");
    std::FILE *out = json == "-" ? stdout : std::fopen(json.c_str(), "w");
    if (!out) {
        std::fprintf(stderr, "cannot write FH_JSON file %s\n",
                     json.c_str());
        return 1;
    }
    auto u = [](u64 v) { return static_cast<unsigned long long>(v); };
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"benchmark\": \"%s\",\n", bench_name.c_str());
    std::fprintf(out, "  \"seed\": %llu,\n", u(cfg.seed));
    std::fprintf(out, "  \"injections\": %llu,\n", u(cfg.injections));
    std::fprintf(out, "  \"window\": %llu,\n", u(cfg.window));
    std::fprintf(out, "  \"runs\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
        const Run &run = runs[i];
        const double tps =
            run.seconds > 0
                ? static_cast<double>(run.result.injected) / run.seconds
                : 0.0;
        std::fprintf(out, "    {\n");
        std::fprintf(out, "      \"worker_threads\": %u,\n", run.threads);
        std::fprintf(out, "      \"worker_processes\": %u,\n",
                     run.processes);
        std::fprintf(out, "      \"elapsed_seconds\": %.3f,\n",
                     run.seconds);
        std::fprintf(out, "      \"trials_per_second\": %.1f,\n", tps);
        writeJsonSched(out, run.result.sched, "      ");
        writeJsonPhases(out, run.result.phases, "      ");
        std::fprintf(out, "\n    }%s\n",
                     i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    if (!abCur.empty()) {
        auto writeArray = [out](const char *name,
                                const std::vector<double> &v) {
            std::fprintf(out, "    \"%s\": [", name);
            for (size_t i = 0; i < v.size(); ++i)
                std::fprintf(out, "%s%.1f", i ? ", " : "", v[i]);
            std::fprintf(out, "],\n");
        };
        const double bestCur =
            *std::max_element(abCur.begin(), abCur.end());
        const double bestBase =
            *std::max_element(abBase.begin(), abBase.end());
        std::fprintf(out, "  \"ab\": {\n");
        std::fprintf(out, "    \"baseline\": \"%s\",\n",
                     baselineSpec.c_str());
        std::fprintf(out, "    \"rounds\": %zu,\n", abCur.size());
        writeArray("current_trials_per_second", abCur);
        writeArray("baseline_trials_per_second", abBase);
        std::fprintf(out, "    \"best_current\": %.1f,\n", bestCur);
        std::fprintf(out, "    \"best_baseline\": %.1f,\n", bestBase);
        std::fprintf(out, "    \"ratio\": %.3f\n",
                     bestBase > 0 ? bestCur / bestBase : 0.0);
        std::fprintf(out, "  },\n");
    }
    if (!abEsOn.empty()) {
        auto writeArray = [out](const char *name,
                                const std::vector<double> &v) {
            std::fprintf(out, "    \"%s\": [", name);
            for (size_t i = 0; i < v.size(); ++i)
                std::fprintf(out, "%s%.1f", i ? ", " : "", v[i]);
            std::fprintf(out, "],\n");
        };
        const double bestOn =
            *std::max_element(abEsOn.begin(), abEsOn.end());
        const double bestOff =
            *std::max_element(abEsOff.begin(), abEsOff.end());
        std::fprintf(out, "  \"ab_early_stop\": {\n");
        std::fprintf(out, "    \"rounds\": %zu,\n", abEsOn.size());
        writeArray("on_trials_per_second", abEsOn);
        writeArray("off_trials_per_second", abEsOff);
        std::fprintf(out, "    \"best_on\": %.1f,\n", bestOn);
        std::fprintf(out, "    \"best_off\": %.1f,\n", bestOff);
        std::fprintf(out, "    \"ratio\": %.3f,\n",
                     bestOff > 0 ? bestOn / bestOff : 0.0);
        std::fprintf(out, "    \"early_terminated\": %llu,\n",
                     u(esOnR.earlyTerminated));
        std::fprintf(out, "    \"skipped_provably_masked\": %llu\n",
                     u(esOnR.skippedProvablyMasked));
        std::fprintf(out, "  },\n");
    }
    const fault::CampaignResult &r = runs.front().result;
    std::fprintf(out, "  \"classification\": {\n");
    std::fprintf(out, "    \"injected\": %llu,\n", u(r.injected));
    std::fprintf(out, "    \"masked\": %llu,\n", u(r.masked));
    std::fprintf(out, "    \"noisy\": %llu,\n", u(r.noisy));
    std::fprintf(out, "    \"sdc\": %llu,\n", u(r.sdc));
    std::fprintf(out, "    \"recovered\": %llu,\n", u(r.recovered));
    std::fprintf(out, "    \"detected\": %llu,\n", u(r.detected));
    std::fprintf(out, "    \"uncovered\": %llu,\n", u(r.uncovered));
    std::fprintf(out, "    \"trial_errors\": %llu,\n", u(r.trialErrors));
    std::fprintf(out, "    \"hung_bare\": %llu,\n", u(r.hungBare));
    std::fprintf(out, "    \"hung_protected\": %llu\n",
                 u(r.hungProtected));
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"partial\": %s\n",
                 r.partial ? "true" : "false");
    std::fprintf(out, "}\n");
    if (out != stdout)
        std::fclose(out);
    return 0;
}
