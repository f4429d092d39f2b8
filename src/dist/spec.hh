/**
 * @file
 * CampaignSpec: the single description of a campaign that crosses the
 * coordinator/worker wire.
 *
 * Every input the trial outcomes are a function of rides in the spec —
 * the benchmark and its workload knobs, the core and detector
 * configuration, and the campaign schedule — serialized as a canonical
 * `key = value` text blob (parsed back with the same fh::Config used
 * by the CLI). Workers build their program, core parameters and
 * CampaignConfig exclusively from the received spec, so a
 * coordinator/worker configuration mismatch is structurally
 * impossible: there is no second place the configuration could come
 * from. Host-local execution knobs (worker thread count, journal path,
 * progress meter) are deliberately NOT part of the spec — they vary
 * per process and the results are independent of them.
 */

#ifndef FH_DIST_SPEC_HH
#define FH_DIST_SPEC_HH

#include <string>

#include "fault/campaign.hh"
#include "filters/detector.hh"
#include "isa/program.hh"
#include "pipeline/params.hh"
#include "workload/workload.hh"

namespace fh::dist
{

// Bounds of the ranged campaign inputs, each written once: fhsim's
// keys, CampaignSpec::decode and the harnesses' keys read through
// them (the schedule keys' bounds live in fault::readSchedule).
// fhsim's help line for each key gives the reason.
constexpr u64 kMaxSmtThreads = 8; ///< `threads`: pipeline::Core's SMT
constexpr u64 kMaxJobs = 1024;                   ///< `jobs`
constexpr u64 kMaxInsts = 1'000'000'000'000'000; ///< `insts`
constexpr u64 kMaxTcamEntries = 1024;            ///< `tcam.entries`
constexpr u64 kMaxTcamThreshold = 64;            ///< `tcam.threshold`
constexpr u64 kAnyU64 = ~u64{0}; ///< no bound but the type's
/** `delay_buffer`: it holds ROB slots. */
inline const u64 kMaxDelayBuffer = pipeline::CoreParams{}.robSize;

/** Map a scheme key of filters::kSchemePresets to its DetectorParams
 *  preset; false on unknown names. */
bool schemeByName(const std::string &name, filters::DetectorParams &out);

struct CampaignSpec
{
    // Workload.
    std::string bench = "400.perl";
    workload::WorkloadSpec workload{};

    // Core + detector (the subset fhsim exposes; everything else is
    // the CoreParams default on both sides of the wire).
    std::string scheme = "faulthound";
    unsigned coreThreads = 2;
    unsigned tcamEntries = 0;     ///< 0 = scheme preset
    unsigned tcamThreshold = 0;   ///< 0 = scheme preset
    unsigned delayBuffer = 0;     ///< 0 = CoreParams default

    // Campaign schedule. Only the deterministic inputs; threads /
    // journalPath / progress / test hooks stay host-local.
    fault::CampaignConfig campaign{};

    /** Canonical key=value text (the Spec frame payload). */
    std::string encode() const;

    /** Parse encode()'s text (a malformed or out-of-range value is
     *  fatal, naming the key); false, with error, on a bad line,
     *  unknown key, or unknown bench/scheme. */
    static bool decode(const std::string &text, CampaignSpec &out,
                       std::string &error);

    /** Build the workload program described by the spec. */
    isa::Program buildProgram() const;

    /** Build the core parameters described by the spec. */
    pipeline::CoreParams buildParams() const;
};

} // namespace fh::dist

#endif // FH_DIST_SPEC_HH
