/**
 * @file
 * Statistical campaign engine: stratified injection-site sampling,
 * online Wilson confidence intervals, and per-site vulnerability
 * profiles (ROADMAP item 2; DESIGN.md "Statistical campaign engine").
 *
 * The injection-site space is partitioned into strata by structure ×
 * bit-group (rename tags are ≤16 bits, every other structure's 64-bit
 * word splits into four 16-bit groups). Fixed-count campaigns keep
 * today's single-mix draw and only *label* each trial with its stratum
 * post hoc — bit-identical schedules. Adaptive campaigns
 * (ciTarget > 0) draw strata round-robin by trial index with
 * per-stratum RNG streams and stop at deterministic wave boundaries
 * once the pooled Wilson half-width on the SDC rate reaches the
 * target; the stop decision is a pure function of merged wave
 * counters, so any thread or worker count stops at the same wave.
 *
 * The per-trial TrialMeta (stratum, structure, bit, cycle bucket,
 * faulting PC, early-exit cycle) rides the journal and the dist TRIAL
 * frames, and VulnProfile folds (delta, meta) pairs into an AVF-style
 * report — which structures, bit positions, and workload instructions
 * produce the SDCs — that merges bit-identically in trial order.
 */

#ifndef FH_FAULT_SAMPLING_HH
#define FH_FAULT_SAMPLING_HH

#include <array>
#include <map>
#include <vector>

#include "fault/fields.hh"
#include "fault/injector.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace fh::fault
{

struct CampaignResult; // campaign.hh includes this header first

// ------------------------------------------------------------- Wilson

/** Wilson score interval for a binomial proportion at confidence z. */
struct WilsonInterval
{
    double center = 0.0;
    double halfWidth = 1.0; ///< 1.0 when n == 0 (no information)
};

WilsonInterval wilson(u64 successes, u64 n, double z = 1.96);

// ---------------------------------------------------------- TrialMeta

/// TrialMeta.flags: the trial was classified masked pre-fork
/// (provably-masked skip) — no fork was executed.
inline constexpr u8 kMetaSkippedProvablyMasked = 1;
/// TrialMeta.flags: the bare fork exited early on fault-watch erasure.
inline constexpr u8 kMetaEarlyTerminated = 2;

/**
 * Per-trial sampling metadata, journaled alongside the counter deltas
 * ("m" array) and carried by dist TRIAL frames: everything the
 * vulnerability profile and the CI estimator need to reconstruct
 * their state from a record stream, in any process.
 */
struct TrialMeta
{
    u32 stratum = 0;
    u8 structure = 0;   ///< static_cast<u8>(Target)
    u8 bit = 0;
    u8 cycleBucket = 0; ///< injection-cycle bucket (profile label)
    u8 flags = 0;       ///< kMetaSkippedProvablyMasked | kMetaEarlyTerminated
    u64 pc = 0;         ///< faulting-instruction attribution (0 = none)
    u64 exitCycle = 0;  ///< bare-fork exit cycle (0 = no fork ran)

    /** Members in the record order of the journal's "m" array and the
     *  TRIAL frames, which widen each to u64. */
    static constexpr auto fields()
    {
        using M = TrialMeta;
        return std::tuple{Field{"stratum", &M::stratum},
                          Field{"structure", &M::structure},
                          Field{"bit", &M::bit},
                          Field{"cycle_bucket", &M::cycleBucket},
                          Field{"flags", &M::flags}, Field{"pc", &M::pc},
                          Field{"exit_cycle", &M::exitCycle}};
    }

    bool operator==(const TrialMeta &other) const = default;
};

// ------------------------------------------------------- StratumSpace

/**
 * The stratification of the injection-site space. Pure function of
 * the injection mix, so a dist coordinator (which has no core) can
 * evaluate weights and stop decisions from the spec alone.
 */
class StratumSpace
{
  public:
    static constexpr unsigned kBitGroups = 4;  ///< 16-bit groups of 64
    static constexpr unsigned kGroupBits = 16;
    /// rename + lsq groups + regfile-inflight groups + regfile-static
    static constexpr unsigned kCount = 1 + 3 * kBitGroups;

    explicit StratumSpace(const InjectionMix &mix);

    static constexpr unsigned count() { return kCount; }

    /** Analytic probability mass of stratum s under the mix. */
    double weight(unsigned s) const { return weights_[s]; }

    /** Post-hoc stratum label of a mix-drawn plan (fixed-count mode).
     *  Target::None only arises from empty-inflight regfile draws and
     *  labels as the inflight stratum of its drawn bit. */
    static u32 stratumOf(const InjectionPlan &plan);

    /**
     * Adaptive-mode draw: a plan constrained to stratum s against the
     * core's current state, through drawPlan's site draws
     * (injector.hh) with the bit confined to the stratum's group;
     * consumes rng deterministically.
     */
    InjectionPlan draw(const pipeline::Core &core, unsigned s,
                       Rng &rng) const;

    /** Per-stratum RNG stream salt (xors into the campaign seed). */
    static u64 stratumSalt(unsigned s)
    {
        return u64{0x5d8f} + 0x9e3779b97f4a7c15ULL * (u64{s} + 1);
    }

    /** Observational cycle bucket of an injection point (profile
     *  label only; deterministic function of the master cycle). */
    static u8 cycleBucket(Cycle c)
    {
        return static_cast<u8>((c / 4096) % 8);
    }

  private:
    std::array<double, kCount> weights_{};
};

// -------------------------------------------------------- VulnProfile

/** Per-stratum outcome counts (one row of the profile). */
struct StratumCounts
{
    u64 trials = 0;
    u64 masked = 0;
    u64 noisy = 0;
    u64 sdc = 0;
    u64 covered = 0; ///< of the SDCs: recovered + detected
    u64 skippedProvablyMasked = 0;
    u64 earlyTerminated = 0;

    /** FH_JSON "profile.strata" keys. */
    static constexpr auto fields()
    {
        using C = StratumCounts;
        return std::to_array<Field<C, u64>>({
            {"trials", &C::trials},
            {"masked", &C::masked},
            {"noisy", &C::noisy},
            {"sdc", &C::sdc},
            {"covered", &C::covered},
            {"skipped_provably_masked", &C::skippedProvablyMasked},
            {"early_terminated", &C::earlyTerminated},
        });
    }

    bool operator==(const StratumCounts &other) const = default;
};

/**
 * AVF-style vulnerability profile: per-stratum outcome counts,
 * per-structure × bit-position SDC counts, SDCs by faulting
 * instruction PC (CFA-style root-cause attribution), and SDCs by
 * injection-cycle bucket. Built per trial from (counter delta, meta)
 * by CampaignMerge, the one merge every campaign runs through (journal
 * replay, in-process runs, the dist coordinator), so any two processes
 * that saw the same record stream hold byte-identical profiles.
 */
struct VulnProfile
{
    static constexpr unsigned kCycleBuckets = 8;
    /// structure index (Target::RegFile/Lsq/Rename) for sdcBits
    static constexpr unsigned kStructures = 3;

    std::array<StratumCounts, StratumSpace::kCount> strata{};
    /** SDC count per structure per flipped bit position. */
    std::array<std::array<u64, wordBits>, kStructures> sdcBits{};
    /** SDC count per faulting-instruction PC (0 = unattributed). */
    std::map<u64, u64> sdcPcs;
    /** SDC count per injection-cycle bucket. */
    std::array<u64, kCycleBuckets> sdcCycleBuckets{};

    /** Fold one completed trial in (delta holds exactly one trial). */
    void addTrial(const CampaignResult &delta, const TrialMeta &meta);

    bool operator==(const VulnProfile &other) const = default;
};

/**
 * Pooled Wilson half-width on the SDC rate across strata: the
 * stratified estimator's half-width is sqrt(Σ (w_s · hw_s)²), with an
 * empty stratum contributing its full prior width (hw = 1). The
 * adaptive stop fires when this reaches the configured ciTarget.
 */
double pooledSdcHalfWidth(const VulnProfile &profile,
                          const StratumSpace &space, double z = 1.96);

} // namespace fh::fault

#endif // FH_FAULT_SAMPLING_HH
