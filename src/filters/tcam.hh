/**
 * @file
 * Counting TCAM: the inverted (value-indexed) filter organization of
 * Section 3.1. Instead of a PC-indexed table, the current value is
 * matched against every filter entry; a full match reinforces the
 * matching neighborhood, while a non-match in every entry is a trigger.
 * On a trigger the closest-matching entry is loosened if its mismatch
 * count is at or below a threshold, otherwise the LRU entry is replaced
 * with a fresh filter (Figure 3).
 *
 * The "counting" part — a nearest-neighbor search reporting the number
 * of mismatching bits — follows the counting TCAMs of Shinde et al.
 * referenced by the paper.
 */

#ifndef FH_FILTERS_TCAM_HH
#define FH_FILTERS_TCAM_HH

#include <vector>

#include "filters/bit_filter.hh"
#include "sim/types.hh"

namespace fh::filters
{

struct TcamParams
{
    unsigned entries = 32;
    /** Loosen the closest filter when it mismatches in at most this
     *  many bit positions; replace otherwise. */
    unsigned loosenThreshold = 4;
    CounterConfig counters = CounterConfig::biased();

    bool operator==(const TcamParams &other) const = default;
};

/** Result of one TCAM lookup-and-update. */
struct TcamResult
{
    bool trigger = false; ///< no entry fully matched
    bool replaced = false; ///< trigger handled by installing a fresh entry
    unsigned entry = 0; ///< matching / closest / replaced entry index
    unsigned mismatchCount = 0; ///< of the closest entry (0 on a match)
    u64 mismatchMask = 0; ///< mismatching bit positions of that entry
};

/** Fixed-size counting TCAM of bit-mask filters with LRU replacement. */
class CountingTcam
{
  public:
    explicit CountingTcam(const TcamParams &params = {});

    /**
     * Search for the best-matching filter and update it as part of the
     * lookup (match -> observe; trigger -> loosen or replace).
     */
    TcamResult lookup(u64 value);

    /**
     * Search without modifying any filter state. Used by the
     * commit-time LSQ check (Section 3.5) so that re-checking a value
     * does not double-train the filters.
     */
    TcamResult probe(u64 value) const;

    unsigned size() const { return static_cast<unsigned>(entries_.size()); }
    unsigned validCount() const;
    const TcamParams &params() const { return params_; }

    /** Total updating lookups, for the energy model. */
    u64 accesses() const { return accesses_; }

    bool operator==(const CountingTcam &other) const = default;

  private:
    struct Entry
    {
        BitFilter filter;
        bool valid = false;
        u64 lastUse = 0;

        bool operator==(const Entry &other) const = default;
    };

    /** Find the closest valid entry; returns false if none valid.
     *  Scans the MRU entry first: a full match there ends the search
     *  on entry 1 of the scan, which is the common case under value
     *  locality. The mask is computed once, for the winner only. */
    bool closest(u64 value, unsigned &index, unsigned &count,
                 u64 &mask) const;

    TcamParams params_;
    std::vector<Entry> entries_;
    u64 useClock_ = 0;
    u64 accesses_ = 0;
    /** Last entry touched by lookup(); deterministic, so it may take
     *  part in the defaulted operator==. */
    unsigned mru_ = 0;
};

} // namespace fh::filters

#endif // FH_FILTERS_TCAM_HH
