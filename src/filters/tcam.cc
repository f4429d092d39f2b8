#include "filters/tcam.hh"

#include "sim/logging.hh"

namespace fh::filters
{

CountingTcam::CountingTcam(const TcamParams &params) : params_(params)
{
    fh_assert(params_.entries > 0, "TCAM needs at least one entry");
    entries_.resize(params_.entries, Entry{BitFilter(params_.counters),
                                           false, 0});
}

bool
CountingTcam::closest(u64 value, unsigned &index, unsigned &count,
                      u64 &mask) const
{
    const unsigned n = static_cast<unsigned>(entries_.size());
    const unsigned mru = mru_;
    const bool mru_valid = mru < n && entries_[mru].valid;
    const unsigned mru_count =
        mru_valid ? entries_[mru].filter.mismatchCount(value) : 0;

    // MRU fast path: value locality makes the last-touched entry the
    // likely full match. The winner must stay the lowest-index full
    // match (the tie-break the campaign results are pinned against),
    // and only an index below mru can beat a fully-matching mru — the
    // scan above mru is skipped entirely.
    if (mru_valid && mru_count == 0) {
        index = mru;
        for (unsigned i = 0; i < mru; ++i) {
            if (entries_[i].valid &&
                entries_[i].filter.mismatchCount(value) == 0) {
                index = i;
                break;
            }
        }
        count = 0;
        mask = 0;
        return true;
    }

    bool found = false;
    for (unsigned i = 0; i < n; ++i) {
        const Entry &entry = entries_[i];
        if (!entry.valid)
            continue;
        const unsigned c =
            i == mru ? mru_count : entry.filter.mismatchCount(value);
        if (!found || c < count) {
            found = true;
            index = i;
            count = c;
            if (c == 0)
                break; // cannot do better than a full match
        }
    }
    // The mask is only needed for the winner (and is 0 on a match).
    if (found)
        mask = count ? entries_[index].filter.mismatchMask(value) : 0;
    return found;
}

TcamResult
CountingTcam::lookup(u64 value)
{
    ++accesses_;
    ++useClock_;
    TcamResult res;

    unsigned index = 0;
    unsigned count = 0;
    u64 mask = 0;
    if (!closest(value, index, count, mask)) {
        // Cold TCAM: install into entry 0 silently (fills happen only
        // in the first few accesses of a run).
        entries_[0].filter.install(value);
        entries_[0].valid = true;
        entries_[0].lastUse = useClock_;
        mru_ = 0;
        res.entry = 0;
        return res;
    }

    if (count == 0) {
        // Full match: reinforce the neighborhood.
        entries_[index].filter.observe(value);
        entries_[index].lastUse = useClock_;
        mru_ = index;
        res.entry = index;
        return res;
    }

    res.trigger = true;
    res.mismatchCount = count;
    res.mismatchMask = mask;

    // Prefer filling an invalid entry before loosening or replacing.
    for (unsigned i = 0; i < entries_.size(); ++i) {
        if (!entries_[i].valid) {
            entries_[i].filter.install(value);
            entries_[i].valid = true;
            entries_[i].lastUse = useClock_;
            mru_ = i;
            res.entry = i;
            res.replaced = true;
            return res;
        }
    }

    if (count <= params_.loosenThreshold) {
        // Loosen the closest filter to accommodate the value.
        entries_[index].filter.observe(value);
        entries_[index].lastUse = useClock_;
        mru_ = index;
        res.entry = index;
        return res;
    }

    // Replace the LRU entry with a fresh filter around the value.
    unsigned victim = 0;
    for (unsigned i = 1; i < entries_.size(); ++i)
        if (entries_[i].lastUse < entries_[victim].lastUse)
            victim = i;
    entries_[victim].filter.install(value);
    entries_[victim].lastUse = useClock_;
    mru_ = victim;
    res.entry = victim;
    res.replaced = true;
    return res;
}

TcamResult
CountingTcam::probe(u64 value) const
{
    TcamResult res;
    unsigned index = 0;
    unsigned count = 0;
    u64 mask = 0;
    if (!closest(value, index, count, mask))
        return res;
    res.entry = index;
    if (count == 0)
        return res;
    res.trigger = true;
    res.mismatchCount = count;
    res.mismatchMask = mask;
    return res;
}

} // namespace fh::filters
