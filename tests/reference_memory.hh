/**
 * @file
 * Flat reference model of mem::Memory, and the test-side compares and
 * backdoors built on Memory's public API.
 *
 * ReferenceMemory keeps one plain word vector per segment, shares
 * nothing between copies and recomputes each digest from scratch: the
 * check/read/write/digest contract of Memory without page tables or
 * copy-on-write. Any divergence between the two is a bug in the paged
 * memory, never in this file — keep it boring.
 */

#ifndef FH_TESTS_REFERENCE_MEMORY_HH
#define FH_TESTS_REFERENCE_MEMORY_HH

#include <vector>

#include "mem/memory.hh"
#include "pipeline/core.hh"
#include "sim/types.hh"

namespace fh::mem
{

/** Word-vector-per-segment twin of Memory; same observable API. */
class ReferenceMemory
{
  public:
    void addSegment(Addr base, u64 size)
    {
        segs_.push_back({base, size});
        words_.emplace_back(size / 8, 0);
    }

    size_t segmentCount() const { return segs_.size(); }
    const std::vector<Segment> &segments() const { return segs_; }
    /** Segment i's words, in address order. */
    const std::vector<u64> &words(size_t i) const { return words_[i]; }

    AccessResult check(Addr a) const
    {
        if (a % 8 != 0)
            return AccessResult::Misaligned;
        return find(a) < segs_.size() ? AccessResult::Ok
                                      : AccessResult::Unmapped;
    }

    AccessResult read(Addr a, u64 &value) const
    {
        const AccessResult r = check(a);
        if (r == AccessResult::Ok)
            value = word(a);
        return r;
    }

    AccessResult write(Addr a, u64 value)
    {
        const AccessResult r = check(a);
        if (r == AccessResult::Ok)
            word(a) = value;
        return r;
    }

    /** XOR of wordHash over the segment's words, swept afresh. */
    u64 segmentDigest(size_t i) const
    {
        u64 d = 0;
        for (size_t w = 0; w < words_[i].size(); ++w)
            d ^= Memory::wordHash(segs_[i].base + 8 * w, words_[i][w]);
        return d;
    }

  private:
    size_t find(Addr a) const
    {
        for (size_t i = 0; i < segs_.size(); ++i) {
            if (segs_[i].contains(a))
                return i;
        }
        return segs_.size();
    }

    u64 word(Addr a) const
    {
        const size_t i = find(a);
        return words_[i][(a - segs_[i].base) / 8];
    }

    u64 &word(Addr a)
    {
        const size_t i = find(a);
        return words_[i][(a - segs_[i].base) / 8];
    }

    std::vector<Segment> segs_;
    std::vector<std::vector<u64>> words_;
};

/** Backdoor read; 0 outside declared segments. */
inline u64
peek(const Memory &m, Addr a)
{
    u64 v = 0;
    return m.read(a, v) == AccessResult::Ok ? v : 0;
}

/** Backdoor write; ignored outside declared segments. */
inline void
poke(Memory &m, Addr a, u64 value)
{
    m.write(a, value);
}

/**
 * Same segments and same contents (page sharing is invisible).
 * Unequal digests prove unequal contents, so they are compared
 * first; equal digests are confirmed by a sweep of every word.
 */
inline bool
sameContents(const Memory &a, const Memory &b)
{
    const std::vector<Segment> segs = a.segments();
    if (segs != b.segments())
        return false;
    for (size_t i = 0; i < segs.size(); ++i) {
        if (a.segmentDigest(i) != b.segmentDigest(i))
            return false;
    }
    for (const Segment &s : segs) {
        for (Addr p = s.base; p < s.base + s.size; p += 8) {
            if (peek(a, p) != peek(b, p))
                return false;
        }
    }
    return true;
}

} // namespace fh::mem

namespace fh::fault
{

/**
 * Architectural equivalence: per-thread registers, commit PCs, halt
 * flags, and full memory contents.
 */
inline bool
archEquals(const pipeline::Core &x, const pipeline::Core &y)
{
    if (x.numThreads() != y.numThreads())
        return false;
    for (unsigned tid = 0; tid < x.numThreads(); ++tid) {
        if (x.archState(tid) != y.archState(tid))
            return false;
    }
    return mem::sameContents(x.memory(), y.memory());
}

} // namespace fh::fault

#endif // FH_TESTS_REFERENCE_MEMORY_HH
