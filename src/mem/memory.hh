/**
 * @file
 * Simulated physical memory with segment-based validity.
 *
 * Accesses are 64-bit words. The workload declares valid segments;
 * accesses outside any segment or misaligned accesses raise an access
 * fault, which the tandem fault classifier uses to bin "noisy" faults
 * (fault-induced exceptions) exactly as the paper does.
 *
 * Each segment is stored as 4 KiB pages behind a page table, and both
 * levels are copy-on-write: copying a Memory — which the tandem fault
 * framework does several times per injection trial, whole-Core copies
 * included — only bumps a reference count per segment. The first
 * write through a shared table copies the table (one pointer per
 * page), and the first write to a shared page copies that page. A
 * fork that writes a few words of a large segment pays for a table
 * and those pages, never for the segment. A fresh segment's table
 * points every entry at one shared zero page.
 *
 * Each segment also carries an incremental content digest: an XOR
 * multiset hash over (address, word) pairs of the nonzero words, kept
 * up to date in O(1) per write. The digest is a pure function of the
 * segment contents — independent of write order and of page sharing —
 * so two segments with different digests provably differ, and the
 * tandem classifier can compare whole memories against a recorded
 * golden checkpoint in O(segments) without sweeping any words.
 */

#ifndef FH_MEM_MEMORY_HH
#define FH_MEM_MEMORY_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace fh::mem
{

/** A contiguous valid address range, [base, base + size). */
struct Segment
{
    Addr base = 0;
    u64 size = 0;

    bool contains(Addr a) const { return a >= base && a < base + size; }

    bool operator==(const Segment &other) const = default;
};

/** Outcome of a memory access attempt. */
enum class AccessResult : u8
{
    Ok,        ///< access completed
    Unmapped,  ///< address outside every declared segment
    Misaligned ///< address not 8-byte aligned
};

/** Word-granular memory: per-segment copy-on-write pages. */
class Memory
{
  public:
    /** Words per copy-on-write page (4 KiB). */
    static constexpr u64 kPageWords = 512;

    /** Declare a valid segment (zero-filled). May not overlap. */
    void addSegment(Addr base, u64 size);
    std::vector<Segment> segments() const;

    /** Check validity without accessing. */
    AccessResult check(Addr a) const;

    /** Read the 64-bit word at a; result through value. */
    AccessResult read(Addr a, u64 &value) const;

    /** Write the 64-bit word at a. */
    AccessResult write(Addr a, u64 value);

    /** Total words across all declared segments. */
    size_t footprintWords() const;

    /** Number of declared segments (digest index space). */
    size_t segmentCount() const { return backings_.size(); }

    /**
     * Content digest of segment i (declaration order): XOR over the
     * segment's nonzero words of wordHash(addr, word). Equal contents
     * always give equal digests; unequal digests prove unequal
     * contents. Maintained incrementally by write().
     */
    u64 segmentDigest(size_t i) const { return backings_[i].digest; }

    /**
     * Hash contribution of one (address, word) pair to a segment
     * digest. Zero words contribute nothing, so a freshly declared
     * (zero-filled) segment starts at digest 0 without a sweep.
     */
    static u64 wordHash(Addr a, u64 v)
    {
        if (v == 0)
            return 0;
        u64 x = v ^ mix64(a * 0x9e3779b97f4a7c15ULL);
        return mix64(x);
    }

  private:
    /** splitmix64 finalizer: a cheap, well-mixing 64-bit permutation. */
    static u64 mix64(u64 x)
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }

    using Page = std::array<u64, kPageWords>;
    /** One entry per page; a segment's last page may be partial. */
    using PageTable = std::vector<std::shared_ptr<Page>>;

    struct Backing
    {
        Segment seg;
        /** Shared until the first write after a copy; read-mostly
         *  forks of one machine state alias the same table and pages. */
        std::shared_ptr<PageTable> pages;
        /** XOR-multiset content digest; travels with the value (a
         *  copied Memory keeps the digest while sharing pages). */
        u64 digest = 0;
    };

    const Backing *find(Addr a) const;
    Backing *find(Addr a);

    /**
     * Make p exclusively owned before a write lands in it: a page
     * table or a page is written in place only when this owner is its
     * last one, and copied otherwise. Safe when other threads hold
     * references to the old object: they only read it, and a stale
     * use_count over-estimate merely causes a harmless extra copy. A
     * count of 1 means the last other owner has dropped its reference,
     * possibly on another thread (a campaign's stream worker restoring
     * its fork scratch, which still shared a table or a page with the
     * master). use_count() is a relaxed load, so the acquire fence
     * pairs with that owner's release decrement: its reads happen
     * before the write this thread is about to make. The argument
     * holds at both levels, since a page's other owners are tables.
     */
    template <class T>
    static T &exclusive(std::shared_ptr<T> &p)
    {
        if (p.use_count() == 1)
            std::atomic_thread_fence(std::memory_order_acquire);
        else
            p = std::make_shared<T>(*p);
        return *p;
    }

    std::vector<Backing> backings_;
    /** Last backing hit by find(); accesses cluster per segment, so
     *  this kills the linear segment scan on the hot path. */
    mutable unsigned lastHit_ = 0;
};

} // namespace fh::mem

#endif // FH_MEM_MEMORY_HH
