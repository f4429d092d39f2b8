/**
 * @file
 * mem::Memory: validity checks, trap plumbing, content digests, and
 * the paged copy-on-write storage — fuzzed against the flat
 * ReferenceMemory, held to one table plus one page per first write,
 * and driven from stream workers the way a campaign's forks drive it;
 * and the heap a copy of a whole machine (a trial snapshot) requests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <vector>

#include "exec/stream.hh"
#include "mem/memory.hh"
#include "pipeline/core.hh"
#include "reference_memory.hh"
#include "sim/rng.hh"
#include "workload/workload.hh"

/** Bytes requested from operator new while counting is on. */
static std::atomic<bool> gCountNew{false};
static std::atomic<fh::u64> gNewBytes{0};

void *
operator new(std::size_t n)
{
    if (gCountNew.load(std::memory_order_relaxed))
        gNewBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression (-Wmismatched-new-delete).
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace fh;
using namespace fh::mem;

TEST(Memory, ReadsZeroInitialized)
{
    Memory m;
    m.addSegment(0x1000, 0x100);
    u64 v = 0xdead;
    EXPECT_EQ(m.read(0x1008, v), AccessResult::Ok);
    EXPECT_EQ(v, 0u);
}

TEST(Memory, WriteReadRoundTrip)
{
    Memory m;
    m.addSegment(0x1000, 0x100);
    EXPECT_EQ(m.write(0x1010, 0xfeedULL), AccessResult::Ok);
    u64 v = 0;
    EXPECT_EQ(m.read(0x1010, v), AccessResult::Ok);
    EXPECT_EQ(v, 0xfeedULL);
}

TEST(Memory, UnmappedAccessFaults)
{
    Memory m;
    m.addSegment(0x1000, 0x100);
    u64 v = 0;
    EXPECT_EQ(m.read(0x2000, v), AccessResult::Unmapped);
    EXPECT_EQ(m.write(0x0ff8, 1), AccessResult::Unmapped);
    EXPECT_EQ(m.check(0x1100), AccessResult::Unmapped); // one past end
    EXPECT_EQ(m.check(0x10f8), AccessResult::Ok);       // last word
}

TEST(Memory, MisalignedAccessFaults)
{
    Memory m;
    m.addSegment(0x1000, 0x100);
    u64 v = 0;
    EXPECT_EQ(m.read(0x1004, v), AccessResult::Misaligned);
    EXPECT_EQ(m.write(0x1001, 1), AccessResult::Misaligned);
}

TEST(Memory, MultipleDisjointSegments)
{
    Memory m;
    m.addSegment(0x1000, 0x100);
    m.addSegment(0x9000, 0x200);
    EXPECT_EQ(m.write(0x1000, 1), AccessResult::Ok);
    EXPECT_EQ(m.write(0x9000, 2), AccessResult::Ok);
    EXPECT_EQ(m.check(0x5000), AccessResult::Unmapped);
    EXPECT_EQ(m.footprintWords(), (0x100 + 0x200) / 8u);
}

TEST(Memory, PeekPokeBackdoor)
{
    Memory m;
    m.addSegment(0x1000, 0x100);
    poke(m, 0x1020, 77);
    EXPECT_EQ(peek(m, 0x1020), 77u);
    EXPECT_EQ(peek(m, 0x5000), 0u); // outside: reads as zero
    poke(m, 0x5000, 1);             // outside: ignored
    EXPECT_EQ(peek(m, 0x5000), 0u);
}

TEST(Memory, SameContentsDetectsDivergence)
{
    Memory a;
    a.addSegment(0x1000, 0x100);
    Memory b = a;
    EXPECT_TRUE(sameContents(a, b));
    poke(b, 0x1008, 5);
    EXPECT_FALSE(sameContents(a, b));
    poke(a, 0x1008, 5);
    EXPECT_TRUE(sameContents(a, b));
}

TEST(Memory, CopyIsIndependent)
{
    Memory a;
    a.addSegment(0x1000, 0x100);
    poke(a, 0x1000, 1);
    Memory b = a;
    poke(b, 0x1000, 2);
    EXPECT_EQ(peek(a, 0x1000), 1u);
    EXPECT_EQ(peek(b, 0x1000), 2u);
}

// ---- Incremental per-segment content digests (golden ledger) ----

namespace
{

/** Recompute a segment's digest from scratch through the public
 *  contract: XOR of wordHash(addr, word) over nonzero words. */
u64
referenceDigest(const Memory &m, const Segment &seg)
{
    u64 d = 0;
    for (Addr a = seg.base; a < seg.base + seg.size; a += 8)
        d ^= Memory::wordHash(a, peek(m, a));
    return d;
}

} // namespace

TEST(MemoryDigest, FreshSegmentDigestsToZero)
{
    Memory m;
    m.addSegment(0x1000, 0x100);
    ASSERT_EQ(m.segmentCount(), 1u);
    EXPECT_EQ(m.segmentDigest(0), 0u);
}

TEST(MemoryDigest, TracksWritesIncrementally)
{
    Memory m;
    m.addSegment(0x1000, 0x100);
    m.addSegment(0x9000, 0x200);
    const auto segs = m.segments();
    m.write(0x1008, 42);
    m.write(0x1010, 7);
    poke(m, 0x9008, 99);
    m.write(0x1008, 43); // overwrite: old contribution must cancel
    for (size_t i = 0; i < m.segmentCount(); ++i)
        EXPECT_EQ(m.segmentDigest(i), referenceDigest(m, segs[i]));
}

TEST(MemoryDigest, ContentDeterminedRegardlessOfHistory)
{
    // Two memories reach the same contents along different write
    // sequences; the digests must agree (XOR multiset property).
    Memory a, b;
    a.addSegment(0x1000, 0x100);
    b.addSegment(0x1000, 0x100);
    a.write(0x1000, 1);
    a.write(0x1008, 2);
    a.write(0x1000, 5);
    b.write(0x1008, 9);
    b.write(0x1008, 2);
    b.write(0x1000, 5);
    EXPECT_EQ(a.segmentDigest(0), b.segmentDigest(0));
    // Writing a word back to zero restores the fresh digest.
    a.write(0x1000, 0);
    a.write(0x1008, 0);
    EXPECT_EQ(a.segmentDigest(0), 0u);
}

TEST(MemoryDigest, UnequalDigestsProveUnequalContents)
{
    Memory a;
    a.addSegment(0x1000, 0x100);
    a.write(0x1018, 3);
    Memory b = a; // COW copy: shares words AND digest
    EXPECT_EQ(a.segmentDigest(0), b.segmentDigest(0));
    b.write(0x1018, 4);
    EXPECT_NE(a.segmentDigest(0), b.segmentDigest(0));
    EXPECT_FALSE(sameContents(a, b));
    b.write(0x1018, 3); // converge again (COW already detached)
    EXPECT_EQ(a.segmentDigest(0), b.segmentDigest(0));
    EXPECT_TRUE(sameContents(a, b));
}

// ---- Paged copy-on-write storage ----

namespace
{

constexpr u64 kPageBytes = 8 * Memory::kPageWords;

/** Segments around page edges: under one page, one page plus a word,
 *  three pages plus a word, and 4 MiB (1,024 pages). */
const Segment kLayout[] = {
    {0x1000, 0x100},
    {0x10000, kPageBytes + 8},
    {0x20000, 3 * kPageBytes + 8},
    {0x400000, 4 << 20},
};

template <class M>
M
layoutMemory()
{
    M m;
    for (const Segment &s : kLayout)
        m.addSegment(s.base, s.size);
    return m;
}

/** Every word and every segment digest agree with the model. */
::testing::AssertionResult
matches(const Memory &m, const ReferenceMemory &ref)
{
    if (m.segments() != ref.segments())
        return ::testing::AssertionFailure() << "segments differ";
    for (size_t i = 0; i < ref.segmentCount(); ++i) {
        const Addr base = ref.segments()[i].base;
        const std::vector<u64> &words = ref.words(i);
        for (size_t w = 0; w < words.size(); ++w) {
            u64 got = 0;
            m.read(base + 8 * w, got);
            if (got != words[w])
                return ::testing::AssertionFailure()
                       << "word 0x" << std::hex << base + 8 * w << ": "
                       << got << " != " << words[w];
        }
        if (m.segmentDigest(i) != ref.segmentDigest(i))
            return ::testing::AssertionFailure()
                   << "digest of segment " << i;
    }
    return ::testing::AssertionSuccess();
}

/** A word address biased to page edges, the segment's last word and a
 *  few hot pages, so copies keep re-sharing and re-copying pages. */
Addr
pickWord(Rng &rng)
{
    const Segment &s = kLayout[rng.below(std::size(kLayout))];
    const u64 words = s.size / 8;
    const u64 pages = (words + Memory::kPageWords - 1) / Memory::kPageWords;
    u64 w;
    switch (rng.below(4)) {
      case 0: // first or last word of a page
        w = rng.below(pages) * Memory::kPageWords +
            (rng.chance(0.5) ? 0 : Memory::kPageWords - 1);
        break;
      case 1: // the segment's last word
        w = words - 1;
        break;
      case 2: { // a word of page 0, page 1 or the last page
        const u64 hot[] = {0, std::min<u64>(1, pages - 1), pages - 1};
        w = hot[rng.below(3)] * Memory::kPageWords +
            rng.below(Memory::kPageWords);
        break;
      }
      default:
        w = rng.below(words);
    }
    return s.base + 8 * std::min(w, words - 1);
}

/** Any address: mostly a valid word, else unmapped or misaligned. */
Addr
pickAddr(Rng &rng)
{
    const Addr a = pickWord(rng);
    switch (rng.below(8)) {
      case 0:
        return a + 4;
      case 1: // past every segment
        return a + 0x2000000;
      default:
        return a;
    }
}

u64
pickValue(Rng &rng)
{
    return rng.chance(0.2) ? 0 : rng.next();
}

/** Bytes f() requests from operator new. */
template <class F>
u64
newBytesDuring(F &&f)
{
    gNewBytes = 0;
    gCountNew = true;
    f();
    gCountNew = false;
    return gNewBytes;
}

} // namespace

TEST(MemoryPages, FuzzAgainstFlatReference)
{
    // Three memories and their models take random writes, reads,
    // copies and copy-assignments, including a fork written and then
    // assigned back over the snapshot it came from. Each model is a
    // deep copy, so a write that leaks into another memory through a
    // shared table or page shows as a word or digest mismatch.
    constexpr size_t kSlots = 3;
    std::vector<Memory> mem(kSlots, layoutMemory<Memory>());
    std::vector<ReferenceMemory> ref(kSlots,
                                     layoutMemory<ReferenceMemory>());
    Rng rng(0x9a6e5);
    for (int step = 0; step < 120; ++step) {
        const size_t i = rng.below(kSlots);
        const size_t j = rng.below(kSlots);
        const u64 op = rng.below(20);
        if (op < 10) {
            const Addr a = pickAddr(rng);
            const u64 v = pickValue(rng);
            ASSERT_EQ(mem[i].write(a, v), ref[i].write(a, v));
        } else if (op < 12) {
            const Addr a = pickAddr(rng);
            u64 got = 1, want = 1;
            ASSERT_EQ(mem[i].read(a, got), ref[i].read(a, want));
            ASSERT_EQ(got, want);
            ASSERT_EQ(mem[i].check(a), ref[i].check(a));
        } else if (op < 14) {
            Memory copy(mem[i]);
            mem[j] = std::move(copy);
            ref[j] = ref[i];
        } else if (op < 17) {
            mem[j] = mem[i];
            ref[j] = ref[i];
        } else if (i != j) {
            mem[j] = mem[i];
            ref[j] = ref[i];
            for (u64 n = 1 + rng.below(8); n > 0; --n) {
                const Addr a = pickWord(rng);
                const u64 v = pickValue(rng);
                mem[j].write(a, v);
                ref[j].write(a, v);
            }
            mem[i] = mem[j];
            ref[i] = ref[j];
        }
        for (size_t k = 0; k < kSlots; ++k)
            ASSERT_TRUE(matches(mem[k], ref[k]))
                << "step " << step << " op " << op << " slot " << k;
    }
}

TEST(MemoryPages, FirstWriteAfterASnapshotCopiesATableAndOnePage)
{
    constexpr Addr kBase = 0x400000;
    constexpr u64 kSize = 4 << 20; // 1,024 pages
    Memory m;
    EXPECT_LT(newBytesDuring([&] { m.addSegment(kBase, kSize); }),
              32u << 10)
        << "a fresh segment allocates its table, not its words";
    for (Addr a = kBase; a < kBase + kSize; a += kPageBytes)
        m.write(a, a); // every page private to m
    const Memory snapshot = m;
    const Addr a = kBase + kSize / 2 + 8;
    EXPECT_LT(newBytesDuring([&] { m.write(a, 1); }), 32u << 10)
        << "one table and one page, not the segment";
    EXPECT_EQ(newBytesDuring([&] { m.write(a + 8, 2); }), 0u)
        << "the page is private now";
    EXPECT_EQ(peek(snapshot, a), 0u);
    EXPECT_EQ(peek(m, a), 1u);
}

TEST(SnapshotFootprint, PerlCoreCopyRequestsUnderHalfAMegabyte)
{
    // A campaign copies the whole Core for every trial snapshot and
    // every bare fork. Memory pages are shared copy-on-write, so the
    // copy's heap is the pipeline arena, the filters and the cache
    // line state, which the 2 MB L2 dominates at 9 bytes a line.
    const isa::Program prog = workload::build("400.perl", {});
    pipeline::Core core(pipeline::CoreParams{}, &prog);
    core.advance(20000);
    EXPECT_LT(newBytesDuring([&] { const pipeline::Core copy(core); }),
              u64{512} << 10);
}

TEST(MemoryPages, StreamWorkersWriteSnapshotsWhileTheOwnerWrites)
{
    // A campaign's producer/stream pattern: the owner (the master) hands
    // each worker a snapshot through a stream, and keeps writing while
    // the workers restore their own scratch from it (dropping the
    // pages of the previous round on the worker), write the scratch
    // and check it. Retiring an item hands it back; the owner drains
    // each round as the producer drains a range, running whatever the
    // workers have not claimed on its own scratch.
    constexpr unsigned kWorkers = 2;
    Memory owner = layoutMemory<Memory>();
    ReferenceMemory model = layoutMemory<ReferenceMemory>();
    std::vector<Memory> handed(2), scratch(kWorkers + 1);
    std::vector<ReferenceMemory> handedModel(2);
    std::vector<int> ok(2, 0);
    Rng rng(0x5eed);
    u64 round = 0;
    exec::Stream stream(kWorkers, 2, [&](u64 k, unsigned worker) {
        const size_t i = k % 2;
        Memory &s = scratch[worker];
        s = handed[i];
        ReferenceMemory sref = handedModel[i];
        Rng r(round * 2 + i + 1);
        for (int n = 0; n < 24; ++n) {
            const Addr a = pickWord(r);
            const u64 v = pickValue(r);
            s.write(a, v);
            sref.write(a, v);
        }
        ok[i] = matches(s, sref) ? 1 : 0;
    });
    for (; round < 12; ++round) {
        for (size_t i = 0; i < 2; ++i) {
            handed[i] = owner;
            handedModel[i] = model;
            stream.push();
        }
        for (int n = 0; n < 48; ++n) {
            const Addr a = pickWord(rng);
            const u64 v = pickValue(rng);
            owner.write(a, v);
            model.write(a, v);
        }
        while (!stream.empty())
            if (!stream.retire())
                stream.help();
        for (size_t i = 0; i < 2; ++i) {
            EXPECT_TRUE(ok[i]) << "round " << round << " item " << i;
            ASSERT_TRUE(matches(handed[i], handedModel[i]))
                << "round " << round << ": a snapshot saw a write";
        }
        ASSERT_TRUE(matches(owner, model)) << "round " << round;
    }
}
