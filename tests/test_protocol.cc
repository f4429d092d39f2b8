/**
 * @file
 * Wire-protocol robustness for the distributed campaign fabric:
 * message round-trips, incremental/torn-frame parsing (a worker
 * killed mid-write must never yield a phantom frame), corrupt-length
 * detection, CRC32C trailer verification (every single-byte flip in a
 * frame is caught), endpoint parsing, and the CampaignSpec text
 * round-trip.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dist/messages.hh"
#include "dist/spec.hh"
#include "dist/wire.hh"
#include "fault/journal.hh"

using namespace fh;
using namespace fh::dist;

namespace
{

TEST(Wire, PrimitivesRoundTrip)
{
    std::vector<u8> buf;
    putU8(buf, 0xab);
    putU32(buf, 0xdeadbeefu);
    putU64(buf, 0x0123456789abcdefULL);
    putDouble(buf, 0.85);
    putString(buf, "hello world");
    putString(buf, "");

    Cursor c(buf);
    EXPECT_EQ(c.u8v(), 0xab);
    EXPECT_EQ(c.u32v(), 0xdeadbeefu);
    EXPECT_EQ(c.u64v(), 0x0123456789abcdefULL);
    EXPECT_EQ(c.doublev(), 0.85);
    EXPECT_EQ(c.stringv(), "hello world");
    EXPECT_EQ(c.stringv(), "");
    EXPECT_TRUE(c.done());
}

TEST(Wire, CursorOverrunLatchesFail)
{
    std::vector<u8> buf;
    putU32(buf, 7);
    Cursor c(buf);
    EXPECT_EQ(c.u32v(), 7u);
    EXPECT_EQ(c.u64v(), 0u); // past the end
    EXPECT_TRUE(c.fail());
    EXPECT_FALSE(c.done());
    EXPECT_EQ(c.stringv(), ""); // stays failed, stays in bounds
}

TEST(Wire, FrameRoundTrip)
{
    std::vector<u8> payload{1, 2, 3, 4, 5};
    const auto bytes = encodeFrame(MsgType::Trial, payload);

    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    Frame f;
    ASSERT_TRUE(reader.next(f));
    EXPECT_EQ(static_cast<MsgType>(f.type), MsgType::Trial);
    EXPECT_EQ(f.payload, payload);
    EXPECT_FALSE(reader.next(f));
    EXPECT_FALSE(reader.corrupt());
}

TEST(Wire, ByteAtATimeFeed)
{
    // Three frames, delivered one byte at a time: exactly three come
    // out, in order, each complete.
    std::vector<u8> stream;
    for (u8 k = 0; k < 3; ++k) {
        std::vector<u8> payload(k + 1, static_cast<u8>(0x40 + k));
        const auto bytes =
            encodeFrame(static_cast<MsgType>(k + 1), payload);
        stream.insert(stream.end(), bytes.begin(), bytes.end());
    }

    FrameReader reader;
    std::vector<Frame> got;
    for (u8 byte : stream) {
        reader.feed(&byte, 1);
        Frame f;
        while (reader.next(f))
            got.push_back(f);
    }
    ASSERT_EQ(got.size(), 3u);
    for (u8 k = 0; k < 3; ++k) {
        EXPECT_EQ(got[k].type, k + 1);
        EXPECT_EQ(got[k].payload,
                  std::vector<u8>(k + 1, static_cast<u8>(0x40 + k)));
    }
    EXPECT_EQ(reader.pendingBytes(), 0u);
}

TEST(Wire, TruncationAtEveryOffsetYieldsNoFrame)
{
    // A stream cut at any point inside a frame (a worker killed
    // mid-write) must yield only the frames fully delivered before
    // the cut — never a partial or phantom frame.
    TrialMsg t;
    t.trial = 41;
    for (size_t i = 0; i < fault::kTrialCounters; ++i)
        t.d[i] = 1000 + i;
    const auto first = encodeFrame(MsgType::Trial, t.encode());
    const auto second = encodeFrame(MsgType::RangeDone,
                                    RangeDoneMsg{42, false, false}
                                        .encode());
    std::vector<u8> stream = first;
    stream.insert(stream.end(), second.begin(), second.end());

    for (size_t cut = 0; cut <= stream.size(); ++cut) {
        FrameReader reader;
        reader.feed(stream.data(), cut);
        Frame f;
        size_t frames = 0;
        while (reader.next(f))
            ++frames;
        EXPECT_FALSE(reader.corrupt()) << "cut at " << cut;
        size_t want = 0;
        if (cut >= first.size())
            ++want;
        if (cut >= stream.size())
            ++want;
        EXPECT_EQ(frames, want) << "cut at " << cut;
    }
}

TEST(Wire, CorruptLengthIsTerminal)
{
    // Length zero.
    std::vector<u8> zero;
    putU32(zero, 0);
    FrameReader r1;
    r1.feed(zero.data(), zero.size());
    Frame f;
    EXPECT_FALSE(r1.next(f));
    EXPECT_TRUE(r1.corrupt());

    // Length too small to hold type + CRC trailer (v3 minimum is 5).
    std::vector<u8> tiny;
    putU32(tiny, 4);
    for (int i = 0; i < 4; ++i)
        putU8(tiny, 0);
    FrameReader r3;
    r3.feed(tiny.data(), tiny.size());
    EXPECT_FALSE(r3.next(f));
    EXPECT_TRUE(r3.corrupt());

    // Length beyond the sanity bound.
    std::vector<u8> huge;
    putU32(huge, kMaxFrame + 1);
    FrameReader r2;
    r2.feed(huge.data(), huge.size());
    EXPECT_FALSE(r2.next(f));
    EXPECT_TRUE(r2.corrupt());
    // Corrupt is latched: feeding valid bytes later changes nothing.
    const auto good = encodeFrame(MsgType::Heartbeat, {});
    r2.feed(good.data(), good.size());
    EXPECT_FALSE(r2.next(f));
    EXPECT_TRUE(r2.corrupt());
}

TEST(Wire, CrcCatchesEverySingleBitFlip)
{
    // Flip every bit of an encoded frame in turn: no flipped variant
    // may ever produce a frame. A flip in the body or trailer is a CRC
    // mismatch; a flip in the length prefix either fails the sanity
    // bounds, fails the CRC (the prefix is covered), or leaves the
    // reader waiting for bytes that never arrive — but never a frame.
    TrialMsg t;
    t.trial = 3;
    for (size_t i = 0; i < fault::kTrialCounters; ++i)
        t.d[i] = 7 * i + 1;
    const auto clean = encodeFrame(MsgType::Trial, t.encode());

    for (size_t bit = 0; bit < clean.size() * 8; ++bit) {
        auto bytes = clean;
        bytes[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        FrameReader reader;
        reader.feed(bytes.data(), bytes.size());
        Frame f;
        EXPECT_FALSE(reader.next(f)) << "bit " << bit;
        EXPECT_TRUE(reader.corrupt() || reader.pendingBytes() > 0)
            << "bit " << bit;
        if (reader.corrupt() && bit >= 32) {
            EXPECT_EQ(reader.crcErrors(), 1u) << "bit " << bit;
        }
    }

    // The pristine frame still round-trips (the loop above copied).
    FrameReader reader;
    reader.feed(clean.data(), clean.size());
    Frame f;
    ASSERT_TRUE(reader.next(f));
    EXPECT_EQ(reader.crcErrors(), 0u);
}

TEST(Messages, RoundTrips)
{
    HelloMsg hello;
    hello.pid = 4242;
    hello.reconnect = 3;
    HelloMsg hello2;
    ASSERT_TRUE(HelloMsg::decode(hello.encode(), hello2));
    EXPECT_EQ(hello2.version, kProtocolVersion);
    EXPECT_EQ(hello2.pid, 4242u);
    EXPECT_EQ(hello2.reconnect, 3u);

    HelloAckMsg ack;
    ack.accepted = true;
    HelloAckMsg ack2;
    ASSERT_TRUE(HelloAckMsg::decode(ack.encode(), ack2));
    EXPECT_EQ(ack2.version, kProtocolVersion);
    EXPECT_TRUE(ack2.accepted);

    SpecMsg spec{"bench = ocean\nseed = 7\n"};
    SpecMsg spec2;
    ASSERT_TRUE(SpecMsg::decode(spec.encode(), spec2));
    EXPECT_EQ(spec2.text, spec.text);

    AssignMsg assign{100, 250};
    AssignMsg assign2;
    ASSERT_TRUE(AssignMsg::decode(assign.encode(), assign2));
    EXPECT_EQ(assign2.begin, 100u);
    EXPECT_EQ(assign2.end, 250u);

    TrialMsg trial;
    trial.trial = 7;
    for (size_t i = 0; i < fault::kTrialCounters; ++i)
        trial.d[i] = i * i;
    fault::TrialMeta meta;
    meta.stratum = 11;
    meta.structure = 2;
    meta.bit = 63;
    meta.cycleBucket = 5;
    meta.flags = fault::kMetaEarlyTerminated;
    meta.pc = 0xdeadbeefcafeULL;
    meta.exitCycle = 123456789;
    fault::packTrialMeta(meta, trial.m);
    TrialMsg trial2;
    ASSERT_TRUE(TrialMsg::decode(trial.encode(), trial2));
    EXPECT_EQ(trial2.trial, 7u);
    for (size_t i = 0; i < fault::kTrialCounters; ++i)
        EXPECT_EQ(trial2.d[i], i * i);
    // The v2 meta tail survives the wire verbatim: profile and CI
    // state on the coordinator are rebuilt from exactly these fields.
    EXPECT_EQ(fault::unpackTrialMeta(trial2.m), meta);

    RangeDoneMsg done{55, true, false};
    RangeDoneMsg done2;
    ASSERT_TRUE(RangeDoneMsg::decode(done.encode(), done2));
    EXPECT_EQ(done2.nextTrial, 55u);
    EXPECT_TRUE(done2.halted);
    EXPECT_FALSE(done2.stopped);

    HeartbeatMsg hb{12345};
    HeartbeatMsg hb2;
    ASSERT_TRUE(HeartbeatMsg::decode(hb.encode(), hb2));
    EXPECT_EQ(hb2.position, 12345u);
}

TEST(Messages, RejectMalformedPayloads)
{
    // Short payloads.
    HelloMsg hello;
    EXPECT_FALSE(HelloMsg::decode({1, 2, 3}, hello));
    TrialMsg trial;
    EXPECT_FALSE(TrialMsg::decode({0, 0, 0}, trial));
    // Every truncation of a full Trial payload is rejected — in
    // particular the v1 length (counters but no meta tail), so a
    // version-skewed peer cannot slip records past the decoder.
    {
        TrialMsg full;
        full.trial = 9;
        const auto payload = full.encode();
        for (size_t cut = 0; cut < payload.size(); ++cut) {
            TrialMsg out;
            EXPECT_FALSE(TrialMsg::decode(
                std::vector<u8>(payload.begin(),
                                payload.begin() +
                                    static_cast<long>(cut)),
                out))
                << "cut at " << cut;
        }
        TrialMsg out;
        auto extra = payload;
        extra.push_back(0);
        EXPECT_FALSE(TrialMsg::decode(extra, out));
    }
    // Trailing garbage is as bad as missing bytes.
    AssignMsg assign{1, 2};
    auto p = assign.encode();
    p.push_back(0);
    AssignMsg out;
    EXPECT_FALSE(AssignMsg::decode(p, out));
    // Inverted range.
    AssignMsg bad{9, 3};
    EXPECT_FALSE(AssignMsg::decode(bad.encode(), out));
}

TEST(Endpoint, Parsing)
{
    Endpoint ep;
    std::string error;
    ASSERT_TRUE(parseEndpoint("127.0.0.1:8737", ep, error));
    EXPECT_FALSE(ep.unixDomain);
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 8737);
    EXPECT_EQ(ep.str(), "127.0.0.1:8737");

    ASSERT_TRUE(parseEndpoint("unix:/tmp/fh.sock", ep, error));
    EXPECT_TRUE(ep.unixDomain);
    EXPECT_EQ(ep.host, "/tmp/fh.sock");
    EXPECT_EQ(ep.str(), "unix:/tmp/fh.sock");

    EXPECT_FALSE(parseEndpoint("no-port", ep, error));
    EXPECT_FALSE(parseEndpoint(":80", ep, error));
    EXPECT_FALSE(parseEndpoint("host:", ep, error));
    EXPECT_FALSE(parseEndpoint("host:99999", ep, error));
    EXPECT_FALSE(parseEndpoint("host:12x", ep, error));
    EXPECT_FALSE(parseEndpoint("unix:", ep, error));
}

TEST(CampaignSpec, RoundTrip)
{
    CampaignSpec spec;
    spec.bench = "ocean";
    spec.scheme = "pbfs-biased";
    spec.coreThreads = 2;
    spec.workload.seed = 99;
    spec.workload.iterations = 5000;
    spec.workload.footprintDivider = 64;
    spec.tcamEntries = 48;
    spec.campaign.injections = 123;
    spec.campaign.window = 456;
    spec.campaign.seed = 789;
    spec.campaign.mix.renameFrac = 0.25;
    spec.campaign.trialTimeoutMs = 1500;
    spec.campaign.ciTarget = 0.015625;
    spec.campaign.ciWave = 96;

    CampaignSpec out;
    std::string error;
    ASSERT_TRUE(CampaignSpec::decode(spec.encode(), out, error))
        << error;
    EXPECT_EQ(out.bench, "ocean");
    EXPECT_EQ(out.scheme, "pbfs-biased");
    EXPECT_EQ(out.workload.seed, 99u);
    EXPECT_EQ(out.workload.iterations, 5000u);
    EXPECT_EQ(out.workload.footprintDivider, 64u);
    EXPECT_EQ(out.tcamEntries, 48u);
    EXPECT_EQ(out.campaign.injections, 123u);
    EXPECT_EQ(out.campaign.window, 456u);
    EXPECT_EQ(out.campaign.seed, 789u);
    EXPECT_EQ(out.campaign.mix.renameFrac, 0.25);
    EXPECT_EQ(out.campaign.trialTimeoutMs, 1500u);
    EXPECT_EQ(out.campaign.ciTarget, 0.015625);
    EXPECT_EQ(out.campaign.ciWave, 96u);
    // Canonical: re-encoding the decoded spec reproduces the text.
    EXPECT_EQ(out.encode(), spec.encode());
}

TEST(CampaignSpec, RejectsUnknownKeysAndBadNames)
{
    CampaignSpec out;
    std::string error;
    CampaignSpec spec;
    EXPECT_FALSE(CampaignSpec::decode(
        spec.encode() + "future_knob = 1\n", out, error));
    EXPECT_NE(error.find("future_knob"), std::string::npos);
    // Retired keys are refused too: a spec from a peer that still
    // sends the removed golden-fork switch or the early-stop oracle
    // switch must not run with it silently ignored.
    for (const char *retired : {"golden_fork = 0\n", "early_stop = 0\n"}) {
        EXPECT_FALSE(
            CampaignSpec::decode(spec.encode() + retired, out, error));
        EXPECT_NE(error.find("unknown spec key"), std::string::npos);
    }

    spec.bench = "no-such-bench";
    EXPECT_FALSE(CampaignSpec::decode(spec.encode(), out, error));
    spec.bench = "ocean";
    spec.scheme = "no-such-scheme";
    EXPECT_FALSE(CampaignSpec::decode(spec.encode(), out, error));
}

} // namespace
