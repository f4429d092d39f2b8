/**
 * @file
 * Detector: scheme dispatch and the trigger -> suppress -> squash ->
 * replay decision chain of Section 3.
 */

#include <gtest/gtest.h>

#include "filters/detector.hh"

using namespace fh;
using namespace fh::filters;

namespace
{

/** Train the addr TCAM of det on a counter-like stream. */
void
train(Detector &det, StreamKind kind, u64 base, int n = 300)
{
    for (int i = 0; i < n; ++i)
        det.checkComplete(kind, 5, base + (i % 32) * 8, false);
}

} // namespace

TEST(Detector, NoneSchemeNeverActs)
{
    Detector det(DetectorParams::none());
    EXPECT_FALSE(det.active());
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(det.checkComplete(StreamKind::LoadAddr, 1, i * 977,
                                    false),
                  CompleteAction::None);
        EXPECT_EQ(det.checkCommit(StreamKind::LoadAddr, 1, i * 977),
                  CommitAction::None);
    }
    EXPECT_EQ(det.stats().checks, 0u);
}

TEST(Detector, PbfsTablesOnlyForSchemesThatReadThem)
{
    EXPECT_TRUE(Detector(DetectorParams::none()).pbfsTables().empty());
    EXPECT_TRUE(Detector(DetectorParams::faultHound()).pbfsTables().empty());
    EXPECT_TRUE(
        Detector(DetectorParams::faultHoundBackend()).pbfsTables().empty());
    EXPECT_EQ(Detector(DetectorParams::pbfsSticky()).pbfsTables().size(),
              3u);
    EXPECT_EQ(Detector(DetectorParams::pbfsBiased()).pbfsTables().size(),
              3u);

    // The FH-nocluster ablation checks through PC-indexed tables, and
    // they train: a stable stream installs, then a far bit flip
    // triggers.
    DetectorParams nocluster = DetectorParams::faultHound();
    nocluster.clustering = false;
    Detector det(nocluster);
    ASSERT_EQ(det.pbfsTables().size(), 3u);
    train(det, StreamKind::StoreValue, 0x40);
    const auto &tables = det.pbfsTables();
    EXPECT_EQ(tables[static_cast<size_t>(StreamKind::StoreValue)].accesses(),
              300u);
    EXPECT_EQ(tables[static_cast<size_t>(StreamKind::LoadAddr)].accesses(),
              0u);
    EXPECT_EQ(det.valueTcam().accesses(), 0u);
    EXPECT_EQ(det.filterAccesses(), 300u);
    const u64 triggers = det.stats().triggers;
    det.checkComplete(StreamKind::StoreValue, 5, 0x40 ^ (1ULL << 40),
                      false);
    EXPECT_EQ(det.stats().triggers, triggers + 1);
}

TEST(Detector, PbfsTriggersFullRollback)
{
    Detector det(DetectorParams::pbfsSticky());
    det.checkComplete(StreamKind::LoadAddr, 9, 0x1000, false);
    auto action = det.checkComplete(StreamKind::LoadAddr, 9,
                                    0x1000 ^ (1ULL << 40), false);
    EXPECT_EQ(action, CompleteAction::Rollback);
    EXPECT_EQ(det.stats().rollbacks, 1u);
}

TEST(Detector, FaultHoundRepliesWithReplay)
{
    Detector det(DetectorParams::faultHound());
    train(det, StreamKind::LoadAddr, 0x20000000);
    auto action = det.checkComplete(StreamKind::LoadAddr, 5,
                                    (0x20000000 + 8) ^ (1ULL << 40),
                                    false);
    EXPECT_EQ(action, CompleteAction::Replay);
    EXPECT_EQ(det.stats().replays, 1u);
}

TEST(Detector, InReplayTriggersAreIgnored)
{
    Detector det(DetectorParams::faultHound());
    train(det, StreamKind::LoadAddr, 0x20000000);
    auto action = det.checkComplete(StreamKind::LoadAddr, 5,
                                    (0x20000000 + 8) ^ (1ULL << 40),
                                    true);
    EXPECT_EQ(action, CompleteAction::None);
    EXPECT_EQ(det.stats().replayIgnored, 1u);
    EXPECT_EQ(det.stats().replays, 0u);
}

TEST(Detector, SecondLevelSuppressesRepeatedBit)
{
    Detector det(DetectorParams::faultHound());
    train(det, StreamKind::StoreValue, 0x4000);
    // Same delinquent bit alarming repeatedly: first replay allowed,
    // subsequent ones suppressed.
    unsigned replays = 0;
    for (int i = 0; i < 6; ++i) {
        auto action = det.checkComplete(
            StreamKind::StoreValue, 5,
            (0x4000 + (i % 32) * 8) ^ (1ULL << 40), false);
        replays += action == CompleteAction::Replay ? 1 : 0;
        // Re-stabilize so the per-bit filter counter re-arms.
        train(det, StreamKind::StoreValue, 0x4000, 40);
    }
    EXPECT_GE(replays, 1u);
    EXPECT_GT(det.stats().suppressed, 0u);
}

TEST(Detector, ReplayRecoveryOffMeansRollback)
{
    auto params = DetectorParams::faultHoundBackend();
    params.replayRecovery = false;
    Detector det(params);
    train(det, StreamKind::LoadAddr, 0x20000000);
    auto action = det.checkComplete(StreamKind::LoadAddr, 5,
                                    (0x20000000 + 8) ^ (1ULL << 40),
                                    false);
    EXPECT_EQ(action, CompleteAction::Rollback);
}

TEST(Detector, BackendVariantNeverSquashes)
{
    Detector det(DetectorParams::faultHoundBackend());
    train(det, StreamKind::LoadAddr, 0x20000000);
    // A wildly foreign value causes replacement, not rollback.
    auto action = det.checkComplete(StreamKind::LoadAddr, 5,
                                    0x7777777777777777ULL, false);
    EXPECT_NE(action, CompleteAction::Rollback);
    EXPECT_EQ(det.stats().squashAlarms, 0u);
}

TEST(Detector, ForeignValueCanRaiseSquashAlarm)
{
    Detector det(DetectorParams::faultHound());
    train(det, StreamKind::LoadAddr, 0x20000000);
    // Fill remaining entries with a second neighborhood so the TCAM
    // is warm, then present a totally foreign value (rename-fault
    // signature: replacement of a quiet victim).
    train(det, StreamKind::LoadAddr, 0x30000000);
    auto action = det.checkComplete(StreamKind::LoadAddr, 5,
                                    0x7777777777777777ULL, false);
    // Depending on victim arming this is Rollback (squash alarm) or
    // Replay; it must at least trigger.
    EXPECT_NE(action, CompleteAction::None);
    EXPECT_GT(det.stats().triggers, 0u);
}

TEST(Detector, CommitProbeRequestsReexec)
{
    Detector det(DetectorParams::faultHound());
    train(det, StreamKind::StoreAddr, 0x20000000);
    auto action = det.checkCommit(StreamKind::StoreAddr, 5,
                                  (0x20000000 + 8) ^ (1ULL << 44));
    EXPECT_EQ(action, CommitAction::Reexec);
    EXPECT_EQ(det.stats().commitTriggers, 1u);
}

TEST(Detector, CommitProbeDoesNotTrain)
{
    Detector det(DetectorParams::faultHound());
    train(det, StreamKind::StoreAddr, 0x20000000);
    Detector before = det;
    det.checkCommit(StreamKind::StoreAddr, 5, 0x20000000 + 16);
    EXPECT_EQ(det.addrTcam().accesses(), before.addrTcam().accesses());
}

TEST(Detector, LsqCheckDisabledByFlag)
{
    auto params = DetectorParams::faultHound();
    params.lsqCommitCheck = false;
    Detector det(params);
    train(det, StreamKind::StoreAddr, 0x20000000);
    EXPECT_EQ(det.checkCommit(StreamKind::StoreAddr, 5,
                              0x20000000 ^ (1ULL << 44)),
              CommitAction::None);
}

TEST(Detector, AddressesAndValuesUseSeparateTcams)
{
    Detector det(DetectorParams::faultHound());
    train(det, StreamKind::LoadAddr, 0x20000000);
    // The value TCAM is untouched by address training.
    EXPECT_EQ(det.valueTcam().accesses(), 0u);
    train(det, StreamKind::StoreValue, 0x1234);
    EXPECT_GT(det.valueTcam().accesses(), 0u);
}

TEST(Detector, ReexecCompareCountsMismatches)
{
    Detector det(DetectorParams::faultHound());
    det.onReexecCompare(false);
    det.onReexecCompare(true);
    det.onReexecCompare(true);
    EXPECT_EQ(det.stats().reexecMismatches, 2u);
}

TEST(Detector, NoclusterVariantUsesPcTables)
{
    auto params = DetectorParams::faultHoundBackend();
    params.clustering = false;
    Detector det(params);
    det.checkComplete(StreamKind::LoadAddr, 11, 0x5000, false);
    auto action = det.checkComplete(StreamKind::LoadAddr, 11,
                                    0x5000 ^ (1ULL << 39), false);
    EXPECT_EQ(action, CompleteAction::Replay);
    EXPECT_EQ(det.addrTcam().accesses(), 0u)
        << "nocluster must not touch the TCAMs";
}
