#include "filters/detector.hh"

#include "sim/logging.hh"

namespace fh::filters
{

DetectorParams
DetectorParams::none()
{
    DetectorParams p;
    p.scheme = Scheme::None;
    return p;
}

DetectorParams
DetectorParams::pbfsSticky()
{
    DetectorParams p;
    p.scheme = Scheme::Pbfs;
    p.pbfs.counters = CounterConfig::sticky();
    return p;
}

DetectorParams
DetectorParams::pbfsBiased()
{
    DetectorParams p;
    p.scheme = Scheme::PbfsBiased;
    p.pbfs.counters = CounterConfig::biased();
    return p;
}

DetectorParams
DetectorParams::faultHound()
{
    return DetectorParams{};
}

DetectorParams
DetectorParams::faultHoundBackend()
{
    DetectorParams p;
    p.squashDetect = false;
    return p;
}

Detector::Detector(const DetectorParams &params)
    : params_(params),
      addrTcam_(params.tcam),
      valueTcam_(params.tcam),
      addrSecond_(params.secondLevelStates),
      valueSecond_(params.secondLevelStates),
      addrSquash_(params.tcam.entries, BiasedNState(params.squashStates)),
      valueSquash_(params.tcam.entries, BiasedNState(params.squashStates))
{
    // Exactly the schemes checkComplete routes to checkPbfs.
    const bool pc_indexed =
        params_.scheme == Scheme::Pbfs ||
        params_.scheme == Scheme::PbfsBiased ||
        (params_.scheme == Scheme::FaultHound && !params_.clustering);
    if (pc_indexed)
        pbfs_.assign(3, PbfsTable(params_.pbfs)); // one per StreamKind
}

CompleteAction
Detector::checkComplete(StreamKind kind, u64 pc, u64 value, bool in_replay)
{
    switch (params_.scheme) {
      case Scheme::None:
        return CompleteAction::None;
      case Scheme::Pbfs:
      case Scheme::PbfsBiased:
        return checkPbfs(kind, pc, value, in_replay);
      case Scheme::FaultHound:
        if (params_.clustering)
            return checkFaultHound(kind, pc, value, in_replay);
        return checkPbfs(kind, pc, value, in_replay);
    }
    fh_panic("bad scheme");
}

CompleteAction
Detector::checkPbfs(StreamKind kind, u64 pc, u64 value, bool in_replay)
{
    ++stats_.checks;
    PbfsResult res = pbfsFor(kind).check(pc, value);
    if (!res.trigger)
        return CompleteAction::None;
    ++stats_.triggers;

    if (in_replay) {
        // Re-executed values are deemed final (Section 2.1 / 3.3).
        ++stats_.replayIgnored;
        return CompleteAction::None;
    }

    // The FH-nocluster ablation layers the second-level filter over
    // PC-indexed tables; plain PBFS has no second level.
    if (params_.scheme == Scheme::FaultHound && params_.secondLevel) {
        if (!secondFor(kind).onTrigger(res.mismatchMask)) {
            ++stats_.suppressed;
            return CompleteAction::None;
        }
    }

    if (params_.scheme == Scheme::FaultHound && params_.replayRecovery) {
        ++stats_.replays;
        return CompleteAction::Replay;
    }
    ++stats_.rollbacks;
    return CompleteAction::Rollback;
}

CompleteAction
Detector::checkFaultHound(StreamKind kind, u64 pc, u64 value,
                          bool in_replay)
{
    (void)pc; // inverted organization: the value itself is the index
    ++stats_.checks;
    TcamResult res = tcamFor(kind).lookup(value);
    if (!res.trigger) {
        // A full match keeps the matched filter "in identity": its
        // squash machine re-arms so that an occasional false-positive
        // trigger from a filter in regular use does not masquerade as
        // a rename fault (Section 3.4).
        if (params_.squashDetect)
            squashFor(kind)[res.entry].arm();
        return CompleteAction::None;
    }
    ++stats_.triggers;

    if (in_replay) {
        ++stats_.replayIgnored;
        return CompleteAction::None;
    }

    // Second-level filter: suppress delinquent bit positions.
    if (params_.secondLevel) {
        if (!secondFor(kind).onTrigger(res.mismatchMask)) {
            ++stats_.suppressed;
            return CompleteAction::None;
        }
    }

    // Squash state machines observe the replay triggers: the machine
    // of the closest-matching (or freshly-installed) filter re-arms,
    // every other machine steps toward quiet (Section 3.4). An alarm —
    // the rename-fault signature — fires when the trigger changes the
    // identity of the closest-matching filter so strongly that no
    // existing filter claims the value (a replacement) and the victim
    // entry has not been the closest match in the recent past.
    bool squash_alarm = false;
    if (params_.squashDetect) {
        auto &machines = squashFor(kind);
        for (unsigned i = 0; i < machines.size(); ++i) {
            bool alarm = machines[i].record(i == res.entry);
            if (i == res.entry && res.replaced)
                squash_alarm = alarm;
        }
    }

    if (squash_alarm) {
        ++stats_.squashAlarms;
        ++stats_.rollbacks;
        return CompleteAction::Rollback;
    }

    if (params_.replayRecovery) {
        ++stats_.replays;
        return CompleteAction::Replay;
    }
    ++stats_.rollbacks;
    return CompleteAction::Rollback;
}

CommitAction
Detector::checkCommit(StreamKind kind, u64 pc, u64 value)
{
    (void)pc;
    if (params_.scheme != Scheme::FaultHound || !params_.lsqCommitCheck ||
        !params_.clustering) {
        return CommitAction::None;
    }
    ++stats_.commitChecks;
    TcamResult res = tcamFor(kind).probe(value);
    if (!res.trigger)
        return CommitAction::None;
    // The second-level filter's delinquent-bit knowledge also screens
    // the commit-time probe (read-only: the probe must not train).
    if (params_.secondLevel) {
        const auto &second = kind == StreamKind::StoreValue
                                 ? valueSecond_
                                 : addrSecond_;
        if (!second.wouldAllow(res.mismatchMask))
            return CommitAction::None;
    }
    ++stats_.commitTriggers;
    return CommitAction::Reexec;
}

void
Detector::onReexecCompare(bool mismatch)
{
    if (mismatch)
        ++stats_.reexecMismatches;
}

u64
Detector::filterAccesses() const
{
    u64 n = addrTcam_.accesses() + valueTcam_.accesses() +
            stats_.commitChecks;
    for (const PbfsTable &table : pbfs_)
        n += table.accesses();
    return n;
}

std::string
to_string(Scheme scheme)
{
    switch (scheme) {
      case Scheme::None: return "baseline";
      case Scheme::Pbfs: return "PBFS";
      case Scheme::PbfsBiased: return "PBFS-biased";
      case Scheme::FaultHound: return "FaultHound";
    }
    return "?";
}

} // namespace fh::filters
