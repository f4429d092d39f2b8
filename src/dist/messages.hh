/**
 * @file
 * Typed messages of the coordinator/worker protocol, one struct per
 * MsgType with encode/decode against the wire.hh payload primitives.
 *
 * Decoders are strict: a payload must parse completely (Cursor::done)
 * or the message is rejected, and a rejected message from a worker
 * marks that worker dead — the merge never ingests a suspect record.
 *
 * The Trial payload is exactly the journal's counter vector plus its
 * sampling-metadata vector (fault::kTrialCounters and
 * fault::kTrialMetaFields, both in record-array order): a coordinator
 * can journal a worker's trial verbatim — and fold it into its
 * vulnerability profile / CI estimator — and the merged journal and
 * profile are byte-identical to a single-process run's.
 */

#ifndef FH_DIST_MESSAGES_HH
#define FH_DIST_MESSAGES_HH

#include <string>
#include <vector>

#include "dist/wire.hh"
#include "fault/journal.hh"

namespace fh::dist
{

/** Bump on any wire-visible change; mismatch refuses the worker.
 *  v2: Trial frames carry the sampling-metadata vector (stratum id,
 *  site, flags, attribution PC, early-exit cycle) after the counters,
 *  and the counter vector grew the skipped/early-terminated pair.
 *  v3: every frame carries a CRC32C trailer, Hello carries the
 *  worker's reconnect ordinal, and the coordinator answers Hello with
 *  an explicit HelloAck version verdict instead of silently dropping
 *  mismatched workers.
 *  v4: Hello drops the reconnect ordinal; a worker serves one
 *  connection and never re-dials.
 *  v5: the Spec text drops the wall-clock trial budget key, so a v4
 *  peer is refused at Hello rather than at spec decode. */
constexpr u32 kProtocolVersion = 5;

/** Worker -> coordinator, once, immediately after connecting. */
struct HelloMsg
{
    u32 version = kProtocolVersion;
    u64 pid = 0;

    std::vector<u8> encode() const;
    static bool decode(const std::vector<u8> &payload, HelloMsg &out);
};

/** Coordinator -> worker: explicit version verdict for the Hello.
 *  accepted=false means the worker must exit: its protocol is wrong
 *  for this coordinator. */
struct HelloAckMsg
{
    u32 version = kProtocolVersion;
    bool accepted = false;

    std::vector<u8> encode() const;
    static bool decode(const std::vector<u8> &payload,
                       HelloAckMsg &out);
};

/** Coordinator -> worker: the canonical campaign spec text (see
 *  dist/spec.hh). Sent once, before any Assign. */
struct SpecMsg
{
    std::string text;

    std::vector<u8> encode() const;
    static bool decode(const std::vector<u8> &payload, SpecMsg &out);
};

/** Coordinator -> worker: lease trials [begin, end). */
struct AssignMsg
{
    u64 begin = 0;
    u64 end = 0;

    std::vector<u8> encode() const;
    static bool decode(const std::vector<u8> &payload, AssignMsg &out);
};

/** Worker -> coordinator: one completed trial's counter deltas and
 *  its sampling metadata (journal record-array order for both). */
struct TrialMsg
{
    u64 trial = 0;
    u64 d[fault::kTrialCounters] = {};
    u64 m[fault::kTrialMetaFields] = {};

    std::vector<u8> encode() const;
    static bool decode(const std::vector<u8> &payload, TrialMsg &out);
};

/** Worker -> coordinator: the current lease is finished. nextTrial is
 *  the first trial not produced — the lease end, or the halt/stop
 *  point. halted means the workload ran out: no trial >= nextTrial
 *  exists in this campaign (deterministic across processes). */
struct RangeDoneMsg
{
    u64 nextTrial = 0;
    bool halted = false;
    bool stopped = false;

    std::vector<u8> encode() const;
    static bool decode(const std::vector<u8> &payload,
                       RangeDoneMsg &out);
};

/** Worker -> coordinator: periodic liveness, independent of trial
 *  completion (a worker grinding a slow fork still heartbeats). */
struct HeartbeatMsg
{
    u64 position = 0; ///< session position (trials advanced)

    std::vector<u8> encode() const;
    static bool decode(const std::vector<u8> &payload,
                       HeartbeatMsg &out);
};

// Shutdown carries no payload.

} // namespace fh::dist

#endif // FH_DIST_MESSAGES_HH
