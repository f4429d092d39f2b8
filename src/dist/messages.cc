#include "dist/messages.hh"

namespace fh::dist
{

std::vector<u8>
HelloMsg::encode() const
{
    std::vector<u8> p;
    putU32(p, version);
    putU64(p, pid);
    return p;
}

bool
HelloMsg::decode(const std::vector<u8> &payload, HelloMsg &out)
{
    Cursor c(payload);
    out.version = c.u32v();
    out.pid = c.u64v();
    return c.done();
}

std::vector<u8>
HelloAckMsg::encode() const
{
    std::vector<u8> p;
    putU32(p, version);
    putU8(p, accepted ? 1 : 0);
    return p;
}

bool
HelloAckMsg::decode(const std::vector<u8> &payload, HelloAckMsg &out)
{
    Cursor c(payload);
    out.version = c.u32v();
    out.accepted = c.u8v() != 0;
    return c.done();
}

std::vector<u8>
SpecMsg::encode() const
{
    std::vector<u8> p;
    putString(p, text);
    return p;
}

bool
SpecMsg::decode(const std::vector<u8> &payload, SpecMsg &out)
{
    Cursor c(payload);
    out.text = c.stringv();
    return c.done();
}

std::vector<u8>
AssignMsg::encode() const
{
    std::vector<u8> p;
    putU64(p, begin);
    putU64(p, end);
    return p;
}

bool
AssignMsg::decode(const std::vector<u8> &payload, AssignMsg &out)
{
    Cursor c(payload);
    out.begin = c.u64v();
    out.end = c.u64v();
    return c.done() && out.begin <= out.end;
}

std::vector<u8>
TrialMsg::encode() const
{
    std::vector<u8> p;
    putU64(p, trial);
    for (size_t i = 0; i < fault::kTrialCounters; ++i)
        putU64(p, d[i]);
    for (size_t i = 0; i < fault::kTrialMetaFields; ++i)
        putU64(p, m[i]);
    return p;
}

bool
TrialMsg::decode(const std::vector<u8> &payload, TrialMsg &out)
{
    Cursor c(payload);
    out.trial = c.u64v();
    for (size_t i = 0; i < fault::kTrialCounters; ++i)
        out.d[i] = c.u64v();
    for (size_t i = 0; i < fault::kTrialMetaFields; ++i)
        out.m[i] = c.u64v();
    return c.done();
}

std::vector<u8>
RangeDoneMsg::encode() const
{
    std::vector<u8> p;
    putU64(p, nextTrial);
    putU8(p, halted ? 1 : 0);
    putU8(p, stopped ? 1 : 0);
    return p;
}

bool
RangeDoneMsg::decode(const std::vector<u8> &payload, RangeDoneMsg &out)
{
    Cursor c(payload);
    out.nextTrial = c.u64v();
    out.halted = c.u8v() != 0;
    out.stopped = c.u8v() != 0;
    return c.done();
}

std::vector<u8>
HeartbeatMsg::encode() const
{
    std::vector<u8> p;
    putU64(p, position);
    return p;
}

bool
HeartbeatMsg::decode(const std::vector<u8> &payload, HeartbeatMsg &out)
{
    Cursor c(payload);
    out.position = c.u64v();
    return c.done();
}

} // namespace fh::dist
