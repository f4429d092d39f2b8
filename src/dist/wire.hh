/**
 * @file
 * Wire layer of the distributed campaign fabric: length-prefixed
 * frames over a stream socket, plus the small socket helpers the
 * coordinator and workers share.
 *
 * A frame is `u32 length (LE) | u8 type | payload | u32 crc32c (LE)`,
 * where length counts the type byte, the payload, and the CRC trailer.
 * The CRC covers the length prefix, the type byte, and the payload, so
 * any single flipped bit anywhere in the frame — length field included
 * — fails verification once the frame completes. The format is
 * deliberately trivial: trial records are ~150 bytes, the campaign
 * spec is a few hundred, and the fabric's correctness rests on
 * *framing* and *integrity* (a coordinator must never act on half a
 * record from a worker that died mid-write, nor on a record a flaky
 * link mutated in flight), not on encoding cleverness. FrameReader is
 * incremental and tolerant of torn tails — bytes short of a full frame
 * simply wait for more input, and a stream that ends inside a frame
 * yields the complete prefix and nothing else. An impossible length
 * (shorter than type + CRC, or beyond kMaxFrame) or a CRC mismatch
 * marks the stream corrupt, at which point the peer is treated as
 * dead and the connection dropped: on a byte stream there is no
 * reliable way to find the next frame boundary after corruption, so
 * there is no in-stream resync. The dropped worker exits and the
 * coordinator re-issues its lease.
 *
 * Endpoints are Unix-domain sockets, written `unix:/path`: the
 * coordinator and its workers share one host. All sockets are used
 * blocking on the worker side; the coordinator multiplexes
 * non-blocking reads under poll(2).
 */

#ifndef FH_DIST_WIRE_HH
#define FH_DIST_WIRE_HH

#include <cstddef>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace fh::dist
{

/** Frame types. The numeric values are the protocol; never reuse. */
enum class MsgType : u8
{
    Hello = 1,     ///< worker -> coordinator, once, on connect
    Spec = 2,      ///< coordinator -> worker: canonical campaign spec
    Assign = 3,    ///< coordinator -> worker: lease one trial range
    Trial = 4,     ///< worker -> coordinator: one completed trial
    RangeDone = 5, ///< worker -> coordinator: lease finished
    Heartbeat = 6, ///< worker -> coordinator: liveness + position
    Shutdown = 7,  ///< coordinator -> worker: drain and exit
    HelloAck = 8,  ///< coordinator -> worker: version verdict
};

/** Sanity bound on a frame's length field; a peer advertising more is
 *  corrupt (the largest legitimate frame — the spec — is < 4 KiB). */
constexpr u32 kMaxFrame = 1u << 20;

/** Bytes of the `u32 length` prefix. */
constexpr size_t kLengthBytes = 4;

/** Bytes of the trailing CRC32C; the smallest legal length field is
 *  one type byte plus this trailer. */
constexpr size_t kCrcBytes = 4;

struct Frame
{
    u8 type = 0;
    std::vector<u8> payload;
};

/* ------------------------------------------------------------------ */
/* Payload encode/decode primitives (little-endian, append-style).    */

void putU8(std::vector<u8> &buf, u8 v);
void putU32(std::vector<u8> &buf, u32 v);
void putU64(std::vector<u8> &buf, u64 v);
/** u32 length + raw bytes. */
void putString(std::vector<u8> &buf, const std::string &s);

/**
 * Bounds-checked sequential reader over a payload. Any read past the
 * end latches fail() and returns zero values, so decoders can read
 * unconditionally and check once at the end — a malformed payload can
 * never read out of bounds or be half-applied.
 */
class Cursor
{
  public:
    Cursor(const u8 *data, size_t size) : p_(data), left_(size) {}
    explicit Cursor(const std::vector<u8> &payload)
        : Cursor(payload.data(), payload.size())
    {
    }

    u8 u8v();
    u32 u32v();
    u64 u64v();
    std::string stringv();

    bool fail() const { return fail_; }
    /** True when every byte was consumed and nothing overran. */
    bool done() const { return !fail_ && left_ == 0; }

  private:
    bool take(size_t n, const u8 *&out);

    const u8 *p_;
    size_t left_;
    bool fail_ = false;
};

/** Serialize one frame (length prefix included). */
std::vector<u8> encodeFrame(MsgType type,
                            const std::vector<u8> &payload);

/**
 * Incremental frame parser. feed() raw bytes as they arrive; next()
 * yields complete frames in order. See the file comment for torn-tail
 * semantics.
 */
class FrameReader
{
  public:
    void feed(const u8 *data, size_t n);
    /** Pop the next complete frame; false if none (or corrupt). */
    bool next(Frame &out);
    /** The stream advertised an impossible frame length or failed CRC
     *  verification; no further frames will be produced. */
    bool corrupt() const { return corrupt_; }
    /** Complete frames whose CRC trailer did not match — counted so
     *  the coordinator can surface wire corruption in its fabric
     *  health stats instead of losing it in a generic "dropped". */
    u64 crcErrors() const { return crcErrors_; }
    /** Bytes buffered but not yet forming a complete frame. */
    size_t pendingBytes() const { return buf_.size() - pos_; }

  private:
    std::vector<u8> buf_;
    size_t pos_ = 0; ///< consumed prefix of buf_
    bool corrupt_ = false;
    u64 crcErrors_ = 0;
};

/* ------------------------------------------------------------------ */
/* Sockets.                                                           */

/** A Unix-domain socket path, written `unix:/path`. */
struct Endpoint
{
    std::string path;

    std::string str() const { return "unix:" + path; }
};

/** Parse `unix:/path`; false (with error) on anything else, or on a
 *  path that is empty or too long for a socket address. */
bool parseEndpoint(const std::string &text, Endpoint &out,
                   std::string &error);

/**
 * Bind + listen on the endpoint, replacing a stale socket file left at
 * its path. Returns the listening fd, or -1 with error set (an empty
 * path included).
 */
int listenOn(const Endpoint &ep, std::string &error);

/** Connect to the endpoint; returns fd or -1 with error set. */
int connectTo(const Endpoint &ep, std::string &error);

/**
 * Track a fabric socket for child-process hygiene and bound its send
 * stalls. fork()ed children (spawnFn workers) inherit every open fd;
 * an inherited connection end keeps the stream artificially alive
 * after its real owner dies — the peer never sees EOF and can block
 * forever in send() on a buffer nobody drains. Registered fds are
 * closed en masse in spawned children (spawner.cc) and get a
 * SO_SNDTIMEO so even a genuinely wedged peer turns into a bounded
 * send failure, not a hang. listenOn/connectTo adopt their fds
 * automatically; the coordinator adopts each accept()ed fd.
 */
void adoptFabricFd(int fd);

/** Unregister + close a fabric fd (the only way fabric sockets should
 *  be closed, or the child-side registry leaks stale fds). */
void closeFabricFd(int fd);

/** Child-side half of adoptFabricFd: close every inherited fabric fd.
 *  Called by spawnFn right after fork. */
void closeFabricFdsInChild();

/** Write all n bytes (handles short writes, EINTR; no SIGPIPE).
 *  False once the peer is gone — or once the send has stalled long
 *  enough (no buffer space drained for ~10 s) that the peer is
 *  functionally gone; an unbounded blocking send is how a dead fabric
 *  turns into a hung process. */
bool sendAll(int fd, const void *data, size_t n);

/**
 * Transmits one encoded frame in place of sendAll; false when the
 * frame was not (fully) delivered. A test seam: the chaos suite
 * installs its network-fault interposer here, and the workers it
 * forks inherit it. Production never sets one.
 */
using SendHook = bool (*)(int fd, const u8 *frame, size_t n);

/** Install hook for every later sendFrame in this process; nullptr
 *  restores plain sendAll. Set it while no fabric thread runs. */
void setSendHook(SendHook hook);

/** encodeFrame + sendAll (or the send hook, when one is set); false
 *  once the peer is gone. */
bool sendFrame(int fd, MsgType type, const std::vector<u8> &payload);

} // namespace fh::dist

#endif // FH_DIST_WIRE_HH
