#include "dist/wire.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "sim/crc32c.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace fh::dist
{

/* ------------------------------------------------------------------ */
/* Encode / decode.                                                   */

void
putU8(std::vector<u8> &buf, u8 v)
{
    buf.push_back(v);
}

void
putU32(std::vector<u8> &buf, u32 v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<u8>(v >> (8 * i)));
}

void
putU64(std::vector<u8> &buf, u64 v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<u8>(v >> (8 * i)));
}

void
putString(std::vector<u8> &buf, const std::string &s)
{
    // Grow once, then store. push_back followed by a range insert is
    // correct too, but once LTO inlines it into an encoder that starts
    // from an empty buffer, GCC 12 follows an infeasible reallocation
    // path through the two growths and reports -Wstringop-overflow.
    const size_t at = buf.size();
    const u32 n = static_cast<u32>(s.size());
    buf.resize(at + 4 + s.size());
    for (int i = 0; i < 4; ++i)
        buf[at + i] = static_cast<u8>(n >> (8 * i));
    std::copy(s.begin(), s.end(), buf.begin() + at + 4);
}

bool
Cursor::take(size_t n, const u8 *&out)
{
    if (fail_ || left_ < n) {
        fail_ = true;
        return false;
    }
    out = p_;
    p_ += n;
    left_ -= n;
    return true;
}

u8
Cursor::u8v()
{
    const u8 *p;
    return take(1, p) ? *p : 0;
}

u32
Cursor::u32v()
{
    const u8 *p;
    if (!take(4, p))
        return 0;
    u32 v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<u32>(p[i]) << (8 * i);
    return v;
}

u64
Cursor::u64v()
{
    const u8 *p;
    if (!take(8, p))
        return 0;
    u64 v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<u64>(p[i]) << (8 * i);
    return v;
}

std::string
Cursor::stringv()
{
    const u32 n = u32v();
    const u8 *p;
    if (!take(n, p))
        return {};
    return std::string(reinterpret_cast<const char *>(p), n);
}

std::vector<u8>
encodeFrame(MsgType type, const std::vector<u8> &payload)
{
    std::vector<u8> out;
    out.reserve(kLengthBytes + 1 + payload.size() + kCrcBytes);
    putU32(out, static_cast<u32>(1 + payload.size() + kCrcBytes));
    putU8(out, static_cast<u8>(type));
    out.insert(out.end(), payload.begin(), payload.end());
    // The CRC covers everything before it — length prefix included, so
    // a flipped length bit is caught once the (mis-sized) frame
    // completes rather than silently resyncing the stream.
    putU32(out, crc32c(out.data(), out.size()));
    return out;
}

void
FrameReader::feed(const u8 *data, size_t n)
{
    // Drop the consumed prefix before growing; the buffer stays at
    // most one partial frame plus one read() worth of bytes.
    if (pos_ > 0) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + n);
}

bool
FrameReader::next(Frame &out)
{
    if (corrupt_)
        return false;
    const size_t avail = buf_.size() - pos_;
    if (avail < kLengthBytes)
        return false;
    Cursor len(buf_.data() + pos_, kLengthBytes);
    const u32 length = len.u32v();
    if (length < 1 + kCrcBytes || length > kMaxFrame) {
        corrupt_ = true;
        return false;
    }
    if (avail < kLengthBytes + length)
        return false; // torn tail: wait for the rest (or EOF drops it)
    const u8 *start = buf_.data() + pos_;
    const size_t covered = kLengthBytes + length - kCrcBytes;
    Cursor trailer(start + covered, kCrcBytes);
    if (crc32c(start, covered) != trailer.u32v()) {
        ++crcErrors_;
        corrupt_ = true;
        return false;
    }
    const u8 *body = start + kLengthBytes;
    out.type = body[0];
    out.payload.assign(body + 1, body + length - kCrcBytes);
    pos_ += kLengthBytes + length;
    return true;
}

/* ------------------------------------------------------------------ */
/* Sockets.                                                           */

namespace
{

/** False, with error, when path cannot name a socket: empty, or too
 *  long for sockaddr_un. text is what the error quotes. */
bool
usablePath(const std::string &path, const std::string &text,
           std::string &error)
{
    if (path.empty()) {
        error = "empty unix socket path in '" + text + "'";
        return false;
    }
    if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
        error = "unix socket path too long in '" + text + "'";
        return false;
    }
    return true;
}

/** The fabric-fd registry (see adoptFabricFd in wire.hh): a fixed
 *  lock-free table so the child-side sweep right after fork() needs
 *  no allocation and no locks that might be mid-acquire in another
 *  thread at fork time. Slot value 0 = free (fd 0 is never a
 *  socket). A full table only weakens child-side hygiene — the send
 *  stall bound still holds — so overflow is not an error. */
constexpr size_t kMaxFabricFds = 256;
std::atomic<int> gFabricFds[kMaxFabricFds];

/** A stream socket and ep's address; -1 (with error) on failure. */
int
unixSocket(const Endpoint &ep, sockaddr_un &sun, std::string &error)
{
    if (!usablePath(ep.path, ep.str(), error))
        return -1;
    std::memset(&sun, 0, sizeof(sun));
    sun.sun_family = AF_UNIX;
    std::memcpy(sun.sun_path, ep.path.data(), ep.path.size());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        error = std::string("socket: ") + std::strerror(errno);
    return fd;
}

} // namespace

bool
parseEndpoint(const std::string &text, Endpoint &out,
              std::string &error)
{
    if (text.rfind("unix:", 0) != 0) {
        error = "expected unix:/path, got '" + text + "'";
        return false;
    }
    out.path = text.substr(5);
    return usablePath(out.path, text, error);
}

void
adoptFabricFd(int fd)
{
    if (fd <= 0)
        return;
    // Bounded sends: a peer that stops draining its receive buffer
    // turns send() into EAGAIN after 2 s instead of an infinite
    // block; sendAll then gives the buffer ~10 s total to move before
    // declaring the peer gone.
    timeval tv{2, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    for (auto &slot : gFabricFds) {
        int expected = 0;
        if (slot.compare_exchange_strong(expected, fd))
            return;
    }
}

void
closeFabricFd(int fd)
{
    if (fd <= 0)
        return;
    for (auto &slot : gFabricFds) {
        int expected = fd;
        if (slot.compare_exchange_strong(expected, 0))
            break;
    }
    ::close(fd);
}

void
closeFabricFdsInChild()
{
    for (auto &slot : gFabricFds) {
        const int fd = slot.exchange(0);
        if (fd > 0)
            ::close(fd);
    }
}

int
listenOn(const Endpoint &ep, std::string &error)
{
    sockaddr_un sun;
    const int fd = unixSocket(ep, sun, error);
    if (fd < 0)
        return -1;
    ::unlink(ep.path.c_str()); // stale path from a previous run
    if (::bind(fd, reinterpret_cast<sockaddr *>(&sun), sizeof(sun)) != 0 ||
        ::listen(fd, 64) != 0) {
        error = std::string("bind/listen ") + ep.str() + ": " +
                std::strerror(errno);
        ::close(fd);
        return -1;
    }
    adoptFabricFd(fd);
    return fd;
}

int
connectTo(const Endpoint &ep, std::string &error)
{
    sockaddr_un sun;
    const int fd = unixSocket(ep, sun, error);
    if (fd < 0)
        return -1;
    int rc;
    do {
        rc = ::connect(fd, reinterpret_cast<sockaddr *>(&sun),
                       sizeof(sun));
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
        error = std::string("connect ") + ep.str() + ": " +
                std::strerror(errno);
        ::close(fd);
        return -1;
    }
    adoptFabricFd(fd);
    return fd;
}

bool
sendAll(int fd, const void *data, size_t n)
{
    const char *p = static_cast<const char *>(data);
    int stalledMs = 0;
    while (n > 0) {
        const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // Coordinator fds are non-blocking for reads and every
                // fabric fd carries a SO_SNDTIMEO; wait for buffer
                // space, but only so long — a peer that drains nothing
                // for ~10 s is gone, and blocking forever here is how
                // a dead fabric becomes a hung process.
                if (stalledMs >= 10000)
                    return false;
                pollfd pfd{fd, POLLOUT, 0};
                if (::poll(&pfd, 1, 1000) <= 0)
                    stalledMs += 1000;
                continue;
            }
            return false;
        }
        stalledMs = 0;
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

namespace
{
SendHook gSendHook = nullptr;
} // namespace

void
setSendHook(SendHook hook)
{
    gSendHook = hook;
}

bool
sendFrame(int fd, MsgType type, const std::vector<u8> &payload)
{
    const std::vector<u8> frame = encodeFrame(type, payload);
    if (gSendHook)
        return gSendHook(fd, frame.data(), frame.size());
    return sendAll(fd, frame.data(), frame.size());
}

} // namespace fh::dist
