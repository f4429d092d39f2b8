#include "dist/chaos.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

#include "dist/wire.hh"
#include "sim/logging.hh"

namespace fh::dist::chaos
{

namespace
{

/** Per-mille probabilities for each perturbation. */
struct Rates
{
    u32 dropPm = 0;
    u32 truncPm = 0;
    u32 flipPm = 0;
    u32 dupPm = 0;
    u32 delayPm = 0;
    u32 resetPm = 0;
};

bool gEnabled = false;
u64 gSeed = 0;
Rates gRates;

std::atomic<u64> gOrdinal{0};

/** splitmix64 — decisions are a pure function of (seed, ordinal). */
u64
mix(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

Rates
defaultRates()
{
    // A mixed schedule exercising every perturbation; mild enough
    // that a campaign still converges through reconnects.
    Rates r;
    r.dropPm = 2;
    r.truncPm = 2;
    r.flipPm = 4;
    r.dupPm = 4;
    r.delayPm = 8;
    r.resetPm = 2;
    return r;
}

void
parseSpec(const std::string &spec)
{
    const auto colon = spec.find(':');
    const std::string seedPart = spec.substr(0, colon);
    char *end = nullptr;
    gSeed = std::strtoull(seedPart.c_str(), &end, 10);
    if (end == seedPart.c_str() || *end != '\0')
        fh_fatal("FH_CHAOS: bad seed in '%s'", spec.c_str());
    if (colon == std::string::npos) {
        gRates = defaultRates();
        return;
    }
    gRates = Rates{};
    std::string rest = spec.substr(colon + 1);
    size_t pos = 0;
    while (pos < rest.size()) {
        size_t comma = rest.find(',', pos);
        if (comma == std::string::npos)
            comma = rest.size();
        const std::string pair = rest.substr(pos, comma - pos);
        pos = comma + 1;
        const auto eq = pair.find('=');
        if (eq == std::string::npos)
            fh_fatal("FH_CHAOS: expected key=permille, got '%s'",
                     pair.c_str());
        const std::string key = pair.substr(0, eq);
        const std::string val = pair.substr(eq + 1);
        char *vend = nullptr;
        const unsigned long pm = std::strtoul(val.c_str(), &vend, 10);
        if (vend == val.c_str() || *vend != '\0' || pm > 1000)
            fh_fatal("FH_CHAOS: bad per-mille value '%s' for '%s'",
                     val.c_str(), key.c_str());
        const u32 v = static_cast<u32>(pm);
        if (key == "drop")
            gRates.dropPm = v;
        else if (key == "trunc")
            gRates.truncPm = v;
        else if (key == "flip")
            gRates.flipPm = v;
        else if (key == "dup")
            gRates.dupPm = v;
        else if (key == "delay")
            gRates.delayPm = v;
        else if (key == "reset")
            gRates.resetPm = v;
        else
            fh_fatal("FH_CHAOS: unknown rate key '%s'", key.c_str());
    }
}

/** Kill the connection both ways so the peer sees EOF promptly and
 *  this side's next read/send fails — models a connection death, the
 *  only way bytes legitimately go missing on a stream socket. */
void
killConnection(int fd)
{
    ::shutdown(fd, SHUT_RDWR);
}

} // namespace

void
reload()
{
    gOrdinal.store(0, std::memory_order_relaxed);
    const char *spec = std::getenv("FH_CHAOS");
    if (!spec || !*spec) {
        gEnabled = false;
        return;
    }
    parseSpec(spec);
    gEnabled = true;
}

bool
enabled()
{
    return gEnabled;
}

bool
send(int fd, const u8 *frame, size_t n)
{
    const u64 ordinal =
        gOrdinal.fetch_add(1, std::memory_order_relaxed);
    const u64 r = mix(gSeed + ordinal);
    const u32 roll = static_cast<u32>(r % 1000);
    // Extra random bits for the perturbation's parameters (which bit
    // to flip, how much to truncate, how long to stall).
    const u64 aux = mix(r);

    u32 edge = gRates.dropPm;
    if (roll < edge) {
        killConnection(fd);
        return false;
    }
    edge += gRates.truncPm;
    if (roll < edge) {
        const size_t keep = n > 1 ? 1 + aux % (n - 1) : 0;
        if (keep > 0)
            sendAll(fd, frame, keep);
        killConnection(fd);
        return false;
    }
    edge += gRates.flipPm;
    if (roll < edge) {
        std::vector<u8> mutated(frame, frame + n);
        const u64 bit = aux % (n * 8);
        mutated[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        return sendAll(fd, mutated.data(), n);
    }
    edge += gRates.dupPm;
    if (roll < edge) {
        return sendAll(fd, frame, n) && sendAll(fd, frame, n);
    }
    edge += gRates.delayPm;
    if (roll < edge) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1 + aux % 20));
        return sendAll(fd, frame, n);
    }
    edge += gRates.resetPm;
    if (roll < edge) {
        sendAll(fd, frame, n); // frame arrives, then the line dies
        killConnection(fd);
        return false;
    }
    return sendAll(fd, frame, n);
}

} // namespace fh::dist::chaos
