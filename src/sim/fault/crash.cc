#include "sim/fault/crash.hh"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace mpos::sim
{

namespace
{

/** Parsed MPOS_CRASH: which point dies, and on which hit. */
struct CrashSchedule
{
    std::string point;  ///< Empty = no crash scheduled.
    uint64_t hit = 1;   ///< 1-based hit count that dies.
};

const CrashSchedule &
crashSchedule()
{
    static const CrashSchedule sched = [] {
        CrashSchedule s;
        const char *env = std::getenv("MPOS_CRASH");
        if (!env || !*env)
            return s;
        const char *colon = std::strrchr(env, ':');
        if (colon && colon != env) {
            char *end = nullptr;
            const unsigned long long n =
                std::strtoull(colon + 1, &end, 10);
            if (end != colon + 1 && *end == '\0' && n >= 1) {
                s.point.assign(env, size_t(colon - env));
                s.hit = n;
                return s;
            }
        }
        s.point = env;
        return s;
    }();
    return sched;
}

/** Hits of the scheduled point so far (other points are not counted). */
std::atomic<uint64_t> crashHits{0};

} // namespace

bool
crashPointArmed(const char *name)
{
    const CrashSchedule &s = crashSchedule();
    if (s.point.empty() || s.point != name)
        return false;
    return crashHits.fetch_add(1, std::memory_order_relaxed) + 1 ==
           s.hit;
}

void
crashPoint(const char *name)
{
    if (crashPointArmed(name))
        crashNow(name);
}

void
crashNow(const char *name)
{
    std::fprintf(stderr, "[fault] injected crash at %s\n", name);
    std::fflush(stderr);
    // _exit, not exit: no atexit handlers, no stream flushing beyond
    // what the call site already forced -- the closest stand-in for a
    // kill -9 that still leaves a deterministic exit status (137, the
    // shell's code for SIGKILL) for the test harness to assert.
    _exit(137);
}

} // namespace mpos::sim
