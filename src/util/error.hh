/**
 * @file
 * Recoverable error channel for library paths.
 *
 * The logging layer (util/logging.hh) draws the gem5 line between
 * panic() -- an internal invariant broke, abort() -- and fatal() -- the
 * user asked for something impossible, exit(1). Both kill the process,
 * which is the wrong failure mode for a 20-analysis sweep: one
 * exhausted process table or one bad histogram geometry must not take
 * the other nineteen analyses with it.
 *
 * SimError is the recoverable third tier: a typed exception that
 * propagates out of Machine::run / core::Experiment so the runner can
 * record the failure (status/error/attempts), retry with a reseed, or
 * keep going. The division of labor after this file:
 *
 *  - panic()   : internal invariant violated -> abort (unchanged).
 *  - fatal()   : unrecoverable CLI misuse in main() paths -> exit(1).
 *  - SimError  : anything a batch driver can usefully survive --
 *                resource exhaustion, bad MachineConfig, watchdog
 *                trips, per-job timeouts, injected faults.
 */

#ifndef MPOS_UTIL_ERROR_HH
#define MPOS_UTIL_ERROR_HH

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace mpos::util
{

/** Coarse failure taxonomy; see DESIGN.md §9. */
enum class ErrCode : uint8_t
{
    BadConfig,         ///< Impossible MachineConfig/geometry/argument.
    ResourceExhausted, ///< Simulated resource ran out (slots, pages).
    WatchdogTrip,      ///< Forward-progress watchdog fired (livelock).
    Timeout,           ///< Per-job host wall-clock budget exceeded.
    JobFailed,         ///< A runner job has no result to hand out.
    FaultInjected,     ///< A FaultPlan fault fired (campaign runs).
    SnapshotCorrupt,   ///< A machine snapshot failed validation.
};

inline const char *
errCodeName(ErrCode code)
{
    switch (code) {
    case ErrCode::BadConfig: return "bad-config";
    case ErrCode::ResourceExhausted: return "resource-exhausted";
    case ErrCode::WatchdogTrip: return "watchdog-trip";
    case ErrCode::Timeout: return "timeout";
    case ErrCode::JobFailed: return "job-failed";
    case ErrCode::FaultInjected: return "fault-injected";
    case ErrCode::SnapshotCorrupt: return "snapshot-corrupt";
    }
    return "unknown";
}

/** Typed recoverable simulator error. */
class SimError : public std::runtime_error
{
  public:
    SimError(ErrCode code, const std::string &what)
        : std::runtime_error(std::string(errCodeName(code)) + ": " +
                             what),
          code_(code)
    {
    }

    ErrCode code() const { return code_; }
    const char *codeName() const { return errCodeName(code_); }

  private:
    ErrCode code_;
};

/** Throw a SimError with a printf-formatted description. */
template <typename... Args>
[[noreturn]] void
raise(ErrCode code, const char *fmt, Args... args)
{
    if constexpr (sizeof...(Args) == 0) {
        throw SimError(code, fmt);
    } else {
        const int n = std::snprintf(nullptr, 0, fmt, args...);
        std::string text(n > 0 ? size_t(n) : size_t(0), '\0');
        if (n > 0)
            std::snprintf(text.data(), text.size() + 1, fmt, args...);
        throw SimError(code, text);
    }
}

} // namespace mpos::util

#endif // MPOS_UTIL_ERROR_HH
