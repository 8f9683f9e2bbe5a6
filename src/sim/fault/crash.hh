/**
 * @file
 * Deterministic process-crash points for the crash-recovery tests.
 *
 * A named point in the code (journal append, snapshot write, analysis
 * record) calls crashPoint(name), and when the environment selects
 * that point -- MPOS_CRASH="<name>" or "<name>:<n>" (die on the n-th
 * hit, default 1) -- the process dies with _exit(137), exactly as a
 * kill -9 would look to the journal. Unset MPOS_CRASH costs one
 * getenv at first use and an early-out string compare per hit.
 */

#ifndef MPOS_SIM_FAULT_CRASH_HH
#define MPOS_SIM_FAULT_CRASH_HH

namespace mpos::sim
{

/**
 * True when this hit of the named point is the scheduled fatal one.
 * For torn-write experiments: the caller commits its partial bytes,
 * then calls crashNow(). Plain call sites use crashPoint() instead.
 */
bool crashPointArmed(const char *name);

/** Die with _exit(137) if this hit of the point is the scheduled one. */
void crashPoint(const char *name);

/** Announce the injected crash on stderr and _exit(137). */
[[noreturn]] void crashNow(const char *name);

} // namespace mpos::sim

#endif // MPOS_SIM_FAULT_CRASH_HH
