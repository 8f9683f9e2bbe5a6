/**
 * @file
 * Strict numeric parsing for command-line flags and environment knobs.
 */

#ifndef MPOS_UTIL_CLI_HH
#define MPOS_UTIL_CLI_HH

#include <cstdint>

namespace mpos::util
{

/**
 * Parse a flag's or environment variable's value as a whole decimal
 * number in [lo, hi], or print "<prog>: <name> wants a whole number
 * from <lo> to <hi>, got '<text>'" and exit 2. The whole string must
 * be digits, so "-1" cannot wrap to 4294967295 and "abc" or "3x"
 * cannot silently become 0 or 3.
 */
uint64_t wholeNumber(const char *prog, const char *name,
                     const char *text, uint64_t lo, uint64_t hi);

} // namespace mpos::util

#endif // MPOS_UTIL_CLI_HH
