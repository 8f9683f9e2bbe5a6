#include "util/cli.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace mpos::util
{

uint64_t
wholeNumber(const char *prog, const char *name, const char *text,
            uint64_t lo, uint64_t hi)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v =
        std::isdigit((unsigned char)text[0])
            ? std::strtoull(text, &end, 10)
            : 0;
    if (!end || *end || errno || v < lo || v > hi) {
        std::fprintf(stderr,
                     "%s: %s wants a whole number from %llu to %llu, "
                     "got '%s'\n",
                     prog, name, (unsigned long long)lo,
                     (unsigned long long)hi, text);
        std::exit(2);
    }
    return v;
}

} // namespace mpos::util
