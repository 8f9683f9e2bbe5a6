/**
 * @file
 * `mpos_trace validate <file.json>`: check that a JSON report parses.
 *
 * The validator is the same minimal syntax checker the tests use to
 * keep the hand-written report JSON honest.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "util/json.hh"

namespace
{

int
usage()
{
    std::fprintf(stderr, "usage: mpos_trace validate <file.json>\n");
    return 2;
}

int
doValidate(const char *path)
{
    FILE *f = std::fopen(path, "rb");
    if (!f) {
        std::fprintf(stderr, "mpos_trace: cannot open %s\n", path);
        return 1;
    }
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    size_t at = 0;
    std::string err;
    if (!mpos::util::jsonValidate(text, &at, &err)) {
        std::fprintf(stderr, "mpos_trace: %s: invalid JSON at byte "
                             "%zu: %s\n",
                     path, at, err.c_str());
        return 1;
    }
    std::printf("%s: valid JSON (%zu bytes)\n", path, text.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 3 && std::strcmp(argv[1], "validate") == 0)
        return doValidate(argv[2]);
    return usage();
}
