// Pins the standard output of a command: its length in bytes and its
// FNV-1a-64, the way tests/test_format_bytes.cpp pins encodings.
//
//   stdout_pin LENGTH FNV_HEX COMMAND [ARG...]
//
// Runs COMMAND, reads all it prints, and exits 0 only when it exited 0
// and its output matches both pins.  Either way it prints the measured
// pair, so a deliberate change of the output is re-pinned by copying
// that line.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "trace/detail/wire.hpp"

int main(int argc, char** argv) {
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: stdout_pin LENGTH FNV_HEX COMMAND [ARG...]\n");
        return 2;
    }
    const auto want_length = std::strtoull(argv[1], nullptr, 10);
    const auto want_fnv = std::strtoull(argv[2], nullptr, 16);

    int fds[2];
    if (::pipe(fds) != 0) {
        std::perror("pipe");
        return 2;
    }
    const pid_t child = ::fork();
    if (child < 0) {
        std::perror("fork");
        return 2;
    }
    if (child == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execvp(argv[3], argv + 3);
        std::perror(argv[3]);
        std::_Exit(127);
    }
    ::close(fds[1]);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n > 0) out.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR) break;
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
    }

    const auto fnv = iocov::trace::detail::fnv1a64(out);
    std::printf("%s: %zu bytes, fnv 0x%016llx\n", argv[3], out.size(),
                static_cast<unsigned long long>(fnv));
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::printf("%s did not exit 0 (status %d); its output:\n%s",
                    argv[3], status, out.c_str());
        return 1;
    }
    if (out.size() != want_length || fnv != want_fnv) {
        std::printf("pinned: %llu bytes, fnv 0x%016llx; its output:\n%s",
                    static_cast<unsigned long long>(want_length),
                    static_cast<unsigned long long>(want_fnv), out.c_str());
        return 1;
    }
    return 0;
}
