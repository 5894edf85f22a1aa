#include "vfs/path.hpp"

namespace iocov::vfs {

std::vector<std::string> split_path(std::string_view path) {
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < path.size()) {
        while (i < path.size() && path[i] == '/') ++i;
        std::size_t j = i;
        while (j < path.size() && path[j] != '/') ++j;
        if (j > i) out.emplace_back(path.substr(i, j - i));
        i = j;
    }
    return out;
}

bool is_absolute(std::string_view path) {
    return !path.empty() && path.front() == '/';
}

bool has_trailing_slash(std::string_view path) {
    return path.size() > 1 && path.back() == '/';
}

}  // namespace iocov::vfs
