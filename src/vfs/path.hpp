// Pathname decomposition helpers (pure string logic; resolution against
// the namespace lives in FileSystem).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace iocov::vfs {

/// Splits a pathname into components, dropping empty segments from
/// duplicate slashes.  "." and ".." are kept (resolution handles them).
/// "/" yields an empty vector; "a//b/./.." yields {"a","b",".",".."}.
std::vector<std::string> split_path(std::string_view path);

/// True if the path begins with '/'.
bool is_absolute(std::string_view path);

/// True if the path ends with '/' (forces directory semantics on the
/// final component, as the kernel's trailing-slash handling does).
bool has_trailing_slash(std::string_view path);

}  // namespace iocov::vfs
