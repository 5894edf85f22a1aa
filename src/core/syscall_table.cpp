#include "core/syscall_table.hpp"

#include <stdexcept>

#include "abi/fcntl.hpp"

namespace iocov::core {
namespace {

/// The argument a variant implies rather than carries, in static
/// storage; nullptr for variants that carry all their arguments.
const trace::Arg* implied_variant_arg(std::string_view variant) {
    // creat(path, mode) == open(path, O_CREAT|O_WRONLY|O_TRUNC, mode).
    static const trace::Arg kCreatFlags{
        "flags", trace::ArgValue{std::uint64_t{abi::O_CREAT | abi::O_WRONLY |
                                               abi::O_TRUNC}}};
    // fchdir's directory identifier arrives as an fd, not a pathname.
    static const trace::Arg kFchdirPath{
        "pathname", trace::ArgValue{std::string("<via-fd>")}};
    if (variant == "creat") return &kCreatFlags;
    if (variant == "fchdir") return &kFchdirPath;
    // openat2: mode/flags already present under the canonical names.
    return nullptr;
}

}  // namespace

SyscallTable::SyscallTable(const std::vector<SyscallSpec>& registry)
    : registry_(&registry) {
    // The filter's codes come first, in trace::FilterKey order.
    for (const char* key : {"pathname", "dfd", "fd"}) key_code(key);
    arg_offset_.reserve(registry.size() + 1);
    std::size_t slot = 0;
    for (SyscallId id = 0; id < registry.size(); ++id) {
        const auto& spec = registry[id];
        arg_offset_.push_back(slot);
        slot += spec.args.size();
        for (const auto& arg : spec.args)
            slot_key_.push_back(key_code(arg.key));
        for (const auto& variant : spec.variants) {
            Binding& b = names_[variant].binding;
            b.tracked = true;
            b.id = id;
            b.spec = &spec;
            b.implied = implied_variant_arg(variant);
            if (b.implied) b.implied_key = key_code(b.implied->name);
        }
    }
    arg_offset_.push_back(slot);
    for (const auto& [name, role] : trace::syscall_roles())
        names_[std::string(name)].binding.role = role;
}

SyscallTable::KeyCode SyscallTable::key_code(const std::string& key) {
    NameEntry& entry = names_[key];
    if (entry.key == kNoKey) {
        if (next_key_ == kNoKey)
            throw std::length_error("SyscallTable: too many argument names");
        entry.key = next_key_++;
    }
    return entry.key;
}

SyscallTable::FileBinding SyscallTable::bind_file(
    const std::vector<std::string_view>& strings) const {
    FileBinding out;
    out.names.reserve(strings.size());
    out.keys.reserve(strings.size());
    bind_more(out, strings);
    return out;
}

void SyscallTable::bind_more(
    FileBinding& file, const std::vector<std::string_view>& strings) const {
    for (std::size_t i = file.names.size(); i < strings.size(); ++i) {
        auto it = names_.find(strings[i]);
        if (it == names_.end()) {
            file.names.emplace_back();
            file.keys.push_back(kNoKey);
        } else {
            file.names.push_back(it->second.binding);
            file.keys.push_back(it->second.key);
        }
    }
}

}  // namespace iocov::core
