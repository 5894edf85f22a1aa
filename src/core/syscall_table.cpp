#include "core/syscall_table.hpp"

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
    arg_offset_.reserve(registry.size() + 1);
    std::size_t slot = 0;
    std::size_t variant_count = 0;
    for (const auto& spec : registry) variant_count += spec.variants.size();
    variants_.reserve(variant_count);
    for (SyscallId id = 0; id < registry.size(); ++id) {
        const auto& spec = registry[id];
        arg_offset_.push_back(slot);
        slot += spec.args.size();
        for (const auto& variant : spec.variants)
            variants_.emplace(variant,
                              VariantEntry{id, implied_variant_arg(variant)});
    }
    arg_offset_.push_back(slot);
}

}  // namespace iocov::core
