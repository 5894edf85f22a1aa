#include "trace/event.hpp"

namespace iocov::trace {

const Arg* TraceEvent::find_arg(std::string_view name) const {
    for (const auto& a : args)
        if (a.name == name) return &a;
    return nullptr;
}

std::optional<std::string> TraceEvent::str_arg(std::string_view name) const {
    const Arg* a = find_arg(name);
    if (!a) return std::nullopt;
    if (const auto* s = std::get_if<std::string>(&a->value)) return *s;
    return std::nullopt;
}

}  // namespace iocov::trace
