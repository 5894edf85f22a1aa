// Interned syscall registry lookup for the analyzer hot path.
//
// The registry is a vector of specs; scanning it per traced event would
// be too slow.  A SyscallTable resolves the registry once into dense
// indices:
//
//   * every base syscall gets a SyscallId (its registry index),
//   * every tracked argument gets a flat "arg slot" (bases contribute
//     their args in registry order, matching CoverageReport::inputs),
//   * every variant name maps, via one hash lookup, to its base's spec,
//     id, and implied argument.
//
// This is the one variant resolver.  open/openat/creat/openat2 (and the
// other variant families) share a kernel implementation, so IOCov merges
// their input and output spaces: resolve() maps a raw trace event onto
// its base syscall as a CanonicalView, which fills in the argument a
// variant expresses implicitly — creat(2) implies
// O_CREAT|O_WRONLY|O_TRUNC, and fchdir(2) changes directory "via fd"
// rather than via a pathname.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/syscall_spec.hpp"
#include "trace/event.hpp"

namespace iocov::core {

/// A trace event resolved onto its base syscall without copying it: the
/// view references the original event and patches in at most the
/// variant's implied argument.  Valid while the event is alive (spec
/// and implied argument point into static registry storage).
struct CanonicalView {
    const SyscallSpec* spec = nullptr;      ///< base syscall spec
    std::size_t id = 0;                     ///< dense registry index
    const trace::TraceEvent* event = nullptr;
    const trace::Arg* implied = nullptr;    ///< variant's implied arg

    /// Tracked-argument lookup: the event's own args win, the implied
    /// arg fills the gap.  Returns a pointer instead of a copy (ArgValue
    /// may hold a std::string).
    const trace::ArgValue* find(std::string_view key) const {
        if (const trace::Arg* a = event->find_arg(key)) return &a->value;
        if (implied && implied->name == key) return &implied->value;
        return nullptr;
    }

    /// find() with a positional hint: traced args arrive in prototype
    /// order, so checking event->args[hint] first turns the common case
    /// into a single string compare instead of a scan.
    const trace::ArgValue* find_hinted(std::string_view key,
                                       std::size_t hint) const {
        if (hint < event->args.size() && event->args[hint].name == key)
            return &event->args[hint].value;
        return find(key);
    }
};

/// Dense index of a base syscall within its registry.
using SyscallId = std::size_t;

class SyscallTable {
  public:
    /// `registry` must outlive the table (registries are static in
    /// practice; a custom one must outlive any Analyzer built on it).
    explicit SyscallTable(const std::vector<SyscallSpec>& registry);

    const std::vector<SyscallSpec>& registry() const { return *registry_; }
    std::size_t base_count() const { return registry_->size(); }

    /// First flat arg slot of base `id`; its args occupy
    /// [arg_offset(id), arg_offset(id) + spec.args.size()).
    std::size_t arg_offset(SyscallId id) const { return arg_offset_[id]; }

    /// Total tracked arguments across the registry (== the size of
    /// CoverageReport::inputs built from it).
    std::size_t arg_slot_count() const { return arg_offset_.back(); }

    /// Resolves one event onto its base syscall without copying it;
    /// nullopt for untracked syscalls.  One hash lookup per event.
    std::optional<CanonicalView> resolve(const trace::TraceEvent& event) const {
        auto it = variants_.find(event.syscall);
        if (it == variants_.end()) return std::nullopt;
        const VariantEntry& ve = it->second;
        return CanonicalView{&(*registry_)[ve.id], ve.id, &event, ve.implied};
    }

    /// A variant name resolved ahead of time.  The binary pipeline
    /// interns syscall names in its string table, so it resolves each
    /// *name* once per trace file (bind) instead of hashing once per
    /// event (resolve); `tracked == false` marks untracked names.
    struct Binding {
        bool tracked = false;
        SyscallId id = 0;
        const SyscallSpec* spec = nullptr;
        const trace::Arg* implied = nullptr;
    };

    Binding bind(std::string_view variant_name) const {
        auto it = variants_.find(variant_name);
        if (it == variants_.end()) return {};
        const VariantEntry& ve = it->second;
        return {true, ve.id, &(*registry_)[ve.id], ve.implied};
    }

    /// Dense binding for a whole IOCT string table: out[i] ==
    /// bind(strings[i]).  The batched decoder then resolves each event
    /// by plain vector index on its interned name id — zero hashing per
    /// event.
    std::vector<Binding> bind_all(
        const std::vector<std::string_view>& strings) const {
        std::vector<Binding> out;
        out.reserve(strings.size());
        for (const auto sv : strings) out.push_back(bind(sv));
        return out;
    }

    /// The view `resolve(event)` would produce, given the event's name
    /// was pre-bound.  `binding` must be tracked and come from this
    /// table; `event.syscall` must equal the bound name.
    static CanonicalView view(const Binding& binding,
                              const trace::TraceEvent& event) {
        return CanonicalView{binding.spec, binding.id, &event,
                             binding.implied};
    }

  private:
    struct VariantEntry {
        SyscallId id = 0;
        const trace::Arg* implied = nullptr;  // static storage
    };

    /// Transparent hash so bind() takes string_views (string-table
    /// entries aliasing an mmap) without a temporary std::string.
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };

    const std::vector<SyscallSpec>* registry_;
    std::unordered_map<std::string, VariantEntry, NameHash, std::equal_to<>>
        variants_;
    std::vector<std::size_t> arg_offset_;  // base_count() + 1 entries
};

}  // namespace iocov::core
