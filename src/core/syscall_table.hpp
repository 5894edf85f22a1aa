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
#include "trace/filter.hpp"

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
        const Binding b = bind(event.syscall);
        if (!b.tracked) return std::nullopt;
        return view(b, event);
    }

    /// Code of an argument name the filter or the analyzer reads: the
    /// filter's three (trace::FilterKey) first, then every tracked and
    /// implied argument name.  kNoKey marks any other name.
    using KeyCode = trace::KeyCode;
    static constexpr KeyCode kNoKey = trace::kNoKey;

    /// The code of the key of flat arg slot `slot`.
    KeyCode slot_key(std::size_t slot) const { return slot_key_[slot]; }

    /// A syscall name resolved ahead of time.  The binary pipeline
    /// interns syscall names in its string table, so it resolves each
    /// *name* once per trace file (bind_file) instead of hashing once
    /// per event (resolve); `tracked == false` marks untracked names,
    /// which still carry their filter role.
    struct Binding {
        bool tracked = false;
        trace::SyscallRole role = trace::SyscallRole::Other;
        KeyCode implied_key = kNoKey;  ///< code of `implied`'s name
        SyscallId id = 0;
        const SyscallSpec* spec = nullptr;
        const trace::Arg* implied = nullptr;
    };

    Binding bind(std::string_view name) const {
        auto it = names_.find(name);
        return it == names_.end() ? Binding{} : it->second.binding;
    }

    /// One IOCT string table resolved at once: names[i] == bind(strings[i])
    /// and keys[i] is the code of strings[i] as an argument name.  The
    /// keyed trace::decode_batch stamps each argument with keys[id], so
    /// the row loop resolves a row's syscall by plain vector index on
    /// its interned id and finds its arguments by code — zero hashing
    /// per event.  A code per string, not one id per name, keeps a table
    /// that interns a string twice exact.
    struct FileBinding {
        std::vector<Binding> names;
        std::vector<KeyCode> keys;
    };
    FileBinding bind_file(const std::vector<std::string_view>& strings) const;

    /// Extends `file` over the entries of `strings` past the ones it
    /// already binds, one lookup per new string: a table read a window
    /// at a time (trace::IoctReader) stays bound as it grows.
    void bind_more(FileBinding& file,
                   const std::vector<std::string_view>& strings) const;

    /// bind_file(strings).names: the bindings alone, for callers that
    /// look arguments up by name (perfbench's traced replay).
    std::vector<Binding> bind_all(
        const std::vector<std::string_view>& strings) const {
        return bind_file(strings).names;
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
    struct NameEntry {
        Binding binding;
        KeyCode key = kNoKey;
    };

    /// Transparent hash so bind() takes string_views (string-table
    /// entries aliasing an mmap) without a temporary std::string.
    struct NameHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };

    /// The code of argument name `key`, assigned on first use.
    KeyCode key_code(const std::string& key);

    const std::vector<SyscallSpec>* registry_;
    /// Every name a binding or key code resolves: variants, role names
    /// and argument names.
    std::unordered_map<std::string, NameEntry, NameHash, std::equal_to<>>
        names_;
    std::vector<std::size_t> arg_offset_;  // base_count() + 1 entries
    std::vector<KeyCode> slot_key_;        // per flat arg slot
    KeyCode next_key_ = 0;
};

}  // namespace iocov::core
