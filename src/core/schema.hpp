// The coverage schema: every input and output space of a syscall
// registry, declared once (Section 3 of the paper).
//
// Each tracked argument is an input space, partitioned by its class:
//   bitmap      -> one partition per flag (plus combination statistics)
//   numeric     -> powers of two, with "=0" and "<0" boundary partitions
//   categorical -> one partition per legal value, plus an invalid one
//   identifier  -> structural classes (absolute/relative/.../via-fd for
//                  paths; stdio/valid/AT_FDCWD/invalid for fds)
// Each base syscall's return is an output space: success (split by
// powers of two when it returns a byte count or offset) vs. each
// documented error code.
//
// A value classifies into row indices of its space's declared block.
// Only a value outside it gets a label rendered: a numeric or "OK:"
// bucket above 2^32, or an errno the spec does not list.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/coverage.hpp"

namespace iocov::core {

/// The exponent ceiling for declared numeric partitions: the paper's
/// Fig. 3 x-axis runs 0..32 (4 GiB).  Larger observed values extend the
/// histogram dynamically.
inline constexpr unsigned kNumericDeclaredMaxExp = 32;

/// "A+B", the two open-flag names in lexicographic order: the row label
/// of one unordered flag pair.
std::string open_flag_pair_label(std::string_view a, std::string_view b);

/// Immutable, so one per registry is shared by every analyzer.
class Schema {
  public:
    /// The schema of `registry`.  Each built-in registry has one, built
    /// on first use; any other registry gets a new one, which must not
    /// outlive it.
    static std::shared_ptr<const Schema> of(
        const std::vector<SyscallSpec>& registry);

    explicit Schema(const std::vector<SyscallSpec>& registry);

    const SyscallTable& table() const { return table_; }

    /// Every space declared at count zero: an analyzer starts from a
    /// copy.  inputs[slot] and outputs[id] follow the table's numbering.
    const CoverageReport& empty_report() const { return empty_; }

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// The declared rows one input value lands in (bitmaps and paths
    /// may land in several).
    struct Hits {
        std::array<std::uint16_t, 24> rows{};
        std::size_t n = 0;
        /// Also lands under undeclared_input_label() (numeric > 2^32).
        bool undeclared = false;
    };
    Hits classify_input(std::size_t slot, const trace::ArgView& value) const;
    static std::string undeclared_input_label(const trace::ArgView& value);

    /// The declared row of `ret` in base `id`'s output space, or npos:
    /// then it lands under undeclared_output_label().
    std::size_t classify_output(SyscallId id, std::int64_t ret) const;
    static std::string undeclared_output_label(std::int64_t ret);

    /// Open-flag combination statistics: the open/flags slot (npos if
    /// untracked), O_RDONLY's row and the row of a call combining
    /// `flags` flags (1..6, then one row for 7 or more).
    std::size_t open_flags_slot() const { return open_flags_slot_; }
    std::uint16_t rdonly_row() const { return rdonly_row_; }
    static std::size_t cardinality_row(std::size_t flags);

    /// Open-flag pairs are counted by cell: the unordered pair of flag
    /// rows a != b has one cell in [0, pair_cells()), whatever the
    /// argument order, and pair_label(cell) is its "A+B" row label.
    std::size_t pair_cells() const { return flag_count_ * flag_count_; }
    /// The open-flag rows (declared rows of the open/flags space).
    std::size_t flag_rows() const { return flag_count_; }
    std::size_t pair_cell(std::size_t a, std::size_t b) const {
        return a < b ? a * flag_count_ + b : b * flag_count_ + a;
    }
    const std::string& pair_label(std::size_t cell) const {
        return pair_labels_[cell];
    }

    /// How an input space partitions: its ArgClass, refined by base/key.
    enum class Family : std::uint8_t {
        OpenFlags, ModeBits, Numeric, Whence, XattrFlags, Fd, Path
    };

  private:
    struct OutputSpace {
        bool sized = false;  ///< success split by powers of two
        std::vector<std::size_t> err_row;  ///< by errno; npos: undeclared
    };

    SyscallTable table_;
    CoverageReport empty_;
    std::vector<Family> inputs_;        // per arg slot
    std::vector<OutputSpace> outputs_;  // per SyscallId
    std::size_t open_flags_slot_ = npos;
    std::uint16_t rdonly_row_ = 0;
    std::size_t flag_count_ = 0;
    std::vector<std::string> pair_labels_;  // flag_count_^2, symmetric
};

}  // namespace iocov::core
