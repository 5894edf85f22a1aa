// Diffing, two flavours:
//
//  * Coverage diffing — compare two CoverageReports (e.g. two versions
//    of a test suite) and classify every changed partition.  This is
//    the regression-gate workflow: a partition whose coverage drops to
//    zero is a lost test.
//
//  * State diffing — compare two file-system state snapshots keyed by
//    path.  This is the crash-consistency oracle primitive: the
//    expected side lists facts that must have survived a crash, the
//    actual side is the recovered state, and every divergence is
//    classified (data loss, metadata loss, missing file, ...).  The
//    snapshot type is deliberately VFS-agnostic (paths, hashes and
//    plain integers) so core does not depend on vfs; testers/crash
//    provides the VFS -> StateSnapshot bridge.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/coverage.hpp"

namespace iocov::core {

struct CoverageDelta {
    enum class Kind : std::uint8_t {
        Lost,      ///< tested before, untested now
        Gained,    ///< untested before, tested now
        Decreased, ///< still tested but count fell below the threshold
        Increased, ///< count grew beyond the threshold
    };
    Kind kind = Kind::Lost;
    bool is_input = true;
    std::string base;
    std::string arg;        ///< empty for outputs
    std::string partition;
    std::uint64_t before = 0;
    std::uint64_t after = 0;
};

struct DiffOptions {
    /// Relative change (fraction) below which count movements are
    /// ignored; 0.5 means report only >50% swings.
    double ratio_threshold = 0.5;
};

/// All deltas from `before` to `after`, losses first.
std::vector<CoverageDelta> diff_reports(const CoverageReport& before,
                                        const CoverageReport& after,
                                        const DiffOptions& options = {});

/// True if `after` regresses `before`: some partition was lost.
bool has_coverage_regression(const CoverageReport& before,
                             const CoverageReport& after);

std::string delta_kind_name(CoverageDelta::Kind kind);

// ---- file-system state diffing ------------------------------------------

/// Everything the oracle asserts about one path.  Hashes stand in for
/// full contents so snapshots stay cheap to copy and compare.
struct StateFact {
    enum class Type : std::uint8_t { File, Dir, Symlink, Special };
    Type type = Type::File;

    std::uint32_t mode = 0;  ///< full mode (type | perm bits)
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;

    std::uint64_t size = 0;
    std::uint64_t content_hash = 0;  ///< FNV-1a over file bytes (files)
    std::uint64_t xattr_hash = 0;    ///< FNV-1a over sorted (name, value)
    std::string symlink_target;

    /// Which fact aspects are guaranteed and therefore checked.  A
    /// crash oracle clears these selectively: data for files never
    /// synced, meta for facts invalidated by un-barriered tail effects.
    bool check_data = true;  ///< size + content_hash
    bool check_meta = true;  ///< mode/uid/gid/xattrs/symlink target
};

/// Path-keyed snapshot ("/" is the root); std::map keeps iteration —
/// and therefore every report derived from one — deterministic.
struct StateSnapshot {
    std::map<std::string, StateFact> entries;
};

/// One divergence between an expected and an actual snapshot.
struct StateDelta {
    enum class Kind : std::uint8_t {
        Missing,       ///< expected path absent from actual
        TypeMismatch,  ///< present but with a different file type
        DataLoss,      ///< size or content diverged
        MetadataLoss,  ///< mode/owner/xattr/symlink target diverged
        Extra,         ///< actual has a path expected lacks
    };
    Kind kind = Kind::Missing;
    std::string path;
    std::string detail;  ///< expected-vs-actual rendering
};

struct StateDiffOptions {
    /// Crash-oracle mode: paths present in `actual` but not in
    /// `expected` are fine (un-synced creations may survive a crash).
    /// Strict equality checks set this to false.
    bool allow_extra = true;
};

/// Compares actual against expected, path order (deterministic).
/// Facts whose check_data/check_meta flags are cleared in `expected`
/// have that aspect skipped.
std::vector<StateDelta> diff_states(const StateSnapshot& expected,
                                    const StateSnapshot& actual,
                                    const StateDiffOptions& options = {});

const char* state_delta_kind_name(StateDelta::Kind kind);
const char* state_fact_type_name(StateFact::Type type);

}  // namespace iocov::core
