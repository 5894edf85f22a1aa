// diff_states: the state-pair comparator the crash oracle is built on.
// Covers the canonical pairs — equal states, data loss (size and
// content), metadata loss (mode, owner, xattrs, symlink target), a
// spurious extra file under both allow_extra policies, missing entries,
// type mismatches — and the check_data/check_meta opt-outs.
#include "core/diff.hpp"

#include <gtest/gtest.h>

#include <string>

namespace iocov::core {
namespace {

StateFact file_fact(std::uint64_t size, std::uint64_t hash,
                    std::uint32_t mode = 0100644) {
    StateFact f;
    f.type = StateFact::Type::File;
    f.mode = mode;
    f.size = size;
    f.content_hash = hash;
    return f;
}

StateFact dir_fact(std::uint32_t mode = 040755) {
    StateFact f;
    f.type = StateFact::Type::Dir;
    f.mode = mode;
    return f;
}

StateSnapshot small_state() {
    StateSnapshot s;
    s.entries["/"] = dir_fact();
    s.entries["/d"] = dir_fact(040750);
    s.entries["/d/f"] = file_fact(100, 0xABCD);
    return s;
}

std::size_t count_kind(const std::vector<StateDelta>& deltas,
                       StateDelta::Kind kind) {
    std::size_t n = 0;
    for (const auto& d : deltas) n += d.kind == kind;
    return n;
}

TEST(StateDiff, EqualStatesProduceNoDeltas) {
    const auto a = small_state();
    const auto b = small_state();
    EXPECT_TRUE(diff_states(a, b).empty());
    EXPECT_TRUE(diff_states(a, b, {.allow_extra = false}).empty());
}

TEST(StateDiff, DataLossBySizeAndByContent) {
    const auto expected = small_state();
    auto shrunk = small_state();
    shrunk.entries["/d/f"].size = 40;  // torn tail lost bytes
    auto deltas = diff_states(expected, shrunk);
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].kind, StateDelta::Kind::DataLoss);
    EXPECT_EQ(deltas[0].path, "/d/f");

    auto rewritten = small_state();
    rewritten.entries["/d/f"].content_hash = 0x1234;  // same size, new bytes
    deltas = diff_states(expected, rewritten);
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].kind, StateDelta::Kind::DataLoss);
}

TEST(StateDiff, MetadataLossCombinesModeOwnerXattrsTarget) {
    auto expected = small_state();
    expected.entries["/d/f"].xattr_hash = 7;
    auto actual = small_state();
    actual.entries["/d/f"].mode = 0100600;
    actual.entries["/d/f"].uid = 1000;
    actual.entries["/d/f"].xattr_hash = 0;
    const auto deltas = diff_states(expected, actual);
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].kind, StateDelta::Kind::MetadataLoss);
    // All three divergences surface in one delta's detail.
    EXPECT_NE(deltas[0].detail.find("mode"), std::string::npos);
    EXPECT_NE(deltas[0].detail.find("owner"), std::string::npos);
    EXPECT_NE(deltas[0].detail.find("xattr"), std::string::npos);
}

TEST(StateDiff, SymlinkTargetLossIsMetadata) {
    StateSnapshot expected;
    expected.entries["/"] = dir_fact();
    expected.entries["/s"].type = StateFact::Type::Symlink;
    expected.entries["/s"].symlink_target = "/old";
    auto actual = expected;
    actual.entries["/s"].symlink_target = "/new";
    const auto deltas = diff_states(expected, actual);
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].kind, StateDelta::Kind::MetadataLoss);
}

TEST(StateDiff, MissingEntryAndTypeMismatch) {
    const auto expected = small_state();
    StateSnapshot actual;
    actual.entries["/"] = dir_fact();
    actual.entries["/d"] = file_fact(0, 0);  // was a dir
    auto deltas = diff_states(expected, actual);
    EXPECT_EQ(count_kind(deltas, StateDelta::Kind::TypeMismatch), 1u);
    EXPECT_EQ(count_kind(deltas, StateDelta::Kind::Missing), 1u);
}

TEST(StateDiff, ExtraOnlyReportedWhenDisallowed) {
    const auto expected = small_state();
    auto actual = small_state();
    actual.entries["/d/ghost"] = file_fact(5, 1);
    EXPECT_TRUE(diff_states(expected, actual).empty());  // allow_extra
    const auto strict = diff_states(expected, actual, {.allow_extra = false});
    ASSERT_EQ(strict.size(), 1u);
    EXPECT_EQ(strict[0].kind, StateDelta::Kind::Extra);
    EXPECT_EQ(strict[0].path, "/d/ghost");
}

TEST(StateDiff, CheckFlagsSuppressInvalidatedFacts) {
    auto expected = small_state();
    auto actual = small_state();
    actual.entries["/d/f"].content_hash = 0x9999;
    actual.entries["/d/f"].mode = 0100600;
    // A tail write / tail chmod invalidated both aspects: no deltas.
    expected.entries["/d/f"].check_data = false;
    expected.entries["/d/f"].check_meta = false;
    EXPECT_TRUE(diff_states(expected, actual).empty());
    // Data stays suppressed while metadata is re-armed.
    expected.entries["/d/f"].check_meta = true;
    const auto deltas = diff_states(expected, actual);
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].kind, StateDelta::Kind::MetadataLoss);
}

TEST(StateDiff, DeltaToStringNamesKindAndPath) {
    const auto expected = small_state();
    StateSnapshot actual;
    actual.entries["/"] = dir_fact();
    const auto deltas = diff_states(expected, actual);
    ASSERT_FALSE(deltas.empty());
    EXPECT_STREQ(state_delta_kind_name(deltas[0].kind), "missing");
    EXPECT_EQ(deltas[0].path, "/d");
}

}  // namespace
}  // namespace iocov::core
