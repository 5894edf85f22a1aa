#include "vfs/path.hpp"

#include <gtest/gtest.h>

namespace iocov::vfs {
namespace {

TEST(SplitPath, BasicCases) {
    EXPECT_EQ(split_path("/a/b/c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split_path("a/b"), (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(split_path("/").empty());
    EXPECT_TRUE(split_path("").empty());
    EXPECT_TRUE(split_path("///").empty());
}

TEST(SplitPath, CollapsesDuplicateSlashes) {
    EXPECT_EQ(split_path("//a///b//"),
              (std::vector<std::string>{"a", "b"}));
}

TEST(SplitPath, KeepsDotComponents) {
    EXPECT_EQ(split_path("a//b/./.."),
              (std::vector<std::string>{"a", "b", ".", ".."}));
}

TEST(PathPredicates, AbsoluteAndTrailingSlash) {
    EXPECT_TRUE(is_absolute("/a"));
    EXPECT_FALSE(is_absolute("a"));
    EXPECT_FALSE(is_absolute(""));
    EXPECT_TRUE(has_trailing_slash("/a/"));
    EXPECT_TRUE(has_trailing_slash("a/"));
    EXPECT_FALSE(has_trailing_slash("/a"));
    EXPECT_FALSE(has_trailing_slash("/"));  // root is not "trailing"
}

TEST(JoinPath, Inverse) {
    EXPECT_EQ(split_path("/a/b"), (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(split_path("/").empty());
}

}  // namespace
}  // namespace iocov::vfs
