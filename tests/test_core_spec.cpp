// Syscall registry + variant handler.
#include <gtest/gtest.h>

#include "abi/fcntl.hpp"
#include "core/syscall_spec.hpp"
#include "core/syscall_table.hpp"

namespace iocov::core {
namespace {

TEST(SyscallSpec, PaperTotals) {
    // "27 syscalls, including 11 base syscalls ... 14 distinct arguments"
    EXPECT_EQ(syscall_registry().size(), 11u);
    EXPECT_EQ(tracked_variant_count(), 27u);
    EXPECT_EQ(tracked_argument_count(), 14u);
}

TEST(SyscallSpec, ElevenBaseSyscallsMatchThePaperList) {
    const std::vector<std::string> expected = {
        "open",  "read",  "write", "lseek",    "truncate", "mkdir",
        "chmod", "close", "chdir", "setxattr", "getxattr"};
    ASSERT_EQ(syscall_registry().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(syscall_registry()[i].base, expected[i]);
}

const SyscallTable& paper_table() {
    static const SyscallTable kTable(syscall_registry());
    return kTable;
}

/// The spec a syscall name binds to in the paper's registry; nullptr
/// for untracked names.
const SyscallSpec* spec_of(const char* name) {
    return paper_table().bind(name).spec;
}

TEST(SyscallSpec, VariantLookup) {
    EXPECT_EQ(spec_of("openat2")->base, "open");
    EXPECT_EQ(spec_of("creat")->base, "open");
    EXPECT_EQ(spec_of("pwrite64")->base, "write");
    EXPECT_EQ(spec_of("fchdir")->base, "chdir");
    EXPECT_EQ(spec_of("lgetxattr")->base, "getxattr");
    EXPECT_FALSE(paper_table().bind("rename").tracked);
    EXPECT_FALSE(paper_table().bind("fsync").tracked);
}

TEST(SyscallSpec, FindSpecAndErrorLists) {
    const auto* open_spec = spec_of("open");
    ASSERT_NE(open_spec, nullptr);
    EXPECT_EQ(open_spec->errors.size(), 27u);  // Fig. 4's 27 error codes
    EXPECT_EQ(open_spec->success, SuccessKind::NewFd);
    const auto* write_spec = spec_of("write");
    EXPECT_EQ(write_spec->success, SuccessKind::ByteCount);
    EXPECT_EQ(spec_of("bogus"), nullptr);
}

TEST(SyscallSpec, ArgClassesMatchThePaperTaxonomy) {
    auto cls_of = [](const char* base, const char* key) {
        for (const auto& a : spec_of(base)->args)
            if (a.key == key) return a.cls;
        return ArgClass::Identifier;
    };
    EXPECT_EQ(cls_of("open", "flags"), ArgClass::Bitmap);
    EXPECT_EQ(cls_of("open", "mode"), ArgClass::Bitmap);
    EXPECT_EQ(cls_of("write", "count"), ArgClass::Numeric);
    EXPECT_EQ(cls_of("lseek", "whence"), ArgClass::Categorical);
    EXPECT_EQ(cls_of("close", "fd"), ArgClass::Identifier);
    EXPECT_EQ(cls_of("chdir", "pathname"), ArgClass::Identifier);
    EXPECT_EQ(cls_of("setxattr", "flags"), ArgClass::Categorical);
}

trace::TraceEvent make_event(const char* syscall) {
    trace::TraceEvent ev;
    ev.syscall = syscall;
    ev.ret = 0;
    return ev;
}

TEST(VariantHandler, MapsVariantsToBases) {
    const auto ev = make_event("pread64");
    const auto view = paper_table().resolve(ev);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->spec->base, "read");
    EXPECT_EQ(view->event->syscall, "pread64");
}

TEST(VariantHandler, UntrackedSyscallsReturnNullopt) {
    EXPECT_FALSE(paper_table().resolve(make_event("rename")).has_value());
    EXPECT_FALSE(paper_table().resolve(make_event("fsync")).has_value());
    EXPECT_FALSE(paper_table().resolve(make_event("")).has_value());
}

TEST(VariantHandler, CreatSynthesizesImplicitFlags) {
    auto ev = make_event("creat");
    ev.args = {{"pathname", trace::ArgValue{std::string("/mnt/test/f")}},
               {"mode", trace::ArgValue{std::uint64_t{0644}}}};
    const auto view = paper_table().resolve(ev);
    ASSERT_TRUE(view.has_value());
    const auto* flags = view->find("flags");
    ASSERT_NE(flags, nullptr);
    EXPECT_EQ(std::get<std::uint64_t>(*flags),
              abi::O_CREAT | abi::O_WRONLY | abi::O_TRUNC);
}

TEST(VariantHandler, FchdirSynthesizesViaFdIdentifier) {
    auto ev = make_event("fchdir");
    ev.args = {{"fd", trace::ArgValue{std::int64_t{5}}}};
    const auto view = paper_table().resolve(ev);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->spec->base, "chdir");
    const auto* path = view->find("pathname");
    ASSERT_NE(path, nullptr);
    EXPECT_EQ(std::get<std::string>(*path), "<via-fd>");
}

TEST(VariantHandler, ArgLookupFallsThroughToOriginalArgs) {
    auto ev = make_event("write");
    ev.args = {{"fd", trace::ArgValue{std::int64_t{4}}},
               {"count", trace::ArgValue{std::uint64_t{512}}}};
    const auto view = paper_table().resolve(ev);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(std::get<std::uint64_t>(*view->find("count")), 512u);
    EXPECT_EQ(view->find("missing"), nullptr);
}

}  // namespace
}  // namespace iocov::core
