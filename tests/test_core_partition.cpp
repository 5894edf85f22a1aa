// Input/output partitioning through the coverage schema.
#include <gtest/gtest.h>

#include "abi/fcntl.hpp"
#include "abi/seek.hpp"
#include "abi/xattr.hpp"
#include "core/schema.hpp"

namespace iocov::core {
namespace {

using trace::ArgValue;

const Schema& paper() { return *Schema::of(syscall_registry()); }

std::size_t slot_of(const char* base, const char* key) {
    const auto& table = paper().table();
    const auto b = table.bind(base);
    for (std::size_t i = 0; b.tracked && i < b.spec->args.size(); ++i)
        if (b.spec->args[i].key == key) return table.arg_offset(b.id) + i;
    ADD_FAILURE() << base << "/" << key;
    return Schema::npos;
}

/// The declared labels of input space (base, key), in row order.
std::vector<std::string> declared(const char* base, const char* key) {
    std::vector<std::string> out;
    for (const auto& row :
         paper().empty_report().inputs[slot_of(base, key)].hist.rows())
        out.push_back(row.label);
    return out;
}

/// The labels `value` lands in, in classification order.
std::vector<std::string> labels(const char* base, const char* key,
                                const ArgValue& value) {
    const std::size_t slot = slot_of(base, key);
    const auto hits = paper().classify_input(slot, value);
    const auto& rows = paper().empty_report().inputs[slot].hist.rows();
    std::vector<std::string> out;
    for (std::size_t i = 0; i < hits.n; ++i)
        out.push_back(rows[hits.rows[i]].label);
    if (hits.undeclared) out.push_back(Schema::undeclared_input_label(value));
    return out;
}

/// A one-syscall registry whose output space is (success, errors).
std::vector<SyscallSpec> one_output(SuccessKind success,
                                    std::vector<abi::Err> errors) {
    return {{"mkdir", {"mkdir"}, {}, success, std::move(errors)}};
}

std::vector<std::string> output_declared(const Schema& s) {
    std::vector<std::string> out;
    for (const auto& row : s.empty_report().outputs[0].hist.rows())
        out.push_back(row.label);
    return out;
}

std::string output_label(const Schema& s, std::int64_t ret) {
    const std::size_t row = s.classify_output(0, ret);
    if (row == Schema::npos) return Schema::undeclared_output_label(ret);
    return s.empty_report().outputs[0].hist.rows()[row].label;
}

TEST(OpenFlagsPartitioner, DeclaresFig2AxisAndDecomposes) {
    EXPECT_EQ(declared("open", "flags").size(), 20u);
    EXPECT_EQ(labels("open", "flags",
                     ArgValue{std::uint64_t{abi::O_WRONLY | abi::O_CREAT |
                                            abi::O_TRUNC}}),
              (std::vector<std::string>{"O_WRONLY", "O_CREAT", "O_TRUNC"}));
}

TEST(ModeBitsPartitioner, PerBitLabels) {
    EXPECT_EQ(declared("chmod", "mode").size(), 13u);  // 12 bits + "none"
    EXPECT_EQ(labels("chmod", "mode", ArgValue{std::uint64_t{0640}}),
              (std::vector<std::string>{"S_IRUSR", "S_IWUSR", "S_IRGRP"}));
    EXPECT_EQ(labels("chmod", "mode", ArgValue{std::uint64_t{0}}),
              std::vector<std::string>{"none"});
    EXPECT_EQ(labels("chmod", "mode", ArgValue{std::uint64_t{04000}}),
              std::vector<std::string>{"S_ISUID"});
}

TEST(NumericPartitioner, DeclaresBoundariesAndBuckets) {
    const auto d = declared("write", "count");
    // "<0", "=0", 2^0..2^32 (the Fig. 3 x-axis).
    EXPECT_EQ(d.size(), 2u + kNumericDeclaredMaxExp + 1);
    EXPECT_EQ(d[0], "<0");
    EXPECT_EQ(d[1], "=0");
    EXPECT_EQ(labels("write", "count", ArgValue{std::uint64_t{0}}),
              std::vector<std::string>{"=0"});
    EXPECT_EQ(labels("write", "count", ArgValue{std::int64_t{-7}}),
              std::vector<std::string>{"<0"});
    EXPECT_EQ(labels("write", "count", ArgValue{std::uint64_t{1500}}),
              std::vector<std::string>{"2^10"});
    // Above the declared ceiling the bucket label is rendered.
    EXPECT_EQ(labels("write", "count", ArgValue{std::uint64_t{1} << 40}),
              std::vector<std::string>{"2^40"});
}

TEST(WhencePartitioner, NamedValuesPlusInvalid) {
    EXPECT_EQ(declared("lseek", "whence").size(), 6u);
    EXPECT_EQ(labels("lseek", "whence", ArgValue{std::int64_t{abi::SEEK_END_}}),
              std::vector<std::string>{"SEEK_END"});
    EXPECT_EQ(labels("lseek", "whence", ArgValue{std::int64_t{42}}),
              std::vector<std::string>{"INVALID"});
}

TEST(XattrFlagsPartitioner, CategoricalValues) {
    auto l = [](std::int64_t v) {
        return labels("setxattr", "flags", ArgValue{v});
    };
    EXPECT_EQ(l(0), std::vector<std::string>{"0"});
    EXPECT_EQ(l(abi::XATTR_CREATE_), std::vector<std::string>{"XATTR_CREATE"});
    EXPECT_EQ(l(3), std::vector<std::string>{"INVALID"});
}

TEST(FdPartitioner, IdentifierClasses) {
    auto l = [](std::int64_t v) { return labels("close", "fd", ArgValue{v}); };
    EXPECT_EQ(l(0), std::vector<std::string>{"stdio(0-2)"});
    EXPECT_EQ(l(7), std::vector<std::string>{"valid(>=3)"});
    EXPECT_EQ(l(5000), std::vector<std::string>{"large(>=1024)"});
    EXPECT_EQ(l(-1), std::vector<std::string>{"minus-one"});
    EXPECT_EQ(l(abi::AT_FDCWD), std::vector<std::string>{"AT_FDCWD"});
    EXPECT_EQ(l(-7), std::vector<std::string>{"other-negative"});
}

TEST(PathPartitioner, StructuralClasses) {
    auto l = [](const std::string& s) {
        return labels("chdir", "pathname", ArgValue{s});
    };
    EXPECT_EQ(l("/mnt/test"), std::vector<std::string>{"absolute"});
    EXPECT_EQ(l("sub"), std::vector<std::string>{"relative"});
    EXPECT_EQ(l("."), (std::vector<std::string>{"dot", "relative"}));
    EXPECT_EQ(l(".."), (std::vector<std::string>{"dotdot", "relative"}));
    EXPECT_EQ(l("/a/"),
              (std::vector<std::string>{"absolute", "trailing-slash"}));
    EXPECT_EQ(l("<via-fd>"), std::vector<std::string>{"via-fd"});
    EXPECT_EQ(l("<fault>"), std::vector<std::string>{"faulting"});
    EXPECT_EQ(l(""), std::vector<std::string>{"empty"});
    auto ll = l("/" + std::string(300, 'x'));
    EXPECT_NE(std::find(ll.begin(), ll.end(), "name-max"), ll.end());
    ll = l(std::string(5000, 'y'));
    EXPECT_NE(std::find(ll.begin(), ll.end(), "path-max"), ll.end());
}

TEST(OutputPartitioner, UnitSuccessIsJustOk) {
    const auto reg =
        one_output(SuccessKind::Unit, {abi::Err::ENOENT_, abi::Err::EACCES_});
    const Schema s(reg);
    EXPECT_EQ(output_declared(s),
              (std::vector<std::string>{"OK", "ENOENT", "EACCES"}));
    EXPECT_EQ(output_label(s, 0), "OK");
    EXPECT_EQ(output_label(s, -2), "ENOENT");
}

TEST(OutputPartitioner, ByteCountSuccessSplitsByPow2) {
    const auto reg = one_output(SuccessKind::ByteCount, {abi::Err::EBADF_});
    const Schema s(reg);
    EXPECT_EQ(output_label(s, 0), "OK:=0");
    EXPECT_EQ(output_label(s, 4096), "OK:2^12");
    EXPECT_EQ(output_label(s, std::int64_t{1} << 40), "OK:2^40");
    EXPECT_EQ(output_label(s, -9), "EBADF");
    // Declared: =0 plus 2^0..2^32 plus the error.
    EXPECT_EQ(output_declared(s).size(), 1u + kNumericDeclaredMaxExp + 1 + 1);
}

TEST(OutputPartitioner, UndocumentedErrnoStillGetsALabel) {
    const auto reg = one_output(SuccessKind::Unit, {abi::Err::ENOENT_});
    const Schema s(reg);
    // An errno outside the declared list labels dynamically.
    EXPECT_EQ(output_label(s, -122), "EDQUOT");
    EXPECT_EQ(output_label(s, -4000), "E?4000");
    EXPECT_EQ(output_label(s, -4096), "E?>4095");
}

TEST(OutputPartitioner, RepeatedErrnoIsOneRow) {
    const auto reg = one_output(
        SuccessKind::Unit, {abi::Err::EIO_, abi::Err::EPERM_, abi::Err::EIO_});
    const Schema s(reg);
    EXPECT_EQ(output_declared(s),
              (std::vector<std::string>{"OK", "EIO", "EPERM"}));
    EXPECT_EQ(output_label(s, -5), "EIO");
    EXPECT_EQ(output_label(s, -1), "EPERM");
}

}  // namespace
}  // namespace iocov::core
