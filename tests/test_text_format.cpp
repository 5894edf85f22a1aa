#include "trace/text_format.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace iocov::trace {
namespace {

TraceEvent sample_event() {
    TraceEvent ev;
    ev.seq = 17;
    ev.pid = 1201;
    ev.tid = 1201;
    ev.syscall = "openat";
    ev.args = {{"dfd", ArgValue{std::int64_t{-100}}},
               {"pathname", ArgValue{std::string("/mnt/test/f0")}},
               {"flags", ArgValue{std::uint64_t{0241}}},
               {"mode", ArgValue{std::uint64_t{0644}}}};
    ev.ret = 3;
    return ev;
}

TEST(TextFormat, FormatsLttngStyleLine) {
    const auto line = format_event(sample_event());
    EXPECT_EQ(line,
              "[000000017] pid=1201 tid=1201 openat: dfd=-100, "
              "pathname=\"/mnt/test/f0\", flags=0xa1, mode=0x1a4 = 3");
}

TEST(TextFormat, RoundTripsSampleEvent) {
    const auto ev = sample_event();
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ev);
}

TEST(TextFormat, RoundTripsEventWithoutArgs) {
    TraceEvent ev;
    ev.seq = 1;
    ev.pid = 7;
    ev.tid = 7;
    ev.syscall = "sync";
    ev.ret = 0;
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ev);
}

TEST(TextFormat, RoundTripsNegativeReturn) {
    auto ev = sample_event();
    ev.ret = -2;  // -ENOENT
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->ret, -2);
}

TEST(TextFormat, EscapesSpecialCharactersInStrings) {
    TraceEvent ev;
    ev.syscall = "open";
    ev.args = {{"pathname",
                ArgValue{std::string("/mnt/test/we\"ird\\name\n\t")}}};
    ev.ret = -2;
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ev);
}

TEST(TextFormat, StringWithCommaAndEqualsSurvives) {
    TraceEvent ev;
    ev.syscall = "open";
    ev.args = {{"pathname", ArgValue{std::string("/mnt/a=b, c")}}};
    ev.ret = 4;
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ev);
}

TEST(TextFormat, ParserRejectsMalformedLines) {
    EXPECT_FALSE(parse_event(""));
    EXPECT_FALSE(parse_event("garbage"));
    EXPECT_FALSE(parse_event("[x] pid=1 tid=1 open: = 0"));
    EXPECT_FALSE(parse_event("[1] pid=1 tid=1 open: fd=notanumber = 0"));
    EXPECT_FALSE(parse_event("[1] pid=1 tid=1 open: fd=1"));  // no ret
    EXPECT_FALSE(parse_event("[1] pid=1 open: = 0"));         // no tid
    EXPECT_FALSE(
        parse_event("[1] pid=1 tid=1 open: = 0 trailing"));   // junk tail
}

TEST(TextFormat, ParserRejectsOverflowingNumericFields) {
    // Over-long numbers in a torn trace must drop the line, never wrap
    // into a plausible value.  2^64 and 2^64-flavored hex overflows:
    EXPECT_FALSE(
        parse_event("[18446744073709551616] pid=1 tid=1 open: = 0"));
    EXPECT_FALSE(parse_event("[1] pid=4294967296 tid=1 open: = 0"));
    EXPECT_FALSE(parse_event("[1] pid=1 tid=4294967296 open: = 0"));
    EXPECT_FALSE(parse_event(
        "[1] pid=1 tid=1 open: flags=0xffffffffffffffff1 = 0"));
    EXPECT_FALSE(parse_event(
        "[1] pid=1 tid=1 open: size=99999999999999999999999999 = 0"));
    EXPECT_FALSE(
        parse_event("[1] pid=1 tid=1 open: = 99999999999999999999"));
    // The extremes themselves still parse (no off-by-one rejection).
    const auto max_ok = parse_event(
        "[18446744073709551615] pid=4294967295 tid=4294967295 open: "
        "flags=0xffffffffffffffff = 0");
    ASSERT_TRUE(max_ok.has_value());
    EXPECT_EQ(max_ok->seq, std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(*uint_value(max_ok->find_arg("flags")->value),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(TextFormat, EveryTruncationOfAValidLineIsRejected) {
    const auto line = format_event(sample_event());
    for (std::size_t cut = 0; cut < line.size(); ++cut)
        EXPECT_FALSE(parse_event(line.substr(0, cut)))
            << "prefix of length " << cut << " parsed";
}

TEST(TextFormat, ParserRejectsUnterminatedString) {
    EXPECT_FALSE(
        parse_event("[1] pid=1 tid=1 open: pathname=\"/mnt = 0"));
}

TEST(TextFormat, StreamParsingSkipsCommentsAndCountsDrops) {
    std::stringstream ss;
    ss << "# a comment\n";
    ss << format_event(sample_event()) << "\n";
    ss << "torn line\n";
    ss << "\n";
    ss << format_event(sample_event()) << "\n";
    std::size_t dropped = 0;
    const auto events = parse_stream(ss, &dropped);
    EXPECT_EQ(events.size(), 2u);
    EXPECT_EQ(dropped, 1u);
}

TEST(TextFormat, DiagnosticsCarryLinePositionAndReason) {
    std::stringstream ss;
    ss << format_event(sample_event()) << "\n";    // line 1, ok
    ss << "# comment\n";                           // line 2, not a drop
    ss << "[x] broken\n";                          // line 3, drop
    ss << format_event(sample_event()) << "\n";    // line 4, ok
    ss << "another bad line\n";                    // line 5, drop
    const std::string text = ss.str();
    std::size_t dropped = 0;
    ParseDiagnostics diags;
    parse_stream(ss, &dropped, &diags);
    EXPECT_EQ(dropped, 2u);
    ASSERT_EQ(diags.entries().size(), 2u);
    EXPECT_EQ(diags.entries()[0].line, 3u);
    EXPECT_EQ(diags.entries()[0].excerpt, "[x] broken");
    EXPECT_EQ(diags.entries()[0].reason, "bad sequence number");
    EXPECT_EQ(diags.entries()[1].line, 5u);
    EXPECT_EQ(text.substr(static_cast<std::size_t>(
                              diags.entries()[1].offset),
                          16),
              "another bad line");
}

TEST(TextFormat, DiagnosticsRetainFirstKVerbatimAndCountTheRest) {
    std::stringstream ss;
    const std::size_t kBad = ParseDiagnostics::kDefaultMaxRetained + 4;
    for (std::size_t i = 0; i < kBad; ++i)
        ss << "bad line number " << i << "\n";
    std::size_t dropped = 0;
    ParseDiagnostics diags;
    parse_stream(ss, &dropped, &diags);
    EXPECT_EQ(dropped, kBad);
    EXPECT_EQ(diags.total(), kBad);
    ASSERT_EQ(diags.entries().size(), ParseDiagnostics::kDefaultMaxRetained);
    for (std::size_t i = 0; i < diags.entries().size(); ++i) {
        EXPECT_EQ(diags.entries()[i].line, i + 1);
        EXPECT_EQ(diags.entries()[i].excerpt,
                  "bad line number " + std::to_string(i));
    }
    EXPECT_NE(diags.to_string().find("and 4 more"), std::string::npos);
}

TEST(TextFormat, DiagnosticsClipLongExcerpts) {
    ParseDiagnostics diags;
    diags.record(1, 0, "why", std::string(1000, 'x'));
    ASSERT_EQ(diags.entries().size(), 1u);
    EXPECT_EQ(diags.entries()[0].excerpt.size(),
              ParseDiagnostics::kExcerptBytes);
}

TEST(TextFormat, DiagnosticsMergeRestoresInputOrder) {
    ParseDiagnostics a, b;
    a.record(10, 100, "r10");
    a.record(30, 300, "r30");
    b.record(20, 200, "r20");
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    ASSERT_EQ(a.entries().size(), 3u);
    EXPECT_EQ(a.entries()[0].reason, "r10");
    EXPECT_EQ(a.entries()[1].reason, "r20");
    EXPECT_EQ(a.entries()[2].reason, "r30");
}

TEST(TextFormat, ParseChunkPositionsDiagnosticsAbsolutely) {
    const std::string chunk = "bad one\nbad two\n";
    std::size_t dropped = 0;
    ParseDiagnostics diags;
    parse_chunk(chunk, &dropped, &diags, /*first_line=*/41,
                /*base_offset=*/5000);
    EXPECT_EQ(dropped, 2u);
    ASSERT_EQ(diags.entries().size(), 2u);
    EXPECT_EQ(diags.entries()[0].line, 41u);
    EXPECT_EQ(diags.entries()[0].offset, 5000u);
    EXPECT_EQ(diags.entries()[1].line, 42u);
    EXPECT_EQ(diags.entries()[1].offset, 5008u);
}

TEST(EscapeString, InverseOfUnescape) {
    const std::string raw = "a\"b\\c\nd\te";
    const auto unescaped = unescape_string(escape_string(raw));
    ASSERT_TRUE(unescaped.has_value());
    EXPECT_EQ(*unescaped, raw);
}

TEST(UnescapeString, RejectsBadEscapes) {
    EXPECT_FALSE(unescape_string("trailing\\"));
    EXPECT_FALSE(unescape_string("bad\\q"));
}

// Property: round-trip holds across arg-type combinations.
struct RoundTripCase {
    const char* name;
    ArgValue value;
};

// Print a case by its arg name. Without this gtest prints the raw struct
// bytes, which hold a pointer, so the discovered test names would change
// on every run.
void PrintTo(const RoundTripCase& c, std::ostream* os) { *os << c.name; }

class TextRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(TextRoundTrip, SingleArgRoundTrips) {
    TraceEvent ev;
    ev.seq = 99;
    ev.pid = 1;
    ev.tid = 2;
    ev.syscall = "probe";
    ev.args = {{GetParam().name, GetParam().value}};
    ev.ret = -22;
    const auto parsed = parse_event(format_event(ev));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, ev);
}

INSTANTIATE_TEST_SUITE_P(
    Values, TextRoundTrip,
    ::testing::Values(
        RoundTripCase{"i0", ArgValue{std::int64_t{0}}},
        RoundTripCase{"imin",
                      ArgValue{std::numeric_limits<std::int64_t>::min()}},
        RoundTripCase{"imax",
                      ArgValue{std::numeric_limits<std::int64_t>::max()}},
        RoundTripCase{"u0", ArgValue{std::uint64_t{0}}},
        RoundTripCase{"umax",
                      ArgValue{std::numeric_limits<std::uint64_t>::max()}},
        RoundTripCase{"empty", ArgValue{std::string()}},
        RoundTripCase{"plain", ArgValue{std::string("abc")}},
        RoundTripCase{"quoted", ArgValue{std::string("\"\"")}},
        RoundTripCase{"slashes", ArgValue{std::string("\\\\n")}}));

}  // namespace
}  // namespace iocov::trace
