#include "trace/event.hpp"

#include "trace/sink.hpp"

#include <gtest/gtest.h>

namespace iocov::trace {
namespace {

TraceEvent sample() {
    TraceEvent ev;
    ev.syscall = "probe";
    ev.args = {{"i", ArgValue{std::int64_t{-7}}},
               {"u", ArgValue{std::uint64_t{42}}},
               {"s", ArgValue{std::string("hello")}}};
    ev.ret = 0;
    return ev;
}

TEST(TraceEvent, FindArgByName) {
    const auto ev = sample();
    ASSERT_NE(ev.find_arg("u"), nullptr);
    EXPECT_EQ(ev.find_arg("u")->name, "u");
    EXPECT_EQ(ev.find_arg("nope"), nullptr);
}

TEST(TraceEvent, TypedAccessors) {
    const auto ev = sample();
    EXPECT_EQ(*int_value(ev.find_arg("i")->value), -7);
    EXPECT_EQ(*uint_value(ev.find_arg("u")->value), 42u);
    EXPECT_EQ(*ev.str_arg("s"), "hello");
    EXPECT_FALSE(ev.str_arg("missing").has_value());
}

TEST(TraceEvent, SignedUnsignedInterconvert) {
    const auto ev = sample();
    // int stored, uint requested: two's complement reinterpretation.
    EXPECT_EQ(*uint_value(ev.find_arg("i")->value),
              static_cast<std::uint64_t>(-7));
    // uint stored, int requested.
    EXPECT_EQ(*int_value(ev.find_arg("u")->value), 42);
    // string never converts to a number.
    EXPECT_FALSE(int_value(ev.find_arg("s")->value).has_value());
    EXPECT_FALSE(uint_value(ev.find_arg("s")->value).has_value());
}

TEST(TraceEvent, OkReflectsKernelConvention) {
    auto ev = sample();
    EXPECT_TRUE(ev.ok());
    ev.ret = -2;
    EXPECT_FALSE(ev.ok());
}

TEST(TraceSinks, BufferCallbackTeeAndNull) {
    TraceBuffer buffer;
    int callback_hits = 0;
    CallbackSink cb([&](const TraceEvent&) { ++callback_hits; });
    NullSink null;
    TeeSink tee(buffer, cb);
    const auto ev = sample();
    tee.emit(ev);
    null.emit(ev);
    EXPECT_EQ(buffer.size(), 1u);
    EXPECT_EQ(callback_hits, 1);
    EXPECT_EQ(buffer.events()[0], ev);
    buffer.clear();
    EXPECT_TRUE(buffer.empty());
}

}  // namespace
}  // namespace iocov::trace
