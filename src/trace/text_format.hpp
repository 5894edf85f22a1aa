// Text serialization of trace events (LTTng-style line format).
//
// One event per line:
//
//   [000000017] pid=1201 tid=1201 openat: dfd=-100,
//       pathname="/mnt/test/f0", flags=0x241, mode=0x1a4 = 3
//
// Unsigned args print as hex with 0x, signed as decimal, strings quoted
// with backslash escapes.  The parser accepts exactly what format_event
// produces, enabling the trace-file -> analyzer pipeline of the real
// IOCov tool and round-trip tests.
#pragma once

#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/diagnostics.hpp"
#include "trace/event.hpp"

namespace iocov::trace {

/// Renders one event as a single line (no trailing newline).
std::string format_event(const TraceEvent& event);

/// Parses a line produced by format_event. Returns nullopt on malformed
/// input (never throws; trace files may be truncated mid-line).  On
/// failure, `*reason` (when non-null) names the first malformed field
/// as a static string — no allocation on the reject path.
std::optional<TraceEvent> parse_event(std::string_view line,
                                      const char** reason = nullptr);

/// Parses an entire stream, skipping blank lines and '#' comments.
/// Malformed lines are counted into *dropped (if non-null) and skipped,
/// mirroring how the real analyzer tolerates torn LTTng buffers; each
/// is also recorded into `diags` (when non-null) with its line number,
/// byte offset, and parse_event's reason.  Reads the stream whole and
/// runs parse_chunk over it.
std::vector<TraceEvent> parse_stream(std::istream& in,
                                     std::size_t* dropped = nullptr,
                                     ParseDiagnostics* diags = nullptr);

/// Splits `text` into at most `n_chunks` byte ranges cut at line
/// boundaries (a line never straddles two chunks), sized as evenly as
/// the line structure allows.  The views alias `text`; concatenating
/// them in order reproduces it.  Building block of the parallel parse.
std::vector<std::string_view> split_line_chunks(std::string_view text,
                                                std::size_t n_chunks);

/// The line walk behind parse_stream, over one in-memory chunk.  Each
/// parallel worker runs this on its chunk.
/// `first_line`/`base_offset` position the chunk within the whole
/// input so diagnostics carry file-absolute line numbers and offsets.
std::vector<TraceEvent> parse_chunk(std::string_view chunk,
                                    std::size_t* dropped = nullptr,
                                    ParseDiagnostics* diags = nullptr,
                                    std::uint64_t first_line = 1,
                                    std::uint64_t base_offset = 0);

/// Escapes a string for quoting inside a trace line.
std::string escape_string(std::string_view s);

/// Reverses escape_string; nullopt on invalid escape sequences.
std::optional<std::string> unescape_string(std::string_view s);

}  // namespace iocov::trace
