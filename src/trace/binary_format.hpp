// IOCT — the compact binary trace format.
//
// Text traces (text_format.hpp) are the compatibility format; IOCT is
// the throughput format.  Parsing a text line costs a per-event burst
// of small allocations (syscall name, arg names, unescaped strings) and
// dominates the analysis pipeline now that the analyzer itself runs at
// millions of events per second.  IOCT removes that cost structurally:
// every string (syscall names, arg names, pathnames, xattr keys) is
// interned once into a string table, and an event record is a handful
// of varints referencing it — decodable into a reusable scratch
// TraceEvent with no per-event allocation after warm-up.
//
// File layout: the record container of trace/detail/wire.hpp (16-byte
// header, u32-length-prefixed tagged records; DESIGN.md §6.0) with
// magic "IOCT" and these tags (full spec in DESIGN.md §6.1):
//
//       0x01 STR     the container's string table (implicit ids,
//                    always defined before use)
//       0x02 EVT     one TraceEvent: varint seq/pid/tid/name-id,
//                    zigzag ret, varint argc, then per arg a name-id,
//                    a type byte, and a varint/zigzag/string-id value
//       0x03 FOOTER  per-pid record counts + total, unsealed; written
//                    last by BinarySink::finish()
//
// IOCT is a stream: string definitions precede their first use and the
// footer is optional on read, so a torn file (crashed tracer,
// truncated copy) still yields every intact prefix record; the reader
// drops the torn tail and reports it via `dropped`, mirroring
// parse_stream's semantics for malformed text lines.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "host/io.hpp"

#include "trace/detail/wire.hpp"
#include "trace/diagnostics.hpp"
#include "trace/event.hpp"
#include "trace/sink.hpp"

namespace iocov::trace {

// ---- format constants ------------------------------------------------------

inline constexpr char kIoctMagic[4] = {'I', 'O', 'C', 'T'};
inline constexpr std::uint8_t kIoctVersion = 1;
inline constexpr std::size_t kIoctHeaderSize = 16;

enum class IoctTag : std::uint8_t {
    Str = 0x01,     ///< string-table entry (implicit sequential id)
    Event = 0x02,   ///< one trace event
    Footer = 0x03,  ///< per-pid record counts; must be the last record
};

/// True if `data` begins with an IOCT header (magic + known version).
/// The 4-byte magic alone is what `iocov analyze` sniffs to autodetect
/// the format; version is checked so future majors are not misread.
bool is_ioct(std::string_view data);

/// Serializes the 16-byte header.
std::string ioct_header();

// ---- encoding --------------------------------------------------------------

/// Streaming IOCT encoder over an in-memory buffer.  Interns strings on
/// first use (emitting STR records inline) and appends EVT records;
/// `finish()` appends the footer.  BinarySink adapts this to a sink
/// with buffered ostream writes; tests and `iocov convert` use it
/// directly via encode_trace().
class BinaryWriter {
  public:
    BinaryWriter();

    /// Appends one event record (plus STR records for any new strings).
    void write_event(const TraceEvent& event);

    /// Appends the footer (per-pid event counts + total event count).
    /// Call exactly once, after the last event.
    void finish();

    /// The encoded bytes so far (header included from construction).
    const std::string& buffer() const { return buffer_; }
    std::string take_buffer() { return std::move(buffer_); }

    /// Clears the buffer (e.g. after flushing it to an ostream) without
    /// resetting the string table — subsequent records keep referencing
    /// previously emitted STR entries.
    void drain_buffer() { buffer_.clear(); }

  private:
    std::string buffer_;
    detail::StringTable strings_;
    /// pid -> event-record count, for the footer's shard-pre-sizing
    /// index (sorted into the footer so identical traces encode
    /// identically).
    std::unordered_map<std::uint32_t, std::uint64_t> pid_counts_;
    std::uint64_t total_events_ = 0;
    bool finished_ = false;
};

/// One-shot convenience: encodes a whole trace (header + records +
/// footer) into a byte string.
std::string encode_trace(const std::vector<TraceEvent>& events);

/// TraceSink writing IOCT to an ostream with buffered writes (records
/// are accumulated and flushed in ~64 KiB slabs, not per event).  Call
/// finish() — or let the destructor — to flush and append the footer.
class BinarySink final : public TraceSink {
  public:
    explicit BinarySink(std::ostream& os);
    ~BinarySink() override;

    void emit(const TraceEvent& event) override;

    /// Flushes buffered records and writes the footer; idempotent.
    void finish();

  private:
    void flush_buffer();

    std::ostream& os_;
    BinaryWriter writer_;
    bool finished_ = false;
};

// ---- decoding --------------------------------------------------------------

/// Footer contents, when the file has one (a torn file may not).
struct IoctFooter {
    std::vector<std::pair<std::uint32_t, std::uint64_t>> pid_events;
    std::uint64_t total_events = 0;
};

/// Byte range of one EVT payload inside a scanned buffer, plus the pid
/// pre-decoded for sharding.  The offsets alias the scanned data.
struct EventRef {
    std::uint64_t offset = 0;  ///< payload start (after length prefix)
    std::uint32_t length = 0;  ///< payload length (tag byte included)
    std::uint32_t pid = 0;
};

/// One pid class of a trace: the events whose pid % count == index.
/// The default class holds every event.
struct PidShard {
    std::uint32_t count = 1;
    std::uint32_t index = 0;
};

/// The one IOCT record walker.  One pass over the container appends
/// each STR record's body (a view aliasing `data`) to a caller-owned
/// string table and hands out EVT refs, with each event's pid
/// pre-decoded, a window at a time — so a serial reader holds
/// O(strings + window) beyond the mapping, never an index of every
/// record.  Undecodable records (bad tag, torn tail, truncated event
/// header, malformed footer) are counted and skipped, like
/// parse_stream's torn lines; each drop is also recorded into `diags`
/// with its byte offset and a stable reason.  A framing failure (torn
/// length prefix, overrun) drops the tail and ends the walk.
class IoctReader {
  public:
    /// Checks the header.  A bad one (with `data` non-empty) records
    /// "not an IOCT file" into `diags`, is not counted as a drop, and
    /// leaves nothing to read.  `footer`, when non-null, receives the
    /// footer once the walk has parsed it; either way a malformed
    /// footer is a drop.
    IoctReader(std::string_view data, ParseDiagnostics& diags,
               std::optional<IoctFooter>* footer = nullptr);

    bool header_ok() const { return header_ok_; }

    /// Replaces `refs` with the next EVT refs of pid class `shard`,
    /// walking on until it holds `max` of them or the records end, and
    /// appends every STR record passed on the way to `strings` (unless
    /// read_strings() already did).  Every record is diagnosed whatever
    /// its pid.  Returns false once no refs are left.
    bool read(std::vector<std::string_view>& strings,
              std::vector<EventRef>& refs, std::size_t max,
              PidShard shard = {});

    /// Appends every STR record past the walk's position to `strings`,
    /// completing the table read() has built, so an event that names a
    /// string defined later in the file can be decoded as a whole-file
    /// scan would.  Records and counts nothing; later read() calls skip
    /// those STR records.  Idempotent.
    void read_strings(std::vector<std::string_view>& strings);

    /// Records dropped so far (each also recorded into `diags`).
    std::size_t dropped() const { return dropped_; }

  private:
    void drop(std::size_t offset, const char* reason);

    detail::RecordReader records_;
    ParseDiagnostics* diags_;
    std::optional<IoctFooter>* footer_;
    std::size_t dropped_ = 0;
    bool header_ok_ = false;
    bool ended_ = false;         ///< end of data or a torn tail reached
    bool strings_read_ = false;  ///< read_strings() took the rest
};

/// Structural scan of a whole IOCT buffer: IoctReader run to the end
/// with every ref kept — the string table, every EVT payload with its
/// pid, the footer and the drops.  Everything the parallel pipeline
/// needs to cut the file into record-aligned shards without
/// materializing any event.
struct IoctScan {
    std::vector<std::string_view> strings;
    std::vector<EventRef> events;
    std::optional<IoctFooter> footer;
    std::size_t dropped = 0;
    bool header_ok = false;
    ParseDiagnostics diags;
};

IoctScan scan_ioct(std::string_view data);

/// Decodes one EVT payload (tag byte included) into `out`, resolving
/// string ids against `strings`.  Reuses `out`'s capacity — the decode
/// hot path allocates only when a string outgrows what the scratch
/// event already holds.  Returns false (leaving `out` unspecified) on
/// any malformed byte.  `name_id`, when non-null, receives the syscall
/// name's string-table id, letting callers pre-bind names (one
/// SyscallTable lookup per table entry instead of per event).  On
/// failure, `*reason` (when non-null) names the malformed field as a
/// static string — no allocation on the reject path.
bool decode_event(std::string_view payload,
                  const std::vector<std::string_view>& strings,
                  TraceEvent& out, std::uint32_t* name_id = nullptr,
                  const char** reason = nullptr);

/// One-shot convenience mirroring parse_stream(): decodes every intact
/// event record, counting undecodable ones into *dropped and recording
/// each into `diags` (when non-null) with its byte offset.
std::vector<TraceEvent> decode_trace(std::string_view data,
                                     std::size_t* dropped = nullptr,
                                     ParseDiagnostics* diags = nullptr);

// ---- batched decoding ------------------------------------------------------
//
// The per-event decode_event() path pays a virtual-free but still
// per-field-branchy cost per record.  The batched path decodes a span
// of records into a structure-of-arrays scratch (EventBatch) in one
// tight loop, with tag and bounds checks hoisted, and defers all string
// materialization to EventScratch, which recycles heap capacity so the
// steady-state decode -> analyze loop performs zero allocations.

/// Arg-value type byte inside an EVT record (wire values).
enum class ArgType : std::uint8_t {
    Int = 0,   ///< zigzag varint
    Uint = 1,  ///< plain varint
    Str = 2,   ///< string-table id
};

/// The code of an argument name.  A keyed decode_batch() stamps each
/// argument with the code its name id has in a per-file key table
/// (core::SyscallTable::bind_file builds it): the filter's three names
/// first, in FilterKey order, then every name the analyzer reads.
/// kNoKey marks any other name.
using KeyCode = std::uint8_t;
inline constexpr KeyCode kNoKey = 0xFF;

/// Codes of the three argument names the filter reads.
enum FilterKey : KeyCode { kPathnameKey = 0, kDfdKey = 1, kFdKey = 2 };
inline constexpr std::size_t kFilterKeys = 3;

/// By FilterKey: the position (from BatchRow::arg_begin) of a row's
/// first argument of that name, kNoArg when it has none (an event has
/// at most 64 arguments, so every position fits below it).
using FirstArgs = std::array<std::uint8_t, kFilterKeys>;
inline constexpr std::uint8_t kNoArg = 0xFF;

// The stamps of a keyed decode_batch() ride in BatchArg's and BatchRow's
// padding.  A keyless decode leaves them unwritten (the constructors
// without a stamp do not touch them): writing kNoKey/kNoArg there slowed
// that decode by about an eighth.  EventBatch::keyed says whether the
// stamps are valid.

/// One decoded argument: `raw` is the already-unzigzagged i64 bit
/// pattern (Int), the plain value (Uint), or a string-table id (Str).
struct BatchArg {
    std::uint64_t raw = 0;
    std::uint32_t name_id = 0;
    ArgType type = ArgType::Int;
    KeyCode key;  ///< the name's code; keyed decodes only

    BatchArg() : key(kNoKey) {}
    BatchArg(std::uint64_t value, std::uint32_t name, ArgType kind)
        : raw(value), name_id(name), type(kind) {}
    BatchArg(std::uint64_t value, std::uint32_t name, ArgType kind,
             KeyCode code)
        : raw(value), name_id(name), type(kind), key(code) {}

    /// The value, its string a view of `strings` (the table it was
    /// decoded against).
    ArgView view(const std::vector<std::string_view>& strings) const {
        switch (type) {
            case ArgType::Int: return {ArgView::Kind::Int, raw};
            case ArgType::Uint: return {ArgView::Kind::Uint, raw};
            case ArgType::Str: break;
        }
        return {ArgView::Kind::Str, 0, strings[static_cast<std::size_t>(raw)]};
    }
};
static_assert(sizeof(BatchArg) == 16);

/// One decoded event; args live at [arg_begin, arg_begin + arg_count)
/// in the owning EventBatch's `args`.
struct BatchRow {
    std::uint64_t seq = 0;
    std::int64_t ret = 0;
    std::size_t arg_begin = 0;
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    std::uint32_t name_id = 0;
    std::uint8_t arg_count = 0;  ///< at most 64
    FirstArgs first_arg;         ///< keyed decodes only

    BatchRow() : first_arg{kNoArg, kNoArg, kNoArg} {}
    BatchRow(std::uint64_t seq_no, std::int64_t ret_value, std::size_t begin,
             std::uint32_t pid_no, std::uint32_t tid_no, std::uint32_t name,
             std::uint8_t count)
        : seq(seq_no), ret(ret_value), arg_begin(begin), pid(pid_no),
          tid(tid_no), name_id(name), arg_count(count) {}
    BatchRow(std::uint64_t seq_no, std::int64_t ret_value, std::size_t begin,
             std::uint32_t pid_no, std::uint32_t tid_no, std::uint32_t name,
             std::uint8_t count, FirstArgs first)
        : BatchRow(seq_no, ret_value, begin, pid_no, tid_no, name, count) {
        first_arg = first;
    }
};
static_assert(sizeof(BatchRow) == 40);

/// Reusable SoA scratch for decode_batch(); clear() keeps capacity so a
/// chunked decode loop allocates only while the high-water mark grows.
struct EventBatch {
    std::vector<BatchRow> rows;
    std::vector<BatchArg> args;
    /// False once a keyless decode_batch() appended rows: their stamps
    /// were never written, so only EventScratch::materialize may read
    /// them.
    bool keyed = true;

    void clear() {
        rows.clear();
        args.clear();
        keyed = true;
    }
};

/// Batched decode of EVT payloads located by scan_ioct(): appends one
/// BatchRow per intact record to `out`, leaving every string as a
/// table id — no per-event materialization at all.  `keys[id]` is the
/// KeyCode of string id as an argument name (keys.size() must be at
/// least strings.size()); each argument is stamped with its code
/// (BatchArg::key) and each row with the positions of its first
/// pathname, dfd and fd arguments (BatchRow::first_arg), so the filter
/// and the analyzer read arguments by code and never look a name up.
/// Undecodable refs are counted into *dropped and recorded into `diags`
/// with byte offset and reason, matching decode_event()'s reason
/// strings and scan order exactly.  Returns the number of rows
/// appended.  Callers chunk large ref spans (and clear() the batch
/// between chunks) to bound scratch memory.
std::size_t decode_batch(std::string_view data,
                         const std::vector<std::string_view>& strings,
                         std::span<const KeyCode> keys, const EventRef* refs,
                         std::size_t n, EventBatch& out,
                         std::size_t* dropped = nullptr,
                         ParseDiagnostics* diags = nullptr);

/// The keyless decode, for callers that only materialize rows
/// (EventScratch): the same rows and drops, no stamps, and `out`
/// marked unkeyed.
std::size_t decode_batch(std::string_view data,
                         const std::vector<std::string_view>& strings,
                         const EventRef* refs, std::size_t n,
                         EventBatch& out, std::size_t* dropped = nullptr,
                         ParseDiagnostics* diags = nullptr);

/// Materializes EventBatch rows into a reusable TraceEvent with
/// steady-state-zero allocation: arg-slot strings keep their heap
/// capacity across rows, and capacity displaced when a slot changes
/// type or the arg count shrinks is parked in a spare pool instead of
/// freed.  After warm-up (the high-water mark of arg counts and string
/// lengths) materialize() performs no heap allocation — asserted by
/// tests/test_batch_decode.cpp via the exec allocation-counting hook.
class EventScratch {
  public:
    /// Rebuilds the scratch event from `batch.rows[row]`.  The returned
    /// reference is valid until the next materialize() call.
    const TraceEvent& materialize(const EventBatch& batch, std::size_t row,
                                  const std::vector<std::string_view>& strings);

  private:
    void park(std::string& s);

    TraceEvent event_;
    std::vector<std::string> spare_;  ///< recycled heap capacities
};

// ---- file mapping ----------------------------------------------------------

/// Read-only view of a file, preferring mmap (zero-copy: the decoder's
/// string table aliases the page cache) with a plain read() fallback
/// for file systems that cannot map.  Move-only; unmaps on destruction.
///
/// The read() fallback goes through the host retry policy: EINTR and
/// EAGAIN are retried (bounded, with backoff) instead of aborting the
/// whole load, and every step consults host::FaultHook so self-fault
/// sweeps can exercise the tool's own read-error handling.  A file
/// that shrinks mid-read (read() hits EOF before the fstat'd size) is
/// NOT an error — the truncated view is returned with shrank() set, so
/// callers can tell "file shrank under us" (a torn-tail-tolerant
/// decode may still salvage a prefix) from "read error" (open returns
/// nullopt with the structured host::IoError).
class MappedFile {
  public:
    enum class Mode {
        Auto,      ///< mmap, falling back to read() on failure
        ReadCopy,  ///< force the read() path (benchmarks, odd fs)
    };

    /// Opens and maps `path`; nullopt if the file cannot be opened or
    /// read (with *err, when non-null, naming the failed phase —
    /// open/stat/read — and its errno).
    static std::optional<MappedFile> open(const std::string& path,
                                          Mode mode = Mode::Auto,
                                          host::IoError* err = nullptr);

    MappedFile(MappedFile&& other) noexcept;
    MappedFile& operator=(MappedFile&& other) noexcept;
    MappedFile(const MappedFile&) = delete;
    MappedFile& operator=(const MappedFile&) = delete;
    ~MappedFile();

    std::string_view data() const {
        return mapped_ ? std::string_view(static_cast<const char*>(mapped_),
                                          size_)
                       : std::string_view(copy_);
    }
    bool mmapped() const { return mapped_ != nullptr; }

    /// True when the read() fallback observed the file shrinking while
    /// it was being loaded: the view holds the bytes that still
    /// existed, which is shorter than the size fstat reported.
    bool shrank() const { return shrank_; }

  private:
    MappedFile() = default;

    void* mapped_ = nullptr;  ///< non-null when backed by mmap
    std::size_t size_ = 0;
    std::string copy_;        ///< read() fallback storage
    bool shrank_ = false;     ///< file shrank during the read() load
};

}  // namespace iocov::trace
