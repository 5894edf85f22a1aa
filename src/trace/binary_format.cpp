#include "trace/binary_format.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>

#include "host/fault.hpp"
#include "trace/detail/wire.hpp"

namespace iocov::trace {
namespace {

// Arg-value type bytes inside an EVT record (wire values of ArgType).
constexpr std::uint8_t kTypeInt = static_cast<std::uint8_t>(ArgType::Int);
constexpr std::uint8_t kTypeUint = static_cast<std::uint8_t>(ArgType::Uint);
constexpr std::uint8_t kTypeStr = static_cast<std::uint8_t>(ArgType::Str);

using detail::PayloadCursor;
using detail::put_record;
using detail::put_varint;
using detail::RecordReader;
using detail::unzigzag64;
using detail::zigzag64;

// A writer-produced event never exceeds a handful of args; anything
// past this in a file is corruption, not a trace.
constexpr std::uint64_t kMaxArgs = 64;
static_assert(kMaxArgs < kNoArg, "a BatchRow byte holds any count or position");

constexpr std::size_t kSinkFlushBytes = 64 * 1024;

static_assert(kIoctHeaderSize == detail::kHeaderSize);
static_assert(static_cast<std::uint8_t>(IoctTag::Str) == detail::kStrTag);

/// A stream's name for each framing failure; the scan drops the torn
/// tail and stops.
const char* torn_reason(RecordReader::Status status) {
    switch (status) {
        case RecordReader::Status::TornPrefix:
            return "torn record length prefix";
        case RecordReader::Status::ZeroLength:
            return "zero-length record";
        default:
            return "record length exceeds remaining bytes";
    }
}

}  // namespace

bool is_ioct(std::string_view data) {
    return data.size() > 4 && detail::has_magic(data, kIoctMagic) &&
           static_cast<std::uint8_t>(data[4]) == kIoctVersion;
}

std::string ioct_header() {
    return detail::container_header(kIoctMagic, kIoctVersion);
}

// ---- BinaryWriter ----------------------------------------------------------

BinaryWriter::BinaryWriter() : buffer_(ioct_header()) {}

void BinaryWriter::write_event(const TraceEvent& event) {
    // Intern first: STR records must precede the EVT referencing them.
    const std::uint32_t name_id = strings_.intern(buffer_, event.syscall);

    std::string payload;
    payload.push_back(static_cast<char>(IoctTag::Event));
    put_varint(payload, event.seq);
    put_varint(payload, event.pid);
    put_varint(payload, event.tid);
    put_varint(payload, name_id);
    put_varint(payload, zigzag64(event.ret));
    put_varint(payload, event.args.size());
    for (const auto& arg : event.args) {
        put_varint(payload, strings_.intern(buffer_, arg.name));
        if (const auto* i = std::get_if<std::int64_t>(&arg.value)) {
            payload.push_back(static_cast<char>(kTypeInt));
            put_varint(payload, zigzag64(*i));
        } else if (const auto* u = std::get_if<std::uint64_t>(&arg.value)) {
            payload.push_back(static_cast<char>(kTypeUint));
            put_varint(payload, *u);
        } else {
            payload.push_back(static_cast<char>(kTypeStr));
            const auto& s = std::get<std::string>(arg.value);
            put_varint(payload, strings_.intern(buffer_, s));
        }
    }
    put_record(buffer_, payload);

    ++total_events_;
    ++pid_counts_[event.pid];
}

void BinaryWriter::finish() {
    if (finished_) return;
    finished_ = true;
    // Deterministic footer: identical traces encode identically.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> counts(
        pid_counts_.begin(), pid_counts_.end());
    std::sort(counts.begin(), counts.end());
    std::string payload;
    payload.push_back(static_cast<char>(IoctTag::Footer));
    put_varint(payload, counts.size());
    for (const auto& [pid, count] : counts) {
        put_varint(payload, pid);
        put_varint(payload, count);
    }
    put_varint(payload, total_events_);
    put_record(buffer_, payload);
}

std::string encode_trace(const std::vector<TraceEvent>& events) {
    BinaryWriter w;
    for (const auto& ev : events) w.write_event(ev);
    w.finish();
    return w.take_buffer();
}

// ---- BinarySink ------------------------------------------------------------

BinarySink::BinarySink(std::ostream& os) : os_(os) {}

BinarySink::~BinarySink() { finish(); }

void BinarySink::emit(const TraceEvent& event) {
    writer_.write_event(event);
    if (writer_.buffer().size() >= kSinkFlushBytes) flush_buffer();
}

void BinarySink::finish() {
    if (finished_) return;
    finished_ = true;
    writer_.finish();
    flush_buffer();
    os_.flush();
}

void BinarySink::flush_buffer() {
    const auto& buf = writer_.buffer();
    os_.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    writer_.drain_buffer();
}

// ---- decoding --------------------------------------------------------------

IoctReader::IoctReader(std::string_view data, ParseDiagnostics& diags,
                       std::optional<IoctFooter>* footer)
    : records_{data}, diags_(&diags), footer_(footer) {
    header_ok_ = is_ioct(data) && data.size() >= kIoctHeaderSize;
    ended_ = !header_ok_;
    if (!header_ok_ && !data.empty())
        diags.record(0, 0, "not an IOCT file (bad magic/version)");
}

void IoctReader::drop(std::size_t offset, const char* reason) {
    ++dropped_;
    diags_->record(0, offset, reason);
}

bool IoctReader::read(std::vector<std::string_view>& strings,
                      std::vector<EventRef>& refs, std::size_t max,
                      PidShard shard) {
    refs.clear();
    const char* const base = records_.data.data();
    detail::Record rec;
    while (!ended_ && refs.size() < max) {
        const RecordReader::Status status = records_.next(rec);
        if (status != RecordReader::Status::Ok) {
            if (status != RecordReader::Status::End)
                drop(rec.start, torn_reason(status));
            ended_ = true;
            break;
        }
        switch (static_cast<IoctTag>(rec.tag())) {
            case IoctTag::Str:
                if (!strings_read_) strings.push_back(rec.body());
                break;
            case IoctTag::Event: {
                PayloadCursor c(rec.body());
                std::uint64_t seq = 0, pid = 0;
                if (!c.read_varint(seq) || !c.read_varint(pid) ||
                    pid > UINT32_MAX) {
                    drop(rec.start, "truncated event header");
                    break;
                }
                if (shard.count > 1 && pid % shard.count != shard.index)
                    break;
                refs.push_back(
                    {static_cast<std::uint64_t>(rec.payload.data() - base),
                     static_cast<std::uint32_t>(rec.payload.size()),
                     static_cast<std::uint32_t>(pid)});
                break;
            }
            case IoctTag::Footer: {
                PayloadCursor c(rec.body());
                IoctFooter footer;
                std::uint64_t n = 0;
                bool ok = c.read_varint(n) && n <= UINT32_MAX;
                for (std::uint64_t i = 0; ok && i < n; ++i) {
                    std::uint64_t pid = 0, count = 0;
                    ok = c.read_varint(pid) && pid <= UINT32_MAX &&
                         c.read_varint(count);
                    if (ok && footer_)
                        footer.pid_events.emplace_back(
                            static_cast<std::uint32_t>(pid), count);
                }
                ok = ok && c.read_varint(footer.total_events) && c.done();
                if (!ok)
                    drop(rec.start, "malformed footer");
                else if (footer_)
                    *footer_ = std::move(footer);
                break;
            }
            default:
                // Unknown tag; the length prefix lets us resync.
                drop(rec.start, "unknown record tag");
                break;
        }
    }
    return !refs.empty();
}

void IoctReader::read_strings(std::vector<std::string_view>& strings) {
    if (ended_ || strings_read_) return;
    strings_read_ = true;
    // A copy of the walk's cursor: the walk itself still has to visit
    // (and diagnose) every record ahead.
    RecordReader ahead = records_;
    detail::Record rec;
    while (ahead.next(rec) == RecordReader::Status::Ok)
        if (static_cast<IoctTag>(rec.tag()) == IoctTag::Str)
            strings.push_back(rec.body());
}

IoctScan scan_ioct(std::string_view data) {
    IoctScan scan;
    IoctReader reader(data, scan.diags, &scan.footer);
    if (!reader.header_ok()) return scan;
    scan.header_ok = true;
    // ~20 bytes/record in practice; one up-front reserve beats a dozen
    // doubling copies on a multi-megabyte trace (over-estimate is freed
    // with the scan).
    scan.events.reserve(data.size() / 20 + 1);
    reader.read(scan.strings, scan.events, SIZE_MAX);
    scan.dropped = reader.dropped();
    return scan;
}

bool decode_event(std::string_view payload,
                  const std::vector<std::string_view>& strings,
                  TraceEvent& out, std::uint32_t* name_id_out,
                  const char** reason) {
    auto fail = [&](const char* r) {
        if (reason) *reason = r;
        return false;
    };
    if (payload.empty() ||
        static_cast<IoctTag>(payload[0]) != IoctTag::Event)
        return fail("not an event record");
    PayloadCursor c(payload.substr(1));

    std::uint64_t seq = 0, pid = 0, tid = 0, name_id = 0, ret = 0, argc = 0;
    if (!c.read_varint(seq) || !c.read_varint(pid) || pid > UINT32_MAX ||
        !c.read_varint(tid) || tid > UINT32_MAX)
        return fail("truncated event header");
    if (!c.read_varint(name_id) || name_id >= strings.size())
        return fail("syscall name id out of range");
    if (!c.read_varint(ret))
        return fail("truncated return value");
    if (!c.read_varint(argc) || argc > kMaxArgs)
        return fail("argument count out of range");

    out.seq = seq;
    out.pid = static_cast<std::uint32_t>(pid);
    out.tid = static_cast<std::uint32_t>(tid);
    out.syscall.assign(strings[name_id]);
    out.ret = unzigzag64(ret);
    if (name_id_out) *name_id_out = static_cast<std::uint32_t>(name_id);

    out.args.resize(argc);
    for (auto& arg : out.args) {
        std::uint64_t arg_name = 0, v = 0;
        std::uint8_t type = 0;
        if (!c.read_varint(arg_name) || arg_name >= strings.size() ||
            !c.read_u8(type) || !c.read_varint(v))
            return fail("truncated or out-of-range argument");
        arg.name.assign(strings[arg_name]);
        switch (type) {
            case kTypeInt:
                arg.value = unzigzag64(v);
                break;
            case kTypeUint:
                arg.value = v;
                break;
            case kTypeStr: {
                if (v >= strings.size())
                    return fail("argument string id out of range");
                // Reuse the scratch string's capacity when possible
                // (the variant may currently hold a number).
                if (auto* s = std::get_if<std::string>(&arg.value))
                    s->assign(strings[v]);
                else
                    arg.value.emplace<std::string>(strings[v]);
                break;
            }
            default:
                return fail("unknown argument type byte");
        }
    }
    if (!c.done()) return fail("trailing bytes after last argument");
    return true;
}

std::vector<TraceEvent> decode_trace(std::string_view data,
                                     std::size_t* dropped,
                                     ParseDiagnostics* diags) {
    const auto scan = scan_ioct(data);
    std::vector<TraceEvent> out;
    out.reserve(scan.events.size());
    std::size_t bad = scan.dropped;
    ParseDiagnostics decode_diags;
    for (const auto& ref : scan.events) {
        TraceEvent ev;
        const char* reason = "corrupt event record";
        if (decode_event(data.substr(ref.offset, ref.length), scan.strings,
                         ev, nullptr, &reason)) {
            out.push_back(std::move(ev));
        } else {
            ++bad;
            decode_diags.record(0, ref.offset, reason);
        }
    }
    if (diags) {
        // Merge (rather than record in place) so scan- and decode-stage
        // diagnostics interleave in offset order.
        diags->merge(scan.diags);
        diags->merge(decode_diags);
    }
    if (dropped) *dropped = bad;
    return out;
}

// ---- batched decoding ------------------------------------------------------

namespace {

/// Decodes one EVT payload into `out` (SoA append).  Returns nullptr on
/// success; on failure appends nothing (partially appended args are
/// rolled back) and returns the exact static reason string
/// decode_event() produces for the same payload.  `Keyed` also stamps
/// each argument with keys[name id] and the row with its first
/// pathname, dfd and fd positions; otherwise `keys` is not read.
template <bool Keyed>
const char* decode_ref(const unsigned char* base, const EventRef& ref,
                       std::size_t string_count, const KeyCode* keys,
                       EventBatch& out) {
    if (ref.length == 0) return "not an event record";
    const unsigned char* p = base + ref.offset;
    const unsigned char* const rec_end = p + ref.length;
    if (static_cast<IoctTag>(*p) != IoctTag::Event)
        return "not an event record";
    ++p;

    using detail::read_varint;
    std::uint64_t seq = 0, pid = 0, tid = 0, name_id = 0, ret = 0, argc = 0;
    if (!read_varint(p, rec_end, seq) || !read_varint(p, rec_end, pid) ||
        pid > UINT32_MAX || !read_varint(p, rec_end, tid) ||
        tid > UINT32_MAX)
        return "truncated event header";
    if (!read_varint(p, rec_end, name_id) || name_id >= string_count)
        return "syscall name id out of range";
    if (!read_varint(p, rec_end, ret)) return "truncated return value";
    if (!read_varint(p, rec_end, argc) || argc > kMaxArgs)
        return "argument count out of range";

    const std::size_t arg_begin = out.args.size();
    FirstArgs first{kNoArg, kNoArg, kNoArg};
    auto fail = [&](const char* r) {
        out.args.resize(arg_begin);
        return r;
    };
    for (std::uint64_t i = 0; i < argc; ++i) {
        std::uint64_t arg_name = 0, v = 0;
        if (!read_varint(p, rec_end, arg_name) ||
            arg_name >= string_count || p == rec_end)
            return fail("truncated or out-of-range argument");
        const std::uint8_t type = *p++;
        if (!read_varint(p, rec_end, v))
            return fail("truncated or out-of-range argument");
        std::uint64_t raw = v;
        switch (static_cast<ArgType>(type)) {
            case ArgType::Int:
                raw = static_cast<std::uint64_t>(unzigzag64(v));
                break;
            case ArgType::Uint:
                break;
            case ArgType::Str:
                if (v >= string_count)
                    return fail("argument string id out of range");
                break;
            default:
                return fail("unknown argument type byte");
        }
        if constexpr (Keyed) {
            // The first argument of each filter name wins, as in
            // FilterCall::of(const TraceEvent&).
            const KeyCode key = keys[arg_name];
            if (key < kFilterKeys && first[key] == kNoArg)
                first[key] = static_cast<std::uint8_t>(i);
            out.args.emplace_back(raw, static_cast<std::uint32_t>(arg_name),
                                  static_cast<ArgType>(type), key);
        } else {
            out.args.emplace_back(raw, static_cast<std::uint32_t>(arg_name),
                                  static_cast<ArgType>(type));
        }
    }
    if (p != rec_end) return fail("trailing bytes after last argument");

    const auto pid32 = static_cast<std::uint32_t>(pid);
    const auto tid32 = static_cast<std::uint32_t>(tid);
    const auto name32 = static_cast<std::uint32_t>(name_id);
    const auto count = static_cast<std::uint8_t>(argc);
    if constexpr (Keyed)
        out.rows.emplace_back(seq, unzigzag64(ret), arg_begin, pid32, tid32,
                              name32, count, first);
    else
        out.rows.emplace_back(seq, unzigzag64(ret), arg_begin, pid32, tid32,
                              name32, count);
    return nullptr;
}

template <bool Keyed>
std::size_t decode_refs(std::string_view data, std::size_t string_count,
                        const KeyCode* keys, const EventRef* refs,
                        std::size_t n, EventBatch& out, std::size_t* dropped,
                        ParseDiagnostics* diags) {
    const auto* base = reinterpret_cast<const unsigned char*>(data.data());
    out.rows.reserve(out.rows.size() + n);
    std::size_t decoded = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const EventRef& ref = refs[i];
        // scan_ioct never emits an out-of-bounds ref; guard anyway so a
        // hand-built ref cannot walk off the buffer.
        const char* reason =
            ref.offset > data.size() || ref.length > data.size() - ref.offset
                ? "not an event record"
                : decode_ref<Keyed>(base, ref, string_count, keys, out);
        if (reason == nullptr) {
            ++decoded;
        } else {
            // The same bookkeeping decode_trace() keeps, in the same order.
            if (dropped) ++*dropped;
            if (diags) diags->record(0, ref.offset, reason);
        }
    }
    return decoded;
}

}  // namespace

std::size_t decode_batch(std::string_view data,
                         const std::vector<std::string_view>& strings,
                         std::span<const KeyCode> keys, const EventRef* refs,
                         std::size_t n, EventBatch& out, std::size_t* dropped,
                         ParseDiagnostics* diags) {
    if (keys.size() < strings.size())
        throw std::invalid_argument(
            "decode_batch: key table shorter than the string table");
    return decode_refs<true>(data, strings.size(), keys.data(), refs, n, out,
                             dropped, diags);
}

std::size_t decode_batch(std::string_view data,
                         const std::vector<std::string_view>& strings,
                         const EventRef* refs, std::size_t n, EventBatch& out,
                         std::size_t* dropped, ParseDiagnostics* diags) {
    out.keyed = false;
    return decode_refs<false>(data, strings.size(), nullptr, refs, n, out,
                              dropped, diags);
}

// ---- EventScratch ----------------------------------------------------------

void EventScratch::park(std::string& s) {
    // Only heap capacity is worth recycling; SSO strings cost nothing
    // to recreate.  The pool is bounded — past that, freeing is fine
    // because a workload cycling that many distinct string slots is
    // re-growing anyway.
    static const std::size_t kSsoCapacity = std::string().capacity();
    if (s.capacity() > kSsoCapacity && spare_.size() < 64)
        spare_.push_back(std::move(s));
}

const TraceEvent& EventScratch::materialize(
    const EventBatch& batch, std::size_t row,
    const std::vector<std::string_view>& strings) {
    const BatchRow& r = batch.rows[row];
    event_.seq = r.seq;
    event_.pid = r.pid;
    event_.tid = r.tid;
    event_.ret = r.ret;
    event_.syscall.assign(strings[r.name_id]);

    if (event_.args.size() > r.arg_count) {
        // Shrinking destroys slots; salvage their heap capacity first.
        for (std::size_t i = r.arg_count; i < event_.args.size(); ++i) {
            park(event_.args[i].name);
            if (auto* s = std::get_if<std::string>(&event_.args[i].value))
                park(*s);
        }
        event_.args.resize(r.arg_count);
    } else if (event_.args.size() < r.arg_count) {
        event_.args.resize(r.arg_count);
    }

    for (std::size_t i = 0; i < r.arg_count; ++i) {
        const BatchArg& ba = batch.args[r.arg_begin + i];
        Arg& arg = event_.args[i];
        arg.name.assign(strings[ba.name_id]);
        switch (ba.type) {
            case ArgType::Int:
                if (auto* s = std::get_if<std::string>(&arg.value))
                    park(*s);
                arg.value.emplace<std::int64_t>(
                    static_cast<std::int64_t>(ba.raw));
                break;
            case ArgType::Uint:
                if (auto* s = std::get_if<std::string>(&arg.value))
                    park(*s);
                arg.value.emplace<std::uint64_t>(ba.raw);
                break;
            case ArgType::Str: {
                const std::string_view sv =
                    strings[static_cast<std::size_t>(ba.raw)];
                if (auto* s = std::get_if<std::string>(&arg.value)) {
                    s->assign(sv);
                } else if (!spare_.empty()) {
                    std::string recycled = std::move(spare_.back());
                    spare_.pop_back();
                    recycled.assign(sv);
                    arg.value.emplace<std::string>(std::move(recycled));
                } else {
                    arg.value.emplace<std::string>(sv);
                }
                break;
            }
        }
    }
    return event_;
}

// ---- MappedFile ------------------------------------------------------------

std::optional<MappedFile> MappedFile::open(const std::string& path,
                                           Mode mode,
                                           host::IoError* err) {
    const auto policy = host::RetryPolicy::standard();
    unsigned retries = 0;
    const auto fail = [&](host::IoPhase phase,
                          int fd) -> std::optional<MappedFile> {
        if (err) *err = {phase, errno, path, retries};
        if (fd >= 0) ::close(fd);
        return std::nullopt;
    };

    const int fd = host::retried(
        host::IoPhase::Open, policy, retries,
        [&](const host::FaultHook::Action&) {
            return ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
        });
    if (fd < 0) return fail(host::IoPhase::Open, -1);
    // fstat() with the same bounded transient retry: an EINTR here would
    // otherwise hard-fail the whole load one syscall in.
    struct stat st{};
    retries = 0;
    if (host::retried(host::IoPhase::Stat, policy, retries,
                      [&](const host::FaultHook::Action&) {
                          return ::fstat(fd, &st);
                      }) != 0)
        return fail(host::IoPhase::Stat, fd);
    if (st.st_size < 0) {
        errno = EINVAL;  // nonsense size: not retryable
        return fail(host::IoPhase::Stat, fd);
    }

    const auto size = static_cast<std::size_t>(st.st_size);
    MappedFile mf;
    if (mode == Mode::Auto && size > 0) {
        void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        if (p != MAP_FAILED) {
            mf.mapped_ = p;
            mf.size_ = size;
            ::close(fd);
            return mf;
        }
    }
    // read() fallback (and the ReadCopy benchmark mode), one read() for
    // whatever is left per call.  A true EOF before the fstat'd size
    // means the file shrank under us — keep what still existed and say
    // so via shrank(), distinct from a read *error* which fails the
    // open.
    if (auto e = host::read_fd(fd, size, mf.copy_, host::IoPhase::Read,
                               policy, path, SIZE_MAX)) {
        if (e->err != 0) {
            if (err) *err = *e;
            ::close(fd);
            return std::nullopt;
        }
        mf.shrank_ = true;
    }
    ::close(fd);
    return mf;
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : mapped_(other.mapped_),
      size_(other.size_),
      copy_(std::move(other.copy_)),
      shrank_(other.shrank_) {
    other.mapped_ = nullptr;
    other.size_ = 0;
    other.shrank_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
    if (this != &other) {
        if (mapped_) ::munmap(mapped_, size_);
        mapped_ = other.mapped_;
        size_ = other.size_;
        copy_ = std::move(other.copy_);
        shrank_ = other.shrank_;
        other.mapped_ = nullptr;
        other.size_ = 0;
        other.shrank_ = false;
    }
    return *this;
}

MappedFile::~MappedFile() {
    if (mapped_) ::munmap(mapped_, size_);
}

}  // namespace iocov::trace
