// The sealed envelope IOCS snapshots and IOCK checkpoints share, and
// their one artifact save/load pair.  Internal, not public API.
//
// A sealed artifact is the record container (trace/detail/wire.hpp)
// closed by a FOOTER record: varint counts, then the FNV-1a-64 of every
// byte before the footer's length prefix.  It is state, not a stream,
// so any defect fails the whole file (DESIGN.md §6.0); the per-format
// codecs see only their own tags.
#pragma once

#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/snapshot.hpp"
#include "host/io.hpp"
#include "trace/binary_format.hpp"
#include "trace/detail/wire.hpp"

namespace iocov::core::detail {

struct SealedFormat {
    const char (&magic)[4];
    std::uint8_t version;
    std::uint8_t footer_tag;
    const char* noun;             ///< "snapshot", "checkpoint"
    SnapshotError::Kind foreign;  ///< bad magic, or shorter than a header
    SnapshotError::Kind skew;     ///< a version this build cannot read
};

/// Fills *err when non-null.  Always returns false.
inline bool fail(SnapshotError* err, SnapshotError::Kind kind,
                 std::uint64_t offset, std::string reason,
                 std::uint8_t found_version = 0, int io_errno = 0) {
    if (err) *err = {kind, offset, std::move(reason), found_version, io_errno};
    return false;
}

/// Appends the footer: `counts`, then the checksum of `out` so far (the
/// footer's own bytes excluded, so one pass while writing computes it).
inline void seal(std::string& out, const SealedFormat& format,
                 std::initializer_list<std::uint64_t> counts) {
    std::string payload(1, static_cast<char>(format.footer_tag));
    for (const std::uint64_t n : counts) trace::detail::put_varint(payload, n);
    trace::detail::put_u64le(payload, trace::detail::fnv1a64(out));
    trace::detail::put_record(out, payload);
}

/// Reads a sealed artifact: checks the header, hands every record before
/// the footer to `on_record` (which returns false, having filled *err,
/// to refuse the file), then checks that the footer parses into
/// `counts`, matches the checksum, and ends the data.
template <class OnRecord>
bool read_sealed(std::string_view data, const SealedFormat& format,
                 std::span<std::uint64_t> counts, SnapshotError* err,
                 OnRecord on_record) {
    using Kind = SnapshotError::Kind;
    using Status = trace::detail::RecordReader::Status;
    const std::string noun = format.noun;
    if (data.size() < trace::detail::kHeaderSize ||
        !trace::detail::has_magic(data, format.magic))
        return fail(err, format.foreign, 0,
                    "not an " + std::string(format.magic, 4) + " " + noun +
                        " (bad magic)");
    if (const auto v = static_cast<std::uint8_t>(data[4]); v != format.version)
        return fail(err, format.skew, 4,
                    noun + " version skew: file is v" + std::to_string(v) +
                        ", this build reads v" +
                        std::to_string(format.version),
                    v);
    trace::detail::RecordReader records{data};
    trace::detail::Record rec;
    for (;;) {
        switch (records.next(rec)) {
            case Status::Ok:
                break;
            case Status::End:
                return fail(err, Kind::Torn, data.size(),
                            "torn " + noun + ": footer checksum missing");
            case Status::TornPrefix:
                return fail(err, Kind::Torn, rec.start,
                            "torn " + noun +
                                ": truncated record length prefix");
            case Status::ZeroLength:
                return fail(err, Kind::Corrupt, rec.start,
                            "zero-length record");
            case Status::Overrun:
                return fail(err, Kind::Torn, rec.start,
                            "torn " + noun +
                                ": record length exceeds remaining bytes");
        }
        if (rec.tag() != format.footer_tag) {
            if (!on_record(rec)) return false;
            continue;
        }
        trace::detail::PayloadCursor c(rec.body());
        bool ok = true;
        for (auto& n : counts) ok = ok && c.read_varint(n);
        std::uint64_t checksum = 0;
        if (!ok || !c.read_u64le(checksum) || !c.done())
            return fail(err, Kind::Corrupt, rec.start,
                        "malformed footer record");
        if (checksum != trace::detail::fnv1a64(data.substr(0, rec.start)))
            return fail(err, Kind::Corrupt, rec.start,
                        noun + " checksum mismatch (file damaged)");
        if (records.pos < data.size())
            return fail(err, Kind::Corrupt, records.pos,
                        "trailing bytes after footer");
        return true;
    }
}

/// host::write_file_atomic: a crash or failure at any point leaves the
/// previous complete file in place, and *err gets Kind::Io.
inline bool save_artifact(const std::string& path, std::string_view bytes,
                          SnapshotError* err) {
    const auto ioerr = host::write_file_atomic(path, bytes);
    if (ioerr)
        fail(err, SnapshotError::Kind::Io, 0, ioerr->to_string(), 0,
             ioerr->err);
    return !ioerr;
}

/// Maps `path` and decodes it; an unreadable file is Kind::Io.
template <class T>
std::optional<T> load_artifact(
    const std::string& path, SnapshotError* err,
    std::optional<T> (*decode)(std::string_view, SnapshotError*)) {
    host::IoError ioerr;
    const auto mapped =
        trace::MappedFile::open(path, trace::MappedFile::Mode::Auto, &ioerr);
    if (!mapped) {
        fail(err, SnapshotError::Kind::Io, 0,
             "cannot open file: " + ioerr.to_string(), 0, ioerr.err);
        return std::nullopt;
    }
    return decode(mapped->data(), err);
}

}  // namespace iocov::core::detail
