// Wire primitives shared by every binary format in the tree: IOCT
// traces (trace/binary_format), IOCS snapshots (core/snapshot), IOCK
// checkpoints (core/checkpoint) and serve frames (serve/protocol).
//
// Each primitive has exactly one definition here, so the formats
// cannot drift apart on the varint grammar, byte order or checksum:
//
//   varints   unsigned LEB128; signed values are zigzag-mapped first
//   u32/u64   fixed-width little-endian (record length prefixes,
//             checksums, the IOCS reserved slot)
//   fnv1a64   the IOCS/IOCK footer checksum
//
// The record container IOCT, IOCS and IOCK share (DESIGN.md §6.0) is
// framed here too; IOCS and IOCK seal it with core/detail/sealed.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace iocov::trace::detail {

inline void put_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
        out.push_back(static_cast<char>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/// Advances `p` past one varint ending at or before `end` and sets
/// `out`; returns false (with `p` unspecified) on a varint that runs
/// past `end`, has no terminator within 10 bytes, or overflows 64 bits.
/// The loop's first iteration is the 1-byte fast path most trace
/// fields (pids, fds, string ids, arg counts) take.
inline bool read_varint(const unsigned char*& p, const unsigned char* end,
                        std::uint64_t& out) {
    std::uint64_t v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (p == end) return false;
        const unsigned char byte = *p++;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80)) {
            // The 10th byte may only carry the top bit of a u64.
            if (shift == 63 && (byte & 0x7e)) return false;
            out = v;
            return true;
        }
    }
    return false;  // unterminated varint
}

inline std::uint64_t zigzag64(std::int64_t v) {
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag64(std::uint64_t v) {
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void put_u32le(std::string& out, std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<char>((v >> shift) & 0xff));
}

inline void put_u64le(std::string& out, std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8)
        out.push_back(static_cast<char>((v >> shift) & 0xff));
}

inline std::uint32_t read_u32le(const char* p) {
    const auto* u = reinterpret_cast<const unsigned char*>(p);
    return static_cast<std::uint32_t>(u[0]) |
           static_cast<std::uint32_t>(u[1]) << 8 |
           static_cast<std::uint32_t>(u[2]) << 16 |
           static_cast<std::uint32_t>(u[3]) << 24;
}

inline std::uint64_t read_u64le(const char* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(p[i]);
    return v;
}

/// FNV-1a 64 over the encoded bytes — the IOCS/IOCK footer's
/// torn-tail/corruption detector.  Not cryptographic; it only needs to
/// make truncation and bit flips loudly detectable.
inline std::uint64_t fnv1a64(std::string_view data) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/// Bounds-checked forward reader over one record payload.  Every read
/// returns false, consuming nothing usable, when the field would run
/// past the end of the payload.
struct PayloadCursor {
    const unsigned char* p;
    const unsigned char* end;

    explicit PayloadCursor(std::string_view payload)
        : p(reinterpret_cast<const unsigned char*>(payload.data())),
          end(p + payload.size()) {}

    bool done() const { return p == end; }

    /// The unread remainder of the payload.
    std::string_view rest() const {
        return {reinterpret_cast<const char*>(p),
                static_cast<std::size_t>(end - p)};
    }

    bool read_u8(std::uint8_t& out) {
        if (p == end) return false;
        out = *p++;
        return true;
    }

    bool read_varint(std::uint64_t& out) {
        return detail::read_varint(p, end, out);
    }

    bool read_u64le(std::uint64_t& out) {
        if (end - p < 8) return false;
        out = detail::read_u64le(reinterpret_cast<const char*>(p));
        p += 8;
        return true;
    }

    /// A varint byte length followed by that many bytes.
    bool read_string(std::string& out) {
        std::uint64_t len = 0;
        if (!read_varint(len) || len > static_cast<std::uint64_t>(end - p))
            return false;
        out.assign(reinterpret_cast<const char*>(p),
                   static_cast<std::size_t>(len));
        p += len;
        return true;
    }
};

// ---- the record container --------------------------------------------------

/// Header: 4-byte magic, version byte, 11 zero bytes.
inline constexpr std::size_t kHeaderSize = 16;
/// STR record tag, in the formats that have a string table.
inline constexpr std::uint8_t kStrTag = 0x01;

inline std::string container_header(const char (&magic)[4],
                                    std::uint8_t version) {
    std::string h(kHeaderSize, '\0');
    std::memcpy(h.data(), magic, sizeof magic);
    h[4] = static_cast<char>(version);
    return h;
}

inline bool has_magic(std::string_view data, const char (&magic)[4]) {
    return data.size() >= sizeof magic &&
           std::memcmp(data.data(), magic, sizeof magic) == 0;
}

/// u32 LE payload length, then the payload (tag byte + body).
inline void put_record(std::string& out, std::string_view payload) {
    put_u32le(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload);
}

/// The interning STR writer.  Ids are implicit (appearance order); a
/// string's STR record goes to `out` on first use, so every definition
/// precedes its first reference.
class StringTable {
  public:
    std::uint32_t intern(std::string& out, std::string_view s) {
        auto it = ids_.find(s);
        if (it != ids_.end()) return it->second;
        const auto id = static_cast<std::uint32_t>(ids_.size());
        ids_.emplace(std::string(s), id);
        put_u32le(out, static_cast<std::uint32_t>(1 + s.size()));
        out.push_back(static_cast<char>(kStrTag));
        out.append(s);
        return id;
    }

  private:
    struct Hash {  // transparent: probe with a string_view, no copy
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };
    std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>>
        ids_;
};

struct Record {
    std::size_t start = 0;     ///< offset of the length prefix
    std::string_view payload;  ///< tag byte + body, never empty

    std::uint8_t tag() const { return static_cast<std::uint8_t>(payload[0]); }
    std::string_view body() const { return payload.substr(1); }
};

/// The one record splitter, inline and allocation-free.  Each format
/// names the failures: IOCT drops the torn tail, IOCS/IOCK refuse the
/// file.
struct RecordReader {
    enum class Status : std::uint8_t {
        Ok, End, TornPrefix, ZeroLength, Overrun
    };

    std::string_view data;
    std::size_t pos = kHeaderSize;

    /// The next record into `rec`; on a failure only `rec.start` is set
    /// and the reader does not advance.
    Status next(Record& rec) {
        if (pos >= data.size()) return Status::End;
        rec.start = pos;
        if (data.size() - pos < 4) return Status::TornPrefix;
        const std::uint32_t len = read_u32le(data.data() + pos);
        if (len == 0) return Status::ZeroLength;
        if (len > data.size() - pos - 4) return Status::Overrun;
        rec.payload = data.substr(pos + 4, len);
        pos += 4 + static_cast<std::size_t>(len);
        return Status::Ok;
    }
};

}  // namespace iocov::trace::detail
