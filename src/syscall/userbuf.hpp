// User-buffer descriptors for read/write syscalls.
//
// A real syscall takes a pointer into user memory.  We model three
// possibilities: a real buffer (span), a synthetic fill pattern (lets
// workloads issue multi-hundred-MiB writes in O(1) memory — the paper's
// Fig. 3 reaches 258 MiB), and a bad address (makes EFAULT reachable).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace iocov::syscall {

/// Data source for write/pwrite64/writev.
class WriteSrc {
  public:
    enum class Kind : std::uint8_t { Real, Pattern, BadAddr };

    /// Real bytes (contents are stored and can be read back verbatim).
    static WriteSrc real(std::span<const std::byte> bytes) {
        WriteSrc s;
        s.kind_ = Kind::Real;
        s.bytes_ = bytes;
        s.len_ = bytes.size();
        return s;
    }
    /// `len` copies of `fill`, never materialized.
    static WriteSrc pattern(std::uint64_t len, std::byte fill) {
        WriteSrc s;
        s.kind_ = Kind::Pattern;
        s.fill_ = fill;
        s.len_ = len;
        return s;
    }
    /// An invalid user pointer of nominal length `len` (-> EFAULT).
    static WriteSrc bad_address(std::uint64_t len) {
        WriteSrc s;
        s.kind_ = Kind::BadAddr;
        s.len_ = len;
        return s;
    }

    Kind kind() const { return kind_; }
    std::uint64_t len() const { return len_; }
    std::span<const std::byte> bytes() const { return bytes_; }
    std::byte fill() const { return fill_; }

  private:
    Kind kind_ = Kind::Pattern;
    std::span<const std::byte> bytes_;
    std::byte fill_{0};
    std::uint64_t len_ = 0;
};

/// Destination for read/pread64/readv.
class ReadDst {
  public:
    enum class Kind : std::uint8_t { Real, Discard, BadAddr };

    static ReadDst real(std::span<std::byte> bytes) {
        ReadDst d;
        d.kind_ = Kind::Real;
        d.bytes_ = bytes;
        d.len_ = bytes.size();
        return d;
    }
    /// Reads (and discards) `len` bytes without a caller buffer.
    static ReadDst discard(std::uint64_t len) {
        ReadDst d;
        d.kind_ = Kind::Discard;
        d.len_ = len;
        return d;
    }
    static ReadDst bad_address(std::uint64_t len) {
        ReadDst d;
        d.kind_ = Kind::BadAddr;
        d.len_ = len;
        return d;
    }

    Kind kind() const { return kind_; }
    std::uint64_t len() const { return len_; }
    std::span<std::byte> bytes() const { return bytes_; }

  private:
    Kind kind_ = Kind::Discard;
    std::span<std::byte> bytes_;
    std::uint64_t len_ = 0;
};

}  // namespace iocov::syscall
