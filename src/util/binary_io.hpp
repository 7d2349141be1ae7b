#pragma once

/// \file binary_io.hpp
/// Little-endian binary encoding primitives shared by every durable or
/// opaque byte format in the library: the checkpoint file format (ckpt/),
/// the sweep journal (sweep/), and the nest-workload state blobs that ride
/// opaquely inside coupled checkpoints (wsim/workload.hpp).
///
/// BinaryWriter appends typed values to a growable byte buffer;
/// BinaryReader consumes them back with hard bounds checks — every read
/// past the end throws CheckError naming the field being read and the
/// offset, so a truncated checkpoint is rejected with a descriptive error
/// instead of returning garbage. Doubles are encoded by bit pattern
/// (std::bit_cast), so serialize → deserialize round-trips are
/// *byte*-identical: a resumed run's floating-point state matches the
/// uninterrupted run exactly, -0.0 and NaN payloads included.
///
/// The encoding is explicitly little-endian regardless of host byte order,
/// making checkpoint files portable across machines.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace stormtrack {

/// Append-only typed encoder; see file comment.
class BinaryWriter {
 public:
  void put_u8(std::uint8_t v) { buffer_.push_back(static_cast<std::byte>(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }

  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed string (u32 length + raw bytes).
  void put_string(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    buffer_.insert(buffer_.end(), p, p + s.size());
  }

  void put_bytes(std::span<const std::byte> bytes) {
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  }

  /// Doubles in bulk, the same bytes as put_f64 on each element (no length
  /// prefix): one memcpy on little-endian hosts.
  void put_f64_array(std::span<const double> values) {
    if constexpr (std::endian::native == std::endian::little) {
      const auto* p = reinterpret_cast<const std::byte*>(values.data());
      buffer_.insert(buffer_.end(), p, p + values.size_bytes());
    } else {
      for (const double v : values) put_f64(v);
    }
  }

  /// Container element count; pairs with BinaryReader::get_count.
  void put_count(std::size_t n) { put_u64(n); }

  /// Overwrite the 8 bytes at \p offset (already written) with \p v: for
  /// size fields known only once what follows them is encoded.
  void patch_u64(std::size_t offset, std::uint64_t v) {
    ST_CHECK_MSG(offset + 8 <= buffer_.size(),
                 "patch at offset " << offset << " past the end of a "
                                    << buffer_.size() << "-byte buffer");
    store_le(buffer_.data() + offset, v);
  }

  void reserve(std::size_t n) { buffer_.reserve(n); }

  [[nodiscard]] const std::vector<std::byte>& bytes() const { return buffer_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  template <typename U>
  static void store_le(std::byte* dst, U v) {
    for (std::size_t i = 0; i < sizeof(U); ++i)
      dst[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
  }

  /// Append \p v little-endian with one grow of the buffer.
  template <typename U>
  void put_le(U v) {
    const std::size_t at = buffer_.size();
    buffer_.resize(at + sizeof(U));
    store_le(buffer_.data() + at, v);
  }

  std::vector<std::byte> buffer_;
};

/// Bounds-checked typed decoder; see file comment. The view must outlive
/// the reader.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - offset_;
  }
  [[nodiscard]] bool exhausted() const { return offset_ == bytes_.size(); }

  /// Read \p n raw bytes as a field named \p what (for error messages).
  [[nodiscard]] std::span<const std::byte> get_bytes(std::size_t n,
                                                     std::string_view what) {
    ST_CHECK_MSG(remaining() >= n,
                 "truncated data: reading " << what << " (" << n
                                            << " bytes) at offset " << offset_
                                            << " of " << bytes_.size());
    const auto out = bytes_.subspan(offset_, n);
    offset_ += n;
    return out;
  }

  [[nodiscard]] std::uint8_t get_u8(std::string_view what) {
    return static_cast<std::uint8_t>(get_bytes(1, what)[0]);
  }

  [[nodiscard]] bool get_bool(std::string_view what) {
    const std::uint8_t v = get_u8(what);
    ST_CHECK_MSG(v <= 1, "corrupt data: " << what << " is " << int{v}
                                          << ", expected 0 or 1");
    return v != 0;
  }

  [[nodiscard]] std::uint32_t get_u32(std::string_view what) {
    const auto b = get_bytes(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    return v;
  }

  [[nodiscard]] std::uint64_t get_u64(std::string_view what) {
    const auto b = get_bytes(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
  }

  [[nodiscard]] std::int32_t get_i32(std::string_view what) {
    return static_cast<std::int32_t>(get_u32(what));
  }
  [[nodiscard]] std::int64_t get_i64(std::string_view what) {
    return static_cast<std::int64_t>(get_u64(what));
  }
  [[nodiscard]] double get_f64(std::string_view what) {
    return std::bit_cast<double>(get_u64(what));
  }

  /// Fill \p out with doubles written by put_f64_array (one memcpy on
  /// little-endian hosts); throws CheckError naming \p what when fewer
  /// than out.size() doubles remain.
  void get_f64_array(std::span<double> out, std::string_view what) {
    const auto b = get_bytes(out.size_bytes(), what);
    if constexpr (std::endian::native == std::endian::little) {
      if (!out.empty()) std::memcpy(out.data(), b.data(), b.size());
    } else {
      BinaryReader r(b);
      for (double& v : out) v = r.get_f64(what);
    }
  }

  [[nodiscard]] std::string get_string(std::string_view what) {
    const std::uint32_t n = get_u32(what);
    const auto b = get_bytes(n, what);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  /// Element count of a container field, sanity-capped so a corrupt length
  /// prefix fails loudly instead of attempting a huge allocation.
  [[nodiscard]] std::size_t get_count(std::string_view what,
                                      std::size_t max = 1u << 28) {
    const std::uint64_t n = get_u64(what);
    ST_CHECK_MSG(n <= max, "corrupt data: " << what << " count " << n
                                            << " exceeds sanity cap " << max);
    return static_cast<std::size_t>(n);
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace stormtrack
