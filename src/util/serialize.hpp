// Portable byte-oriented serialization used to persist trained models.
//
// Model bytes serve three purposes in the framework: (1) measuring the
// memory footprint that the constraint-aware controller trades off against
// accuracy, (2) feeding the SHA-256 integrity vault (Section 2.7 of the
// paper), and (3) the payloads of on-disk artifacts (util/artifact.hpp).
// The encoding is little-endian and versioned per model type.
//
// ByteReader is hardened against malformed input: every read — including
// the length prefixes of strings, vectors, and blobs — is bounds-checked
// against the remaining bytes *before* any allocation, so deserializing a
// truncated or corrupt artifact throws std::out_of_range instead of
// over-reading or attempting a multi-exabyte allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace drlhmd::util {

/// Append-only binary writer.
class ByteWriter {
 public:
  void write_u8(std::uint8_t v) { bytes_.push_back(v); }
  void write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
  void write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
  void write_i64(std::int64_t v) { write_raw(&v, sizeof v); }
  void write_f64(double v) { write_raw(&v, sizeof v); }

  void write_string(const std::string& s) {
    write_u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }

  /// Length-prefixed byte blob (wire-compatible with a u64 count followed
  /// by that many write_u8 calls).
  void write_bytes(std::span<const std::uint8_t> blob) {
    write_u64(blob.size());
    bytes_.insert(bytes_.end(), blob.begin(), blob.end());
  }

  void write_f64_vec(std::span<const double> v) {
    write_u64(v.size());
    for (double x : v) write_f64(x);
  }

  void write_u64_vec(std::span<const std::uint64_t> v) {
    write_u64(v.size());
    for (std::uint64_t x : v) write_u64(x);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }
  std::size_t size() const { return bytes_.size(); }

 private:
  void write_raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }

  std::vector<std::uint8_t> bytes_;
};

/// Sequential binary reader with bounds checking.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t read_u8() { return read_pod<std::uint8_t>(); }
  std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  std::int64_t read_i64() { return read_pod<std::int64_t>(); }
  double read_f64() { return read_pod<double>(); }

  std::string read_string() {
    const std::uint64_t n = read_u64();
    require(n, sizeof(char));
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Length-prefixed byte blob written by ByteWriter::write_bytes.
  std::vector<std::uint8_t> read_bytes() {
    const std::uint64_t n = read_u64();
    require(n, sizeof(std::uint8_t));
    std::vector<std::uint8_t> blob(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                   bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += static_cast<std::size_t>(n);
    return blob;
  }

  std::vector<double> read_f64_vec() {
    const std::uint64_t n = read_u64();
    require(n, sizeof(double));
    std::vector<double> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = read_f64();
    return v;
  }

  std::vector<std::uint64_t> read_u64_vec() {
    const std::uint64_t n = read_u64();
    require(n, sizeof(std::uint64_t));
    std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = read_u64();
    return v;
  }

  /// Element count written by ByteWriter::write_u64, checked before the
  /// caller allocates: throws std::invalid_argument when `count` elements
  /// of at least `min_elem_bytes` each cannot fit in the remaining input.
  std::size_t read_count(std::size_t min_elem_bytes) {
    const std::uint64_t n = read_u64();
    if (min_elem_bytes != 0 && n > remaining() / min_elem_bytes)
      throw std::invalid_argument("ByteReader: count exceeds remaining input");
    return static_cast<std::size_t>(n);
  }

  bool exhausted() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <typename T>
  T read_pod() {
    require(1, sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Check that `count` elements of `elem_size` bytes fit in the remaining
  /// input, without overflowing the product.
  void require(std::uint64_t count, std::size_t elem_size) {
    const std::uint64_t left = remaining();
    if (elem_size != 0 && count > left / elem_size)
      throw std::out_of_range("ByteReader: truncated input");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace drlhmd::util
