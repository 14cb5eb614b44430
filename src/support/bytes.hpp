#pragma once
// The byte codec: the one place values become bytes and bytes become values
// again. Factor files (core/serialize), every simulated-rank payload (the
// typed sends, receives and collectives of par/simcomm and the packed
// messages of the SPMD bodies) and the tournament's candidate columns
// (qrtp/panel, through the CSC-array codec next to CscMatrix) all go
// through it.
//
// Layout: each value in host byte order and representation, fields back to
// back with no padding; a vector is its u64 element count followed by its
// elements; an array (put_array / get_array) is its elements alone, for a
// reader that knows the count. Neither files nor payloads are portable
// across endianness.
//
// Every ByteReader read checks the bytes left and throws std::out_of_range
// on truncated or malformed input: a corrupted length or dimension must
// never turn into a memcpy past the buffer end or an allocation the input
// cannot back. spmd::run_world maps that exception to Status::kCommFault
// under a fault plan; the factor-file loaders rethrow it as a
// std::runtime_error naming the file.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace lra {

class ByteWriter {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t off = buf_.size();
    buf_.resize(off + sizeof(T));
    std::memcpy(buf_.data() + off, &v, sizeof(T));
  }
  template <typename T>
  void put_vec(const std::vector<T>& v) {
    put_span(std::span<const T>(v));
  }
  /// Same layout as put_vec: read back with ByteReader::get_vec.
  template <typename T>
  void put_span(std::span<const T> v) {
    put<std::uint64_t>(v.size());
    put_array(v);
  }
  /// The elements alone, with no count in front.
  template <typename T>
  void put_array(std::span<const T> v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (v.empty()) return;  // memcpy must not see a null pointer
    const std::size_t off = buf_.size();
    buf_.resize(off + v.size_bytes());
    std::memcpy(buf_.data() + off, v.data(), v.size_bytes());
  }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Reader over a packed payload or file image (see the file comment).
class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::byte>& b) : buf_(b) {}
  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> get_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get<std::uint64_t>();
    // Guard the multiply too: a corrupted prefix like 2^61 would overflow
    // n * sizeof(T) before the bounds check.
    if (n > left<T>())
      throw std::out_of_range(
          "ByteReader: vector length " + std::to_string(n) + " of " +
          std::to_string(sizeof(T)) + "-byte elements exceeds the " +
          std::to_string(buf_.size() - pos_) + " bytes remaining");
    return elements<T>(n);
  }
  /// The rows x cols elements of an array written by put_array (a dense
  /// matrix section, whose dimensions the caller read first). The product
  /// is checked against the bytes left without overflowing, before anything
  /// is allocated.
  template <typename T>
  std::vector<T> get_array(std::uint64_t rows, std::uint64_t cols) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (rows > 0 && cols > left<T>() / rows)
      throw std::out_of_range(
          "ByteReader: " + std::to_string(rows) + " x " +
          std::to_string(cols) + " array of " + std::to_string(sizeof(T)) +
          "-byte elements exceeds the " + std::to_string(buf_.size() - pos_) +
          " bytes remaining");
    return elements<T>(rows * cols);
  }
  bool done() const { return pos_ == buf_.size(); }

 private:
  void require(std::size_t bytes) const {
    if (bytes > buf_.size() - pos_)
      throw std::out_of_range("ByteReader: truncated payload: need " +
                              std::to_string(bytes) + " bytes at offset " +
                              std::to_string(pos_) + " of " +
                              std::to_string(buf_.size()));
  }
  /// Whole T elements left to read.
  template <typename T>
  std::uint64_t left() const {
    return (buf_.size() - pos_) / sizeof(T);
  }
  /// The next n elements; n <= left<T>() is checked by the caller.
  template <typename T>
  std::vector<T> elements(std::uint64_t n) {
    std::vector<T> v(n);
    if (n == 0) return v;  // memcpy must not see a null pointer
    std::memcpy(v.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  const std::vector<std::byte>& buf_;
  std::size_t pos_ = 0;
};

// --- untagged arrays: a payload that is one array and nothing else ---

/// The bytes of `v`'s elements (put_array's layout).
template <typename T>
std::vector<std::byte> to_bytes(std::span<const T> v) {
  ByteWriter w;
  w.put_array(v);
  return w.take();
}

/// Append the elements `b` holds in put_array's layout to `out` (a trailing
/// partial element is ignored). Gathers call it blob by blob, so `out` grows
/// geometrically: one zero-filled allocation of the total made the LU legs
/// of distributed_np4 ~4% slower.
template <typename T>
void append_from_bytes(std::vector<T>& out, std::span<const std::byte> b) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t n = b.size() / sizeof(T);
  if (n == 0) return;  // memcpy must not see a null pointer
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, b.data(), n * sizeof(T));
}

/// Element i of the elements `b` holds in put_array's layout, read in place
/// (no alignment assumed): a fold over a payload needs no decoded copy.
/// @pre (i + 1) * sizeof(T) <= b.size()
template <typename T>
T element_at(std::span<const std::byte> b, std::size_t i) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, b.data() + i * sizeof(T), sizeof(T));
  return v;
}

}  // namespace lra
