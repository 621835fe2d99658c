#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/bitvec.hpp"

namespace deterrent::util {

/// Little-endian binary codec for the pipeline's serializable artifacts.
///
/// BinaryWriter and BinaryReader share their method names: the writer takes
/// each field by value, the reader loads into it by reference. So one generic
/// field list, `template <class IO> void fields(IO& io, T& value)`, states a
/// payload layout once and serves both directions (core/artifacts.cpp holds
/// every artifact's list). A sequence is a u64 count followed by its
/// elements; BinaryReader::seq bounds every count before it allocates.
///
/// The writer appends into an in-memory byte buffer; write_artifact_file()
/// frames it with the header + CRC envelope and writes it to disk.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// An enum in one byte; `last` (its largest enumerator) bounds the load.
  template <class E>
  void enum8(E e, E /*last*/) {
    u8(static_cast<std::uint8_t>(e));
  }
  /// Length-prefixed UTF-8 bytes.
  void str(const std::string& s);
  /// Raw bytes, verbatim, no length prefix (envelope assembly).
  void raw(std::span<const std::uint8_t> v) {
    bytes_.insert(bytes_.end(), v.begin(), v.end());
  }
  /// Length-prefixed bit count + words.
  void bitvec(const BitVec& bv);

  /// u64 count, then `each(element)` per element. `min_element_bytes` is the
  /// reader's bound (see BinaryReader::seq); the writer ignores it.
  template <class Range, class Each>
  void seq(const Range& v, std::size_t /*min_element_bytes*/, Each each) {
    u64(v.size());
    for (const auto& x : v) each(x);
  }
  void f32_vec(std::span<const float> v);
  void bitvec_vec(std::span<const BitVec> v);

  std::span<const std::uint8_t> bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked decoder over a byte buffer. Every overrun, oversized count
/// or out-of-range enum throws CorruptArtifactError: a truncated or forged
/// artifact must fail loudly, never yield garbage state or a failed huge
/// allocation.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  void u8(std::uint8_t& v);
  void u32(std::uint32_t& v);
  void u64(std::uint64_t& v);
  void i32(std::int32_t& v);
  void i64(std::int64_t& v);
  void f32(float& v);
  void f64(double& v);
  void boolean(bool& v);
  /// Enums are stored as 0..last; any other byte is corruption.
  template <class E>
  void enum8(E& e, E last) {
    std::uint8_t b = 0;
    u8(b);
    if (b > static_cast<std::uint8_t>(last))
      throw CorruptArtifactError("artifact enum byte " + std::to_string(b) +
                                 " is out of range 0.." +
                                 std::to_string(static_cast<std::uint8_t>(last)));
    e = static_cast<E>(b);
  }
  void str(std::string& s);
  void bitvec(BitVec& bv);

  /// Replaces `v` with a u64 count of elements, each loaded by `each`. The
  /// one place a count is bounded: every element takes at least
  /// `min_element_bytes` (> 0), so a count the remaining bytes cannot hold
  /// throws before anything is allocated.
  template <class T, class Each>
  void seq(std::vector<T>& v, std::size_t min_element_bytes, Each each) {
    const std::size_t n = count(min_element_bytes);
    v.clear();
    v.resize(n);
    for (auto& x : v) each(x);
  }
  void f32_vec(std::vector<float>& v);
  void bitvec_vec(std::vector<BitVec>& v);

  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Throws unless the whole buffer was consumed (trailing bytes mean the
  /// reader and writer disagree about the format).
  void expect_end() const;

 private:
  void need(std::size_t n) const;
  /// Reads a sequence count and checks it against the remaining bytes.
  std::size_t count(std::size_t min_element_bytes);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected) — the integrity check of the artifact
/// envelope.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Incremental FNV-1a over 64-bit words — the one implementation behind the
/// netlist structural fingerprint and the artifact content hashes, so the
/// constants can never drift between them.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;

  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  }

  /// Finished hash with 0 remapped to 1 — artifact headers use 0 as the
  /// "no fingerprint / skip the check" sentinel.
  std::uint64_t value_nonzero() const { return h == 0 ? 1 : h; }
};

/// Atomically publishes raw bytes at `path` via the same
/// write-then-fsync-then-rename protocol as write_artifact_file, so a crash
/// mid-write can never leave a torn file under the final name. `fault_site`,
/// when non-null, names the injection site consulted for throw/hang/torn
/// actions (see util/faults.hpp); the artifact cache routes through here
/// with its own site.
void write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes,
                       const char* fault_site = nullptr);

/// Whole-file read; throws TransientError when the file cannot be opened
/// (existence says nothing about validity — callers envelope-check the bytes).
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

/// On-disk artifact envelope:
///
///   magic   "DETA"                     4 bytes
///   kind    u32                        artifact discriminator
///   version u32                        format version of the payload
///   fingerprint u64                    structural netlist fingerprint
///   payload_size u64
///   payload                            payload_size bytes
///   crc     u32                        CRC-32 of the payload
///
/// Versioning policy: `version` identifies the payload *layout* (the
/// pipeline pins it to core::kArtifactFormatVersion, bumped on any layout
/// change); `kind` is the payload *type* (core::ArtifactKind). Readers pin
/// both and reject everything else — there is no cross-version migration
/// path, stale artifacts are regenerated. `fingerprint` binds the file to
/// one netlist structure; 0 is the "no fingerprint / skip the check"
/// sentinel (see Fnv1a::value_nonzero).
///
/// All failure modes (missing file, bad magic, wrong kind, version skew,
/// fingerprint mismatch, truncation, CRC mismatch, trailing bytes) throw
/// deterrent::Error with the offending path in the message. Integers are
/// little-endian on disk regardless of host order.
struct ArtifactHeader {
  std::uint32_t kind = 0;
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;
};

/// Writes envelope + payload atomically (temp file, then rename), so a
/// crash mid-save can never leave a half-written artifact at `path`.
void write_artifact_file(const std::string& path, const ArtifactHeader& header,
                         std::span<const std::uint8_t> payload);

/// Reads and validates an artifact file. `expected` pins kind and version;
/// when `expected.fingerprint` is non-zero it must match the stored one.
/// Returns the payload bytes (envelope verified, CRC checked).
std::vector<std::uint8_t> read_artifact_file(const std::string& path,
                                             const ArtifactHeader& expected,
                                             std::uint64_t* fingerprint_out = nullptr);

}  // namespace deterrent::util
