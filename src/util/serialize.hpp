#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/bitvec.hpp"

namespace deterrent::util {

/// Little-endian binary encoder for the pipeline's serializable artifacts.
/// Appends into an in-memory byte buffer; the buffer is framed and written
/// to disk by write_artifact_file(), which adds the header + CRC envelope.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed UTF-8 bytes.
  void str(const std::string& s);
  /// Raw bytes, verbatim, no length prefix (envelope assembly).
  void raw(std::span<const std::uint8_t> v) {
    bytes_.insert(bytes_.end(), v.begin(), v.end());
  }
  /// Length-prefixed bit count + words.
  void bitvec(const BitVec& bv);

  void f32_vec(std::span<const float> v);
  void bitvec_vec(std::span<const BitVec> v);

  std::span<const std::uint8_t> bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked decoder over a byte buffer. Every overrun throws
/// deterrent::Error — a truncated or corrupt artifact must fail loudly, never
/// yield garbage state.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32();
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();
  BitVec bitvec();

  std::vector<float> f32_vec();
  std::vector<BitVec> bitvec_vec();

  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Throws unless the whole buffer was consumed (trailing bytes mean the
  /// reader and writer disagree about the format).
  void expect_end() const;

 private:
  void need(std::size_t n) const;

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
