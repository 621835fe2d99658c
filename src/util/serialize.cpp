#include "util/serialize.hpp"

#include <array>
#include <cstdio>
#include <cstring>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/faults.hpp"

namespace deterrent::util {

// ------------------------------------------------------------- writer -----

void BinaryWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinaryWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinaryWriter::f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u32(bits);
}

void BinaryWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void BinaryWriter::str(const std::string& s) {
  u64(s.size());
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void BinaryWriter::bitvec(const BitVec& bv) {
  u64(bv.size());
  for (std::size_t w = 0; w < bv.word_count(); ++w) u64(bv.word(w));
}

void BinaryWriter::f32_vec(std::span<const float> v) {
  seq(v, 4, [this](float x) { f32(x); });
}

void BinaryWriter::bitvec_vec(std::span<const BitVec> v) {
  seq(v, 8, [this](const BitVec& bv) { bitvec(bv); });
}

// ------------------------------------------------------------- reader -----

void BinaryReader::need(std::size_t n) const {
  // Compare via subtraction: pos_ + n could wrap for forged length prefixes.
  if (n > bytes_.size() - pos_)
    throw CorruptArtifactError("artifact payload truncated: need " + std::to_string(n) +
                " bytes at offset " + std::to_string(pos_) + ", have " +
                std::to_string(bytes_.size() - pos_));
}

void BinaryReader::u8(std::uint8_t& v) {
  need(1);
  v = bytes_[pos_++];
}

void BinaryReader::u32(std::uint32_t& v) {
  need(4);
  v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
}

void BinaryReader::u64(std::uint64_t& v) {
  need(8);
  v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
}

void BinaryReader::i32(std::int32_t& v) {
  std::uint32_t bits = 0;
  u32(bits);
  v = static_cast<std::int32_t>(bits);
}

void BinaryReader::i64(std::int64_t& v) {
  std::uint64_t bits = 0;
  u64(bits);
  v = static_cast<std::int64_t>(bits);
}

void BinaryReader::f32(float& v) {
  std::uint32_t bits = 0;
  u32(bits);
  std::memcpy(&v, &bits, sizeof(v));
}

void BinaryReader::f64(double& v) {
  std::uint64_t bits = 0;
  u64(bits);
  std::memcpy(&v, &bits, sizeof(v));
}

void BinaryReader::boolean(bool& v) {
  std::uint8_t b = 0;
  u8(b);
  v = b != 0;
}

void BinaryReader::str(std::string& s) {
  std::uint64_t n = 0;
  u64(n);
  need(n);
  s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
}

void BinaryReader::bitvec(BitVec& bv) {
  std::uint64_t n_bits = 0;
  u64(n_bits);
  // Bound the length prefix by the bytes actually present BEFORE allocating:
  // a corrupt/forged count must throw Error, not bad_alloc (and the
  // division-form comparison cannot overflow).
  const std::uint64_t n_words = n_bits / 64 + (n_bits % 64 != 0 ? 1 : 0);
  if (n_words > remaining() / 8)
    throw CorruptArtifactError("artifact bitvec claims " + std::to_string(n_bits) +
                " bits but only " + std::to_string(remaining()) + " bytes remain");
  bv = BitVec(n_bits);
  for (std::size_t w = 0; w < bv.word_count(); ++w) {
    std::uint64_t word = 0;
    u64(word);
    // Reject set bits beyond size(): the writer always trims, so spurious
    // tail bits mean corruption that CRC happened to miss or a forged file.
    if (w + 1 == bv.word_count() && n_bits % 64 != 0 &&
        (word & ~(~0ULL >> (64 - n_bits % 64))) != 0)
      throw CorruptArtifactError("artifact bitvec has bits set beyond its length");
    bv.set_word(w, word);
  }
}

std::size_t BinaryReader::count(std::size_t min_element_bytes) {
  DETERRENT_ASSERT(min_element_bytes > 0, "BinaryReader::seq: elements take bytes");
  std::uint64_t n = 0;
  u64(n);
  // Division form: an oversized count can neither overflow the byte total
  // nor reach an allocation.
  if (n > remaining() / min_element_bytes)
    throw CorruptArtifactError("artifact sequence claims " + std::to_string(n) +
                               " elements of at least " + std::to_string(min_element_bytes) +
                               " bytes but only " + std::to_string(remaining()) +
                               " bytes remain");
  return n;
}

void BinaryReader::f32_vec(std::vector<float>& v) {
  seq(v, 4, [this](float& x) { f32(x); });
}

void BinaryReader::bitvec_vec(std::vector<BitVec>& v) {
  seq(v, 8, [this](BitVec& bv) { bitvec(bv); });
}

void BinaryReader::expect_end() const {
  if (pos_ != bytes_.size())
    throw CorruptArtifactError("artifact payload has " + std::to_string(bytes_.size() - pos_) +
                " trailing bytes (format mismatch)");
}

// -------------------------------------------------------------- crc32 -----

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t b : bytes) crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

// ----------------------------------------------------------- envelope -----

namespace {

constexpr char kMagic[4] = {'D', 'E', 'T', 'A'};

/// Flushes file contents to stable storage before the rename publishes them.
/// Without this the rename can reach disk before the data does, and a power
/// loss leaves a complete-looking file full of garbage — exactly the torn
/// state the atomic-write contract promises cannot exist.
bool sync_file(std::FILE* f) {
#ifndef _WIN32
  if (std::fflush(f) != 0) return false;
  return ::fsync(::fileno(f)) == 0;
#else
  return std::fflush(f) == 0;
#endif
}

/// Best-effort fsync of the directory holding `path`, so the rename itself
/// (the directory entry) is durable too. Failure is ignored: not every
/// filesystem supports directory fsync, and the file-level sync already
/// guarantees no torn *content*.
void sync_parent_dir(const std::string& path) {
#ifndef _WIN32
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

/// Applies an injected torn-write to the finished tmp file: truncation (the
/// tail never reached disk) or a single flipped bit (silent media corruption).
/// The file is then renamed into place as usual — producing exactly the
/// on-disk state a real crash could leave, for the recovery layer to detect.
void apply_torn_write(const std::string& tmp, faults::Action action,
                      std::uint64_t corrupt_seed) {
  std::FILE* f = std::fopen(tmp.c_str(), "r+b");
  if (f == nullptr) return;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size > 0) {
    if (action == faults::Action::TornTruncate) {
      std::fclose(f);
#ifndef _WIN32
      ::truncate(tmp.c_str(), size / 2);
#endif
      return;
    }
    const long pos = static_cast<long>(corrupt_seed % static_cast<std::uint64_t>(size));
    std::fseek(f, pos, SEEK_SET);
    const int byte = std::fgetc(f);
    if (byte != EOF) {
      std::fseek(f, pos, SEEK_SET);
      std::fputc(byte ^ (1 << (corrupt_seed % 8)), f);
    }
  }
  std::fclose(f);
}

}  // namespace

void write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes,
                       const char* fault_site) {
  // Injected faults: Throw/Hang fire here; torn actions are applied to the
  // finished file below, modeling a crash the write-then-rename protocol
  // could not mask.
  const faults::detail::WriteFault torn =
      (fault_site != nullptr && faults::armed()) ? faults::detail::on_write(fault_site)
                                                 : faults::detail::WriteFault{};

  // Write-then-fsync-then-rename so a crash (or kill, or power loss) mid-save
  // can never leave a half-written file under the final name — it either
  // exists completely or not at all.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw TransientError("cannot write file " + tmp);
  bool ok =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = sync_file(f) && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw TransientError("short write to file " + tmp);
  }
  if (torn.action == faults::Action::TornTruncate ||
      torn.action == faults::Action::TornBitFlip)
    apply_torn_write(tmp, torn.action, torn.corrupt_seed);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw TransientError("cannot move file into place at " + path);
  }
  sync_parent_dir(path);
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw TransientError("cannot open file " + path);
  std::vector<std::uint8_t> raw;
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
    raw.insert(raw.end(), chunk, chunk + n);
  std::fclose(f);
  return raw;
}

void write_artifact_file(const std::string& path, const ArtifactHeader& header,
                         std::span<const std::uint8_t> payload) {
  BinaryWriter file;
  file.u8(static_cast<std::uint8_t>(kMagic[0]));
  file.u8(static_cast<std::uint8_t>(kMagic[1]));
  file.u8(static_cast<std::uint8_t>(kMagic[2]));
  file.u8(static_cast<std::uint8_t>(kMagic[3]));
  file.u32(header.kind);
  file.u32(header.version);
  file.u64(header.fingerprint);
  file.u64(payload.size());
  file.raw(payload);
  file.u32(crc32(payload));
  write_file_atomic(path, file.bytes(), "serialize.write_artifact");
}

std::vector<std::uint8_t> read_artifact_file(const std::string& path,
                                             const ArtifactHeader& expected,
                                             std::uint64_t* fingerprint_out) {
  const std::vector<std::uint8_t> raw = read_file_bytes(path);
  BinaryReader r(raw);
  try {
    for (const char m : kMagic) {
      std::uint8_t b = 0;
      r.u8(b);
      if (b != static_cast<std::uint8_t>(m))
        throw CorruptArtifactError("bad magic (not a DETERRENT artifact)");
    }
    std::uint32_t kind = 0, version = 0;
    std::uint64_t fingerprint = 0, payload_size = 0;
    r.u32(kind);
    r.u32(version);
    r.u64(fingerprint);
    r.u64(payload_size);
    if (kind != expected.kind)
      throw CorruptArtifactError("artifact kind mismatch: file has " + std::to_string(kind) +
                  ", expected " + std::to_string(expected.kind));
    if (version != expected.version)
      throw CorruptArtifactError("artifact version mismatch: file has v" + std::to_string(version) +
                  ", this build reads v" + std::to_string(expected.version));
    if (expected.fingerprint != 0 && fingerprint != expected.fingerprint)
      throw CorruptArtifactError("netlist fingerprint mismatch: artifact was built for a different "
                  "circuit (file " +
                  std::to_string(fingerprint) + ", netlist " +
                  std::to_string(expected.fingerprint) + ")");
    if (fingerprint_out != nullptr) *fingerprint_out = fingerprint;
    const std::size_t header_size = raw.size() - r.remaining();
    // Guard the raw size first — `payload_size + 4` could wrap for a forged
    // size field, and every failure here must be Error, not UB/length_error.
    if (payload_size > r.remaining())
      throw CorruptArtifactError("truncated: payload claims " + std::to_string(payload_size) +
                  " bytes, file holds " + std::to_string(r.remaining()));
    if (r.remaining() - payload_size != 4)
      throw CorruptArtifactError(r.remaining() - payload_size < 4
                      ? "truncated: CRC missing"
                      : "artifact has trailing bytes after CRC");
    std::vector<std::uint8_t> payload(
        raw.begin() + static_cast<std::ptrdiff_t>(header_size),
        raw.begin() + static_cast<std::ptrdiff_t>(header_size + payload_size));
    std::uint32_t stored_crc = 0;
    BinaryReader(std::span<const std::uint8_t>(raw.data() + header_size + payload_size, 4))
        .u32(stored_crc);
    if (stored_crc != crc32(payload))
      throw CorruptArtifactError("CRC mismatch (artifact corrupt)");
    return payload;
  } catch (const Error& e) {
    // Every failure inside the envelope walk means the bytes on disk are not a
    // valid artifact — rethrow with the path, preserving the corrupt taxonomy
    // so the session layer knows to quarantine rather than retry.
    throw CorruptArtifactError(std::string("artifact ") + path + ": " + e.what());
  }
}

}  // namespace deterrent::util
