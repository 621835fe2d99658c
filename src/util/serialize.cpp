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
  u64(v.size());
  for (const auto x : v) f32(x);
}

void BinaryWriter::bitvec_vec(std::span<const BitVec> v) {
  u64(v.size());
  for (const auto& bv : v) bitvec(bv);
}

// ------------------------------------------------------------- reader -----

void BinaryReader::need(std::size_t n) const {
  // Compare via subtraction: pos_ + n could wrap for forged length prefixes.
  if (n > bytes_.size() - pos_)
    throw CorruptArtifactError("artifact payload truncated: need " + std::to_string(n) +
                " bytes at offset " + std::to_string(pos_) + ", have " +
                std::to_string(bytes_.size() - pos_));
}

std::uint8_t BinaryReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t BinaryReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t BinaryReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
  return v;
}

float BinaryReader::f32() {
  const std::uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double BinaryReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BinaryReader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

BitVec BinaryReader::bitvec() {
  const std::uint64_t n_bits = u64();
  // Bound the length prefix by the bytes actually present BEFORE allocating:
  // a corrupt/forged count must throw Error, not bad_alloc (and the
  // division-form comparison cannot overflow).
  const std::uint64_t n_words = n_bits / 64 + (n_bits % 64 != 0 ? 1 : 0);
  if (n_words > remaining() / 8)
    throw CorruptArtifactError("artifact bitvec claims " + std::to_string(n_bits) +
                " bits but only " + std::to_string(remaining()) + " bytes remain");
  BitVec bv(n_bits);
  for (std::size_t w = 0; w < bv.word_count(); ++w) {
    const std::uint64_t word = u64();
    // Reject set bits beyond size(): the writer always trims, so spurious
    // tail bits mean corruption that CRC happened to miss or a forged file.
    if (w + 1 == bv.word_count() && n_bits % 64 != 0 &&
        (word & ~(~0ULL >> (64 - n_bits % 64))) != 0)
      throw CorruptArtifactError("artifact bitvec has bits set beyond its length");
    bv.set_word(w, word);
  }
  return bv;
}

// The count guards below use division so oversized length prefixes can
// neither overflow the byte-count multiplication nor trigger a huge
// allocation — they throw Error like every other corruption.

std::vector<float> BinaryReader::f32_vec() {
  const std::uint64_t n = u64();
  if (n > remaining() / 4)
    throw CorruptArtifactError("artifact vector claims " + std::to_string(n) + " f32 elements but only " +
                std::to_string(remaining()) + " bytes remain");
  std::vector<float> v(n);
  for (auto& x : v) x = f32();
  return v;
}

std::vector<BitVec> BinaryReader::bitvec_vec() {
  const std::uint64_t n = u64();
  if (n > remaining() / 8)  // at least the length word of each element
    throw CorruptArtifactError("artifact vector claims " + std::to_string(n) +
                " bitvec elements but only " + std::to_string(remaining()) +
                " bytes remain");
  std::vector<BitVec> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(bitvec());
  return v;
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
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw TransientError("cannot open artifact file " + path);
  std::vector<std::uint8_t> raw;
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) raw.insert(raw.end(), chunk, chunk + n);
  std::fclose(f);

  BinaryReader r(raw);
  try {
    for (const char m : kMagic)
      if (r.u8() != static_cast<std::uint8_t>(m))
        throw CorruptArtifactError("bad magic (not a DETERRENT artifact)");
    const std::uint32_t kind = r.u32();
    if (kind != expected.kind)
      throw CorruptArtifactError("artifact kind mismatch: file has " + std::to_string(kind) +
                  ", expected " + std::to_string(expected.kind));
    const std::uint32_t version = r.u32();
    if (version != expected.version)
      throw CorruptArtifactError("artifact version mismatch: file has v" + std::to_string(version) +
                  ", this build reads v" + std::to_string(expected.version));
    const std::uint64_t fingerprint = r.u64();
    if (expected.fingerprint != 0 && fingerprint != expected.fingerprint)
      throw CorruptArtifactError("netlist fingerprint mismatch: artifact was built for a different "
                  "circuit (file " +
                  std::to_string(fingerprint) + ", netlist " +
                  std::to_string(expected.fingerprint) + ")");
    if (fingerprint_out != nullptr) *fingerprint_out = fingerprint;
    const std::uint64_t payload_size = r.u64();
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
    BinaryReader crc_reader(
        std::span<const std::uint8_t>(raw.data() + header_size + payload_size, 4));
    const std::uint32_t stored_crc = crc_reader.u32();
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
