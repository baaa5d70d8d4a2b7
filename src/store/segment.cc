#include "store/segment.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "store/mmap_file.h"
#include "store/varint.h"

namespace sprite::store {

namespace {

Status Corrupt(const std::string& path, const char* what) {
  return Status::Corruption("segment " + path + ": " + what);
}

void PutFixed32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t GetFixed32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

std::vector<uint8_t> BuildSegment(
    p2p::PeerId peer_id, const std::vector<SegmentRecordIn>& records) {
  std::vector<uint8_t> out(kSegmentMagic,
                           kSegmentMagic + sizeof(kSegmentMagic));
  PutVarint64(out, peer_id);
  PutVarint64(out, records.size());
  for (const SegmentRecordIn& r : records) {
    PutVarint64(out, r.term.size());
    out.insert(out.end(), r.term.begin(), r.term.end());
    PutVarint64(out, r.version);
    const size_t blob_size = r.tombstone ? 0 : r.blob.size();
    PutVarint64(out, blob_size);
    if (blob_size > 0) {
      out.insert(out.end(), r.blob.begin(), r.blob.end());
    }
  }
  PutFixed32(out, Crc32(out.data(), out.size()));
  return out;
}

uint32_t SegmentCrc(const std::vector<uint8_t>& image) {
  return image.size() < 4 ? 0 : GetFixed32(image.data() + image.size() - 4);
}

Status WriteFileAtomic(const std::string& path,
                       const std::vector<uint8_t>& image) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Unavailable(tmp + ": " + std::strerror(errno));
  }
  const size_t wrote = image.empty()
                           ? 0
                           : std::fwrite(image.data(), 1, image.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (wrote != image.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::Unavailable(tmp + ": short write");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    return Status::Unavailable(path + ": rename: " + std::strerror(err));
  }
  return Status::OK();
}

StatusOr<std::vector<SegmentRecord>> ReadSegment(const std::string& path,
                                                 p2p::PeerId expected_peer,
                                                 const uint32_t* expected_crc) {
  StatusOr<std::shared_ptr<const MemoryMappedFile>> mapped =
      MemoryMappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();
  const std::shared_ptr<const MemoryMappedFile>& file = mapped.value();
  const uint8_t* data = file->data();
  const size_t size = file->size();

  if (size < sizeof(kSegmentMagic) + 4) return Corrupt(path, "truncated");
  if (std::memcmp(data, kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Corrupt(path, "bad magic");
  }
  const uint32_t stored_crc = GetFixed32(data + size - 4);
  const uint32_t actual_crc = Crc32(data, size - 4);
  if (stored_crc != actual_crc) return Corrupt(path, "checksum mismatch");
  if (expected_crc != nullptr && *expected_crc != stored_crc) {
    return Corrupt(path, "checksum differs from manifest");
  }

  const size_t limit = size - 4;
  size_t pos = sizeof(kSegmentMagic);
  uint64_t peer_id = 0, record_count = 0;
  if (!GetVarint64(data, limit, &pos, &peer_id)) {
    return Corrupt(path, "peer id");
  }
  if (peer_id != expected_peer) return Corrupt(path, "wrong peer id");
  if (!GetVarint64(data, limit, &pos, &record_count)) {
    return Corrupt(path, "record count");
  }
  if (record_count > limit) return Corrupt(path, "record count out of range");

  std::vector<SegmentRecord> records;
  records.reserve(static_cast<size_t>(record_count));
  for (uint64_t i = 0; i < record_count; ++i) {
    uint64_t term_len = 0;
    if (!GetVarint64(data, limit, &pos, &term_len) ||
        term_len > limit - pos) {
      return Corrupt(path, "term length");
    }
    SegmentRecord record;
    record.term.assign(reinterpret_cast<const char*>(data + pos),
                       static_cast<size_t>(term_len));
    pos += static_cast<size_t>(term_len);
    if (!GetVarint64(data, limit, &pos, &record.version)) {
      return Corrupt(path, "term version");
    }
    uint64_t blob_len = 0;
    if (!GetVarint64(data, limit, &pos, &blob_len) ||
        blob_len > limit - pos) {
      return Corrupt(path, "blob length");
    }
    if (blob_len == 0) {
      record.tombstone = true;
    } else {
      record.blob = BytesRef(data + pos, static_cast<size_t>(blob_len), file);
      pos += static_cast<size_t>(blob_len);
    }
    records.push_back(std::move(record));
  }
  if (pos != limit) return Corrupt(path, "trailing bytes");
  return records;
}

}  // namespace sprite::store
