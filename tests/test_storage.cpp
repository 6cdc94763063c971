// Tests for the point-storage view (DESIGN.md §11): the three
// backends agree on content, the aligned point file serves zero-copy,
// and corrupt headers are rejected by name before any allocation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "data/file_format.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"
#include "data/storage.hpp"

namespace panda::data {
namespace {

PointSet make_points(std::uint64_t n, unsigned seed = 42) {
  return make_generator("gmm", seed)->generate_all(n);
}

/// Error message of an expression expected to throw panda::Error.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

void expect_same_points(const PointStorage& storage, const PointSet& points) {
  ASSERT_EQ(storage.dims(), points.dims());
  ASSERT_EQ(storage.size(), points.size());
  for (std::size_t d = 0; d < points.dims(); ++d) {
    const auto got = storage.coordinate(d);
    const auto want = points.coordinate(d);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size_bytes()), 0);
  }
  const auto ids = storage.ids();
  ASSERT_EQ(std::memcmp(ids.data(), points.ids().data(),
                        points.ids().size_bytes()),
            0);
}

/// Patches `bytes` of the file at byte offset `off`.
void patch_file(const std::string& path, std::uint64_t off, const void* bytes,
                std::size_t n) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekp(static_cast<std::streamoff>(off));
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
}

TEST(Storage, ViewAndOwnedMatchTheSet) {
  const PointSet points = make_points(500);
  const PointSetView view(points);
  expect_same_points(view, points);
  EXPECT_TRUE(view.resident());
  EXPECT_EQ(view.chunk_count(), 1u);

  OwnedStorage owned(make_points(500));
  expect_same_points(owned, points);
}

TEST(Storage, ResidentChunkProtocolMaterializesEverything) {
  const PointSet points = make_points(300);
  const PointSetView view(points);
  PointSet chunk(points.dims());
  std::vector<std::uint64_t> positions;
  view.read_chunk(0, chunk, &positions);
  expect_same_points(PointSetView(chunk), points);
  ASSERT_EQ(positions.size(), 300u);
  for (std::uint64_t i = 0; i < positions.size(); ++i)
    EXPECT_EQ(positions[i], i);

  const PointSet copy = view.to_point_set();
  expect_same_points(PointSetView(copy), points);
}

TEST(Storage, MmapServesTheAlignedFileZeroCopy) {
  const PointSet points = make_points(1234);
  const std::string path = ::testing::TempDir() + "/panda_points_mmap.pts";
  save_points(points, path);

  const MmapStorage mapped(path);
  expect_same_points(mapped, points);
  EXPECT_TRUE(mapped.resident());
  for (std::size_t d = 0; d < points.dims(); ++d) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped.coordinate(d).data()) %
                  64,
              0u)
        << "coordinate array " << d << " not 64-byte aligned in the map";
  }
  EXPECT_EQ(
      reinterpret_cast<std::uintptr_t>(mapped.ids().data()) % 64, 0u);
  std::remove(path.c_str());
}

TEST(Storage, MmapRefusesLegacyV1WithResaveHint) {
  // Hand-write a v1 (unaligned) file: 24-byte header, ids, coords.
  const std::string path = ::testing::TempDir() + "/panda_points_v1.pts";
  {
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t magic = 0x50414e4441505453ULL;
    const std::uint32_t version = 1, dims = 2;
    const std::uint64_t count = 3;
    out.write(reinterpret_cast<const char*>(&magic), 8);
    out.write(reinterpret_cast<const char*>(&version), 4);
    out.write(reinterpret_cast<const char*>(&dims), 4);
    out.write(reinterpret_cast<const char*>(&count), 8);
    const std::uint64_t ids[3] = {7, 8, 9};
    const float coords[6] = {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f};
    out.write(reinterpret_cast<const char*>(ids), sizeof(ids));
    out.write(reinterpret_cast<const char*>(coords), sizeof(coords));
  }
  // The zero-copy view refuses, naming the fix — and so does
  // load_points, which reads through the same view.
  for (const std::string& msg :
       {error_of([&] { MmapStorage m(path); }),
        error_of([&] { load_points(path); })}) {
    EXPECT_NE(msg.find("unsupported point file version 1"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("re-save"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(Storage, HeaderValidationNamesTheOffendingField) {
  const PointSet points = make_points(100);
  const std::string path = ::testing::TempDir() + "/panda_points_bad.pts";

  // Bad magic: "not a point file", from both entry points.
  save_points(points, path);
  const std::uint64_t garbage = 0xdeadbeefdeadbeefULL;
  patch_file(path, 0, &garbage, 8);
  EXPECT_NE(error_of([&] { load_points(path); })
                .find("not a PANDA point file"),
            std::string::npos);
  EXPECT_NE(error_of([&] { MmapStorage m(path); })
                .find("not a PANDA point file"),
            std::string::npos);

  // Byte-swapped magic: diagnosed as endianness, not garbage.
  save_points(points, path);
  const std::uint64_t swapped = __builtin_bswap64(0x50414e4441505453ULL);
  patch_file(path, 0, &swapped, 8);
  EXPECT_NE(error_of([&] { load_points(path); }).find("endianness"),
            std::string::npos);
  EXPECT_NE(error_of([&] { MmapStorage m(path); }).find("endianness"),
            std::string::npos);

  // dims beyond the believable bound (offset 12): named, and rejected
  // before the (dims * stride)-sized section math could misfire.
  save_points(points, path);
  const std::uint32_t huge_dims = 1u << 20;
  patch_file(path, 12, &huge_dims, 4);
  EXPECT_NE(error_of([&] { load_points(path); }).find("'dims'"),
            std::string::npos);
  EXPECT_NE(error_of([&] { MmapStorage m(path); }).find("'dims'"),
            std::string::npos);

  // A huge count (offset 16) cannot pass the section-layout check, so
  // no multi-terabyte allocation is attempted.
  save_points(points, path);
  const std::uint64_t huge_count = 1ull << 40;
  patch_file(path, 16, &huge_count, 8);
  EXPECT_NE(error_of([&] { load_points(path); }).find("'count'"),
            std::string::npos);
  EXPECT_NE(error_of([&] { MmapStorage m(path); }).find("'count'"),
            std::string::npos);

  // file_size disagreeing with the actual size (offset 48).
  save_points(points, path);
  const std::uint64_t wrong_size = 17;
  patch_file(path, 48, &wrong_size, 8);
  EXPECT_NE(error_of([&] { load_points(path); }).find("'file_size'"),
            std::string::npos);
  EXPECT_NE(error_of([&] { MmapStorage m(path); }).find("'file_size'"),
            std::string::npos);

  // Misaligned ids_off (offset 24): both entry points enforce the
  // 64-byte contract.
  save_points(points, path);
  const std::uint64_t odd_off = 65;
  patch_file(path, 24, &odd_off, 8);
  EXPECT_NE(error_of([&] { load_points(path); }).find("misaligned"),
            std::string::npos);
  EXPECT_NE(error_of([&] { MmapStorage m(path); }).find("misaligned"),
            std::string::npos);

  std::remove(path.c_str());
}

TEST(Storage, ChunkedRoundTripsRoutedPoints) {
  const std::string dir = ::testing::TempDir() + "/panda_spill_test";
  const PointSet points = make_points(257);
  {
    ChunkedStorage spill(dir, points.dims(), 4);
    EXPECT_FALSE(spill.resident());
    EXPECT_EQ(spill.chunk_count(), 4u);
    EXPECT_THROW(spill.coordinate(0), Error);
    EXPECT_THROW(spill.ids(), Error);

    // Route point i to chunk i % 4, in two appends per chunk.
    for (int half = 0; half < 2; ++half) {
      std::vector<PointSet> batch(4, PointSet(points.dims()));
      std::vector<std::vector<std::uint64_t>> pos(4);
      std::vector<float> p(points.dims());
      const std::uint64_t lo = half == 0 ? 0 : points.size() / 2;
      const std::uint64_t hi = half == 0 ? points.size() / 2 : points.size();
      for (std::uint64_t i = lo; i < hi; ++i) {
        points.copy_point(i, p.data());
        batch[i % 4].push_point(p, points.id(i));
        pos[i % 4].push_back(i);
      }
      for (std::size_t c = 0; c < 4; ++c) spill.append(c, batch[c], pos[c]);
    }
    spill.finish_writing();
    EXPECT_EQ(spill.size(), points.size());

    // Every point comes back with its coordinates, id, and global
    // position intact.
    std::vector<bool> seen(points.size(), false);
    PointSet chunk(points.dims());
    std::vector<std::uint64_t> positions;
    for (std::size_t c = 0; c < spill.chunk_count(); ++c) {
      spill.read_chunk(c, chunk, &positions);
      ASSERT_EQ(chunk.size(), spill.chunk_size(c));
      for (std::uint64_t i = 0; i < chunk.size(); ++i) {
        const std::uint64_t g = positions[i];
        ASSERT_LT(g, points.size());
        EXPECT_FALSE(seen[g]);
        seen[g] = true;
        EXPECT_EQ(g % 4, c);
        EXPECT_EQ(chunk.id(i), points.id(g));
        for (std::size_t d = 0; d < points.dims(); ++d)
          EXPECT_EQ(chunk.at(i, d), points.at(g, d));
      }
    }
    for (std::uint64_t g = 0; g < points.size(); ++g) EXPECT_TRUE(seen[g]);

    // to_point_set streams the chunk protocol on a non-resident
    // backend too.
    const PointSet materialized = spill.to_point_set();
    EXPECT_EQ(materialized.size(), points.size());
  }
  // Spill files are scratch: gone with the storage.
  std::ifstream probe(dir + "/chunk0.spill", std::ios::binary);
  EXPECT_FALSE(probe.good());
}

/// The header of a saved point file.
detail::PointsHeader read_points_header(const std::string& path) {
  detail::PointsHeader header{};
  std::ifstream in(path, std::ios::binary);
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  return header;
}

void flip_file_byte(const std::string& path, std::uint64_t off) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(off));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0xFF);
  f.seekp(static_cast<std::streamoff>(off));
  f.write(&b, 1);
}

TEST(Storage, EveryFlippedPointFileSectionByteIsCaughtAndNamed) {
  const PointSet points = make_points(500);
  const std::string path = ::testing::TempDir() + "/panda_points_flip.pts";
  save_points(points, path);
  const detail::PointsHeader header = read_points_header(path);
  ASSERT_EQ(header.version, 3u);

  const struct {
    const char* name;
    std::uint64_t off;
  } sections[] = {
      {"ids", header.ids_off},
      // Last dimension's array: the chained coords CRC must cover the
      // far end, not just dim 0.
      {"coords", header.coords_off +
                     (points.dims() - 1) * header.coord_stride_bytes},
  };
  for (const auto& s : sections) {
    flip_file_byte(path, s.off);
    const std::string msg = error_of([&] { MmapStorage m(path); });
    EXPECT_NE(msg.find(std::string("point file section '") + s.name +
                       "' checksum mismatch"),
              std::string::npos)
        << "section " << s.name << ": " << msg;
    // Opting out of section verification serves the corrupted bytes —
    // that's the documented O(1)-open trade.
    EXPECT_NO_THROW({ MmapStorage unchecked(path, false); });
    flip_file_byte(path, s.off);
  }
  // Clean again: full verification passes.
  const MmapStorage verified(path);
  expect_same_points(verified, points);
  std::remove(path.c_str());
}

TEST(Storage, FlippedPointFileHeaderByteFailsHeaderChecksum) {
  const PointSet points = make_points(64);
  const std::string path = ::testing::TempDir() + "/panda_points_hdrflip.pts";
  save_points(points, path);
  // The reserved field is not structurally validated — only the
  // header CRC can catch it, and it must do so even with section
  // verification off (the header is always checked).
  flip_file_byte(path, offsetof(detail::PointsHeader, reserved));
  for (const bool verify : {true, false}) {
    const std::string msg = error_of([&] { MmapStorage m(path, verify); });
    EXPECT_NE(msg.find("point file header checksum mismatch"),
              std::string::npos)
        << "verify_sections=" << verify << ": " << msg;
  }
  std::remove(path.c_str());
}

TEST(Storage, CountWhoseByteSizeWrapsIsRejectedByName) {
  // A 10-point file claiming 2^62 points: count * 4 and count * 8 both
  // wrap u64 to 0, so a naive layout check would pass and hand out a
  // 2^62-element span. The header CRC is recomputed so only the
  // structural checks can catch it.
  const PointSet points = make_points(10);
  const std::string path = ::testing::TempDir() + "/panda_points_wrap.pts";
  save_points(points, path);
  detail::PointsHeader header = read_points_header(path);
  header.count = 1ull << 62;
  header.header_crc = 0;
  header.header_crc = common::crc32c(&header, sizeof(header));
  patch_file(path, 0, &header, sizeof(header));
  for (const bool verify : {true, false}) {
    EXPECT_NE(error_of([&] { MmapStorage m(path, verify); }).find("'count'"),
              std::string::npos)
        << "verify_sections=" << verify;
  }
  EXPECT_NE(error_of([&] { load_points(path); }).find("'count'"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Storage, SpillDirIsRemovedWhenTheCtorFails) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "/panda_spill_ctorfail";
  fs::remove_all(dir);
  // Fail the third chunk's open: the two already-created spill files
  // and the directory itself must not leak.
  common::failpoint::arm("spill.open_chunk", common::failpoint::Mode::Error,
                         2);
  const std::string msg =
      error_of([&] { ChunkedStorage spill(dir, 3, 4); });
  common::failpoint::disarm_all();
  EXPECT_NE(msg.find("spill.open_chunk"), std::string::npos) << msg;
  EXPECT_FALSE(fs::exists(dir)) << "spill directory leaked on ctor failure";
}

}  // namespace
}  // namespace panda::data
