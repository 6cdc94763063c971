#include "data/io.hpp"

#include <cstdint>

#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "data/file_format.hpp"
#include "data/storage.hpp"

namespace panda::data {

namespace {

using common::crc32c;
using detail::align64;
using detail::kPointsHeaderSpan;
using detail::kPointsMagic;
using detail::kPointsVersion;
using detail::PointsHeader;

}  // namespace

void save_points(const PointSet& points, const std::string& path) {
  const std::uint64_t count = points.size();
  PointsHeader header{};
  header.magic = kPointsMagic;
  header.version = kPointsVersion;
  header.dims = static_cast<std::uint32_t>(points.dims());
  header.count = count;
  header.ids_off = kPointsHeaderSpan;
  header.coords_off = align64(header.ids_off + count * sizeof(std::uint64_t));
  header.coord_stride_bytes = align64(count * sizeof(float));
  header.file_size =
      header.coords_off + points.dims() * header.coord_stride_bytes;

  const auto ids = points.ids();
  header.ids_crc = crc32c(ids.data(), ids.size_bytes());
  std::uint32_t coords_crc = 0;
  for (std::size_t d = 0; d < points.dims(); ++d) {
    const auto coords = points.coordinate(d);
    coords_crc = crc32c(coords.data(), coords.size_bytes(), coords_crc);
  }
  header.coords_crc = coords_crc;
  header.header_crc = 0;
  header.header_crc = crc32c(&header, sizeof(header));

  common::AtomicFileWriter out(path);
  out.write(&header, sizeof(header));
  out.pad(header.ids_off - sizeof(header));
  out.write(ids.data(), ids.size_bytes());
  out.pad(header.coords_off - (header.ids_off + ids.size_bytes()));
  for (std::size_t d = 0; d < points.dims(); ++d) {
    const auto coords = points.coordinate(d);
    out.write(coords.data(), coords.size_bytes());
    out.pad(header.coord_stride_bytes - coords.size_bytes());
  }
  out.commit();
}

PointSet load_points(const std::string& path) {
  const MmapStorage mapped(path, /*verify_sections=*/true);
  PointSet points(mapped.dims());
  mapped.read_chunk(0, points, nullptr);
  return points;
}

}  // namespace panda::data
