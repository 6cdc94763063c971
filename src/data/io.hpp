// Minimal binary container for point sets.
//
// The paper stores its science data as HDF5 one-array-per-property;
// HDF5 is not available offline, so PANDA ships a self-describing
// little-endian binary format with the same one-array-per-property
// layout (data/file_format.hpp): the id array and every coordinate
// array sit at 64-byte-aligned offsets, so MmapStorage serves the
// file zero-copy, and CRC32C checksums cover the header and both
// sections. MmapStorage is the one reader; load_points copies its
// spans into owned memory.
//
// Headers are validated BEFORE any span is formed or any allocation
// is sized: magic (including the byte-swapped endianness case),
// version, dims bounds, and the count/section offsets against the
// actual file size — a corrupt size field produces a panda::Error
// naming the offending field, not a multi-gigabyte allocation
// attempt.
#pragma once

#include <string>

#include "data/point_set.hpp"

namespace panda::data {

/// Writes `points` to `path` (format v3, replaced atomically). Throws
/// panda::Error on I/O failure.
void save_points(const PointSet& points, const std::string& path);

/// Reads a PointSet written by save_points into owned memory:
/// MmapStorage with both section checksums verified, then a copy, so
/// the result outlives the file. Throws panda::Error on I/O failure or
/// format mismatch, with the same diagnostics as MmapStorage.
PointSet load_points(const std::string& path);

}  // namespace panda::data
