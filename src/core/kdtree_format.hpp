// On-disk layout of the PANDA kd-tree index file (KdTree::save /
// load / open_mmap). Shared between the serializer (kdtree_io.cpp)
// and the out-of-core build (kdtree_external.cpp), which streams its
// stitched tree straight into this layout; nothing outside src/core
// should need these definitions.
//
// Format version 4, the only one read or written: a 256-byte header
// block records a 64-byte-aligned offset per section (hot nodes, cold
// leaf infos, leaf-node map, packed SoA floats, packed ids, local-
// index map), a CRC32C per section and a CRC32C over the header
// itself — so open_mmap binds query views into the map after reading
// nothing but the header (open cost O(1) in index size), and torn
// writes or bit rot are detected instead of served (DESIGN.md §13).
// The header CRC is verified on every open; section CRCs eagerly or
// lazily per the caller's verify knob. Files of any other version are
// refused with a rebuild hint.
//
// All integers little-endian; a byte-swapped magic is diagnosed as an
// endianness mismatch rather than "not an index".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/kdtree.hpp"

namespace panda::core::detail {

inline constexpr std::uint64_t kKdTreeMagic = 0x50414e44414b4454ULL;
inline constexpr std::uint32_t kKdTreeVersion = 4;

/// Number of checksummed sections, in file order: hot nodes, cold leaf
/// infos, leaf-node map, packed floats, packed ids, local-index map.
/// kKdTreeSectionNames matches this order and is the vocabulary of
/// corruption diagnostics.
inline constexpr std::size_t kKdTreeSectionCount = 6;
inline constexpr const char* kKdTreeSectionNames[kKdTreeSectionCount] = {
    "nodes", "leaves", "leaf_nodes", "packed", "ids", "local_idx"};

/// Section element sizes, spelled as constants because HotNode /
/// LeafInfo are private to KdTree; KdTree::save static_asserts they
/// match.
inline constexpr std::uint64_t kHotNodeBytes = 12;
inline constexpr std::uint64_t kLeafInfoBytes = 16;

/// Upper bound on believable dimensionality (matches the point-file
/// bound): a corrupt header fails validation instead of driving a
/// huge allocation or an out-of-bounds span.
inline constexpr std::uint32_t kMaxKdTreeDims = 4096;

/// The header; the file reserves kKdTreeHeaderSpan bytes for it
/// (zero-padded) so the first section starts 64-aligned.
/// `section_crc[i]` covers the live bytes of section i (in
/// kKdTreeSectionNames order — alignment padding between sections is
/// excluded, so the checksum is a property of the data, not the
/// layout). `header_crc` covers the first sizeof(KdTreeHeader) bytes
/// with the header_crc field itself zeroed.
struct KdTreeHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t dims;
  std::uint64_t node_count;
  std::uint64_t leaf_count;
  std::uint64_t packed_count;  // floats
  std::uint64_t id_count;      // slots (ids and local-index map)
  std::uint64_t file_size;     // total bytes, for validation
  // Section offsets, each 64-byte-aligned from the file start.
  std::uint64_t nodes_off;
  std::uint64_t leaves_off;
  std::uint64_t leaf_nodes_off;
  std::uint64_t packed_off;
  std::uint64_t ids_off;
  std::uint64_t local_idx_off;
  TreeStats stats;
  BuildConfig config;
  std::uint32_t section_crc[kKdTreeSectionCount];
  std::uint32_t header_crc;
};
inline constexpr std::size_t kKdTreeHeaderSpan = 256;
static_assert(sizeof(KdTreeHeader) <= kKdTreeHeaderSpan);

inline constexpr std::uint64_t align64(std::uint64_t x) {
  return (x + 63) & ~std::uint64_t{63};
}

inline constexpr std::uint64_t byteswap64(std::uint64_t x) {
  return __builtin_bswap64(x);
}

/// Byte size of each section, in kKdTreeSectionNames order (live
/// bytes only — no alignment padding). Callers bound every count by
/// the file size first, so no product can wrap.
inline std::array<std::uint64_t, kKdTreeSectionCount> section_sizes(
    const KdTreeHeader& h) {
  return {h.node_count * kHotNodeBytes,
          h.leaf_count * kLeafInfoBytes,
          h.leaf_count * sizeof(std::uint32_t),
          h.packed_count * sizeof(float),
          h.id_count * sizeof(std::uint64_t),
          h.id_count * sizeof(std::uint64_t)};
}

inline std::array<std::uint64_t, kKdTreeSectionCount> section_offsets(
    const KdTreeHeader& h) {
  return {h.nodes_off,  h.leaves_off, h.leaf_nodes_off,
          h.packed_off, h.ids_off,    h.local_idx_off};
}

/// Fills the section offsets and file_size of `h` (whose counts are
/// set) in the canonical order: tightly packed, each section 64-
/// aligned, the first right after the header span.
inline void layout_sections(KdTreeHeader& h) {
  const auto sizes = section_sizes(h);
  std::uint64_t* const offs[kKdTreeSectionCount] = {
      &h.nodes_off,  &h.leaves_off, &h.leaf_nodes_off,
      &h.packed_off, &h.ids_off,    &h.local_idx_off};
  std::uint64_t end = kKdTreeHeaderSpan;
  for (std::size_t s = 0; s < kKdTreeSectionCount; ++s) {
    *offs[s] = align64(end);
    end = *offs[s] + sizes[s];
  }
  h.file_size = end;
}

}  // namespace panda::core::detail
