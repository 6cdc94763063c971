// Persistence for built kd-trees.
//
// One format (version 4, see core/kdtree_format.hpp) and one reader.
// open_mmap() maps the file, validates the header once — magic,
// version, dims, every count against the file size, section offsets
// and alignment, header CRC — optionally verifies the section CRCs,
// and binds the query views straight into the map. load() is
// open_mmap() plus a copy of the mapped sections into owned memory,
// so both entry points share every diagnostic. Files of any other
// version are refused with a rebuild hint: silently misreading an old
// layout would corrupt every query. All saves go through
// common::AtomicFileWriter: a crash mid-save leaves the previous file
// intact, never a prefix.
#include <cstdint>
#include <cstring>

#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "core/kdtree.hpp"
#include "core/kdtree_format.hpp"

namespace panda::core {

namespace {

using common::crc32c;
using detail::byteswap64;
using detail::KdTreeHeader;
using detail::kHotNodeBytes;
using detail::kKdTreeHeaderSpan;
using detail::kKdTreeMagic;
using detail::kKdTreeSectionCount;
using detail::kKdTreeSectionNames;
using detail::kKdTreeVersion;
using detail::kLeafInfoBytes;
using detail::kMaxKdTreeDims;
using detail::section_offsets;
using detail::section_sizes;

/// Magic and version, read from the first 12 bytes before anything
/// else: they sit at the same offsets in every format revision, so an
/// old file is identified exactly (even one shorter than today's
/// header span), not reported as garbage.
void validate_magic_and_version(const std::byte* data, std::uint64_t size,
                                const std::string& path) {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  if (size >= sizeof(magic) + sizeof(version)) {
    std::memcpy(&magic, data, sizeof(magic));
    std::memcpy(&version, data + sizeof(magic), sizeof(version));
    PANDA_CHECK_MSG(magic != kKdTreeMagic || version == kKdTreeVersion,
                    "unsupported kd-tree version "
                        << version << " (expected " << kKdTreeVersion
                        << "); rebuild and re-save the index: " << path);
  }
  PANDA_CHECK_MSG(size >= kKdTreeHeaderSpan,
                  "kd-tree file too small for a header: " << path);
  PANDA_CHECK_MSG(magic != byteswap64(kKdTreeMagic),
                  "kd-tree file has byte-swapped magic (endianness "
                  "mismatch — file written on a big-endian host?): "
                      << path);
  PANDA_CHECK_MSG(magic == kKdTreeMagic, "not a PANDA kd-tree: " << path);
}

/// Structural header validation — everything that must hold before
/// any section pointer is formed. `actual_size` is the real file
/// size. Every count is bounded by the file size before any byte size
/// is computed from it, so a corrupt count cannot wrap the u64 bounds
/// arithmetic below into a pass.
void validate_structural(const KdTreeHeader& h, std::uint64_t actual_size,
                         const std::string& path) {
  PANDA_CHECK_MSG(h.dims >= 1 && h.dims <= kMaxKdTreeDims,
                  "kd-tree header field 'dims' out of bounds ("
                      << h.dims << ", expected 1.." << kMaxKdTreeDims
                      << "): " << path);
  PANDA_CHECK_MSG(h.file_size == actual_size,
                  "kd-tree header field 'file_size' inconsistent ("
                      << h.file_size << " recorded, " << actual_size
                      << " actual): " << path);
  const struct {
    const char* name;
    std::uint64_t count;
    std::uint64_t elem_bytes;
  } counts[] = {{"node_count", h.node_count, kHotNodeBytes},
                {"leaf_count", h.leaf_count, kLeafInfoBytes},
                {"packed_count", h.packed_count, sizeof(float)},
                {"id_count", h.id_count, sizeof(std::uint64_t)}};
  for (const auto& c : counts) {
    PANDA_CHECK_MSG(c.count <= actual_size / c.elem_bytes,
                    "kd-tree header field '"
                        << c.name << "' out of bounds (" << c.count
                        << " elements of " << c.elem_bytes
                        << " bytes exceed the " << actual_size
                        << "-byte file): " << path);
  }
  // Child links and leaf references are 32-bit.
  PANDA_CHECK_MSG(h.node_count < 0xffffffffull &&
                      h.leaf_count < 0xffffffffull,
                  "kd-tree header node/leaf counts out of bounds: " << path);
  const auto offs = section_offsets(h);
  for (const std::uint64_t off : offs) {
    PANDA_CHECK_MSG(off % 64 == 0,
                    "kd-tree header has misaligned section offsets: " << path);
  }
  const auto sizes = section_sizes(h);
  for (std::size_t s = 0; s < kKdTreeSectionCount; ++s) {
    PANDA_CHECK_MSG(offs[s] >= kKdTreeHeaderSpan && offs[s] <= actual_size &&
                        sizes[s] <= actual_size - offs[s],
                    "kd-tree header section " << s
                                              << " out of file bounds: "
                                              << path);
  }
}

/// Checks the header checksum (header bytes with the crc field
/// zeroed). Runs after the structural checks so a corrupted named
/// field still gets its named diagnostic.
void verify_header_crc(const KdTreeHeader& h, const std::string& path) {
  KdTreeHeader copy = h;
  copy.header_crc = 0;
  const std::uint32_t computed = crc32c(&copy, sizeof(copy));
  PANDA_CHECK_MSG(computed == h.header_crc,
                  "kd-tree header checksum mismatch (stored 0x"
                      << std::hex << h.header_crc << ", computed 0x"
                      << computed << std::dec << "): " << path);
}

/// Verifies every section CRC against the mapped bytes; the
/// diagnostic names the section so corruption is attributable.
void verify_section_crcs(const KdTreeHeader& h, const std::byte* base,
                         const std::string& path) {
  const auto offs = section_offsets(h);
  const auto sizes = section_sizes(h);
  for (std::size_t s = 0; s < kKdTreeSectionCount; ++s) {
    const std::uint32_t computed = crc32c(base + offs[s], sizes[s]);
    PANDA_CHECK_MSG(computed == h.section_crc[s],
                    "kd-tree section '" << kKdTreeSectionNames[s]
                                        << "' checksum mismatch (stored 0x"
                                        << std::hex << h.section_crc[s]
                                        << ", computed 0x" << computed
                                        << std::dec << "): " << path);
  }
}

}  // namespace

void KdTree::save(const std::string& path) const {
  static_assert(std::is_trivially_copyable_v<HotNode>);
  static_assert(std::is_trivially_copyable_v<LeafInfo>);
  static_assert(std::is_trivially_copyable_v<TreeStats>);
  static_assert(std::is_trivially_copyable_v<BuildConfig>);
  static_assert(sizeof(HotNode) == kHotNodeBytes);
  static_assert(sizeof(LeafInfo) == kLeafInfoBytes);

  KdTreeHeader header{};
  header.magic = kKdTreeMagic;
  header.version = kKdTreeVersion;
  header.dims = static_cast<std::uint32_t>(dims_);
  header.node_count = nodes_.size();
  header.leaf_count = leaves_.size();
  header.packed_count = packed_.size();
  header.id_count = packed_ids_.size();
  header.stats = stats_;
  header.config = config_;
  detail::layout_sections(header);
  header.section_crc[0] = crc32c(nodes_.data(), nodes_.size_bytes());
  header.section_crc[1] = crc32c(leaves_.data(), leaves_.size_bytes());
  header.section_crc[2] = crc32c(leaf_nodes_.data(), leaf_nodes_.size_bytes());
  header.section_crc[3] = crc32c(packed_.data(), packed_.size_bytes());
  header.section_crc[4] = crc32c(packed_ids_.data(), packed_ids_.size_bytes());
  header.section_crc[5] =
      crc32c(packed_local_idx_.data(), packed_local_idx_.size_bytes());
  header.header_crc = 0;
  header.header_crc = crc32c(&header, sizeof(header));

  common::AtomicFileWriter out(path);
  out.write(&header, sizeof(header));
  out.pad(header.nodes_off - sizeof(header));
  out.write(nodes_.data(), nodes_.size_bytes());
  out.pad(header.leaves_off - (header.nodes_off + nodes_.size_bytes()));
  out.write(leaves_.data(), leaves_.size_bytes());
  out.pad(header.leaf_nodes_off - (header.leaves_off + leaves_.size_bytes()));
  out.write(leaf_nodes_.data(), leaf_nodes_.size_bytes());
  out.pad(header.packed_off -
          (header.leaf_nodes_off + leaf_nodes_.size_bytes()));
  out.write(packed_.data(), packed_.size_bytes());
  out.pad(header.ids_off - (header.packed_off + packed_.size_bytes()));
  out.write(packed_ids_.data(), packed_ids_.size_bytes());
  out.pad(header.local_idx_off - (header.ids_off + packed_ids_.size_bytes()));
  out.write(packed_local_idx_.data(), packed_local_idx_.size_bytes());
  out.commit();
}

KdTree KdTree::load(const std::string& path) {
  const KdTree mapped = open_mmap(path, /*verify_sections=*/true);
  KdTree tree;
  tree.dims_ = mapped.dims_;
  tree.stats_ = mapped.stats_;
  tree.config_ = mapped.config_;
  tree.own_.nodes.assign(mapped.nodes_.begin(), mapped.nodes_.end());
  tree.own_.leaves.assign(mapped.leaves_.begin(), mapped.leaves_.end());
  tree.own_.leaf_nodes.assign(mapped.leaf_nodes_.begin(),
                              mapped.leaf_nodes_.end());
  tree.own_.packed.assign(mapped.packed_.begin(), mapped.packed_.end());
  tree.own_.packed_ids.assign(mapped.packed_ids_.begin(),
                              mapped.packed_ids_.end());
  tree.own_.packed_local_idx.assign(mapped.packed_local_idx_.begin(),
                                    mapped.packed_local_idx_.end());
  tree.rebind_owned();
  return tree;
}

KdTree KdTree::open_mmap(const std::string& path, bool verify_sections) {
  auto file = common::MmapFile::open(path);
  validate_magic_and_version(file->data(), file->size(), path);
  KdTreeHeader header{};
  std::memcpy(&header, file->data(), sizeof(header));
  validate_structural(header, file->size(), path);
  verify_header_crc(header, path);
  if (verify_sections) {
    verify_section_crcs(header, file->data(), path);
  }

  KdTree tree;
  tree.dims_ = header.dims;
  tree.stats_ = header.stats;
  tree.config_ = header.config;
  tree.mapping_ = std::move(file);
  const std::byte* base = tree.mapping_->data();
  tree.nodes_ = {reinterpret_cast<const HotNode*>(base + header.nodes_off),
                 header.node_count};
  tree.leaves_ = {reinterpret_cast<const LeafInfo*>(base + header.leaves_off),
                  header.leaf_count};
  tree.leaf_nodes_ = {
      reinterpret_cast<const std::uint32_t*>(base + header.leaf_nodes_off),
      header.leaf_count};
  tree.packed_ = {reinterpret_cast<const float*>(base + header.packed_off),
                  header.packed_count};
  tree.packed_ids_ = {
      reinterpret_cast<const std::uint64_t*>(base + header.ids_off),
      header.id_count};
  tree.packed_local_idx_ = {
      reinterpret_cast<const std::uint64_t*>(base + header.local_idx_off),
      header.id_count};
  return tree;
}

}  // namespace panda::core
