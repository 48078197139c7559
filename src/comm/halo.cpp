#include "comm/halo.hpp"

#include <array>
#include <stdexcept>

namespace tl::comm {

using tl::util::Span2D;

void reflect_boundary(Span2D<double> field, int halo_depth,
                      std::span<const Face> faces) {
  const int h = halo_depth;
  const int nx = field.nx() - 2 * h;
  const int ny = field.ny() - 2 * h;
  if (nx <= 0 || ny <= 0) {
    throw std::invalid_argument("reflect_boundary: field smaller than halo");
  }
  // x faces first over interior rows, then y faces over the full width so
  // corner halo cells are filled too (TeaLeaf's update_halo ordering).
  for (const Face f : faces) {
    switch (f) {
      case Face::kLeft:
        for (int y = h; y < h + ny; ++y) {
          for (int k = 0; k < h; ++k) field(h - 1 - k, y) = field(h + k, y);
        }
        break;
      case Face::kRight:
        for (int y = h; y < h + ny; ++y) {
          for (int k = 0; k < h; ++k) {
            field(h + nx + k, y) = field(h + nx - 1 - k, y);
          }
        }
        break;
      case Face::kBottom:
        for (int k = 0; k < h; ++k) {
          for (int x = 0; x < field.nx(); ++x) {
            field(x, h - 1 - k) = field(x, h + k);
          }
        }
        break;
      case Face::kTop:
        for (int k = 0; k < h; ++k) {
          for (int x = 0; x < field.nx(); ++x) {
            field(x, h + ny + k) = field(x, h + ny - 1 - k);
          }
        }
        break;
    }
  }
}

HaloWire halo_wire(const Tile& tile, int depth, int halo_depth) {
  HaloWire wire;
  for (const Face f : kAllFaces) {
    if (!tile.has_neighbour(f)) continue;
    const bool x_face = f == Face::kLeft || f == Face::kRight;
    wire.doubles += static_cast<std::size_t>(depth) *
                    static_cast<std::size_t>(
                        x_face ? tile.ny() : tile.nx() + 2 * halo_depth);
    ++wire.messages;
  }
  return wire;
}

HaloExchanger::HaloExchanger(const BlockDecomposition& decomp, int rank,
                             int halo_depth)
    : tile_(decomp.tile(rank)), halo_depth_(halo_depth) {
  const std::size_t max_strip =
      static_cast<std::size_t>(halo_depth) *
      static_cast<std::size_t>(
          std::max(tile_.ny(), tile_.nx() + 2 * halo_depth));
  for (auto& buf : send_bufs_) buf.resize(max_strip);
  for (auto& buf : recv_bufs_) buf.resize(max_strip);
}

void HaloExchanger::pack(Span2D<const double> field, Face face, int depth,
                         std::vector<double>& buf) const {
  const int h = halo_depth_;
  const int nx = tile_.nx();
  const int ny = tile_.ny();
  std::size_t i = 0;
  switch (face) {
    case Face::kLeft:
      for (int y = h; y < h + ny; ++y)
        for (int k = 0; k < depth; ++k) buf[i++] = field(h + k, y);
      break;
    case Face::kRight:
      for (int y = h; y < h + ny; ++y)
        for (int k = 0; k < depth; ++k) buf[i++] = field(h + nx - depth + k, y);
      break;
    case Face::kBottom:
      for (int k = 0; k < depth; ++k)
        for (int x = 0; x < field.nx(); ++x) buf[i++] = field(x, h + k);
      break;
    case Face::kTop:
      for (int k = 0; k < depth; ++k)
        for (int x = 0; x < field.nx(); ++x) {
          buf[i++] = field(x, h + ny - depth + k);
        }
      break;
  }
}

void HaloExchanger::unpack(Span2D<double> field, Face face, int depth,
                           std::span<const double> buf) const {
  const int h = halo_depth_;
  const int nx = tile_.nx();
  const int ny = tile_.ny();
  std::size_t i = 0;
  switch (face) {
    case Face::kLeft:  // data from the left neighbour's right edge
      for (int y = h; y < h + ny; ++y)
        for (int k = 0; k < depth; ++k) field(h - depth + k, y) = buf[i++];
      break;
    case Face::kRight:
      for (int y = h; y < h + ny; ++y)
        for (int k = 0; k < depth; ++k) field(h + nx + k, y) = buf[i++];
      break;
    case Face::kBottom:
      for (int k = 0; k < depth; ++k)
        for (int x = 0; x < field.nx(); ++x) field(x, h - depth + k) = buf[i++];
      break;
    case Face::kTop:
      for (int k = 0; k < depth; ++k)
        for (int x = 0; x < field.nx(); ++x) field(x, h + ny + k) = buf[i++];
      break;
  }
}

namespace {
struct Direction {
  Face send_face;
  Face recv_face;
  int subtag;
};
// Phase 1 (x) is directions 0-1, phase 2 (y) directions 2-3; the subtag is
// the direction's index in the tag * 8 + subtag scheme.
constexpr Direction kDirections[4] = {
    {Face::kLeft, Face::kRight, 0},
    {Face::kRight, Face::kLeft, 1},
    {Face::kBottom, Face::kTop, 2},
    {Face::kTop, Face::kBottom, 3},
};
}  // namespace

void HaloExchanger::exchange_phase(Link& link, Span2D<double> field, int depth,
                                   int tag, int first_dir) {
  // x strips span the tile's interior rows; y strips the full padded width,
  // so corner data relayed by the x phase propagates diagonally.
  const std::size_t count =
      static_cast<std::size_t>(depth) *
      static_cast<std::size_t>(first_dir == 0 ? tile_.ny() : field.nx());
  std::array<WireOut, 2> outs;
  std::array<WireIn, 2> ins;
  std::size_t n_out = 0;
  std::size_t n_in = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    const Direction& d = kDirections[first_dir + static_cast<int>(k)];
    const int dest = tile_.neighbour_of(d.send_face);
    const int source = tile_.neighbour_of(d.recv_face);
    if (dest >= 0) {
      pack(field, d.send_face, depth, send_bufs_[k]);
      outs[n_out++] = {dest, tag * 8 + d.subtag,
                       std::span<const double>(send_bufs_[k].data(), count)};
    }
    if (source >= 0) {
      ins[n_in++] = {source, tag * 8 + d.subtag,
                     std::span<double>(recv_bufs_[k].data(), count)};
    }
  }
  link.exchange(std::span<const WireOut>(outs.data(), n_out),
                std::span<const WireIn>(ins.data(), n_in));
  // A face with a neighbour takes its data; a physical face is reflected.
  std::array<Face, 2> physical;
  std::size_t n_physical = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    const Direction& d = kDirections[first_dir + static_cast<int>(k)];
    if (tile_.has_neighbour(d.recv_face)) {
      unpack(field, d.recv_face, depth, recv_bufs_[k]);
    } else {
      physical[n_physical++] = d.recv_face;
    }
  }
  reflect_boundary(field, halo_depth_,
                   std::span<const Face>(physical.data(), n_physical));
}

void HaloExchanger::exchange(Link& link, Span2D<double> field, int depth,
                             int tag) {
  if (depth <= 0 || depth > halo_depth_) {
    throw std::invalid_argument("HaloExchanger: bad exchange depth");
  }
  // A tag whose derived sub-tags would reach the reserved collective range
  // silently aliases collective traffic — a diagnosable error up front.
  if (tag < 0 || tag * 8 + 7 >= kCollectiveTagBase) {
    throw std::invalid_argument(
        "HaloExchanger: tag out of range — tag * 8 + subtag must stay below "
        "the reserved collective tag base (1 << 24)");
  }
  exchange_phase(link, field, depth, tag, 0);
  exchange_phase(link, field, depth, tag, 2);
}

void HaloExchanger::exchange(Communicator& comm, Span2D<double> field,
                             int depth, int tag) {
  Link link(comm);
  exchange(link, field, depth, tag);
}

}  // namespace tl::comm
