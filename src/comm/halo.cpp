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

void reflect_physical_faces(Span2D<double> field, int halo_depth,
                            const Tile& tile) {
  std::vector<Face> faces;
  // Preserve x-before-y ordering for correct corner fill.
  if (!tile.has_neighbour(Face::kLeft)) faces.push_back(Face::kLeft);
  if (!tile.has_neighbour(Face::kRight)) faces.push_back(Face::kRight);
  if (!tile.has_neighbour(Face::kBottom)) faces.push_back(Face::kBottom);
  if (!tile.has_neighbour(Face::kTop)) faces.push_back(Face::kTop);
  reflect_boundary(field, halo_depth, faces);
}

HaloExchanger::HaloExchanger(const BlockDecomposition& decomp, int rank,
                             int halo_depth)
    : tile_(decomp.tile(rank)), halo_depth_(halo_depth) {
  const std::size_t max_strip =
      static_cast<std::size_t>(halo_depth) *
      static_cast<std::size_t>(
          std::max(tile_.ny(), tile_.nx() + 2 * halo_depth));
  send_buf_.resize(max_strip);
  recv_buf_.resize(max_strip);
}

namespace {
// Shared by both exchange entry points: a tag whose derived sub-tags would
// reach the reserved collective range silently aliases collective traffic —
// turn that into a diagnosable error up front.
void check_tag_range(int tag) {
  if (tag < 0 || tag * 8 + 7 >= kCollectiveTagBase) {
    throw std::invalid_argument(
        "HaloExchanger: tag out of range — tag * 8 + subtag must stay below "
        "the reserved collective tag base (1 << 24)");
  }
}
}  // namespace

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

void HaloExchanger::reflect_x_if_physical(Span2D<double> field) const {
  std::vector<Face> faces;
  if (!tile_.has_neighbour(Face::kLeft)) faces.push_back(Face::kLeft);
  if (!tile_.has_neighbour(Face::kRight)) faces.push_back(Face::kRight);
  reflect_boundary(field, halo_depth_, faces);
}

void HaloExchanger::reflect_y_if_physical(Span2D<double> field) const {
  std::vector<Face> faces;
  if (!tile_.has_neighbour(Face::kBottom)) faces.push_back(Face::kBottom);
  if (!tile_.has_neighbour(Face::kTop)) faces.push_back(Face::kTop);
  reflect_boundary(field, halo_depth_, faces);
}

void HaloExchanger::exchange(Communicator& comm, Span2D<double> field,
                             int depth, int tag) {
  if (depth <= 0 || depth > halo_depth_) {
    throw std::invalid_argument("HaloExchanger: bad exchange depth");
  }
  check_tag_range(tag);
  // Phase 1: x direction over interior rows; phase 2: y direction over the
  // full (halo-included) width so corner data propagates diagonally.
  const std::size_t x_count = static_cast<std::size_t>(depth) *
                              static_cast<std::size_t>(tile_.ny());
  const std::size_t y_count = static_cast<std::size_t>(depth) *
                              static_cast<std::size_t>(field.nx());

  auto swap_face = [&](Face send_face, Face recv_face, std::size_t count,
                       int subtag) {
    const int dest = tile_.neighbour_of(send_face);
    const int source = tile_.neighbour_of(recv_face);
    if (dest >= 0) pack(field, send_face, depth, send_buf_);
    comm.sendrecv(std::span<const double>(send_buf_.data(), dest >= 0 ? count : 0),
                  dest >= 0 ? dest : Communicator::kNoRank,
                  std::span<double>(recv_buf_.data(), source >= 0 ? count : 0),
                  source >= 0 ? source : Communicator::kNoRank,
                  tag * 8 + subtag);
    if (source >= 0) unpack(field, recv_face, depth, recv_buf_);
  };

  swap_face(Face::kLeft, Face::kRight, x_count, 0);
  swap_face(Face::kRight, Face::kLeft, x_count, 1);
  reflect_x_if_physical(field);

  swap_face(Face::kBottom, Face::kTop, y_count, 2);
  swap_face(Face::kTop, Face::kBottom, y_count, 3);
  reflect_y_if_physical(field);
}

namespace {
struct Direction {
  Face send_face;
  Face recv_face;
  int subtag;
};
// Same direction/subtag order as exchange()'s swap_face sequence.
constexpr Direction kDirections[4] = {
    {Face::kLeft, Face::kRight, 0},
    {Face::kRight, Face::kLeft, 1},
    {Face::kBottom, Face::kTop, 2},
    {Face::kTop, Face::kBottom, 3},
};
}  // namespace

void HaloExchanger::exchange_reliable(FaultyComm& fc, Span2D<double> field,
                                      int depth, int tag) {
  if (depth <= 0 || depth > halo_depth_) {
    throw std::invalid_argument("HaloExchanger: bad exchange depth");
  }
  check_tag_range(tag);
  const std::size_t x_count = static_cast<std::size_t>(depth) *
                              static_cast<std::size_t>(tile_.ny());
  const std::size_t y_count = static_cast<std::size_t>(depth) *
                              static_cast<std::size_t>(field.nx());

  // One reliable exchange per phase: both directions' payloads in flight at
  // once (each exchange round sends before it receives, so concurrent
  // directions cannot deadlock), then the same unpack order as exchange().
  auto phase = [&](int first_dir) {
    std::array<std::vector<double>, 2> sbuf, rbuf;
    std::vector<WireOut> outs;
    std::vector<WireIn> ins;
    for (int k = 0; k < 2; ++k) {
      const Direction& d = kDirections[first_dir + k];
      const std::size_t count =
          d.subtag < 2 ? x_count : y_count;
      const int dest = tile_.neighbour_of(d.send_face);
      const int source = tile_.neighbour_of(d.recv_face);
      if (dest >= 0) {
        auto& buf = sbuf[static_cast<std::size_t>(k)];
        buf.resize(count);
        pack(field, d.send_face, depth, buf);
        outs.push_back({dest, tag * 8 + d.subtag,
                        std::span<const double>(buf.data(), count)});
      }
      if (source >= 0) {
        auto& buf = rbuf[static_cast<std::size_t>(k)];
        buf.resize(count);
        ins.push_back({source, tag * 8 + d.subtag, std::span<double>(buf)});
      }
    }
    fc.exchange(outs, ins);
    for (int k = 0; k < 2; ++k) {
      const Direction& d = kDirections[first_dir + k];
      if (tile_.neighbour_of(d.recv_face) >= 0) {
        unpack(field, d.recv_face, depth, rbuf[static_cast<std::size_t>(k)]);
      }
    }
  };

  phase(0);
  reflect_x_if_physical(field);
  phase(2);
  reflect_y_if_physical(field);
}

}  // namespace tl::comm
