#pragma once
// Halo exchange for depth-d cell-centred fields.
//
// Two pieces, mirroring TeaLeaf's update_halo:
//   - reflect_boundary: physical (reflective) boundary fill on the faces of
//     the global domain — used by every solver iteration even in the
//     single-tile case;
//   - HaloExchanger: pack/sendrecv/unpack across tile boundaries over a
//     MiniComm communicator, for the decomposed (multi-rank) configuration.

#include <span>
#include <vector>

#include "comm/decomposition.hpp"
#include "comm/fault.hpp"
#include "comm/minimpi.hpp"
#include "util/span2d.hpp"

namespace tl::comm {

/// Fills the halo of `field` (allocated (nx+2h)x(ny+2h)) on the faces listed
/// in `faces` by reflecting interior cells, matching TeaLeaf's reflective
/// boundary condition: halo row k mirrors interior row k (k = 0 .. depth-1).
void reflect_boundary(tl::util::Span2D<double> field, int halo_depth,
                      std::span<const Face> faces);

/// Reflects on every face that is a physical boundary of `tile`, and on all
/// four faces in the single-tile case.
void reflect_physical_faces(tl::util::Span2D<double> field, int halo_depth,
                            const Tile& tile);

class HaloExchanger {
 public:
  HaloExchanger(const BlockDecomposition& decomp, int rank, int halo_depth);

  /// Exchanges `depth` (<= halo_depth) halo layers of `field` with the four
  /// neighbours and reflects physical faces. Collective across ranks: every
  /// rank owning a neighbouring tile must call exchange with the same tag.
  ///
  /// Tag scheme: message tag = tag * 8 + subtag, subtag 0 = left-edge data
  /// moving left, 1 = right-edge data moving right, 2 = bottom-edge data
  /// moving down, 3 = top-edge data moving up. Both exchange entry points
  /// throw if tag * 8 + 7 reaches the reserved collective range
  /// (comm::kCollectiveTagBase), so a runaway tag surfaces as an error
  /// instead of a collective/halo match-up hang.
  void exchange(Communicator& comm, tl::util::Span2D<double> field, int depth,
                int tag);

  /// Fault-tolerant twin of exchange(): identical receiver-side structure
  /// (x faces, reflect-x, y faces, reflect-y — the corner relay), but each
  /// phase runs as one reliable ack/retry exchange under `fc`'s fault
  /// schedule. Numerically bit-identical to exchange(); only delivery is
  /// adversarial. Throws a CommFaultError subclass when the schedule is
  /// unsurvivable.
  void exchange_reliable(FaultyComm& fc, tl::util::Span2D<double> field,
                         int depth, int tag);

  const Tile& tile() const noexcept { return tile_; }

 private:
  void reflect_x_if_physical(tl::util::Span2D<double> field) const;
  void reflect_y_if_physical(tl::util::Span2D<double> field) const;
  void pack(tl::util::Span2D<const double> field, Face face, int depth,
            std::vector<double>& buf) const;
  void unpack(tl::util::Span2D<double> field, Face face, int depth,
              std::span<const double> buf) const;

  Tile tile_;
  int halo_depth_;
  std::vector<double> send_buf_;
  std::vector<double> recv_buf_;
};

}  // namespace tl::comm
