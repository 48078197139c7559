#pragma once
// Halo exchange for depth-d cell-centred fields.
//
// Two pieces, mirroring TeaLeaf's update_halo:
//   - reflect_boundary: physical (reflective) boundary fill on the faces of
//     the global domain — used by every solver iteration even in the
//     single-tile case;
//   - HaloExchanger: pack/exchange/unpack across tile boundaries over the
//     comm link (comm/fault.hpp), for the decomposed (multi-rank)
//     configuration. One protocol serves the clean and the fault-injected
//     link: the link alone decides how a batch of payloads is delivered.

#include <array>
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

class HaloExchanger {
 public:
  HaloExchanger(const BlockDecomposition& decomp, int rank, int halo_depth);

  /// Exchanges `depth` (<= halo_depth) halo layers of `field` with the four
  /// neighbours and reflects physical faces, in two phases: x faces, reflect
  /// x, y faces (full padded width, so corners relay), reflect y. Each phase
  /// puts both directions' payloads in flight in one Link::exchange.
  /// Collective across ranks: every rank owning a neighbouring tile must
  /// call exchange with the same tag. Numerically the same under any fault
  /// schedule (exactly-once delivery); throws a CommFaultError subclass when
  /// the link's schedule is unsurvivable.
  ///
  /// Tag scheme: message tag = tag * 8 + subtag, subtag 0 = left-edge data
  /// moving left, 1 = right-edge data moving right, 2 = bottom-edge data
  /// moving down, 3 = top-edge data moving up. Throws if tag * 8 + 7 reaches
  /// the reserved collective range (comm::kCollectiveTagBase), so a runaway
  /// tag surfaces as an error instead of a collective/halo match-up hang.
  void exchange(Link& link, tl::util::Span2D<double> field, int depth,
                int tag);

  /// exchange() over a fault-free link on `comm`.
  void exchange(Communicator& comm, tl::util::Span2D<double> field, int depth,
                int tag);

  const Tile& tile() const noexcept { return tile_; }

 private:
  void pack(tl::util::Span2D<const double> field, Face face, int depth,
            std::vector<double>& buf) const;
  void unpack(tl::util::Span2D<double> field, Face face, int depth,
              std::span<const double> buf) const;
  /// One phase: directions first_dir and first_dir + 1 of kDirections,
  /// then reflection of the phase's physical faces.
  void exchange_phase(Link& link, tl::util::Span2D<double> field, int depth,
                      int tag, int first_dir);

  Tile tile_;
  int halo_depth_;
  // One send and one receive strip per direction of a phase, sized for the
  // widest strip at construction, so an exchange allocates no buffers.
  std::array<std::vector<double>, 2> send_bufs_;
  std::array<std::vector<double>, 2> recv_bufs_;
};

}  // namespace tl::comm
