// distributed_halo: TeaLeaf's inter-node layer — the paper notes every
// evaluated programming model stops at node-level parallelism and leaves
// distribution to MPI. This example runs the CG solve block-decomposed over
// MiniComm ranks (the in-process MPI substitute): per-tile kernels, halo
// exchange between neighbours, allreduce for every dot product.
//
//   ./distributed_halo [--nx 64] [--ranks 4]

#include <cstdio>
#include <memory>

#include "comm/halo.hpp"
#include "comm/minimpi.hpp"
#include "core/reference_kernels.hpp"
#include "core/state_init.hpp"
#include "util/cli.hpp"

using namespace tl;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.reject_unknown({"nx", "ranks"});
  const int nx = static_cast<int>(cli.get_long_or("nx", 64));
  const int ranks = static_cast<int>(cli.get_long_or("ranks", 4));

  core::Settings proto = core::Settings::default_problem();
  proto.nx = proto.ny = nx;

  const comm::BlockDecomposition decomp(nx, nx, ranks);
  std::printf("global mesh %dx%d over %d ranks (%dx%d process grid)\n", nx, nx,
              ranks, decomp.grid_x(), decomp.grid_y());

  comm::run_ranks(ranks, [&](comm::Communicator& cm) {
    const comm::Tile& tile = decomp.tile(cm.rank());
    core::Mesh mesh(tile.nx(), tile.ny(), proto.halo_depth);
    const double gdx = (proto.x_max - proto.x_min) / nx;
    mesh.x_min = proto.x_min + tile.x_begin * gdx;
    mesh.x_max = proto.x_min + tile.x_end * gdx;
    mesh.y_min = proto.y_min + tile.y_begin * gdx;
    mesh.y_max = proto.y_min + tile.y_end * gdx;

    core::Chunk chunk(mesh);
    core::apply_initial_states(chunk, proto);
    core::ReferenceKernels k(mesh);
    k.upload_state(chunk);

    comm::HaloExchanger ex(decomp, cm.rank(), proto.halo_depth);
    auto exchange = [&](core::FieldId f, int tag) {
      ex.exchange(cm, k.field(f), 1, tag);
    };

    ex.exchange(cm, k.field(core::FieldId::kDensity), 2, 0);
    ex.exchange(cm, k.field(core::FieldId::kEnergy0), 2, 1);
    k.init_u();
    const double rx = proto.dt_init / (gdx * gdx);
    k.init_coefficients(proto.coefficient, rx, rx);
    exchange(core::FieldId::kU, 2);

    double rro = cm.allreduce(k.cg_init());
    exchange(core::FieldId::kP, 3);
    int iterations = 0;
    for (int it = 0; it < proto.max_iters; ++it) {
      const double pw = cm.allreduce(k.cg_calc_w());
      const double alpha = rro / pw;
      const double rrn = cm.allreduce(k.cg_calc_ur(alpha));
      ++iterations;
      if (rrn < proto.eps) break;
      k.cg_calc_p(rrn / rro);
      exchange(core::FieldId::kP, 4);
      rro = rrn;
    }

    k.finalise();
    const core::FieldSummary local = k.field_summary();
    const double temp = cm.allreduce(local.temperature);
    const double mass = cm.allreduce(local.mass);
    cm.barrier();
    if (cm.rank() == 0) {
      std::printf("converged in %d iterations\n", iterations);
      std::printf("global mass=%.4f temperature=%.9f\n", mass, temp);
    }
  });
  return 0;
}
