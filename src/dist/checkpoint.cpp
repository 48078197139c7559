#include "dist/checkpoint.hpp"

#include <cstring>
#include <fstream>

#include "dist/driver.hpp"
#include "util/string_util.hpp"

namespace tl::dist {

namespace {

constexpr char kMagic[8] = {'T', 'L', 'C', 'K', 'P', 'T', '0', '1'};
// Bumped on every layout change (v3: two RankCursor comm counters removed);
// the loader rejects any other version.
constexpr std::uint32_t kVersion = 3;

// Loader sanity bounds: generous enough for any real configuration, tight
// enough that a flipped header byte surfaces as a diagnosable error instead
// of a multi-gigabyte allocation.
constexpr int kMaxDim = 1 << 20;
constexpr int kMaxHalo = 64;
constexpr int kMaxRanks = 1 << 16;
constexpr int kMaxSteps = 1 << 20;
constexpr std::uint64_t kMaxHistory = 1u << 24;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_bytes(std::vector<std::uint8_t>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::uint8_t*>(p);
  out.insert(out.end(), b, b + n);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_bytes(out, &v, sizeof(v));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_bytes(out, &v, sizeof(v));
}
void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  put_bytes(out, &v, sizeof(v));
}
void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_bytes(out, &v, sizeof(v));
}

/// Bounds-checked sequential reader: every read names what it was after, so
/// truncation errors say which record was cut short.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  void read(void* dst, std::size_t n, const char* what) {
    if (pos_ + n > data_.size()) {
      throw CheckpointError(util::strf(
          "checkpoint truncated: need %zu byte(s) for %s at offset %zu, "
          "file has %zu",
          n, what, pos_, data_.size()));
    }
    std::memcpy(dst, data_.data() + pos_, n);
    pos_ += n;
  }

  std::uint32_t u32(const char* what) {
    std::uint32_t v;
    read(&v, sizeof(v), what);
    return v;
  }
  std::uint64_t u64(const char* what) {
    std::uint64_t v;
    read(&v, sizeof(v), what);
    return v;
  }
  std::int32_t i32(const char* what) {
    std::int32_t v;
    read(&v, sizeof(v), what);
    return v;
  }
  double f64(const char* what) {
    double v;
    read(&v, sizeof(v), what);
    return v;
  }

  std::size_t pos() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

void put_step(std::vector<std::uint8_t>& out, const core::StepReport& s) {
  put_i32(out, s.step);
  put_f64(out, s.dt);
  put_f64(out, s.sim_step_ns);
  put_f64(out, s.summary.volume);
  put_f64(out, s.summary.mass);
  put_f64(out, s.summary.internal_energy);
  put_f64(out, s.summary.temperature);
  const core::SolveStats& v = s.solve;
  put_i32(out, static_cast<std::int32_t>(v.solver));
  put_i32(out, v.converged ? 1 : 0);
  put_i32(out, v.iterations);
  put_i32(out, v.inner_iterations);
  put_f64(out, v.initial_rr);
  put_f64(out, v.final_rr);
  put_i32(out, v.converged_on_ur ? 1 : 0);
  put_i32(out, v.fused_iterations);
  put_i32(out, v.classic_iterations);
  put_f64(out, v.spectrum.min);
  put_f64(out, v.spectrum.max);
  put_i32(out, v.spectrum.valid ? 1 : 0);
  put_u64(out, v.rr_history.size());
  for (const double rr : v.rr_history) put_f64(out, rr);
}

core::StepReport get_step(Reader& r) {
  core::StepReport s;
  s.step = r.i32("step index");
  s.dt = r.f64("step dt");
  s.sim_step_ns = r.f64("step sim time");
  s.summary.volume = r.f64("summary volume");
  s.summary.mass = r.f64("summary mass");
  s.summary.internal_energy = r.f64("summary internal energy");
  s.summary.temperature = r.f64("summary temperature");
  const std::int32_t solver = r.i32("solve solver kind");
  if (solver < 0 || solver > 3) {
    throw CheckpointError(
        util::strf("checkpoint corrupt: solver kind %d out of range", solver));
  }
  s.solve.solver = static_cast<core::SolverKind>(solver);
  s.solve.converged = r.i32("solve converged flag") != 0;
  s.solve.iterations = r.i32("solve iterations");
  s.solve.inner_iterations = r.i32("solve inner iterations");
  s.solve.initial_rr = r.f64("solve initial rr");
  s.solve.final_rr = r.f64("solve final rr");
  s.solve.converged_on_ur = r.i32("solve converged_on_ur flag") != 0;
  s.solve.fused_iterations = r.i32("solve fused iterations");
  s.solve.classic_iterations = r.i32("solve classic iterations");
  s.solve.spectrum.min = r.f64("spectrum min");
  s.solve.spectrum.max = r.f64("spectrum max");
  s.solve.spectrum.valid = r.i32("spectrum valid flag") != 0;
  const std::uint64_t n = r.u64("rr history length");
  if (n > kMaxHistory) {
    throw CheckpointError(util::strf(
        "checkpoint corrupt: rr history length %llu exceeds bound %llu",
        static_cast<unsigned long long>(n),
        static_cast<unsigned long long>(kMaxHistory)));
  }
  s.solve.rr_history.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    s.solve.rr_history[i] = r.f64("rr history entry");
  }
  return s;
}

void put_cursor(std::vector<std::uint8_t>& out, const RankCursor& c) {
  put_f64(out, c.elapsed_ns);
  put_u64(out, c.launches);
  put_u64(out, c.transfers);
  put_u64(out, c.kernel_bytes);
  put_u64(out, c.transfer_bytes);
  put_u64(out, c.comm.halo_exchanges);
  put_u64(out, c.comm.allreduces);
  put_u64(out, c.comm.bytes);
  put_f64(out, c.comm.comm_ns);
  put_u64(out, c.comm.overlapped_exchanges);
  put_f64(out, c.comm.hidden_ns);
  put_f64(out, c.comm.allreduce_ns);
  put_u64(out, c.comm.retries);
  put_u64(out, c.comm.dropped);
  put_u64(out, c.comm.duplicated);
  put_u64(out, c.comm.delayed);
}

RankCursor get_cursor(Reader& r) {
  RankCursor c;
  c.elapsed_ns = r.f64("cursor elapsed ns");
  c.launches = r.u64("cursor launches");
  c.transfers = r.u64("cursor transfers");
  c.kernel_bytes = r.u64("cursor kernel bytes");
  c.transfer_bytes = r.u64("cursor transfer bytes");
  c.comm.halo_exchanges = r.u64("cursor halo exchanges");
  c.comm.allreduces = r.u64("cursor allreduces");
  c.comm.bytes = static_cast<std::size_t>(r.u64("cursor comm bytes"));
  c.comm.comm_ns = r.f64("cursor comm ns");
  c.comm.overlapped_exchanges = r.u64("cursor overlapped exchanges");
  c.comm.hidden_ns = r.f64("cursor hidden ns");
  c.comm.allreduce_ns = r.f64("cursor allreduce ns");
  c.comm.retries = r.u64("cursor retries");
  c.comm.dropped = r.u64("cursor dropped");
  c.comm.duplicated = r.u64("cursor duplicated");
  c.comm.delayed = r.u64("cursor delayed");
  return c;
}

}  // namespace

std::vector<std::uint8_t> serialize(const Snapshot& snap) {
  std::vector<std::uint8_t> out;
  put_bytes(out, kMagic, sizeof(kMagic));
  put_u32(out, kVersion);

  put_i32(out, snap.nx);
  put_i32(out, snap.ny);
  put_i32(out, snap.halo_depth);
  put_i32(out, static_cast<std::int32_t>(snap.solver));
  put_i32(out, snap.end_step);
  put_i32(out, snap.completed_steps);
  put_i32(out, snap.nranks_at_save);
  put_i32(out, (snap.elastic ? 1 : 0) | (snap.use_fused ? 2 : 0) |
                   (snap.overlap_comm ? 4 : 0));
  put_f64(out, snap.eps);
  put_f64(out, snap.dt_init);

  put_u32(out, static_cast<std::uint32_t>(snap.steps.size()));
  for (const core::StepReport& s : snap.steps) put_step(out, s);
  for (const RankCursor& c : snap.cursors) put_cursor(out, c);
  for (const double v : snap.density) put_f64(out, v);
  for (const double v : snap.energy0) put_f64(out, v);

  put_u64(out, fnv1a(out.data(), out.size()));
  return out;
}

Snapshot deserialize(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);

  char magic[8];
  r.read(magic, sizeof(magic), "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError(util::strf(
        "checkpoint corrupt: bad magic (got \"%.8s\", want \"TLCKPT01\")",
        magic));
  }
  const std::uint32_t version = r.u32("format version");
  if (version != kVersion) {
    throw CheckpointError(util::strf(
        "checkpoint version %u unsupported (this build reads version %u)",
        version, kVersion));
  }

  Snapshot snap;
  snap.nx = r.i32("header nx");
  snap.ny = r.i32("header ny");
  snap.halo_depth = r.i32("header halo depth");
  const std::int32_t solver = r.i32("header solver kind");
  snap.end_step = r.i32("header end step");
  snap.completed_steps = r.i32("header completed steps");
  snap.nranks_at_save = r.i32("header rank count");
  const std::int32_t flags = r.i32("header flags");
  snap.eps = r.f64("header eps");
  snap.dt_init = r.f64("header dt");

  if (snap.nx <= 0 || snap.nx > kMaxDim || snap.ny <= 0 || snap.ny > kMaxDim) {
    throw CheckpointError(util::strf(
        "checkpoint corrupt: mesh %d x %d out of range", snap.nx, snap.ny));
  }
  if (snap.halo_depth < 1 || snap.halo_depth > kMaxHalo) {
    throw CheckpointError(util::strf(
        "checkpoint corrupt: halo depth %d out of range", snap.halo_depth));
  }
  if (solver < 0 || solver > 3) {
    throw CheckpointError(
        util::strf("checkpoint corrupt: solver kind %d out of range", solver));
  }
  snap.solver = static_cast<core::SolverKind>(solver);
  if (snap.end_step < 1 || snap.end_step > kMaxSteps ||
      snap.completed_steps < 0 || snap.completed_steps > snap.end_step) {
    throw CheckpointError(util::strf(
        "checkpoint corrupt: %d completed of %d step(s) is not a valid "
        "progress state",
        snap.completed_steps, snap.end_step));
  }
  if (snap.nranks_at_save < 1 || snap.nranks_at_save > kMaxRanks) {
    throw CheckpointError(util::strf(
        "checkpoint corrupt: rank count %d out of range", snap.nranks_at_save));
  }
  snap.elastic = (flags & 1) != 0;
  snap.use_fused = (flags & 2) != 0;
  snap.overlap_comm = (flags & 4) != 0;

  const std::uint32_t nsteps = r.u32("step report count");
  if (nsteps != static_cast<std::uint32_t>(snap.completed_steps)) {
    throw CheckpointError(util::strf(
        "checkpoint corrupt: %u step report(s) for %d completed step(s)",
        nsteps, snap.completed_steps));
  }
  snap.steps.reserve(nsteps);
  for (std::uint32_t i = 0; i < nsteps; ++i) snap.steps.push_back(get_step(r));

  snap.cursors.reserve(static_cast<std::size_t>(snap.nranks_at_save));
  for (int i = 0; i < snap.nranks_at_save; ++i) {
    snap.cursors.push_back(get_cursor(r));
  }

  const std::size_t cells =
      static_cast<std::size_t>(snap.nx) * static_cast<std::size_t>(snap.ny);
  snap.density.resize(cells);
  r.read(snap.density.data(), cells * sizeof(double), "density field");
  snap.energy0.resize(cells);
  r.read(snap.energy0.data(), cells * sizeof(double), "energy0 field");

  const std::size_t body_end = r.pos();
  const std::uint64_t stored = r.u64("trailing checksum");
  if (r.remaining() != 0) {
    throw CheckpointError(util::strf(
        "checkpoint corrupt: %zu trailing byte(s) after the checksum",
        r.remaining()));
  }
  const std::uint64_t computed = fnv1a(bytes.data(), body_end);
  if (stored != computed) {
    throw CheckpointError(util::strf(
        "checkpoint corrupt: checksum mismatch (stored %016llx, computed "
        "%016llx)",
        static_cast<unsigned long long>(stored),
        static_cast<unsigned long long>(computed)));
  }
  return snap;
}

void save_snapshot(const std::string& path, const Snapshot& snap) {
  const std::vector<std::uint8_t> bytes = serialize(snap);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw CheckpointError("checkpoint: cannot open " + path + " for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw CheckpointError("checkpoint: short write to " + path);
}

Snapshot load_snapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw CheckpointError("checkpoint: cannot open " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw CheckpointError("checkpoint: short read from " + path);
  return deserialize(bytes);
}

void check_resume_compatible(const Snapshot& snap,
                             const core::Settings& settings) {
  if (snap.nx != settings.nx || snap.ny != settings.ny ||
      snap.halo_depth != settings.halo_depth) {
    throw CheckpointError(util::strf(
        "checkpoint resume: mesh mismatch (snapshot %d x %d halo %d, "
        "settings %d x %d halo %d)",
        snap.nx, snap.ny, snap.halo_depth, settings.nx, settings.ny,
        settings.halo_depth));
  }
  if (snap.solver != settings.solver) {
    throw CheckpointError(util::strf(
        "checkpoint resume: solver mismatch (snapshot %s, settings %s)",
        std::string(core::solver_name(snap.solver)).c_str(),
        std::string(core::solver_name(settings.solver)).c_str()));
  }
  if (snap.eps != settings.eps || snap.dt_init != settings.dt_init) {
    throw CheckpointError(
        "checkpoint resume: eps/dt fingerprint mismatch — the snapshot was "
        "taken under different solver tolerances");
  }
  if (snap.elastic != settings.elastic) {
    throw CheckpointError(
        "checkpoint resume: elastic-mode flag mismatch between snapshot and "
        "settings");
  }
  // The fused and classic kernels accumulate in different orders, so a
  // switch between them cannot reproduce the uninterrupted run. The kernel
  // set follows from the settings alone, whatever the run's controls.
  const bool use_fused = executed_settings(settings, RunControl{}).use_fused;
  if (snap.use_fused != use_fused) {
    throw CheckpointError(util::strf(
        "checkpoint resume: kernel-set mismatch (snapshot ran the %s "
        "kernels, settings run the %s kernels)",
        snap.use_fused ? "fused" : "classic",
        use_fused ? "fused" : "classic"));
  }
  if (snap.completed_steps >= settings.end_step) {
    throw CheckpointError(util::strf(
        "checkpoint resume: snapshot already has %d of %d step(s) — nothing "
        "to run",
        snap.completed_steps, settings.end_step));
  }
}

}  // namespace tl::dist
