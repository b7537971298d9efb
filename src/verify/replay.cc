#include "verify/replay.h"

#include <fstream>

#include "sparse/coo.h"

namespace hht::verify {

namespace {
// v2: the embedded SystemConfig stream gained mem.work_queue_enabled
// (snapshot v7); v1 bundles would misparse, so the version gate rejects
// them with a structured error instead.
constexpr std::uint32_t kBundleVersion = 2;

void io(sim::StateIo& ar, CosimCase& c) {
  ar.u32(c.kind, sim::after(EngineKind::Flat), "engine kind");
  harness::io(ar, c.cfg);
  ar.tag("CSRM");
  sim::Index num_rows = c.m.numRows();
  sim::Index num_cols = c.m.numCols();
  ar.u32(num_rows);
  ar.u32(num_cols);
  std::vector<sparse::Triplet> triplets;
  if (!ar.reading()) triplets = c.m.toCoo().entries();
  ar.seq(triplets, 12, [&](sparse::Triplet& t) {
    ar.u32(t.row, num_rows, "triplet row");
    ar.u32(t.col, num_cols, "triplet column");
    ar.f32(t.value);
  });
  ar.tag("DVEC");
  std::vector<sparse::Value> dense = c.v.values();
  ar.seq<std::uint32_t>(dense, 4, [&](sparse::Value& v) { ar.f32(v); });
  ar.tag("SVEC");
  sim::Index sv_size = c.sv.size();
  ar.u32(sv_size);
  std::vector<sim::Index> idx = c.sv.indices();
  std::vector<sparse::Value> vals = c.sv.vals();
  // The count covers the index and the value arrays that follow it.
  ar.seq<std::uint32_t>(idx, 8, [&](sim::Index& i) {
    ar.u32(i, sv_size, "SVEC index");
  });
  vals.resize(idx.size());
  for (sparse::Value& v : vals) ar.f32(v);
  if (!ar.reading()) return;
  sparse::CooMatrix coo(num_rows, num_cols);
  for (const sparse::Triplet& t : triplets) coo.add(t.row, t.col, t.value);
  c.m = sparse::CsrMatrix::fromCoo(std::move(coo));
  c.v = sparse::DenseVector(std::move(dense));
  c.sv = sparse::SparseVector(sv_size, std::move(idx), std::move(vals));
}

/// The bundle container: written by saveBundle, read by loadBundle.
void io(sim::StateIo& ar, ReplayBundle& bundle) {
  ar.tag("HHTR");
  ar.expect32(kBundleVersion, "bundle version");
  io(ar, bundle.c);
  ar.u64(bundle.seed);
  ar.u64(bundle.run_index);
  ar.u64(bundle.failing_element);
  ar.u64(bundle.failing_cycle);
  ar.str(bundle.detail);
  ar.bytes(bundle.cycle0_snapshot);
  ar.end();
}
}  // namespace

void saveBundle(const std::string& path, const ReplayBundle& bundle) {
  sim::StateIo w;
  io(w, const_cast<ReplayBundle&>(bundle));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw sim::SimError(sim::ErrorKind::Verify, "replay",
                        "cannot open '" + path + "' for writing");
  }
  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.data().size()));
  if (!out) {
    throw sim::SimError(sim::ErrorKind::Verify, "replay",
                        "short write to '" + path + "'");
  }
}

ReplayBundle loadBundle(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw sim::SimError(sim::ErrorKind::Verify, "replay",
                        "cannot open '" + path + "'");
  }
  std::vector<std::uint8_t> buf(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  sim::StateIo r(buf);
  ReplayBundle bundle;
  io(r, bundle);
  return bundle;
}

}  // namespace hht::verify
