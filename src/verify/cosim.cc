#include "verify/cosim.h"

#include <sstream>

#include "sparse/reference.h"

namespace hht::verify {

const char* engineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::Gather: return "gather";
    case EngineKind::MergeV1: return "merge-v1";
    case EngineKind::StreamV2: return "stream-v2";
    case EngineKind::Hier: return "hier-bitmap";
    case EngineKind::Flat: return "flat-bitmap";
  }
  return "unknown";
}

std::string CosimReport::describe() const {
  std::ostringstream os;
  if (ok) {
    os << "ok: " << elements << " elements, " << cycles << " cycles";
    return os.str();
  }
  if (!error.empty()) {
    os << "simulator error: " << error;
    return os.str();
  }
  if (divergence) {
    os << divergence->describe();
    return os.str();
  }
  os << "failed (no detail)";
  return os.str();
}

CosimReport runCosim(const CosimCase& c, const CosimOptions& opts) {
  CosimReport rep;
  try {
    harness::System sys(c.cfg);
    const sim::Addr mmio = c.cfg.memory.mmio_base;

    // Operand placement + consumer program + functional model, per kind.
    // Scalar consumers throughout: the oracle verifies the device, not the
    // vector unit, and scalar kernels cover every engine type.
    isa::Program program = isa::ProgramBuilder("cosim-empty").ecall().build();
    sim::Addr y_addr = 0;
    std::uint32_t y_len = 0;
    std::vector<StreamEvent> expected;
    sparse::DenseVector expected_y;
    switch (c.kind) {
      case EngineKind::Gather: {
        const kernels::SpmvLayout layout = harness::loadSpmv(sys, c.m, c.v);
        program = kernels::spmvScalarHht(layout, mmio);
        y_addr = layout.y;
        y_len = layout.num_rows;
        expected = expectedGatherStream(c.m, c.v);
        expected_y = sparse::spmvCsr(c.m, c.v);
        break;
      }
      case EngineKind::MergeV1: {
        const kernels::SpmspvLayout layout =
            harness::loadSpmspv(sys, c.m, c.sv);
        program = kernels::spmspvHhtV1(layout, mmio);
        y_addr = layout.y;
        y_len = layout.num_rows;
        expected = expectedMergeV1Stream(c.m, c.sv);
        expected_y = sparse::spmspvMerge(c.m, c.sv);
        break;
      }
      case EngineKind::StreamV2: {
        const kernels::SpmspvLayout layout =
            harness::loadSpmspv(sys, c.m, c.sv);
        program = kernels::spmspvHhtV2Scalar(layout, mmio);
        y_addr = layout.y;
        y_len = layout.num_rows;
        expected = expectedStreamV2Stream(c.m, c.sv);
        expected_y = sparse::spmspvValueStream(c.m, c.sv);
        break;
      }
      case EngineKind::Hier: {
        const sparse::HierBitmapMatrix hm =
            sparse::HierBitmapMatrix::fromDense(c.m.toDense());
        const kernels::HierLayout layout = harness::loadHier(sys, hm, c.v);
        program = kernels::hierBitmapHht(layout, mmio);
        y_addr = layout.y;
        y_len = layout.num_rows;
        expected = expectedHierStream(hm, c.v);
        expected_y = sparse::spmvCsr(c.m, c.v);
        break;
      }
      case EngineKind::Flat: {
        const sparse::BitVectorMatrix bm =
            sparse::BitVectorMatrix::fromDense(c.m.toDense());
        const kernels::HierLayout layout =
            harness::loadFlatBitmap(sys, bm, c.v);
        program = kernels::flatBitmapHht(layout, mmio);
        y_addr = layout.y;
        y_len = layout.num_rows;
        expected = expectedFlatStream(bm, c.v);
        expected_y = sparse::spmvCsr(c.m, c.v);
        break;
      }
    }

    DifferentialOracle oracle(std::move(expected), opts.invariant_interval);
    oracle.attach(sys);

    harness::RunResult res;
    if (opts.restore_snapshot != nullptr) {
      const sim::Cycle start = sys.restore(*opts.restore_snapshot, program);
      res = sys.resume(program, y_addr, y_len, start, opts.max_cycles,
                       nullptr, &oracle);
    } else {
      if (opts.capture_snapshot) {
        // Arm the architectural state first so the snapshot resumes into
        // the run rather than into a halted core.
        sys.cpu().loadProgram(program);
        rep.cycle0_snapshot = sys.checkpoint(program, 0);
      }
      res = sys.run(program, y_addr, y_len, opts.max_cycles, nullptr,
                    &oracle);
    }
    oracle.checkFinal(res.y, expected_y);

    rep.cycles = res.cycles;
    rep.elements = oracle.delivered();
    if (oracle.diverged()) {
      rep.ok = false;
      rep.divergence = oracle.divergence();
    }
  } catch (const sim::SimError& e) {
    rep.ok = false;
    rep.error = e.what();
  }
  return rep;
}

}  // namespace hht::verify
