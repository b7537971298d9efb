#include "verify/cosim.h"

#include <sstream>

#include "harness/experiment.h"
#include "sparse/reference.h"

namespace hht::verify {

namespace {

/// The scalar-consumer kernel each engine kind's case runs, by wire value.
constexpr harness::Kernel kKernelOf[] = {
    harness::Kernel::kSpmvScalarHht, harness::Kernel::kSpmspvHhtV1,
    harness::Kernel::kSpmspvHhtV2Scalar, harness::Kernel::kHierBitmapHht,
    harness::Kernel::kFlatBitmapHht};

}  // namespace

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
    // Operand placement + consumer program via the harness, functional
    // model per kind. Scalar consumers throughout: the oracle verifies the
    // device, not the vector unit, and scalar kernels cover every engine
    // type.
    std::optional<sparse::HierBitmapMatrix> hm;
    std::optional<sparse::BitVectorMatrix> bm;
    if (c.kind == EngineKind::Hier) {
      hm = sparse::HierBitmapMatrix::fromDense(c.m.toDense());
    } else if (c.kind == EngineKind::Flat) {
      bm = sparse::BitVectorMatrix::fromDense(c.m.toDense());
    }
    const harness::Prepared p = harness::prepare(
        sys, {.kernel = kKernelOf[static_cast<std::size_t>(c.kind)]},
        {.m = &c.m,
         .v = &c.v,
         .sv = &c.sv,
         .hier = hm ? &*hm : nullptr,
         .flat = bm ? &*bm : nullptr});
    const isa::Program& program = p.program;
    std::vector<StreamEvent> expected;
    sparse::DenseVector expected_y;
    switch (c.kind) {
      case EngineKind::Gather:
        expected = expectedGatherStream(c.m, c.v);
        expected_y = sparse::spmvCsr(c.m, c.v);
        break;
      case EngineKind::MergeV1:
        expected = expectedMergeV1Stream(c.m, c.sv);
        expected_y = sparse::spmspvMerge(c.m, c.sv);
        break;
      case EngineKind::StreamV2:
        expected = expectedStreamV2Stream(c.m, c.sv);
        expected_y = sparse::spmspvValueStream(c.m, c.sv);
        break;
      case EngineKind::Hier:
        expected = expectedHierStream(*hm, c.v);
        expected_y = sparse::spmvCsr(c.m, c.v);
        break;
      case EngineKind::Flat:
        expected = expectedFlatStream(*bm, c.v);
        expected_y = sparse::spmvCsr(c.m, c.v);
        break;
    }

    DifferentialOracle oracle(std::move(expected), opts.invariant_interval);
    oracle.attach(sys);

    harness::RunResult res;
    if (opts.restore_snapshot != nullptr) {
      const sim::Cycle start = sys.restore(*opts.restore_snapshot, program);
      res = sys.resume(program, p.y, p.y_len, start, opts.max_cycles,
                       nullptr, &oracle);
    } else {
      if (opts.capture_snapshot) {
        // Arm the architectural state first so the snapshot resumes into
        // the run rather than into a halted core.
        sys.cpu().loadProgram(program);
        rep.cycle0_snapshot = sys.checkpoint(program, 0);
      }
      res = sys.run(program, p.y, p.y_len, opts.max_cycles, nullptr,
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
