#include "serve/request.h"

#include <bit>

#include "sim/checksum.h"
#include "workload/synthetic.h"

namespace hht::serve {

const char* kindName(Kind k) {
  switch (k) {
    case Kind::kSpmv: return "spmv";
    case Kind::kSpmspv: return "spmspv";
  }
  return "?";
}

const char* outcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kDegraded: return "degraded";
    case Outcome::kRejected: return "rejected";
    case Outcome::kDeadlineExpired: return "deadline_expired";
    case Outcome::kLate: return "late";
    case Outcome::kFailed: return "failed";
  }
  return "?";
}

OperandData materialize(const Request& r) {
  sim::Rng rng(r.seed);
  OperandData ops;
  // Both operand vectors are always drawn (in a fixed order) so a request's
  // matrix does not depend on its kind — flipping kind for an A/B never
  // perturbs the matrix stream.
  ops.m = workload::randomCsr(rng, r.size, r.size, r.sparsity);
  ops.v = workload::randomDenseVector(rng, r.size);
  ops.sv = workload::randomSparseVector(rng, r.size, r.vec_sparsity);
  return ops;
}

std::uint64_t hashVector(const sparse::DenseVector& y) {
  std::uint64_t h = sim::kFnvOffsetBasis;
  for (sim::Index i = 0; i < y.size(); ++i) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(y.at(i));
    for (int shift = 0; shift < 32; shift += 8) {
      h = sim::fnv1aByte(h, static_cast<std::uint8_t>(bits >> shift));
    }
  }
  return h;
}

std::vector<Request> randomRequestStream(std::uint64_t seed,
                                         const StreamConfig& sc) {
  sim::Rng rng(seed);
  std::vector<Request> out;
  out.reserve(sc.count);
  Cycle arrival = 0;
  for (std::uint32_t i = 0; i < sc.count; ++i) {
    Request r;
    r.id = sc.first_id + i;
    // nextBelow(1000) < fraction*1000 gives a platform-independent draw.
    r.kind = rng.nextBelow(1000) <
                     static_cast<std::uint64_t>(sc.spmspv_fraction * 1000.0)
                 ? Kind::kSpmspv
                 : Kind::kSpmv;
    r.seed = rng.next64();
    r.size = sc.size;
    if (i > 0 && sc.mean_gap > 0) arrival += 1 + rng.nextBelow(2 * sc.mean_gap);
    r.arrival_cycle = arrival;
    r.deadline_cycle = sc.deadline_slack == 0 ? 0 : arrival + sc.deadline_slack;
    out.push_back(r);
  }
  return out;
}

void io(sim::StateIo& ar, Request& r) {
  ar.u64(r.id);
  ar.u8(r.kind, sim::after(Kind::kSpmspv), "request kind");
  ar.u64(r.seed);
  ar.u32(r.size);
  ar.f32(r.sparsity);
  ar.f32(r.vec_sparsity);
  ar.u64(r.arrival_cycle);
  ar.u64(r.deadline_cycle);
}

void io(sim::StateIo& ar, Completion& c) {
  ar.u64(c.id);
  ar.u8(c.outcome, sim::after(Outcome::kFailed), "outcome");
  ar.u32(c.attempts);
  ar.u32(c.tile);
  ar.u64(c.finish_cycle);
  ar.u64(c.latency_cycles);
  ar.u64(c.y_hash);
  ar.str(c.error);
}

void io(sim::StateIo& ar, Rejected& rej) {
  ar.u64(rej.id);
  ar.u64(rej.cycle);
  ar.u32(rej.queue_depth);
  ar.str(rej.reason);
}

}  // namespace hht::serve
