#include "serve/request.h"

#include <bit>

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
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a offset basis
  for (sim::Index i = 0; i < y.size(); ++i) {
    const std::uint32_t bits = std::bit_cast<std::uint32_t>(y.at(i));
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (bits >> shift) & 0xFFu;
      h *= 0x100000001B3ull;
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

void writeRequest(sim::StateWriter& w, const Request& r) {
  w.u64(r.id);
  w.u8(static_cast<std::uint8_t>(r.kind));
  w.u64(r.seed);
  w.u32(r.size);
  w.f32(r.sparsity);
  w.f32(r.vec_sparsity);
  w.u64(r.arrival_cycle);
  w.u64(r.deadline_cycle);
}

Request readRequest(sim::StateReader& r) {
  Request q;
  q.id = r.u64();
  q.kind = static_cast<Kind>(r.u8());
  q.seed = r.u64();
  q.size = r.u32();
  q.sparsity = r.f32();
  q.vec_sparsity = r.f32();
  q.arrival_cycle = r.u64();
  q.deadline_cycle = r.u64();
  return q;
}

void writeCompletion(sim::StateWriter& w, const Completion& c) {
  w.u64(c.id);
  w.u8(static_cast<std::uint8_t>(c.outcome));
  w.u32(c.attempts);
  w.u32(static_cast<std::uint32_t>(c.tile));
  w.u64(c.finish_cycle);
  w.u64(c.latency_cycles);
  w.u64(c.y_hash);
  w.str(c.error);
}

Completion readCompletion(sim::StateReader& r) {
  Completion c;
  c.id = r.u64();
  c.outcome = static_cast<Outcome>(r.u8());
  c.attempts = r.u32();
  c.tile = static_cast<std::int32_t>(r.u32());
  c.finish_cycle = r.u64();
  c.latency_cycles = r.u64();
  c.y_hash = r.u64();
  c.error = r.str();
  return c;
}

void writeRejected(sim::StateWriter& w, const Rejected& rej) {
  w.u64(rej.id);
  w.u64(rej.cycle);
  w.u32(rej.queue_depth);
  w.str(rej.reason);
}

Rejected readRejected(sim::StateReader& r) {
  Rejected rej;
  rej.id = r.u64();
  rej.cycle = r.u64();
  rej.queue_depth = r.u32();
  rej.reason = r.str();
  return rej;
}

}  // namespace hht::serve
