#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/state_io.h"
#include "sim/types.h"
#include "sparse/csr.h"
#include "sparse/dense.h"
#include "sparse/sparse_vector.h"

namespace hht::serve {

using sim::Cycle;

/// Which kernel a request asks for.
enum class Kind : std::uint8_t { kSpmv = 0, kSpmspv = 1 };

const char* kindName(Kind k);

/// One serving request. Operands are carried by *seed*, not by value: a
/// request names the deterministic workload-generator stream that produces
/// its matrix and vector (materialize()), so requests are a few dozen
/// bytes, snapshots stay small, and a re-executed attempt — on another
/// tile, after a crash recovery, or in a recomputed reference — sees
/// bit-identical operands.
struct Request {
  std::uint64_t id = 0;         ///< unique per server; admission rejects reuse
  Kind kind = Kind::kSpmv;
  std::uint64_t seed = 0;       ///< operand generator seed
  std::uint32_t size = 32;      ///< square matrix dimension
  float sparsity = 0.7f;        ///< matrix zero fraction
  float vec_sparsity = 0.5f;    ///< SpMSpV operand zero fraction
  Cycle arrival_cycle = 0;      ///< simulated arrival time
  Cycle deadline_cycle = 0;     ///< absolute deadline; 0 = none
};

/// Terminal state of a request (DESIGN.md §14 request lifecycle).
enum class Outcome : std::uint8_t {
  kOk = 0,            ///< served on the HHT path, y verified, met deadline
  kDegraded,          ///< served on the CPU fallback path, met deadline
  kRejected,          ///< shed at admission (queue full / malformed)
  kDeadlineExpired,   ///< deadline passed before the request could run
  kLate,              ///< served correctly but after its deadline
  kFailed,            ///< retry budget exhausted without a verified result
};

const char* outcomeName(Outcome o);
/// Outcomes that produced a (verified) result vector.
inline bool served(Outcome o) {
  return o == Outcome::kOk || o == Outcome::kDegraded || o == Outcome::kLate;
}

/// Terminal record for one request — the unit crash recovery compares:
/// two runs are equivalent iff their per-id (outcome, attempts, y_hash,
/// latency) tuples all match.
struct Completion {
  std::uint64_t id = 0;
  Outcome outcome = Outcome::kFailed;
  std::uint32_t attempts = 0;       ///< attempts actually executed
  std::int32_t tile = -1;           ///< tile of the final attempt; -1 = none
  Cycle finish_cycle = 0;
  Cycle latency_cycles = 0;         ///< finish - arrival (0 for rejections)
  std::uint64_t y_hash = 0;         ///< hashVector(y); 0 when not served
  std::string error;                ///< diagnostic for non-served outcomes
};

/// Structured admission/shedding verdict (the "why" a request was turned
/// away, machine-readable — never just a dropped request).
struct Rejected {
  std::uint64_t id = 0;
  Cycle cycle = 0;              ///< server clock at the decision
  std::uint32_t queue_depth = 0;
  std::string reason;
};

/// Deterministic operand materialization: everything derives from
/// Request::seed via the workload generators (kSmallIntegers values, so
/// scalar / vector / HHT execution orders agree bit-for-bit). An attempt
/// runs on a harness::Operands view of this storage.
struct OperandData {
  sparse::CsrMatrix m;
  sparse::DenseVector v;    ///< SpMV operand
  sparse::SparseVector sv;  ///< SpMSpV operand
};
/// The storage's former name, which simbench/simbench.cc still spells.
using Operands = OperandData;
OperandData materialize(const Request& r);

/// FNV-1a over the little-endian bit patterns of y — the per-request result
/// fingerprint recorded in completions and compared across crash recovery.
std::uint64_t hashVector(const sparse::DenseVector& y);

/// Knobs for randomRequestStream.
struct StreamConfig {
  std::uint32_t count = 32;
  std::uint32_t size = 32;          ///< matrix dimension for every request
  double spmspv_fraction = 0.5;     ///< probability a request is SpMSpV
  Cycle mean_gap = 2'000;           ///< mean inter-arrival gap (uniform 0..2x)
  Cycle deadline_slack = 0;         ///< per-request deadline after arrival; 0 = none
  std::uint64_t first_id = 1;
};

/// Seeded open-loop request stream: ids, kinds, operand seeds and arrival
/// times all derive from `seed`, so a campaign's request set is a pure
/// function of its flags.
std::vector<Request> randomRequestStream(std::uint64_t seed,
                                         const StreamConfig& sc);

// Snapshot plumbing (used by Server::checkpoint/restore).
void writeRequest(sim::StateWriter& w, const Request& r);
Request readRequest(sim::StateReader& r);
void writeCompletion(sim::StateWriter& w, const Completion& c);
Completion readCompletion(sim::StateReader& r);
void writeRejected(sim::StateWriter& w, const Rejected& rej);
Rejected readRejected(sim::StateReader& r);

}  // namespace hht::serve
