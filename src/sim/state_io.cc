#include "sim/state_io.h"

namespace hht::sim {

void StateIo::str(std::string& s) {
  const std::size_t n = count(s.size(), 1);
  if (reading()) s.resize(n);
  raw(reinterpret_cast<std::uint8_t*>(s.data()), n);
}

void StateIo::bytes(std::vector<std::uint8_t>& v) {
  const std::size_t n = count(v.size(), 1);
  if (reading()) v.resize(n);
  raw(v.data(), n);
}

void StateIo::raw(std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  if (reading()) {
    need(n);
    std::memcpy(data, in_ + pos_, n);
    pos_ += n;
  } else {
    out_.insert(out_.end(), data, data + n);
  }
}

void StateIo::tag(const char* four_cc) {
  if (std::strlen(four_cc) != 4) {
    throw SimError(ErrorKind::Checkpoint, "state-io",
                   std::string("section tags must be exactly 4 characters: '") +
                       four_cc + "'");
  }
  if (reading()) {
    need(4);
    const char* found = reinterpret_cast<const char*>(in_ + pos_);
    if (std::memcmp(found, four_cc, 4) != 0) {
      fail(std::string("section tag mismatch: expected '") + four_cc +
           "', found '" + std::string(found, 4) + "'");
    }
    pos_ += 4;
  } else {
    out_.insert(out_.end(), four_cc, four_cc + 4);
  }
  std::memcpy(section_, four_cc, 5);
}

void StateIo::fail(const std::string& what, std::size_t at) const {
  throw SimError(ErrorKind::Checkpoint, "state-io",
                 (section_[0] == '\0' ? std::string()
                                      : std::string(section_) + ": ") +
                     what + " (offset " + std::to_string(at) + ")");
}

}  // namespace hht::sim
