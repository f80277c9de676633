#include "min/wiring.hpp"

#include <numeric>

#include "util/bits.hpp"
#include "util/error.hpp"

namespace confnet::min {

using util::reverse_bits_n;

Permutation::Permutation(std::vector<u32> map) : map_(std::move(map)) {
  std::vector<bool> seen(map_.size(), false);
  for (u32 v : map_) {
    expects(v < map_.size(), "Permutation value out of range");
    expects(!seen[v], "Permutation has a duplicate value");
    seen[v] = true;
  }
}

Permutation Permutation::identity(u32 size) {
  std::vector<u32> m(size);
  std::iota(m.begin(), m.end(), 0u);
  return Permutation(std::move(m));
}

u32 Permutation::operator()(u32 i) const {
  expects(i < map_.size(), "Permutation index out of range");
  return map_[i];
}

Permutation Permutation::inverse() const {
  std::vector<u32> inv(map_.size());
  for (u32 i = 0; i < map_.size(); ++i) inv[map_[i]] = i;
  return Permutation(std::move(inv));
}

Permutation Permutation::then(const Permutation& g) const {
  expects(size() == g.size(), "Permutation size mismatch in composition");
  std::vector<u32> m(map_.size());
  for (u32 i = 0; i < map_.size(); ++i) m[i] = g.map_[map_[i]];
  return Permutation(std::move(m));
}

bool Permutation::is_identity() const noexcept {
  for (u32 i = 0; i < map_.size(); ++i)
    if (map_[i] != i) return false;
  return true;
}

Permutation bit_reversal(u32 n_bits) {
  expects(n_bits >= 1 && n_bits < 31, "bit_reversal needs 1 <= n_bits < 31");
  std::vector<u32> m(u32{1} << n_bits);
  for (u32 p = 0; p < m.size(); ++p)
    m[p] = static_cast<u32>(reverse_bits_n(p, n_bits));
  return Permutation(std::move(m));
}

}  // namespace confnet::min
