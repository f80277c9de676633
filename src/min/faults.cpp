#include "min/faults.hpp"

#include <algorithm>

#include "min/selfroute.hpp"
#include "min/topology.hpp"
#include "min/windows.hpp"
#include "util/error.hpp"

namespace confnet::min {

FaultSet::FaultSet(u32 n) : n_(n) {
  expects(n >= 1 && n <= 20, "FaultSet: 1 <= n <= 20");
  faulty_ = util::DynBitset(std::size_t{n + 1} << n);
}

void FaultSet::fail_link(u32 level, u32 row) {
  expects(level <= n_ && row < size(), "fail_link out of range");
  if (!faulty_.test(bit(level, row))) {
    faulty_.set(bit(level, row));
    ++count_;
  }
}

void FaultSet::repair_link(u32 level, u32 row) {
  expects(level <= n_ && row < size(), "repair_link out of range");
  if (faulty_.test(bit(level, row))) {
    faulty_.reset(bit(level, row));
    --count_;
  }
}

bool FaultSet::is_faulty(u32 level, u32 row) const {
  expects(level <= n_ && row < size(), "is_faulty out of range");
  return faulty_.test(bit(level, row));
}

void FaultSet::clear() {
  faulty_.clear();
  count_ = 0;
}

bool FaultSet::count_consistent() const noexcept {
  return faulty_.count() == count_;
}

void FaultSet::inject_random(double p, util::Rng& rng) {
  expects(p >= 0.0 && p <= 1.0, "fault probability in [0,1]");
  for (u32 level = 1; level < n_; ++level)
    for (u32 row = 0; row < size(); ++row)
      if (rng.chance(p)) fail_link(level, row);
}

void FaultSet::fail_switch_outputs(Kind kind, u32 stage, u32 switch_index) {
  expects(stage >= 1 && stage <= n_, "stage out of range");
  expects(switch_index < size() / 2, "switch index out of range");
  // The switch's output links are the level-`stage` rows its two output
  // ports map to through the stage's out wiring.
  const FieldRotation out = make_stage(kind, n_, stage - 1).out_perm;
  fail_link(stage, out(2 * switch_index));
  fail_link(stage, out(2 * switch_index + 1));
}

bool path_survives(Kind kind, u32 n, u32 src, u32 dst,
                   const FaultSet& faults) {
  expects(faults.n() == n, "fault set size mismatch");
  for (u32 level = 0; level <= n; ++level)
    if (faults.is_faulty(level, path_row(kind, n, src, dst, level)))
      return false;
  return true;
}

double connectivity(Kind kind, u32 n, const FaultSet& faults) {
  const u32 N = u32{1} << n;
  // Count survivors window-wise: a faulty link (l,p) kills exactly the
  // pairs In(l,p) x Out(l,p); inclusion-exclusion over links is avoided by
  // counting per pair (N^2 path walks are fine at analysis sizes).
  u64 alive = 0;
  for (u32 s = 0; s < N; ++s)
    for (u32 d = 0; d < N; ++d)
      if (path_survives(kind, n, s, d, faults)) ++alive;
  return static_cast<double>(alive) / (static_cast<double>(N) * N);
}

bool conference_survives(Kind kind, u32 n, const std::vector<u32>& members,
                         const FaultSet& faults) {
  expects(faults.n() == n, "fault set size mismatch");
  // The conference's level-l links factor as {src_part(i) | dst_part(j)}
  // (see conf::all_pairs_links); checking the distinct parts beats walking
  // all |G|^2 member pairs.
  std::vector<u32> src_parts, dst_parts;
  for (u32 level = 0; level <= n; ++level) {
    src_parts.clear();
    dst_parts.clear();
    for (u32 m : members) {
      src_parts.push_back(path_row(kind, n, m, 0, level));
      dst_parts.push_back(path_row(kind, n, 0, m, level));
    }
    std::sort(src_parts.begin(), src_parts.end());
    src_parts.erase(std::unique(src_parts.begin(), src_parts.end()),
                    src_parts.end());
    std::sort(dst_parts.begin(), dst_parts.end());
    dst_parts.erase(std::unique(dst_parts.begin(), dst_parts.end()),
                    dst_parts.end());
    for (u32 a : src_parts)
      for (u32 b : dst_parts)
        if (faults.is_faulty(level, a | b)) return false;
  }
  return true;
}

}  // namespace confnet::min
