// SignalPlane arena management (see signal_plane.hpp for the layout).

#include "switchmod/signal_plane.hpp"

#include <algorithm>

namespace confnet::sw {

void SignalPlane::begin_group(const std::vector<std::vector<u32>>& links,
                              std::size_t member_bits, u32 row_count) {
  // Degenerate groups still get a non-empty mask row so equality probes
  // against an all-zero delivered row behave.
  words_ = util::simd::padded_words(member_bits == 0 ? 1 : member_bits);

  level_offset_.resize(links.size());
  std::size_t rows = 0;
  for (std::size_t level = 0; level < links.size(); ++level) {
    level_offset_[level] = static_cast<u32>(rows);
    rows += links[level].size();
  }
  mask_offset_ = rows * words_;

  const std::size_t total_words = (rows + 1) * words_;
  if (arena_.size() < total_words) arena_.resize(total_words);
  if (live_.size() < rows) live_.resize(rows);
  // Between sweeps every scratch entry is kAbsent, so growing it (which
  // changes the half stride) loses no position.
  if (pos_stride_ < row_count) {
    pos_stride_ = row_count;
    pos_.assign(2 * pos_stride_, kAbsent);
  }

  // One bulk clear over the whole used region (rows are contiguous and the
  // total is block-aligned), then carve the mask out of the tail row.
  const auto& k = util::simd::kernels();
  k.clear_row(arena_.data(), total_words);
  std::fill(live_.begin(), live_.begin() + static_cast<std::ptrdiff_t>(rows),
            std::uint8_t{0});

  u64* mask = arena_.data() + mask_offset_;
  std::size_t bits = member_bits == 0 ? 1 : member_bits;
  const std::size_t full = bits / 64;
  for (std::size_t w = 0; w < full; ++w) mask[w] = ~u64{0};
  if (bits % 64 != 0) mask[full] = (u64{1} << (bits % 64)) - 1;
}

}  // namespace confnet::sw
