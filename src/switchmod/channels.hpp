// Explicit channel assignment for dilated links.
//
// The dilation profiles of the direct design say how many channels each
// link carries; real hardware also needs every conference pinned to a
// concrete channel index per link (the per-stage crossbars of the cost
// model connect any input channel to any output channel, so per-link
// first-fit assignment is sufficient — no end-to-end continuity constraint
// exists). This module performs and audits that assignment.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "min/level_links.hpp"
#include "min/types.hpp"

namespace confnet::sw {

/// Channel index of one occupied link.
struct ChannelSlot {
  min::u32 level;
  min::u32 row;
  min::u32 channel;
};

class ChannelTable {
 public:
  /// `capacity[level]` = channels per link at that level (1..64 each).
  ChannelTable(min::u32 n, std::vector<min::u32> capacity);

  [[nodiscard]] min::u32 n() const noexcept { return n_; }
  [[nodiscard]] min::u32 capacity(min::u32 level) const;

  /// Assign a channel on every listed link (links[level] = sorted rows).
  /// All-or-nothing: on any full link nothing is allocated and nullopt is
  /// returned. Channel indices are first-fit per link.
  [[nodiscard]] std::optional<std::vector<ChannelSlot>> assign(
      min::u32 group_id, const min::LevelLinks& links);

  /// Release everything held by the group.
  void release(min::u32 group_id);

  /// Number of channels in use on a link.
  [[nodiscard]] min::u32 occupancy(min::u32 level, min::u32 row) const;

  /// Audit: every held slot is within capacity and no two groups share a
  /// (level,row,channel) triple.
  [[nodiscard]] bool consistent() const;

 private:
  min::u32 n_;
  std::vector<min::u32> capacity_;
  // occupancy bitmap per link, one 64-bit word (capacity <= 64).
  std::vector<std::vector<std::uint64_t>> used_;  // [level][row]
  std::map<min::u32, std::vector<ChannelSlot>> held_;
};

}  // namespace confnet::sw
