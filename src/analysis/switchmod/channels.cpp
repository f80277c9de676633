#include "analysis/switchmod/channels.hpp"

#include <bit>

#include "util/error.hpp"

namespace confnet::sw {

using min::u32;

ChannelTable::ChannelTable(u32 n, std::vector<u32> capacity)
    : n_(n), capacity_(std::move(capacity)) {
  expects(n >= 1 && n <= 20, "ChannelTable: 1 <= n <= 20");
  expects(capacity_.size() == n + 1, "ChannelTable needs n+1 capacities");
  for (u32 c : capacity_)
    expects(c >= 1 && c <= 64, "channel capacity must be in 1..64");
  used_.assign(n + 1, std::vector<std::uint64_t>(u32{1} << n, 0));
}

u32 ChannelTable::capacity(u32 level) const {
  expects(level <= n_, "level out of range");
  return capacity_[level];
}

std::optional<std::vector<ChannelSlot>> ChannelTable::assign(
    u32 group_id, const min::LevelLinks& links) {
  expects(links.levels() == n_ + 1, "links must cover n+1 levels");
  expects(!held_.count(group_id), "group already holds channels");
  std::vector<ChannelSlot> slots;
  // Feasibility pass first (all-or-nothing without rollback bookkeeping).
  for (u32 level = 0; level <= n_; ++level) {
    const std::uint64_t full_mask =
        capacity_[level] == 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << capacity_[level]) - 1;
    for (u32 row : links[level]) {
      expects(row < (u32{1} << n_), "link row out of range");
      if ((used_[level][row] & full_mask) == full_mask) return std::nullopt;
    }
  }
  for (u32 level = 0; level <= n_; ++level) {
    for (u32 row : links[level]) {
      const std::uint64_t word = used_[level][row];
      const auto channel = static_cast<u32>(std::countr_one(word));
      used_[level][row] |= (std::uint64_t{1} << channel);
      slots.push_back(ChannelSlot{level, row, channel});
    }
  }
  auto [it, inserted] = held_.emplace(group_id, std::move(slots));
  ensures(inserted, "channel table insertion failed");
  return it->second;
}

void ChannelTable::release(u32 group_id) {
  const auto it = held_.find(group_id);
  expects(it != held_.end(), "release of unknown channel group");
  for (const ChannelSlot& s : it->second)
    used_[s.level][s.row] &= ~(std::uint64_t{1} << s.channel);
  held_.erase(it);
}

u32 ChannelTable::occupancy(u32 level, u32 row) const {
  expects(level <= n_ && row < (u32{1} << n_), "occupancy out of range");
  return static_cast<u32>(std::popcount(used_[level][row]));
}

bool ChannelTable::consistent() const {
  // Rebuild the bitmap from held slots and compare.
  std::vector<std::vector<std::uint64_t>> rebuilt(
      n_ + 1, std::vector<std::uint64_t>(u32{1} << n_, 0));
  for (const auto& [group, slots] : held_) {
    for (const ChannelSlot& s : slots) {
      if (s.level > n_ || s.channel >= capacity_[s.level]) return false;
      const std::uint64_t bit = std::uint64_t{1} << s.channel;
      if (rebuilt[s.level][s.row] & bit) return false;  // double booking
      rebuilt[s.level][s.row] |= bit;
    }
  }
  return rebuilt == used_;
}

}  // namespace confnet::sw
