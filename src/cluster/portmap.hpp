// Consistent port→shard assignment for the multi-fabric cluster.
//
// The cluster's global port space is the concatenation of K shard-local
// spaces of N = 2^stages ports each: global port g lives on shard g / N at
// local row g % N. PortMap is the one owner of this mapping: a front end
// routes by global port with shard_of() and hands the shard index to the
// runtime. It is stable for the life of the cluster (conference placement
// never migrates a port between shards), and an out-of-range port is an
// error, never wrapped onto a shard.
//
// Thread-safety: immutable after construction — safe to read from any
// thread without synchronization.
#pragma once

#include "min/types.hpp"
#include "util/error.hpp"

namespace confnet::cluster {

using u32 = min::u32;
using u64 = min::u64;

class PortMap {
 public:
  PortMap(u32 shards, u32 ports_per_shard)
      : shards_(shards), ports_(ports_per_shard) {
    expects(shards >= 1, "cluster needs at least one shard");
    expects(ports_per_shard >= 2, "a shard needs at least two ports");
  }

  [[nodiscard]] u32 shards() const noexcept { return shards_; }
  [[nodiscard]] u32 ports_per_shard() const noexcept { return ports_; }
  [[nodiscard]] u64 total_ports() const noexcept {
    return static_cast<u64>(shards_) * ports_;
  }

  [[nodiscard]] bool contains(u64 global) const noexcept {
    return global < total_ports();
  }
  [[nodiscard]] u32 shard_of(u64 global) const {
    expects(contains(global), "global port out of range");
    return static_cast<u32>(global / ports_);
  }
  [[nodiscard]] u32 local_of(u64 global) const {
    expects(contains(global), "global port out of range");
    return static_cast<u32>(global % ports_);
  }
  [[nodiscard]] u64 global_of(u32 shard, u32 local) const {
    expects(shard < shards_ && local < ports_, "shard/local out of range");
    return static_cast<u64>(shard) * ports_ + local;
  }

 private:
  u32 shards_;  // cluster-owner: immutable
  u32 ports_;   // cluster-owner: immutable
};

}  // namespace confnet::cluster
