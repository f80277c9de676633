#include "analysis/conference/multiplicity.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>

#include "analysis/util/thread_pool.hpp"
#include "conference/port_index.hpp"
#include "conference/subnetwork.hpp"
#include "min/selfroute.hpp"
#include "min/windows.hpp"
#include "switchmod/fabric.hpp"
#include "switchmod/fabric_state.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace confnet::conf {

using min::Kind;

void MultiplicityScratch::prepare(u32 ports) {
  if (counts.size() != ports) {
    counts.assign(ports, 0);
    stamp.assign(ports, 0);
    // Worst case touches / distinct parts per level is `ports`; reserving
    // here keeps every push_back in the kernel within capacity.
    touched.reserve(ports);
    src_parts.reserve(ports);
    dst_parts.reserve(ports);
    generation = 0;
  }
  // Stamps older than any live generation read as "unseen"; reset before a
  // wraparound could resurrect one (never reached in practice).
  if (generation > std::numeric_limits<u32>::max() - 4) {
    std::fill(stamp.begin(), stamp.end(), 0u);
    generation = 0;
  }
}

MultiplicityProfile measure_multiplicity(Kind kind, u32 n,
                                         const ConferenceSet& set) {
  static thread_local MultiplicityScratch scratch;
  return measure_multiplicity(kind, n, set, scratch);
}

CONFNET_HOT MultiplicityProfile measure_multiplicity(
    Kind kind, u32 n, const ConferenceSet& set,
    MultiplicityScratch& scratch) {
  expects(set.num_ports() == (u32{1} << n), "conference set size mismatch");
  const u32 N = u32{1} << n;
  scratch.prepare(N);
  MultiplicityProfile profile;
  // static_check: allow(hot-alloc) sizing the returned profile, once per call
  profile.per_level.assign(n + 1, 0);
  for (u32 level = 0; level <= n; ++level) {
    const min::RowParts parts = min::row_parts(kind, n, level);
    u32 level_max = 0;
    scratch.touched.clear();
    for (const Conference& c : set.conferences()) {
      // Deduplicate each field with generation stamps; distinct (src,dst)
      // part pairs produce distinct rows (the fields are disjoint), so the
      // cross product below counts every used row exactly once per
      // conference — the same multiset of counts as the sorted reference.
      scratch.src_parts.clear();
      scratch.dst_parts.clear();
      u32 gen = ++scratch.generation;
      for (u32 m : c.members()) {
        const u32 a = parts.src.apply(m);
        if (scratch.stamp[a] != gen) {
          scratch.stamp[a] = gen;
          // static_check: allow(hot-alloc) within prepare()'s reservation
          scratch.src_parts.push_back(a);
        }
      }
      gen = ++scratch.generation;
      for (u32 m : c.members()) {
        const u32 b = parts.dst.apply(m);
        if (scratch.stamp[b] != gen) {
          scratch.stamp[b] = gen;
          // static_check: allow(hot-alloc) within prepare()'s reservation
          scratch.dst_parts.push_back(b);
        }
      }
      for (u32 a : scratch.src_parts) {
        for (u32 b : scratch.dst_parts) {
          const u32 row = a | b;
          u32& count = scratch.counts[row];
          // static_check: allow(hot-alloc) within prepare()'s reservation
          if (count == 0) scratch.touched.push_back(row);
          level_max = std::max(level_max, ++count);
        }
      }
    }
    profile.per_level[level] = set.empty() ? 0 : level_max;
    if (level >= 1 && level < n)
      profile.peak = std::max(profile.peak, profile.per_level[level]);
    for (u32 row : scratch.touched) scratch.counts[row] = 0;
  }
  return profile;
}

MultiplicityProfile measure_multiplicity_reference(Kind kind, u32 n,
                                                   const ConferenceSet& set) {
  expects(set.num_ports() == (u32{1} << n), "conference set size mismatch");
  const u32 N = u32{1} << n;
  MultiplicityProfile profile;
  profile.per_level.assign(n + 1, 0);
  std::vector<u32> counts(std::size_t{n + 1} * N, 0);  // level-major
  for (const Conference& c : set.conferences()) {
    const LevelLinks links = all_pairs_links(kind, n, c.members());
    for (u32 level = 0; level <= n; ++level)
      for (u32 row : links[level])
        profile.per_level[level] = std::max(
            profile.per_level[level], ++counts[std::size_t{level} * N + row]);
  }
  for (u32 level = 1; level < n; ++level)
    profile.peak = std::max(profile.peak, profile.per_level[level]);
  return profile;
}

u32 theoretical_peak(u32 n) { return u32{1} << (n / 2); }

u32 theoretical_aligned_max(Kind kind, u32 n, u32 level) {
  expects(level <= n, "theoretical_aligned_max: level <= n");
  if (level == 0 || level == n) return 1;
  if (!min::has_block_block_windows(kind)) return 1;
  const u32 m = std::min(level, n - level);
  return u32{1} << (m - 1);
}

ConferenceSet adversarial_conference_set(Kind kind, u32 n, u32 level,
                                         u32 row) {
  const u32 N = u32{1} << n;
  expects(level <= n && row < N, "adversarial set: bad link");
  const min::WindowDesc in_w = min::in_window(kind, n, level, row);
  const min::WindowDesc out_w = min::out_window(kind, n, level, row);

  std::vector<u32> in_elems, out_elems;
  for (u32 i = 0; i < in_w.size; ++i) in_elems.push_back(in_w.element(i));
  for (u32 i = 0; i < out_w.size; ++i) out_elems.push_back(out_w.element(i));
  std::sort(in_elems.begin(), in_elems.end());
  std::sort(out_elems.begin(), out_elems.end());

  std::vector<u32> both, in_only, out_only;
  std::set_intersection(in_elems.begin(), in_elems.end(), out_elems.begin(),
                        out_elems.end(), std::back_inserter(both));
  std::set_difference(in_elems.begin(), in_elems.end(), out_elems.begin(),
                      out_elems.end(), std::back_inserter(in_only));
  std::set_difference(out_elems.begin(), out_elems.end(), in_elems.begin(),
                      in_elems.end(), std::back_inserter(out_only));

  // Ports untouched by either window, usable as second members for ports
  // that already sit in both windows.
  std::vector<u32> pool;
  {
    std::vector<bool> used(N, false);
    for (u32 x : in_elems) used[x] = true;
    for (u32 x : out_elems) used[x] = true;
    for (u32 p = 0; p < N; ++p)
      if (!used[p]) pool.push_back(p);
  }

  ConferenceSet set(N);
  u32 next_id = 0;
  // 1) Pair exclusive-In with exclusive-Out ports.
  const std::size_t cross = std::min(in_only.size(), out_only.size());
  for (std::size_t i = 0; i < cross; ++i)
    set.add(Conference(next_id++, {in_only[i], out_only[i]}));
  // Leftovers of the longer side can partner the dual-window ports.
  std::vector<u32> leftovers;
  for (std::size_t i = cross; i < in_only.size(); ++i)
    leftovers.push_back(in_only[i]);
  for (std::size_t i = cross; i < out_only.size(); ++i)
    leftovers.push_back(out_only[i]);
  // 2) Each dual-window port forms a conference with any spare port.
  std::size_t li = 0;
  for (u32 x : both) {
    u32 partner;
    if (!pool.empty()) {
      partner = pool.back();
      pool.pop_back();
    } else if (li < leftovers.size()) {
      partner = leftovers[li++];
    } else {
      break;  // cannot pack further (does not occur at interstage levels)
    }
    set.add(Conference(next_id++, {x, partner}));
  }

  const u32 target = min::r1_bound(n, level);
  // Verify the construction actually achieves the bound at this link.
  u32 using_link = 0;
  for (const Conference& c : set.conferences())
    if (uses_link(kind, n, c.members(), level, row)) ++using_link;
  ensures(using_link == target,
          "adversarial construction must meet the theoretical bound");
  return set;
}

ConferenceSet aligned_adversarial_set(Kind kind, u32 n, u32 level) {
  const u32 N = u32{1} << n;
  expects(level >= 1 && level < n, "aligned adversary needs interstage level");
  ConferenceSet set(N);
  if (!min::has_block_block_windows(kind)) {
    // Conflict-free topologies: the best aligned set is any single pair.
    set.add(Conference(0, {0, 1}));
    return set;
  }
  // Baseline/flip: aligned pairs whose bases differ only in bits
  // [1, min(level, n-level)) all use one common link.
  const u32 m = std::min(level, n - level);
  u32 next_id = 0;
  for (u32 x = 0; x < (u32{1} << (m - 1)); ++x) {
    const u32 base = x << 1;
    set.add(Conference(next_id++, {base, base + 1}));
  }
  return set;
}

namespace {
/// Visit every set partition of [0,N) (restricted-growth strings); parts of
/// size one are idle ports, larger parts become conferences.
void for_each_partition(
    u32 N, const std::function<void(const std::vector<std::vector<u32>>&)>& cb) {
  std::vector<std::vector<u32>> groups;
  std::function<void(u32)> rec = [&](u32 elem) {
    if (elem == N) {
      cb(groups);
      return;
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
      groups[g].push_back(elem);
      rec(elem + 1);
      groups[g].pop_back();
    }
    groups.push_back({elem});
    rec(elem + 1);
    groups.pop_back();
  };
  rec(0);
}

void merge_profile(MultiplicityProfile& acc, const MultiplicityProfile& p) {
  if (acc.per_level.empty()) acc.per_level.assign(p.per_level.size(), 0);
  for (std::size_t l = 0; l < p.per_level.size(); ++l)
    acc.per_level[l] = std::max(acc.per_level[l], p.per_level[l]);
  acc.peak = std::max(acc.peak, p.peak);
}
}  // namespace

MultiplicityProfile exhaustive_max_multiplicity(Kind kind, u32 n) {
  expects(n >= 1 && n <= 3,
          "exhaustive search over all partitions is feasible for n <= 3");
  const u32 N = u32{1} << n;
  MultiplicityProfile best;
  best.per_level.assign(n + 1, 0);
  for_each_partition(N, [&](const std::vector<std::vector<u32>>& groups) {
    ConferenceSet set(N);
    u32 id = 0;
    for (const auto& g : groups)
      if (g.size() >= 2) set.add(Conference(id++, g));
    if (set.empty()) return;
    merge_profile(best, measure_multiplicity(kind, n, set));
  });
  return best;
}

MultiplicityProfile exhaustive_aligned_max(Kind kind, u32 n) {
  expects(n >= 1 && n <= 5, "exhaustive aligned search is feasible for n <= 5");
  const u32 N = u32{1} << n;
  MultiplicityProfile best;
  best.per_level.assign(n + 1, 0);
  std::vector<std::pair<u32, u32>> blocks;  // (base, bits) conferences
  std::function<void(u32)> rec = [&](u32 pos) {
    if (pos == N) {
      if (blocks.empty()) return;
      ConferenceSet set(N);
      u32 id = 0;
      for (auto [base, bits] : blocks) {
        std::vector<u32> members(u32{1} << bits);
        for (u32 i = 0; i < members.size(); ++i) members[i] = base + i;
        set.add(Conference(id++, std::move(members)));
      }
      merge_profile(best, measure_multiplicity(kind, n, set));
      return;
    }
    // Idle port.
    rec(pos + 1);
    // A conference on every aligned block starting here (size >= 2).
    for (u32 bits = 1; bits <= n; ++bits) {
      const u32 size = u32{1} << bits;
      if (pos % size != 0 || pos + size > N) break;
      blocks.emplace_back(pos, bits);
      rec(pos + size);
      blocks.pop_back();
    }
  };
  rec(0);
  return best;
}

u32 exhaustive_link_packing(Kind kind, u32 n, u32 level, u32 row) {
  const u32 N = u32{1} << n;
  expects(level <= n && row < N, "link packing: bad link");
  const min::WindowDesc in_w = min::in_window(kind, n, level, row);
  const min::WindowDesc out_w = min::out_window(kind, n, level, row);

  // Every conference through the link consumes a distinct In element and a
  // distinct Out element (a single port lying in both windows covers both
  // roles and just needs any second member). Within the four element
  // classes — I = In&Out, A = In\Out, B = Out\In, P = everything else —
  // elements are interchangeable for this one link, so the exact optimum is
  // a small integer program: choose how many A-B pairs (c_ab), how many
  // I-I pairs (c_ii, one conference per two I ports) and how many I ports
  // paired with leftover partners (c_ip).
  u32 count_i = 0;
  for (u32 i = 0; i < in_w.size; ++i)
    if (out_w.contains(in_w.element(i))) ++count_i;
  const u32 count_a = in_w.size - count_i;
  const u32 count_b = out_w.size - count_i;
  const u32 count_p = N - (in_w.size + out_w.size - count_i);

  u32 best = 0;
  for (u32 c_ab = 0; c_ab <= std::min(count_a, count_b); ++c_ab) {
    for (u32 c_ii = 0; c_ii <= count_i / 2; ++c_ii) {
      const u32 rem_i = count_i - 2 * c_ii;
      const u32 partners = count_p + (count_a - c_ab) + (count_b - c_ab);
      const u32 c_ip = std::min(rem_i, partners);
      best = std::max(best, c_ab + c_ii + c_ip);
    }
  }
  return best;
}

MonteCarloResult monte_carlo_multiplicity(Kind kind, u32 n,
                                          u32 conference_count, u32 min_size,
                                          u32 max_size,
                                          PlacementPolicy policy, u32 trials,
                                          u64 seed, util::ThreadPool* pool,
                                          bool verify_delivery) {
  expects(min_size >= 2 && min_size <= max_size,
          "conference sizes must satisfy 2 <= min <= max");
  const u32 N = u32{1} << n;
  expects(max_size <= N, "conference size beyond network");

  // Fork every trial stream from the root RNG in serial order up front, so
  // the schedule cannot change the random sequence any trial consumes.
  std::vector<util::Rng> trial_rngs;
  trial_rngs.reserve(trials);
  util::Rng rng(seed);
  for (u32 t = 0; t < trials; ++t) trial_rngs.push_back(rng.fork());

  struct TrialOutcome {
    u32 peak = 0;
    u32 placement_failures = 0;
    bool counted = false;
    bool delivery_failed = false;
  };
  std::vector<TrialOutcome> outcomes(trials);
  const auto run_range = [&](std::size_t begin, std::size_t end) {
    MultiplicityScratch scratch;
    // Per-worker incremental fabric with unconstrained channels: each
    // verified trial admits its groups, checks functional delivery by the
    // closed form (delivery_ok), and removes them again, so the load
    // matrix is reused across the whole chunk. Only built when
    // verification is on.
    std::optional<sw::FabricState> fabric;
    if (verify_delivery)
      fabric.emplace(min::Network(kind, n), std::vector<u32>(n + 1, N));
    std::vector<u32> admitted;
    for (std::size_t t = begin; t < end; ++t) {
      util::Rng trial_rng = trial_rngs[t];
      FastPortPlacer placer(n, policy);
      ConferenceSet set(N);
      u32 id = 0;
      TrialOutcome& out = outcomes[t];
      for (u32 c = 0; c < conference_count; ++c) {
        const u32 size = static_cast<u32>(
            trial_rng.between(min_size, max_size));
        auto ports = placer.place(size, trial_rng);
        if (!ports) {
          ++out.placement_failures;
          continue;
        }
        set.add(Conference(id++, std::move(*ports)));
      }
      if (set.empty()) continue;
      out.peak = measure_multiplicity(kind, n, set, scratch).peak;
      out.counted = true;
      if (fabric) {
        admitted.clear();
        bool ok = true;
        for (const Conference& c : set.conferences()) {
          if (fabric->try_add(c.id(), c.members()) ==
              sw::Admission::kAdmitted) {
            admitted.push_back(c.id());
          } else {
            ok = false;  // cannot happen: disjoint members, channels = N
          }
        }
        ok = ok && fabric->delivery_ok();
        for (u32 gid : admitted) fabric->remove(gid);
        out.delivery_failed = !ok;
      }
    }
  };
  (pool != nullptr ? *pool : util::global_pool())
      .parallel_for_chunks(trials, run_range);

  // Merge in trial order: the Welford accumulator sees exactly the adds of
  // the serial run, so the result is byte-identical for any worker count.
  MonteCarloResult result;
  for (u32 t = 0; t < trials; ++t) {
    const TrialOutcome& out = outcomes[t];
    result.placement_failures += out.placement_failures;
    if (!out.counted) continue;
    result.peak.add(out.peak);
    result.max_peak = std::max(result.max_peak, out.peak);
    if (result.peak_histogram.size() <= out.peak)
      result.peak_histogram.resize(out.peak + 1, 0);
    ++result.peak_histogram[out.peak];
    if (out.delivery_failed) ++result.delivery_failures;
  }
  return result;
}

MonteCarloResult monte_carlo_multiplicity_reference(
    Kind kind, u32 n, u32 conference_count, u32 min_size, u32 max_size,
    PlacementPolicy policy, u32 trials, u64 seed, bool verify_delivery) {
  expects(min_size >= 2 && min_size <= max_size,
          "conference sizes must satisfy 2 <= min <= max");
  const u32 N = u32{1} << n;
  expects(max_size <= N, "conference size beyond network");
  const min::Network net(kind, n);
  MonteCarloResult result;
  util::Rng rng(seed);
  for (u32 t = 0; t < trials; ++t) {
    util::Rng trial_rng = rng.fork();
    PortPlacer placer(n, policy);
    ConferenceSet set(N);
    u32 id = 0;
    for (u32 c = 0; c < conference_count; ++c) {
      const u32 size = static_cast<u32>(
          trial_rng.between(min_size, max_size));
      auto ports = placer.place(size, trial_rng);
      if (!ports) {
        ++result.placement_failures;
        continue;
      }
      set.add(Conference(id++, std::move(*ports)));
    }
    if (set.empty()) continue;
    const MultiplicityProfile p = measure_multiplicity_reference(kind, n, set);
    result.peak.add(p.peak);
    result.max_peak = std::max(result.max_peak, p.peak);
    if (result.peak_histogram.size() <= p.peak)
      result.peak_histogram.resize(p.peak + 1, 0);
    ++result.peak_histogram[p.peak];
    if (verify_delivery) {
      // Set-based oracle verification: one stateless Fabric::evaluate over
      // the trial's realizations, propagating every signal.
      std::vector<sw::GroupRealization> groups;
      groups.reserve(set.conferences().size());
      for (const Conference& c : set.conferences())
        groups.push_back({c.id(), sw::GroupRealization::kNoTap, c.members(),
                          all_pairs_links(kind, n, c.members())});
      const sw::Fabric oracle(net, sw::FabricConfig{N, true, true});
      const sw::EvalReport report = oracle.evaluate(groups);
      bool ok = report.ok();
      for (std::size_t gi = 0; ok && gi < groups.size(); ++gi)
        for (std::size_t mi = 0; ok && mi < groups[gi].members.size(); ++mi)
          ok = report.delivered[gi][mi].values() == groups[gi].members;
      if (!ok) ++result.delivery_failures;
    }
  }
  return result;
}

}  // namespace confnet::conf
