#include "spf/sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "spf/common/assert.hpp"
#include "spf/telemetry/telemetry.hpp"

namespace spf {
namespace {

/// Surfaces a finished run's L2 classification and pollution cases as
/// telemetry counters. Bulk adds after the run — the per-access hot path
/// never sees telemetry (the per-core metrics it sums already exist).
void surface_run_telemetry(const SimResult& result) {
  if (!telemetry::enabled()) return;
  using telemetry::Counter;
  std::uint64_t lookups = 0, totally_hits = 0, partially_hits = 0,
                totally_misses = 0;
  for (const ThreadMetrics& m : result.per_core) {
    lookups += m.l2_lookups;
    totally_hits += m.totally_hits;
    partially_hits += m.partially_hits;
    totally_misses += m.totally_misses;
  }
  telemetry::count(Counter::kL2Lookups, lookups);
  telemetry::count(Counter::kL2TotallyHits, totally_hits);
  telemetry::count(Counter::kL2PartiallyHits, partially_hits);
  telemetry::count(Counter::kL2TotallyMisses, totally_misses);
  telemetry::count(Counter::kPollutionCase1,
                   result.pollution.case1_reuse_displaced);
  telemetry::count(Counter::kPollutionCase2,
                   result.pollution.case2_helper_displaced);
  telemetry::count(Counter::kPollutionCase3,
                   result.pollution.case3_hw_displaced);
  if (result.provenance.enabled) {
    const ProvenanceSummary& p = result.provenance;
    telemetry::count(Counter::kPrefetchFillsTracked, p.tracked_fills);
    telemetry::count(Counter::kPrefetchFateUsedTimely, p.used_timely);
    telemetry::count(Counter::kPrefetchFateUsedLate, p.used_late);
    telemetry::count(Counter::kPrefetchFateEvictedUnused, p.evicted_unused);
    telemetry::count(Counter::kPrefetchFatePolluting, p.polluting);
    telemetry::count(Counter::kPrefetchFateResidentUnused, p.resident_unused);
  }
}

}  // namespace

CmpSimulator::CmpSimulator(const SimConfig& config, Arena* arena)
    : config_(config), arena_(arena) {}

void CmpSimulator::reset(const std::vector<CoreStream>& streams) {
  SPF_ASSERT(!streams.empty(), "simulator needs at least one stream");
  SPF_ASSERT(streams.size() <= kMaxStreams,
             "simulator supports at most 64 streams");
  // Checked before any state changes, so a rejected run leaves the
  // simulator as reusable as a finished one.
  if (config_.l2_mshrs == 0) {
    throw std::invalid_argument("l2_mshrs must be at least 1");
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const L1HitBitmap* hits = streams[i].l1_hits;
    if (hits == nullptr) continue;
    const std::string core = "core " + std::to_string(i);
    if (streams[i].trace == nullptr || streams[i].source != nullptr) {
      throw std::invalid_argument(core +
                                  ": an L1 hit bitmap needs a trace-backed "
                                  "stream");
    }
    if (hits->size() != streams[i].trace->size()) {
      throw std::invalid_argument(
          core + ": L1 hit bitmap covers " + std::to_string(hits->size()) +
          " records, its trace has " +
          std::to_string(streams[i].trace->size()));
    }
    if (hits->l1() != config_.l1) {
      throw std::invalid_argument(core + ": L1 hit bitmap was computed for " +
                                  hits->l1().to_string() + ", the run's L1 is " +
                                  config_.l1.to_string());
    }
  }
  if (l2_) {
    l2_->reset_to(config_.l2, config_.replacement);
  } else {
    l2_.emplace(config_.l2, config_.replacement, Cache::kDefaultSeed, arena_);
  }
  if (mshr_) {
    mshr_->reset(config_.l2_mshrs);
  } else {
    mshr_.emplace(config_.l2_mshrs);
  }
  if (memory_) {
    memory_->reset(config_.memory);
  } else {
    memory_.emplace(config_.memory);
  }
  if (pollution_) {
    pollution_->reset(kShadowCapacity, config_.l2);
  } else {
    pollution_.emplace(kShadowCapacity, config_.l2);
  }
  if (config_.provenance) {
    // Live records are slot-indexed: one per resident L2 line, exact. The
    // victim shadow rides the pollution tracker's table as an aux sidecar,
    // so provenance itself keeps no hash table at all.
    const std::size_t l2_lines = config_.l2.num_sets() * config_.l2.ways();
    if (provenance_) {
      provenance_->reset(l2_lines);
    } else {
      provenance_.emplace(l2_lines);
    }
    pollution_->enable_shadow_aux();
  } else {
    provenance_.reset();
  }
  hw_prefetches_issued_ = 0;
  occupancy_ = OccupancySeries{};
  next_occupancy_sample_ = config_.occupancy_sample_interval;

  // Grow-only: entries beyond the current stream set keep their (idle) L1
  // storage so a later wider run can reuse it.
  active_ = streams.size();
  if (cores_.size() < active_) cores_.resize(active_);

  for (std::size_t i = 0; i < active_; ++i) {
    CoreState& core = cores_[i];
    SPF_ASSERT(streams[i].trace != nullptr || streams[i].source != nullptr,
               "core stream needs a trace or a record source");
    core.source = streams[i].source;
    if (core.source != nullptr) {
      core.source->reset();
    } else {
      // Trace-backed stream: the whole buffer is one window, so the feed is
      // the buffer read it replaces.
      core.buffer_source.rebind(streams[i].trace->records());
      core.source = &core.buffer_source;
    }
    core.window = core.source->next_window();
    core.win_pos = 0;
    core.clock = 0;
    core.metrics = ThreadMetrics{};
    core.l1_hits = streams[i].l1_hits;
    if (core.l1_hits == nullptr) core.l1.reset(config_.l1);
    core.prefetcher.emplace(config_.l2.line_bytes());
    core.outer_iter = 0;
    core.started = false;
    core.origin = streams[i].origin;
    core.sync = streams[i].sync;
    core.was_gated = false;
    if (core.sync) {
      SPF_ASSERT(core.sync->leader < streams.size() && core.sync->leader != i,
                 "round sync leader must be another configured core");
      SPF_ASSERT(core.sync->round_iters > 0, "round length must be positive");
    }
    core.next_time = 0;
    core.gate_next_round = 0;
    core.gate_next_outer_seen = ~std::uint32_t{0};
    core.gate_leader_round = 0;
    core.gate_leader_outer_seen = 0;
    core.gate_leader_started_seen = false;
    refresh_gate_round(core);
    if (!feed_done(core)) core.next_time = feed_pending(core).compute_gap;
  }
}

void CmpSimulator::refresh_gate_round(CoreState& core) const {
  if (core.sync && !feed_done(core)) {
    // Consecutive records usually share an outer iteration; divide only when
    // it actually changed.
    const std::uint32_t outer = feed_pending(core).outer_iter;
    if (outer != core.gate_next_outer_seen) {
      core.gate_next_outer_seen = outer;
      core.gate_next_round = outer / core.sync->round_iters;
    }
  }
}

bool CmpSimulator::gated(CoreState& core) const {
  if (!core.sync || feed_done(core)) return false;
  const CoreState& leader = cores_[core.sync->leader];
  if (feed_done(leader)) return false;  // leader done: open
  // gate_next_round is maintained on every cursor move; the leader-round
  // division reruns only when the leader's progress changed since last asked.
  const std::uint32_t next_round = core.gate_next_round;
  if (leader.outer_iter != core.gate_leader_outer_seen ||
      leader.started != core.gate_leader_started_seen) {
    core.gate_leader_outer_seen = leader.outer_iter;
    core.gate_leader_started_seen = leader.started;
    core.gate_leader_round =
        leader.started ? leader.outer_iter / core.sync->round_iters : 0;
  }
  if (!leader.started && next_round == 0) return false;
  return core.gate_leader_round < next_round;
}

SimResult CmpSimulator::run(const std::vector<CoreStream>& streams) {
  return run(config_, streams);
}

SimResult CmpSimulator::run(const SimConfig& config,
                            const std::vector<CoreStream>& streams) {
  start(config, streams);
  (void)run_until(kNoPause);
  return finish();
}

void CmpSimulator::start(const SimConfig& config,
                         const std::vector<CoreStream>& streams) {
  config_ = config;
  reset(streams);
}

std::optional<std::uint32_t> CmpSimulator::run_until(std::uint64_t iter) {
  pause_iter_ = iter;
  if (!run_loop()) return std::nullopt;
  return feed_pending(cores_[0]).outer_iter;
}

SimResult CmpSimulator::finish() {
  // Install every still-outstanding fill so final cache state and pollution
  // accounting reflect all issued traffic.
  drain_l2(std::numeric_limits<Cycle>::max());
  SimResult result = progress();
  result.occupancy = std::move(occupancy_);
  result.top_polluted_sets = pollution_->top_polluted_sets(16);
  surface_run_telemetry(result);
  return result;
}

SimResult CmpSimulator::progress() const {
  SimResult result;
  result.per_core.reserve(active_);
  for (std::size_t i = 0; i < active_; ++i) {
    result.per_core.push_back(cores_[i].metrics);
    result.per_core.back().finish_time = cores_[i].clock;
    result.makespan = std::max(result.makespan, cores_[i].clock);
  }
  result.pollution = pollution_->stats();
  result.l2 = l2_->stats();
  result.mshr = mshr_->stats();
  result.memory = memory_->stats();
  result.hw_prefetches_issued = hw_prefetches_issued_;
  result.polluted_set_count = pollution_->polluted_set_count();
  if (provenance_) {
    result.provenance = provenance_->snapshot(pollution_->per_set());
  }
  return result;
}

bool CmpSimulator::run_loop() {
  for (;;) {
    if (!feed_done(cores_[0]) &&
        feed_pending(cores_[0]).outer_iter >= pause_iter_) {
      return true;
    }
    CoreId pick = std::numeric_limits<CoreId>::max();
    Cycle best = std::numeric_limits<Cycle>::max();
    bool any_remaining = false;
    std::uint64_t gated_leaders = 0;  // leaders some gated core waits on
    for (CoreId i = 0; i < active_; ++i) {
      CoreState& core = cores_[i];
      if (feed_done(core)) continue;
      any_remaining = true;
      if (gated(core)) {
        core.was_gated = true;
        gated_leaders |= std::uint64_t{1} << core.sync->leader;
        continue;
      }
      if (core.was_gated) {
        // The helper was spinning at the round barrier; it resumes at the
        // moment the leader crossed into the round.
        core.clock = std::max(core.clock, cores_[core.sync->leader].clock);
        core.was_gated = false;
        core.next_time = core.clock + feed_pending(core).compute_gap;
      }
      // Order cores by when their next access actually happens (current
      // clock plus the pending record's compute gap, cached as next_time),
      // so shared-structure mutations occur in global time order.
      if (core.next_time < best) {
        best = core.next_time;
        pick = i;
      }
    }
    if (!any_remaining) return false;
    SPF_ASSERT(pick != std::numeric_limits<CoreId>::max(),
               "all remaining cores gated: sync cycle");

    // Freeze the rivals' next-access times: the picked core keeps winning the
    // round exactly while its own next_time stays strictly below every
    // lower-id rival (they are visited first, ties go to them) and at or
    // below every higher-id rival. Gated cores don't compete — and cannot
    // silently enter the race mid-batch, because the batch breaks at every
    // progress point of a leader a gated core waits on.
    Cycle limit_lo = std::numeric_limits<Cycle>::max();
    Cycle limit_hi = std::numeric_limits<Cycle>::max();
    for (CoreId i = 0; i < active_; ++i) {
      if (i == pick) continue;
      const CoreState& core = cores_[i];
      if (feed_done(core) || core.was_gated) continue;
      if (i < pick) {
        limit_lo = std::min(limit_lo, core.next_time);
      } else {
        limit_hi = std::min(limit_hi, core.next_time);
      }
    }
    const bool leader_sensitive = ((gated_leaders >> pick) & 1) != 0;
    step_batch(pick, limit_lo, limit_hi, leader_sensitive);
  }
}

void CmpSimulator::step_batch(CoreId id, Cycle limit_lo, Cycle limit_hi,
                              bool leader_sensitive) {
  CoreState& core = cores_[id];
  const bool self_sync = core.sync.has_value();
  const bool sampling = config_.occupancy_sample_interval != 0;
  const std::uint64_t pause = id == 0 ? pause_iter_ : kNoPause;
  // Invariant at the top of each iteration: a full scheduler round run now
  // would pick this core again (the caller's round did for the first record;
  // the break conditions below re-establish it for every later one).
  for (;;) {
    if (sampling && core.clock >= next_occupancy_sample_) {
      occupancy_.samples.push_back(snapshot_occupancy(*l2_, core.clock));
      // Skip ahead past idle gaps rather than emitting a backlog of samples.
      while (next_occupancy_sample_ <= core.clock) {
        next_occupancy_sample_ += config_.occupancy_sample_interval;
      }
    }
    const std::size_t record = core.win_pos;  // trace index when trace-backed
    const TraceRecord rec = feed_consume(core);
    // A gated follower re-examines this core's progress whenever its outer
    // iteration advances or it takes its very first record; the batch must
    // pause at those points so the follower resumes at the same instant a
    // record-at-a-time scheduler would release it.
    const bool gate_event =
        leader_sensitive &&
        (!core.started || rec.outer_iter != core.outer_iter);
    core.outer_iter = rec.outer_iter;
    core.started = true;
    if (self_sync) refresh_gate_round(core);

    const Cycle start = core.clock + rec.compute_gap;
    if (rec.kind() == AccessKind::kPrefetch) {
      core.clock = software_prefetch(core, id, rec, start);
    } else {
      core.clock = demand_access(core, id, rec, record, start);
    }
    if (feed_done(core)) return;
    core.next_time = core.clock + feed_pending(core).compute_gap;
    if (gate_event || feed_pending(core).outer_iter >= pause) return;
    if (self_sync && feed_pending(core).outer_iter != core.outer_iter) {
      // The pending record may open a new round of this core's own sync:
      // the scheduler must re-evaluate gated() before it issues.
      return;
    }
    if (core.next_time >= limit_lo || core.next_time > limit_hi) return;
  }
}

void CmpSimulator::drain_l2(Cycle now) {
  if (mshr_->next_completion() > now) return;
  mshr_->drain_completed_into(now, drain_scratch_);
  for (const MshrEntry& fill : drain_scratch_) {
    // A fill a demand request merged into is, by the time it lands, wanted
    // data: tag it demand so its eviction is not miscounted as pollution
    // cases 2/3.
    const FillOrigin origin =
        fill.demand_merged ? FillOrigin::kDemand : fill.origin;
    // A line with an outstanding MSHR entry is never resident: lines enter
    // the L2 only here, every issue path allocates only after the L2 and the
    // MSHR file both missed, and the L2 is never invalidated. So the install
    // skips fill()'s already-present scan.
    std::uint32_t slot = Cache::kNoSlot;
    if (auto evicted = l2_->fill_absent(fill.line, origin, fill.core,
                                        fill.fill_time, &slot)) {
      if (evicted->victim.dirty) memory_->writeback(fill.fill_time);
      if (provenance_) {
        // The displacement metadata rides the pollution shadow's own insert
        // as a ShadowAux — provenance does no hash work of its own. Victim
        // record retires before the incoming fill's record reuses the slot.
        pollution_->on_eviction(*evicted,
                                provenance_->eviction_aux(evicted->slot));
        provenance_->on_evicted_record(evicted->slot);
      } else {
        pollution_->on_eviction(*evicted);
      }
    }
    if (provenance_ && fill.origin != FillOrigin::kDemand) {
      // Raw (pre-merge-upgrade) origin: a merged prefetch fill is the
      // used_late fate at install time, never a live record.
      provenance_->on_fill(slot, fill.origin, fill.demand_merged);
    }
    if (fill.write) l2_->mark_dirty_slot(slot);  // write-allocate installs dirty
  }
}

Cycle CmpSimulator::demand_access(CoreState& core, CoreId id,
                                  const TraceRecord& rec, std::size_t record,
                                  Cycle start) {
  ++core.metrics.demand_accesses;
  // The live L1 refills on the miss itself rather than when the data
  // returns: it is private, time-blind and only this core's next record
  // reads it, so the hit/miss sequence is the same.
  const bool l1_hit = core.l1_hits != nullptr
                          ? core.l1_hits->hit(record)
                          : core.l1.access(config_.l1.line_of(rec.addr));
  if (l1_hit) {
    ++core.metrics.l1_hits;
    return start + config_.l1_latency;
  }

  const LineAddr line = config_.l2.line_of(rec.addr);
  const Cycle t = start + config_.l1_latency;
  drain_l2(t);
  ++core.metrics.l2_lookups;
  // Provenance clocks reuse in *demand* L2 lookups; helper lookups are not
  // processor reuse (the same convention as the l2_kind downgrade below).
  const bool track_provenance =
      provenance_.has_value() && core.origin == FillOrigin::kDemand;
  if (track_provenance) provenance_->on_demand_lookup();

  // Only the main computation thread's touches count as "used by the
  // processor": a helper hit on its own earlier fill must not clear the
  // unused-prefetch status that pollution cases 2/3 are defined over.
  const AccessKind l2_kind = core.origin == FillOrigin::kDemand
                                 ? rec.kind()
                                 : AccessKind::kPrefetch;
  Cycle done;
  bool was_l2_miss;
  // Demand hits are the hottest event in a run, so the tracker is consulted
  // only on the *first* demand use of a prefetch-origin line — reported by
  // access() from the line's own metadata in the same tag scan that serves
  // the hit. Every other hit skips the tracker entirely.
  std::uint32_t first_use_slot = Cache::kNoSlot;
  if (l2_->access(line, l2_kind, t, first_use_slot)) {
    // Totally hit: data resident in the shared L2.
    ++core.metrics.totally_hits;
    was_l2_miss = false;
    done = t + config_.l2_latency;
    if (track_provenance && first_use_slot != Cache::kNoSlot) {
      provenance_->on_demand_hit(first_use_slot);
    }
  } else if (const MshrEntry* inflight = mshr_->find(line)) {
    // Partially hit: request already issued, not yet serviced. Wait out the
    // residual latency only.
    ++core.metrics.partially_hits;
    was_l2_miss = true;
    const Cycle fill_time = inflight->fill_time;
    mshr_->merge(line, core.origin == FillOrigin::kDemand);
    if (rec.kind() == AccessKind::kWrite) mshr_->mark_write(line);
    done = std::max(t, fill_time) + config_.l2_latency;
    core.metrics.stall_cycles += done - t;
  } else {
    // Totally miss: full memory round trip.
    ++core.metrics.totally_misses;
    was_l2_miss = true;
    if (core.origin == FillOrigin::kDemand) {
      // Case-1 pollution is defined over processor reuse only. On a
      // confirmed displacement reuse the pollution shadow hands back the
      // ShadowAux the eviction attached, closing the loop to the fill.
      if (provenance_) {
        ShadowAux aux;
        if (pollution_->on_demand_miss(line, &aux)) {
          provenance_->on_confirmed_reuse(aux);
        }
      } else {
        pollution_->on_demand_miss(line);
      }
    }
    Cycle issue = t;
    while (mshr_->full()) {
      // Structural stall: wait for the earliest outstanding fill, install it,
      // retry.
      const Cycle next = mshr_->next_completion();
      SPF_ASSERT(next != std::numeric_limits<Cycle>::max(),
                 "MSHR full yet empty");
      issue = std::max(issue, next);
      drain_l2(issue);
    }
    const Cycle fill_time = memory_->issue(issue, core.origin);
    // Note: a helper core's blocking load allocates with origin kHelper; the
    // helper stalls on it, but the fill counts as wanted data only once the
    // main thread touches it (used_since_fill stays false until then).
    const MshrEntry* entry =
        mshr_->allocate(line, issue, fill_time, core.origin, id);
    SPF_ASSERT(entry != nullptr, "allocation after full-wait must succeed");
    if (rec.kind() == AccessKind::kWrite) mshr_->mark_write(line);
    done = fill_time + config_.l2_latency;
    core.metrics.stall_cycles += done - t;
  }

  issue_hw_prefetches(core, id, rec, was_l2_miss, t);
  return done;
}

Cycle CmpSimulator::software_prefetch(CoreState& core, CoreId id,
                                      const TraceRecord& rec, Cycle start) {
  // Non-binding prefetch: occupies the core for one issue slot only.
  const Cycle t = start + 1;
  const LineAddr line = config_.l2.line_of(rec.addr);
  drain_l2(t);

  if (l2_->contains(line) || mshr_->find(line) != nullptr) {
    ++core.metrics.prefetches_elided;
    return t;
  }
  if (mshr_->full()) {
    // Real prefetch instructions are dropped under MSHR pressure.
    ++core.metrics.prefetches_dropped;
    return t;
  }
  const FillOrigin origin = core.origin == FillOrigin::kDemand
                                ? FillOrigin::kHelper
                                : core.origin;
  const Cycle fill_time = memory_->issue(t, origin);
  mshr_->allocate(line, t, fill_time, origin, id);
  ++core.metrics.prefetches_issued;
  return t;
}

void CmpSimulator::issue_hw_prefetches(CoreState& core, CoreId id,
                                       const TraceRecord& rec, bool was_l2_miss,
                                       Cycle now) {
  if (!config_.hw_prefetch) return;
  CorePrefetchers::Candidates candidates{};
  const std::uint32_t n = core.prefetcher->observe_into(
      PrefetchObservation{.addr = rec.addr, .site = rec.site,
                          .was_miss = was_l2_miss},
      candidates);
  for (std::uint32_t i = 0; i < n; ++i) {
    const LineAddr line = candidates[i];
    if (l2_->contains(line) || mshr_->find(line) != nullptr) continue;
    if (mshr_->full()) break;  // hw prefetches never stall: drop the rest
    const Cycle fill_time = memory_->issue(now, FillOrigin::kHardware);
    mshr_->allocate(line, now, fill_time, FillOrigin::kHardware, id);
    ++hw_prefetches_issued_;
  }
}

}  // namespace spf
