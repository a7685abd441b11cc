#include "sim/timing_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace tevot::sim {

using netlist::Gate;
using netlist::GateId;
using netlist::NetId;

std::uint64_t latchWord(std::uint64_t start_word,
                        std::span<const ToggleEvent> toggles,
                        double tclk_ps) {
  std::uint64_t word = start_word;
  for (const ToggleEvent& toggle : toggles) {
    if (toggle.time_ps > tclk_ps) break;
    if (toggle.output_bit >= kOutputWordBits) continue;  // no word slot
    const std::uint64_t mask = 1ULL << toggle.output_bit;
    if (toggle.value) {
      word |= mask;
    } else {
      word &= ~mask;
    }
  }
  return word;
}

std::uint64_t CycleRecord::latchedWord(double tclk_ps) const {
  return latchWord(start_word, output_toggles, tclk_ps);
}

namespace {

/// Keys an event may land past the bucket being drained beyond the
/// ring's span: one for flooring both ends of a delay, one for
/// rounding in time * inv_width, and one so the drained slot itself
/// never aliases.
constexpr std::size_t kKeySlack = 3;

/// Buckets per smallest positive delay. Narrow buckets hold few events
/// each, so sorting a bucket when its turn comes is cheap; a delay
/// still never lands in the bucket it was scheduled from.
constexpr double kBucketsPerMinDelay = 8.0;

/// Longest bucket sorted by branch-free insertion (quadratic in its
/// length); longer ones take std::sort.
constexpr std::size_t kMaxBranchFreeSort = 16;

using U64x2 = std::uint64_t __attribute__((vector_size(16)));
using F64x2 = double __attribute__((vector_size(16)));

[[noreturn]] void throwSeqOverflow() {
  throw std::overflow_error(
      "TimingSimulator: 2^32 - 1 events scheduled in one cycle");
}

}  // namespace

inline void TimingSimulator::orderByTime(Event* pair) {
  // Swaps pair[0] and pair[1] when pair[0] is later, by a mask select
  // on both 16-byte events instead of a branch.
  U64x2 a;
  U64x2 b;
  std::memcpy(&a, pair, sizeof a);
  std::memcpy(&b, pair + 1, sizeof b);
  const double time_a = ((F64x2)a)[0];
  const double time_b = ((F64x2)b)[0];
  const auto later = (U64x2)(F64x2{time_a, time_a} > F64x2{time_b, time_b});
  const U64x2 low = (b & later) | (a & ~later);
  const U64x2 high = (a & later) | (b & ~later);
  std::memcpy(pair, &low, sizeof low);
  std::memcpy(pair + 1, &high, sizeof high);
}

TimingSimulator::TimingSimulator(const netlist::Netlist& nl,
                                 const liberty::CornerDelays& delays)
    : nl_(nl) {
  if (delays.rise_ps.size() != nl.gateCount() ||
      delays.fall_ps.size() != nl.gateCount()) {
    throw std::invalid_argument(
        "TimingSimulator: delay annotation does not match netlist");
  }
  const std::size_t net_count = nl.netCount();
  if (net_count >= (std::size_t{1} << 31)) {
    throw std::invalid_argument("TimingSimulator: more than 2^31 nets");
  }
  const auto const0_slot = static_cast<NetId>(net_count);

  // Snapshot gates and delays. Constants (no inputs) are never
  // scheduled, so only gates with inputs must have usable delays.
  double min_positive = std::numeric_limits<double>::infinity();
  double max_delay = 0.0;
  double path_bound = 0.0;
  gates_.reserve(nl.gateCount());
  for (GateId g = 0; g < nl.gateCount(); ++g) {
    const Gate& gate = nl.gate(g);
    FlatGate flat{};
    for (int pin = 0; pin < 3; ++pin) {
      flat.in[pin] = pin < gate.fanin ? gate.in[pin] : const0_slot;
    }
    flat.out = gate.out;
    flat.delay_ps[0] = delays.fall_ps[g];
    flat.delay_ps[1] = delays.rise_ps[g];
    for (unsigned pins = 0; pins < 8; ++pins) {
      if (netlist::evalCell(gate.kind, (pins & 1u) != 0, (pins & 2u) != 0,
                            (pins & 4u) != 0)) {
        flat.truth |= static_cast<std::uint8_t>(1u << pins);
      }
    }
    gates_.push_back(flat);
    if (gate.fanin == 0) continue;
    for (int edge = 0; edge < 2; ++edge) {
      const double delay = flat.delay_ps[edge];
      if (!std::isfinite(delay) || delay < 0.0) {
        std::ostringstream msg;
        msg << "TimingSimulator: gate " << g << " ("
            << netlist::cellName(gate.kind) << ") has "
            << (edge == 1 ? "rise" : "fall") << " delay " << delay
            << " ps; delays must be finite and >= 0";
        throw std::invalid_argument(msg.str());
      }
      if (delay > 0.0) min_positive = std::min(min_positive, delay);
      max_delay = std::max(max_delay, delay);
    }
    path_bound += std::max(flat.delay_ps[0], flat.delay_ps[1]);
  }
  // Every event time is a sum of delays along one path, so this keeps
  // event times (and their bucket keys) finite.
  if (!std::isfinite(2.0 * path_bound)) {
    throw std::invalid_argument(
        "TimingSimulator: gate delays sum beyond the double range");
  }

  // Bucket width: an eighth of the smallest positive delay, widened
  // when the delay ratio would need more than kMaxQueueBuckets
  // buckets. The ring spans the largest delay, so a scheduled event's
  // key is at most span + 2 past the bucket being drained. When every
  // delay is zero (or so small that 1 / width overflows) all keys are
  // 0 and the queue is a single sorted run.
  std::size_t bucket_count = 1;
  if (max_delay > 0.0) {
    const double max_span =
        static_cast<double>(kMaxQueueBuckets - kKeySlack - 1);
    inv_width_ = 1.0 / std::max(min_positive / kBucketsPerMinDelay,
                                 max_delay / max_span);
    if (std::isfinite(inv_width_)) {
      const auto span = static_cast<std::size_t>(max_delay * inv_width_);
      bucket_count = std::bit_ceil(span + kKeySlack);
    } else {
      inv_width_ = 0.0;
    }
  }
  buckets_.resize(bucket_count);

  fanout_begin_.reserve(net_count + 1);
  fanout_begin_.push_back(0);
  for (NetId n = 0; n < net_count; ++n) {
    const auto readers = nl.fanout(n);
    fanout_.insert(fanout_.end(), readers.begin(), readers.end());
    fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_.size()));
  }

  net_values_.assign(net_count + 1, 0);
  latest_seq_.assign(net_count, 0);
  output_index_.assign(net_count, 0);
  const auto outputs = nl.outputs();
  for (std::uint32_t i = 0; i < outputs.size(); ++i) {
    output_index_[outputs[i]] = i + 1;
  }
}

void TimingSimulator::setToggleObserver(ToggleObserver observer,
                                        double window_ps) {
  observer_ = std::move(observer);
  observer_window_ps_ = window_ps;
}

void TimingSimulator::reset(std::span<const std::uint8_t> inputs) {
  net_values_ = nl_.evalFunctional(inputs);
  net_values_.push_back(0);  // constant-0 slot for missing pins
  prev_inputs_.assign(inputs.begin(), inputs.end());
  for (std::vector<Event>& bucket : buckets_) bucket.clear();
  ring_events_ = 0;
  run_.clear();
  run_pos_ = 0;
  std::fill(latest_seq_.begin(), latest_seq_.end(), 0);
  initialized_ = true;
}

inline void TimingSimulator::pushEvent(double time_ps, NetId net,
                                       bool value) {
  if (next_seq_ == std::numeric_limits<std::uint32_t>::max()) [[unlikely]] {
    throwSeqOverflow();
  }
  const std::uint32_t seq = ++next_seq_;
  const std::uint32_t net_value = net << 1 | (value ? 1u : 0u);
  latest_seq_[net] = seq;
  const std::uint64_t key = bucketKey(time_ps);
  if (key > run_key_) [[likely]] {
    buckets_[key & (buckets_.size() - 1)].push_back(
        Event{time_ps, seq, net_value});
    ++ring_events_;
  } else {
    insertIntoRun(Event{time_ps, seq, net_value});
  }
}

void TimingSimulator::insertIntoRun(Event event) {
  // Lands in the bucket being drained (a zero delay, or one shorter
  // than the bucket width). Its seq is the largest yet, so it goes
  // after every queued event of equal or earlier time.
  const auto at = std::upper_bound(
      run_.begin() + static_cast<std::ptrdiff_t>(run_pos_), run_.end(),
      event.time_ps, [](double t, const Event& e) { return t < e.time_ps; });
  run_.insert(at, event);
}

inline bool TimingSimulator::popEvent(Event& event) {
  if (run_pos_ == run_.size() && !nextBucket()) return false;
  event = run_[run_pos_++];
  return true;
}

bool TimingSimulator::nextBucket() {
  if (ring_events_ == 0) return false;
  // Every event in the next non-empty bucket is later than anything
  // drained so far, and earlier than any event of a later bucket.
  run_pos_ = 0;
  const std::size_t mask = buckets_.size() - 1;
  do {
    ++run_key_;
  } while (buckets_[run_key_ & mask].empty());
  // Copy rather than swap, so each bucket keeps only the capacity its
  // own largest occupancy needed.
  std::vector<Event>& bucket = buckets_[run_key_ & mask];
  run_.assign(bucket.begin(), bucket.end());
  bucket.clear();
  ring_events_ -= run_.size();
  // A bucket's events were appended in seq order, so insertion by
  // compare-exchange on time alone (equal times never swap) yields
  // (time, seq) order without data-dependent branches. Buckets mostly
  // hold a few events; long ones (mass ties, a capped ring) take
  // std::sort.
  const std::size_t n = run_.size();
  if (n > kMaxBranchFreeSort) {
    std::sort(run_.begin(), run_.end(), [](const Event& a, const Event& b) {
      if (a.time_ps != b.time_ps) return a.time_ps < b.time_ps;
      return a.seq < b.seq;
    });
    return true;
  }
  Event* const events = run_.data();
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = i; j > 0; --j) orderByTime(events + j - 1);
  }
  return true;
}

inline void TimingSimulator::scheduleFanout(NetId net, double now_ps) {
  const std::uint8_t* values = net_values_.data();
  for (std::uint32_t i = fanout_begin_[net]; i < fanout_begin_[net + 1];
       ++i) {
    const FlatGate& gate = gates_[fanout_[i]];
    const unsigned pins = values[gate.in[0]] | values[gate.in[1]] << 1 |
                          values[gate.in[2]] << 2;
    const std::uint8_t new_value = (gate.truth >> pins) & 1u;
    // Only schedule when the projected value differs from the present
    // one, or when a pending (possibly stale) transition needs to be
    // superseded back to the current value.
    const bool has_pending = latest_seq_[gate.out] != 0;
    if (new_value == values[gate.out] && !has_pending) continue;
    pushEvent(now_ps + gate.delay_ps[new_value], gate.out, new_value != 0);
  }
}

CycleRecord TimingSimulator::step(std::span<const std::uint8_t> inputs) {
  if (!initialized_) {
    throw std::logic_error("TimingSimulator: step before reset");
  }
  const auto input_nets = nl_.inputs();
  if (inputs.size() != input_nets.size()) {
    throw std::invalid_argument("TimingSimulator: input arity mismatch");
  }

  CycleRecord record;
  const auto outputs = nl_.outputs();
  // Words intentionally hold only the first kOutputWordBits outputs;
  // see the comment on kOutputWordBits.
  for (std::uint32_t i = 0; i < outputs.size() && i < kOutputWordBits; ++i) {
    if (net_values_[outputs[i]]) record.start_word |= (1ULL << i);
  }

  toggles_.clear();
  // The queue is empty at quiescence, so schedule order restarts.
  run_.clear();
  run_pos_ = 0;
  run_key_ = 0;
  next_seq_ = 0;

  const double cycle_base =
      observer_ ? static_cast<double>(cycle_count_) * observer_window_ps_
                : 0.0;

  // Launch: apply changed input bits at the clock edge (t = 0).
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const bool new_value = inputs[i] != 0;
    const bool old_value = prev_inputs_[i] != 0;
    if (new_value == old_value) continue;
    net_values_[input_nets[i]] = new_value ? 1 : 0;
    if (observer_) observer_(cycle_base, input_nets[i], new_value);
    // A primary input marked as a primary output is a zero-delay arc:
    // STA seeds its arrival at 0, so the simulator must record its
    // transition as an output toggle at the clock edge itself.
    // Without this, latchedWord() never sees the transition and every
    // cycle reads as a stale-value timing error (check repro seed 1,
    // tests/check/sim_vs_sta_test.cpp).
    const std::uint32_t out_slot = output_index_[input_nets[i]];
    if (out_slot != 0) {
      toggles_.push_back(ToggleEvent{0.0, out_slot - 1, new_value});
    }
    scheduleFanout(input_nets[i], 0.0);
  }
  prev_inputs_.assign(inputs.begin(), inputs.end());

  // Propagate to quiescence.
  Event event;
  while (popEvent(event)) {
    ++record.events_processed;
    const NetId net = event.net_value >> 1;
    if (latest_seq_[net] != event.seq) continue;  // superseded
    latest_seq_[net] = 0;
    const bool value = (event.net_value & 1u) != 0;
    if ((net_values_[net] != 0) == value) continue;  // no toggle
    net_values_[net] = value ? 1 : 0;
    if (observer_) observer_(cycle_base + event.time_ps, net, value);
    const std::uint32_t out_slot = output_index_[net];
    if (out_slot != 0) {
      toggles_.push_back(ToggleEvent{event.time_ps, out_slot - 1, value});
      record.dynamic_delay_ps =
          std::max(record.dynamic_delay_ps, event.time_ps);
    }
    scheduleFanout(net, event.time_ps);
  }

  // One exact-size copy: traces keep these vectors, so growth slack
  // would stay resident.
  record.output_toggles.assign(toggles_.begin(), toggles_.end());
  for (std::uint32_t i = 0; i < outputs.size() && i < kOutputWordBits; ++i) {
    if (net_values_[outputs[i]]) record.settled_word |= (1ULL << i);
  }
  ++cycle_count_;
  total_events_ += record.events_processed;
  return record;
}

}  // namespace tevot::sim
