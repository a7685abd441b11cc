// Event-driven gate-level timing simulation.
//
// Substitutes for ModelSim back-annotated simulation in the paper's
// flow. Given a netlist and one corner's annotated delays (the SDF
// content), the simulator applies an input vector per cycle, schedules
// gate output transitions with per-gate rise/fall delays under
// inertial-delay semantics (a newly scheduled transition on a net
// cancels a pending one — pulses narrower than a gate's delay are
// swallowed, as in real cells and in ModelSim's default), and records
// every toggle of the primary-output nets with its timestamp.
//
// The per-cycle *dynamic delay* — the paper's D[t] — is the time of
// the last toggle at the inputs of the sequential elements (here: the
// registered primary outputs) relative to the cycle's launching clock
// edge. The value actually latched at a clock period tclk is the
// output word as of time tclk, reconstructable from the toggle log;
// comparing it with the settled word yields the ground-truth
// timing-error label.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "liberty/corner.hpp"
#include "netlist/netlist.hpp"

namespace tevot::sim {

/// One observed output-bit transition within a cycle.
struct ToggleEvent {
  double time_ps;
  std::uint32_t output_bit;  ///< index into Netlist::outputs()
  bool value;
};

/// Output words (start/settled/latched) hold at most the first 64
/// primary outputs. Wider FUs (e.g. a 32x32 product plus flags) still
/// record every toggle, but bits >= kOutputWordBits have no slot in
/// the 64-bit words and are excluded from word-level comparisons.
inline constexpr std::uint32_t kOutputWordBits = 64;

/// Applies every toggle with time <= tclk_ps to `start_word` and
/// returns the resulting word — what a register bank clocked with
/// period tclk_ps would capture. Toggles of output bits >=
/// kOutputWordBits are ignored (see above); without the guard the
/// shift would be undefined behavior.
std::uint64_t latchWord(std::uint64_t start_word,
                        std::span<const ToggleEvent> toggles,
                        double tclk_ps);

/// Result of simulating one cycle (one input vector application).
struct CycleRecord {
  /// Time of the last primary-output toggle [ps]; 0 when no output
  /// toggled (the previous result was recomputed identically).
  double dynamic_delay_ps = 0.0;
  /// Output word before this cycle's input was applied (LSB first).
  std::uint64_t start_word = 0;
  /// Fully settled output word of this cycle.
  std::uint64_t settled_word = 0;
  /// Time-ordered toggles of the primary outputs.
  std::vector<ToggleEvent> output_toggles;
  /// Simulation events processed this cycle (for cost accounting).
  std::uint64_t events_processed = 0;

  /// Output word a register bank would capture at clock period
  /// `tclk_ps`: start_word updated by all toggles at time <= tclk_ps.
  std::uint64_t latchedWord(double tclk_ps) const;

  /// True when latching at `tclk_ps` yields a wrong (stale) word —
  /// the paper's per-cycle "timing erroneous" ground truth.
  bool timingError(double tclk_ps) const {
    return latchedWord(tclk_ps) != settled_word;
  }
};

/// Observes every net toggle (absolute time): used for VCD dumping.
using ToggleObserver =
    std::function<void(double time_ps, netlist::NetId net, bool value)>;

class TimingSimulator {
 public:
  /// Cap on the event queue's ring of time buckets. A wider delay
  /// ratio widens the buckets instead of adding more, so queue memory
  /// does not grow with max/min delay.
  static constexpr std::size_t kMaxQueueBuckets = 4096;

  /// Copies what it needs of `delays`; `nl` must outlive the
  /// simulator. Throws std::invalid_argument when the annotation does
  /// not match the netlist, when a gate with inputs has a negative or
  /// non-finite rise/fall delay (zero is legal and exact), or when the
  /// delays sum beyond the double range.
  TimingSimulator(const netlist::Netlist& nl,
                  const liberty::CornerDelays& delays);

  /// Initializes every net to its settled functional value for
  /// `inputs` without recording toggles. Must be called before the
  /// first step().
  void reset(std::span<const std::uint8_t> inputs);

  /// Applies a new input vector at the cycle's clock edge (relative
  /// time 0) and propagates to quiescence.
  CycleRecord step(std::span<const std::uint8_t> inputs);

  /// Installs an observer receiving *absolute* toggle times
  /// (cycle_index * window + intra-cycle time). `window_ps` spaces the
  /// cycles; pass the characterization clock period. Pass nullptr to
  /// detach.
  void setToggleObserver(ToggleObserver observer, double window_ps);

  /// Cycles stepped so far (not reset by reset()).
  std::uint64_t cycleCount() const { return cycle_count_; }

  /// Current settled value of a net (valid after reset()).
  bool netValue(netlist::NetId net) const { return net_values_[net] != 0; }

  /// Total events processed since construction.
  std::uint64_t totalEvents() const { return total_events_; }

  /// Buckets in the event queue's ring (at most kMaxQueueBuckets).
  std::size_t queueBucketCount() const { return buckets_.size(); }

 private:
  /// A scheduled transition. `seq` restarts every cycle (the queue is
  /// empty at quiescence); `net_value` packs net << 1 | value.
  struct Event {
    double time_ps;
    std::uint32_t seq;  ///< schedule order, for cancellation + ties
    std::uint32_t net_value;
  };
  static_assert(sizeof(Event) == 16);

  /// A gate in the simulator's flat layout: missing pins read the
  /// constant-0 slot, `truth` bit (a | b << 1 | c << 2) is the output.
  struct FlatGate {
    netlist::NetId in[3];
    netlist::NetId out;
    double delay_ps[2];  ///< [0] fall, [1] rise
    std::uint8_t truth;
  };

  void scheduleFanout(netlist::NetId net, double now_ps);
  void pushEvent(double time_ps, netlist::NetId net, bool value);
  void insertIntoRun(Event event);
  bool popEvent(Event& event);
  bool nextBucket();
  static void orderByTime(Event* pair);
  std::uint64_t bucketKey(double time_ps) const {
    // time_ps >= 0 and finite (validated delays), so truncation floors.
    return static_cast<std::uint64_t>(time_ps * inv_width_);
  }

  const netlist::Netlist& nl_;
  std::vector<FlatGate> gates_;
  /// Fanout CSR: gates reading net n are fanout_[fanout_begin_[n] ..
  /// fanout_begin_[n + 1]), duplicates and order as Netlist::fanout.
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<std::uint32_t> fanout_;
  /// One byte per net plus a trailing constant-0 slot.
  std::vector<std::uint8_t> net_values_;
  /// Latest schedule sequence per net; an event is stale (cancelled)
  /// unless its seq matches. Implements inertial-delay preemption.
  std::vector<std::uint32_t> latest_seq_;
  std::uint32_t next_seq_ = 0;

  // Bucketed event queue. Event time t has key floor(t * inv_width_),
  // which never decreases as t grows. Events of the bucket being
  // drained (key == run_key_) sit in run_, sorted by (time, seq) and
  // consumed from run_pos_; later keys wait unsorted in ring slot
  // key & (buckets_.size() - 1). The ring spans the largest gate delay,
  // so no two pending keys share a slot.
  double inv_width_ = 0.0;
  std::vector<std::vector<Event>> buckets_;
  std::size_t ring_events_ = 0;
  std::vector<Event> run_;
  std::size_t run_pos_ = 0;
  std::uint64_t run_key_ = 0;

  std::vector<std::uint8_t> prev_inputs_;
  /// This cycle's output toggles, reused across cycles.
  std::vector<ToggleEvent> toggles_;
  bool initialized_ = false;
  std::uint64_t cycle_count_ = 0;
  std::uint64_t total_events_ = 0;
  ToggleObserver observer_;
  double observer_window_ps_ = 0.0;
  /// Maps NetId -> output bit index + 1 (0 = not an output).
  std::vector<std::uint32_t> output_index_;
};

}  // namespace tevot::sim
