// Crash-safe model hot-reload: validate-then-swap.
//
// The registry owns the current immutable model set behind a
// mutex-guarded shared_ptr (a plain mutex rather than
// std::atomic<shared_ptr>: libstdc++'s _Sp_atomic unlocks its reader
// path with relaxed ordering, which TSan cannot prove race-free).
// Every request snapshots the pointer once, before it computes,
// and is served entirely from that snapshot, so a reload racing
// in-flight requests can never produce a mixed-model answer. reload()
// builds and validates a complete candidate set off to the side
// (TevotModel::validateForServing gates every model) and only then
// publishes it with one pointer swap; any failure — unreadable file,
// bad magic, truncated forest, failed canary, injected serve.reload
// fault — leaves the previous set serving untouched.
//
// Model directory layout: one "<fu>.model" file per functional unit
// (int_add.model, fp_mul.model, …), written by `tevot_cli train` /
// TevotModel::save. Units without a file are simply not served
// (MODEL_UNAVAILABLE), but at least one model must load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "tevot/model.hpp"
#include "util/fault_injection.hpp"
#include "util/status.hpp"

namespace tevot::serve {

struct ModelSet {
  /// fu name -> trained model; immutable once published.
  std::map<std::string, core::TevotModel> models;
  std::uint64_t generation = 0;

  const core::TevotModel* find(const std::string& fu) const {
    const auto it = models.find(fu);
    return it == models.end() ? nullptr : &it->second;
  }
};

class ModelRegistry {
 public:
  /// `strict_verify` additionally gates every candidate model through
  /// verify::certifyModelForServing — interval certification over the
  /// whole operating box, not just point canaries — so a model whose
  /// guaranteed delay bound is broken (negative or non-finite anywhere
  /// in the box) is refused at reload while the previous set keeps
  /// serving.
  explicit ModelRegistry(std::string model_dir, bool strict_verify = false);

  /// Initial load; the server refuses to start when this fails.
  util::Status load() { return reload(nullptr); }

  /// Validate-then-swap reload from the model directory. `faults`
  /// (may be null) is consulted at the serve.reload point. On failure
  /// the previous set keeps serving and the error is returned.
  util::Status reload(util::FaultInjector* faults);

  /// The current immutable set (never null after a successful load).
  std::shared_ptr<const ModelSet> snapshot() const {
    const std::lock_guard<std::mutex> lock(current_mutex_);
    return current_;
  }

  std::uint64_t generation() const {
    const std::shared_ptr<const ModelSet> set = snapshot();
    return set == nullptr ? 0 : set->generation;
  }

 private:
  std::string model_dir_;
  bool strict_verify_ = false;
  std::mutex reload_mutex_;  ///< serializes concurrent reload()s
  mutable std::mutex current_mutex_;  ///< guards current_
  std::shared_ptr<const ModelSet> current_;
  std::uint64_t next_generation_ = 1;
};

}  // namespace tevot::serve
