#pragma once

/// \file checkpoint_hook.hpp
/// Core-side seam for the checkpoint subsystem.
///
/// The dependency arrow between core and ckpt points one way: ckpt (like
/// sweep) is layered *above* core and serializes its state. Core therefore
/// cannot name a concrete checkpointer — instead CoupledSimulation::advance
/// invokes this abstract hook after every *committed* interval, and ckpt
/// implements it. Committed is the operative word: the hook fires only once
/// the interval's adaptation point has fully landed, so anything it
/// persists is a consistent cut of the run — never mid-ladder, never
/// mid-rollback. (ckpt's bare trace runner owns its loop and needs no
/// hook.)

#include <cstdint>

namespace stormtrack {

class CoupledSimulation;

/// See file comment. The default implementation is a no-op.
class CheckpointHook {
 public:
  virtual ~CheckpointHook() = default;

  /// One committed interval of a coupled run (weather + PDA + tracker +
  /// pipeline + live nest fields). \p interval is the 0-based index of the
  /// interval that just completed. The simulation reference is mutable so
  /// implementations can account their work in its metrics registry (part
  /// of the serialized state).
  virtual void on_interval(CoupledSimulation& /*sim*/, int /*interval*/) {}

  /// The run was just restored from the checkpoint of \p step, whose
  /// recorded state fingerprint is \p state_fingerprint (resume_coupled
  /// calls this), so that checkpoint is already on disk.
  virtual void on_resume(std::int64_t /*step*/,
                         std::uint64_t /*state_fingerprint*/) {}
};

}  // namespace stormtrack
