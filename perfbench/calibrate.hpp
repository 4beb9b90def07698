// Host speed calibration: a fixed CPU task that shares no code with upsim,
// timed on a thread of its own while the program runs.
//
// On a shared host the speed of a vCPU drifts by a quarter or more within
// seconds and over minutes, as other tenants load the machine, and the
// program's CPU time per request drifts with it.  Scaling a CPU time by the
// calibration task's time over the same moments removes that drift and keeps
// what the program changes: a regression in upsim slows the program, never
// the task.
#pragma once

#include <time.h>

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// About the calibration task's mean CPU time on a quiet stretch of the
/// host the benchmark's bounds were set on, in microseconds.  Scaled CPU
/// times read as they would there.
inline constexpr double kNominalCalibrationUs = 500.0;

/// Times one run of the calibration task every 5 ms, on a thread of its own,
/// from construction to destruction: about a tenth of one vCPU.
class Calibrator {
 public:
  Calibrator();
  ~Calibrator();
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// The mean CPU time, in microseconds, of the runs finished since the
  /// last take(); waits for one if none has.  A mean, not a median: a run
  /// the hypervisor preempts costs more, as the program's requests do.
  [[nodiscard]] double take();

  /// CPU time the calibration thread has used so far, in seconds: a process
  /// CPU time without it is the program's.
  [[nodiscard]] double cpu_s() const;

 private:
  void loop();

  std::mutex mutex_;
  std::condition_variable changed_;
  bool stop_ = false;
  std::vector<double> runs_us_;
  std::thread thread_;
  clockid_t clock_{};  ///< thread_'s CPU clock
};

}  // namespace perfbench
