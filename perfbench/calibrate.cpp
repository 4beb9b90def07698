#include "calibrate.hpp"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>


namespace perfbench {

namespace {

constexpr auto kGap = std::chrono::milliseconds(5);

double cpu_us(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) * 1e6 +
         static_cast<double>(t.tv_nsec) * 1e-3;
}

/// Work of the same kind as serving a request — heap allocation, string
/// building and hashing, ordered-map updates, a sort — on fixed inputs.
std::uint64_t task() {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::map<std::string, std::uint64_t> names;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 1500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    names["element_" + std::to_string(x % 701)] += x;
    values.push_back(x);
  }
  std::sort(values.begin(), values.end());
  std::uint64_t sum = 0;
  for (const auto& [name, value] : names) {
    sum += value ^ std::hash<std::string>{}(name);
  }
  for (std::size_t i = 0; i < values.size(); ++i) sum += values[i] * i;
  return sum;
}

}  // namespace

Calibrator::Calibrator() : thread_([this] { loop(); }) {
  pthread_getcpuclockid(thread_.native_handle(), &clock_);
}

Calibrator::~Calibrator() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  changed_.notify_all();
  thread_.join();
}

void Calibrator::loop() {
  volatile std::uint64_t sink = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    lock.unlock();
    const double start = cpu_us(CLOCK_THREAD_CPUTIME_ID);
    sink = sink + task();
    const double run_us = cpu_us(CLOCK_THREAD_CPUTIME_ID) - start;
    lock.lock();
    runs_us_.push_back(run_us);
    changed_.notify_all();
    changed_.wait_for(lock, kGap, [this] { return stop_; });
  }
}

double Calibrator::take() {
  std::unique_lock<std::mutex> lock(mutex_);
  changed_.wait(lock, [this] { return !runs_us_.empty(); });
  double sum_us = 0.0;
  for (const double run_us : runs_us_) sum_us += run_us;
  const double mean_us = sum_us / static_cast<double>(runs_us_.size());
  runs_us_.clear();
  return mean_us;
}

double Calibrator::cpu_s() const { return cpu_us(clock_) * 1e-6; }

}  // namespace perfbench
