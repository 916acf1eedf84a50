#include "src/common/threading.h"

#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>

namespace wdg {

ThreadTimer& ThreadTimer::ForThisThread() {
  thread_local ThreadTimer timer;
  return timer;
}

ThreadTimer::ThreadTimer() : fd_(timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC)) {}

ThreadTimer::~ThreadTimer() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

void ThreadTimer::ArmAfter(DurationNs after) {
  if (fd_ < 0) {
    return;
  }
  // An all-zero it_value would disarm the timer rather than fire it.
  const DurationNs ns = after > 0 ? after : 1;
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  spec.it_value.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  timerfd_settime(fd_, 0, &spec, nullptr);
}

void ThreadTimer::Wait() {
  if (fd_ < 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return;
  }
  uint64_t expirations = 0;
  while (read(fd_, &expirations, sizeof(expirations)) < 0 && errno == EINTR) {
  }
}

}  // namespace wdg
