// static-check-fixture: path=src/switchmod/fixture_raw_mutex.cpp expect=raw-mutex:3
//
// Library code reaching for the standard lock types directly. Every one of
// these must be reported: raw std locks are invisible to -Wthread-safety,
// so the repo only admits the annotated util::Mutex family.

#include <mutex>

namespace confnet::sw {

class Broken {
 public:
  void touch() {
    const std::lock_guard<std::mutex> lock(mu_);
    ++value_;
  }

 private:
  std::mutex mu_;
  int value_ = 0;
};

}  // namespace confnet::sw
