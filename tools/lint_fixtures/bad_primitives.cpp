// Fixture: raw thread primitives and detach outside src/util/.
#include <condition_variable>
#include <mutex>
#include <thread>

namespace fixture {

class Racy {
 public:
  void start() {
    worker_ = std::thread([] {});  // LINT-EXPECT: raw-thread-primitive
    worker_.detach();              // LINT-EXPECT: thread-detach
  }

 private:
  std::mutex mu_;                  // LINT-EXPECT: raw-thread-primitive
  std::condition_variable cv_;     // LINT-EXPECT: raw-thread-primitive
  std::thread worker_;             // LINT-EXPECT: raw-thread-primitive
};

// Mentions in comments or strings must NOT be flagged:
//   std::mutex, detach()
inline const char* kDoc = "never call detach() or std::mutex directly";

// A suppressed use is also clean:
inline void suppressed_owner() {
  std::thread t([] {});  // oopp-lint: allow(raw-thread-primitive)
  t.join();
}

}  // namespace fixture
