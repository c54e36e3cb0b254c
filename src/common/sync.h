// Capability-annotated synchronization layer (DESIGN §3i).
//
// Every mutex-discipline invariant in the concurrent stack — the ThreadPool
// job/task queues, the query server's admission state, the RtreeKnnSource
// refinement cache, the JsonReport entry list — used to
// be checked only dynamically, by whatever schedules the TSan leg happened
// to hit. Clang's Thread Safety Analysis ("C/C++ Thread Safety Analysis",
// Hutchins et al., -Wthread-safety) proves lock-held-before-access at
// compile time instead: shared state is declared GUARDED_BY its mutex,
// functions that expect the lock held declare REQUIRES, and any access path
// that cannot prove the capability is a compile error under the checks
// build (-Werror). Off Clang the macros expand to nothing and the wrappers
// compile down to the std primitives they hold.
//
// House rule (enforced by scripts/lint.sh): src/ code outside this header
// never names std::mutex / std::lock_guard / std::unique_lock /
// std::condition_variable directly — it uses Mutex / MutexLock / CondVar so
// the annotations cannot be bypassed by accident.
//
// tests/thread_safety/ holds the compile-fail harness proving the gate
// actually fires: snippets that read guarded state without the lock, skip a
// REQUIRES, double-acquire, or release an unheld mutex MUST fail to compile
// under -Wthread-safety -Werror (and a positive snippet must pass).

#ifndef FUZZYDB_COMMON_SYNC_H_
#define FUZZYDB_COMMON_SYNC_H_

#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Annotation macros — the standard set from the Clang Thread Safety
// Analysis documentation. No-ops on compilers without the attribute.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define FUZZYDB_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef FUZZYDB_THREAD_ANNOTATION_
#define FUZZYDB_THREAD_ANNOTATION_(x)  // not Clang: expands to nothing
#endif

// Declares a class to be a capability (e.g. CAPABILITY("mutex")).
#define CAPABILITY(x) FUZZYDB_THREAD_ANNOTATION_(capability(x))
// Declares an RAII class that acquires on construction, releases on
// destruction.
#define SCOPED_CAPABILITY FUZZYDB_THREAD_ANNOTATION_(scoped_lockable)
// Data member readable/writable only while the capability is held.
#define GUARDED_BY(x) FUZZYDB_THREAD_ANNOTATION_(guarded_by(x))
// Pointer member whose *pointee* is protected by the capability.
#define PT_GUARDED_BY(x) FUZZYDB_THREAD_ANNOTATION_(pt_guarded_by(x))
// Lock-ordering declarations (deadlock prevention).
#define ACQUIRED_BEFORE(...) \
  FUZZYDB_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  FUZZYDB_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
// Caller must hold the capability exclusively (resp. at least shared).
#define REQUIRES(...) \
  FUZZYDB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  FUZZYDB_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
// Function acquires / releases the capability and holds it past return
// (resp. expects it held on entry and releases it).
#define ACQUIRE(...) \
  FUZZYDB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  FUZZYDB_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) \
  FUZZYDB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  FUZZYDB_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
// Function acquires the capability only when returning `ret`.
#define TRY_ACQUIRE(...) \
  FUZZYDB_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
// Caller must NOT hold the capability (non-reentrant deadlock guard).
#define EXCLUDES(...) FUZZYDB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
// Runtime assertion that the capability is held (trust anchor).
#define ASSERT_CAPABILITY(x) FUZZYDB_THREAD_ANNOTATION_(assert_capability(x))
// Function returns a reference to the capability guarding its result.
#define RETURN_CAPABILITY(x) FUZZYDB_THREAD_ANNOTATION_(lock_returned(x))
// Escape hatch: disables the analysis for one function. Every use must
// carry a comment saying why the analysis cannot see the invariant.
#define NO_THREAD_SAFETY_ANALYSIS \
  FUZZYDB_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace fuzzydb {

class CondVar;

/// std::mutex with the capability attribute: GUARDED_BY(mu_) on a member
/// makes every unlocked access a compile error under -Wthread-safety.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped lock over a Mutex (RAII std::unique_lock underneath). Supports
/// mid-scope Unlock()/Lock() pairs — the analysis tracks the capability
/// through them — and is what CondVar waits release.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Temporary release inside the scope (e.g. running a task the lock must
  /// not cover); the destructor still releases only what is held.
  void Unlock() RELEASE() { lock_.unlock(); }
  void Lock() ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with Mutex/MutexLock. Wait takes both the
/// Mutex (so REQUIRES can prove the caller holds it) and the MutexLock
/// whose underlying lock the wait atomically releases and reacquires.
///
/// No predicate overload on purpose: a lambda is analyzed as its own
/// function, which cannot prove it holds the caller's mutex, so guarded
/// reads inside it would (rightly) fail the analysis. Spell the loop out:
///
///     MutexLock lock(mu_);
///     while (!ready_) cv_.Wait(mu_, lock);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock` (which must hold `mu`) and blocks until
  /// notified; reacquires before returning. Spurious wakeups possible —
  /// always wait in a while loop.
  void Wait(Mutex& mu, MutexLock& lock) REQUIRES(mu) {
    static_cast<void>(mu);
    cv_.wait(lock.lock_);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_SYNC_H_
