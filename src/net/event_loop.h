// Multi-threaded, one-shot readiness event loop for the networked front-end.
//
// A Poller abstracts the OS readiness API: epoll on Linux, poll(2)
// everywhere (and on Linux when forced, so the fallback is testable on the
// primary platform). Every registered fd is armed ONE-SHOT and carries a
// token: Wait hands one ready fd to exactly one caller and then reports
// nothing more for it until its owner calls Rearm. The EventLoop runs the
// same wait-dispatch loop on every thread that calls Run(), plus an
// optional periodic tick (idle sweeps) taken by whichever thread finds it
// due. One rule makes the concurrency story auditable: the thread that
// takes an fd's event owns that fd until it re-arms it, so it may read,
// execute and write without handing the connection to another thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/socket.h"
#include "util/status.h"

namespace irdb::net {

struct PollEvents {
  bool readable = false;
  bool writable = false;
  bool error = false;  // ERR / NVAL — the fd should be torn down
};

// Thread-safe one-shot readiness. Tokens name registrations, not fds: an
// event already taken for a closed fd names the old token, so it cannot
// reach a new registration that reused the fd number.
class Poller {
 public:
  virtual ~Poller() = default;
  // Registers fd armed.
  virtual Status Add(int fd, uint64_t token, bool want_read,
                     bool want_write) = 0;
  // Re-arms fd (after Wait reported it) with a fresh interest set.
  virtual Status Rearm(int fd, uint64_t token, bool want_read,
                       bool want_write) = 0;
  virtual void Remove(int fd) = 0;
  // Blocks up to timeout_ms (-1 = indefinitely) for one ready fd, which is
  // disarmed before this returns true. False on timeout or after Shutdown.
  virtual bool Wait(int timeout_ms, uint64_t* token, PollEvents* ev) = 0;
  // Every blocked and later Wait returns false at once.
  virtual void Shutdown() = 0;
  virtual const char* name() const = 0;
};

// epoll on Linux unless force_poll; poll(2) otherwise.
std::unique_ptr<Poller> MakePoller(bool force_poll);

class EventLoop {
 public:
  // Runs on the thread that took the event; that thread owns the fd until
  // it calls Rearm (or Remove).
  using Handler = std::function<void(uint64_t token, const PollEvents&)>;

  EventLoop(bool force_poll, Handler handler);

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Thread-safe.
  Status Add(int fd, uint64_t token, bool want_read, bool want_write);
  Status Rearm(int fd, uint64_t token, bool want_read, bool want_write);
  void Remove(int fd);

  // Periodic callback, every ~interval_ms, on one of the running threads.
  // Set before the first Run().
  void SetTick(std::function<void()> fn, int interval_ms);

  // Waits for events and dispatches them until Stop(). Any number of
  // threads may run it at once; each event goes to exactly one of them.
  void Run();
  // Thread-safe; every Run() returns after its current handler.
  void Stop();

  const char* poller_name() const { return poller_->name(); }

 private:
  void MaybeTick();

  std::unique_ptr<Poller> poller_;
  Handler handler_;
  std::atomic<bool> stop_{false};

  std::function<void()> tick_;
  int tick_interval_ms_ = 100;
  std::atomic<int64_t> next_tick_ms_{0};
};

}  // namespace irdb::net
