#include "net/event_loop.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <vector>

#ifdef __linux__
#include <sys/epoll.h>
#endif

namespace irdb::net {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A non-blocking self-pipe: Write() makes its read end readable.
class WakePipe {
 public:
  WakePipe() {
    int pipefd[2];
    IRDB_CHECK_MSG(::pipe(pipefd) == 0, "pipe() failed");
    read_.reset(pipefd[0]);
    write_.reset(pipefd[1]);
    IRDB_CHECK(SetNonBlocking(read_.get()).ok());
    IRDB_CHECK(SetNonBlocking(write_.get()).ok());
  }
  int read_fd() const { return read_.get(); }
  void Write() {
    char b = 1;
    // A full pipe already guarantees a pending wakeup; ignore the result.
    (void)::write(write_.get(), &b, 1);
  }
  void Drain() {
    char buf[256];
    while (ReadSome(read_.get(), buf, sizeof buf).state == IoState::kOk) {
    }
  }

 private:
  Fd read_, write_;
};

// poll(2) fallback: portable, O(n) per wait. Fine for the connection counts
// this framework targets; epoll is used on Linux for the event-loop shape
// the paper's "off-the-shelf components" goal implies in production.
//
// One caller at a time sits in poll() over the armed fds plus the wake
// pipe; the others wait on cv_ for a queued event or for the seat. Every
// fd poll() reports is disarmed and queued, and each Wait takes one, so a
// burst spreads across the waiting threads. A change to the armed set while
// a caller is inside poll() writes the wake pipe, so poll() restarts over
// the new set.
class PollPoller final : public Poller {
 public:
  Status Add(int fd, uint64_t token, bool want_read,
             bool want_write) override {
    std::lock_guard<std::mutex> lock(mu_);
    entries_[fd] = {token, Mask(want_read, want_write), /*armed=*/true};
    InterruptPollLocked();
    return Status::Ok();
  }
  Status Rearm(int fd, uint64_t token, bool want_read,
               bool want_write) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(fd);
    if (it == entries_.end()) return Status::NotFound("fd not registered");
    it->second = {token, Mask(want_read, want_write), /*armed=*/true};
    InterruptPollLocked();
    return Status::Ok();
  }
  void Remove(int fd) override {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.erase(fd);
    InterruptPollLocked();
  }

  bool Wait(int timeout_ms, uint64_t* token, PollEvents* ev) override {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    // A caller proceeds to a queued event, or to the seat once it is free.
    auto can_proceed = [this] {
      return shutdown_ || !ready_.empty() || !polling_;
    };
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (timeout_ms < 0) {
        cv_.wait(lock, can_proceed);
      } else if (!cv_.wait_until(lock, deadline, can_proceed)) {
        return false;
      }
      if (shutdown_) return false;
      if (!ready_.empty()) {
        *token = ready_.front().first;
        *ev = ready_.front().second;
        ready_.pop_front();
        return true;
      }
      int wait_ms = -1;
      if (timeout_ms >= 0) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0) return false;
        wait_ms = static_cast<int>(left.count());
      }
      PollOnce(lock, wait_ms);
    }
  }

  void Shutdown() override {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    wake_.Write();
    cv_.notify_all();
  }

  const char* name() const override { return "poll"; }

 private:
  struct Entry {
    uint64_t token = 0;
    short mask = 0;
    bool armed = false;
  };

  static short Mask(bool r, bool w) {
    return static_cast<short>((r ? POLLIN : 0) | (w ? POLLOUT : 0));
  }

  void InterruptPollLocked() {
    if (polling_) wake_.Write();
  }

  // Takes the poll() seat: polls without mu_ held, then disarms and queues
  // every reported fd whose registration is unchanged.
  void PollOnce(std::unique_lock<std::mutex>& lock, int wait_ms) {
    polling_ = true;
    pfds_.assign(1, pollfd{wake_.read_fd(), POLLIN, 0});
    tokens_.assign(1, 0);
    for (const auto& [fd, e] : entries_) {
      if (!e.armed) continue;
      pfds_.push_back({fd, e.mask, 0});
      tokens_.push_back(e.token);
    }
    lock.unlock();
    int n = ::poll(pfds_.data(), pfds_.size(), wait_ms);
    const int poll_errno = errno;
    lock.lock();
    polling_ = false;
    IRDB_CHECK_MSG(n >= 0 || poll_errno == EINTR, std::strerror(poll_errno));
    if (n > 0 && pfds_[0].revents != 0) wake_.Drain();
    for (size_t i = 1; n > 0 && i < pfds_.size(); ++i) {
      const pollfd& p = pfds_[i];
      if (p.revents == 0) continue;
      auto it = entries_.find(p.fd);
      // Removed, re-registered under a new token, or already taken.
      if (it == entries_.end() || it->second.token != tokens_[i] ||
          !it->second.armed) {
        continue;
      }
      it->second.armed = false;
      PollEvents ev;
      ev.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      ev.writable = (p.revents & POLLOUT) != 0;
      ev.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      ready_.emplace_back(tokens_[i], ev);
    }
    cv_.notify_all();  // the seat is free, and events may be queued
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<int, Entry> entries_;
  std::deque<std::pair<uint64_t, PollEvents>> ready_;  // disarmed, untaken
  bool polling_ = false;   // a caller is inside poll()
  bool shutdown_ = false;
  WakePipe wake_;
  // The seat's scratch: only the caller inside poll() touches these.
  std::vector<pollfd> pfds_;
  std::vector<uint64_t> tokens_;
};

#ifdef __linux__
// EPOLLONESHOT gives the one-shot contract in the kernel. Each Wait takes a
// single event, so a thread never holds a second connection's event while a
// statement of the first blocks. The wake pipe is level-triggered and never
// drained: once Shutdown writes it, every epoll_wait returns at once.
class EpollPoller final : public Poller {
 public:
  EpollPoller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
    IRDB_CHECK_MSG(epfd_.valid(), "epoll_create1 failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeToken;
    IRDB_CHECK(::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, wake_.read_fd(), &ev) ==
               0);
  }

  Status Add(int fd, uint64_t token, bool want_read,
             bool want_write) override {
    return Ctl(EPOLL_CTL_ADD, fd, token, want_read, want_write);
  }
  Status Rearm(int fd, uint64_t token, bool want_read,
               bool want_write) override {
    return Ctl(EPOLL_CTL_MOD, fd, token, want_read, want_write);
  }
  void Remove(int fd) override {
    epoll_event ev{};
    (void)::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, &ev);
  }
  bool Wait(int timeout_ms, uint64_t* token, PollEvents* ev) override {
    epoll_event e{};
    int n = ::epoll_wait(epfd_.get(), &e, 1, timeout_ms);
    if (n < 0) {
      IRDB_CHECK_MSG(errno == EINTR, std::strerror(errno));
      return false;
    }
    if (n == 0 || e.data.u64 == kWakeToken) return false;
    *token = e.data.u64;
    ev->readable = (e.events & (EPOLLIN | EPOLLHUP)) != 0;
    ev->writable = (e.events & EPOLLOUT) != 0;
    ev->error = (e.events & EPOLLERR) != 0;
    return true;
  }
  void Shutdown() override { wake_.Write(); }
  const char* name() const override { return "epoll"; }

 private:
  static constexpr uint64_t kWakeToken = ~uint64_t{0};

  Status Ctl(int op, int fd, uint64_t token, bool want_read,
             bool want_write) {
    epoll_event ev{};
    ev.events = EPOLLONESHOT | (want_read ? EPOLLIN : 0u) |
                (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = token;
    if (::epoll_ctl(epfd_.get(), op, fd, &ev) < 0) {
      return Status::Internal(std::string("epoll_ctl: ") +
                              std::strerror(errno));
    }
    return Status::Ok();
  }

  Fd epfd_;
  WakePipe wake_;
};
#endif  // __linux__

}  // namespace

std::unique_ptr<Poller> MakePoller(bool force_poll) {
#ifdef __linux__
  if (!force_poll) return std::make_unique<EpollPoller>();
#else
  (void)force_poll;
#endif
  return std::make_unique<PollPoller>();
}

EventLoop::EventLoop(bool force_poll, Handler handler)
    : poller_(MakePoller(force_poll)), handler_(std::move(handler)) {}

Status EventLoop::Add(int fd, uint64_t token, bool want_read,
                      bool want_write) {
  return poller_->Add(fd, token, want_read, want_write);
}

Status EventLoop::Rearm(int fd, uint64_t token, bool want_read,
                        bool want_write) {
  return poller_->Rearm(fd, token, want_read, want_write);
}

void EventLoop::Remove(int fd) { poller_->Remove(fd); }

void EventLoop::SetTick(std::function<void()> fn, int interval_ms) {
  tick_ = std::move(fn);
  tick_interval_ms_ = interval_ms;
  next_tick_ms_.store(NowMs() + interval_ms);
}

void EventLoop::Run() {
  while (!stop_.load()) {
    // Without a tick nothing is due, so an idle thread sleeps in the poller
    // until an event or Stop(). With one, wait until it is due (min 1 ms so
    // a late tick cannot turn the loop into a busy spin).
    int timeout_ms = -1;
    if (tick_) {
      int64_t due = next_tick_ms_.load() - NowMs();
      timeout_ms = due < 1 ? 1 : static_cast<int>(due);
    }
    uint64_t token = 0;
    PollEvents ev;
    if (poller_->Wait(timeout_ms, &token, &ev)) handler_(token, ev);
    if (tick_) MaybeTick();
  }
}

void EventLoop::MaybeTick() {
  int64_t due = next_tick_ms_.load();
  const int64_t now = NowMs();
  // The thread whose exchange moves the deadline runs this tick.
  if (now >= due &&
      next_tick_ms_.compare_exchange_strong(due, now + tick_interval_ms_)) {
    tick_();
  }
}

void EventLoop::Stop() {
  stop_.store(true);
  poller_->Shutdown();
}

}  // namespace irdb::net
