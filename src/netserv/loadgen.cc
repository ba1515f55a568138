#include "src/netserv/loadgen.h"

#include <sys/epoll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/base/rand.h"
#include "src/netserv/net.h"

namespace perennial::netserv {

namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// One client connection state machine, advanced by complete response lines.
struct Client {
  uint64_t id = 0;
  bool is_pop3 = false;
  int fd = -1;
  bool dead = false;      // gave up (connect refused / repeated errors)
  bool finished = false;  // budget drained, session closed politely
  int64_t quota = 0;      // this client's share of the request budget
  std::string inbuf;
  std::string outbuf;
  size_t outoff = 0;

  int state = 0;
  uint64_t conn_gen = 0;  // bumped on every (re)connect; outlives fd reuse
  bool in_request = false;
  uint64_t t0_us = 0;
  uint64_t seq = 0;
  int pipe_acks = 0;   // replies consumed in the current pipelined batch
  int rcpts_sent = 0;  // RCPT commands issued for the current message
  uint64_t user = 0;
  std::string cur_line;               // current message body line (no CRLF)
  std::string cur_body;               // contents the server will store
  std::vector<std::string> multiline;  // accumulating multi-line response
  bool in_multiline = false;
  uint64_t retr_target = 0;  // messages listed by the current pickup
  bool did_delete = false;   // this pickup DELEd a message (commits at QUIT)
  // Tempfail retry state: attempts burned on the current request (or on
  // getting past a busy greeting), the parked-until deadline, and whether
  // the wake should re-issue the in-flight delivery with its original tag.
  uint64_t attempt = 0;
  uint64_t retry_at_us = 0;  // 0 = not parked
  bool retry_deliver = false;
};

// SMTP states.
constexpr int kSmtpGreeting = 0;
constexpr int kSmtpHelo = 1;
constexpr int kSmtpIdle = 2;
constexpr int kSmtpMail = 3;
constexpr int kSmtpRcpt = 4;
constexpr int kSmtpData = 5;
constexpr int kSmtpBody = 6;
constexpr int kSmtpQuit = 7;
constexpr int kSmtpPipeline = 8;  // MAIL+RCPT+DATA sent, collecting 250/250/354
constexpr int kSmtpParked = 9;    // tempfailed; waiting out the retry backoff
// POP3 states (one connection per pickup).
constexpr int kPopIdle = 10;
constexpr int kPopGreeting = 11;
constexpr int kPopUser = 12;
constexpr int kPopPass = 13;
constexpr int kPopList = 14;
constexpr int kPopRetr = 15;
constexpr int kPopDele = 16;
constexpr int kPopQuit = 17;
constexpr int kPopParked = 18;  // tempfailed; waiting out the retry backoff

class Driver {
 public:
  Driver(const LoadgenOptions& options, std::atomic<int64_t>* spill, uint64_t first_client,
         uint64_t n_clients, uint64_t n_pop3)
      : options_(options), spill_(spill), rng_(options.rng_seed * 1000003 + first_client) {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    for (uint64_t i = 0; i < n_clients; ++i) {
      auto c = std::make_unique<Client>();
      c->id = first_client + i;
      c->is_pop3 = i < n_pop3;
      c->state = c->is_pop3 ? kPopIdle : kSmtpGreeting;
      c->user = c->id % options_.num_users;
      // Fixed per-client quota (remainder to the lowest ids). A shared
      // budget would let fast clients absorb slow clients' share, so two
      // runs of the same options could do very different work mixes —
      // e.g. under per-op fsync, cheap POP3 pickups would displace slow
      // durable delivers, inflating req/s. Fixed quotas make every run
      // perform the identical request mix.
      c->quota = static_cast<int64_t>(options_.requests / options_.clients) +
                 (c->id < options_.requests % options_.clients ? 1 : 0);
      clients_.push_back(std::move(c));
    }
  }

  ~Driver() {
    for (auto& c : clients_) {
      if (c->fd >= 0) {
        ::close(c->fd);
      }
    }
    if (epfd_ >= 0) {
      ::close(epfd_);
    }
  }

  LoadgenResult Run() {
    for (auto& c : clients_) {
      if (c->is_pop3) {
        StartPickupOrFinish(c.get());
      } else {
        Connect(c.get());  // greeting arrives asynchronously
      }
    }
    uint64_t last_progress_us = NowUs();
    uint64_t progress_marker = 0;
    constexpr int kMaxEvents = 128;
    struct epoll_event events[kMaxEvents];
    for (;;) {
      if (AllSettled()) {
        break;
      }
      // Parked (backing-off) clients need a finer poll than the 100ms
      // housekeeping tick, or a 2ms backoff would stretch to 100ms.
      int timeout_ms = parked_ > 0 ? 2 : 100;
      int n;
      do {
        n = ::epoll_wait(epfd_, events, kMaxEvents, timeout_ms);
      } while (n < 0 && errno == EINTR);
      for (int i = 0; i < n; ++i) {
        auto it = by_fd_.find(events[i].data.fd);
        if (it == by_fd_.end()) {
          continue;
        }
        Client* c = it->second;
        if (events[i].events & EPOLLOUT) {
          Flush(c);
        }
        if (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
          ReadAndAdvance(c);
        }
      }
      if (parked_ > 0) {
        WakeParked();
      }
      // Retries count as progress: a long tempfail storm is the server
      // honestly degrading, not a hang.
      uint64_t done_now =
          result_.ok_requests + result_.errors + result_.tempfails + result_.retries;
      if (done_now != progress_marker) {
        progress_marker = done_now;
        last_progress_us = NowUs();
      } else if (NowUs() - last_progress_us > options_.stall_timeout_ms * 1000) {
        result_.aborted = true;
        break;
      }
    }
    if (!AllFinished()) {
      result_.aborted = true;
    }
    return std::move(result_);
  }

 private:
  bool AllSettled() const {
    for (const auto& c : clients_) {
      if (!c->dead && !c->finished) {
        return false;
      }
    }
    return true;
  }

  bool AllFinished() const {
    for (const auto& c : clients_) {
      if (!c->finished) {
        return false;
      }
    }
    return true;
  }

  // Claim from the client's own quota first, then from the spill pool that
  // dead clients abandoned their remainder into (keeps the total drained
  // exactly at options.requests even when connections die mid-run).
  bool ClaimBudget(Client* c) {
    if (c->quota > 0) {
      --c->quota;
      return true;
    }
    return spill_->fetch_sub(1, std::memory_order_relaxed) > 0;
  }

  void Die(Client* c) {
    c->dead = true;
    if (c->retry_at_us != 0) {
      c->retry_at_us = 0;
      parked_ -= 1;
    }
    if (c->quota > 0) {
      spill_->fetch_add(c->quota, std::memory_order_relaxed);
      c->quota = 0;
    }
  }

  // --- tempfail retry machinery ---

  static bool IsSmtpTemp(const std::string& line) {
    return Ok(line, "421") || Ok(line, "451") || Ok(line, "452");
  }

  // Park the client for an exponential-backoff slice and retry the current
  // request (same body tag, no fresh budget claim); after max_retries the
  // request is abandoned as a tempfail. `reconnect` drops the connection
  // first (421 farewells and mid-transaction failures leave the session in
  // an unknown state; a post-DATA 451/452 leaves it cleanly reset).
  void RetryOrGiveUp(Client* c, bool reconnect) {
    c->attempt += 1;
    if (c->attempt > options_.max_retries) {
      GiveUp(c);
      return;
    }
    result_.retries += 1;
    uint64_t backoff_ms = options_.retry_backoff_start_ms << (c->attempt - 1);
    backoff_ms = std::min(std::max<uint64_t>(backoff_ms, 1), options_.retry_backoff_cap_ms);
    c->retry_at_us = NowUs() + backoff_ms * 1000;
    parked_ += 1;
    if (reconnect) {
      CloseConn(c);
    }
    c->state = c->is_pop3 ? kPopParked : kSmtpParked;
  }

  // The retry budget is spent: record the in-flight request as a tempfail
  // (its tag goes in tempfailed_bodies so the durability audit knows the
  // generator gave up on it) and move on to the next request.
  void GiveUp(Client* c) {
    if (c->in_request) {
      result_.tempfails += 1;
      if (!c->is_pop3) {
        result_.tempfailed_bodies.push_back(c->cur_body);
      }
      c->in_request = false;
    }
    c->attempt = 0;
    c->retry_deliver = false;
    if (c->is_pop3) {
      CloseConn(c);
      c->state = kPopIdle;
      StartPickupOrFinish(c);
      return;
    }
    if (c->fd < 0) {
      Connect(c);  // greeting -> HELO -> next request (or Die if refused)
      return;
    }
    StartDeliverOrQuit(c);
  }

  void WakeParked() {
    uint64_t now = NowUs();
    for (auto& cp : clients_) {
      Client* c = cp.get();
      if (c->retry_at_us == 0 || c->dead || c->finished || now < c->retry_at_us) {
        continue;
      }
      c->retry_at_us = 0;
      parked_ -= 1;
      if (c->fd < 0) {
        Connect(c);  // the FSM resumes from the fresh greeting
        if (c->dead) {
          GiveUp(c);  // records the in-flight request, if any
        }
        continue;
      }
      if (c->is_pop3) {
        c->state = kPopPass;  // server is still waiting in its PASS state
        Send(c, "PASS x");
        continue;
      }
      if (c->retry_deliver) {
        c->retry_deliver = false;
        IssueDeliver(c);  // same tag, same recipients
        continue;
      }
      StartDeliverOrQuit(c);
    }
  }

  void Connect(Client* c) {
    uint16_t port = c->is_pop3 ? options_.pop3_port : options_.smtp_port;
    int fd = ConnectTcp(port);
    if (fd < 0) {
      Die(c);
      return;
    }
    SetNonblocking(fd);
    c->fd = fd;
    c->inbuf.clear();
    c->outbuf.clear();
    c->outoff = 0;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      c->fd = -1;
      Die(c);
      return;
    }
    by_fd_[fd] = c;
    c->conn_gen += 1;
    c->state = c->is_pop3 ? kPopGreeting : kSmtpGreeting;
  }

  void CloseConn(Client* c) {
    if (c->fd >= 0) {
      by_fd_.erase(c->fd);
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd, nullptr);
      ::close(c->fd);
      c->fd = -1;
    }
  }

  void Send(Client* c, const std::string& line) {
    Queue(c, line);
    Flush(c);
  }

  // Append without flushing, so a pipelined batch goes out as one send().
  void Queue(Client* c, const std::string& line) {
    c->outbuf += line;
    c->outbuf += "\r\n";
  }

  void Flush(Client* c) {
    while (c->fd >= 0 && c->outoff < c->outbuf.size()) {
      ssize_t n = SendSome(c->fd, c->outbuf.data() + c->outoff, c->outbuf.size() - c->outoff);
      if (n > 0) {
        c->outoff += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      OnConnLost(c);
      return;
    }
    if (c->outoff == c->outbuf.size()) {
      c->outbuf.clear();
      c->outoff = 0;
    }
  }

  void ReadAndAdvance(Client* c) {
    for (;;) {
      if (c->fd < 0) {
        return;
      }
      char buf[8192];
      ssize_t n = RecvSome(c->fd, buf, sizeof(buf));
      if (n > 0) {
        c->inbuf.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      // EOF or error. Feed any complete lines first — they may finish the
      // request and move the client to a fresh connection (possibly reusing
      // this very fd number), in which case the loss of the old connection
      // is not news. The generation counter survives fd reuse.
      uint64_t dying_gen = c->conn_gen;
      DrainLines(c);
      if (c->conn_gen == dying_gen) {
        OnConnLost(c);
      }
      return;
    }
    DrainLines(c);
  }

  void DrainLines(Client* c) {
    size_t nl;
    while (c->fd >= 0 && (nl = c->inbuf.find('\n')) != std::string::npos) {
      std::string line = c->inbuf.substr(0, nl);
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      c->inbuf.erase(0, nl + 1);
      OnLine(c, line);
    }
  }

  void OnConnLost(Client* c) {
    if (c->finished) {
      return;
    }
    if (c->retry_at_us != 0) {
      CloseConn(c);  // already parked; the wake will reconnect
      return;
    }
    CloseConn(c);
    if (c->in_request) {
      // A connection lost mid-request is a tempfail, not an error: the
      // server may have shed us (drain, restart), and at-least-once retry
      // with the same tag is exactly what a real MTA peer does.
      if (!c->is_pop3) {
        c->retry_deliver = true;
      }
      RetryOrGiveUp(c, /*reconnect=*/true);
      return;
    }
    // Idle between requests: carry on with a fresh connection (the server
    // may just have dropped this one); if the server itself is gone,
    // Connect fails and the client dies, which ends a crash-harness run.
    if (c->is_pop3) {
      c->state = kPopIdle;
      StartPickupOrFinish(c);
    } else {
      Connect(c);
    }
  }

  void FinishClient(Client* c) {
    CloseConn(c);
    c->finished = true;
  }

  // --- request starters ---

  void StartDeliverOrQuit(Client* c) {
    if (!ClaimBudget(c)) {
      c->state = kSmtpQuit;
      Send(c, "QUIT");
      return;
    }
    c->in_request = true;
    c->attempt = 0;
    c->t0_us = NowUs();
    c->user = rng_.Next() % options_.num_users;
    // The body (with its unique tag) is fixed at request start so retries
    // resend the identical message: at-least-once, never two tags.
    std::string tag = "c" + std::to_string(c->id) + "-r" + std::to_string(c->seq++);
    c->cur_line = tag;
    if (c->cur_line.size() < options_.body_bytes) {
      c->cur_line.append(options_.body_bytes - c->cur_line.size(), 'x');
    }
    c->cur_body = c->cur_line + "\r\n";
    IssueDeliver(c);
  }

  // (Re)issue the current message's envelope; SendBody follows the 354.
  void IssueDeliver(Client* c) {
    if (options_.pipeline) {
      c->state = kSmtpPipeline;
      c->pipe_acks = 0;
      Queue(c, "MAIL FROM:<user0@loadgen>");
      for (uint64_t k = 0; k < Rcpts(); ++k) {
        Queue(c, "RCPT TO:<user" + std::to_string(RcptUser(c, k)) + "@loadgen>");
      }
      Queue(c, "DATA");
      Flush(c);
    } else {
      c->state = kSmtpMail;
      c->rcpts_sent = 0;
      Send(c, "MAIL FROM:<user0@loadgen>");
    }
  }

  // Recipients per message, clamped so fan-out never repeats a mailbox.
  uint64_t Rcpts() const {
    uint64_t r = options_.rcpts_per_msg > 0 ? options_.rcpts_per_msg : 1;
    return std::min<uint64_t>(r, options_.num_users);
  }

  uint64_t RcptUser(const Client* c, uint64_t k) const {
    return (c->user + k) % options_.num_users;
  }

  void SendBody(Client* c) {
    // The tagged body line was fixed when the request started (see
    // StartDeliverOrQuit); the server stores it with a CRLF appended.
    c->state = kSmtpBody;
    Queue(c, c->cur_line);
    Queue(c, ".");
    Flush(c);
  }

  void StartPickupOrFinish(Client* c) {
    if (c->dead) {
      return;
    }
    if (!ClaimBudget(c)) {
      FinishClient(c);
      return;
    }
    c->in_request = true;
    c->did_delete = false;
    c->attempt = 0;
    c->t0_us = NowUs();
    Connect(c);
    if (c->dead && c->in_request) {
      result_.errors += 1;
      c->in_request = false;
    }
  }

  void CompleteRequest(Client* c, bool pickup) {
    result_.latencies_us.push_back(NowUs() - c->t0_us);
    result_.ok_requests += 1;
    if (pickup) {
      result_.pickups += 1;
      if (c->did_delete) {
        result_.deletes += 1;
        c->did_delete = false;
      }
    } else {
      // One acked transaction = Rcpts() durable mailbox deliveries, each of
      // which the crash harness expects to find a surviving copy of.
      for (uint64_t k = 0; k < Rcpts(); ++k) {
        result_.delivers += 1;
        result_.acked_bodies.push_back(c->cur_body);
      }
      if (options_.acked_counter != nullptr) {
        options_.acked_counter->fetch_add(1, std::memory_order_relaxed);
      }
    }
    c->in_request = false;
    c->attempt = 0;
    c->retry_deliver = false;
  }

  // --- response handling ---

  static bool Ok(const std::string& line, const char* prefix) {
    return line.compare(0, std::strlen(prefix), prefix) == 0;
  }

  void Unexpected(Client* c) {
    if (c->in_request) {
      result_.errors += 1;
      c->in_request = false;
    }
    CloseConn(c);
    if (c->is_pop3) {
      c->state = kPopIdle;
      StartPickupOrFinish(c);
    } else {
      Connect(c);  // fresh session; next greeting restarts the FSM
    }
  }

  void OnLine(Client* c, const std::string& line) {
    if (c->in_multiline) {
      if (line == ".") {
        c->in_multiline = false;
        OnMultilineDone(c);
      } else {
        c->multiline.push_back(line);
      }
      return;
    }
    switch (c->state) {
      case kSmtpGreeting:
        if (Ok(line, "421")) {
          // Shed at the door (max-conns cap or drain): back off, reconnect.
          result_.shed_connects += 1;
          if (c->in_request) {
            c->retry_deliver = true;
          }
          RetryOrGiveUp(c, /*reconnect=*/true);
          return;
        }
        if (!Ok(line, "220")) {
          Unexpected(c);
          return;
        }
        c->state = kSmtpHelo;
        Send(c, "HELO loadgen");
        return;
      case kSmtpHelo:
        if (!Ok(line, "250")) {
          if (IsSmtpTemp(line)) {
            RetryOrGiveUp(c, /*reconnect=*/true);
            return;
          }
          Unexpected(c);
          return;
        }
        if (c->retry_deliver) {
          c->retry_deliver = false;
          IssueDeliver(c);  // resume the in-flight message on the new conn
          return;
        }
        StartDeliverOrQuit(c);
        return;
      case kSmtpMail:
        if (!Ok(line, "250")) {
          if (IsSmtpTemp(line)) {
            c->retry_deliver = true;
            RetryOrGiveUp(c, /*reconnect=*/true);
            return;
          }
          Unexpected(c);
          return;
        }
        c->state = kSmtpRcpt;
        Send(c, "RCPT TO:<user" + std::to_string(RcptUser(c, c->rcpts_sent++)) + "@loadgen>");
        return;
      case kSmtpRcpt:
        if (!Ok(line, "250")) {
          if (IsSmtpTemp(line)) {
            c->retry_deliver = true;
            RetryOrGiveUp(c, /*reconnect=*/true);
            return;
          }
          Unexpected(c);
          return;
        }
        if (static_cast<uint64_t>(c->rcpts_sent) < Rcpts()) {
          Send(c, "RCPT TO:<user" + std::to_string(RcptUser(c, c->rcpts_sent++)) + "@loadgen>");
          return;
        }
        c->state = kSmtpData;
        Send(c, "DATA");
        return;
      case kSmtpData: {
        if (!Ok(line, "354")) {
          if (IsSmtpTemp(line)) {
            c->retry_deliver = true;
            RetryOrGiveUp(c, /*reconnect=*/true);
            return;
          }
          Unexpected(c);
          return;
        }
        SendBody(c);
        return;
      }
      case kSmtpPipeline: {
        // Replies to the MAIL/RCPT.../DATA batch arrive in order.
        int total = static_cast<int>(Rcpts()) + 2;
        if (!Ok(line, c->pipe_acks < total - 1 ? "250" : "354")) {
          if (IsSmtpTemp(line)) {
            c->retry_deliver = true;
            RetryOrGiveUp(c, /*reconnect=*/true);
            return;
          }
          Unexpected(c);
          return;
        }
        if (++c->pipe_acks < total) {
          return;
        }
        SendBody(c);
        return;
      }
      case kSmtpBody:
        if (!Ok(line, "250")) {
          if (IsSmtpTemp(line)) {
            // Honest tempfail (451/452): the server reset the transaction
            // and kept the connection; retry the same tag in place. A 421
            // farewell means the connection is going away — reconnect.
            c->retry_deliver = true;
            RetryOrGiveUp(c, /*reconnect=*/Ok(line, "421"));
            return;
          }
          Unexpected(c);
          return;
        }
        CompleteRequest(c, /*pickup=*/false);
        StartDeliverOrQuit(c);
        return;
      case kSmtpQuit:
        FinishClient(c);
        return;
      case kSmtpParked:
        if (Ok(line, "421")) {
          CloseConn(c);  // idle-reaped while parked; the wake reconnects
        }
        return;

      case kPopGreeting:
        if (!Ok(line, "+OK")) {
          // "-ERR busy" / "-ERR server shutting down": shed at the door.
          result_.shed_connects += 1;
          RetryOrGiveUp(c, /*reconnect=*/true);
          return;
        }
        c->state = kPopUser;
        Send(c, "USER user" + std::to_string(c->user));
        return;
      case kPopUser:
        if (!Ok(line, "+OK")) {
          Unexpected(c);
          return;
        }
        c->state = kPopPass;
        Send(c, "PASS x");
        return;
      case kPopPass:
        if (!Ok(line, "+OK")) {
          // "-ERR mailbox temporarily unavailable": the session stays at
          // PASS, so the retry re-sends PASS on this same connection.
          RetryOrGiveUp(c, /*reconnect=*/false);
          return;
        }
        c->state = kPopList;
        c->multiline.clear();
        c->in_multiline = true;
        Send(c, "LIST");
        return;
      case kPopDele:
        if (!Ok(line, "+OK")) {
          Unexpected(c);
          return;
        }
        c->did_delete = true;
        c->state = kPopQuit;
        Send(c, "QUIT");
        return;
      case kPopQuit:
        if (!Ok(line, "+OK")) {
          // "-ERR some deleted messages not removed": the pickup itself
          // succeeded (messages read); only the deletes tempfailed. The
          // message will be picked up again — at-least-once, not lost.
          result_.tempfails += 1;
          c->did_delete = false;
        }
        CompleteRequest(c, /*pickup=*/true);
        CloseConn(c);
        c->state = kPopIdle;
        StartPickupOrFinish(c);
        return;
      case kPopParked:
        if (!Ok(line, "+OK")) {
          CloseConn(c);  // reaped while parked; the wake reconnects
        }
        return;
      default:
        Unexpected(c);
        return;
    }
  }

  void OnMultilineDone(Client* c) {
    if (c->state == kPopList) {
      if (c->multiline.empty() || !Ok(c->multiline[0], "+OK")) {
        Unexpected(c);
        return;
      }
      c->retr_target = c->multiline.size() - 1;  // lines after "+OK"
      if (c->retr_target == 0) {
        c->state = kPopQuit;
        Send(c, "QUIT");
        return;
      }
      c->state = kPopRetr;
      c->multiline.clear();
      c->in_multiline = true;
      Send(c, "RETR 1");
      return;
    }
    if (c->state == kPopRetr) {
      if (c->multiline.empty() || !Ok(c->multiline[0], "+OK")) {
        Unexpected(c);
        return;
      }
      c->state = kPopDele;
      Send(c, "DELE 1");
      return;
    }
    Unexpected(c);
  }

  const LoadgenOptions& options_;
  std::atomic<int64_t>* spill_;
  Rng rng_;
  int epfd_ = -1;
  std::vector<std::unique_ptr<Client>> clients_;
  std::unordered_map<int, Client*> by_fd_;
  uint64_t parked_ = 0;  // clients waiting out a retry backoff
  LoadgenResult result_;
};

}  // namespace

LoadgenResult RunLoadgen(const LoadgenOptions& options) {
  auto start = std::chrono::steady_clock::now();
  // Requests are claimed from fixed per-client quotas; this pool only holds
  // what dead clients abandon, so surviving clients can still drain the
  // full budget.
  std::atomic<int64_t> spill{0};
  uint64_t n_pop3_total = std::min(
      options.clients, static_cast<uint64_t>(static_cast<double>(options.clients) *
                                                 options.pickup_fraction +
                                             0.5));
  uint64_t threads = std::max<uint64_t>(1, std::min(options.threads, options.clients));

  std::vector<LoadgenResult> parts(threads);
  std::vector<std::thread> fleet;
  uint64_t base = 0;
  uint64_t pop3_assigned = 0;
  for (uint64_t t = 0; t < threads; ++t) {
    uint64_t n = options.clients / threads + (t < options.clients % threads ? 1 : 0);
    uint64_t pop3_here = std::min(n, n_pop3_total - pop3_assigned);
    pop3_assigned += pop3_here;
    uint64_t first = base;
    base += n;
    fleet.emplace_back([&, t, first, n, pop3_here] {
      Driver driver(options, &spill, first, n, pop3_here);
      parts[t] = driver.Run();
      struct rusage ru;
      if (::getrusage(RUSAGE_THREAD, &ru) == 0) {
        auto us = [](const timeval& tv) {
          return static_cast<uint64_t>(tv.tv_sec) * 1000000 + static_cast<uint64_t>(tv.tv_usec);
        };
        parts[t].client_cpu_us = us(ru.ru_utime) + us(ru.ru_stime);
      }
    });
  }
  for (auto& th : fleet) {
    th.join();
  }

  LoadgenResult merged;
  for (auto& part : parts) {
    merged.ok_requests += part.ok_requests;
    merged.errors += part.errors;
    merged.delivers += part.delivers;
    merged.pickups += part.pickups;
    merged.deletes += part.deletes;
    merged.tempfails += part.tempfails;
    merged.retries += part.retries;
    merged.shed_connects += part.shed_connects;
    merged.client_cpu_us += part.client_cpu_us;
    merged.aborted = merged.aborted || part.aborted;
    merged.latencies_us.insert(merged.latencies_us.end(), part.latencies_us.begin(),
                               part.latencies_us.end());
    for (auto& body : part.acked_bodies) {
      merged.acked_bodies.push_back(std::move(body));
    }
    for (auto& body : part.tempfailed_bodies) {
      merged.tempfailed_bodies.push_back(std::move(body));
    }
  }
  merged.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                             start)
                       .count();
  return merged;
}

uint64_t PercentileUs(std::vector<uint64_t> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= samples.size()) {
    idx = samples.size() - 1;
  }
  return samples[idx];
}

}  // namespace perennial::netserv
